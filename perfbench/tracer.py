"""Spans and counters around the layers' public functions, for traced passes.

``Tracer.install()`` rebinds each function named in ``TARGETS`` (and the
names other modules imported it under) to a wrapper; ``uninstall()`` puts
the originals back.  Nothing under ``src/`` changes.

* Hot kernel operations (``HOT``) keep only aggregated calls and seconds.
* Every other wrapped call also records a span: id, name, start, end,
  parent span and the id of the case or study it belongs to.
* Self time is a call's time minus the time of the wrapped calls directly
  inside it.  ``.s`` metrics are inclusive of nested calls.
* ``.bytes``, ``.flops`` and ``.steps`` are computed from arguments and
  results (see ``COMPUTED``); no hardware counter is read.
"""

from __future__ import annotations

import time
from collections import defaultdict

from opucgems import algmodel, lab, laurent, opuc, trig

# metric prefix -> (owner, attribute) pairs rebound to one shared wrapper
TARGETS = {
    "laurent.add": [(laurent.LaurentPoly, "__add__"), (laurent.LaurentPoly, "__radd__")],
    "laurent.mul": [(laurent.LaurentPoly, "__mul__"), (laurent.LaurentPoly, "__rmul__")],
    "laurent.normal_form": [(laurent.LaurentPoly, "normal_form")],
    "laurent.exact_div": [(laurent, "exact_div"), (algmodel, "exact_div")],
    "laurent.substitute": [(laurent, "substitute"), (algmodel, "substitute")],
    "laurent.divided_diff": [(laurent, "divided_diff"), (algmodel, "divided_diff")],
    "trig.build_h": [(trig, "build_h"), (lab, "build_h")],
    "opuc.head": [(opuc.VerblunskySeq, "head")],
    "opuc.ggt_matrix": [(opuc, "ggt_matrix"), (lab, "ggt_matrix")],
    "opuc.trace_v": [(opuc, "trace_v"), (lab, "trace_v")],
    "opuc.log_term": [(opuc, "log_term"), (lab, "log_term")],
    "algmodel.trace_symbolic": [(algmodel, "trace_symbolic")],
    "algmodel.trace_expansion_check": [(algmodel, "trace_expansion_check")],
    "algmodel.g2k_routes_check": [(algmodel, "g2k_routes_check")],
    "algmodel.g2k_trace_scaled": [(algmodel, "g2k_trace_scaled")],
    "algmodel.g2k_hl_scaled_dd": [(algmodel, "g2k_hl_scaled_dd")],
    "algmodel.g2k_hl_scaled_hom": [(algmodel, "g2k_hl_scaled_hom")],
    "algmodel.build_g2k_hl": [(algmodel, "build_g2k_hl")],
    "algmodel.constant_sum_check": [(algmodel, "constant_sum_check")],
    "algmodel.basis_relation_check": [(algmodel, "basis_relation_check")],
    "algmodel.site_poly": [(algmodel, "site_poly")],
    "algmodel.site_functional": [(algmodel, "site_functional"), (lab, "site_functional")],
    "lab.convergence_study": [(lab, "convergence_study")],
    "lab.condition_diagnostics": [(lab, "condition_diagnostics")],
    "lab.classify_values": [(lab, "classify_values")],
    "lab.export_report": [(lab, "export_report")],
}
HOT = {"laurent.add", "laurent.mul", "laurent.normal_form",
       "laurent.exact_div", "laurent.substitute"}
# calls that start a new case or study: their spans and descendants share an id
CASE_ROOTS = {"algmodel.trace_expansion_check", "algmodel.g2k_routes_check",
              "algmodel.build_g2k_hl", "algmodel.constant_sum_check",
              "algmodel.basis_relation_check", "lab.convergence_study"}


def _ggt_bytes(args, result):
    return 16 * args[1] ** 2  # one complex128 N x N matrix


def _trace_v_flops(args, result):
    n, d = args[0].shape[0], args[1].degree
    return 8 * n ** 3 * max(d - 1, 0)  # d - 1 complex N x N matmuls


# counter name -> (prefix, function of (args, result)); computed, not measured
COMPUTED = {
    "opuc.ggt_matrix.bytes": ("opuc.ggt_matrix", _ggt_bytes),
    "opuc.trace_v.flops": ("opuc.trace_v", _trace_v_flops),
    "laurent.exact_div.steps": ("laurent.exact_div", lambda a, r: len(r.terms)),
    "algmodel.trace_symbolic.terms": ("algmodel.trace_symbolic", lambda a, r: len(r.terms)),
    "algmodel.site_functional.sites": ("algmodel.site_functional", lambda a, r: a[1]),
    "algmodel.trace_expansion_check.compared": (
        "algmodel.trace_expansion_check", lambda a, r: r.compared_terms),
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)   # inclusive, outermost calls only
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(int)      # COMPUTED counters
        self.spans = []
        self.covered = 0.0                  # time inside outermost wrapped calls
        self._stack = []                    # [child_seconds] per open call
        self._active = defaultdict(int)
        self._span = None                   # innermost open span id
        self._case = None
        self._saved = []

    def install(self):
        hooks = defaultdict(list)
        for counter, (prefix, fn) in COMPUTED.items():
            hooks[prefix].append((counter, fn))
        for prefix, targets in TARGETS.items():
            original = getattr(*targets[0])
            wrapper = self._wrap(prefix, original, hooks[prefix])
            for owner, attr in targets:
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, prefix, fn, hooks):
        record = prefix not in HOT
        is_root = prefix in CASE_ROOTS
        tracer = self
        stack, active = self._stack, self._active

        def wrapper(*args, **kwargs):
            frame = [0.0]
            parent, case = tracer._span, tracer._case
            if record:
                span_id = len(tracer.spans)
                tracer.spans.append(None)  # reserve the id; filled on exit
                tracer._span = span_id
                if is_root:
                    tracer._case = span_id
            stack.append(frame)
            active[prefix] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                active[prefix] -= 1
                elapsed = end - start
                tracer.calls[prefix] += 1
                tracer.self_seconds[prefix] += elapsed - frame[0]
                if not active[prefix]:
                    tracer.seconds[prefix] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.covered += elapsed
                if record:
                    tracer.spans[span_id] = {
                        "id": span_id, "name": prefix, "start": start, "end": end,
                        "parent": parent, "case": tracer._case}
                    tracer._span, tracer._case = parent, case
            for counter, count in hooks:
                tracer.counts[counter] += count(args, result)
            return result

        return wrapper

    def metrics(self, run_s: float) -> dict:
        """Per-layer metric values for one traced pass of ``run_s`` seconds."""
        secs, counts = self.seconds, self.counts
        built = counts["algmodel.trace_symbolic.terms"]
        sites = counts["algmodel.site_functional.sites"]
        out = {}
        for prefix in TARGETS:
            out[f"{prefix}.calls"] = self.calls[prefix]
            out[f"{prefix}.s"] = secs[prefix]
        out.update({name: counts[name] for name in (
            "opuc.ggt_matrix.bytes", "opuc.trace_v.flops",
            "laurent.exact_div.steps", "algmodel.trace_symbolic.terms")})
        out["algmodel.trace_expansion_check.useful_ratio"] = (
            counts["algmodel.trace_expansion_check.compared"] / built if built else 0.0)
        out["algmodel.site_functional.us_per_site"] = (
            1e6 * secs["algmodel.site_functional"] / sites if sites else 0.0)
        out["lab.convergence_study.self_s"] = self.self_seconds["lab.convergence_study"]
        out["trace.unspanned_s"] = run_s - self.covered
        return out
