"""Benchmark for opucgems: exact G_2k proofs and sum-rule studies.

Run from the repository root::

    python3 perfbench/run.py --workload verify-trace --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

One process runs one workload (``all`` runs each in its own process and
prints a table).  Passes over the workload's fixed input repeat while
another one fits in ``--seconds`` (at least one pass); timings are medians
over passes.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics instead.  Every output is checked; the last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, whose names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # setup_s runs from here to the first timed call

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 8  # extra fresh processes timed for setup_s


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up seconds and exit")
    return parser.parse_args(argv)


def limit_blas_threads() -> int:
    """Cap BLAS threads at nproc in this process's own environment."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        wanted = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(wanted, nproc))
    # the benchmark calls the library directly; no worker pool may add load
    os.environ["OPUCGEMS_WORKERS"] = "1"
    return nproc


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blasThreads": os.environ["OPENBLAS_NUM_THREADS"],
            "opucgemsWorkers": os.environ["OPUCGEMS_WORKERS"],
            "seed": seed, "commit": git_commit()}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "rb") as fh:
        return json.load(fh)


def timed_pass(workload):
    gc.collect()  # start every pass with the same heap
    start = time.perf_counter()
    result = workload.run_pass()
    return result, start, time.perf_counter()


def pass_times(result, start: float, end: float, seconds) -> dict:
    """A pass's time, rate and slowest item, with ``seconds(t0, t1)`` as clock."""
    run_s = seconds(start, end)
    slowest = max((seconds(a, b) for a, b in result.item_spans), default=run_s)
    return {"run_s": run_s, "items_per_s": result.items / run_s,
            "slowest_item_s": slowest}


def measure(workload, seconds: float, traced: bool) -> dict:
    """Repeat passes within ``seconds``; medians over passes.

    At least one pass runs; after that, a pass starts only if one more
    round, as long as the last, would end before the deadline.  Untraced
    runs of a workload with ``host_paced`` time each pass under a
    ``PaceClock``: the reported times are corrected for the host's speed
    (see ``pace.py``), and the plain wall times are kept beside them.
    Traced runs alternate an untraced and a traced pass, both without the
    clock, so the tracing overhead is the difference of two wall times on
    the same inputs in the same process.
    """
    from pace import PaceClock
    from tracer import Tracer

    paced = workload.host_paced and not traced
    times, walls, layers, traced_runs = [], [], [], []
    attempted, failures, tracer = 0, [], None
    deadline = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        with PaceClock() if paced else nullcontext() as clock:
            result, start, end = timed_pass(workload)
        walls.append(pass_times(result, start, end, lambda a, b: b - a))
        times.append(pass_times(result, start, end, clock.seconds) if paced else walls[-1])
        attempted, failures = attempted + result.attempted, failures + result.failures
        if traced:
            tracer = Tracer()
            with tracer:
                result, start, end = timed_pass(workload)
            traced_runs.append(end - start)
            layers.append(tracer.metrics(end - start))
            attempted, failures = attempted + result.attempted, failures + result.failures
        now = time.perf_counter()
        if now + (now - round_start) > deadline:
            break
    values = {name: median(t[name] for t in times) for name in times[0]}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = {name: median(w[name] for w in walls) for name in walls[0]}
    if traced:
        values.update({name: median([m[name] for m in layers]) for name in layers[0]})
        values["trace.run_s"] = median(traced_runs)
        values["trace.overhead_s"] = median(traced_runs) - wall["run_s"]
    return {"values": values, "wall": wall, "attempted": attempted,
            "failures": failures, "passes": len(times),
            "spans": {"spans": tracer.spans, "self_s": tracer.self_seconds} if tracer else None,
            "samples": {"run_s": [t["run_s"] for t in times],
                        "wall.run_s": [w["run_s"] for w in walls],
                        "trace.run_s": traced_runs}}


def setup_probes(args, count: int) -> list:
    """Set-up seconds of ``count`` fresh processes, run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def run_one(args) -> int:
    nproc = limit_blas_threads()
    import opucgems

    if Path(opucgems.__file__).resolve().parent != SRC / "opucgems":
        sys.stderr.write(f"imported opucgems from {opucgems.__file__}, not {SRC}\n")
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)} or all\n")
        return 2
    with open(HERE / "reference.json", "rb") as fh:
        reference = json.load(fh)
    workload = WORKLOADS[args.workload](args.seed, reference, tiny=args.tiny)
    setup_s = time.perf_counter() - START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = environment(args.seed, nproc)
    print(json.dumps({"env": env}))
    spec = load_spec()
    measured = measure(workload, args.seconds, bool(args.trace))
    values = measured["values"]
    if args.trace:
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
        samples = [setup_s] + setup_probes(args, SETUP_PROBES)
        measured["samples"]["setup_s"] = samples
        values["setup_s"] = median(samples)
    failed = len(measured["failures"])
    attempted = measured["attempted"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "env": env, "metrics": metrics,
              "attempted": attempted, "failed": failed,
              "failures": measured["failures"], "passes": measured["passes"],
              "wall": measured["wall"], "samples": measured["samples"],
              "computedCounts": [m["name"] for m in wanted
                                 if m["unit"].endswith("-computed")]}
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if measured["spans"] is not None:
        with open(OUT / f"spans-{stem}.json", "w") as fh:
            json.dump(measured["spans"], fh)
    for label in measured["failures"][:10]:
        print(f"FAILED: {label}")
    print(f"failed_share={failed / attempted} ({failed}/{attempted} checks), "
          f"{measured['passes']} passes")
    print("uncorrected wall clock: " + ", ".join(
        f"{name}={value:.6g}" for name, value in measured["wall"].items()))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a table, then one combined line."""
    spec_workloads = [w["name"] for w in load_spec()["workloads"]]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec_workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        share = result["failed"] / result["attempted"]
        print(f"{name:14s} failed_share     {share:g} "
              f"({result['failed']}/{result['attempted']} checks)")
        for metric, entry in result["metrics"].items():
            print(f"{name:14s} {metric:44s} {entry['value']:.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "opucgems" / "__init__.py").is_file():
        sys.stderr.write(f"no opucgems sources under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
