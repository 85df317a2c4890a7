"""Self-test of the benchmark itself, at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

* Each workload runs once untraced and once traced at ``--tiny`` size; each
  run must pass its checks, print its ``failed_share`` and emit exactly
  the metric names that ``BENCHMARK.json`` lists for that mode.
* A deliberately wrong stored digest must make ``failed_share`` non-zero.
* ``PaceClock.seconds`` must leave out the kernel's time and scale the rest
  by ``NOMINAL_S / pace`` (checked on made-up samples).

Exits 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from pace import NOMINAL_S, PaceClock  # noqa: E402
from workloads import VerifyRoutes  # noqa: E402


def pace_problems() -> list:
    """``seconds`` on samples 1 s apart: reference pace, then half speed."""
    clock = PaceClock()
    clock.samples = [(t, t + NOMINAL_S) for t in (0.0, 1.0, 2.0, 3.0)]
    clock.samples += [(t, t + 2 * NOMINAL_S) for t in (4.0, 5.0, 6.0, 7.0)]
    cases = {(0.5, 2.5): 2.0 - 2 * NOMINAL_S,  # two kernel runs left out
             (4.5, 5.5): 0.5 / 2 + (0.5 - 2 * NOMINAL_S) / 2}
    problems = []
    for (t0, t1), expected in cases.items():
        got = clock.seconds(t0, t1)
        if abs(got - expected) > 1e-12:
            problems.append(f"PaceClock.seconds({t0}, {t1}) = {got}, not {expected}")
    return problems


def main() -> int:
    with open(ROOT / "BENCHMARK.json", "rb") as fh:
        spec = json.load(fh)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr[-300:]}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            wanted = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{label}: metrics differ from BENCHMARK.json "
                                f"{sorted(set(got) ^ set(wanted))}")
            if "failed_share=" not in done.stdout:
                problems.append(f"{label}: no failed_share line")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} failed checks")
            print(f"ok? {not problems} {label}: {result['attempted']} checks")

    with open(HERE / "reference.json", "rb") as fh:
        reference = json.load(fh)
    wrong = copy.deepcopy(reference)
    for table in wrong["digests"].values():
        table["k=1 d=1"] = "0" * 64
    result = VerifyRoutes(7, wrong, tiny=True).run_pass()
    share = len(result.failures) / result.attempted
    print(f"wrong digest: failed_share={share:g} {result.failures}")
    if share == 0:
        problems.append("a wrong stored digest left failed_share at 0")

    problems += pace_problems()
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
