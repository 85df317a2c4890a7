"""Regenerate ``reference.json``, the stored outputs the benchmark checks.

    python3 perfbench/make_reference.py

* ``digests``: SHA-256 of ``build_g2k_hl(k, h).to_text()`` for K = 1,
  k <= min(4, d) <= 5, at each exact quarter angle.  A change to the
  program must keep these byte-identical.
* ``red_case``: the constant(0.5) study at d = 2 (the known red case) for
  the full and the self-test schedule.  Stored to check the output stays
  stable; the verdict is recorded as computed, not judged.

Only regenerate when the stored outputs are meant to change, and say so.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from opucgems import algmodel, lab, trig  # noqa: E402

from workloads import QUARTER_ANGLES, digest, red_case_values  # noqa: E402


def main():
    digests = {}
    for theta in QUARTER_ANGLES:
        table = digests[theta] = {}
        for d in range(1, 6):
            h = trig.build_h(trig.CriticalPoints.from_pairs([(Fraction(theta), d)]),
                             "exact")
            for k in range(1, min(4, d) + 1):
                table[f"k={k} d={d}"] = digest(algmodel.build_g2k_hl(k, h).to_text())
    points = trig.CriticalPoints.from_pairs([(Fraction(0), 2)])
    red = {}
    for schedule in ([400, 800, 1600, 3200], [100, 200, 400]):
        report = lab.convergence_study(lab.SequenceFamily.constant(0.5), points,
                                       schedule)
        red[",".join(map(str, schedule))] = red_case_values(report)
    with open(HERE / "reference.json", "w") as fh:
        json.dump({"digests": digests, "red_case": red}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
