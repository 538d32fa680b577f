"""Per-case differences between the frozen fixtures and the current code.

Usage: python3 tools/fixture_diff.py [FIXTURE_DIR]   (default: tests/fixtures)

Replays every fixture case in ``FIXTURE_DIR/*.json`` (the calibration
record ``acceptance_calibration.json`` holds no case and is skipped) with
the comparison of :func:`recykl.fixtures.verify_fixture`, and prints for
each case:

- one line per mismatched counter: for a per-system counter the
  differences fresh - frozen, system by system (both lists when the system
  counts differ); for ``converged`` the two values;
- one ``residual_rel`` line: the largest relative difference
  |fresh - frozen| / |frozen| of the final residuals (the absolute one for
  a frozen zero), whether or not it is inside the allowance;
- ``ok`` when nothing mismatched.

Exits 0 when every case reproduces and 1 when any differs, as ``diff`` does.
"""

from __future__ import annotations

import glob
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from recykl.fixtures import fixture_mismatches, replay_fixture  # noqa: E402


def _counter_line(frozen, fresh) -> str:
    if isinstance(frozen, bool) or len(frozen) != len(fresh):
        return f"{frozen} -> {fresh}"
    return " ".join(f"{b - a:+d}" for a, b in zip(frozen, fresh))


def _max_rel(frozen, fresh) -> str:
    want, got = np.asarray(frozen, dtype=float), np.asarray(fresh, dtype=float)
    if want.shape != got.shape:
        return "n/a (system counts differ)"
    if want.size == 0:
        return "0"
    scale = np.where(want == 0.0, 1.0, np.abs(want))
    return f"{float(np.max(np.abs(got - want) / scale)):.3g}"


def main(argv: list[str]) -> int:
    fixture_dir = argv[0] if argv else os.path.join(ROOT, "tests", "fixtures")
    paths = sorted(p for p in glob.glob(os.path.join(fixture_dir, "*.json"))
                   if os.path.basename(p) != "acceptance_calibration.json")
    if not paths:
        print(f"no fixture case in {fixture_dir}", file=sys.stderr)
        return 2
    differ = False
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        frozen, fresh = replay_fixture(path)
        mismatches = fixture_mismatches(frozen, fresh)
        differ = differ or bool(mismatches)
        for key, pair in mismatches.items():
            if key != "final_residuals":
                print(f"{name} {key} {_counter_line(pair['frozen'], pair['fresh'])}")
        verdict = "residual_rel " + _max_rel(frozen["final_residuals"], fresh["final_residuals"])
        if "final_residuals" in mismatches:
            verdict += " (outside the allowance)"
        print(f"{name} {verdict}")
        if not mismatches:
            print(f"{name} ok")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
