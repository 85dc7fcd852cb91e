"""Compare two suite reports: ``python3 compare.py A.json B.json``.

One row per workload x end-to-end metric: both medians, the ratio B/A with
its base (A's median), the metric's bound, and a verdict:

``better`` / ``worse``
    B's median differs from A's by more than the bound, in that direction;
``same``
    the medians are within the bound;
``unresolved``
    the inter-quartile spread across rounds of either report exceeds the
    bound, so a difference of the bound's size cannot be told from noise.

Exits non-zero on any ``worse`` and when a workload's ``failed_share`` rose.
Each workload keeps its own row; no combined score is computed.
"""

from __future__ import annotations

import json
import sys


def verdict(base: float, other: float, better: str, bound: float,
            spread: float) -> str:
    if spread > bound:
        return "unresolved"
    change = (other - base) / base
    if better == "lower":
        change = -change
    if change > bound:
        return "better"
    if change < -bound:
        return "worse"
    return "same"


def compare(first: dict, second: dict) -> tuple:
    """``(rows, regressed)`` for two reports of ``run.py --out``."""
    rows = []
    regressed = False
    for workload, base_entry in first["end_to_end"].items():
        other_entry = second["end_to_end"].get(workload)
        if other_entry is None:
            rows.append((workload, "-", "missing from the second report"))
            regressed = True
            continue
        for metric, base in base_entry["metrics"].items():
            other = other_entry["metrics"][metric]
            outcome = verdict(base["median"], other["median"],
                              base["better"], base["bound"],
                              max(base["spread"], other["spread"]))
            regressed |= outcome == "worse"
            rows.append((
                workload, metric,
                f"{base['median']:.6g} -> {other['median']:.6g} "
                f"{base['unit']}  x{other['median'] / base['median']:.3f} "
                f"of {base['median']:.6g}  spread "
                f"{base['spread']:.3f}/{other['spread']:.3f}  "
                f"bound {base['bound']:.2f}  {outcome}"))
        if other_entry["failed_share"] > base_entry["failed_share"]:
            regressed = True
            rows.append((
                workload, "failed_share",
                f"{base_entry['failed_share']:.6g} -> "
                f"{other_entry['failed_share']:.6g}  worse (bound 0)"))
    return rows, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path) as handle:
            reports.append(json.load(handle))
    rows, regressed = compare(*reports)
    for workload, metric, text in rows:
        print(f"{workload:<18} {metric:<16} {text}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
