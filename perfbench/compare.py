"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py A.jsonl [B.jsonl]

Inputs are files written by ``sweep.py``.  For each workload and
end-to-end metric this prints each set's median and quartiles and the
spread, the distance between the quartiles as a share of the median.  A
set is steady when every spread except that of ``setup_s`` is within the
metric's bound.  With two sets, B agrees with A when B's median is not
worse than A's by more than the bound.  Exits 1 when a run was not correct,
a set is not steady or the sets disagree.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> tuple[dict, list[str]]:
    """values[workload][metric] -> list, and the problems found."""
    values: dict = defaultdict(lambda: defaultdict(list))
    problems = []
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        res = rec.get("result")
        if not res:
            problems.append(f"{path}: {rec['workload']} seed {rec['seed']} gave no result")
            continue
        if not res["correct"]:
            problems.append(f"{path}: {rec['workload']} seed {rec['seed']} not correct")
        for name, m in res["metrics"].items():
            values[rec["workload"]][name].append(m["value"])
    return values, problems


def summary(xs: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(base: float, new: float, better: str) -> float:
    return (new - base) / base if better == "lower" else (base - new) / base


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(p) for p in argv]
    problems = [p for _, probs in sets for p in probs]
    for wl in [w["name"] for w in bench["workloads"]]:
        print(f"== {wl}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = [f"{name:16s} bound {bound:.2f}"]
            meds = []
            for i, (values, _) in enumerate(sets):
                xs = values[wl][name]
                if not xs:
                    row.append(f"set{i}: missing")
                    problems.append(f"{wl} {name}: missing in set {i}")
                    continue
                med, q1, q3, spread = summary(xs)
                meds.append(med)
                flag = "steady" if spread < bound / 3 else ("ok" if spread <= bound else "WIDE")
                row.append(f"set{i}: n={len(xs)} med {med:.5g} q [{q1:.5g}, {q3:.5g}] "
                           f"spread {spread:.3f} {flag}")
                if spread > bound and name != "setup_s":
                    problems.append(f"{wl} {name}: spread {spread:.3f} > bound in set {i}")
            if len(meds) == 2:
                w = worse_by(meds[0], meds[1], metric["better"])
                agree = w <= bound
                row.append(f"worse by {w:+.3f} {'agree' if agree else 'DISAGREE'}")
                if not agree:
                    problems.append(f"{wl} {name}: second median worse by {w:.3f}")
            print("  " + " | ".join(row))
    for p in problems:
        print("problem:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
