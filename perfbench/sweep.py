"""Run the benchmark over several seeds and save every result.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/out/a.jsonl \
        [--workloads train-dne,infer-dne] [--seconds 20] [--trace 0]

Runs one benchmark process at a time, from the checkout root.  Workloads
are interleaved within each seed, so slow drift of the host spreads over
all of them instead of landing on one.  Each line of the output file holds
the workload, the seed, the report line and the result line of one run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    record = {"workload": workload, "seed": seed, "trace": trace,
              "returncode": proc.returncode, "result": None, "report": None}
    if proc.returncode == 0 and lines:
        record["result"] = json.loads(lines[-1])
        for line in lines:
            if line.startswith("report "):
                record["report"] = json.loads(line[len("report "):])
    else:
        record["stderr"] = proc.stderr[-2000:]
    return record


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", required=True, help="inclusive range, e.g. 1-10")
    p.add_argument("--out", required=True)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a") as f:
        for seed in seed_range(args.seeds):
            for workload in args.workloads.split(","):
                record = run_one(workload, seed, args.seconds, args.trace)
                f.write(json.dumps(record) + "\n")
                f.flush()
                res = record["result"] or {}
                print(workload, seed, "rc", record["returncode"], "correct", res.get("correct"),
                      {k: round(v["value"], 4) for k, v in res.get("metrics", {}).items()
                       if not args.trace}, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
