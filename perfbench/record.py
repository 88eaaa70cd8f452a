"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py [--seeds 0-63]

Writes ``perfbench/reference.json``: for each train workload and seed, the
final and average accuracy and the checkpoint's sha256 after one training
run at the standard size; for infer-dne, the logits of the fixed probe
images.  Seeds outside the recorded range are checked only for
run-to-run determinism.
"""

import argparse
import json
import sys

from run import bootstrap


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="0-63", help="inclusive range")
    args = p.parse_args(argv)
    bootstrap()
    import densebench as bench
    from densecil import cli

    lo, _, hi = args.seeds.partition("-")
    size = bench.SIZES["standard"]
    ref: dict = {}
    for workload in ("train-dne", "train-sta"):
        per_seed = ref.setdefault(workload, {}).setdefault(size.name, {})
        for seed in range(int(lo), int(hi or lo) + 1):
            cfg = bench.train_config(workload, size, seed)
            _, summary, _ = bench.train_once(cfg, cli.build_stream(cfg))
            per_seed[str(seed)] = summary
            print(workload, seed, summary, flush=True)
    cfg = bench.infer_config(size, 0, per_class=size.infer_per_class)
    model = bench.build_infer_model(cfg, cli.build_stream(cfg))
    logits = bench.probe_logits(model, bench.probe_images(size))
    ref["infer-dne"] = {size.name: {"probe_logits": logits.tolist()}}
    bench.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
