"""The benchmark's per-layer trace keeps splitting the TAB by expert state.

``perfbench/run.py --trace 1`` names each ``expansion.tab_forward`` span
frozen or trainable from its ``model`` and ``task`` arguments, read by
position.  If the signature moves them, both metrics read 0 and the
benchmark's own tests still pass, so this runs a tiny traced train-dne.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_train_dne_splits_tab_time_into_frozen_and_trainable(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-dne", "--seed", "3",
         "--seconds", "0", "--trace", "1", "--size", "tiny",
         "--trace-out", str(tmp_path / "spans.jsonl.gz")],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["expansion.tab_forward.frozen_s"]["value"] > 0
    assert metrics["expansion.tab_forward.trainable_s"]["value"] > 0
