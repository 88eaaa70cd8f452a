"""The benchmark's per-layer trace keeps splitting the TAB by expert state
and each task by phase.

``perfbench/run.py --trace 1`` names each ``expansion.tab_forward`` span
frozen or trainable from its ``model`` and ``task`` arguments, read by
position, and splits each ``train_task`` span into phase 1, herding and
phase 2 at its ``token_features`` and ``herding_select`` spans, found by
name.  If the code moves any of them, those metrics read 0 and the
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
    lines = proc.stdout.strip().splitlines()
    report = json.loads(next(line for line in lines if line.startswith("report "))[7:])
    metrics = json.loads(lines[-1])["metrics"]
    assert report["absent"] == []
    assert metrics["expansion.tab_forward.frozen_s"]["value"] > 0
    assert metrics["expansion.tab_forward.trainable_s"]["value"] > 0
    for phase in ("continual.phase1_s", "continual.herding_s", "continual.phase2_s"):
        assert metrics[phase]["value"] > 0, phase
