"""The benchmark's per-layer trace keeps splitting the TAB and the MHSA
blocks by expert state and each task by phase, and keeps timing every
attention stage.

``perfbench/run.py --trace 1`` names each ``expansion.tab_forward`` and
``backbone.mhsa_block`` span frozen or trainable from its arguments, read
by position, times ``expansion.task_token_head`` and
``expansion.sta_attention_stage`` by name, and splits each ``train_task``
span into phase 1, herding and phase 2 at its ``token_features`` and
``herding_select`` spans, found by name.  If the code moves any of them,
those metrics read 0 and the benchmark's own tests still pass, so this runs
a tiny traced train-dne and train-sta.  The MAC counts are those of the
tiny sizes, which the attention kernels must keep.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced_tiny_run(workload: str, tmp_path) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", "1", "--size", "tiny",
         "--trace-out", str(tmp_path / "spans.jsonl.gz")],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = json.loads(next(line for line in lines if line.startswith("report "))[7:])
    metrics = json.loads(lines[-1])["metrics"]
    return report, {name: m["value"] for name, m in metrics.items()}


def test_traced_train_dne_splits_tab_time_into_frozen_and_trainable(tmp_path):
    report, metrics = _traced_tiny_run("train-dne", tmp_path)
    assert report["absent"] == []
    assert metrics["expansion.tab_forward.frozen_s"] > 0
    assert metrics["expansion.tab_forward.trainable_s"] > 0
    for phase in ("continual.phase1_s", "continual.herding_s", "continual.phase2_s"):
        assert metrics[phase] > 0, phase
    for name in ("backbone.mhsa_block.frozen_s", "backbone.mhsa_block.trainable_s",
                 "expansion.task_token_head_s"):
        assert metrics[name] > 0, name
    assert metrics["backbone.mhsa_block.macs"] == 147_456
    assert metrics["expansion.task_token_head.macs"] == 27_808


def test_traced_train_sta_times_the_joint_attention_stage(tmp_path):
    report, metrics = _traced_tiny_run("train-sta", tmp_path)
    assert report["absent"] == []
    assert metrics["expansion.sta_attention_stage_s"] > 0
    assert metrics["expansion.sta_attention_stage.macs"] == 196_608
