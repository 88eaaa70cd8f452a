"""Tests of the benchmark itself: span arithmetic, hook tolerance, smoke runs."""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from densebench import forward_macs, phase_split
from hostspeed import REFERENCE_KERNEL_MS, HostSampler
from spantrace import Span, Tracer, self_macs, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1, macs=100),
        Span("a", 1.0, 4.0, 0, macs=60),
        Span("a.inner", 2.0, 3.0, 1, macs=25),
        Span("b", 5.0, 9.0, 0, macs=30),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert self_macs(spans) == [10, 35, 25, 30]
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_phase_split_cuts_train_task_at_herding_calls():
    spans = [
        Span("continual.train_task", 0.0, 10.0, -1),
        Span("expansion.forward", 1.0, 2.0, 0),
        Span("continual.token_features", 4.0, 5.0, 0),
        Span("continual.herding_select", 5.0, 5.5, 0),
        Span("expansion.forward", 7.0, 8.0, 0),
    ]
    assert phase_split(spans) == pytest.approx((4.0, 1.5, 4.5))


def test_forward_macs_merges_frozen_and_trainable_spans():
    spans = [
        Span("expansion.forward", 0.0, 1.0, -1, macs=50),
        Span("backbone.mhsa_block.frozen", 0.1, 0.2, 0, macs=10),
        Span("backbone.mhsa_block.trainable", 0.3, 0.4, 0, macs=15),
    ]
    macs = forward_macs(spans)
    assert macs["backbone.mhsa_block.macs"] == 25
    assert macs["expansion.forward.macs"] == 25
    assert macs["tensor.macs_per_forward"] == 50


def test_tracer_records_nested_spans_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original_inner = mod.inner
    tracer = Tracer(clock=iter(range(100)).__next__)
    assert tracer.wrap(mod, "inner", "m.inner")
    assert tracer.wrap(mod, "outer", "m.outer")
    assert mod.outer(1) == 4                    # disabled: nothing recorded
    assert tracer.take() == []
    tracer.enabled = True
    assert mod.outer(1) == 4
    spans = tracer.take()
    assert [(s.name, s.parent) for s in spans] == [("m.outer", -1), ("m.inner", 0)]
    assert self_times(spans) == [2, 1]
    tracer.restore()
    assert mod.inner is original_inner


def test_tracer_reports_missing_attribute_as_absent():
    mod = types.SimpleNamespace(present=lambda: 1)
    tracer = Tracer()
    assert not tracer.wrap(mod, "removed_later", "m.removed_later")
    assert not tracer.hook(mod, "gone", "m.gone", lambda a, k: None)
    assert tracer.absent == ["m.removed_later", "m.gone"]
    tracer.restore()
    assert mod.present() == 1


def test_reference_ms_removes_samples_and_scales_by_host_speed():
    host = HostSampler(kernel=lambda: None)
    host.samples = [(1.0, 0.004), (1.5, 0.006), (9.0, 0.050)]
    # 0.7 s of wall time holds 10 ms of samples; the host ran the kernel at
    # 5 ms against the reference's REFERENCE_KERNEL_MS.
    assert host.reference_ms(0.9, 1.6) == pytest.approx(690.0 * REFERENCE_KERNEL_MS / 5.0)
    # no sample nearby: the nearest one describes the host
    assert host.reference_ms(8.0, 8.1) == pytest.approx(100.0 * REFERENCE_KERNEL_MS / 50.0)


def run_bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(l[len("report "):]) for l in lines if l.startswith("report "))
    return json.loads(lines[-1]), report


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric(workload, trace, tmp_path):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", trace, "--size", "tiny",
                     "--trace-out", str(tmp_path / "spans.jsonl.gz"))
    result, report = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert report["env"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    info = {"infer-dne": {"eval_images_per_s": "1/s", "eval_request_ms.p50": "ms"}}.get(
        workload, {"train_s": "s", "final_acc": "%", "avg_acc": "%"})
    units = {k: v["unit"] for k, v in report["info"].items()}
    assert units.items() >= {**info, "failed_frac": "ratio"}.items()
    if trace == "1":
        assert report["absent"] == []
        assert result["metrics"]["tensor.macs_per_forward"]["value"] == report["flops_model"]
        assert (tmp_path / "spans.jsonl.gz").stat().st_size > 0


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "train-dne", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
