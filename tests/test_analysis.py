"""Analysis tests: combinatorics, group stats vs. a double-loop oracle,
analytic-vs-instrumented MAC equality."""

import numpy as np
import pytest

from densecil import analysis as A
from densecil import cli
from densecil import expansion as E
from densecil import tensor as T
from densecil.config import TOL

GROUPS = tuple(E.group_masks(1, 0, 1, 1))     # the four group names, in order


# ------------------------------------------------------------- entry counts

def test_group_counts_paper_scale():
    counts = A.group_entry_counts(16, 64)
    assert counts["DPDH"] == 967_680
    assert sum(counts.values()) == 1_048_576
    assert counts["DPDH"] / sum(counts.values()) == pytest.approx(0.9228515625)


def test_group_counts_degenerate():
    assert A.group_entry_counts(1, 1) == {"SPSH": 1, "SPDH": 0, "DPSH": 0, "DPDH": 0}


def test_group_counts_enumeration_oracle():
    H, P = 2, 3
    got = A.group_entry_counts(H, P)
    counted = {g: 0 for g in GROUPS}
    for qh in range(H):
        for qp in range(P):
            for kh in range(H):
                for kp in range(P):
                    key = ("S" if qp == kp else "D") + "P" + \
                          ("S" if qh == kh else "D") + "H"
                    counted[key] += 1
    assert got == counted
    assert got == {"SPSH": 6, "SPDH": 6, "DPSH": 12, "DPDH": 12}


def test_group_counts_sum_exhaustive():
    for H in range(1, 33):
        for P in range(1, 33):
            assert sum(A.group_entry_counts(H, P).values()) == (H * P) ** 2


# ------------------------------------------------------------- crossover

def test_crossover_standard_vit():
    assert A.crossover_bound(12, 196) == 2300


def test_crossover_single_head():
    assert A.crossover_bound(1, 196) == 1


def test_crossover_small():
    assert A.crossover_bound(2, 10) == 14


# ------------------------------------------------------------- group stats

def stats_oracle(attn, H, P):
    """Entry-by-entry double loop classification."""
    mass = {g: 0.0 for g in GROUPS}
    count = {g: 0 for g in GROUPS}
    for qi in range(H * P):
        for ki in range(H * P):
            qh, qp = divmod(qi, P)
            kh, kp = divmod(ki, P)
            g = ("S" if qp == kp else "D") + "P" + ("S" if qh == kh else "D") + "H"
            mass[g] += attn[qi, ki]
            count[g] += 1
    total = attn.sum()
    return {g: (mass[g] / total, mass[g] / count[g] if count[g] else 0.0, count[g])
            for g in GROUPS}


def test_uniform_attention_portions_equal_count_fractions():
    H, P = 2, 4
    attn = np.full((H * P, H * P), 1.0 / (H * P))
    stats = A.attention_group_stats(attn, [0, 1], H, P)
    counts = A.group_entry_counts(H, P)
    total = (H * P) ** 2
    for g in GROUPS:
        assert stats.groups[g].portion == pytest.approx(counts[g] / total)


def test_ia_attention_has_zero_cross_head_mass():
    cfg = E.ModelConfig(image_size=8, patch_size=4, in_channels=3, head_dim=4,
                        gamma=2, layers=1, strategy="ia")
    m = E.CilModel(cfg, seed=0)
    m.add_expert(2, 2)
    m.add_expert(1, 2)
    rng = np.random.default_rng(1)
    img = rng.random((1, 3, 8, 8))
    with T.no_grad():
        res = m.forward(img, collect_attn=True)
    full = A.assemble_joint_attention(m, res, 0, 0)
    stats = A.attention_group_stats(full, m.head_to_task(), 3, cfg.num_patches)
    assert stats.groups["SPDH"].portion == 0.0
    assert stats.groups["DPDH"].portion == 0.0
    assert stats.groups["SPSH"].portion + stats.groups["DPSH"].portion == pytest.approx(1.0)


def test_stats_match_double_loop_oracle():
    rng = np.random.default_rng(2)
    H, P = 3, 4
    raw = rng.random((H * P, H * P))
    attn = raw / raw.sum(axis=1, keepdims=True)
    stats = A.attention_group_stats(attn, [0, 0, 1], H, P)
    want = stats_oracle(attn, H, P)
    for g in GROUPS:
        portion, mean, count = want[g]
        assert stats.groups[g].portion == pytest.approx(portion, abs=1e-12)
        assert stats.groups[g].mean == pytest.approx(mean, abs=1e-12)
        assert stats.groups[g].count == count


def test_stats_portions_sum_to_one():
    rng = np.random.default_rng(3)
    H, P = 2, 5
    raw = rng.random((H * P, H * P))
    attn = raw / raw.sum(axis=1, keepdims=True)
    stats = A.attention_group_stats(attn, [0, 1], H, P)
    assert sum(s.portion for s in stats.groups.values()) == pytest.approx(1.0, abs=TOL.row_sum)
    assert sum(s.count for s in stats.groups.values()) == (H * P) ** 2


# ------------------------------------------------------------- FLOPs

def _model_for(strategy, heads, classes, P=4, D=8, layers=1, gamma=2, **cfg_kw):
    side = int(round(P ** 0.5))
    assert side * side == P
    cfg = E.ModelConfig(image_size=side * 4, patch_size=4, in_channels=3,
                        head_dim=D, gamma=gamma, layers=layers,
                        strategy=strategy, **cfg_kw)
    m = E.CilModel(cfg, seed=0)
    for h, c in zip(heads, classes):
        m.add_expert(h, c)
    return m


def _check_instrumented(strategy, heads, classes, **kw):
    m = _model_for(strategy, heads, classes, **kw)
    rng = np.random.default_rng(4)
    img = rng.random((3, m.cfg.image_size, m.cfg.image_size))
    got = A.instrumented_macs(m, img)
    want = A.flops_model(m)
    assert got == want, (strategy, heads, classes, kw, got, want)


def test_instrumented_equals_analytic_two_task_reference():
    # 2 tasks, 1 head each, P=4, D=8
    _check_instrumented("dne", [1, 1], [2, 2], P=4, D=8)


@pytest.mark.parametrize("strategy,heads,classes,kw", [
    ("ia", [1], [2], {}),
    ("ia", [2, 1], [3, 2], {}),
    ("ia", [1, 1, 1], [2, 2, 2], {"layers": 2}),
    ("dne", [1], [2], {}),
    ("dne", [2, 1], [2, 2], {}),
    ("dne", [1, 1, 1], [2, 2, 2], {"layers": 2}),
    ("dne", [2, 2], [2, 2], {"P": 16, "D": 4}),
    ("sta", [2, 1], [2, 2], {}),
    ("sta", [1, 1], [2, 2], {"layers": 2}),
    ("dne", [2, 1], [2, 2], {"cta_in_mhsa": True}),
    ("dne", [2, 1], [2, 2], {"cta_layers": (True, False), "layers": 2}),
    ("dne", [2, 1], [2, 2], {"cta_in_fc1": False}),
    ("dne", [2, 1], [2, 2], {"cta_in_fc2": False}),
    ("dne", [2, 1, 1], [2, 2, 2], {"share_q": "f", "share_k": "f"}),
    ("dne", [2, 1, 1], [2, 2, 2], {"share_v": "s"}),
    ("dne", [2, 1, 1], [2, 2, 2], {"share_v": "s", "cta_in_mhsa": True}),
    ("sta", [2, 1], [2, 2], {"sta_variant": "none"}),
    ("sta", [2, 1], [2, 2], {"sta_variant": "spdh"}),
    ("sta", [2, 1], [2, 2], {"sta_variant": "dpdh"}),
])
def test_instrumented_equals_analytic_grid(strategy, heads, classes, kw):
    _check_instrumented(strategy, heads, classes, **kw)


def test_flops_single_task_strategies_share_spatial_term():
    # with one task only the mixing stage differs between ia and dne, so
    # dne with its TAB switched off costs exactly what ia costs
    ia = A.flops_layout(E.ModelConfig(head_dim=8, strategy="ia"), [2], [2])
    plain = E.ModelConfig(head_dim=8, cta_in_fc1=False, cta_in_fc2=False)
    assert A.flops_layout(plain, [2], [2]) == ia
    assert A.flops_layout(E.ModelConfig(head_dim=8), [2], [2]) > ia


def test_flops_monotone_in_each_argument():
    base = dict(image_size=16, head_dim=8, gamma=4, layers=2)
    bumps = dict(image_size=20, head_dim=9, gamma=5, layers=3)
    for strategy in ("ia", "dne"):
        ref = A.flops_layout(E.ModelConfig(**base, strategy=strategy), [2] * 3, [2] * 3)
        for name, value in bumps.items():
            cfg = E.ModelConfig(**{**base, name: value}, strategy=strategy)
            assert A.flops_layout(cfg, [2] * 3, [2] * 3) > ref, (strategy, name)
        cfg = E.ModelConfig(**base, strategy=strategy)
        for heads, classes in (([2] * 4, [2] * 4), ([3] * 3, [2] * 3), ([2] * 3, [3] * 3)):
            assert A.flops_layout(cfg, heads, classes) > ref, (strategy, heads, classes)


def test_ratio_formula_values():
    assert A.compute_ratio_formula(1, 1, 4) == pytest.approx(5.0 / 5.0)
    assert A.crossover_bound(12, 196) == 2300


def test_flops_report_round_trip(tmp_path):
    cfg = E.ModelConfig(head_dim=64)
    path = tmp_path / "flops.json"
    cli.write_json(A.flops_report(cfg, 4, 2, 2), path)
    import json
    data = json.loads(path.read_text())
    assert data["analytic_flops"]["ia"] == 2 * data["analytic_macs"]["ia"]
    assert data["crossover_tasks"] == A.crossover_bound(2, 16)
