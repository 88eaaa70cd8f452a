"""Diagnostics: attention-group decomposition and exact compute accounting.

Joint attention over H heads x P patches has four kinds of (query, key)
pairs: same patch/same head, same patch/different head, different
patch/same head, and the huge remainder with both different.  This module
counts those populations, measures how softmax mass distributes over them
in a live model, and tallies multiply-accumulates both analytically (from
the layer shapes) and by instrumenting a forward pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import expansion as E
from . import tensor as T

GROUPS = E.GROUPS


# ------------------------------------------------------------- combinatorics

def group_entry_counts(H: int, P: int) -> dict[str, int]:
    """Entry populations of the four groups in an (HP) x (HP) joint matrix.

    SPSH = HP, SPDH = HP(H-1), DPSH = HP(P-1) and everything else is DPDH;
    the four always sum to (HP)^2.
    """
    if H < 1 or P < 1:
        raise ValueError(f"need H, P >= 1, got H={H}, P={P}")
    hp = H * P
    return {
        "SPSH": hp,
        "SPDH": hp * (H - 1),
        "DPSH": hp * (P - 1),
        "DPDH": hp * (hp - H - P + 1),
    }


def crossover_bound(H: int, P: int) -> int:
    """Largest task count for which the densely-connected model is cheaper
    than independent experts of H heads each: H^2 + (H-1)P."""
    if H < 1 or P < 1:
        raise ValueError(f"need H, P >= 1, got H={H}, P={P}")
    return H * H + (H - 1) * P


# ------------------------------------------------------------- group stats

@dataclass
class GroupStat:
    portion: float
    mean: float
    count: int


@dataclass
class AttentionStats:
    groups: dict[str, GroupStat]
    cross_task_portion: float
    total_mass: float

    def to_dict(self) -> dict:
        return {
            "groups": {k: {"portion": v.portion, "mean": v.mean, "count": v.count}
                       for k, v in self.groups.items()},
            "cross_task_portion": self.cross_task_portion,
            "total_mass": self.total_mass,
        }


def attention_group_stats(attn, head_to_task, H: int, P: int) -> AttentionStats:
    """Classify every (query, key) entry of a joint attention matrix.

    ``attn`` is (H*P, H*P) with tokens flattened head-major (token = head *
    P + patch); absent pairs are zeros.  ``head_to_task`` assigns each
    global head to its owning task and feeds the cross-task mass summary.
    """
    attn = attn.data if isinstance(attn, T.Tensor) else np.asarray(attn)
    if attn.shape != (H * P, H * P):
        raise T.ShapeError(f"attention shape {attn.shape} inconsistent with H*P={H * P}")
    head_to_task = list(head_to_task)
    if len(head_to_task) != H:
        raise T.ShapeError(f"head_to_task has {len(head_to_task)} entries for H={H}")
    masks = E.group_masks(H, 0, H, P)
    total = float(attn.sum())
    groups = {}
    for name, mask in masks.items():
        mass = float(attn[mask].sum())
        count = int(mask.sum())
        groups[name] = GroupStat(
            portion=mass / total if total else 0.0,
            mean=mass / count if count else 0.0,
            count=count,
        )
    tasks = np.repeat(head_to_task, P)
    cross = tasks[:, None] != tasks[None, :]
    cross_portion = float(attn[cross].sum()) / total if total else 0.0
    return AttentionStats(groups=groups, cross_task_portion=cross_portion,
                          total_mass=total)


def assemble_joint_attention(model: E.CilModel, result: E.ForwardResult,
                             layer: int) -> np.ndarray:
    """Scatter one layer's attention into the full (HP) x (HP) matrix.

    Pairs the wiring never computes stay zero, so independent-attention
    models show exactly zero cross-head mass.
    """
    layout = model.layout
    H = layout.total_heads
    P = model.cfg.num_patches
    full = np.zeros((H * P, H * P))
    mats = result.spatial_attn[layer]
    offset = 0
    for t, ex in enumerate(model.experts):
        a = mats[t]
        if a.ndim == 3:                       # per-head (H_i, P, P)
            for j in range(ex.heads):
                rows = (offset + j) * P
                full[rows:rows + P, rows:rows + P] = a[j]
        else:                                 # joint rows (H_i*P, M_i*P)
            rows = offset * P
            full[rows:rows + a.shape[0], : a.shape[1]] = a
        offset += ex.heads
    return full


def model_attention_stats(model: E.CilModel, images, mode: str = "layer_mean",
                          ) -> AttentionStats:
    """Average the assembled joint attention over images (and layers, unless
    ``mode='final'``) and decompose it by group."""
    if mode not in ("layer_mean", "final"):
        raise ValueError(f"unknown aggregation mode {mode!r}")
    layout = model.layout
    H, P = layout.total_heads, model.cfg.num_patches
    acc = np.zeros((H * P, H * P))
    n = 0
    with T.no_grad():
        for img in images:
            res = model.forward(img, collect_attn=True)
            layers = range(model.cfg.layers) if mode == "layer_mean" \
                else [model.cfg.layers - 1]
            for l in layers:
                acc += assemble_joint_attention(model, res, l)
                n += 1
    return attention_group_stats(acc / n, layout.head_to_task(), H, P)


# ------------------------------------------------------------- MAC accounting

def _attention_macs(strategy: str, heads: list[int], P: int, D: int,
                    cta_in_mhsa: bool) -> int:
    total = 0
    for i, h in enumerate(heads):
        pool = sum(heads[: i + 1])
        width = D * h
        if strategy == "sta":
            total += 3 * h * P * D * D                   # own-head projections
            total += 2 * h * P * pool * P * D            # joint scores + weighted sum
        elif cta_in_mhsa:
            total += 3 * _ta_macs(P, pool, h, D, D, D)   # q/k/v via task attention
            total += 2 * h * P * P * D                   # per-head spatial attention
        else:
            total += 3 * h * P * D * D
            total += 2 * h * P * P * D
        total += P * width * width                       # fusion
    return total


def _ta_macs(P: int, pool: int, n_query: int, din: int, attn: int, dout: int) -> int:
    keys = P * pool * din * attn
    queries = P * n_query * din * attn
    values = pool * P * din * dout
    scores = P * n_query * attn * pool
    weighted = P * n_query * pool * dout
    return keys + queries + values + scores + weighted


def _mixing_macs(strategy: str, heads: list[int], P: int, D: int, gamma: int,
                 cta_layer: bool, cta_fc1: bool, cta_fc2: bool) -> int:
    total = 0
    for i, h in enumerate(heads):
        pool = sum(heads[: i + 1])
        width = D * h
        tab = strategy == "dne" and cta_layer
        if tab and cta_fc1:
            total += _ta_macs(P, pool, h, D, D, gamma * D)
        else:
            total += P * width * (gamma * width)
        if tab and cta_fc2:
            total += _ta_macs(P, pool, h, gamma * D, D, D)
        else:
            total += P * (gamma * width) * width
    return total


def _head_macs(heads: list[int], classes: list[int], P: int, D: int) -> int:
    total = 0
    for h, n_cls in zip(heads, classes):
        width = D * h
        total += h * D * D                      # token query
        total += 2 * h * P * D * D              # patch keys/values
        total += 2 * h * P * D                  # scores + weighted sum
        total += width * width                  # fusion
        total += width * n_cls                  # classifier slice
    total += (D * sum(heads)) * (classes[-1] + 1)   # auxiliary head
    return total


def flops_layout(heads: list[int], classes: list[int], *, P: int, D: int,
                 gamma: int, layers: int, in_channels: int, patch_size: int,
                 strategy: str, cta_layers=None, cta_in_mhsa: bool = False,
                 cta_fc1: bool = True, cta_fc2: bool = True) -> int:
    """Exact forward-pass MACs for one image, from the layer shapes."""
    if cta_layers is None:
        cta_layers = [True] * layers
    patch_dim = in_channels * patch_size * patch_size
    total = sum(P * patch_dim * D * h for h in heads)
    for l in range(layers):
        total += _attention_macs(strategy, heads, P, D, cta_in_mhsa)
        total += _mixing_macs(strategy, heads, P, D, gamma,
                              cta_layers[l], cta_fc1, cta_fc2)
    total += _head_macs(heads, classes, P, D)
    return total


_FLOPS_DEFAULTS = dict(gamma=4, layers=2, in_channels=3, patch_size=4,
                       classes_per_task=2)


def flops_ia(T_: int, H: int, P: int, D: int, **kw) -> int:
    """MACs of T independent experts with H heads each."""
    opts = {**_FLOPS_DEFAULTS, **kw}
    cls = opts.pop("classes_per_task")
    return flops_layout([H] * T_, [cls] * T_, P=P, D=D, strategy="ia", **opts)


def flops_dne(T_: int, H: int, P: int, D: int, **kw) -> int:
    """MACs of T densely-connected experts with H heads each."""
    opts = {**_FLOPS_DEFAULTS, **kw}
    cls = opts.pop("classes_per_task")
    return flops_layout([H] * T_, [cls] * T_, P=P, D=D, strategy="dne", **opts)


def flops_model(model: E.CilModel) -> int:
    """Analytic MACs for a live model's exact configuration."""
    cfg = model.cfg
    return flops_layout(
        [e.heads for e in model.experts], [e.n_classes for e in model.experts],
        P=cfg.num_patches, D=cfg.head_dim, gamma=cfg.gamma, layers=cfg.layers,
        in_channels=cfg.in_channels, patch_size=cfg.patch_size,
        strategy=cfg.strategy, cta_layers=list(cfg.cta_mask()),
        cta_in_mhsa=cfg.cta_in_mhsa, cta_fc1=cfg.cta_in_fc1, cta_fc2=cfg.cta_in_fc2)


def instrumented_macs(model: E.CilModel, image) -> int:
    """Count the MACs one forward pass actually performs."""
    with T.no_grad():
        with T.MacCounter() as counter:
            model.forward(image)
    return counter.macs


def compute_ratio_formula(T_: int, H: int, P: int) -> float:
    """Closed-form cost ratio of a 1-head-per-task dense model over
    H-head independent experts: (P + T) / (H (P + H))."""
    return (P + T_) / (H * (P + H))


@dataclass
class FlopsReport:
    analytic: dict[str, int]
    instrumented: int | None
    ratio_dne_over_ia: float
    ratio_formula: float
    crossover_tasks: int

    def to_dict(self) -> dict:
        return {
            "analytic_macs": self.analytic,
            "analytic_flops": {k: 2 * v for k, v in self.analytic.items()},
            "instrumented_macs": self.instrumented,
            "ratio_dne_over_ia": self.ratio_dne_over_ia,
            "ratio_formula": self.ratio_formula,
            "crossover_tasks": self.crossover_tasks,
        }


def flops_report(T_: int, H: int, P: int, D: int, instrumented: int | None = None,
                 **kw) -> FlopsReport:
    """Analytic counts for both wirings plus the closed-form comparisons.

    The measured ratio follows the 1-head-per-task dense configuration,
    matching the regime the ratio formula describes.
    """
    ia = flops_ia(T_, H, P, D, **kw)
    dne = flops_dne(T_, 1, P, D, **kw)
    return FlopsReport(
        analytic={"ia": ia, "dne": dne},
        instrumented=instrumented,
        ratio_dne_over_ia=dne / ia,
        ratio_formula=compute_ratio_formula(T_, H, P),
        crossover_tasks=crossover_bound(H, P),
    )


def write_attention_json(stats: AttentionStats, path, extra: dict | None = None) -> None:
    payload = stats.to_dict()
    if extra:
        payload.update(extra)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def write_flops_json(report: FlopsReport, path) -> None:
    with open(path, "w") as f:
        json.dump(report.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
