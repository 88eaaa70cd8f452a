"""Diagnostics: attention-group decomposition and exact compute accounting.

Joint attention over H heads x P patches has four kinds of (query, key)
pairs: same patch/same head, same patch/different head, different
patch/same head, and the huge remainder with both different.  This module
counts those populations, measures how softmax mass distributes over them
in a live model, and tallies multiply-accumulates both by instrumenting a
forward pass and analytically: ``flops_layout`` is the one MAC model, and
reads every shape and wiring choice from a ``ModelConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expansion as E
from . import tensor as T
from .config import ConfigError

GROUPS = E.GROUPS
ATTENTION_MODES = ("layer_mean", "final")
"""Aggregations of ``model_attention_stats``: mean over layers, or the last layer."""


# ------------------------------------------------------------- combinatorics

def group_entry_counts(H: int, P: int) -> dict[str, int]:
    """Entry populations of the four groups in an (HP) x (HP) joint matrix.

    SPSH = HP, SPDH = HP(H-1), DPSH = HP(P-1) and everything else is DPDH;
    the four always sum to (HP)^2.
    """
    if H < 1 or P < 1:
        raise ConfigError(f"need H, P >= 1, got H={H}, P={P}")
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
        raise ConfigError(f"need H, P >= 1, got H={H}, P={P}")
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

    ``attn`` is an (H*P, H*P) array, tokens flattened head-major (token = head *
    P + patch); absent pairs are zeros.  ``head_to_task`` assigns each
    global head to its owning task and feeds the cross-task mass summary.
    """
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
                             layer: int, image: int) -> np.ndarray:
    """Scatter one layer's attention of batch entry ``image`` of a batched
    ``result`` into the full (HP) x (HP) matrix.

    Pairs the wiring never computes stay zero, so independent-attention
    models show exactly zero cross-head mass.
    """
    H = model.total_heads
    P = model.cfg.num_patches
    full = np.zeros((H * P, H * P))
    mats = [a[image] for a in result.spatial_attn[layer]]
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


def model_attention_stats(model: E.CilModel, images, mode: str) -> AttentionStats:
    """Average the assembled joint attention over images (and layers, unless
    ``mode='final'``) and decompose it by group; all images run as one batch."""
    if mode not in ATTENTION_MODES:
        raise ConfigError(f"unknown aggregation mode {mode!r}")
    if not len(images):
        raise ConfigError("attention statistics need at least one image")
    H, P = model.total_heads, model.cfg.num_patches
    layers = range(model.cfg.layers) if mode == "layer_mean" else [model.cfg.layers - 1]
    with T.no_grad():
        res = model.forward(np.stack(images), collect_attn=True)
    acc = np.zeros((H * P, H * P))
    for i in range(len(images)):
        for l in layers:
            acc += assemble_joint_attention(model, res, l, i)
    return attention_group_stats(acc / (len(images) * len(layers)),
                                 model.head_to_task(), H, P)


# ------------------------------------------------------------- MAC accounting

def _ta_macs(P: int, pool: int, n_query: int, din: int, attn: int, dout: int) -> int:
    """One task-attention stage over a pool of ``pool`` heads."""
    keys = P * pool * din * attn
    queries = P * n_query * din * attn
    values = pool * P * din * dout
    scores = P * n_query * attn * pool
    weighted = P * n_query * pool * dout
    return keys + queries + values + scores + weighted


def flops_layout(cfg: E.ModelConfig, heads: list[int], classes: list[int]) -> int:
    """Exact forward-pass MACs for one image of a ``cfg`` model whose experts
    have ``heads`` heads and ``classes`` classes, from the layer shapes."""
    P, D, gamma = cfg.num_patches, cfg.head_dim, cfg.gamma
    dne = cfg.strategy == "dne"
    total = D * sum(heads) * (classes[-1] + 1)                  # auxiliary head
    for i, (h, n_cls) in enumerate(zip(heads, classes)):
        pool, width = sum(heads[: i + 1]), D * h
        total += P * cfg.in_channels * cfg.patch_size ** 2 * width   # patch embedding
        for tab in cfg.cta_mask():
            tab = tab and dne
            if cfg.strategy == "sta":       # own-head projections, joint attention
                total += 3 * h * P * D * D + 2 * h * P * pool * P * D
            elif dne and cfg.cta_in_mhsa:   # q/k/v via task attention
                total += 3 * _ta_macs(P, pool, h, D, D, D) + 2 * h * P * P * D
            else:
                total += 3 * h * P * D * D + 2 * h * P * P * D
            total += P * width * width                          # fusion
            total += (_ta_macs(P, pool, h, D, D, gamma * D) if tab and cfg.cta_in_fc1
                      else P * width * gamma * width)
            total += (_ta_macs(P, pool, h, gamma * D, D, D) if tab and cfg.cta_in_fc2
                      else P * gamma * width * width)
        total += h * D * D                                      # token query
        total += 2 * h * P * D * D                              # patch keys/values
        total += 2 * h * P * D                                  # scores + weighted sum
        total += width * width                                  # fusion
        total += width * n_cls                                  # classifier slice
    return total


def flops_model(model: E.CilModel) -> int:
    """Analytic MACs for a live model's exact configuration."""
    return flops_layout(model.cfg, model.heads_per_task, model.classes_per_task)


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


def flops_report(cfg: E.ModelConfig, tasks: int, heads: int, classes_per_task: int,
                 instrumented: int | None = None, model_macs: int | None = None) -> dict:
    """The ``flops.json`` record: analytic MACs of ``tasks`` independent
    experts of ``heads`` heads (``ia``) and of ``tasks`` one-head dense
    experts (``dne``, the regime of the ratio formula), both at ``cfg``'s
    geometry in their default wiring, with the closed-form comparisons;
    ``instrumented`` and ``model_macs`` are the counted and the analytic
    MACs of one forward of a live model, reported as given."""
    if min(tasks, heads) < 1:
        raise ConfigError(f"need tasks, heads >= 1, got {tasks}, {heads}")
    geometry = {name: getattr(cfg, name) for name in E.GEOMETRY}
    analytic = {s: flops_layout(E.ModelConfig(**geometry, strategy=s), [h] * tasks,
                                [classes_per_task] * tasks)
                for s, h in (("ia", heads), ("dne", 1))}
    return {
        "analytic_macs": analytic,
        "analytic_flops": {k: 2 * v for k, v in analytic.items()},
        "instrumented_macs": instrumented,
        "model_macs": model_macs,
        "ratio_dne_over_ia": analytic["dne"] / analytic["ia"],
        "ratio_formula": compute_ratio_formula(tasks, heads, cfg.num_patches),
        "crossover_tasks": crossover_bound(heads, cfg.num_patches),
    }
