"""The growing model: per-task experts wired together by task attention.

A ``CilModel`` holds one expert per task.  Each expert owns its patch
embedding, per-block attention and feature-mixing parameters, a task token
with its read-out block, and a classifier slice.  ``add_expert`` freezes
everything that exists and appends a fresh expert, so old outputs are
reproduced bit-for-bit forever after.

Three wirings are supported:

* ``ia``  - experts run independently; features are concatenated.
* ``sta`` - spatial attention runs jointly over the (patch, head) tokens of
  all experts visible to each task, restricted to a configurable set of
  same/different-patch x same/different-head groups.
* ``dne`` - spatial attention stays per-task, and the feature-mixing block
  becomes a task attention block (TAB) that lets the newest expert query
  the per-patch head features of every expert.

Each TAB applies task attention twice per block: once over the post-MHSA
tokens to produce the widened intermediate, once over the intermediates of
all tasks to produce the residual update (head width gamma*D on the way up,
D on the way down).

No operation couples two images, so ``forward`` takes one (C, h, w) image
or a (B, C, h, w) batch through the same code; every activation then
carries the batch axis in front, and each image's outputs equal its own
single-image forward bit for bit.
"""

from __future__ import annotations

import io
import json
import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from . import backbone as B
from . import tensor as T
from .config import ConfigError
from .tensor import Tensor

STRATEGIES = ("ia", "sta", "dne")
GROUPS = ("SPSH", "SPDH", "DPSH", "DPDH")
STA_CROSS_HEAD = {"none": (), "spdh": ("SPDH",), "dpdh": ("DPDH",), "both": ("SPDH", "DPDH")}
"""Cross-head groups each sta variant adds to the always-on same-head pairs."""
STA_VARIANTS = tuple(STA_CROSS_HEAD)
SHARE_MODES = ("s", "f")

CKPT_VERSION = 1


class CheckpointError(ValueError):
    """Malformed or inconsistent checkpoint container."""


# ----------------------------------------------------------------- layout

@dataclass(frozen=True)
class ExpertLayout:
    """How many spatial-attention heads each task expert owns."""
    heads_per_task: tuple[int, ...]
    head_dim: int
    gamma: int

    def __post_init__(self):
        if any(h < 1 for h in self.heads_per_task):
            raise ConfigError("every expert needs at least one head")

    @property
    def total_heads(self) -> int:
        return sum(self.heads_per_task)

    def pool_heads(self, task: int) -> int:
        """Heads visible to ``task``: its own plus all earlier experts'."""
        return sum(self.heads_per_task[: task + 1])

    def head_to_task(self) -> list[int]:
        out = []
        for t, h in enumerate(self.heads_per_task):
            out.extend([t] * h)
        return out


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 16
    patch_size: int = 4
    in_channels: int = 3
    head_dim: int = 16
    gamma: int = 4
    layers: int = 2
    strategy: str = "dne"
    sta_variant: str = "both"
    cta_layers: tuple[bool, ...] | None = None
    cta_in_mhsa: bool = False
    cta_in_fc1: bool = True
    cta_in_fc2: bool = True
    share_q: str = "s"
    share_k: str = "s"
    share_v: str = "f"

    def __post_init__(self):
        for name in ("image_size", "patch_size", "in_channels", "head_dim", "gamma", "layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.sta_variant not in STA_VARIANTS:
            raise ConfigError(f"unknown sta variant {self.sta_variant!r}")
        for mode in (self.share_q, self.share_k, self.share_v):
            if mode not in SHARE_MODES:
                raise ConfigError(f"share mode must be 's' or 'f', got {mode!r}")
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image size {self.image_size} not divisible by patch {self.patch_size}")
        if self.cta_layers is not None and len(self.cta_layers) != self.layers:
            raise ConfigError("cta_layers mask length must equal layer count")

    @property
    def num_patches(self) -> int:
        side = self.image_size // self.patch_size
        return side * side

    def cta_mask(self) -> tuple[bool, ...]:
        if self.cta_layers is None:
            return tuple([True] * self.layers)
        return tuple(bool(v) for v in self.cta_layers)


# ----------------------------------------------------------------- TAB params

@dataclass
class TaStageParams:
    """One task-attention application.

    ``wq``/``wk`` are ``None`` on experts that reuse the shared (task-1)
    matrices; ``wv_own`` holds only the value matrices this expert owns --
    the full per-head stack is assembled at forward time.
    """
    ln_gain: Tensor           # (din_head,)
    ln_bias: Tensor
    wq: Tensor | None         # (din_head, attn_dim)
    wk: Tensor | None
    wv_own: Tensor            # (n_own, din_head, dout_head)
    lam: Tensor               # (H_t,) learned per-new-head scale


@dataclass
class CtaAttentionParams:
    """MHSA variant whose q/k/v projections are task attentions."""
    ta_q: TaStageParams
    ta_k: TaStageParams
    ta_v: TaStageParams
    fuse_w: Tensor
    fuse_b: Tensor


@dataclass
class StaAttentionParams:
    """Per-task piece of the joint wiring: only the fusion layer.

    The q/k/v projections live in one tied set per block (owned by the
    first task, frozen afterwards) so that every head's keys are the same
    function of its tokens.
    """
    fuse_w: Tensor
    fuse_b: Tensor


@dataclass
class BlockStage:
    kind: str                        # "mlp" | "ta"
    mlp: B.MlpStageParams | None = None
    ta: TaStageParams | None = None


@dataclass
class ExpertBlock:
    attn: B.SelfAttentionParams | CtaAttentionParams | StaAttentionParams
    fc1: BlockStage
    fc2: BlockStage


@dataclass
class TaskExpert:
    index: int
    heads: int
    n_classes: int
    embed: B.PatchEmbedParams
    blocks: list[ExpertBlock]
    token: Tensor                    # (1, D*H_t)
    token_block: B.SelfAttentionParams
    head_w: Tensor                   # (D*H_t, n_classes)
    head_b: Tensor


@dataclass
class StageView:
    """A TA stage with sharing resolved: ready-to-run tensors."""
    ln_gain: Tensor
    ln_bias: Tensor
    wq: Tensor
    wk: Tensor
    wv_stacks: list[Tensor]          # concat along head axis gives (H_pool, din, dout)
    lam: Tensor
    attn_dim: int


# ----------------------------------------------------------------- model

class CilModel:
    """The growing class-incremental network."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        self.rng = np.random.default_rng(seed)
        self.experts: list[TaskExpert] = []
        self.pos: Tensor | None = None
        self.tied_attn: list[B.TiedAttentionParams] | None = None
        self.aux_w: Tensor | None = None
        self.aux_b: Tensor | None = None
        self._params: dict[str, Tensor] = {}

    # -- bookkeeping ------------------------------------------------------

    @property
    def task_count(self) -> int:
        return len(self.experts)

    @property
    def layout(self) -> ExpertLayout:
        return ExpertLayout(tuple(e.heads for e in self.experts),
                            self.cfg.head_dim, self.cfg.gamma)

    @property
    def classes_per_task(self) -> list[int]:
        return [e.n_classes for e in self.experts]

    @property
    def total_classes(self) -> int:
        return sum(e.n_classes for e in self.experts)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self._params.items())

    def trainable_parameters(self) -> list[Tensor]:
        return [t for t in self._params.values() if t.requires_grad]

    def parameters_with_prefix(self, *prefixes: str) -> list[Tensor]:
        return [t for n, t in self._params.items()
                if t.requires_grad and any(n.startswith(p) for p in prefixes)]

    def freeze_all(self) -> None:
        for t in self._params.values():
            t.requires_grad = False

    def head_to_task(self) -> list[int]:
        return self.layout.head_to_task()

    def _register(self, name: str, tensor: Tensor) -> Tensor:
        self._params[name] = tensor
        return tensor

    def _register_attn(self, prefix: str, p: B.SelfAttentionParams) -> None:
        for f in fields(p):
            self._register(f"{prefix}.{f.name}", getattr(p, f.name))

    def _register_ta(self, prefix: str, p: TaStageParams) -> None:
        self._register(f"{prefix}.ln_gain", p.ln_gain)
        self._register(f"{prefix}.ln_bias", p.ln_bias)
        if p.wq is not None:
            self._register(f"{prefix}.wq", p.wq)
        if p.wk is not None:
            self._register(f"{prefix}.wk", p.wk)
        self._register(f"{prefix}.wv", p.wv_own)
        self._register(f"{prefix}.lam", p.lam)

    def _register_mlp_stage(self, prefix: str, p: B.MlpStageParams) -> None:
        for f in fields(p):
            self._register(f"{prefix}.{f.name}", getattr(p, f.name))

    # -- expansion ----------------------------------------------------------

    def add_expert(self, new_heads: int, new_classes: int) -> "CilModel":
        """Freeze the existing network and append a task expert.

        The new expert gets ``new_heads`` spatial heads, TAB matrices for
        every head it can see (respecting the share modes), a task token,
        a classifier slice of ``new_classes`` outputs, and a fresh
        (new_classes + 1)-way auxiliary head.
        """
        if new_heads < 1:
            raise ConfigError(f"new_heads must be >= 1, got {new_heads}")
        if new_classes < 1:
            raise ConfigError(f"new_classes must be >= 1, got {new_classes}")
        cfg = self.cfg
        self.freeze_all()
        t = len(self.experts)
        rng = self.rng
        d = cfg.head_dim
        dp = cfg.gamma * d
        width = d * new_heads
        pool = sum(e.heads for e in self.experts) + new_heads

        if t == 0:
            self.pos = B.init_positional_table(rng, cfg.num_patches, d)
            self._register("pos", self.pos)
            if cfg.strategy == "sta":
                self.tied_attn = []
                for l in range(cfg.layers):
                    tied = B.init_tied_attention(rng, d)
                    for f in fields(tied):
                        self._register(f"shared.attn{l}.{f.name}", getattr(tied, f.name))
                    self.tied_attn.append(tied)

        ecfg = B.PatchEmbedConfig(cfg.image_size, cfg.patch_size, cfg.in_channels,
                                  d, new_heads)
        embed = B.init_patch_embed(rng, ecfg)
        self._register(f"task{t}.embed.weight", embed.weight)
        self._register(f"task{t}.embed.bias", embed.bias)

        def ta_stage(prefix: str, din: int, dout: int, shared_ok: bool) -> TaStageParams:
            own_q = t == 0 or cfg.share_q == "f" or not shared_ok
            own_k = t == 0 or cfg.share_k == "f" or not shared_ok
            own_all_v = cfg.share_v == "f" or not shared_ok
            n_own = pool if own_all_v else new_heads
            p = TaStageParams(
                ln_gain=Tensor(np.ones(din), requires_grad=True),
                ln_bias=Tensor(np.zeros(din), requires_grad=True),
                wq=Tensor(T.fan_in_normal(rng, (din, d)), requires_grad=True) if own_q else None,
                wk=Tensor(T.fan_in_normal(rng, (din, d)), requires_grad=True) if own_k else None,
                wv_own=Tensor(T.fan_in_normal(rng, (n_own, din, dout)), requires_grad=True),
                lam=Tensor(np.ones(new_heads), requires_grad=True),
            )
            self._register_ta(prefix, p)
            return p

        cta_mask = cfg.cta_mask()
        blocks: list[ExpertBlock] = []
        for l in range(cfg.layers):
            pfx = f"task{t}.blk{l}"
            if cfg.strategy == "sta":
                attn: B.SelfAttentionParams | CtaAttentionParams | StaAttentionParams
                attn = StaAttentionParams(
                    fuse_w=self._register(f"{pfx}.attn.fuse_w",
                                          Tensor(T.fan_in_normal(rng, (width, width)),
                                                 requires_grad=True)),
                    fuse_b=self._register(f"{pfx}.attn.fuse_b",
                                          Tensor(np.zeros(width), requires_grad=True)),
                )
            elif cfg.strategy == "dne" and cfg.cta_in_mhsa:
                attn = CtaAttentionParams(
                    ta_q=ta_stage(f"{pfx}.attn.ta_q", d, d, shared_ok=False),
                    ta_k=ta_stage(f"{pfx}.attn.ta_k", d, d, shared_ok=False),
                    ta_v=ta_stage(f"{pfx}.attn.ta_v", d, d, shared_ok=False),
                    fuse_w=self._register(f"{pfx}.attn.fuse_w",
                                          Tensor(T.fan_in_normal(rng, (width, width)),
                                                 requires_grad=True)),
                    fuse_b=self._register(f"{pfx}.attn.fuse_b",
                                          Tensor(np.zeros(width), requires_grad=True)),
                )
            else:
                sa = B.init_self_attention(rng, new_heads, d)
                self._register_attn(f"{pfx}.attn", sa)
                attn = sa

            use_tab = cfg.strategy == "dne" and cta_mask[l]
            if use_tab and cfg.cta_in_fc1:
                fc1 = BlockStage("ta", ta=ta_stage(f"{pfx}.fc1", d, dp, shared_ok=True))
            else:
                st = B.init_mlp_stage(rng, d, width, cfg.gamma * width)
                self._register_mlp_stage(f"{pfx}.fc1", st)
                fc1 = BlockStage("mlp", mlp=st)
            if use_tab and cfg.cta_in_fc2:
                fc2 = BlockStage("ta", ta=ta_stage(f"{pfx}.fc2", dp, d, shared_ok=True))
            else:
                st = B.init_mlp_stage(rng, dp, cfg.gamma * width, width)
                self._register_mlp_stage(f"{pfx}.fc2", st)
                fc2 = BlockStage("mlp", mlp=st)
            blocks.append(ExpertBlock(attn=attn, fc1=fc1, fc2=fc2))

        token = Tensor(T.trunc_normal(rng, (1, width)), requires_grad=True)
        self._register(f"task{t}.token", token)
        token_block = B.init_self_attention(rng, new_heads, d)
        self._register_attn(f"task{t}.tok_blk", token_block)

        head_w = Tensor(T.fan_in_normal(rng, (width, new_classes)), requires_grad=True)
        head_b = Tensor(np.zeros(new_classes), requires_grad=True)
        self._register(f"task{t}.head.w", head_w)
        self._register(f"task{t}.head.b", head_b)

        self.experts.append(TaskExpert(
            index=t, heads=new_heads, n_classes=new_classes, embed=embed,
            blocks=blocks, token=token, token_block=token_block,
            head_w=head_w, head_b=head_b))

        total_width = d * pool
        self.aux_w = Tensor(T.fan_in_normal(rng, (total_width, new_classes + 1)),
                            requires_grad=True)
        self.aux_b = Tensor(np.zeros(new_classes + 1), requires_grad=True)
        self._register("aux.w", self.aux_w)
        self._register("aux.b", self.aux_b)
        return self

    # -- sharing resolution ---------------------------------------------------

    def _stage_view(self, layer: int, which: str, task: int) -> StageView:
        """Resolve shared matrices and collect value stacks for one TA stage."""
        def stage_of(i: int) -> TaStageParams:
            blk = self.experts[i].blocks[layer]
            if which == "fc1":
                st = blk.fc1.ta
            elif which == "fc2":
                st = blk.fc2.ta
            else:
                st = getattr(blk.attn, which)
            if st is None:
                raise T.ContractError(f"block {layer} stage {which} is not task attention")
            return st

        own = stage_of(task)
        wq = own.wq if own.wq is not None else stage_of(0).wq
        wk = own.wk if own.wk is not None else stage_of(0).wk
        if own.wv_own.shape[0] == self.layout.pool_heads(task):
            stacks = [own.wv_own]
        else:
            stacks = [stage_of(i).wv_own for i in range(task + 1)]
        return StageView(ln_gain=own.ln_gain, ln_bias=own.ln_bias, wq=wq, wk=wk,
                         wv_stacks=stacks, lam=own.lam, attn_dim=self.cfg.head_dim)

    # -- forward ---------------------------------------------------------------

    def forward(self, image, *, collect_attn: bool = False,
                strategy: str | None = None, sta_variant: str | None = None,
                frozen: "FrozenOutputs | None" = None) -> "ForwardResult":
        """Run one (C, h, w) image or a (B, C, h, w) batch; see ``_forward``."""
        return _forward(self, image, collect_attn=collect_attn,
                        strategy=strategy, sta_variant=sta_variant, frozen=frozen)

    def eval_logits(self, image) -> np.ndarray:
        with T.no_grad():
            return self.forward(image).logits.data.copy()


@dataclass
class ForwardResult:
    """Activations of one forward pass.

    Shapes are those of one image; a batched forward puts the batch axis
    in front of every tensor and attention array.  Experts covered by
    ``frozen`` outputs have their cached tensors in the per-layer lists
    where the cache keeps them, and None elsewhere; with
    ``frozen.features`` only ``r_layers[-1]`` is filled.
    """
    r_layers: list[list[Tensor]]         # [layers+1][task] block inputs/outputs
    s_layers: list[list[Tensor]]         # [layers][task] post-MHSA features
    o_layers: list[list[Tensor]]         # [layers][task] mixing intermediates
    k_layers: list[list[Tensor]]         # [layers][task] tied keys (sta only)
    v_layers: list[list[Tensor]]         # [layers][task] tied values (sta only)
    token_feats: list[Tensor]            # per task (1, D*H_t)
    logits: Tensor                       # (total classes,)
    aux_logits: Tensor                   # (|Y_t| + 1,)
    spatial_attn: list[list[np.ndarray]] | None = None
    tab_attn: list[list[tuple[np.ndarray, np.ndarray] | None]] | None = None

    @property
    def features(self) -> list[Tensor]:
        return self.r_layers[-1]


@dataclass
class FrozenOutputs:
    """What experts n.. read from experts 0..n-1, for one image or a batch.

    Old experts are frozen and read only older ones, so while a newer
    expert trains these are fixed functions of the image.  Each per-layer
    list holds n entries, None where the wiring reads nothing: post-MHSA
    features ``s`` for a TAB fc1 and intermediates ``o`` for a TAB fc2
    (dne), block inputs ``r`` (dne with ``cta_in_mhsa``), tied keys ``k``
    and values ``v`` (sta).  ``features``, when set, holds the final block
    outputs of experts n.., whose bodies are then fixed as well: forward
    runs only their token heads.  Tensors are batched exactly when the
    forward that uses them is; ``stack_frozen`` and ``split_frozen``
    convert between the two.
    """
    n: int
    r: list[list[Tensor | None]]
    s: list[list[Tensor | None]]
    o: list[list[Tensor | None]]
    k: list[list[Tensor | None]]
    v: list[list[Tensor | None]]
    token_feats: list[Tensor]
    logits: Tensor                       # (1, classes of experts 0..n-1)
    features: list[Tensor] | None = None

    @property
    def nbytes(self) -> int:
        kept = [t for per_layer in (self.r, self.s, self.o, self.k, self.v)
                for items in per_layer for t in items if t is not None]
        kept += self.token_feats + [self.logits] + (self.features or [])
        return sum(t.data.nbytes for t in kept)


def _zip_frozen(parts: list[FrozenOutputs], fn, features: bool) -> FrozenOutputs:
    """``fn`` applied to the data arrays at each kept position across ``parts``."""
    def one(xs):
        return None if xs[0] is None else Tensor(fn([x.data for x in xs]))

    def per_layer(name):
        return [[one(xs) for xs in zip(*items)]
                for items in zip(*(getattr(p, name) for p in parts))]

    return FrozenOutputs(
        n=parts[0].n, r=per_layer("r"), s=per_layer("s"), o=per_layer("o"),
        k=per_layer("k"), v=per_layer("v"),
        token_feats=[one(xs) for xs in zip(*(p.token_feats for p in parts))],
        logits=one([p.logits for p in parts]),
        features=[one(xs) for xs in zip(*(p.features for p in parts))] if features else None)


def stack_frozen(parts: list[FrozenOutputs], features: bool = False) -> FrozenOutputs:
    """Per-image outputs batched along a new leading axis; with ``features``
    every part must hold its final features, else they are dropped."""
    return _zip_frozen(parts, np.stack, features)


def split_frozen(frozen: FrozenOutputs) -> list[FrozenOutputs]:
    """Batched outputs as one per-image record each, holding copies, so no
    record keeps the batch arrays alive."""
    count = frozen.logits.shape[0]
    return [_zip_frozen([frozen], lambda xs, i=i: xs[0][i].copy(),
                        frozen.features is not None) for i in range(count)]


def freeze_outputs(model: CilModel, res: ForwardResult, n: int, *,
                   features: bool = False) -> FrozenOutputs:
    """Detach from ``res`` what experts n.. read from experts 0..n-1.

    ``res`` comes from a forward pass in the model's own wiring.  With
    ``features`` the final block outputs of experts n.. are kept too.
    """
    cfg = model.cfg
    dne, sta = cfg.strategy == "dne", cfg.strategy == "sta"
    tab = [dne and m for m in cfg.cta_mask()]

    def keep(per_layer, needed: list[bool]):
        return [[t.detach() for t in per_layer[l][:n]] if needed[l] else [None] * n
                for l in range(cfg.layers)]

    n_cls = sum(ex.n_classes for ex in model.experts[:n])
    return FrozenOutputs(
        n=n,
        r=keep(res.r_layers, [dne and cfg.cta_in_mhsa] * cfg.layers),
        s=keep(res.s_layers, [m and cfg.cta_in_fc1 for m in tab]),
        o=keep(res.o_layers, [m and cfg.cta_in_fc2 for m in tab]),
        k=keep(res.k_layers, [sta] * cfg.layers),
        v=keep(res.v_layers, [sta] * cfg.layers),
        token_feats=[f.detach() for f in res.token_feats[:n]],
        logits=Tensor(res.logits.data[..., None, :n_cls]),
        features=[f.detach() for f in res.features[n:]] if features else None)


def _cached(frozen: FrozenOutputs | None, name: str, layer: int) -> list:
    """Experts 0..n-1's kept ``name`` tensors at ``layer``, as a fresh list."""
    if frozen is None:
        return []
    per_layer = getattr(frozen, name)
    return list(per_layer[layer]) if layer < len(per_layer) else [None] * frozen.n


# ----------------------------------------------------------------- task attention

def task_attention(tokens: Tensor, n_query: int, view: StageView,
                   attn_override: np.ndarray | None = None):
    """Attend the last ``n_query`` head tokens over the whole pool.

    ``tokens`` is (P, H_pool, din), with a leading batch axis if batched.
    Queries come from the newest task's heads only; keys span every head;
    each source head has its own value matrix.  Returns (P, n_query, dout)
    outputs scaled by the per-head lambdas and the (P, n_query, H_pool)
    attention weights.
    """
    *lead, p, h_pool, din = tokens.shape
    x = T.layer_norm(tokens, view.ln_gain, view.ln_bias)
    flat = T.reshape(x, (*lead, p * h_pool, din))
    k = T.reshape(T.matmul(flat, view.wk), (*lead, p, h_pool, view.attn_dim))
    qtok = T.narrow(x, -2, h_pool - n_query, n_query)
    q = T.reshape(T.matmul(T.reshape(qtok, (*lead, p * n_query, din)), view.wq),
                  (*lead, p, n_query, view.attn_dim))
    scores = T.matmul(q, T.swap_axes(k, -1, -2))
    if attn_override is not None:
        attn = Tensor(np.broadcast_to(attn_override, scores.shape).copy())
    else:
        attn = T.softmax_rows(scores, math.sqrt(view.attn_dim))
    wv = view.wv_stacks[0] if len(view.wv_stacks) == 1 else T.concat(view.wv_stacks, axis=0)
    v = T.swap_axes(T.matmul(T.swap_axes(x, -3, -2), wv), -3, -2)   # (P, H_pool, dout)
    out = T.matmul(attn, v)
    out = T.mul(out, T.reshape(view.lam, (1, n_query, 1)))
    return out, attn


def _head_tokens(feats: list[Tensor], head_dim: int) -> Tensor:
    """Concat per-task (P, D*H_i) features into (P, H_pool, D) head tokens."""
    parts = [T.reshape(f, (*f.shape[:-1], f.shape[-1] // head_dim, head_dim))
             for f in feats]
    return parts[0] if len(parts) == 1 else T.concat(parts, axis=-2)


def tab_attention(s_list: list[Tensor], model: CilModel, layer: int,
                  task: int) -> Tensor:
    """First-application attention weights A of the TAB: (P, H_t, H_pool)."""
    view = model._stage_view(layer, "fc1", task)
    tokens = _head_tokens(s_list[: task + 1], model.cfg.head_dim)
    _, attn = task_attention(tokens, model.experts[task].heads, view)
    return attn


def tab_forward(s_list: list[Tensor], o_prior: list[Tensor], model: CilModel,
                layer: int, task: int, *, attn_override: np.ndarray | None = None):
    """Run both TA applications of one expert's TAB.

    ``s_list`` holds post-MHSA features of tasks 0..task; ``o_prior`` the
    intermediates of tasks 0..task-1, computed earlier in the same forward
    pass or taken from ``FrozenOutputs``.  Returns (o_t, r_t, (A1, A2)).
    """
    if len(o_prior) != task:
        raise T.ContractError(
            f"tab_forward task {task} needs {task} cached intermediates, got {len(o_prior)}")
    cfg = model.cfg
    d = cfg.head_dim
    h_t = model.experts[task].heads
    blk = model.experts[task].blocks[layer]
    s_t = s_list[task]
    rows = s_t.shape[:-1]

    if blk.fc1.kind == "ta":
        view1 = model._stage_view(layer, "fc1", task)
        raw1, a1 = task_attention(_head_tokens(s_list[: task + 1], d), h_t, view1,
                                  attn_override=attn_override)
        o3 = T.gelu(raw1)                                   # (P, H_t, gamma*D)
        o_t = T.reshape(o3, (*rows, cfg.gamma * d * h_t))
    else:
        o_t = T.gelu(B.mlp_stage(s_t, blk.fc1.mlp, d))
        a1 = None

    if blk.fc2.kind == "ta":
        view2 = model._stage_view(layer, "fc2", task)
        o_tokens = _head_tokens(o_prior + [o_t], cfg.gamma * d)
        raw2, a2 = task_attention(o_tokens, h_t, view2, attn_override=attn_override)
        r_t = T.add(s_t, T.reshape(raw2, (*rows, d * h_t)))
    else:
        r_t = T.add(s_t, B.mlp_stage(o_t, blk.fc2.mlp, cfg.gamma * d))
        a2 = None

    pair = (None if a1 is None else a1.data, None if a2 is None else a2.data)
    return o_t, r_t, pair


# ----------------------------------------------------------------- attention stages

def _cta_mhsa_task(model: CilModel, layer: int, task: int, r_list: list[Tensor]):
    """Per-head spatial attention whose q/k/v come from task attentions."""
    d = model.cfg.head_dim
    ex = model.experts[task]
    blk = ex.blocks[layer]
    tokens = _head_tokens(r_list[: task + 1], d)
    outs = {}
    for name in ("ta_q", "ta_k", "ta_v"):
        view = model._stage_view(layer, name, task)
        out, _ = task_attention(tokens, ex.heads, view)
        outs[name] = T.swap_axes(out, -3, -2)               # (H_t, P, D)
    return B.attention_readout(r_list[task], outs["ta_q"], outs["ta_k"], outs["ta_v"],
                               blk.attn.fuse_w, blk.attn.fuse_b, d)


def cross_task_mhsa(model: CilModel, layer: int, r_list: list[Tensor], start: int = 0):
    """Spatial attention stage for the ia/dne wirings.

    Every expert runs its own frozen-or-trainable heads over its own
    feature slice; with ``cta_in_mhsa`` the projections of each expert are
    additionally mixed across all visible tasks.  Experts before ``start``
    are skipped.  Returns the outputs and (H_i, P, P) attention weights of
    experts start.. .
    """
    d = model.cfg.head_dim
    s_list, attns = [], []
    for t in range(start, model.task_count):
        blk = model.experts[t].blocks[layer]
        if isinstance(blk.attn, CtaAttentionParams):
            s, a = _cta_mhsa_task(model, layer, t, r_list)
        elif isinstance(blk.attn, StaAttentionParams):
            q, k, v = B.tied_head_projections(r_list[t], model.tied_attn[layer], d)
            s, a = B.attention_readout(r_list[t], q, k, v,
                                       blk.attn.fuse_w, blk.attn.fuse_b, d)
        else:
            s, a = B.mhsa_block(r_list[t], blk.attn, d)
        s_list.append(s)
        attns.append(a)
    return s_list, attns


_MASK_CACHE: dict[tuple, np.ndarray] = {}


def group_masks(n_query_heads: int, query_offset: int, pool_heads: int,
                patches: int) -> dict[str, np.ndarray]:
    """The four (query, key) groups of head-major tokens (token = head * P + patch).

    Queries are the tokens of heads ``query_offset``.. (``n_query_heads``
    of them), keys those of heads 0..pool_heads-1; same/different patch
    (SP/DP) crossed with same/different head (SH/DH).
    """
    q = np.arange(n_query_heads * patches) + query_offset * patches
    k = np.arange(pool_heads * patches)
    same_head = (q // patches)[:, None] == (k // patches)[None, :]
    same_patch = (q % patches)[:, None] == (k % patches)[None, :]
    return {"SPSH": same_patch & same_head, "SPDH": same_patch & ~same_head,
            "DPSH": ~same_patch & same_head, "DPDH": ~same_patch & ~same_head}


def sta_group_mask(n_query_heads: int, query_offset: int, pool_heads: int,
                   patches: int, variant: str) -> np.ndarray:
    """Enabled (query, key) pairs for joint spatial-task attention: the
    same-head groups plus the variant's cross-head groups."""
    if variant not in STA_VARIANTS:
        raise ConfigError(f"unknown sta variant {variant!r}")
    key = (n_query_heads, query_offset, pool_heads, patches, variant)
    if key not in _MASK_CACHE:
        groups = group_masks(n_query_heads, query_offset, pool_heads, patches)
        _MASK_CACHE[key] = np.logical_or.reduce(
            [groups[g] for g in ("SPSH", "DPSH", *STA_CROSS_HEAD[variant])])
    return _MASK_CACHE[key]


def sta_attention_stage(model: CilModel, layer: int, r_list: list[Tensor],
                        variant: str, k_prior: Sequence[Tensor] = (),
                        v_prior: Sequence[Tensor] = ()):
    """Joint masked attention over the (patch, head) tokens of visible tasks.

    All heads share one tied q/k/v projection per block, so keys are
    comparable across heads; each task's heads query the pool of tasks up
    to and including itself, keeping earlier experts' outputs intact after
    later tasks are added.  ``k_prior``/``v_prior`` are the keys and values
    of the first n experts, which are then skipped.  Returns the outputs
    and attention weights of experts n.., and the keys and values of all.
    """
    if model.tied_attn is None:
        raise T.ContractError("joint wiring needs tied projections (strategy 'sta')")
    cfg = model.cfg
    d = cfg.head_dim
    n = len(k_prior)
    *lead, p, _ = r_list[n].shape
    qs, ks, vs = [None] * n, list(k_prior), list(v_prior)
    for t in range(n, model.task_count):
        q, k, v = B.tied_head_projections(r_list[t], model.tied_attn[layer], d)
        qs.append(q)
        ks.append(k)
        vs.append(v)

    s_list, attns = [], []
    offset = sum(ex.heads for ex in model.experts[:n])
    for t in range(n, model.task_count):
        ex = model.experts[t]
        pool = ks[: t + 1]
        m_heads = offset + ex.heads
        k_flat = T.reshape(pool[0] if len(pool) == 1 else T.concat(pool, axis=-3),
                           (*lead, m_heads * p, d))
        v_flat = T.reshape(vs[0] if t == 0 else T.concat(vs[: t + 1], axis=-3),
                           (*lead, m_heads * p, d))
        q_flat = T.reshape(qs[t], (*lead, ex.heads * p, d))
        blk = ex.blocks[layer]
        mask = sta_group_mask(ex.heads, offset, m_heads, p, variant)
        s, attn = B.attention_readout(r_list[t], q_flat, k_flat, v_flat,
                                      blk.attn.fuse_w, blk.attn.fuse_b, d, mask)
        s_list.append(s)
        attns.append(attn)
        offset += ex.heads
    return s_list, attns, ks, vs


# ----------------------------------------------------------------- token head

def task_token_head(model: CilModel, features: list[Tensor],
                    frozen: FrozenOutputs | None = None):
    """Read out one feature vector per task token and classify.

    Each task token attends over its own expert's final patch tokens
    through a per-task frozen-after-training block; the per-task classifier
    slices are concatenated and the auxiliary head sees all token features.
    The token features and logits of experts covered by ``frozen`` are
    taken from it.  The token queries do not depend on the image and are
    computed once for a whole batch.
    """
    if len(features) != model.task_count:
        raise T.ContractError(
            f"token head got {len(features)} feature maps for {model.task_count} tasks")
    d = model.cfg.head_dim
    n = 0 if frozen is None else frozen.n
    lead = (features[-1] if frozen is None else frozen.logits).shape[:-2]
    feats = [] if frozen is None else list(frozen.token_feats)
    logit_parts = [frozen.logits] if n else []
    for t in range(n, model.task_count):
        ex = model.experts[t]
        tp = ex.token_block
        tok = T.layer_norm(T.reshape(ex.token, (1, ex.heads, d)), tp.ln_gain, tp.ln_bias)
        pat = T.layer_norm(T.reshape(features[t], (*lead, -1, ex.heads, d)),
                           tp.ln_gain, tp.ln_bias)
        pat = T.swap_axes(pat, -3, -2)
        qh = T.add(T.matmul(T.swap_axes(tok, 0, 1), tp.wq), tp.bq)      # (H, 1, D)
        kh = T.add(T.matmul(pat, tp.wk), tp.bk)                         # (H, P, D)
        vh = T.add(T.matmul(pat, tp.wv), tp.bv)
        e2, _ = B.attention_readout(ex.token, qh, kh, vh, tp.fuse_w, tp.fuse_b, d)
        feats.append(e2)
        logit_parts.append(T.matmul(e2, ex.head_w, ex.head_b))
    logits = T.reshape(logit_parts[0] if len(logit_parts) == 1
                       else T.concat(logit_parts, axis=-1), (*lead, model.total_classes))
    aux_in = feats[0] if len(feats) == 1 else T.concat(feats, axis=-1)
    aux = T.reshape(T.matmul(aux_in, model.aux_w, model.aux_b),
                    (*lead, model.experts[-1].n_classes + 1))
    return feats, logits, aux


# ----------------------------------------------------------------- drivers

def _forward(model: CilModel, image, *, collect_attn=False,
             strategy: str | None = None, sta_variant: str | None = None,
             frozen: FrozenOutputs | None = None) -> ForwardResult:
    """One forward pass of a (C, h, w) image or a (B, C, h, w) batch; with
    ``frozen`` (batched like ``image``) only experts ``frozen.n``.. run.

    Attention weights, when collected, cover the experts that run.
    """
    cfg = model.cfg
    strategy = strategy or cfg.strategy
    variant = sta_variant or cfg.sta_variant
    if model.task_count == 0:
        raise T.ContractError("forward on a model with no experts")
    if strategy != "dne":
        for ex in model.experts:
            for blk in ex.blocks:
                if blk.fc1.kind == "ta" or blk.fc2.kind == "ta":
                    raise T.ContractError(
                        f"{strategy} wiring needs plain MLP stages, model has task attention")

    d = cfg.head_dim
    n = 0 if frozen is None else frozen.n
    r_layers: list[list[Tensor]] = []
    s_layers: list[list[Tensor]] = []
    o_layers: list[list[Tensor]] = []
    k_layers: list[list[Tensor]] = []
    v_layers: list[list[Tensor]] = []
    sp_attn: list[list[np.ndarray]] = []
    tab_attn: list[list] = []

    if frozen is not None and frozen.features is not None:
        r_list = [None] * n + frozen.features
    else:
        img = image if isinstance(image, Tensor) else Tensor(np.asarray(image, dtype=np.float64))
        r_list = _cached(frozen, "r", 0)
        for ex in model.experts[n:]:
            ecfg = B.PatchEmbedConfig(cfg.image_size, cfg.patch_size, cfg.in_channels,
                                      d, ex.heads)
            r_list.append(B.patch_embed(img, ex.embed, model.pos, ecfg))

        for layer in range(cfg.layers):
            r_layers.append(r_list)
            if strategy == "sta":
                s_new, attns, k_list, v_list = sta_attention_stage(
                    model, layer, r_list, variant,
                    _cached(frozen, "k", layer), _cached(frozen, "v", layer))
                k_layers.append(k_list)
                v_layers.append(v_list)
            else:
                s_new, attns = cross_task_mhsa(model, layer, r_list, start=n)
            s_list = _cached(frozen, "s", layer) + s_new
            o_list = _cached(frozen, "o", layer)
            new_r = _cached(frozen, "r", layer + 1)
            tab_l: list = []
            for t in range(n, model.task_count):
                if strategy == "dne":
                    o_t, r_t, pair = tab_forward(s_list, o_list, model, layer, t)
                else:
                    blk = model.experts[t].blocks[layer]
                    r_t, o_t = B.mlp_block(s_list[t], B.MlpParams(blk.fc1.mlp, blk.fc2.mlp),
                                           d, cfg.gamma)
                    pair = None
                o_list.append(o_t)
                new_r.append(r_t)
                tab_l.append(pair)
            r_list = new_r
            s_layers.append(s_list)
            o_layers.append(o_list)
            if collect_attn:
                sp_attn.append([a.data for a in attns])
                tab_attn.append(tab_l)
    r_layers.append(r_list)

    token_feats, logits, aux = task_token_head(model, r_list, frozen)
    return ForwardResult(
        r_layers=r_layers, s_layers=s_layers, o_layers=o_layers,
        k_layers=k_layers, v_layers=v_layers, token_feats=token_feats,
        logits=logits, aux_logits=aux,
        spatial_attn=sp_attn if collect_attn else None,
        tab_attn=tab_attn if collect_attn else None)


def ia_forward(model: CilModel, image, *, collect_attn=False) -> ForwardResult:
    """Independent-attention wiring: every expert runs alone."""
    return _forward(model, image, collect_attn=collect_attn, strategy="ia")


def sta_forward(model: CilModel, image, variant: str, *, collect_attn=False) -> ForwardResult:
    """Joint spatial-task attention with the given group variant."""
    if variant not in STA_VARIANTS:
        raise ConfigError(f"unknown sta variant {variant!r}")
    return _forward(model, image, collect_attn=collect_attn,
                    strategy="sta", sta_variant=variant)


# ----------------------------------------------------------------- checkpoints

def checkpoint_bytes(model: CilModel) -> bytes:
    """Self-describing binary container: version byte, JSON layout record,
    then named float64 little-endian parameter blobs in declaration order."""
    header = {
        "config": _config_record(model.cfg),
        "heads_per_task": [e.heads for e in model.experts],
        "classes_per_task": [e.n_classes for e in model.experts],
        "params": [{"name": n, "shape": list(t.shape)}
                   for n, t in model.named_parameters()],
    }
    hj = json.dumps(header, sort_keys=True).encode("utf-8")
    out = io.BytesIO()
    out.write(struct.pack("<B", CKPT_VERSION))
    out.write(struct.pack("<I", len(hj)))
    out.write(hj)
    for _, t in model.named_parameters():
        out.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    return out.getvalue()


def save_checkpoint(model: CilModel, path) -> None:
    with open(path, "wb") as f:
        f.write(checkpoint_bytes(model))


def model_from_bytes(raw: bytes) -> CilModel:
    """Rebuild a model from ``checkpoint_bytes`` output.

    Every registered parameter must be stored exactly once; any malformed
    or inconsistent input raises ``CheckpointError``.
    """
    buf = io.BytesIO(raw)
    version = buf.read(1)
    if len(version) != 1 or version[0] != CKPT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version!r}")
    hlen_raw = buf.read(4)
    if len(hlen_raw) != 4:
        raise CheckpointError("checkpoint truncated in the header length field")
    (hlen,) = struct.unpack("<I", hlen_raw)
    try:
        header = json.loads(buf.read(hlen).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"corrupt checkpoint header: {e}") from None
    try:
        model = CilModel(_config_from_record(header["config"]), seed=0)
        for heads, n_cls in zip(header["heads_per_task"], header["classes_per_task"],
                                strict=True):
            model.add_expert(heads, n_cls)
        records = [(rec["name"], tuple(rec["shape"])) for rec in header["params"]]
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"malformed checkpoint header: {e!r}") from None
    registry = dict(model.named_parameters())
    loaded: set[str] = set()
    for name, shape in records:
        if name not in registry:
            raise CheckpointError(f"checkpoint names unknown parameter {name!r}")
        if name in loaded:
            raise CheckpointError(f"checkpoint stores parameter {name!r} twice")
        loaded.add(name)
        tensor = registry[name]
        if tensor.shape != shape:
            raise CheckpointError(
                f"parameter {name!r}: checkpoint shape {shape} vs model {tensor.shape}")
        n = int(np.prod(shape)) if shape else 1
        blob = buf.read(8 * n)
        if len(blob) != 8 * n:
            raise CheckpointError(f"checkpoint truncated at parameter {name!r}")
        tensor.data = np.frombuffer(blob, dtype="<f8").reshape(shape).copy()
    missing = [name for name in registry if name not in loaded]
    if missing:
        raise CheckpointError(f"checkpoint lacks {len(missing)} parameters, first {missing[0]!r}")
    if buf.read(1):
        raise CheckpointError("trailing bytes after final parameter blob")
    return model


def load_checkpoint(path) -> CilModel:
    with open(path, "rb") as f:
        return model_from_bytes(f.read())


def _config_record(cfg: ModelConfig) -> dict:
    rec = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    if rec["cta_layers"] is not None:
        rec["cta_layers"] = list(rec["cta_layers"])
    return rec


def _config_from_record(rec: dict) -> ModelConfig:
    rec = dict(rec)
    if rec.get("cta_layers") is not None:
        rec["cta_layers"] = tuple(bool(v) for v in rec["cta_layers"])
    return ModelConfig(**rec)


def clone_model(model: CilModel) -> CilModel:
    """Deep copy through the checkpoint codec (bit-exact by construction)."""
    return model_from_bytes(checkpoint_bytes(model))
