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
D on the way down).  The TAB is the expert's feature-mixing block, so every
wiring mixes through ``tab_forward``: a stage that is not a task attention
is a plain MLP stage.

The wiring is a field of ``ModelConfig``: ``add_expert`` builds each
expert's blocks for it, and ``forward`` runs the model in it.  The share
modes are resolved there too: a TA stage holds every tensor it runs with,
whether its expert owns it or reads it from an older expert, and registers
only what it owns.

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


# ----------------------------------------------------------------- config

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
        unused = [f.name for f in fields(self)
                  if getattr(self, f.name) != f.default
                  and (self.strategy != "dne" and f.name.startswith(("cta_", "share_"))
                       or self.strategy != "sta" and f.name == "sta_variant")]
        if unused:
            raise ConfigError(f"strategy {self.strategy!r} does not use {', '.join(unused)}")

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
    """One task-attention application, with sharing already resolved.

    ``wq``/``wk`` are the first expert's own tensors where the share mode is
    ``'s'``.  ``wv`` lists the value stacks of the visible heads in pool
    order, this expert's own stack last: one stack for every visible head,
    or under shared values each expert's own stack.  Concatenated along the
    head axis they give the (H_pool, din, dout) value matrices.
    """
    ln_gain: Tensor           # (din_head,)
    ln_bias: Tensor
    wq: Tensor                # (din_head, attn_dim)
    wk: Tensor
    wv: list[Tensor]          # [(n_i, din_head, dout_head)], sum n_i = H_pool
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
class ExpertBlock:
    """One expert's parameters of one block; the types of its stages give the
    wiring: an ``sta`` expert has ``StaAttentionParams``, a ``cta_in_mhsa``
    expert ``CtaAttentionParams``, and a TAB stage of a ``dne`` expert is a
    ``TaStageParams`` where the other wirings have an MLP stage."""
    attn: B.SelfAttentionParams | CtaAttentionParams | StaAttentionParams
    fc1: B.MlpStageParams | TaStageParams
    fc2: B.MlpStageParams | TaStageParams


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
    def heads_per_task(self) -> tuple[int, ...]:
        return tuple(e.heads for e in self.experts)

    @property
    def total_heads(self) -> int:
        return sum(e.heads for e in self.experts)

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
        """The owning task of each head, in head order."""
        return [e.index for e in self.experts for _ in range(e.heads)]

    def _register(self, name: str, tensor: Tensor) -> Tensor:
        self._params[name] = tensor
        return tensor

    def _register_fields(self, prefix: str, p) -> None:
        """Register every tensor field of the dataclass ``p`` as ``prefix.field``."""
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
                    self.tied_attn.append(B.init_tied_attention(rng, d))
                    self._register_fields(f"shared.attn{l}", self.tied_attn[-1])

        embed = B.init_patch_embed(rng, cfg.in_channels * cfg.patch_size ** 2, width)
        self._register_fields(f"task{t}.embed", embed)

        def ta_stage(prefix: str, din: int, dout: int,
                     prior: Sequence[TaStageParams] = ()) -> TaStageParams:
            """A TA stage sharing with ``prior``, the same stage of experts
            0..t-1, as the share modes say; registers only what it owns."""
            def own(name: str, data: np.ndarray) -> Tensor:
                return self._register(f"{prefix}.{name}", Tensor(data, requires_grad=True))

            ln_gain, ln_bias = own("ln_gain", np.ones(din)), own("ln_bias", np.zeros(din))
            wq = (prior[0].wq if prior and cfg.share_q == "s"
                  else own("wq", T.fan_in_normal(rng, (din, d))))
            wk = (prior[0].wk if prior and cfg.share_k == "s"
                  else own("wk", T.fan_in_normal(rng, (din, d))))
            shared_v = [p.wv[-1] for p in prior] if cfg.share_v == "s" else []
            wv = own("wv", T.fan_in_normal(rng, (new_heads if shared_v else pool, din, dout)))
            return TaStageParams(ln_gain, ln_bias, wq, wk, shared_v + [wv],
                                 own("lam", np.ones(new_heads)))

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
                    ta_q=ta_stage(f"{pfx}.attn.ta_q", d, d),
                    ta_k=ta_stage(f"{pfx}.attn.ta_k", d, d),
                    ta_v=ta_stage(f"{pfx}.attn.ta_v", d, d),
                    fuse_w=self._register(f"{pfx}.attn.fuse_w",
                                          Tensor(T.fan_in_normal(rng, (width, width)),
                                                 requires_grad=True)),
                    fuse_b=self._register(f"{pfx}.attn.fuse_b",
                                          Tensor(np.zeros(width), requires_grad=True)),
                )
            else:
                attn = B.init_self_attention(rng, new_heads, d)
                self._register_fields(f"{pfx}.attn", attn)

            use_tab = cfg.strategy == "dne" and cta_mask[l]
            if use_tab and cfg.cta_in_fc1:
                fc1 = ta_stage(f"{pfx}.fc1", d, dp, [e.blocks[l].fc1 for e in self.experts])
            else:
                fc1 = B.init_mlp_stage(rng, d, width, cfg.gamma * width)
                self._register_fields(f"{pfx}.fc1", fc1)
            if use_tab and cfg.cta_in_fc2:
                fc2 = ta_stage(f"{pfx}.fc2", dp, d, [e.blocks[l].fc2 for e in self.experts])
            else:
                fc2 = B.init_mlp_stage(rng, dp, cfg.gamma * width, width)
                self._register_fields(f"{pfx}.fc2", fc2)
            blocks.append(ExpertBlock(attn=attn, fc1=fc1, fc2=fc2))

        token = Tensor(T.trunc_normal(rng, (1, width)), requires_grad=True)
        self._register(f"task{t}.token", token)
        token_block = B.init_self_attention(rng, new_heads, d)
        self._register_fields(f"task{t}.tok_blk", token_block)

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

    # -- forward ---------------------------------------------------------------

    def forward(self, image, *, collect_attn: bool = False,
                frozen: "FrozenOutputs | None" = None) -> "ForwardResult":
        """Run one (C, h, w) image or a (B, C, h, w) batch; see ``_forward``."""
        return _forward(self, image, collect_attn=collect_attn, frozen=frozen)

    def eval_logits(self, image) -> np.ndarray:
        with T.no_grad():
            return self.forward(image).logits.data.copy()


@dataclass
class ForwardResult:
    """Activations of one forward pass in the model's own wiring.

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
    tab_attn: list[list[tuple[np.ndarray | None, np.ndarray | None]]] | None = None

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
    forward that uses them is; ``map_frozen`` maps an array function,
    such as a row gather, over all of them.
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

    def arrays(self) -> list[np.ndarray]:
        """The data of every kept tensor, the final features last."""
        kept = [t for per_layer in (self.r, self.s, self.o, self.k, self.v)
                for items in per_layer for t in items if t is not None]
        kept += self.token_feats + [self.logits] + (self.features or [])
        return [t.data for t in kept]


def map_frozen(frozen: FrozenOutputs, fn, features: bool) -> FrozenOutputs:
    """``fn`` applied to the data array of every kept tensor; the final
    features are kept only with ``features``."""
    def one(t):
        return None if t is None else Tensor(fn(t.data))

    def per_layer(items):
        return [[one(t) for t in layer] for layer in items]

    return FrozenOutputs(
        n=frozen.n, r=per_layer(frozen.r), s=per_layer(frozen.s), o=per_layer(frozen.o),
        k=per_layer(frozen.k), v=per_layer(frozen.v),
        token_feats=[one(t) for t in frozen.token_feats], logits=one(frozen.logits),
        features=[one(t) for t in frozen.features] if features else None)


def freeze_outputs(model: CilModel, res: ForwardResult, n: int, *,
                   features: bool = False) -> FrozenOutputs:
    """Detach from ``res`` what experts n.. read from experts 0..n-1.

    ``res`` comes from a forward pass in the model's own wiring.  With
    ``features`` the final block outputs of experts n.. are kept too.  What
    a layer keeps follows the stage types of the newest expert's block.
    """
    blocks = model.experts[-1].blocks

    def keep(per_layer, stage: str, kind: type):
        return [[t.detach() for t in per_layer[l][:n]]
                if isinstance(getattr(blk, stage), kind) else [None] * n
                for l, blk in enumerate(blocks)]

    n_cls = sum(ex.n_classes for ex in model.experts[:n])
    return FrozenOutputs(
        n=n,
        r=keep(res.r_layers, "attn", CtaAttentionParams),
        s=keep(res.s_layers, "fc1", TaStageParams),
        o=keep(res.o_layers, "fc2", TaStageParams),
        k=keep(res.k_layers, "attn", StaAttentionParams),
        v=keep(res.v_layers, "attn", StaAttentionParams),
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

def task_attention(tokens: Tensor, n_query: int, stage: TaStageParams):
    """Attend the last ``n_query`` head tokens over the whole pool.

    ``tokens`` is (P, H_pool, din), with a leading batch axis if batched.
    Queries come from the newest task's heads only; keys span every head;
    each source head has its own value matrix.  Returns (P, n_query, dout)
    outputs scaled by the per-head lambdas and the (P, n_query, H_pool)
    attention weights.
    """
    *lead, p, h_pool, din = tokens.shape
    attn_dim = stage.wq.shape[-1]
    x = T.layer_norm(tokens, stage.ln_gain, stage.ln_bias)
    flat = T.reshape(x, (*lead, p * h_pool, din))
    k = T.reshape(T.matmul(flat, stage.wk), (*lead, p, h_pool, attn_dim))
    qtok = T.narrow(x, -2, h_pool - n_query, n_query)
    q = T.reshape(T.matmul(T.reshape(qtok, (*lead, p * n_query, din)), stage.wq),
                  (*lead, p, n_query, attn_dim))
    scores = T.matmul(q, T.swap_axes(k, -1, -2))
    attn = T.softmax_rows(scores, math.sqrt(attn_dim))
    wv = stage.wv[0] if len(stage.wv) == 1 else T.concat(stage.wv, axis=0)
    v = T.swap_axes(T.matmul(T.swap_axes(x, -3, -2), wv), -3, -2)   # (P, H_pool, dout)
    out = T.matmul(attn, v)
    out = T.mul(out, T.reshape(stage.lam, (1, n_query, 1)))
    return out, attn


def _head_tokens(feats: list[Tensor], head_dim: int) -> Tensor:
    """Concat per-task (P, D*H_i) features into (P, H_pool, D) head tokens."""
    parts = [T.reshape(f, (*f.shape[:-1], f.shape[-1] // head_dim, head_dim))
             for f in feats]
    return parts[0] if len(parts) == 1 else T.concat(parts, axis=-2)


def tab_forward(s_list: list[Tensor], o_prior: list[Tensor], model: CilModel,
                layer: int, task: int):
    """Run one expert's feature-mixing block: r_t = s_t + fc2(gelu(fc1(s_t))).

    This is the mixing block of every wiring.  Each stage is a task
    attention (a TAB stage of a dne expert) or an MLP stage, by the type of
    its parameters; a TA stage reads the features of every visible expert,
    an MLP stage only its own.  ``s_list`` holds post-MHSA features of tasks
    0..task; ``o_prior`` the intermediates of tasks 0..task-1, computed
    earlier in the same forward pass or taken from ``FrozenOutputs`` (None
    where no TA stage reads them).  Returns (o_t, r_t, (A1, A2)), with A1
    or A2 None for an MLP stage.
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

    if isinstance(blk.fc1, TaStageParams):
        raw1, a1 = task_attention(_head_tokens(s_list[: task + 1], d), h_t, blk.fc1)
        o3 = T.gelu(raw1)                                   # (P, H_t, gamma*D)
        o_t = T.reshape(o3, (*rows, cfg.gamma * d * h_t))
    else:
        o_t = T.gelu(B.mlp_stage(s_t, blk.fc1, d))
        a1 = None

    if isinstance(blk.fc2, TaStageParams):
        o_tokens = _head_tokens(o_prior + [o_t], cfg.gamma * d)
        raw2, a2 = task_attention(o_tokens, h_t, blk.fc2)
        r_t = T.add(s_t, T.reshape(raw2, (*rows, d * h_t)))
    else:
        r_t = T.add(s_t, B.mlp_stage(o_t, blk.fc2, cfg.gamma * d))
        a2 = None

    pair = (None if a1 is None else a1.data, None if a2 is None else a2.data)
    return o_t, r_t, pair


# ----------------------------------------------------------------- attention stages

def _cta_mhsa_task(model: CilModel, layer: int, task: int, r_list: list[Tensor]):
    """Per-head spatial attention whose q/k/v come from task attentions."""
    d = model.cfg.head_dim
    ex = model.experts[task]
    attn = ex.blocks[layer].attn
    tokens = _head_tokens(r_list[: task + 1], d)
    q, k, v = (T.swap_axes(task_attention(tokens, ex.heads, stage)[0], -3, -2)  # (H_t, P, D)
               for stage in (attn.ta_q, attn.ta_k, attn.ta_v))
    return B.attention_readout(r_list[task], q, k, v, attn.fuse_w, attn.fuse_b, d)


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
    key = (n_query_heads, query_offset, pool_heads, patches, variant)
    if key not in _MASK_CACHE:
        groups = group_masks(n_query_heads, query_offset, pool_heads, patches)
        _MASK_CACHE[key] = np.logical_or.reduce(
            [groups[g] for g in ("SPSH", "DPSH", *STA_CROSS_HEAD[variant])])
    return _MASK_CACHE[key]


def sta_attention_stage(model: CilModel, layer: int, r_list: list[Tensor],
                        k_prior: Sequence[Tensor] = (), v_prior: Sequence[Tensor] = ()):
    """Joint masked attention over the (patch, head) tokens of visible tasks.

    All heads share one tied q/k/v projection per block, so keys are
    comparable across heads; each task's heads query the pool of tasks up
    to and including itself, keeping earlier experts' outputs intact after
    later tasks are added.  ``cfg.sta_variant`` picks the enabled groups.
    ``k_prior``/``v_prior`` are the keys and values of the first n
    experts, which are then skipped.  Returns the outputs and attention
    weights of experts n.., and the keys and values of all.
    """
    if model.tied_attn is None:
        raise T.ContractError("joint wiring needs tied projections (strategy 'sta')")
    cfg = model.cfg
    d = cfg.head_dim
    n = len(k_prior)
    *lead, p, _ = r_list[n].shape
    ks, vs = list(k_prior), list(v_prior)
    s_list, attns = [], []
    offset = sum(ex.heads for ex in model.experts[:n])
    for t in range(n, model.task_count):
        ex = model.experts[t]
        q, k, v = B.tied_head_projections(r_list[t], model.tied_attn[layer], d)
        ks.append(k)
        vs.append(v)
        m_heads = offset + ex.heads
        k_flat = T.reshape(ks[0] if t == 0 else T.concat(ks, axis=-3), (*lead, m_heads * p, d))
        v_flat = T.reshape(vs[0] if t == 0 else T.concat(vs, axis=-3), (*lead, m_heads * p, d))
        q_flat = T.reshape(q, (*lead, ex.heads * p, d))
        blk = ex.blocks[layer]
        mask = sta_group_mask(ex.heads, offset, m_heads, p, cfg.sta_variant)
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
        pat = B.head_major(features[t], tp, d)
        qh = T.add(T.matmul(B.head_major(ex.token, tp, d), tp.wq), tp.bq)   # (H, 1, D)
        kh = T.add(T.matmul(pat, tp.wk), tp.bk)                             # (H, P, D)
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
             frozen: FrozenOutputs | None = None) -> ForwardResult:
    """One forward pass of a (C, h, w) image or a (B, C, h, w) batch; with
    ``frozen`` (batched like ``image``) only experts ``frozen.n``.. run.

    Attention weights, when collected, cover the experts that run.
    """
    cfg = model.cfg
    if model.task_count == 0:
        raise T.ContractError("forward on a model with no experts")

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
        img = np.asarray(image.data if isinstance(image, Tensor) else image, dtype=np.float64)
        patches = Tensor(B.extract_patches(img, cfg.in_channels, cfg.image_size,
                                           cfg.patch_size))
        r_list = _cached(frozen, "r", 0) + [B.patch_embed(patches, ex.embed, model.pos, d)
                                            for ex in model.experts[n:]]

        for layer in range(cfg.layers):
            r_layers.append(r_list)
            if cfg.strategy == "sta":
                s_new, attns, k_list, v_list = sta_attention_stage(
                    model, layer, r_list,
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
                o_t, r_t, pair = tab_forward(s_list, o_list, model, layer, t)
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
