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
is a plain MLP stage.  A TA stage's layer norm is split in two: each
expert's head tokens are normalised once, in that expert's own stage, and
every later expert reads that tensor.  The rest of the stage is one graph
node, ``T.task_attention``: it joins the experts' tokens into one pool
array and applies the gain and bias to it in place, so the graph keeps no
unmapped copy, attends and reads out, and its backward builds input
gradients only for the tokens that train.

The wiring is a field of ``ModelConfig``: ``add_expert`` builds each
expert's blocks for it, and ``forward`` runs the model in it.  The share
modes are resolved there too: a TA stage holds every tensor it runs with,
whether its expert owns it or reads it from an older expert, and registers
only what it owns.  Likewise every ``sta`` expert holds its block's tied
q/k/v projection, which the first expert owns.

``forward`` runs one loop over the experts per layer.  For each expert it
runs the attention stage that the type of the expert's attention
parameters picks (``cross_task_mhsa``), then its mixing block
(``tab_forward``).  Each stage gets the expert's own input and the layer's
record of what the cross-task stages read, ``ForwardResult.reads``: a
stage that reads older experts appends this expert's entry there (its
normalised TA input, or its sta keys and values) and reads experts 0..t.
Old experts never change, so ``freeze_outputs`` cuts that record, the
token features and the classifier slices at expert n, or gathers a batch
from a store of such cuts; a forward given that prefix runs only the
experts from n on and neither normalises a frozen token nor computes its
gradient.

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
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import backbone as B
from . import tensor as T
from .config import ConfigError
from .tensor import Tensor

STRATEGIES = ("ia", "sta", "dne")
STA_CROSS_HEAD = {"none": (), "spdh": ("SPDH",), "dpdh": ("DPDH",), "both": ("SPDH", "DPDH")}
"""Cross-head groups each sta variant adds to the always-on same-head pairs."""
STA_VARIANTS = tuple(STA_CROSS_HEAD)
SHARE_MODES = ("s", "f")
GEOMETRY = ("image_size", "patch_size", "in_channels", "head_dim", "gamma", "layers")
"""The ``ModelConfig`` fields that size the layers, apart from the wiring."""

CKPT_VERSION = 1


class CheckpointError(ValueError):
    """Malformed or inconsistent checkpoint container."""


# ----------------------------------------------------------------- config

@dataclass(frozen=True)
class ModelConfig:
    """A model's geometry and wiring; the field defaults declare the default model."""
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
        for f in fields(self):              # exact types: a bool is not an int
            value = getattr(self, f.name)
            if f.name != "cta_layers" and type(value) is not type(f.default):
                raise ConfigError(f"{f.name} must be {type(f.default).__name__}, got {value!r}")
            if f.name in GEOMETRY and value < 1:
                raise ConfigError(f"{f.name} must be at least 1, got {value}")
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
        if self.cta_layers is not None:
            if any(not isinstance(v, int) or v not in (0, 1) for v in self.cta_layers):
                raise ConfigError(f"cta_layers must hold bools or 0/1, got {self.cta_layers!r}")
            object.__setattr__(self, "cta_layers", tuple(bool(v) for v in self.cta_layers))
            if len(self.cta_layers) != self.layers:
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
        return (True,) * self.layers if self.cta_layers is None else self.cta_layers


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
    """One expert's joint attention: the block's tied q/k/v projection and
    the expert's own fusion layer.

    ``tied`` is the first expert's projection, frozen afterwards; every
    expert holds that same object, so that every head's keys are the same
    function of its tokens.
    """
    tied: B.TiedAttentionParams
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

    def __init__(self, cfg: ModelConfig, seed: int):
        self.cfg = cfg
        self.rng = np.random.default_rng(seed)
        self.experts: list[TaskExpert] = []
        self.pos: Tensor | None = None
        self.aux_w: Tensor | None = None
        self.aux_b: Tensor | None = None
        self.class_registry = None      # a continual.ClassIndex once bound
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
        if cfg.strategy != "sta":
            tied = []
        elif t:
            tied = [blk.attn.tied for blk in self.experts[0].blocks]
        else:
            tied = [B.init_tied_attention(rng, d) for _ in range(cfg.layers)]
            for l, p in enumerate(tied):
                self._register_fields(f"shared.attn{l}", p)

        embed = B.init_patch_embed(rng, cfg.in_channels * cfg.patch_size ** 2, width)
        self._register_fields(f"task{t}.embed", embed)

        def own(name: str, data: np.ndarray) -> Tensor:
            return self._register(name, Tensor(data, requires_grad=True))

        def ta_stage(prefix: str, din: int, dout: int,
                     prior: Sequence[TaStageParams] = ()) -> TaStageParams:
            """A TA stage sharing with ``prior``, the same stage of experts
            0..t-1, as the share modes say; registers only what it owns."""
            ln_gain = own(f"{prefix}.ln_gain", np.ones(din))
            ln_bias = own(f"{prefix}.ln_bias", np.zeros(din))
            wq = (prior[0].wq if prior and cfg.share_q == "s"
                  else own(f"{prefix}.wq", T.fan_in_normal(rng, (din, d))))
            wk = (prior[0].wk if prior and cfg.share_k == "s"
                  else own(f"{prefix}.wk", T.fan_in_normal(rng, (din, d))))
            shared_v = [p.wv[-1] for p in prior] if cfg.share_v == "s" else []
            wv = own(f"{prefix}.wv",
                     T.fan_in_normal(rng, (new_heads if shared_v else pool, din, dout)))
            return TaStageParams(ln_gain, ln_bias, wq, wk, shared_v + [wv],
                                 own(f"{prefix}.lam", np.ones(new_heads)))

        def fuse(prefix: str) -> tuple[Tensor, Tensor]:
            return (own(f"{prefix}.fuse_w", T.fan_in_normal(rng, (width, width))),
                    own(f"{prefix}.fuse_b", np.zeros(width)))

        cta_mask = cfg.cta_mask()
        blocks: list[ExpertBlock] = []
        for l in range(cfg.layers):
            pfx = f"task{t}.blk{l}"
            attn: B.SelfAttentionParams | CtaAttentionParams | StaAttentionParams
            if cfg.strategy == "sta":
                attn = StaAttentionParams(tied[l], *fuse(f"{pfx}.attn"))
            elif cfg.cta_in_mhsa:
                attn = CtaAttentionParams(ta_stage(f"{pfx}.attn.ta_q", d, d),
                                          ta_stage(f"{pfx}.attn.ta_k", d, d),
                                          ta_stage(f"{pfx}.attn.ta_v", d, d),
                                          *fuse(f"{pfx}.attn"))
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
                frozen: "ForwardResult | None" = None) -> "ForwardResult":
        """Run one (C, h, w) image or a (B, C, h, w) batch; see ``_forward``."""
        return _forward(self, image, collect_attn=collect_attn, frozen=frozen)


@dataclass
class ForwardResult:
    """Activations of one forward pass in the model's own wiring, or of
    its frozen prefix.

    Shapes are those of one image; a batched forward puts the batch axis
    in front of every tensor and attention array.  ``reads[l]`` maps a key
    to one entry per expert of what newer experts' cross-task stages read
    at layer l: ``"s"``/``"o"`` TA fc1/fc2 inputs and ``"a"`` ``cta_in_mhsa``
    block inputs, as (P, H_t, din) head tokens normalised by ``T.normalize``,
    and ``"k"``/``"v"`` sta tied keys and values; a stage that reads only
    its own expert records nothing.  A frozen prefix (``freeze_outputs``)
    holds experts 0..n-1, n = ``len(token_feats)``, and no ``logits``; one
    that is ``head_only`` also holds the ``features`` of experts n..
    """
    reads: list[dict[str, list[Tensor]]]  # [layers] key -> per task
    features: list[Tensor | None]         # per task (P, D*H_t); None if from the prefix
    token_feats: list[Tensor]             # per task (1, D*H_t)
    logit_parts: list[Tensor]             # per task (1, |Y_t|) classifier slices
    logits: Tensor | None                 # (total classes,); None in a prefix
    aux_logits: Tensor | None             # (|Y_t| + 1,); None in a prefix
    spatial_attn: list[list[np.ndarray]] | None = None
    tab_attn: list[list[tuple[np.ndarray | None, np.ndarray | None]]] | None = None

    @property
    def head_only(self) -> bool:
        """Whether this prefix holds final block outputs past its experts."""
        return len(self.features) > len(self.token_feats)

    def columns(self) -> list[list[Tensor]]:
        """The per-expert lists of a prefix but its final features: each
        layer's reads in stage order, then token features and classifier
        slices."""
        return [*(items for layer in self.reads for items in layer.values()),
                self.token_feats, self.logit_parts]


def freeze_outputs(res: ForwardResult, n: int, *, features: bool = False,
                   rows=None) -> ForwardResult:
    """The frozen prefix of ``res`` at expert n: what experts n.. read from
    experts 0..n-1, detached; with ``rows``, those rows of a batch-major
    ``res`` that holds experts 0..n-1 or more, such as a store of prefixes.

    Old experts are frozen and read only older ones, so while a newer
    expert trains these are fixed functions of the image: every list of
    ``reads`` cut at n, token features and classifier slices.  With
    ``features`` the final block outputs of experts n.. are kept too: a
    forward from the prefix then runs only their token heads.
    """
    def take(items):
        return [t.detach() if rows is None else Tensor(t.data[rows]) for t in items]

    return ForwardResult(
        reads=[{key: take(items[:n]) for key, items in layer.items()} for layer in res.reads],
        features=[None] * n + take(res.features[n:]) if features else [],
        token_feats=take(res.token_feats[:n]), logit_parts=take(res.logit_parts[:n]),
        logits=None, aux_logits=None)


# ----------------------------------------------------------------- task attention

def task_attention(parts: list[Tensor], n_query: int, stage: TaStageParams):
    """Attend the last ``n_query`` head tokens over the pool of ``parts``
    with the stage's parameters, as one graph node (``T.task_attention``).

    ``parts`` holds the head tokens of each visible expert, the newest
    last, each (P, H_i, din) with a leading batch axis if batched and
    already normalised by ``T.normalize``.  Joined into (P, H_pool, din),
    they take the stage's layer-norm gain and bias once, so those
    gradients are one reduction over the pool.  Queries come from the
    newest task's heads only; keys span every head; each source head has
    its own value matrix.  Returns (P, n_query, dout) outputs scaled by the
    per-head lambdas and the (P, n_query, H_pool) attention weights as an
    array.
    """
    return T.task_attention(parts, n_query, stage.ln_gain, stage.ln_bias, stage.wq, stage.wk,
                            stage.wv, stage.lam)


def _heads(x: Tensor, head_dim: int) -> Tensor:
    """(P, D*H) features as (P, H, D) head tokens."""
    return T.reshape(x, (*x.shape[:-1], x.shape[-1] // head_dim, head_dim))


def _read(reads: dict[str, list[Tensor]], key: str, task: int, own: Tensor) -> list[Tensor]:
    """Append expert ``task``'s entry ``own`` to the layer's ``reads[key]``,
    which must hold one entry per expert 0..task-1, and return a new list
    of experts 0..task's entries, which later appends leave unchanged."""
    items = reads.setdefault(key, [])
    if len(items) != task:
        raise T.ContractError(
            f"{key!r} reads of task {task} hold {len(items)} entries, need {task}")
    items.append(own)
    return list(items)


def tab_forward(s_t: Tensor, reads: dict[str, list[Tensor]], model: CilModel,
                layer: int, task: int):
    """Run one expert's feature-mixing block: r_t = s_t + fc2(gelu(fc1(s_t))).

    This is the mixing block of every wiring.  Each stage is a task
    attention (a TAB stage of a dne expert) or an MLP stage, by the type of
    its parameters; a TA stage reads the features of every visible expert,
    an MLP stage only its own.  A TA stage reads each expert's features as
    head tokens that ``T.normalize`` produced once, in that expert's own
    stage: those of tasks 0..task-1 from ``reads["s"]`` (fc1) and
    ``reads["o"]`` (fc2) of the layer, computed earlier in the same forward
    pass or taken from a frozen prefix, and it appends this expert's.
    ``s_t`` is the expert's post-MHSA features.  Returns r_t and the
    attention weights (A1, A2), A1 or A2 None for an MLP stage.
    """
    cfg = model.cfg
    d = cfg.head_dim
    h_t = model.experts[task].heads
    blk = model.experts[task].blocks[layer]
    rows = s_t.shape[:-1]

    if isinstance(blk.fc1, TaStageParams):
        s_in = _read(reads, "s", task, T.normalize(_heads(s_t, d)))
        raw1, a1 = task_attention(s_in, h_t, blk.fc1)
        o3 = T.gelu(raw1)                                   # (P, H_t, gamma*D)
        o_t = T.reshape(o3, (*rows, cfg.gamma * d * h_t))
    else:
        o_t = T.gelu(B.mlp_stage(s_t, blk.fc1, d))
        a1 = None

    if isinstance(blk.fc2, TaStageParams):
        o_in = _read(reads, "o", task, T.normalize(_heads(o_t, cfg.gamma * d)))
        raw2, a2 = task_attention(o_in, h_t, blk.fc2)
        r_t = T.add(s_t, T.reshape(raw2, (*rows, d * h_t)))
    else:
        r_t = T.add(s_t, B.mlp_stage(o_t, blk.fc2, cfg.gamma * d))
        a2 = None

    return r_t, (a1, a2)


# ----------------------------------------------------------------- attention stages

def _cta_mhsa_task(model: CilModel, layer: int, task: int, r: Tensor,
                   reads: dict[str, list[Tensor]]):
    """Per-head spatial attention whose q/k/v come from task attentions.

    ``reads["a"]`` holds the block inputs of experts 0..task-1 as head
    tokens that their own stages normalised.  This expert's block input
    ``r`` is normalised once per stage, so that each stage's gradient
    reaches its tokens on its own; the first of them is appended to
    ``reads["a"]``.  The residual reads the raw block input."""
    d = model.cfg.head_dim
    ex = model.experts[task]
    attn = ex.blocks[layer].attn
    own = _heads(r, d)
    normed = [T.normalize(own) for _ in range(3)]
    prior = _read(reads, "a", task, normed[0])[:task]
    q, k, v = (T.swap_axes(task_attention(prior + [x], ex.heads, stage)[0], -3, -2)  # (H_t, P, D)
               for x, stage in zip(normed, (attn.ta_q, attn.ta_k, attn.ta_v)))
    return T.attention_readout(r, q, k, v, attn.fuse_w, attn.fuse_b, d)


def cross_task_mhsa(model: CilModel, layer: int, task: int, r: Tensor,
                    reads: dict[str, list[Tensor]]):
    """Expert ``task``'s spatial attention stage at ``layer`` on block input ``r``.

    The type of the expert's attention parameters picks the stage: its own
    heads over its own features, those heads with q/k/v mixed across every
    visible expert (``cta_in_mhsa``), which reads and appends to
    ``reads["a"]``, or the joint attention of the ``sta`` wiring, which
    reads and appends to ``reads["k"]`` and ``reads["v"]``.  Returns the
    output and the attention weights: (H_t, P, P), or (H_t*P, M*P) for the
    joint attention.
    """
    attn = model.experts[task].blocks[layer].attn
    if isinstance(attn, StaAttentionParams):
        return sta_attention_stage(model, layer, task, r, reads)
    if isinstance(attn, CtaAttentionParams):
        return _cta_mhsa_task(model, layer, task, r, reads)
    return B.mhsa_block(r, attn, model.cfg.head_dim)


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


def sta_attention_stage(model: CilModel, layer: int, task: int, r: Tensor,
                        reads: dict[str, list[Tensor]]):
    """Expert ``task``'s joint masked attention over the (patch, head)
    tokens of experts 0..task.

    Every head projects its block input ``r`` through the block's tied
    q/k/v, so keys are comparable across heads; the expert's heads query
    the pool of experts up to and including itself, keeping earlier
    experts' outputs intact after later ones are added.
    ``cfg.sta_variant`` picks the enabled groups.  ``reads["k"]`` and
    ``reads["v"]`` hold the keys and values of experts 0..task-1; this
    expert's are appended.  Returns the output and the (H_t*P, M*P)
    attention weights.
    """
    d = model.cfg.head_dim
    ex = model.experts[task]
    attn = ex.blocks[layer].attn
    *lead, p, _ = r.shape
    q, k, v = B.tied_head_projections(r, attn.tied, d)
    ks, vs = _read(reads, "k", task, k), _read(reads, "v", task, v)
    offset = sum(e.heads for e in model.experts[:task])
    m_heads = offset + ex.heads
    k_flat = T.reshape(k if task == 0 else T.concat(ks, axis=-3), (*lead, m_heads * p, d))
    v_flat = T.reshape(v if task == 0 else T.concat(vs, axis=-3), (*lead, m_heads * p, d))
    q_flat = T.reshape(q, (*lead, ex.heads * p, d))
    variant = model.cfg.sta_variant
    # "both" enables every (query, key) pair, so its softmax needs no mask
    mask = None if variant == "both" else sta_group_mask(ex.heads, offset, m_heads, p, variant)
    return T.attention_readout(r, q_flat, k_flat, v_flat, attn.fuse_w, attn.fuse_b, d, mask)


# ----------------------------------------------------------------- token head

def task_token_head(model: CilModel, features: list[Tensor | None],
                    frozen: ForwardResult | None):
    """Read out one feature vector per task token and classify.

    Each task token attends over its own expert's final patch tokens
    through a per-task frozen-after-training block, one graph node
    (``T.attention_block`` with the token as queries and residual and the
    features as keys and values); the per-task classifier slices are
    concatenated and the auxiliary head sees all token features.  It
    returns the token features, classifier slices, logits and aux logits,
    taking those of the prefix ``frozen``'s experts, if any, from it.  The
    token queries do not depend on the image: one serves a whole batch.
    """
    if len(features) != model.task_count:
        raise T.ContractError(
            f"token head got {len(features)} feature maps for {model.task_count} tasks")
    d = model.cfg.head_dim
    feats = list(frozen.token_feats) if frozen else []
    logit_parts = list(frozen.logit_parts) if frozen else []
    for t in range(len(feats), model.task_count):
        ex = model.experts[t]
        tp = ex.token_block
        e2, _ = T.attention_block(ex.token, features[t], tp.ln_gain, tp.ln_bias, tp.wq, tp.wk,
                                  tp.wv, tp.bq, tp.bk, tp.bv, tp.fuse_w, tp.fuse_b, d)
        feats.append(e2)
        logit_parts.append(T.matmul(e2, ex.head_w, ex.head_b))
    lead = feats[-1].shape[:-2]
    logits = T.reshape(logit_parts[0] if len(logit_parts) == 1
                       else T.concat(logit_parts, axis=-1), (*lead, model.total_classes))
    aux_in = feats[0] if len(feats) == 1 else T.concat(feats, axis=-1)
    aux = T.reshape(T.matmul(aux_in, model.aux_w, model.aux_b),
                    (*lead, model.experts[-1].n_classes + 1))
    return feats, logit_parts, logits, aux


# ----------------------------------------------------------------- drivers

def _forward(model: CilModel, image, *, collect_attn: bool,
             frozen: ForwardResult | None) -> ForwardResult:
    """One forward pass of a (C, h, w) image or a (B, C, h, w) batch; with
    the frozen prefix ``frozen`` (batched like ``image``) of experts 0..n-1
    only experts n.. run (from a ``head_only`` one their token heads, on the
    prefix's reads), and attention weights are collected for them."""
    cfg = model.cfg
    if model.task_count == 0:
        raise T.ContractError("forward on a model with no experts")
    n = len(frozen.token_feats) if frozen else 0
    reads, spatial, tab = [], [], []
    if frozen and frozen.head_only:
        r_list, reads = frozen.features[n:], frozen.reads
    else:
        patches = Tensor(B.extract_patches(np.asarray(image, dtype=np.float64), cfg.in_channels,
                                           cfg.image_size, cfg.patch_size))
        r_list = [B.patch_embed(patches, ex.embed, model.pos, cfg.head_dim)
                  for ex in model.experts[n:]]
        prior = frozen.reads if frozen else [{}] * cfg.layers
        for layer in range(cfg.layers):
            reads.append({key: list(items) for key, items in prior[layer].items()})
            outs, sp_l, tab_l = [], [], []
            for t, r in enumerate(r_list, start=n):
                s_t, attn = cross_task_mhsa(model, layer, t, r, reads[-1])
                r_t, pair = tab_forward(s_t, reads[-1], model, layer, t)
                outs.append(r_t)
                sp_l.append(attn)
                tab_l.append(pair)
            r_list = outs
            spatial.append(sp_l)
            tab.append(tab_l)
    features = [None] * n + r_list
    return ForwardResult(reads, features, *task_token_head(model, features, frozen),
                         spatial_attn=spatial if collect_attn else None,
                         tab_attn=tab if collect_attn else None)


# ----------------------------------------------------------------- checkpoints

def checkpoint_bytes(model: CilModel) -> bytes:
    """Self-describing binary container: version byte, JSON layout record,
    then named float64 little-endian parameter blobs in declaration order."""
    header = {
        "config": asdict(model.cfg),
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


class _NoDraws:
    """Generator stand-in while ``model_from_bytes`` rebuilds a layout: every
    parameter is then overwritten from the checkpoint, so ``normal`` (the
    only draw on ``add_expert``'s path) just allocates."""

    @staticmethod
    def normal(loc: float, scale: float, size) -> np.ndarray:
        return np.zeros(size)


def model_from_bytes(raw: bytes) -> CilModel:
    """Rebuild a model from ``checkpoint_bytes`` output.

    Every registered parameter must be stored exactly once and hold only
    finite values; any malformed or inconsistent input raises
    ``CheckpointError``. No initial values are drawn: the layout is built
    with zeros and then filled from the checkpoint, and the loaded model
    holds a fresh ``np.random.default_rng(0)``.
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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise CheckpointError(f"corrupt checkpoint header: {e}") from None
    try:
        model = CilModel(ModelConfig(**header["config"]), seed=0)
        rng, model.rng = model.rng, _NoDraws()
        for heads, n_cls in zip(header["heads_per_task"], header["classes_per_task"],
                                strict=True):
            model.add_expert(heads, n_cls)
        model.rng = rng
        records = [(rec["name"], tuple(rec["shape"])) for rec in header["params"]]
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"malformed checkpoint header: {e!r}") from None
    registry = dict(model.named_parameters())
    loaded: set[str] = set()
    start = pos = buf.tell()
    for name, shape in records:
        if not isinstance(name, str) or name not in registry:
            raise CheckpointError(f"checkpoint names unknown parameter {name!r}")
        if name in loaded:
            raise CheckpointError(f"checkpoint stores parameter {name!r} twice")
        loaded.add(name)
        tensor = registry[name]
        if tensor.shape != shape:
            raise CheckpointError(
                f"parameter {name!r}: checkpoint shape {shape} vs model {tensor.shape}")
        n = math.prod(shape)
        if pos + 8 * n > len(raw):
            raise CheckpointError(f"checkpoint truncated at parameter {name!r}")
        tensor.data[...] = np.frombuffer(raw, dtype="<f8", count=n, offset=pos).reshape(shape)
        pos += 8 * n
    if not np.isfinite(np.frombuffer(raw, dtype="<f8", count=(pos - start) // 8,
                                     offset=start)).all():
        name = next(name for name, _ in records if not np.isfinite(registry[name].data).all())
        raise CheckpointError(f"parameter {name!r} holds a non-finite value")
    missing = [name for name in registry if name not in loaded]
    if missing:
        raise CheckpointError(f"checkpoint lacks {len(missing)} parameters, first {missing[0]!r}")
    if pos != len(raw):
        raise CheckpointError("trailing bytes after final parameter blob")
    return model


def load_checkpoint(path) -> CilModel:
    with open(path, "rb") as f:
        return model_from_bytes(f.read())


def clone_model(model: CilModel) -> CilModel:
    """Deep copy through the checkpoint codec (bit-exact by construction)."""
    return model_from_bytes(checkpoint_bytes(model))
