"""Tiny ViT building blocks: patch embedding, multi-head self-attention, MLP.

Tokens are kept per head throughout: a width-``d`` feature row is really
``H`` heads of ``head_dim`` values side by side, and ``T.layer_norm``
splits it into those tokens and normalises each apart.  That discipline is
what lets the same blocks be stitched across task experts later without
re-normalizing foreign widths.

Every expert reads the same image: ``extract_patches`` flattens it once and
each expert's ``patch_embed`` projects those patches.  ``mhsa_block`` is one
graph node, ``T.attention_block``: per-head layer norm, q/k/v, read-out,
fusion and residual.  ``tied_head_projections`` gives the joint wiring's
q/k/v, which ``T.attention_readout`` reads out.  ``mlp_stage`` is the one
MLP stage; the model mixes features stage by stage in
``expansion.tab_forward``.

Every block takes token rows (P, D*H) of one image or (B, P, D*H) of a
batch; leading axes pass through unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import ConfigError
from .tensor import Tensor


@dataclass
class PatchEmbedParams:
    weight: Tensor    # (C*ps*ps, D*H)
    bias: Tensor      # (D*H,)


def init_patch_embed(rng: np.random.Generator, patch_dim: int, width: int) -> PatchEmbedParams:
    return PatchEmbedParams(
        weight=Tensor(T.fan_in_normal(rng, (patch_dim, width)), requires_grad=True),
        bias=Tensor(np.zeros(width), requires_grad=True),
    )


def init_positional_table(rng: np.random.Generator, num_patches: int, head_dim: int) -> Tensor:
    """One learned D-vector per patch, added to every head's token.

    Drawn at 1/sqrt(D) scale so position and patch content start with
    comparable magnitude, as they do in a standard ViT.
    """
    std = 1.0 / math.sqrt(head_dim)
    return Tensor(rng.normal(0.0, std, size=(num_patches, head_dim)), requires_grad=True)


def extract_patches(image: np.ndarray, in_channels: int, image_size: int,
                    patch_size: int) -> np.ndarray:
    """Flatten non-overlapping patches in row-major grid order:
    (C, h, w) -> (P, C*ps*ps), or (B, C, h, w) -> (B, P, C*ps*ps)."""
    want = (in_channels, image_size, image_size)
    if image.ndim not in (3, 4) or image.shape[-3:] != want:
        raise ConfigError(f"image shape {image.shape} does not match config {want}")
    lead = image.shape[:-3]
    c, ps = in_channels, patch_size
    side = image_size // ps
    patches = image.reshape(*lead, c, side, ps, side, ps)
    k = len(lead)
    patches = patches.transpose(*range(k), k + 1, k + 3, k, k + 2, k + 4)
    return np.ascontiguousarray(patches.reshape(*lead, side * side, c * ps * ps))


def patch_embed(patches: Tensor, params: PatchEmbedParams, pos: Tensor,
                head_dim: int) -> Tensor:
    """Project flattened (P, C*ps*ps) patches and add the per-head positional
    table.

    Returns (P, D*H) token rows, with the patches' leading batch axis if any.
    """
    tokens = T.matmul(patches, params.weight, params.bias)
    *lead, p, width = tokens.shape
    toks = T.reshape(tokens, (*lead, p, width // head_dim, head_dim))
    pos3 = T.reshape(pos, (p, 1, head_dim))
    return T.reshape(T.add(toks, pos3), tokens.shape)


# ------------------------------------------------------------- attention

@dataclass
class SelfAttentionParams:
    """Per-head q/k/v projections plus the per-task fusion layer.

    The stacks hold one D x D matrix per head; fusion mixes the
    concatenated head outputs back to the task width.
    """
    ln_gain: Tensor   # (D,)
    ln_bias: Tensor   # (D,)
    wq: Tensor        # (H, D, D)
    wk: Tensor        # (H, D, D)
    wv: Tensor        # (H, D, D)
    bq: Tensor        # (H, 1, D)
    bk: Tensor        # (H, 1, D)
    bv: Tensor        # (H, 1, D)
    fuse_w: Tensor    # (D*H, D*H)
    fuse_b: Tensor    # (D*H,)


def init_self_attention(rng: np.random.Generator, heads: int, head_dim: int) -> SelfAttentionParams:
    d, h = head_dim, heads
    mk = lambda *shape: Tensor(T.fan_in_normal(rng, shape), requires_grad=True)
    zeros = lambda *shape: Tensor(np.zeros(shape), requires_grad=True)
    return SelfAttentionParams(
        ln_gain=Tensor(np.ones(d), requires_grad=True),
        ln_bias=zeros(d),
        wq=mk(h, d, d), wk=mk(h, d, d), wv=mk(h, d, d),
        bq=zeros(h, 1, d), bk=zeros(h, 1, d), bv=zeros(h, 1, d),
        fuse_w=mk(d * h, d * h), fuse_b=zeros(d * h),
    )


@dataclass
class TiedAttentionParams:
    """One q/k/v projection shared by every head of every task.

    Used by the joint spatial-task wiring: identical tokens then produce
    identical keys regardless of which head owns them, which is what makes
    cross-head attention comparable to within-head attention.
    """
    ln_gain: Tensor   # (D,)
    ln_bias: Tensor
    wq: Tensor        # (D, D)
    wk: Tensor
    wv: Tensor
    bq: Tensor        # (D,)
    bk: Tensor
    bv: Tensor


def init_tied_attention(rng: np.random.Generator, head_dim: int) -> TiedAttentionParams:
    d = head_dim
    mk = lambda: Tensor(T.fan_in_normal(rng, (d, d)), requires_grad=True)
    zeros = lambda: Tensor(np.zeros(d), requires_grad=True)
    return TiedAttentionParams(
        ln_gain=Tensor(np.ones(d), requires_grad=True), ln_bias=zeros(),
        wq=mk(), wk=mk(), wv=mk(), bq=zeros(), bk=zeros(), bv=zeros(),
    )


def tied_head_projections(r: Tensor, params: TiedAttentionParams, head_dim: int):
    """q/k/v of every head through the shared matrices: each (..., H, P, D)."""
    *lead, p, width = r.shape
    heads = width // head_dim
    flat = T.reshape(T.layer_norm(r, params.ln_gain, params.ln_bias), (*lead, p * heads, head_dim))
    return tuple(T.swap_axes(T.reshape(T.matmul(flat, w, b), (*lead, p, heads, head_dim)), -3, -2)
                 for w, b in ((params.wq, params.bq), (params.wk, params.bk),
                              (params.wv, params.bv)))


def mhsa_block(r: Tensor, params: SelfAttentionParams, head_dim: int):
    """Residual multi-head self-attention, s = r + fuse(per-head attention),
    as one graph node (``T.attention_block``).

    Each head attends over all P patches within itself.  Returns the block
    output and the (H, P, P) attention weights as an array (batched like
    ``r``).
    """
    p = params
    return T.attention_block(r, r, p.ln_gain, p.ln_bias, p.wq, p.wk, p.wv, p.bq, p.bk, p.bv,
                             p.fuse_w, p.fuse_b, head_dim)


# ------------------------------------------------------------- MLP

@dataclass
class MlpStageParams:
    """One linear stage of the feature-mixing block, with its own pre-norm."""
    ln_gain: Tensor   # (din_head,)
    ln_bias: Tensor
    w: Tensor         # (din, dout) over the full task width
    b: Tensor


def init_mlp_stage(rng: np.random.Generator, din_head: int, din: int, dout: int) -> MlpStageParams:
    return MlpStageParams(
        ln_gain=Tensor(np.ones(din_head), requires_grad=True),
        ln_bias=Tensor(np.zeros(din_head), requires_grad=True),
        w=Tensor(T.fan_in_normal(rng, (din, dout)), requires_grad=True),
        b=Tensor(np.zeros(dout), requires_grad=True),
    )


def mlp_stage(x: Tensor, stage: MlpStageParams) -> Tensor:
    """One linear stage over the rows ``x``, each of whose head tokens is
    layer-normalised on its own (the head width is the norm's)."""
    return T.matmul(T.layer_norm(x, stage.ln_gain, stage.ln_bias), stage.w, stage.b)
