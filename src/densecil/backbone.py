"""Tiny ViT building blocks: patch embedding, multi-head self-attention, MLP.

Tokens are kept per head throughout: a width-``d`` feature row is really
``H`` heads of ``head_dim`` values side by side, and layer norm is applied
to each head token separately.  That per-head discipline is what lets the
same blocks be stitched across task experts later without re-normalizing
foreign widths.

Every expert reads the same image: ``extract_patches`` flattens it once and
each expert's ``patch_embed`` projects those patches.  ``mlp_stage`` is the
one MLP stage; the model mixes features stage by stage in
``expansion.tab_forward``, while ``mlp_block`` and ``transformer_block``
stay here as the plain-ViT reference.

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


def per_head_layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
                        head_dim: int, eps: float = 1e-5) -> Tensor:
    """Layer norm applied to each head token of (..., P, D*H) rows."""
    toks = T.reshape(x, (*x.shape[:-1], x.shape[-1] // head_dim, head_dim))
    return T.reshape(T.layer_norm(toks, gain, bias, eps), x.shape)


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
    toks = T.reshape(r, (*lead, p, heads, head_dim))
    x = T.layer_norm(toks, params.ln_gain, params.ln_bias)
    flat = T.reshape(x, (*lead, p * heads, head_dim))
    out = []
    for w, b in ((params.wq, params.bq), (params.wk, params.bk),
                 (params.wv, params.bv)):
        y = T.reshape(T.matmul(flat, w, b), (*lead, p, heads, head_dim))
        out.append(T.swap_axes(y, -3, -2))
    return tuple(out)


def head_major(r: Tensor, params: SelfAttentionParams, head_dim: int) -> Tensor:
    """Per-head layer norm of (..., P, D*H) rows with ``params``' gain and
    bias, swapped to head-major (..., H, P, D)."""
    toks = T.reshape(r, (*r.shape[:-1], r.shape[-1] // head_dim, head_dim))
    return T.swap_axes(T.layer_norm(toks, params.ln_gain, params.ln_bias), -3, -2)


def head_projections(r: Tensor, params: SelfAttentionParams, head_dim: int):
    """Normalized per-head q/k/v stacks, head-major: each (..., H, P, D)."""
    xh = head_major(r, params, head_dim)
    q = T.add(T.matmul(xh, params.wq), params.bq)
    k = T.add(T.matmul(xh, params.wk), params.bk)
    v = T.add(T.matmul(xh, params.wv), params.bv)
    return q, k, v


def attention_readout(r: Tensor, q: Tensor, k: Tensor, v: Tensor,
                      fuse_w: Tensor, fuse_b: Tensor, head_dim: int,
                      mask: np.ndarray | None = None):
    """Scaled dot-product attention plus residual fusion: r + fuse(softmax(q k^T) v).

    q/k/v are head-major (H, P, D) stacks, each head attending within
    itself, or, with ``mask`` enabling (query, key) pairs, flattened
    (H*P, D) queries over (M*P, D) keys and values.  Any operand may carry
    a leading batch axis.  Returns the (P, D*H) block output and the
    attention weights, (H, P, P) or (H*P, M*P), batched like the inputs.
    """
    p, width = r.shape[-2:]
    heads = width // head_dim
    attn = T.softmax_rows(T.matmul(q, T.swap_axes(k, -1, -2)), math.sqrt(head_dim), mask)
    av = T.matmul(attn, v)
    if mask is not None:
        av = T.reshape(av, (*av.shape[:-2], heads, p, head_dim))
    cat = T.reshape(T.swap_axes(av, -3, -2), (*av.shape[:-3], p, width))
    return T.add(r, T.matmul(cat, fuse_w, fuse_b)), attn


def mhsa_block(r: Tensor, params: SelfAttentionParams, head_dim: int):
    """Residual multi-head self-attention: s = r + fuse(per-head attention).

    Each head attends over all P patches within itself.  Returns the block
    output and the (H, P, P) attention weights (batched like ``r``).
    """
    width = r.shape[-1]
    if width % head_dim != 0:
        raise T.ShapeError(f"width {width} not divisible by head dim {head_dim}")
    q, k, v = head_projections(r, params, head_dim)
    return attention_readout(r, q, k, v, params.fuse_w, params.fuse_b, head_dim)


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


@dataclass
class MlpParams:
    fc1: MlpStageParams   # D*H -> gamma*D*H
    fc2: MlpStageParams   # gamma*D*H -> D*H


def init_mlp(rng: np.random.Generator, heads: int, head_dim: int, gamma: int) -> MlpParams:
    width = heads * head_dim
    hidden = gamma * width
    return MlpParams(
        fc1=init_mlp_stage(rng, head_dim, width, hidden),
        fc2=init_mlp_stage(rng, gamma * head_dim, hidden, width),
    )


def mlp_stage(x: Tensor, stage: MlpStageParams, head_dim: int) -> Tensor:
    """One linear stage over per-head normalized tokens of width ``head_dim``."""
    return T.matmul(per_head_layer_norm(x, stage.ln_gain, stage.ln_bias, head_dim),
                    stage.w, stage.b)


def mlp_block(s: Tensor, params: MlpParams, head_dim: int, gamma: int):
    """Two-stage mixing with residual: r = s + fc2(ln(gelu(fc1(ln(s))))).

    Norms run per head token (dim D before fc1, gamma*D before fc2).
    Returns (r, o) with o the post-GELU intermediate.
    """
    o = T.gelu(mlp_stage(s, params.fc1, head_dim))
    return T.add(s, mlp_stage(o, params.fc2, gamma * head_dim)), o


@dataclass
class TransformerBlockParams:
    attn: SelfAttentionParams
    mlp: MlpParams


def init_transformer_block(rng: np.random.Generator, heads: int, head_dim: int,
                           gamma: int) -> TransformerBlockParams:
    return TransformerBlockParams(
        attn=init_self_attention(rng, heads, head_dim),
        mlp=init_mlp(rng, heads, head_dim, gamma),
    )


def transformer_block(r: Tensor, params: TransformerBlockParams, head_dim: int, gamma: int):
    s, attn = mhsa_block(r, params.attn, head_dim)
    out, _ = mlp_block(s, params.mlp, head_dim, gamma)
    return out, attn
