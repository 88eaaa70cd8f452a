"""Reference code only tests use: the plain-ViT MLP and transformer blocks
that the model's per-stage wiring must reproduce (the MLP's per-head norms
composed of reshapes around ``T.layer_norm``), a row softmax op over the
package's softmax kernels, a slice op, the attention block and read-out
composed of single ops and that softmax, which the fused
``T.attention_block`` and ``T.attention_readout`` equal bit for bit (the
task-attention stage's composition in ``tests/test_expansion.py`` adds the
slice), the herding loop that sums the
chosen rows for every candidate, a no-grad logits read, and a forward run
layer by layer that keeps the per-layer activations ``ForwardResult``
does not."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from densecil import backbone as B
from densecil import continual as C
from densecil import expansion as E
from densecil import tensor as T
from densecil.tensor import Tensor


def softmax_rows(x: Tensor, scale: float, mask: np.ndarray | None = None) -> Tensor:
    """Row-wise softmax of x/scale over the last axis as a graph op, with the
    kernels every fused attention op runs (``T._softmax``); rows of the
    output sum to 1, and ``mask`` restricts each row to its enabled
    entries."""
    y = T._softmax(x.data, scale, mask, "softmax_rows")

    def bwd(g):
        return (T._softmax_grad(g, y, scale),)

    return T._make(y, (x,), "softmax_rows", bwd)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """The contiguous slice ``start:start + length`` of one axis as a graph
    op; its gradient is zero-padded back to the parent's shape."""
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def bwd(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return T._make(a.data[idx], (a,), "narrow", bwd)


def herding_select(features: np.ndarray, m: int) -> list[int]:
    """``continual.herding_select`` that sums the chosen rows again for
    every candidate: the order the running sum must reproduce."""
    features = np.asarray(features, dtype=np.float64)
    target = features.mean(axis=0)
    chosen: list[int] = []
    remaining = list(range(features.shape[0]))
    for _ in range(m):
        best_idx, best_dist = None, None
        k = len(chosen) + 1
        for idx in remaining:
            cand = features[chosen + [idx]].sum(axis=0) / k
            dist = float(np.linalg.norm(target - cand))
            if best_dist is None or dist < best_dist:
                best_idx, best_dist = idx, dist
        chosen.append(best_idx)
        remaining.remove(best_idx)
    return chosen


@dataclass
class MlpParams:
    fc1: B.MlpStageParams   # D*H -> gamma*D*H
    fc2: B.MlpStageParams   # gamma*D*H -> D*H


def init_mlp(rng: np.random.Generator, heads: int, head_dim: int, gamma: int) -> MlpParams:
    width = heads * head_dim
    hidden = gamma * width
    return MlpParams(
        fc1=B.init_mlp_stage(rng, head_dim, width, hidden),
        fc2=B.init_mlp_stage(rng, gamma * head_dim, hidden, width),
    )


def per_token_layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """``T.layer_norm`` of (..., P, D*H) rows composed of single ops: the
    rows reshaped to one ``len(gain)``-wide token per row, normalised and
    reshaped back."""
    d = gain.shape[-1]
    toks = T.reshape(x, (*x.shape[:-1], x.shape[-1] // d, d))
    return T.reshape(T.layer_norm(toks, gain, bias), x.shape)


def mlp_block(s: Tensor, params: MlpParams):
    """Two-stage mixing with residual: r = s + fc2(ln(gelu(fc1(ln(s))))).

    Norms run per head token (dim D before fc1, gamma*D before fc2), each
    composed by ``per_token_layer_norm``.  Returns (r, o) with o the
    post-GELU intermediate.
    """
    fc1, fc2 = params.fc1, params.fc2
    o = T.gelu(T.matmul(per_token_layer_norm(s, fc1.ln_gain, fc1.ln_bias), fc1.w, fc1.b))
    return T.add(s, T.matmul(per_token_layer_norm(o, fc2.ln_gain, fc2.ln_bias),
                             fc2.w, fc2.b)), o


def head_major(r: Tensor, params: B.SelfAttentionParams, head_dim: int) -> Tensor:
    """Per-head layer norm of (..., P, D*H) rows with ``params``' gain and
    bias, swapped to head-major (..., H, P, D)."""
    toks = T.reshape(r, (*r.shape[:-1], r.shape[-1] // head_dim, head_dim))
    return T.swap_axes(T.layer_norm(toks, params.ln_gain, params.ln_bias), -3, -2)


def head_projections(r: Tensor, params: B.SelfAttentionParams, head_dim: int):
    """Normalized per-head q/k/v stacks, head-major: each (..., H, P, D)."""
    xh = head_major(r, params, head_dim)
    q = T.add(T.matmul(xh, params.wq), params.bq)
    k = T.add(T.matmul(xh, params.wk), params.bk)
    v = T.add(T.matmul(xh, params.wv), params.bv)
    return q, k, v


def attention_readout(r: Tensor, q: Tensor, k: Tensor, v: Tensor, fuse_w: Tensor,
                      fuse_b: Tensor, head_dim: int, mask=None):
    """``T.attention_readout`` composed of single ops; the weights as an array."""
    p, width = r.shape[-2:]
    heads = width // head_dim
    attn = softmax_rows(T.matmul(q, T.swap_axes(k, -1, -2)), math.sqrt(head_dim), mask)
    av = T.matmul(attn, v)
    if len(av.shape) == len(r.shape):   # flattened queries: back to (H, P, D)
        av = T.reshape(av, (*av.shape[:-2], heads, p, head_dim))
    cat = T.reshape(T.swap_axes(av, -3, -2), (*av.shape[:-3], p, width))
    return T.add(r, T.matmul(cat, fuse_w, fuse_b)), attn.data


def attention_block(xq, xkv, gain, bias, wq, wk, wv, bq, bk, bv, fuse_w, fuse_b, head_dim):
    """``T.attention_block`` composed of single ops: the self-attention
    block when ``xkv`` is ``xq``, a task token's read-out otherwise."""
    params = B.SelfAttentionParams(gain, bias, wq, wk, wv, bq, bk, bv, fuse_w, fuse_b)
    if xq is xkv:
        q, k, v = head_projections(xq, params, head_dim)
    else:
        pat = head_major(xkv, params, head_dim)
        q = T.add(T.matmul(head_major(xq, params, head_dim), wq), bq)     # (H, 1, D)
        k = T.add(T.matmul(pat, wk), bk)                                  # (H, P, D)
        v = T.add(T.matmul(pat, wv), bv)
    return attention_readout(xq, q, k, v, fuse_w, fuse_b, head_dim)


@dataclass
class TransformerBlockParams:
    attn: B.SelfAttentionParams
    mlp: MlpParams


def init_transformer_block(rng: np.random.Generator, heads: int, head_dim: int,
                           gamma: int) -> TransformerBlockParams:
    return TransformerBlockParams(
        attn=B.init_self_attention(rng, heads, head_dim),
        mlp=init_mlp(rng, heads, head_dim, gamma),
    )


def transformer_block(r: Tensor, params: TransformerBlockParams, head_dim: int):
    s, attn = B.mhsa_block(r, params.attn, head_dim)
    out, _ = mlp_block(s, params.mlp)
    return out, attn


def eval_logits(model, image) -> np.ndarray:
    """The model's logits for ``image``, computed without a graph."""
    with T.no_grad():
        return model.forward(image).logits.data.copy()


def forward_samples(model):
    """A ``forward`` of samples for ``continual.total_loss`` and
    ``token_features``: the uncached model on the samples' images."""
    return lambda samples: model.forward(C.images(samples))


@dataclass
class Layers:
    r: list[list[Tensor]]           # [layers+1][task] block inputs, then final features
    s: list[list[Tensor]]           # [layers][task] post-MHSA features
    reads: list[dict[str, list[Tensor]]]


def layer_activations(model, image) -> Layers:
    """A full forward of ``image`` up to the final block outputs, run layer
    by layer through the stage functions ``E.cross_task_mhsa`` and
    ``E.tab_forward``, in the order ``model.forward`` runs them."""
    cfg = model.cfg
    patches = Tensor(B.extract_patches(np.asarray(image, dtype=np.float64), cfg.in_channels,
                                       cfg.image_size, cfg.patch_size))
    out = Layers([[B.patch_embed(patches, ex.embed, model.pos, cfg.head_dim)
                   for ex in model.experts]], [], [])
    for layer in range(cfg.layers):
        reads, s_l, r_l = {}, [], []
        for t, r in enumerate(out.r[-1]):
            s_t, _ = E.cross_task_mhsa(model, layer, t, r, reads)
            r_t, _ = E.tab_forward(s_t, reads, model, layer, t)
            s_l.append(s_t)
            r_l.append(r_t)
        out.r.append(r_l)
        out.s.append(s_l)
        out.reads.append(reads)
    return out
