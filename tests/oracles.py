"""Reference code only tests use: the plain-ViT MLP and transformer blocks
that the model's per-stage wiring must reproduce, and a no-grad logits read."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from densecil import backbone as B
from densecil import tensor as T
from densecil.tensor import Tensor


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


def mlp_block(s: Tensor, params: MlpParams, head_dim: int, gamma: int):
    """Two-stage mixing with residual: r = s + fc2(ln(gelu(fc1(ln(s))))).

    Norms run per head token (dim D before fc1, gamma*D before fc2).
    Returns (r, o) with o the post-GELU intermediate.
    """
    o = T.gelu(B.mlp_stage(s, params.fc1, head_dim))
    return T.add(s, B.mlp_stage(o, params.fc2, gamma * head_dim)), o


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


def transformer_block(r: Tensor, params: TransformerBlockParams, head_dim: int, gamma: int):
    s, attn = B.mhsa_block(r, params.attn, head_dim)
    out, _ = mlp_block(s, params.mlp, head_dim, gamma)
    return out, attn


def eval_logits(model, image) -> np.ndarray:
    """The model's logits for ``image``, computed without a graph."""
    with T.no_grad():
        return model.forward(image).logits.data.copy()
