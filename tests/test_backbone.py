"""Backbone block tests against naive loop oracles."""

import math

import numpy as np
import pytest

from densecil import backbone as B
from densecil import expansion as E
from densecil import tensor as T
from densecil.config import TOL, ConfigError

import oracles as O


def _patches(cfg, image):
    return B.extract_patches(image, cfg.in_channels, cfg.image_size, cfg.patch_size)


# ------------------------------------------------------------- patch embed

def test_patch_count_cifar_scale():
    cfg = E.ModelConfig(image_size=32, patch_size=4, in_channels=3, head_dim=8)
    assert cfg.num_patches == 64
    rng = np.random.default_rng(0)
    patches = _patches(cfg, rng.random((3, 32, 32)))
    params = B.init_patch_embed(rng, patches.shape[-1], 2 * cfg.head_dim)
    pos = B.init_positional_table(rng, cfg.num_patches, cfg.head_dim)
    out = B.patch_embed(T.Tensor(patches), params, pos, cfg.head_dim)
    assert out.shape == (64, 16)


def test_patch_count_single_token():
    cfg = E.ModelConfig(image_size=4, patch_size=4, in_channels=3, head_dim=4)
    assert cfg.num_patches == 1
    rng = np.random.default_rng(1)
    patches = _patches(cfg, rng.random((3, 4, 4)))
    params = B.init_patch_embed(rng, patches.shape[-1], cfg.head_dim)
    pos = B.init_positional_table(rng, 1, 4)
    out = B.patch_embed(T.Tensor(patches), params, pos, cfg.head_dim)
    assert out.shape == (1, 4)


def test_zero_image_zero_pos_gives_zero_tokens():
    cfg = E.ModelConfig(image_size=8, patch_size=4, in_channels=3, head_dim=4)
    rng = np.random.default_rng(2)
    patches = _patches(cfg, np.zeros((3, 8, 8)))
    params = B.init_patch_embed(rng, patches.shape[-1], 2 * cfg.head_dim)
    pos = T.Tensor(np.zeros((cfg.num_patches, cfg.head_dim)), requires_grad=True)
    out = B.patch_embed(T.Tensor(patches), params, pos, cfg.head_dim)
    np.testing.assert_array_equal(out.data, 0.0)


def test_indivisible_image_size_rejected():
    with pytest.raises(ConfigError):
        E.ModelConfig(image_size=10, patch_size=4)


def test_patch_order_is_row_major():
    cfg = E.ModelConfig(image_size=4, patch_size=2, in_channels=1, head_dim=2)
    img = np.arange(16.0).reshape(1, 4, 4)
    patches = _patches(cfg, img)
    np.testing.assert_array_equal(patches[0], [0, 1, 4, 5])
    np.testing.assert_array_equal(patches[1], [2, 3, 6, 7])
    np.testing.assert_array_equal(patches[2], [8, 9, 12, 13])


# ------------------------------------------------------------- attention

def attention_oracle(r, p):
    """Naive per-head loops over patches: the reference for mhsa_block."""
    n, width = r.shape
    d = p.ln_gain.shape[0]
    heads = width // d
    out = np.array(r)
    for h in range(heads):
        tok = r[:, h * d:(h + 1) * d]
        mu = tok.mean(axis=1, keepdims=True)
        var = ((tok - mu) ** 2).mean(axis=1, keepdims=True)
        x = (tok - mu) / np.sqrt(var + 1e-5) * p.ln_gain.data + p.ln_bias.data
        q = x @ p.wq.data[h] + p.bq.data[h, 0]
        k = x @ p.wk.data[h] + p.bk.data[h, 0]
        v = x @ p.wv.data[h] + p.bv.data[h, 0]
        heads_out = np.zeros((n, d))
        for i in range(n):
            logits = np.array([q[i] @ k[j] / math.sqrt(d) for j in range(n)])
            logits -= logits.max()
            w = np.exp(logits)
            w /= w.sum()
            heads_out[i] = sum(w[j] * v[j] for j in range(n))
        out_cols = slice(h * d, (h + 1) * d)
        if h == 0:
            cat = np.zeros((n, width))
        cat[:, out_cols] = heads_out
    return r + cat @ p.fuse_w.data + p.fuse_b.data


def test_mhsa_single_patch_attention_is_one():
    rng = np.random.default_rng(3)
    p = B.init_self_attention(rng, heads=2, head_dim=4)
    r = T.Tensor(rng.normal(size=(1, 8)))
    _, attn = B.mhsa_block(r, p, 4)
    np.testing.assert_allclose(attn, np.ones((2, 1, 1)), atol=1e-15)


def test_mhsa_identical_tokens_uniform_rows():
    rng = np.random.default_rng(4)
    p = B.init_self_attention(rng, heads=2, head_dim=4)
    row = rng.normal(size=8)
    r = T.Tensor(np.tile(row, (5, 1)))
    _, attn = B.mhsa_block(r, p, 4)
    np.testing.assert_allclose(attn, np.full((2, 5, 5), 1 / 5), atol=1e-12)


def test_mhsa_matches_naive_loop_oracle():
    rng = np.random.default_rng(5)
    p = B.init_self_attention(rng, heads=3, head_dim=4)
    r = rng.normal(size=(6, 12))
    got, _ = B.mhsa_block(T.Tensor(r), p, 4)
    assert np.abs(got.data - attention_oracle(r, p)).max() < TOL.attention


def test_mhsa_rows_sum_to_one():
    rng = np.random.default_rng(6)
    p = B.init_self_attention(rng, heads=2, head_dim=4)
    _, attn = B.mhsa_block(T.Tensor(rng.normal(size=(7, 8))), p, 4)
    np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=TOL.row_sum)


def test_mhsa_zero_weights_identity():
    rng = np.random.default_rng(7)
    p = B.init_self_attention(rng, heads=2, head_dim=4)
    for t in (p.wq, p.wk, p.wv, p.bq, p.bk, p.bv, p.fuse_w, p.fuse_b):
        t.data[...] = 0.0
    r = rng.normal(size=(5, 8))
    got, _ = B.mhsa_block(T.Tensor(r), p, 4)
    np.testing.assert_array_equal(got.data, r)


def _assert_same_bits(got, want):
    for g, w in zip(got, want, strict=True):
        if w is None:
            assert g is None
        else:
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("form", ["self", "self_unbatched", "token", "token_unbatched"])
def test_attention_block_equals_the_composed_ops_bit_for_bit(form):
    """Output, weights and every gradient of ``T.attention_block`` equal the
    block composed of single ops (``oracles.attention_block``), at a task
    width of 3 heads of 16 over 16 patches."""
    rng = np.random.default_rng(90)
    p = B.init_self_attention(rng, heads=3, head_dim=16)
    params = [p.ln_gain, p.ln_bias, p.wq, p.wk, p.wv, p.bq, p.bk, p.bv, p.fuse_w, p.fuse_b]
    for t in params:
        t.data[...] = rng.normal(scale=0.3, size=t.shape)
    lead = () if form.endswith("unbatched") else (3,)
    rows = rng.normal(size=(*lead, 16, 48))
    token = rng.normal(size=(1, 48))
    probe = rng.normal(size=(*lead, 16 if form.startswith("self") else 1, 48))

    def run(op):
        for t in params:
            t.grad = None
        xkv = T.Tensor(rows, requires_grad=True)
        xq = xkv if form.startswith("self") else T.Tensor(token, requires_grad=True)
        out, attn = op(xq, xkv, *params, 16)
        T.backward(T.sum_all(T.mul(out, T.Tensor(probe))))
        return [out.data, attn, xq.grad, xkv.grad] + [t.grad for t in params]

    _assert_same_bits(run(T.attention_block), run(O.attention_block))


@pytest.mark.parametrize("form", ["heads", "flat", "flat_masked", "constant_residual"])
def test_attention_readout_equals_the_composed_ops_bit_for_bit(form):
    """``T.attention_readout`` against ``oracles.attention_readout``: 2
    query heads of 16 over 16 patches, head-major, or flattened over a
    pool of 5 heads (with a group mask, or with the residual a constant)."""
    rng = np.random.default_rng(91)
    kv_rows = 32 if form == "heads" else 80
    q_shape = (3, 2, 16, 16) if form == "heads" else (3, 32, 16)
    kv_shape = (3, 2, 16, 16) if form == "heads" else (3, kv_rows, 16)
    arrays = [rng.normal(size=s) for s in ((3, 16, 32), q_shape, kv_shape, kv_shape)]
    fuse = [T.Tensor(rng.normal(scale=0.3, size=s), requires_grad=True) for s in ((32, 32), (32,))]
    mask = E.sta_group_mask(2, 3, 5, 16, "dpdh") if form == "flat_masked" else None
    probe = rng.normal(size=(3, 16, 32))

    def run(op):
        for t in fuse:
            t.grad = None
        ts = [T.Tensor(a, requires_grad=i > 0 or form != "constant_residual")
              for i, a in enumerate(arrays)]
        out, attn = op(*ts, *fuse, 16, mask)
        T.backward(T.sum_all(T.mul(out, T.Tensor(probe))))
        return [out.data, attn] + [t.grad for t in ts + fuse]

    _assert_same_bits(run(T.attention_readout), run(O.attention_readout))


# ------------------------------------------------------------- MLP

def mlp_oracle(s, params, d, gamma):
    """Straight-line reference for the two-stage mixing block."""
    n, width = s.shape
    heads = width // d

    def ln(x, dh, g, b):
        m = x.reshape(n, -1, dh)
        mu = m.mean(axis=-1, keepdims=True)
        var = ((m - mu) ** 2).mean(axis=-1, keepdims=True)
        return (((m - mu) / np.sqrt(var + 1e-5)) * g + b).reshape(n, -1)

    from scipy.special import erf
    g1 = ln(s, d, params.fc1.ln_gain.data, params.fc1.ln_bias.data)
    pre = g1 @ params.fc1.w.data + params.fc1.b.data
    o = pre * 0.5 * (1 + erf(pre / math.sqrt(2)))
    g2 = ln(o, gamma * d, params.fc2.ln_gain.data, params.fc2.ln_bias.data)
    return s + g2 @ params.fc2.w.data + params.fc2.b.data


def test_mlp_zero_weights_identity():
    rng = np.random.default_rng(8)
    p = O.init_mlp(rng, heads=2, head_dim=4, gamma=4)
    for st in (p.fc1, p.fc2):
        st.w.data[...] = 0.0
        st.b.data[...] = 0.0
    s = rng.normal(size=(5, 8))
    got, _ = O.mlp_block(T.Tensor(s), p)
    np.testing.assert_array_equal(got.data, s)


def test_mlp_hidden_width_expansion():
    rng = np.random.default_rng(9)
    p = O.init_mlp(rng, heads=1, head_dim=32, gamma=4)
    assert p.fc1.w.shape == (32, 128)
    _, o = O.mlp_block(T.Tensor(rng.normal(size=(3, 32))), p)
    assert o.shape == (3, 128)


def test_mlp_matches_straight_line_oracle():
    rng = np.random.default_rng(10)
    p = O.init_mlp(rng, heads=2, head_dim=4, gamma=3)
    s = rng.normal(size=(6, 8))
    got, _ = O.mlp_block(T.Tensor(s), p)
    assert np.abs(got.data - mlp_oracle(s, p, 4, 3)).max() < TOL.block


def test_blocks_preserve_token_count():
    rng = np.random.default_rng(11)
    blk = O.init_transformer_block(rng, heads=2, head_dim=4, gamma=2)
    out, _ = O.transformer_block(T.Tensor(rng.normal(size=(9, 8))), blk, 4)
    assert out.shape == (9, 8)
