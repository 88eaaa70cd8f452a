"""Expansion tests: expert growth, TAB oracles, reduction equivalences,
freezing semantics, checkpoint round trips."""

import json
import math
import struct
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from densecil import backbone as B
from densecil import cli
from densecil import continual as C
from densecil import expansion as E
from densecil import tensor as T
from densecil.config import TOL, ConfigError

import oracles as O


def small_cfg(**kw):
    base = dict(image_size=8, patch_size=4, in_channels=3, head_dim=4,
                gamma=2, layers=2)
    base.update(kw)
    return E.ModelConfig(**base)


def build_model(cfg, heads=(2, 1), classes=(3, 2), seed=0):
    m = E.CilModel(cfg, seed=seed)
    for h, c in zip(heads, classes):
        m.add_expert(h, c)
    return m


def rand_image(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((cfg.in_channels, cfg.image_size, cfg.image_size))


@pytest.mark.parametrize("name", ["image_size", "patch_size", "in_channels",
                                  "head_dim", "gamma", "layers"])
def test_model_config_rejects_nonpositive_sizes(name):
    with pytest.raises(ConfigError):
        small_cfg(**{name: 0})


@pytest.mark.parametrize("name, value, message", [
    pytest.param("layers", True, "layers must be int, got True", id="layers-True"),
    pytest.param("gamma", 2.0, "gamma must be int, got 2.0", id="gamma-2.0"),
    pytest.param("cta_in_fc1", 1, "cta_in_fc1 must be bool, got 1", id="cta_in_fc1-1"),
    pytest.param("strategy", None, "strategy must be str, got None", id="strategy-None"),
    pytest.param("image_size", np.int64(8), f"image_size must be int, got {np.int64(8)!r}",
                 id="image_size-value4"),
])
def test_model_config_takes_each_field_at_its_exact_type(name, value, message):
    with pytest.raises(ConfigError) as err:
        small_cfg(**{name: value})
    assert str(err.value) == message


@dataclass(frozen=True)
class _SharedValues(E.ModelConfig):
    """A subclass declared without postponed annotations: its fields' types
    are classes, not names."""
    share_v: str = "s"


def test_model_config_subclass_checks_types_by_its_defaults():
    assert _SharedValues().share_v == "s"
    with pytest.raises(ConfigError) as err:
        _SharedValues(share_v=1)
    assert str(err.value) == "share_v must be str, got 1"


@pytest.mark.parametrize("strategy,name,value", [
    *[pytest.param(s, name, value, id=f"{s}-{name}") for s in ("ia", "sta")
      for name, value in [("cta_layers", (True, True)), ("cta_in_mhsa", True),
                          ("cta_in_fc1", False), ("cta_in_fc2", False),
                          ("share_q", "f"), ("share_k", "f"), ("share_v", "s")]],
    *[pytest.param(s, "sta_variant", "none", id=f"{s}-sta_variant") for s in ("ia", "dne")],
])
def test_model_config_rejects_wiring_fields_the_strategy_ignores(strategy, name, value):
    with pytest.raises(ConfigError, match=name):
        small_cfg(strategy=strategy, **{name: value})


# --------------------------------------------------------------- add_expert

def test_head_budget_grows_by_k():
    m = build_model(small_cfg(strategy="dne"), heads=(12,), classes=(4,))
    m.add_expert(1, 2)
    assert m.total_heads == 13


def test_add_expert_rejects_zero():
    m = build_model(small_cfg(), heads=(2,), classes=(2,))
    with pytest.raises(ConfigError):
        m.add_expert(0, 2)
    with pytest.raises(ConfigError):
        m.add_expert(1, 0)


def test_add_expert_preserves_prior_logits_exactly():
    cfg = small_cfg(strategy="dne")
    m = build_model(cfg, heads=(2,), classes=(3,))
    img = rand_image(cfg, 1)
    before = O.eval_logits(m, img)
    m.add_expert(1, 2)
    after = O.eval_logits(m, img)
    assert after.shape == (5,)
    np.testing.assert_array_equal(after[:3], before)


def test_add_expert_parameter_delta_matches_layout_arithmetic():
    cfg = small_cfg(strategy="dne", layers=2)
    m = build_model(cfg, heads=(2,), classes=(3,))
    n_before = sum(t.data.size for _, t in m.named_parameters())
    m.add_expert(1, 2)
    n_after = sum(t.data.size for _, t in m.named_parameters())

    d, g, L = cfg.head_dim, cfg.gamma, cfg.layers
    h_new, pool, n_cls, h_tot = 1, 3, 2, 3
    width = d * h_new
    # per-task patch embedding
    expected = cfg.num_patches * 0  # pos table already exists
    expected += (cfg.in_channels * cfg.patch_size ** 2) * width + width
    per_block = 0
    # per-head spatial attention + fusion
    per_block += 2 * d + 3 * h_new * d * d + 3 * h_new * d + width * width + width
    # TAB stage 1: ln(D) + shared q/k reused + per-pool-head value mats + lambda
    per_block += 2 * d + pool * d * (g * d) + h_new
    # TAB stage 2: ln(D') + value mats (D' -> D) + lambda
    per_block += 2 * (g * d) + pool * (g * d) * d + h_new
    expected += per_block * L
    # token, token block, classifier slice
    expected += width
    expected += 2 * d + 3 * h_new * d * d + 3 * h_new * d + width * width + width
    expected += width * n_cls + n_cls
    # auxiliary head is rebuilt at the new total width
    old_aux = (d * 2) * (3 + 1) + 4
    new_aux = (d * h_tot) * (n_cls + 1) + (n_cls + 1)
    expected += new_aux - old_aux
    assert n_after - n_before == expected


def test_old_params_frozen_after_expansion():
    m = build_model(small_cfg(strategy="dne"), heads=(2, 1), classes=(3, 2))
    for name, t in m.named_parameters():
        if name.startswith("task0") or name == "pos":
            assert not t.requires_grad, name
        if name.startswith("task1") or name.startswith("aux"):
            assert t.requires_grad, name


# --------------------------------------------------------------- ia

def test_single_task_ia_equals_plain_backbone():
    cfg = small_cfg(strategy="ia")
    m = build_model(cfg, heads=(2,), classes=(3,))
    img = rand_image(cfg, 2)
    res = m.forward(img)

    patches = B.extract_patches(img, cfg.in_channels, cfg.image_size, cfg.patch_size)
    r = B.patch_embed(T.Tensor(patches), m.experts[0].embed, m.pos, cfg.head_dim)
    for blk in m.experts[0].blocks:
        r, _ = O.transformer_block(
            r, O.TransformerBlockParams(blk.attn, O.MlpParams(blk.fc1, blk.fc2)),
            cfg.head_dim, cfg.gamma)
    np.testing.assert_array_equal(res.features[0].data, r.data)


@pytest.mark.parametrize("kw,mlp_layers", [
    pytest.param(dict(strategy="ia"), (0, 1), id="ia"),
    pytest.param(dict(strategy="sta"), (0, 1), id="sta"),
    pytest.param(dict(strategy="dne", cta_layers=(True, False)), (1,), id="dne_cta_layers_10"),
])
@pytest.mark.parametrize("batched", [False, True], ids=["image", "batch"])
def test_mlp_layers_equal_plain_mlp_block(kw, mlp_layers, batched):
    cfg = small_cfg(**kw)
    m = build_model(cfg, heads=(2, 1), classes=(3, 2))
    img = rand_image(cfg, 9)
    if batched:
        img = np.stack([img, rand_image(cfg, 10)])
    layers = O.layer_activations(m, img)
    for got, want in zip(layers.r[-1], m.forward(img).features, strict=True):
        np.testing.assert_array_equal(got.data, want.data)
    for l in mlp_layers:
        for t, ex in enumerate(m.experts):
            blk = ex.blocks[l]
            want, _ = O.mlp_block(layers.s[l][t], O.MlpParams(blk.fc1, blk.fc2),
                                  cfg.head_dim, cfg.gamma)
            np.testing.assert_array_equal(layers.r[l + 1][t].data, want.data)


def test_forward_extracts_patches_once(monkeypatch):
    cfg = small_cfg()
    m = build_model(cfg, heads=(2, 1, 1), classes=(3, 2, 2))
    calls = []
    extract = B.extract_patches

    def counting(*args):
        calls.append(args)
        return extract(*args)

    monkeypatch.setattr(B, "extract_patches", counting)
    m.forward(np.stack([rand_image(cfg, 1), rand_image(cfg, 2)]))
    assert len(calls) == 1


def test_ia_concatenated_width():
    cfg = small_cfg(strategy="ia")
    m = build_model(cfg, heads=(2, 1), classes=(3, 2))
    res = m.forward(rand_image(cfg, 3))
    widths = [f.shape[1] for f in res.features]
    assert widths == [8, 4]
    assert sum(widths) == cfg.head_dim * m.total_heads


def test_ia_old_features_bit_identical_after_expansion():
    cfg = small_cfg(strategy="ia")
    m = build_model(cfg, heads=(2,), classes=(3,))
    img = rand_image(cfg, 4)
    with T.no_grad():
        before = m.forward(img).features[0].data.copy()
    m.add_expert(1, 2)
    with T.no_grad():
        after = m.forward(img).features[0].data
    np.testing.assert_array_equal(after, before)


# --------------------------------------------------------------- STA

def test_sta_group_mask_counts():
    mask = E.sta_group_mask(2, 0, 2, 3, "none")
    assert mask.sum() == 2 * 3 * 3          # same-head pairs only
    both = E.sta_group_mask(2, 0, 2, 3, "both")
    assert both.all()


def test_sta_reduces_to_ia_with_same_head_groups():
    # with only the same-head groups enabled, joint attention is each
    # expert's own per-head attention over its tied projections
    cfg = small_cfg(strategy="sta", sta_variant="none")
    m = build_model(cfg, heads=(2, 1), classes=(3, 2))
    layers = O.layer_activations(m, rand_image(cfg, 5))
    d = cfg.head_dim
    for l in range(cfg.layers):
        for t, ex in enumerate(m.experts):
            r = layers.r[l][t]
            attn = ex.blocks[l].attn
            q, k, v = B.tied_head_projections(r, attn.tied, d)
            want, _ = T.attention_readout(r, q, k, v, attn.fuse_w, attn.fuse_b, d)
            assert np.abs(layers.s[l][t].data - want.data).max() < TOL.ia_reduction


def test_sta_experts_hold_the_first_experts_tied_projection():
    cfg = small_cfg(strategy="sta")
    m = build_model(cfg, heads=(2,), classes=(2,))
    names = [n for n, _ in m.named_parameters()]
    tied_names = [f"shared.attn{l}.{f}" for l in range(cfg.layers)
                  for f in ("ln_gain", "ln_bias", "wq", "wk", "wv", "bq", "bk", "bv")]
    assert names[: 1 + len(tied_names)] == ["pos", *tied_names]
    assert names[1 + len(tied_names)].startswith("task0.embed.")
    m.add_expert(1, 2)
    m.add_expert(1, 2)
    params = dict(m.named_parameters())
    assert [n for n in params if n.startswith("shared.")] == tied_names
    for l in range(cfg.layers):
        tied = m.experts[0].blocks[l].attn.tied
        assert tied.wq is params[f"shared.attn{l}.wq"]
        for ex in m.experts:
            assert ex.blocks[l].attn.tied is tied
    assert not any(params[n].requires_grad for n in tied_names)


def test_sta_stage_reads_and_appends_the_keys_and_values_of_earlier_experts():
    cfg = small_cfg(strategy="sta")
    m = build_model(cfg, heads=(2, 1), classes=(2, 2))
    img = rand_image(cfg, 3)
    res, layers = m.forward(img), O.layer_activations(m, img)
    reads = {key: res.reads[0][key][:1] for key in ("k", "v")}
    s, _ = E.cross_task_mhsa(m, 0, 1, layers.r[0][1], reads)
    np.testing.assert_array_equal(s.data, layers.s[0][1].data)
    for key in ("k", "v"):
        assert len(reads[key]) == 2
        np.testing.assert_array_equal(reads[key][1].data, res.reads[0][key][1].data)


def test_sta_same_patch_logits_match_constructed_input():
    # with tied projections, identical same-patch embeddings across heads
    # produce identical keys, so same-patch/different-head scores equal
    # the same-patch/same-head scores row by row -- across tasks too.
    cfg = small_cfg(strategy="sta", layers=1)
    m = build_model(cfg, heads=(2, 1), classes=(2, 2), seed=7)
    rng = np.random.default_rng(8)
    P, d = cfg.num_patches, cfg.head_dim
    tok = rng.normal(size=(P, d))
    r_list = [T.Tensor(np.concatenate([tok, tok], axis=1)), T.Tensor(tok)]
    tied = m.experts[0].blocks[0].attn.tied
    q1, k1, _ = B.tied_head_projections(r_list[0], tied, d)
    q2, k2, _ = B.tied_head_projections(r_list[1], tied, d)
    qf = np.concatenate([q1.data, q2.data]).reshape(-1, d)
    kf = np.concatenate([k1.data, k2.data]).reshape(-1, d)
    logits = qf @ kf.T
    for qi in range(3 * P):
        patch, own = qi % P, qi // P
        spsh = logits[qi, own * P + patch]
        for other in range(3):
            if other != own:
                assert abs(spsh - logits[qi, other * P + patch]) < 1e-12


def test_sta_both_runs_unmasked_and_equals_the_masked_path(monkeypatch):
    """``both`` enables every (query, key) pair, so its joint attention skips
    the mask; logits, attention weights and gradients equal the masked run's."""
    cfg = small_cfg(strategy="sta", sta_variant="both")
    m = build_model(cfg, heads=(2, 1, 1), classes=(3, 2, 2), seed=8)
    for _, t in m.named_parameters():
        t.requires_grad = True
    img = _image_batch(cfg, 40)

    def run():
        res, _, grads = _loss_and_grads(m, img, None)
        with T.no_grad():
            attn = m.forward(img, collect_attn=True).spatial_attn
        return res, attn, grads

    got = run()
    masks = []
    readout = T.attention_readout

    def masked_readout(r, q, k, v, fuse_w, fuse_b, head_dim, mask=None):
        if mask is None and len(q.shape) == len(r.shape):   # flattened sta queries
            p = r.shape[-2]
            heads, pool = q.shape[-2] // p, k.shape[-2] // p
            mask = E.sta_group_mask(heads, pool - heads, pool, p, "both")
            masks.append(mask)
        return readout(r, q, k, v, fuse_w, fuse_b, head_dim, mask)

    monkeypatch.setattr(T, "attention_readout", masked_readout)
    want = run()
    assert len(masks) == 2 * cfg.layers * len(m.experts)
    assert all(mask.all() for mask in masks)
    _assert_same_outputs(got[0], want[0])
    for got_layer, want_layer in zip(got[1], want[1], strict=True):
        for a, b in zip(got_layer, want_layer, strict=True):
            np.testing.assert_array_equal(a, b)
    assert got[2].keys() == want[2].keys()
    assert sum(g is not None for g in got[2].values()) > 0
    for name, g in got[2].items():
        assert (g is None) == (want[2][name] is None), name
        if g is not None:
            np.testing.assert_array_equal(g, want[2][name], err_msg=name)


def test_sta_full_attention_entry_count():
    # H=16, P=64 gives a joint matrix of (HP)^2 entries; the cross-patch
    # cross-head block dominates.
    H, P = 16, 64
    mask = E.sta_group_mask(H, 0, H, P, "both")
    assert mask.size == 1_048_576
    q_heads = np.arange(H * P) // P
    q_patch = np.arange(H * P) % P
    same_head = q_heads[:, None] == q_heads[None, :]
    same_patch = q_patch[:, None] == q_patch[None, :]
    dpdh = (~same_head & ~same_patch).sum()
    assert dpdh == 967_680


# --------------------------------------------------------------- TAB

def test_tab_attention_uniform_when_keys_identical():
    cfg = small_cfg(strategy="dne", layers=1)
    m = build_model(cfg, heads=(2, 1), classes=(2, 2))
    # all three head tokens identical -> uniform rows
    p = cfg.num_patches
    tokens = np.tile(np.random.default_rng(1).normal(size=(p, 1, cfg.head_dim)), (1, 3, 1))
    parts = [T.normalize(T.Tensor(tokens[:, :2])), T.normalize(T.Tensor(tokens[:, 2:]))]
    _, attn = E.task_attention(parts, 1, m.experts[1].blocks[0].fc1)
    np.testing.assert_allclose(attn, 1 / 3, atol=1e-12)


def test_tab_attention_single_head_single_task():
    cfg = small_cfg(strategy="dne", layers=1)
    m = build_model(cfg, heads=(1,), classes=(2,))
    img = rand_image(cfg, 3)
    attn = m.forward(img, collect_attn=True).tab_attn[0][0][0]
    np.testing.assert_array_equal(attn, np.ones((cfg.num_patches, 1, 1)))


def normed(a, dh):
    """Two-pass normalisation of each dh-wide head token of (P, D*H)
    features: the (P, H, dh) tokens a TA stage reads."""
    toks = a.reshape(a.shape[0], -1, dh)
    mu = toks.mean(axis=-1, keepdims=True)
    return (toks - mu) / np.sqrt(((toks - mu) ** 2).mean(axis=-1, keepdims=True) + 1e-5)


def tab_scalar_oracle(model, s1, s2, layer=0):
    """Straight-line scalar computation of both TA applications for t=2,
    H_1=H_2=1: explicit dot products, softmax, weighted sums."""
    cfg = model.cfg
    d, g = cfg.head_dim, cfg.gamma
    P = s1.shape[0]

    def ln(vec, gain, bias):
        mu = vec.mean()
        var = ((vec - mu) ** 2).mean()
        return (vec - mu) / math.sqrt(var + 1e-5) * gain + bias

    def stage(tokens_per_head, st, n_query, dout):
        # tokens_per_head: list over pool heads of (P, din)
        H = len(tokens_per_head)
        outs = np.zeros((P, n_query, dout))
        attn = np.zeros((P, n_query, H))
        wv = np.concatenate([w.data for w in st.wv], axis=0)
        for p in range(P):
            normed = [ln(tok[p], st.ln_gain.data, st.ln_bias.data)
                      for tok in tokens_per_head]
            keys = [n @ st.wk.data for n in normed]
            vals = [normed[j] @ wv[j] for j in range(H)]
            for i in range(n_query):
                qvec = normed[H - n_query + i] @ st.wq.data
                scores = np.array([qvec @ kj for kj in keys]) / math.sqrt(d)
                scores -= scores.max()
                w = np.exp(scores)
                w /= w.sum()
                acc = np.zeros(dout)
                for j in range(H):
                    acc += w[j] * vals[j]
                outs[p, i] = st.lam.data[i] * acc
                attn[p, i] = w
        return outs, attn

    gelu = lambda x: x * 0.5 * (1 + erf(x / math.sqrt(2)))
    new_blk, old_blk = model.experts[1].blocks[layer], model.experts[0].blocks[layer]
    o_new, _ = stage([s1, s2], new_blk.fc1, 1, g * d)
    o2 = gelu(o_new[:, 0, :])

    # frozen task-1 intermediate from its own (single-head) TAB
    o_old_raw, _ = stage([s1], old_blk.fc1, 1, g * d)
    o1 = gelu(o_old_raw[:, 0, :])

    upd, _ = stage([o1, o2], new_blk.fc2, 1, d)
    return o2, s2 + upd[:, 0, :]


def test_tab_forward_matches_scalar_oracle():
    cfg = small_cfg(strategy="dne", layers=1, head_dim=4, gamma=2)
    m = build_model(cfg, heads=(1, 1), classes=(2, 2), seed=11)
    rng = np.random.default_rng(12)
    P = cfg.num_patches
    s1 = rng.normal(size=(P, cfg.head_dim))
    s2 = rng.normal(size=(P, cfg.head_dim))

    reads = {}
    E.tab_forward(T.Tensor(s1), reads, m, 0, 0)
    r2, _ = E.tab_forward(T.Tensor(s2), reads, m, 0, 1)
    (_, n2), (_, o2) = reads["s"], reads["o"]
    want_o2, want_r2 = tab_scalar_oracle(m, s1, s2)
    assert np.abs(n2.data - normed(s2, cfg.head_dim)).max() < TOL.block
    assert np.abs(o2.data - normed(want_o2, cfg.gamma * cfg.head_dim)).max() < TOL.block
    assert np.abs(r2.data - want_r2).max() < TOL.block


def test_tab_lambda_zero_kills_intermediate():
    cfg = small_cfg(strategy="dne", layers=1)
    m = build_model(cfg, heads=(1, 1), classes=(2, 2))
    m.experts[1].blocks[0].fc1.lam.data[...] = 0.0
    rng = np.random.default_rng(13)
    P = cfg.num_patches
    reads = {}
    for t in range(2):
        E.tab_forward(T.Tensor(rng.normal(size=(P, 4))), reads, m, 0, t)
    np.testing.assert_array_equal(reads["o"][1].data, 0.0)   # GELU(0) = 0, normalised to 0


def generalized_mlp_reference(model, s_arrays, o_prior_arrays, layer, task):
    """All-ones-attention reference: project every visible head with its
    value matrix, sum, then GELU (first stage) / residual add (second)."""
    cfg = model.cfg
    d, g = cfg.head_dim, cfg.gamma
    P = s_arrays[0].shape[0]
    h_t = model.experts[task].heads

    def ln_tokens(arrays, dh, gain, bias):
        toks = np.concatenate([a.reshape(P, -1, dh) for a in arrays], axis=1)
        mu = toks.mean(axis=-1, keepdims=True)
        var = ((toks - mu) ** 2).mean(axis=-1, keepdims=True)
        return (toks - mu) / np.sqrt(var + 1e-5) * gain + bias

    gelu = lambda x: x * 0.5 * (1 + erf(x / math.sqrt(2)))

    blk = model.experts[task].blocks[layer]
    v1, v2 = blk.fc1, blk.fc2
    toks = ln_tokens(s_arrays, d, v1.ln_gain.data, v1.ln_bias.data)
    wv1 = np.concatenate([w.data for w in v1.wv], axis=0)
    summed = np.einsum("phd,hde->pe", toks, wv1)
    o = gelu(np.tile(summed[:, None, :], (1, h_t, 1)) * v1.lam.data[None, :, None])
    o_flat = o.reshape(P, -1)

    toks2 = ln_tokens(o_prior_arrays + [o_flat], g * d, v2.ln_gain.data, v2.ln_bias.data)
    wv2 = np.concatenate([w.data for w in v2.wv], axis=0)
    summed2 = np.einsum("phd,hde->pe", toks2, wv2)
    upd = np.tile(summed2[:, None, :], (1, h_t, 1)) * v2.lam.data[None, :, None]
    return o_flat, s_arrays[task] + upd.reshape(P, -1)


def test_tab_all_ones_attention_equals_generalized_mlp(monkeypatch):
    cfg = small_cfg(strategy="dne", layers=1, head_dim=4, gamma=2)
    m = build_model(cfg, heads=(2, 1), classes=(2, 2), seed=21)
    for stage in ("fc1", "fc2"):
        for t in range(2):
            blk = m.experts[t].blocks[0]
            getattr(blk, stage).lam.data[...] = 1.0
    rng = np.random.default_rng(22)
    P = cfg.num_patches
    s1 = rng.normal(size=(P, 8))
    s2 = rng.normal(size=(P, 4))
    monkeypatch.setattr(T, "_softmax", lambda scores, scale, mask, op: np.ones(scores.shape))
    reads = {}
    r1, _ = E.tab_forward(T.Tensor(s1), reads, m, 0, 0)
    r2, _ = E.tab_forward(T.Tensor(s2), reads, m, 0, 1)
    o1, o2 = reads["o"]

    want_o1, want_r1 = generalized_mlp_reference(m, [s1], [], 0, 0)
    want_o2, want_r2 = generalized_mlp_reference(m, [s1, s2], [want_o1], 0, 1)
    dp = cfg.gamma * cfg.head_dim
    assert np.abs(o1.data - normed(want_o1, dp)).max() < TOL.mlp_reduction
    assert np.abs(r1.data - want_r1).max() < TOL.mlp_reduction
    assert np.abs(o2.data - normed(want_o2, dp)).max() < TOL.mlp_reduction
    assert np.abs(r2.data - want_r2).max() < TOL.mlp_reduction


def test_tab_attention_rows_shape_and_sum():
    cfg = small_cfg(strategy="dne")
    m = build_model(cfg, heads=(2, 1), classes=(2, 2))
    img = rand_image(cfg, 15)
    res = m.forward(img, collect_attn=True)
    for layer_pairs in res.tab_attn:
        for t, pair in enumerate(layer_pairs):
            a1, a2 = pair
            h_t = m.experts[t].heads
            pool = sum(m.heads_per_task[: t + 1])
            assert a1.shape == (cfg.num_patches, h_t, pool)
            np.testing.assert_allclose(a1.sum(axis=-1), 1.0, atol=TOL.row_sum)
            np.testing.assert_allclose(a2.sum(axis=-1), 1.0, atol=TOL.row_sum)


def _composed_stage(x, n_query, stage):
    """A TA stage after its layer norm, composed of single ops."""
    *lead, p, h_pool, din = x.shape
    attn_dim = stage.wq.shape[-1]
    flat = T.reshape(x, (*lead, p * h_pool, din))
    k = T.reshape(T.matmul(flat, stage.wk), (*lead, p, h_pool, attn_dim))
    qtok = O.narrow(x, -2, h_pool - n_query, n_query)
    q = T.reshape(T.matmul(T.reshape(qtok, (*lead, p * n_query, din)), stage.wq),
                  (*lead, p, n_query, attn_dim))
    attn = O.softmax_rows(T.matmul(q, T.swap_axes(k, -1, -2)), math.sqrt(attn_dim))
    wv = stage.wv[0] if len(stage.wv) == 1 else T.concat(stage.wv, axis=0)
    v = T.swap_axes(T.matmul(T.swap_axes(x, -3, -2), wv), -3, -2)
    out = T.mul(T.matmul(attn, v), T.reshape(stage.lam, (1, n_query, 1)))
    return out, attn.data


def layer_norm_task_attention(tokens, n_query, stage):
    """The TA stage as one ``T.layer_norm`` over the joined raw pool: the
    reference that per-expert ``T.normalize`` plus the fused stage must
    reproduce bit for bit."""
    return _composed_stage(T.layer_norm(tokens, stage.ln_gain, stage.ln_bias), n_query, stage)


def composed_task_attention(parts, n_query, stage):
    """``E.task_attention`` composed of single ops on the normalised parts,
    its layer-norm gain and bias as ``mul`` and ``add``: the oracle the
    fused ``T.task_attention`` equals bit for bit."""
    pool = parts[0] if len(parts) == 1 else T.concat(parts, axis=-2)
    return _composed_stage(T.add(T.mul(pool, stage.ln_gain), stage.ln_bias), n_query, stage)


@pytest.mark.parametrize("stage_name", ["fc1", "fc2"])
@pytest.mark.parametrize("share", ["s", "f"])
def test_task_attention_on_normalised_parts_equals_one_layer_norm_over_the_pool(share,
                                                                                stage_name):
    """Outputs, weights and every gradient, bit for bit: for a batched
    three-expert pool, expert 0's own pool (every head queries), an
    unbatched pool, and a pool whose older part requires a gradient too."""
    cfg = small_cfg(share_q=share, share_k=share, share_v=share)
    m = build_model(cfg, heads=(2, 1, 2), classes=(2, 2, 2), seed=31)
    m0 = build_model(cfg, heads=(2,), classes=(2,), seed=33)
    rng = np.random.default_rng(32)
    cases = [(m, (2,), (False, False, True)), (m0, (2,), (True,)),
             (m, (), (False, False, True)), (m, (2,), (False, True, True))]
    for model, lead, needs in cases:
        stage = getattr(model.experts[-1].blocks[0], stage_name)
        n_query = model.experts[-1].heads
        din = stage.ln_gain.shape[0]
        raw = [rng.normal(size=(*lead, cfg.num_patches, h, din)) for h in model.heads_per_task]
        probe = rng.normal(size=(*lead, cfg.num_patches, n_query, stage.wv[-1].shape[-1]))
        params = [stage.ln_gain, stage.ln_bias, stage.wq, stage.wk, *stage.wv, stage.lam]

        def run(joined: bool):
            for p in params:
                p.grad = None
            toks = [T.Tensor(a, requires_grad=n) for a, n in zip(raw, needs)]
            if joined:
                out, attn = layer_norm_task_attention(T.concat(toks, axis=-2), n_query, stage)
            else:
                out, attn = E.task_attention([T.normalize(t) for t in toks], n_query, stage)
            T.backward(T.sum_all(T.mul(out, T.Tensor(probe))))
            return [out.data, attn] + [t.grad for t in toks] + [p.grad for p in params]

        got, want = run(False), run(True)
        assert stage.ln_gain.requires_grad and stage.lam.requires_grad
        assert stage.wq.requires_grad == (share == "f" or model is m0)
        for g, w in zip(got, want, strict=True):
            if w is None:
                assert g is None
            else:
                np.testing.assert_array_equal(g, w)


def test_each_ta_stage_is_one_graph_node():
    """A TA stage's node reads the normalised parts and the stage's
    parameters directly: no concat or matmul node between them."""
    cfg = small_cfg(cta_in_mhsa=True)
    m = build_model(cfg, heads=(2, 1), classes=(2, 2))
    for _, p in m.named_parameters():
        p.requires_grad = True
    res = m.forward(_image_batch(cfg, 61))
    nodes = T.topo_order(T.sum_all(res.logits))
    stages = [n for n in nodes if n.op == "task_attention"]
    assert len(stages) == m.task_count * cfg.layers * 5     # q, k, v, fc1, fc2
    for node in stages:
        ops = [p.op for p in node.parents]
        n_parts = ops.count("normalize")
        assert 0 < n_parts and ops == ["normalize"] * n_parts + ["leaf"] * (len(ops) - n_parts)


def test_task_attention_rejects_mismatched_shapes():
    cfg = small_cfg()
    stage = build_model(cfg, heads=(2, 1), classes=(2, 2)).experts[-1].blocks[0].fc1
    parts = [T.Tensor(np.zeros((4, 2, 4))), T.Tensor(np.zeros((4, 1, 4)))]
    for n_query in (0, 4):
        with pytest.raises(T.ShapeError):
            E.task_attention(parts, n_query, stage)
    with pytest.raises(T.ShapeError):
        E.task_attention([T.Tensor(np.zeros((4, 3, 5)))], 1, stage)
    with pytest.raises(T.ShapeError):
        E.task_attention(parts[1:], 1, stage)     # the pool has fewer heads than wv


@pytest.mark.parametrize("grown", ["parts", "wv"])
def test_task_attention_backward_keeps_the_lists_of_its_call(grown):
    """Appending to the caller's list of parts or value stacks after the
    call changes no gradient."""
    cfg = small_cfg()
    m = build_model(cfg, heads=(2, 1), classes=(2, 2))
    for _, p in m.named_parameters():
        p.requires_grad = True
    stage = m.experts[-1].blocks[0].fc1
    params = [stage.ln_gain, stage.ln_bias, stage.wq, stage.wk, *stage.wv, stage.lam]
    rng = np.random.default_rng(65)
    raw = [rng.normal(size=(2, cfg.num_patches, h, cfg.head_dim)) for h in (2, 1)]
    probe = T.Tensor(rng.normal(size=(2, cfg.num_patches, 1, cfg.gamma * cfg.head_dim)))

    def grads(append: bool):
        for p in params:
            p.grad = None
        lists = {"parts": [T.Tensor(a, requires_grad=True) for a in raw], "wv": list(stage.wv)}
        parts = list(lists["parts"])
        out, _ = T.task_attention(lists["parts"], 1, stage.ln_gain, stage.ln_bias, stage.wq,
                                  stage.wk, lists["wv"], stage.lam)
        if append:
            lists[grown].append(lists[grown][-1])
        T.backward(T.sum_all(T.mul(out, probe)))
        return [t.grad for t in parts + params]

    for got, want in zip(grads(True), grads(False), strict=True):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("kw, stage, key", [
    pytest.param({}, "mix", "s", id="tab_fc1"),
    pytest.param({"cta_in_fc1": False}, "mix", "o", id="tab_fc2"),
    pytest.param({"cta_in_mhsa": True}, "attn", "a", id="cta_in_mhsa"),
    pytest.param({"strategy": "sta"}, "attn", "k", id="sta_keys"),
    pytest.param({"strategy": "sta"}, "attn", "v", id="sta_values"),
])
@pytest.mark.parametrize("held", [0, 2])
def test_cross_task_stage_rejects_reads_of_the_wrong_length(kw, stage, key, held):
    """Expert 1's stage needs exactly expert 0's entry under each key it reads."""
    cfg = small_cfg(**kw)
    m = build_model(cfg, heads=(2, 1), classes=(2, 2))
    img = rand_image(cfg, 64)
    res, layers = m.forward(img), O.layer_activations(m, img)
    reads = {k: items[:1] for k, items in res.reads[0].items()}
    reads[key] = res.reads[0][key][:1] * held
    message = f"^'{key}' reads of task 1 hold {held} entries, need 1$"
    with pytest.raises(T.ContractError, match=message):
        if stage == "attn":
            E.cross_task_mhsa(m, 0, 1, layers.r[0][1], reads)
        else:
            E.tab_forward(layers.s[0][1], reads, m, 0, 1)


def _stream_checkpoint(overrides) -> bytes:
    """The checkpoint of a seeded 3-task training run of ``small_cfg(**overrides)``."""
    rng = np.random.default_rng(62)

    def samples(label, n):
        return [C.Sample(rng.random((3, 8, 8)), label) for _ in range(n)]

    tasks = [C.Task((2 * i, 2 * i + 1), samples(2 * i, 4) + samples(2 * i + 1, 4),
                    samples(2 * i, 2) + samples(2 * i + 1, 2)) for i in range(3)]
    tc = cli.RunConfig(epochs=2, tune_epochs=1, lr=0.05, batch_size=5,
                       h1=2, k=1).train_config()
    model, _ = C.run_stream(small_cfg(**overrides), C.TaskStream(tasks), tc, seed=5,
                            buffer_capacity=6)
    return E.checkpoint_bytes(model)


@pytest.mark.parametrize("overrides",
                         [{}, {"cta_in_mhsa": True}, {"share_q": "f", "share_v": "s"}],
                         ids=["dne", "cta_in_mhsa", "share_q_f_v_s"])
def test_fused_task_attention_writes_the_composed_ops_checkpoint(overrides, monkeypatch):
    """A whole training run, bit for bit: SGD on the fused stage's gradients
    writes the checkpoint of SGD on the composed ops' gradients."""
    fused = _stream_checkpoint(overrides)
    monkeypatch.setattr(E, "task_attention", composed_task_attention)
    assert _stream_checkpoint(overrides) == fused


@pytest.mark.parametrize("overrides",
                         [{}, {"strategy": "ia"}, {"strategy": "sta"}, {"cta_in_mhsa": True},
                          {"share_q": "f", "share_v": "s"}],
                         ids=["dne", "ia", "sta", "cta_in_mhsa", "share_q_f_v_s"])
def test_fused_attention_writes_the_composed_ops_checkpoint(overrides, monkeypatch):
    """The same for every MHSA block, token read-out and projected read-out:
    ``T.attention_block`` and ``T.attention_readout`` against their
    compositions in ``oracles``."""
    fused = _stream_checkpoint(overrides)
    monkeypatch.setattr(T, "attention_block", O.attention_block)
    monkeypatch.setattr(T, "attention_readout", O.attention_readout)
    assert _stream_checkpoint(overrides) == fused


@pytest.mark.parametrize("strategy", ["dne", "ia", "sta"])
def test_each_attention_block_and_readout_is_one_graph_node(strategy):
    """Every MHSA block and every task token's read-out is one
    ``attention_block`` node reading its inputs and its parameters directly;
    the joint attention's read-out is one ``attention_readout`` node."""
    cfg = small_cfg(strategy=strategy)
    m = build_model(cfg, heads=(2, 1), classes=(2, 2))
    for _, p in m.named_parameters():
        p.requires_grad = True
    nodes = T.topo_order(T.sum_all(m.forward(_image_batch(cfg, 63)).logits))
    blocks = [n for n in nodes if n.op == "attention_block"]
    readouts = [n for n in nodes if n.op == "attention_readout"]
    spatial = m.task_count * cfg.layers
    assert len(blocks) == m.task_count + (0 if strategy == "sta" else spatial)
    assert len(readouts) == (spatial if strategy == "sta" else 0)
    tokens = [ex.token for ex in m.experts]
    for node in blocks:
        xq, xkv, *params = node.parents
        assert xq is xkv or any(xq is t for t in tokens)
        assert xkv.op != "leaf" and {p.op for p in params} == {"leaf"}
    ops = {n.op for n in nodes}
    assert "softmax_rows" not in ops
    assert ("swap_axes" in ops) == (strategy == "sta")      # sta's tied projections
    assert ("layer_norm" in ops) == (strategy != "dne")     # and the MLP stages' norms


def test_forward_normalises_each_experts_ta_inputs_once(monkeypatch):
    cfg = small_cfg()
    m = build_model(cfg, heads=(2, 1, 1, 1), classes=(2, 2, 2, 2))
    normalize = T.normalize
    calls = []

    def counting(x, *args):
        calls.append(x.shape[-1])
        return normalize(x, *args)

    monkeypatch.setattr(T, "normalize", counting)
    img = _image_batch(cfg, 60)
    res = m.forward(img)
    d, dp = cfg.head_dim, cfg.gamma * cfg.head_dim
    assert sorted(calls) == [d] * 4 * cfg.layers + [dp] * 4 * cfg.layers
    for n in (1, 2, 3):
        calls.clear()
        m.forward(img, frozen=E.freeze_outputs(res, n))
        assert sorted(calls) == [d] * (4 - n) * cfg.layers + [dp] * (4 - n) * cfg.layers


def test_cta_in_mhsa_prefix_keeps_normalised_block_inputs(monkeypatch):
    """A forward from the prefix normalises no frozen block input: the
    prefix holds them as the normalised head tokens, in the bytes of the
    raw inputs."""
    cfg = small_cfg(cta_in_mhsa=True)
    m = build_model(cfg, heads=(2, 1, 1), classes=(2, 2, 2))
    img = _image_batch(cfg, 70)
    prefix = E.freeze_outputs(m.forward(img), 2)
    layers = O.layer_activations(m, img)
    for l in range(cfg.layers):
        for t, kept in enumerate(prefix.reads[l]["a"]):
            raw = layers.r[l][t].data
            want = T.normalize(T.Tensor(raw.reshape(*raw.shape[:-1], -1, cfg.head_dim)))
            np.testing.assert_array_equal(kept.data, want.data)
            assert kept.data.nbytes == raw.nbytes
    normalize = T.normalize
    constant = []

    def counting(x, *args):
        constant.append(not x.requires_grad)
        return normalize(x, *args)

    monkeypatch.setattr(T, "normalize", counting)
    m.forward(img, frozen=prefix)
    assert len(constant) == 5 * cfg.layers and not any(constant)    # q, k, v, fc1, fc2


# --------------------------------------------------------------- cross-task MHSA
# --------------------------------------------------------------- cross-task MHSA

def test_cross_task_mhsa_single_task_equals_backbone_block():
    cfg = small_cfg(strategy="dne")
    m = build_model(cfg, heads=(2,), classes=(3,))
    rng = np.random.default_rng(16)
    r = T.Tensor(rng.normal(size=(cfg.num_patches, 8)))
    s, _ = E.cross_task_mhsa(m, 0, 0, r, {})
    want, _ = B.mhsa_block(r, m.experts[0].blocks[0].attn, cfg.head_dim)
    np.testing.assert_array_equal(s.data, want.data)


def test_cross_task_mhsa_zero_fusion_is_residual():
    cfg = small_cfg(strategy="dne")
    m = build_model(cfg, heads=(2, 1), classes=(2, 2))
    for ex in m.experts:
        ex.blocks[0].attn.fuse_w.data[...] = 0.0
        ex.blocks[0].attn.fuse_b.data[...] = 0.0
    rng = np.random.default_rng(17)
    r_list = [T.Tensor(rng.normal(size=(cfg.num_patches, 8))),
              T.Tensor(rng.normal(size=(cfg.num_patches, 4)))]
    for t, r in enumerate(r_list):
        s, _ = E.cross_task_mhsa(m, 0, t, r, {})
        np.testing.assert_array_equal(s.data, r.data)


# --------------------------------------------------------------- token head

def test_logit_width_tracks_class_totals():
    cfg = small_cfg(strategy="dne")
    m = E.CilModel(cfg, seed=1)
    m.add_expert(2, 50)
    m.add_expert(1, 10)
    res = m.forward(rand_image(cfg, 18))
    assert res.logits.shape == (60,)


def test_aux_width_is_new_classes_plus_one():
    cfg = small_cfg(strategy="dne")
    m = E.CilModel(cfg, seed=2)
    m.add_expert(2, 4)
    m.add_expert(1, 10)
    res = m.forward(rand_image(cfg, 19))
    assert res.aux_logits.shape == (11,)


def test_dne_feature_width_law():
    cfg = small_cfg(strategy="dne")
    m = build_model(cfg, heads=(2, 1, 1), classes=(2, 2, 2))
    for per_layer in O.layer_activations(m, rand_image(cfg, 20)).r:
        assert sum(f.shape[1] for f in per_layer) == cfg.head_dim * 4


# --------------------------------------------------------------- freezing

def test_frozen_old_outputs_survive_training_steps():
    cfg = small_cfg(strategy="dne")
    m = build_model(cfg, heads=(2, 1), classes=(2, 2))
    img = rand_image(cfg, 23)

    def snapshot():
        with T.no_grad():
            res = m.forward(img)
            return ([r.data.copy() for layer in O.layer_activations(m, img).r for r in layer[:1]],
                    [layer["o"][0].data.copy() for layer in res.reads],
                    res.token_feats[0].data.copy(),
                    res.logits.data[:2].copy())

    before = snapshot()
    opt = T.SGD(m.trainable_parameters(), lr=0.05, weight_decay=0.0, momentum=0.0)
    for step in range(3):
        res = m.forward(img)
        loss = T.cross_entropy_logits(res.logits, 3)
        opt.zero_grad()
        T.backward(loss)
        opt.step()
    after = snapshot()
    for a, b in zip(before[0], after[0]):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(before[1], after[1]):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(before[2], after[2])
    np.testing.assert_array_equal(before[3], after[3])


def test_gradients_never_reach_frozen_params():
    cfg = small_cfg(strategy="dne")
    m = build_model(cfg, heads=(2, 1), classes=(2, 2))
    res = m.forward(rand_image(cfg, 24))
    T.backward(T.cross_entropy_logits(res.logits, 2))
    for name, t in m.named_parameters():
        if not t.requires_grad:
            assert t.grad is None, name


def test_sharing_modes_control_ownership():
    cfg_s = small_cfg(strategy="dne", share_q="s", share_k="s", share_v="f")
    m = build_model(cfg_s, heads=(2, 1), classes=(2, 2))
    names = dict(m.named_parameters())
    assert "task1.blk0.fc1.wq" not in names and "task1.blk0.fc1.wk" not in names
    st = m.experts[1].blocks[0].fc1
    assert len(st.wv) == 1 and st.wv[0].shape[0] == 3   # flexible: one matrix per visible head
    assert names["task1.blk0.fc1.wv"] is st.wv[0]

    cfg_f = small_cfg(strategy="dne", share_q="f", share_k="f", share_v="s")
    m2 = build_model(cfg_f, heads=(2, 1, 1), classes=(2, 2, 2))
    names2 = dict(m2.named_parameters())
    st0, st1, st2 = (ex.blocks[0].fc1 for ex in m2.experts)
    assert names2["task1.blk0.fc1.wq"] is st1.wq and names2["task1.blk0.fc1.wk"] is st1.wk
    assert st1.wq is not st0.wq
    # shared values: each older expert's own stack, then only its own heads' matrices
    assert [w.shape[0] for w in st2.wv] == [2, 1, 1]
    assert st2.wv[0] is st0.wv[0] and st2.wv[1] is st1.wv[1]
    assert names2["task2.blk0.fc1.wv"] is st2.wv[2]


def test_shared_qk_are_task0_matrices():
    cfg = small_cfg(strategy="dne", share_q="s", share_k="s")
    m = build_model(cfg, heads=(2, 1), classes=(2, 2))
    assert m.experts[1].blocks[0].fc1.wq is m.experts[0].blocks[0].fc1.wq
    assert m.experts[1].blocks[0].fc1.wk is m.experts[0].blocks[0].fc1.wk


# --------------------------------------------------------------- cta_in_mhsa

def test_cta_in_mhsa_forward_shapes():
    cfg = small_cfg(strategy="dne", cta_in_mhsa=True)
    m = build_model(cfg, heads=(2, 1), classes=(2, 2))
    res = m.forward(rand_image(cfg, 25))
    assert res.logits.shape == (4,)
    assert isinstance(m.experts[0].blocks[0].attn, E.CtaAttentionParams)


# --------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip_bit_exact():
    cfg = small_cfg(strategy="dne")
    m = build_model(cfg, heads=(2, 1), classes=(3, 2), seed=5)
    img = rand_image(cfg, 26)
    want = O.eval_logits(m, img)
    clone = E.clone_model(m)
    got = O.eval_logits(clone, img)
    np.testing.assert_array_equal(got, want)
    for (n1, t1), (n2, t2) in zip(m.named_parameters(), clone.named_parameters()):
        assert n1 == n2
        np.testing.assert_array_equal(t1.data, t2.data)


def test_model_config_stores_cta_layers_as_bools_through_checkpoints():
    cfg = small_cfg(cta_layers=[1, 0])
    assert cfg.cta_layers == cfg.cta_mask() == (True, False)
    assert small_cfg().cta_mask() == (True, True)
    raw = E.checkpoint_bytes(build_model(cfg, heads=(1,), classes=(2,)))
    (hlen,) = struct.unpack("<I", raw[1:5])
    assert json.loads(raw[5:5 + hlen])["config"]["cta_layers"] == [True, False]
    assert E.model_from_bytes(raw).cfg == cfg
    for bad in BAD_CTA_LAYERS.values():
        with pytest.raises(ConfigError, match="cta_layers"):
            small_cfg(cta_layers=tuple(bad))


def test_checkpoint_file_round_trip(tmp_path):
    cfg = small_cfg(strategy="sta")
    m = build_model(cfg, heads=(2, 1), classes=(3, 2), seed=6)
    path = tmp_path / "model.ckpt"
    E.save_checkpoint(m, path)
    raw = path.read_bytes()
    assert raw[0] == E.CKPT_VERSION
    loaded = E.load_checkpoint(path)
    img = rand_image(cfg, 27)
    np.testing.assert_array_equal(O.eval_logits(loaded, img), O.eval_logits(m, img))


def test_checkpoint_truncation_detected(tmp_path):
    cfg = small_cfg()
    m = build_model(cfg, heads=(1,), classes=(2,))
    path = tmp_path / "model.ckpt"
    E.save_checkpoint(m, path)
    raw = path.read_bytes()
    (tmp_path / "bad.ckpt").write_bytes(raw[:-8])
    with pytest.raises(E.CheckpointError):
        E.load_checkpoint(tmp_path / "bad.ckpt")


def _rewrite_header(raw: bytes, edit) -> bytes:
    """Re-encode a checkpoint after ``edit(header, blobs) -> (header, blobs)``."""
    (hlen,) = struct.unpack("<I", raw[1:5])
    header, blobs = edit(json.loads(raw[5:5 + hlen]), raw[5 + hlen:])
    hj = json.dumps(header).encode("utf-8")
    return raw[:1] + struct.pack("<I", len(hj)) + hj + blobs


def _drop_last_param(header, blobs):
    last = header["params"].pop()
    return header, blobs[: len(blobs) - 8 * int(np.prod(last["shape"]))]


def _repeat_first_param(header, blobs):
    first = header["params"][0]
    header["params"].append(first)
    return header, blobs + blobs[: 8 * int(np.prod(first["shape"]))]


def _config_field(name, value):
    def edit(header, blobs):
        header["config"][name] = value
        return header, blobs
    return edit


BAD_CTA_LAYERS = {"str": ["0", "0"], "int_2": [2, 0], "none": [None, True]}
"""Masks whose entries are neither bools nor the ints 0 and 1."""


def _drop_config(header, blobs):
    del header["config"]
    return header, blobs


def _name_first_param(name):
    def edit(header, blobs):
        header["params"][0]["name"] = name
        return header, blobs
    return edit


_NESTED = b"[" * 1000 + b"]" * 1000
"""A header nested deeper than ``json`` decodes; 500 levels decode."""


CORRUPTIONS = {
    "empty_params": lambda raw: _rewrite_header(raw, lambda h, b: ({**h, "params": []}, b"")),
    "partial_params": lambda raw: _rewrite_header(raw, _drop_last_param),
    "duplicate_param": lambda raw: _rewrite_header(raw, _repeat_first_param),
    "truncated_length_field": lambda raw: raw[:3],
    "missing_config": lambda raw: _rewrite_header(raw, _drop_config),
    "unknown_config_field": lambda raw: _rewrite_header(raw, _config_field("bogus", 1)),
    "header_not_a_dict": lambda raw: _rewrite_header(raw, lambda h, b: ([h], b)),
    "header_nested_1000": lambda raw: raw[:1] + struct.pack("<I", len(_NESTED)) + _NESTED,
    "param_name_a_list": lambda raw: _rewrite_header(raw, _name_first_param([1])),
    "cta_layers_not_iterable": lambda raw: _rewrite_header(raw, _config_field("cta_layers", 1)),
    **{f"cta_layers_{k}": lambda raw, v=v: _rewrite_header(raw, _config_field("cta_layers", v[:1]))
       for k, v in BAD_CTA_LAYERS.items()},
    # values equal to the model's own under ==, but of another type
    "layers_bool": lambda raw: _rewrite_header(raw, _config_field("layers", True)),
    "gamma_float": lambda raw: _rewrite_header(raw, _config_field("gamma", 2.0)),
    "cta_in_fc1_int": lambda raw: _rewrite_header(raw, _config_field("cta_in_fc1", 1)),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_checkpoint_loader_rejects_malformed_input(case):
    """On a 1-layer model with gamma 2, so a mistyped value equals the true one."""
    m = build_model(small_cfg(layers=1), heads=(2, 1), classes=(2, 2))
    raw = E.checkpoint_bytes(m)
    E.model_from_bytes(raw)
    with pytest.raises(E.CheckpointError):
        E.model_from_bytes(CORRUPTIONS[case](raw))


def _set_blob_value(raw: bytearray, index: int, value: float) -> str:
    """Write ``value`` as the first entry of parameter ``index``'s blob;
    returns that parameter's name."""
    (hlen,) = struct.unpack("<I", raw[1:5])
    params = json.loads(raw[5:5 + hlen])["params"]
    at = 5 + hlen + 8 * sum(math.prod(p["shape"]) for p in params[:index])
    raw[at:at + 8] = struct.pack("<d", value)
    return params[index]["name"]


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_checkpoint_loader_rejects_a_nonfinite_parameter_naming_it(value):
    """A bad first or last parameter is named; of two, the first stored."""
    m = build_model(small_cfg(), heads=(2, 1), classes=(2, 2))
    clean = E.checkpoint_bytes(m)
    count = len(m.named_parameters())
    for bad in ([0], [count - 1], [count - 2, 3]):
        raw = bytearray(clean)
        names = {i: _set_blob_value(raw, i, value) for i in bad}
        with pytest.raises(E.CheckpointError,
                           match=f"parameter '{names[min(bad)]}' holds a non-finite"):
            E.model_from_bytes(bytes(raw))


@pytest.mark.parametrize("strategy", ["dne", "sta", "ia"])
def test_loaded_model_round_trips_and_holds_a_fresh_generator(strategy):
    m = build_model(small_cfg(strategy=strategy), heads=(2, 1, 1), classes=(3, 2, 2), seed=4)
    raw = E.checkpoint_bytes(m)
    loaded = E.model_from_bytes(raw)
    assert E.checkpoint_bytes(loaded) == raw
    assert loaded.rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
    arrays = [t.data for _, t in loaded.named_parameters()]
    raw_view = np.frombuffer(raw, dtype=np.uint8)
    assert not any(np.shares_memory(a, raw_view) for a in arrays)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])


_FUZZ_CKPT = E.checkpoint_bytes(
    build_model(small_cfg(layers=1), heads=(2, 1), classes=(2, 2), seed=7))
_FUZZ_HEADER_END = 5 + struct.unpack("<I", _FUZZ_CKPT[1:5])[0]


@st.composite
def _mutated_checkpoint(draw) -> bytes:
    """The fuzz checkpoint with byte overwrites, bit flips or a truncation;
    half the edits land in the version, length field or JSON header."""
    raw = bytearray(_FUZZ_CKPT)
    kind = draw(st.sampled_from(["overwrite", "flip", "truncate"]))
    if kind == "truncate":
        return bytes(raw[:draw(st.integers(0, len(raw) - 1))])
    where = st.one_of(st.integers(0, _FUZZ_HEADER_END - 1), st.integers(0, len(raw) - 1))
    for i in draw(st.lists(where, min_size=1, max_size=4)):
        if kind == "flip":
            raw[i] ^= 1 << draw(st.integers(0, 7))
        else:
            raw[i] = draw(st.integers(0, 255))
    return bytes(raw)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mutated_checkpoint())
def test_checkpoint_loader_fuzz_raises_or_loads_the_stored_parameters(raw):
    """A mutated checkpoint raises ``CheckpointError`` or loads a model whose
    parameter blobs are the input's and whose own bytes round-trip."""
    try:
        model = E.model_from_bytes(raw)
    except E.CheckpointError:
        return
    out = E.checkpoint_bytes(model)
    hlen_in, hlen_out = (struct.unpack("<I", b[1:5])[0] for b in (raw, out))
    assert out[5 + hlen_out:] == raw[5 + hlen_in:]
    assert E.checkpoint_bytes(E.model_from_bytes(out)) == out


# --------------------------------------------------------------- frozen-expert cache

CACHE_WIRINGS = {
    "dne": dict(strategy="dne"),
    "dne_cta_mhsa": dict(strategy="dne", cta_in_mhsa=True),
    "dne_share_f": dict(strategy="dne", share_q="f", share_k="f"),
    "dne_share_v_s": dict(strategy="dne", share_v="s"),
    "dne_cta_layers_10": dict(strategy="dne", cta_layers=(True, False)),
    **{f"sta_{v}": dict(strategy="sta", sta_variant=v) for v in E.STA_VARIANTS},
    "ia": dict(strategy="ia"),
}


def _loss_and_grads(m, img, frozen):
    """Forward, a loss reading logits and aux logits, backward; grads by name."""
    for t in m.trainable_parameters():
        t.grad = None
    res = m.forward(img, frozen=frozen)
    rng = np.random.default_rng(31)
    loss = T.add(T.sum_all(T.mul(res.logits, T.Tensor(rng.normal(size=res.logits.shape)))),
                 T.sum_all(T.mul(res.aux_logits,
                                 T.Tensor(rng.normal(size=res.aux_logits.shape)))))
    nodes = len(T.topo_order(loss))
    T.backward(loss)
    grads = {n: None if t.grad is None else t.grad.copy() for n, t in m.named_parameters()}
    return res, nodes, grads


def _assert_same_outputs(got, want):
    np.testing.assert_array_equal(got.logits.data, want.logits.data)
    np.testing.assert_array_equal(got.aux_logits.data, want.aux_logits.data)
    assert len(got.token_feats) == len(want.token_feats)
    for a, b in zip(got.token_feats, want.token_feats):
        np.testing.assert_array_equal(a.data, b.data)


def _assert_rows_are_single_forwards(m, images, res):
    """Each image's outputs in a batched result equal its own forward."""
    with T.no_grad():
        for i, img in enumerate(images):
            one = m.forward(img)
            np.testing.assert_array_equal(res.logits.data[i], one.logits.data)
            np.testing.assert_array_equal(res.aux_logits.data[i], one.aux_logits.data)
            for a, b in zip(res.token_feats, one.token_feats):
                np.testing.assert_array_equal(a.data[i], b.data)


def _image_batch(cfg, first):
    return np.stack([rand_image(cfg, first + i) for i in range(3)])


def _assert_gather_reproduces_permuted_forward(m, images, frozen):
    """Rows of ``frozen`` gathered in a permuted order serve the permuted
    batch exactly as its own full forward."""
    order = np.array([2, 0, 1])
    features = frozen.head_only
    gathered = E.freeze_outputs(frozen, len(frozen.token_feats), features=features,
                                rows=order)
    assert gathered.head_only == features
    with T.no_grad():
        _assert_same_outputs(m.forward(images[order], frozen=gathered),
                             m.forward(images[order]))


def _entries(res):
    """How many entries each list of ``res`` holds, by layer and key."""
    return ([{key: len(items) for key, items in layer.items()} for layer in res.reads],
            len(res.token_feats), len(res.logit_parts))


READ_WIRINGS = {**CACHE_WIRINGS, "dne_fc1_off": dict(strategy="dne", cta_in_fc1=False),
                "dne_fc2_off": dict(strategy="dne", cta_in_fc2=False)}


@pytest.mark.parametrize("wiring", sorted(READ_WIRINGS))
def test_reads_hold_what_the_cross_task_stages_read(wiring):
    """Per layer in stage order: normalised block inputs under
    ``cta_in_mhsa``, tied keys and values for sta, and fc1 and fc2 inputs
    where that stage is a TA stage, one entry per expert; nothing for ia or
    an MLP stage.  A prefix cuts every list at n and holds no logits."""
    cfg = small_cfg(**READ_WIRINGS[wiring])
    m = build_model(cfg, heads=(2, 1, 1), classes=(2, 3, 2), seed=3)
    res = m.forward(_image_batch(cfg, 40))
    sta, tabs = cfg.strategy == "sta", [cfg.strategy == "dne" and on for on in cfg.cta_mask()]
    want = [[key for key, on in [("a", cfg.cta_in_mhsa), ("k", sta), ("v", sta),
                                 ("s", tab and cfg.cta_in_fc1), ("o", tab and cfg.cta_in_fc2)]
             if on] for tab in tabs]
    assert [list(layer) for layer in res.reads] == want
    assert _entries(res) == ([dict.fromkeys(keys, 3) for keys in want], 3, 3)
    prefix = E.freeze_outputs(res, 2)
    assert _entries(prefix) == ([dict.fromkeys(keys, 2) for keys in want], 2, 2)
    assert prefix.logits is None and prefix.aux_logits is None and prefix.features == []


@pytest.mark.parametrize("wiring", sorted(CACHE_WIRINGS))
def test_frozen_outputs_reproduce_forward_bit_exactly(wiring):
    """Also for a batch of 3 images, each of which must match its own forward."""
    cfg = small_cfg(**CACHE_WIRINGS[wiring])
    m = build_model(cfg, heads=(2, 1, 1), classes=(2, 3, 2), seed=3)
    for img in (rand_image(cfg, 30), _image_batch(cfg, 40)):
        full, n_full, g_full = _loss_and_grads(m, img, None)
        frozen = E.freeze_outputs(full, 2)
        cached, n_cached, g_cached = _loss_and_grads(m, img, frozen)

        _assert_same_outputs(cached, full)
        assert len(cached.token_feats) == 3
        assert n_cached == n_full
        assert g_cached.keys() == g_full.keys()
        for name, g in g_full.items():
            if g is None:
                assert g_cached[name] is None, name
            else:
                np.testing.assert_array_equal(g_cached[name], g, err_msg=name)
        if img.ndim == 4:
            _assert_rows_are_single_forwards(m, img, full)
            _assert_rows_are_single_forwards(m, img, cached)
            _assert_gather_reproduces_permuted_forward(m, img, frozen)


@pytest.mark.parametrize("wiring", ["dne", "sta_both", "ia"])
def test_frozen_features_run_only_the_newest_token_head(wiring):
    cfg = small_cfg(**CACHE_WIRINGS[wiring])
    m = build_model(cfg, heads=(2, 1, 1), classes=(2, 3, 2), seed=4)
    for img in (rand_image(cfg, 31), _image_batch(cfg, 50)):
        full, _, g_full = _loss_and_grads(m, img, None)
        with T.no_grad():
            prefix = E.freeze_outputs(m.forward(img), 2)
            head_only = E.freeze_outputs(m.forward(img, frozen=prefix), 2, features=True)
        assert _entries(head_only) == _entries(prefix)
        assert [f is not None for f in head_only.features] == [False, False, True]
        cached, _, g_cached = _loss_and_grads(m, img, head_only)

        _assert_same_outputs(cached, full)
        tuned = ("task2.tok_blk", "task2.head", "task2.token", "aux.")
        for name, g in g_full.items():
            if name.startswith(tuned):
                np.testing.assert_array_equal(g_cached[name], g, err_msg=name)
            else:
                assert g_cached[name] is None, name
        if img.ndim == 4:
            _assert_rows_are_single_forwards(m, img, cached)
            _assert_gather_reproduces_permuted_forward(m, img, head_only)
