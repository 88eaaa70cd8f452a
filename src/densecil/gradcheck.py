"""Central-difference gradient verification for every registered op and for
whole two-expert models in each wiring.

The numeric side perturbs raw input arrays and re-runs the forward pass,
so it never touches the backward implementation it is checking.  Outputs
are scalarized through a fixed random weighting to exercise the whole
Jacobian.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import expansion as E
from . import tensor as T
from .config import TOL, ConfigError


def central_difference(f, array: np.ndarray, h: float = TOL.fd_step) -> np.ndarray:
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f()
        flat[i] = orig - h
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def relative_error(ad: np.ndarray, fd: np.ndarray) -> float:
    denom = max(np.abs(ad).max(initial=0.0), np.abs(fd).max(initial=0.0), 1.0)
    return float(np.abs(ad - fd).max(initial=0.0) / denom)


def check_function(build, arrays: list[np.ndarray], seed: int) -> float:
    """Worst relative error between backprop and finite differences.

    ``build(tensors) -> Tensor`` evaluates the op under test on fresh leaf
    tensors; returns the max error across all inputs.
    """
    rng = np.random.default_rng(seed)
    with T.no_grad():
        probe_shape = build([T.Tensor(a) for a in arrays]).shape
    probe = rng.normal(size=probe_shape) if probe_shape else np.asarray(1.0)

    def scalar(tensors=None):
        ts = tensors if tensors is not None else [T.Tensor(a) for a in arrays]
        return ts, T.sum_all(T.mul(build(ts), T.Tensor(probe)))

    ts, loss = scalar([T.Tensor(a, requires_grad=True) for a in arrays])
    T.backward(loss)
    worst = 0.0
    for tensor, array in zip(ts, arrays):
        fd = central_difference(lambda: scalar()[1].item(), array)
        ad = tensor.grad if tensor.grad is not None else np.zeros_like(array)
        worst = max(worst, relative_error(ad, fd))
    return worst


def op_cases() -> dict:
    """Builders for every differentiable primitive, keyed by case name."""
    def _r(rng, *shape):
        return rng.normal(size=shape)

    return {
        "add": lambda r: ([_r(r, 3, 4), _r(r, 3, 4)], lambda t: T.add(t[0], t[1])),
        "add_broadcast": lambda r: ([_r(r, 2, 3, 4), _r(r, 1, 4)], lambda t: T.add(t[0], t[1])),
        "mul": lambda r: ([_r(r, 3, 4), _r(r, 3, 4)], lambda t: T.mul(t[0], t[1])),
        "mul_broadcast": lambda r: ([_r(r, 2, 3, 4), _r(r, 1, 3, 1)],
                                    lambda t: T.mul(t[0], t[1])),
        "matmul": lambda r: ([_r(r, 3, 4), _r(r, 4, 2)], lambda t: T.matmul(t[0], t[1])),
        "bmm": lambda r: ([_r(r, 2, 3, 4), _r(r, 2, 4, 2)], lambda t: T.matmul(t[0], t[1])),
        "matmul_batched": lambda r: ([_r(r, 2, 2, 3, 4), _r(r, 2, 2, 4, 3)],
                                     lambda t: T.matmul(t[0], t[1])),
        "linear": lambda r: ([_r(r, 3, 4), _r(r, 4, 2), _r(r, 2)],
                             lambda t: T.matmul(t[0], t[1], t[2])),
        "matmul_bias": lambda r: ([_r(r, 3, 4), _r(r, 4, 2), _r(r, 3, 2)],
                                  lambda t: T.matmul(t[0], t[1], t[2])),
        "bmm_bias": lambda r: ([_r(r, 2, 3, 4), _r(r, 2, 4, 2), _r(r, 2)],
                               lambda t: T.matmul(t[0], t[1], t[2])),
        "matmul_broadcast": lambda r: ([_r(r, 2, 3, 4), _r(r, 4, 2), _r(r, 2)],
                                       lambda t: T.matmul(t[0], t[1], t[2])),
        "matmul_broadcast_left": lambda r: ([_r(r, 2, 1, 4), _r(r, 3, 2, 4, 3)],
                                            lambda t: T.matmul(t[0], t[1])),
        "reshape": lambda r: ([_r(r, 3, 4)], lambda t: T.reshape(t[0], (2, 6))),
        "swap_axes": lambda r: ([_r(r, 2, 3, 4)], lambda t: T.swap_axes(t[0], 0, 1)),
        "concat": lambda r: ([_r(r, 2, 3), _r(r, 2, 2)], lambda t: T.concat(t, axis=1)),
        "sum": lambda r: ([_r(r, 3, 4)], lambda t: T.sum_all(t[0])),
        "layer_norm": lambda r: ([_r(r, 2, 4, 6), _r(r, 3), _r(r, 3)],    # 2 tokens a row
                                 lambda t: T.layer_norm(t[0], t[1], t[2])),
        "normalize": lambda r: ([_r(r, 2, 3, 15)], lambda t: T.normalize(t[0], 5)),  # 3 a row
        "task_attention": lambda r: (    # a pool of 2 + 1 heads, the last one querying
            [_r(r, 2, 2, 3), _r(r, 2, 1, 3), _r(r, 3), _r(r, 3), _r(r, 3, 2), _r(r, 3, 2),
             _r(r, 2, 3, 4), _r(r, 1, 3, 4), _r(r, 1)],
            lambda t: T.task_attention(t[:2], 1, *t[2:6], t[6:8], t[8])[0]),
        "attention_block": lambda r: (    # self attention, 2 heads of 2, over a batch of 2
            [_r(r, 2, 3, 4), _r(r, 2), _r(r, 2), *(_r(r, 2, 2, 2) for _ in "qkv"),
             *(_r(r, 2, 1, 2) for _ in "qkv"), _r(r, 4, 4), _r(r, 4)],
            lambda t: T.attention_block(t[0], t[0], *t[1:], 2)[0]),
        "attention_block_token": lambda r: (    # a (1, W) query source over a batch of 2
            [_r(r, 1, 4), _r(r, 2, 3, 4), _r(r, 2), _r(r, 2), *(_r(r, 2, 2, 2) for _ in "qkv"),
             *(_r(r, 2, 1, 2) for _ in "qkv"), _r(r, 4, 4), _r(r, 4)],
            lambda t: T.attention_block(t[0], t[1], *t[2:], 2)[0]),
        "attention_readout": lambda r: (    # 2 heads' flattened queries over a pool of 3
            [_r(r, 2, 2, 4), _r(r, 2, 4, 2), _r(r, 2, 6, 2), _r(r, 2, 6, 2), _r(r, 4, 4), _r(r, 4)],
            lambda t: T.attention_readout(*t, 2, E.sta_group_mask(2, 1, 3, 2, "spdh"))[0]),
        "gelu": lambda r: ([_r(r, 4, 4)], lambda t: T.gelu(t[0])),
        "cross_entropy": lambda r: ([_r(r, 6)], lambda t: T.cross_entropy_logits(t[0], 2)),
        "cross_entropy_batched": lambda r: ([_r(r, 3, 6)],
                                            lambda t: T.cross_entropy_logits(t[0], [2, 0, 5])),
    }


MODEL_CASES = {
    "model_dne": {},
    "model_dne_cta_mhsa": {"cta_in_mhsa": True},
    "model_dne_share_f": {"share_q": "f", "share_k": "f"},
    "model_dne_share_v_s": {"share_v": "s"},
    "model_dne_cta_layers_10": {"layers": 2, "cta_layers": (True, False), "cta_in_fc1": False},
    "model_dne_cta_fc2_off": {"cta_in_fc2": False},
    "model_sta_both": {"strategy": "sta", "sta_variant": "both"},
    "model_sta_none": {"strategy": "sta", "sta_variant": "none"},
    "model_sta_spdh": {"strategy": "sta", "sta_variant": "spdh"},
    "model_sta_dpdh": {"strategy": "sta", "sta_variant": "dpdh"},
    "model_ia": {"strategy": "ia"},
}
"""``ModelConfig`` overrides of each whole-model check."""


def model_case(seed: int = 0, **overrides) -> float:
    """A 2-expert model on a batch of 2 images; checks the gradient of its
    logits and auxiliary logits with respect to every trainable parameter,
    through every stage of the wiring that ``overrides`` select, at once.
    The batch makes every weight's gradient a sum over images.

    The numeric side reruns only the trainable expert on the frozen
    expert's kept outputs, and only its token head for the parameters read
    after its last block; both equal a full forward bit for bit.
    """
    cfg = E.ModelConfig(**{**dict(image_size=8, patch_size=4, in_channels=3, head_dim=4,
                                  gamma=2, layers=1, strategy="dne"), **overrides})
    model = E.CilModel(cfg, seed=seed)
    model.add_expert(2, 2)
    model.add_expert(1, 2)
    rng = np.random.default_rng(seed + 77)
    image = rng.random((2, 3, 8, 8))
    params = model.trainable_parameters()
    probe = T.Tensor(rng.normal(size=(2, model.total_classes)))
    aux_probe = T.Tensor(rng.normal(size=(2, model.experts[-1].n_classes + 1)))

    def loss(res: E.ForwardResult) -> T.Tensor:
        return T.add(T.sum_all(T.mul(res.logits, probe)),
                     T.sum_all(T.mul(res.aux_logits, aux_probe)))

    res = model.forward(image)
    T.backward(loss(res))
    body = E.freeze_outputs(res, 1)
    head = E.freeze_outputs(res, 1, features=True)
    head_params = {id(p) for p in model.parameters_with_prefix(
        "task1.token", "task1.tok_blk", "task1.head", "aux")}

    def scalar(frozen: E.ForwardResult) -> float:
        with T.no_grad():
            return loss(model.forward(image, frozen=frozen)).item()

    worst = 0.0
    for p in params:
        frozen = head if id(p) in head_params else body
        fd = central_difference(lambda: scalar(frozen), p.data)
        ad = p.grad if p.grad is not None else np.zeros_like(p.data)
        worst = max(worst, relative_error(ad, fd))
    return worst


def run_all(points: int, seed: int, verbose: bool) -> list[tuple[str, float, bool]]:
    """Check every op at ``points`` seeded inputs plus every model case.

    Returns (name, worst relative error, passed) per case.
    """
    if points < 1:
        raise ConfigError(f"points must be at least 1, got {points}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")

    def checks():
        for name, case in sorted(op_cases().items()):
            worst = 0.0
            for point in range(points):
                rng = np.random.default_rng(
                    seed + 7919 * point + zlib.crc32(name.encode()) % 104729)
                arrays, build = case(rng)
                worst = max(worst, check_function(build, arrays, seed=seed + point))
            yield name, worst
        for name, overrides in MODEL_CASES.items():
            yield name, model_case(seed, **overrides)

    results = []
    for name, worst in checks():
        ok = worst < TOL.fd_rel
        results.append((name, worst, ok))
        if verbose:
            print(f"  {name:<24s} rel_err={worst:.3e} {'ok' if ok else 'FAIL'}")
    return results
