"""Minimal deterministic reverse-mode autodiff over numpy arrays.

Only the primitives the transformer blocks need are implemented: same-shape
(and suffix-broadcast) elementwise arithmetic, one matmul (2-D or stacked,
with an optional fused bias), axis plumbing (reshape / swap / concat /
narrow), row softmax with an optional mask, layer norm, GELU (exact
Gaussian CDF form), exp, and two fused loss kernels.  Data is float64
throughout.

Every op acts on the last one or two axes and carries any leading axes
through, so a batch of images runs as one graph: a (B, P, K) activation
times a (K, N) weight is B independent products, each bit-identical to the
same product on one image.  The lower-rank operand of ``matmul`` and a
``softmax_rows`` mask broadcast over the leading axes they lack.  The
kernels reuse their temporaries in place where the operations and their
order stay the same, which keeps batched arrays in cache.

A tensor produced by an op remembers its parents and a backward closure;
``backward`` on a scalar root walks the graph once in reverse topological
order.  Tensors with ``requires_grad=False`` act as constants: no closure is
built through them, so frozen subnetworks cost nothing at backward time and
never receive gradients.

Thread model: a graph is single-threaded, but distinct graphs may be used
from different threads; the grad-enabled flag and MAC counters are
thread-local.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "ShapeError",
    "NumericError",
    "ContractError",
    "no_grad",
    "MacCounter",
    "backward",
    "topo_order",
    "add",
    "sub",
    "mul",
    "matmul",
    "reshape",
    "swap_axes",
    "concat",
    "narrow",
    "sum_all",
    "softmax_rows",
    "log_softmax_rows",
    "layer_norm",
    "gelu",
    "exp",
    "cross_entropy_logits",
    "SGD",
    "trunc_normal",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NumericError(ValueError):
    """Non-finite values where finite ones are required."""


class ContractError(ValueError):
    """An operation was called outside its documented contract."""


_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager that suppresses graph construction."""

    def __enter__(self):
        self._prev = _grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


class MacCounter:
    """Counts multiply-accumulates of ``matmul`` calls run inside it.

    Only forward-pass ``matmul`` work is counted; elementwise ops, norms
    and softmax are excluded by design.  A forward over a batch of B images
    counts B times the MACs of one image.
    """

    def __init__(self):
        self.macs = 0

    def __enter__(self):
        stack = getattr(_state, "mac_counters", None)
        if stack is None:
            stack = []
            _state.mac_counters = stack
        stack.append(self)
        return self

    def __exit__(self, *exc):
        _state.mac_counters.pop()
        return False


def _count_macs(n: int) -> None:
    for counter in getattr(_state, "mac_counters", ()):
        counter.macs += n


class Tensor:
    """An n-d float64 array with optional gradient tracking.

    ``grad`` is populated by ``backward`` and always matches ``data``'s
    shape.  Leaf tensors with ``requires_grad=False`` are constants.
    """

    __slots__ = ("data", "requires_grad", "grad", "op", "parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, *, op: str = "leaf",
                 parents: tuple = (), backward: Callable | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.op = op
        self.parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def _make(data: np.ndarray, parents: Sequence[Tensor], op: str,
          backward_fn: Callable) -> Tensor:
    if _grad_enabled() and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, op=op,
                      parents=tuple(parents), backward=backward_fn)
    return Tensor(data, op=op)


def _sum_leading(g: np.ndarray, ndim: int) -> np.ndarray:
    """Sum ``g`` over the leading axes an operand of rank ``ndim`` was
    broadcast along, in index order."""
    return g if g.ndim == ndim else g.sum(axis=tuple(range(g.ndim - ndim)))


def _sum_to_shape(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- graph traversal ------------------------------------------------------

def topo_order(root: Tensor) -> list[Tensor]:
    """Operation records of the graph below ``root``, in topological order.

    Each node is visited exactly once; only grad-requiring nodes are kept
    (constants terminate the walk).
    """
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    return order


def backward(root: Tensor) -> None:
    """Populate ``grad`` on every grad-requiring tensor below a scalar root."""
    if root.data.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        return
    order = topo_order(root)
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is None:
            continue
        grads = node._backward(node.grad)
        for parent, g in zip(node.parents, grads):
            if g is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                # the tensor's own memory layout: later products round by it
                parent.grad = np.empty_like(parent.data)
                parent.grad[...] = g
            else:
                parent.grad += g


# -- elementwise arithmetic ------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}") from None

    def bwd(g):
        return _sum_to_shape(g, a.shape), _sum_to_shape(g, b.shape)

    return _make(out, (a, b), "add", bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: cannot broadcast {a.shape} with {b.shape}") from None

    def bwd(g):
        return _sum_to_shape(g, a.shape), _sum_to_shape(-g, b.shape)

    return _make(out, (a, b), "sub", bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}") from None

    def bwd(g):
        return (_sum_to_shape(g * b.data, a.shape) if a.requires_grad else None,
                _sum_to_shape(g * a.data, b.shape) if b.requires_grad else None)

    return _make(out, (a, b), "mul", bwd)


# -- linear algebra --------------------------------------------------------

def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b (+ bias) over 2-D operands or stacks of matrices.

    The leading (stack) axes of the lower-rank operand must equal the
    innermost leading axes of the other, which it broadcasts over: a 2-D
    weight times a (B, P, K) batch is B products.  The broadcast operand's
    gradient is the sum of its per-slice gradients over the extra axes, in
    batch order.  ``bias`` broadcasts over the output and its gradient sums
    over the broadcast axes.  MACs are ``out.size * K``, so a batch counts
    each slice.
    """
    ad, bd = a.data, b.data
    short = min(ad.ndim, bd.ndim)
    if (short < 2 or ad.shape[-1] != bd.shape[-2]
            or ad.shape[ad.ndim - short:-2] != bd.shape[bd.ndim - short:-2]):
        raise ShapeError(f"matmul: shapes disagree for {a.shape} @ {b.shape}")
    out = ad @ bd
    _count_macs(out.size * ad.shape[-1])
    if bias is not None:
        out = out + bias.data

    def bwd(g):
        ga = _sum_leading(g @ bd.swapaxes(-1, -2), ad.ndim) if a.requires_grad else None
        gb = _sum_leading(ad.swapaxes(-1, -2) @ g, bd.ndim) if b.requires_grad else None
        return (ga, gb) if bias is None else (ga, gb, _sum_to_shape(g, bias.shape))

    return _make(out, (a, b) if bias is None else (a, b, bias), "matmul", bwd)


# -- shape plumbing ---------------------------------------------------------

def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)
    src = a.shape

    def bwd(g):
        return (g.reshape(src),)

    return _make(out, (a,), "reshape", bwd)


def swap_axes(a: Tensor, ax0: int, ax1: int) -> Tensor:
    out = np.swapaxes(a.data, ax0, ax1)

    def bwd(g):
        return (np.swapaxes(g, ax0, ax1),)

    return _make(out, (a,), "swap_axes", bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat of zero tensors")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tensors, "concat", bwd)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis; gradient zero-pads back."""
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeError(
            f"narrow: [{start}:{start + length}] out of bounds for axis {axis} of {a.shape}")
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = a.data[idx]

    def bwd(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _make(out, (a,), "narrow", bwd)


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum())

    def bwd(g):
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(out, (a,), "sum", bwd)


# -- nonlinear kernels -------------------------------------------------------

def softmax_rows(x: Tensor, scale: float = 1.0, mask: np.ndarray | None = None) -> Tensor:
    """Row-wise softmax of x/scale over the last axis.

    The row maximum is subtracted before exponentiation so large logits
    stay finite.  Rows of the output sum to 1.  With ``mask`` the softmax
    is restricted to its enabled entries: disabled ones get exactly zero
    weight, and every row must keep at least one enabled entry.  A mask
    with fewer axes than ``x`` is shared by every leading index.
    """
    if scale <= 0:
        raise ContractError(f"softmax_rows: scale must be positive, got {scale}")
    if not np.isfinite(x.data).all():
        raise NumericError("softmax_rows: non-finite input")
    z = x.data / scale
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim > x.data.ndim or mask.shape != x.shape[x.data.ndim - mask.ndim:]:
            raise ShapeError(f"softmax_rows: mask {mask.shape} vs input {x.shape}")
        if not mask.any(axis=-1).all():
            raise ContractError("softmax_rows: a row has no enabled entries")
        z = np.where(mask, z, -np.inf)
    z -= z.max(axis=-1, keepdims=True)
    y = np.exp(z, out=z)
    y /= y.sum(axis=-1, keepdims=True)

    def bwd(g):
        dx = g - (g * y).sum(axis=-1, keepdims=True)
        dx *= y
        dx /= scale
        return (dx,)

    return _make(y, (x,), "softmax_rows", bwd)


def log_softmax_rows(x: Tensor) -> Tensor:
    m = x.data.max(axis=-1, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse

    def bwd(g):
        soft = np.exp(out)
        return (g - soft * g.sum(axis=-1, keepdims=True),)

    return _make(out, (x,), "log_softmax_rows", bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each last-axis vector to zero mean / unit population variance,
    then apply the learned affine map."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias {gain.shape}/{bias.shape} vs feature dim {d}")
    mu = x.data.sum(axis=-1, keepdims=True) / d
    xhat = x.data - mu
    out = xhat * xhat
    var = out.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def bwd(g):
        lead = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=lead) if gain.requires_grad else None
        dbias = g.sum(axis=lead) if bias.requires_grad else None
        dx = g * gain.data
        proj = dx * xhat
        proj = np.multiply(xhat, proj.sum(axis=-1, keepdims=True) / d, out=proj)
        dx -= dx.sum(axis=-1, keepdims=True) / d
        dx -= proj
        dx *= inv
        return dx, dgain, dbias

    return _make(out, (x, gain, bias), "layer_norm", bwd)


def gelu(x: Tensor) -> Tensor:
    """Exact-CDF GELU: x * Phi(x) with Phi the standard normal CDF.

    The erf-based form is used (not the tanh approximation) so reference
    oracles are unambiguous.
    """
    cdf = x.data * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = x.data * cdf

    def bwd(g):
        dx = -0.5 * x.data
        dx *= x.data
        np.exp(dx, out=dx)
        dx *= _INV_SQRT2PI
        dx *= x.data
        dx += cdf
        dx *= g
        return (dx,)

    return _make(out, (x,), "gelu", bwd)


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)

    def bwd(g):
        return (g * out,)

    return _make(out, (x,), "exp", bwd)


def cross_entropy_logits(logits: Tensor, labels) -> Tensor:
    """Cross entropy of each last-axis logit row against its integer label.

    ``labels`` has the shape of the leading axes: an int for one 1-D logit
    vector, B labels for (B, C) logits.  Returns one loss per row, of that
    same shape.
    """
    x = logits.data
    labels = np.asarray(labels)
    if x.ndim < 1 or labels.shape != x.shape[:-1]:
        raise ShapeError(
            f"cross_entropy_logits: labels {labels.shape} vs logits {logits.shape}")
    n = x.shape[-1]
    if not np.issubdtype(labels.dtype, np.integer) or ((labels < 0) | (labels >= n)).any():
        raise ContractError(f"labels {labels.tolist()} outside logit range {n}")
    idx = labels[..., None]
    m = x.max(axis=-1, keepdims=True)
    shifted = x - m
    lse = m + np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = (lse - np.take_along_axis(x, idx, axis=-1))[..., 0]

    def bwd(g):
        soft = np.exp(shifted)
        soft = soft / soft.sum(axis=-1, keepdims=True)
        np.put_along_axis(soft, idx, np.take_along_axis(soft, idx, axis=-1) - 1.0, axis=-1)
        return (g[..., None] * soft,)

    return _make(out, (logits,), "cross_entropy", bwd)


# -- training utilities ------------------------------------------------------

class SGD:
    """Plain SGD with optional momentum and L2 weight decay.

    Refuses frozen tensors at construction: freezing is enforced by never
    registering a parameter here, not by skipping at step time.
    """

    def __init__(self, params: Iterable[Tensor], lr: float,
                 weight_decay: float = 0.0, momentum: float = 0.0):
        self.params = list(params)
        for p in self.params:
            if not p.requires_grad:
                raise ContractError("SGD given a frozen tensor")
        self.lr = lr
        self.weight_decay = weight_decay
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params] if momentum else None

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self._velocity is not None:
                v = self._velocity[i]
                v *= self.momentum
                v += g
                g = v
            p.data -= self.lr * g

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def trunc_normal(rng: np.random.Generator, shape: Sequence[int],
                 std: float = 0.02) -> np.ndarray:
    """Seeded normal draw truncated to two standard deviations."""
    out = rng.normal(0.0, std, size=tuple(shape))
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


def fan_in_normal(rng: np.random.Generator, shape: Sequence[int],
                  fan_in: int | None = None) -> np.ndarray:
    """Truncated normal scaled to the matrix fan-in (std = 1/sqrt(fan_in)).

    At desk-scale widths a fixed tiny std leaves gradients too small to
    train in reasonable time; scaling by fan-in keeps activations O(1).
    """
    shape = tuple(shape)
    if fan_in is None:
        fan_in = shape[-2] if len(shape) >= 2 else shape[-1]
    return trunc_normal(rng, shape, std=1.0 / math.sqrt(fan_in))
