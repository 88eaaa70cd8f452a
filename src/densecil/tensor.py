"""Minimal deterministic reverse-mode autodiff over numpy arrays.

Only the primitives training runs are implemented: same-shape (and
suffix-broadcast) elementwise arithmetic, one matmul (2-D or stacked, with
an optional fused bias), axis plumbing (reshape / swap / concat), layer
norm (whole, or its ``normalize`` half; both use the one epsilon
``LN_EPS``), GELU (exact Gaussian CDF form) and a fused cross entropy.
Attention runs as single ops with hand-written backwards: a task-attention
stage (``task_attention``), a multi-head attention block from per-head
layer norm to residual (``attention_block``, for self attention and a task
token's read-out) and a read-out of projected q/k/v
(``attention_readout``); the last two share one kernel pair, ``_attend``,
and all three one softmax pair, ``_softmax``/``_softmax_grad``.  The tests
compose each of them from single ops and a test-local ``softmax_rows``
over that pair (``tests/oracles.py``): the reference they equal bit for
bit.
Data is float64 throughout, and the package needs numpy only: the GELU's
erf is Cephes' rational approximation evaluated in numpy, bit for bit the
value ``scipy.special.erf`` returns.

Every op acts on the last one or two axes and carries any leading axes
through, so a batch of images runs as one graph: a (B, P, K) activation
times a (K, N) weight is B independent products, each bit-identical to the
same product on one image.  The lower-rank operand of ``matmul`` and an
attention mask broadcast over the leading axes they lack.  The
kernels reuse their temporaries in place where the operations and their
order stay the same, which keeps batched arrays in cache.

A tensor produced by an op remembers its parents and a backward closure;
``backward`` on a scalar root walks the graph once in reverse topological
order and releases each record as it goes, so a graph is used once.
Tensors with ``requires_grad=False`` act as constants: no closure is built
through them, so frozen subnetworks cost nothing at backward time and never
receive gradients, and an op computes no input gradient for a constant
operand.  A tensor's first gradient is the array its consumer's closure
returned, when that array and the tensor's data are both C-contiguous, it
is writeable and the closure handed it to no other operand; otherwise it is
a copy in the tensor's own memory layout.  Later gradients are added in.

Thread model: a graph is single-threaded, but distinct graphs may be used
from different threads; the grad-enabled flag and MAC counters are
thread-local.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

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
    "mul",
    "matmul",
    "reshape",
    "swap_axes",
    "concat",
    "sum_all",
    "normalize",
    "layer_norm",
    "task_attention",
    "attention_readout",
    "attention_block",
    "gelu",
    "cross_entropy_logits",
    "SGD",
    "trunc_normal",
]

LN_EPS = 1e-5
"""The variance epsilon of every layer norm and ``normalize``."""

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| <= 1 and
# 1 - exp(-x^2) P(|x|) / Q(|x|) above.  U and Q are monic; Q's leading 1 is
# written out so that P and Q run as one (2, n) Horner (1 * x is exact).
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_PQ = np.array([
    (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
     4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
     9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2),
    (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
     9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
     1.65666309194161350182E3, 5.57535340817727675546E2),
]).T[:, :, None].copy()                                        # (9, 2, 1): step, P|Q


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


@functools.cache
def _keep_freed_heap() -> None:
    """Have glibc's malloc keep freed memory for the next training step;
    called by the first ``backward`` of a process.

    ``backward`` frees a step's graph before the next forward builds one,
    so between steps the top of the heap is free.  By default glibc hands
    any free top over 128 KiB back to the OS, and the next step faults
    every page in again: a default ``densecil train`` then takes 0.8 M
    minor page faults and 2.4 s of system time instead of 0.03 M and
    0.1 s.  This keeps up to 64 MiB of free top and serves arrays under
    32 MiB from the heap, which is where glibc's own adaptive threshold
    settles.  Peak memory is unchanged; without glibc it does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 64 << 20)       # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD


def _released(g):
    """The closure of a node that a backward has released."""
    raise ContractError("backward through a node that an earlier backward released")


def backward(root: Tensor) -> None:
    """Populate ``grad`` on every grad-requiring leaf below a scalar root.

    A graph is used once.  The walk releases each operation record as soon
    as its backward has run: its closure (with the forward arrays it saved),
    its parents and its gradient are dropped, and only its ``data`` stays.
    So the graph's memory is returned while the walk goes, and a training
    step never holds the previous step's graph.  A later backward whose
    graph reaches a released record raises ``ContractError`` before it
    computes anything.  Leaf tensors keep their gradients.
    """
    if root.data.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        return
    order = topo_order(root)
    if any(node._backward is _released for node in order):
        raise ContractError("backward through a graph that an earlier backward released")
    _keep_freed_heap()
    root.grad = np.ones_like(root.data)
    while order:
        node = order.pop()
        if node._backward is None:
            continue
        grads = node._backward(node.grad)
        parents = node.parents
        node._backward, node.parents, node.grad = _released, (), None
        handed: list[np.ndarray] = []
        for parent, g in zip(parents, grads):
            if g is None or not parent.requires_grad:
                continue
            if parent.grad is not None:
                parent.grad += g
            elif (g.flags.c_contiguous and g.flags.writeable and parent.data.flags.c_contiguous
                    and not any(g is h for h in handed)):
                parent.grad = g
                handed.append(g)
            else:
                # the tensor's own memory layout: later products round by it
                parent.grad = np.empty_like(parent.data)
                parent.grad[...] = g


# -- elementwise arithmetic ------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}") from None

    def bwd(g):
        return (_sum_to_shape(g, a.shape) if a.requires_grad else None,
                _sum_to_shape(g, b.shape) if b.requires_grad else None)

    return _make(out, (a, b), "add", bwd)


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
        ga = _sum_to_shape(g @ bd.swapaxes(-1, -2), ad.shape) if a.requires_grad else None
        gb = _sum_to_shape(ad.swapaxes(-1, -2) @ g, bd.shape) if b.requires_grad else None
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


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat of zero tensors")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tensors, "concat", bwd)


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum())

    def bwd(g):
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(out, (a,), "sum", bwd)


# -- nonlinear kernels -------------------------------------------------------

def _softmax(x: np.ndarray, scale: float, mask: np.ndarray | None, op: str) -> np.ndarray:
    """Row softmax of ``x / scale`` over the last axis, in a new array.

    The row maximum is subtracted before exponentiation so large logits
    stay finite.  With ``mask`` the softmax is restricted to its enabled
    entries: disabled ones get exactly zero weight, and every row must keep
    at least one enabled entry.  A mask with fewer axes than ``x`` is
    shared by every leading index.  ``op`` names the caller in errors."""
    if scale <= 0:
        raise ContractError(f"{op}: scale must be positive, got {scale}")
    if not np.isfinite(x).all():
        raise NumericError(f"{op}: non-finite input")
    z = x / scale
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim > x.ndim or mask.shape != x.shape[x.ndim - mask.ndim:]:
            raise ShapeError(f"{op}: mask {mask.shape} vs input {x.shape}")
        if not mask.any(axis=-1).all():
            raise ContractError(f"{op}: a row has no enabled entries")
        z = np.where(mask, z, -np.inf)
    z -= z.max(axis=-1, keepdims=True)
    y = np.exp(z, out=z)
    y /= y.sum(axis=-1, keepdims=True)
    return y


def _softmax_grad(g: np.ndarray, y: np.ndarray, scale: float) -> np.ndarray:
    """The input gradient of ``_softmax`` with output ``y``."""
    dx = g - (g * y).sum(axis=-1, keepdims=True)
    dx *= y
    dx /= scale
    return dx


def _normalized(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each last-axis vector of ``x`` at zero mean and unit population
    variance, and the inverse standard deviations that scaled it."""
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / d
    xhat = x - mu
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    return xhat, inv


def _normalized_grad(dx: np.ndarray, xhat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The input gradient of ``_normalized`` from its output gradient
    ``dx``, computed in ``dx`` itself."""
    d = dx.shape[-1]
    proj = dx * xhat
    proj = np.multiply(xhat, proj.sum(axis=-1, keepdims=True) / d, out=proj)
    dx -= dx.sum(axis=-1, keepdims=True) / d
    dx -= proj
    dx *= inv
    return dx


def _affine_grads(g: np.ndarray, xhat: np.ndarray, gain: Tensor, bias: Tensor):
    """Gradients of ``gain`` and ``bias`` in ``xhat * gain + bias``: one
    reduction over every leading axis each."""
    lead = tuple(range(g.ndim - 1))
    return ((g * xhat).sum(axis=lead) if gain.requires_grad else None,
            g.sum(axis=lead) if bias.requires_grad else None)


def _affine_out(op: str, xhat: np.ndarray, gain: Tensor, bias: Tensor,
                out: np.ndarray | None = None) -> np.ndarray:
    """``xhat * gain + bias``, in ``out`` if given, with ``gain`` and
    ``bias`` checked against the last axis."""
    d = xhat.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"{op}: gain/bias {gain.shape}/{bias.shape} vs feature dim {d}")
    out = np.multiply(xhat, gain.data, out=out)
    out += bias.data
    return out


def normalize(x: Tensor) -> Tensor:
    """Each last-axis vector at zero mean and unit population variance: a
    layer norm without its learned affine map, which ``task_attention``
    applies to a pool of such vectors."""
    xhat, inv = _normalized(x.data)

    def bwd(g):
        return (_normalized_grad(g.copy(), xhat, inv),)

    return _make(xhat, (x,), "normalize", bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """``normalize(x) * gain + bias`` as one op: the same kernels, without
    keeping the normalised input as a tensor of its own."""
    xhat, inv = _normalized(x.data)
    out = _affine_out("layer_norm", xhat, gain, bias)

    def bwd(g):
        dgain, dbias = _affine_grads(g, xhat, gain, bias)
        if not x.requires_grad:
            return None, dgain, dbias
        return _normalized_grad(g * gain.data, xhat, inv), dgain, dbias

    return _make(out, (x, gain, bias), "layer_norm", bwd)


def _value_grad(y: np.ndarray, gp: np.ndarray) -> np.ndarray:
    """``y.swapaxes(-1, -2) @ gp``, the gradient of the values ``v`` in the
    read-out ``y @ v`` from its gradient ``gp``, laid out C-contiguous as
    (H_pool, P, dout) behind any leading axes.

    With one query row the product is rank 1 and is formed as a broadcast
    multiply straight into that layout.  BLAS computes its single term as
    ``a * b + 0``, which turns -0 into +0; ``+= 0.0`` does the same, so
    the bits equal the product's."""
    if y.shape[-2] != 1:
        return np.ascontiguousarray(np.swapaxes(y.swapaxes(-1, -2) @ gp, -3, -2))
    *lead, p, _, h_pool = y.shape
    gm = np.empty((*lead, h_pool, p, gp.shape[-1]))
    np.multiply(y[..., 0, :].swapaxes(-1, -2)[..., None], np.swapaxes(gp, -3, -2), out=gm)
    gm += 0.0
    return gm


def task_attention(parts: Sequence[Tensor], n_query: int, gain: Tensor, bias: Tensor,
                   wq: Tensor, wk: Tensor, wv: Sequence[Tensor], lam: Tensor):
    """One task-attention stage as one op: the last ``n_query`` head tokens
    of a pool attend over all of them.

    ``parts`` are the pool's (P, H_i, din) pieces, with any leading axes,
    joined along the head axis into (P, H_pool, din) and mapped by the
    layer-norm ``gain`` and ``bias``.  Keys ``x @ wk`` span the pool,
    queries ``x @ wq`` its last ``n_query`` heads, and each pool head h has
    its own value matrix: ``wv`` joined along its first axis is
    (H_pool, din, dout).  Returns the (P, n_query, dout) read-outs scaled
    by the per-head ``lam`` (n_query,), and the (P, n_query, H_pool)
    attention weights as an array.  The arithmetic is that of the same
    stage composed of single ops (``tests/test_expansion.py``), bit for
    bit, gradients included; MACs count its five products.  Input gradients
    are built only for ``parts`` that require one.
    """
    parts, wv = tuple(parts), tuple(wv)         # the backward reads them after the call
    x = np.concatenate([t.data for t in parts], axis=-2)     # the pool, mapped in place
    _affine_out("task_attention", x, gain, bias, out=x)
    *lead, p, h_pool, din = x.shape
    attn_dim = wq.shape[-1]
    w = wv[0].data if len(wv) == 1 else np.concatenate([t.data for t in wv], axis=0)
    if (not 0 < n_query <= h_pool or wq.shape != (din, attn_dim) or wk.shape != wq.shape
            or w.shape[:2] != (h_pool, din) or lam.shape != (n_query,)):
        raise ShapeError(f"task_attention: pool {x.shape}, {n_query} queries, wq {wq.shape}, "
                         f"wk {wk.shape}, wv {w.shape}, lam {lam.shape} disagree")
    flat = x.reshape(*lead, p * h_pool, din)
    k = (flat @ wk.data).reshape(*lead, p, h_pool, attn_dim)
    qr = x[..., h_pool - n_query:, :].reshape(*lead, p * n_query, din)
    q = (qr @ wq.data).reshape(*lead, p, n_query, attn_dim)
    kt = np.swapaxes(k, -1, -2)
    scale = math.sqrt(attn_dim)
    scores = q @ kt
    y = _softmax(scores, scale, None, "task_attention")
    xs = np.swapaxes(x, -3, -2)
    v = np.swapaxes(xs @ w, -3, -2)                         # (P, H_pool, dout)
    pre = y @ v
    lam_r = lam.data.reshape(1, n_query, 1)
    out = pre * lam_r
    _count_macs((k.size + q.size) * din + scores.size * attn_dim
                + v.size * din + pre.size * h_pool)

    def bwd(g):
        gp = g * lam_r
        dlam = _sum_to_shape(g * pre, lam_r.shape).reshape(lam.shape) if lam.requires_grad else None
        gs = _softmax_grad(gp @ v.swapaxes(-1, -2), y, scale)
        gk = np.ascontiguousarray(np.swapaxes(q.swapaxes(-1, -2) @ gs, -1, -2))
        gk = gk.reshape(*lead, p * h_pool, attn_dim)
        gq = (gs @ kt.swapaxes(-1, -2)).reshape(*lead, p * n_query, attn_dim)
        gm = _value_grad(y, gp)
        dwq = _sum_to_shape(qr.swapaxes(-1, -2) @ gq, wq.shape) if wq.requires_grad else None
        dwk = _sum_to_shape(flat.swapaxes(-1, -2) @ gk, wk.shape) if wk.requires_grad else None
        dwv = [None] * len(wv)
        if any(t.requires_grad for t in wv):
            dw = _sum_to_shape(xs.swapaxes(-1, -2) @ gm, w.shape)
            dwv = np.split(dw, np.cumsum([t.shape[0] for t in wv])[:-1], axis=0)
        if not (gain.requires_grad or bias.requires_grad or any(t.requires_grad for t in parts)):
            return (None,) * (len(parts) + 2) + (dwq, dwk, *dwv, dlam)
        # the pool gradient: keys, + queries in their heads, + values
        gx = (gk @ wk.data.swapaxes(-1, -2)).reshape(x.shape)
        gx[..., h_pool - n_query:, :] += (gq @ wq.data.swapaxes(-1, -2)).reshape(
            *lead, p, n_query, din)
        gx += np.swapaxes(gm @ w.swapaxes(-1, -2), -3, -2)
        # the affine map's gradients: gx becomes gx * pool part by part
        axes = tuple(range(gx.ndim - 1))
        dbias = gx.sum(axis=axes) if bias.requires_grad else None
        dparts, start = [], 0
        for t in parts:
            gt = gx[..., start:start + t.shape[-2], :]
            dparts.append(gt * gain.data if t.requires_grad else None)
            if gain.requires_grad:
                gt *= t.data
            start += t.shape[-2]
        dgain = gx.sum(axis=axes) if gain.requires_grad else None
        return (*dparts, dgain, dbias, dwq, dwk, *dwv, dlam)

    return _make(out, (*parts, gain, bias, wq, wk, *wv, lam), "task_attention", bwd), y


def _attend(op: str, r: np.ndarray, q: np.ndarray, k: np.ndarray, v: np.ndarray,
            fuse_w: Tensor, fuse_b: Tensor, head_dim: int, mask: np.ndarray | None):
    """``r + fuse(softmax(q kᵀ / √D) v)`` of head-major q/k/v: the output,
    the attention weights and the regrouped heads ``cat``."""
    p, width = r.shape[-2:]
    y = _softmax(q @ np.swapaxes(k, -1, -2), math.sqrt(head_dim), mask, op)
    av = y @ v
    if av.ndim == r.ndim:                       # flattened queries: back to (H, P, D)
        av = av.reshape(*av.shape[:-2], width // head_dim, p, head_dim)
    cat = np.swapaxes(av, -3, -2).reshape(*av.shape[:-3], p, width)
    out = cat @ fuse_w.data
    _count_macs(y.size * q.shape[-1] + av.size * y.shape[-1] + out.size * width)
    out += fuse_b.data
    out += r
    return out, y, cat


def _attend_grad(g: np.ndarray, r: np.ndarray, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                 y: np.ndarray, cat: np.ndarray, fuse_w: Tensor, fuse_b: Tensor,
                 head_dim: int, need: tuple[bool, bool, bool]):
    """Gradients of ``_attend``'s r, q, k, v (each of q, k, v only where
    ``need`` says), fuse_w and fuse_b.  The heads' gradient is regrouped,
    and kᵀ's swapped back, into C order, the layout of those arrays."""
    dfw = (_sum_to_shape(np.swapaxes(cat, -1, -2) @ g, fuse_w.shape)
           if fuse_w.requires_grad else None)
    dfb = _sum_to_shape(g, fuse_b.shape) if fuse_b.requires_grad else None
    dr = _sum_to_shape(g, r.shape)
    if not any(need):
        return dr, None, None, None, dfw, dfb
    gcat = g @ fuse_w.data.swapaxes(-1, -2)
    gav = np.ascontiguousarray(np.swapaxes(
        gcat.reshape(*gcat.shape[:-1], gcat.shape[-1] // head_dim, head_dim), -3, -2))
    gav = gav.reshape(*y.shape[:-1], v.shape[-1])
    gv = _sum_to_shape(np.swapaxes(y, -1, -2) @ gav, v.shape) if need[2] else None
    gs = _softmax_grad(gav @ np.swapaxes(v, -1, -2), y, math.sqrt(head_dim))
    gq = _sum_to_shape(gs @ k, q.shape) if need[0] else None
    gk = None if not need[1] else np.ascontiguousarray(np.swapaxes(_sum_to_shape(
        np.swapaxes(q, -1, -2) @ gs, (*k.shape[:-2], *k.shape[:-3:-1])), -1, -2))
    return dr, gq, gk, gv, dfw, dfb


def attention_readout(r: Tensor, q: Tensor, k: Tensor, v: Tensor, fuse_w: Tensor,
                      fuse_b: Tensor, head_dim: int, mask: np.ndarray | None = None):
    """r + fuse(softmax(q kᵀ / √D) v) of projected q/k/v as one op.

    q/k/v are head-major (H, P, D) stacks, each head attending within
    itself, or flattened (H*P, D) queries over (M*P, D) keys and values,
    with ``mask`` (if given) enabling (query, key) pairs; any may carry a
    leading batch axis.  Returns the (P, D*H) output and the attention
    weights as an array, (H, P, P) or (H*P, M*P).  Arithmetic, gradients
    and MACs are those of the read-out composed of ``matmul``, a row
    softmax, ``swap_axes``, ``reshape`` and ``add`` (``tests/oracles.py``),
    bit for bit.
    """
    out, y, cat = _attend("attention_readout", r.data, q.data, k.data, v.data, fuse_w, fuse_b,
                          head_dim, mask)

    def bwd(g):
        dr, *grads = _attend_grad(g, r.data, q.data, k.data, v.data, y, cat, fuse_w, fuse_b,
                                  head_dim, (q.requires_grad, k.requires_grad, v.requires_grad))
        return (dr if r.requires_grad else None, *grads)

    return _make(out, (r, q, k, v, fuse_w, fuse_b), "attention_readout", bwd), y


def attention_block(xq: Tensor, xkv: Tensor, gain: Tensor, bias: Tensor, wq: Tensor,
                    wk: Tensor, wv: Tensor, bq: Tensor, bk: Tensor, bv: Tensor,
                    fuse_w: Tensor, fuse_b: Tensor, head_dim: int):
    """Residual multi-head attention of (..., P, D*H) rows as one op.

    Head h layer-normalises its tokens with ``gain`` and ``bias`` and takes
    queries from ``xq`` through ``wq[h]``, ``bq[h]``, keys and values from
    ``xkv``; the read-out is ``attention_readout``'s with ``xq`` as the
    residual.  With ``xkv`` the same tensor as ``xq`` this is self attention
    and one layer norm serves q, k and v; a (1, D*H) ``xq`` over a batch of
    ``xkv`` is a task token's read-out.  Returns the output and the
    (H, P_q, P) attention weights as an array.  Arithmetic, gradients and
    MACs are those of the block composed of ``layer_norm``, ``swap_axes``,
    ``matmul``, ``add`` and that read-out (``tests/oracles.py``), bit for
    bit.
    """
    width = xq.shape[-1]
    heads = width // head_dim
    want = [(heads, head_dim, head_dim)] * 3 + [(heads, 1, head_dim)] * 3 + [(width, width)]
    if width % head_dim or xkv.shape[-1] != width or want != [
            t.shape for t in (wq, wk, wv, bq, bk, bv, fuse_w)]:
        raise ShapeError(f"attention_block: rows {xq.shape}/{xkv.shape}, head dim {head_dim}, "
                         f"wq {wq.shape}, bq {bq.shape} and fuse_w {fuse_w.shape} disagree")
    lns = [(xhat, inv, _affine_out("attention_block", xhat, gain, bias)) for xhat, inv in (
        _normalized(x.data.reshape(*x.shape[:-1], heads, head_dim))
        for x in ((xq,) if xq is xkv else (xq, xkv)))]          # one layer norm per input
    xqh, xkh = np.swapaxes(lns[0][2], -3, -2), np.swapaxes(lns[-1][2], -3, -2)
    q, k, v = (x @ w.data + b.data for x, w, b in ((xqh, wq, bq), (xkh, wk, bk), (xkh, wv, bv)))
    _count_macs((q.size + k.size + v.size) * head_dim)
    out, y, cat = _attend("attention_block", xq.data, q, k, v, fuse_w, fuse_b, head_dim, None)
    inner = (xq, xkv, gain, bias, wq, wk, wv, bq, bk, bv)

    def bwd(g):
        need = any(t.requires_grad for t in inner)
        dr, gq, gk, gv, dfw, dfb = _attend_grad(g, xq.data, q, k, v, y, cat, fuse_w, fuse_b,
                                                head_dim, (need,) * 3)
        if not need:
            return (None,) * len(inner) + (dfw, dfb)
        dw = [_sum_to_shape(np.swapaxes(x, -1, -2) @ gt, w.shape) if w.requires_grad else None
              for x, gt, w in ((xqh, gq, wq), (xkh, gk, wk), (xkh, gv, wv))]
        db = [_sum_to_shape(gt, b.shape) if b.requires_grad else None
              for gt, b in ((gq, bq), (gk, bk), (gv, bv))]
        paths = [gt @ w.data.swapaxes(-1, -2) for gt, w in ((gq, wq), (gk, wk), (gv, wv))]
        # each layer norm's output gradient, in its (P, H, D) layout; q and k before v
        gls = [np.ascontiguousarray(np.swapaxes(functools.reduce(np.add, grads), -3, -2))
               for grads in ([paths] if len(lns) == 1 else [paths[:1], paths[1:]])]
        affine = [_affine_grads(gl, xhat, gain, bias) for gl, (xhat, _, _) in zip(gls, lns)]
        dgain, dbias = (None if a[0] is None else sum(a[1:], a[0]) for a in zip(*affine))
        dx = [_normalized_grad(gl * gain.data, xhat, inv).reshape(x.shape)
              if x.requires_grad else None for gl, (xhat, inv, _), x in zip(gls, lns, (xq, xkv))]
        if dx[0] is not None:
            dx[0] += dr             # the residual
        return (dx[0], dx[-1] if len(dx) == 2 else None, dgain, dbias, *dw, *db, dfw, dfb)

    return _make(out, (xq, xkv, *inner[2:], fuse_w, fuse_b), "attention_block", bwd), y


def _erf(x: np.ndarray) -> np.ndarray:
    """erf of a float64 array, computed in the array's own memory when it
    is C-contiguous (in a copy otherwise).

    Evaluates Cephes' ``erf`` (``ndtr.c``) in its own operation order, so
    every result equals ``scipy.special.erf`` bit for bit.  The |x| <= 1
    form runs over the whole array with x clipped to [-1, 1]: x * T / U
    carries the sign through, as IEEE products and quotients are symmetric
    in it.  The |x| > 1 elements are gathered and overwritten with
    +-(1 - erfc(|x|)); |x| is capped at 8, where erfc is below 1.2e-29, so
    1 - erfc rounds to exactly 1 as Cephes' own branches for large |x| do.
    exp goes through complex128 because numpy's float64 exp is its own
    SIMD kernel, which differs from libm's exp (the one Cephes calls) in
    the last bit for some arguments; the complex exp is libm's cexp, and
    with a zero imaginary part its real part is libm's exp.
    """
    flat = x.reshape(-1)
    z = np.abs(flat)
    big = np.flatnonzero(z > 1.0)
    xb = flat[big]
    np.clip(flat, -1.0, 1.0, out=flat)
    np.multiply(flat, flat, out=z)
    t = z * _ERF_T[0]
    for c in _ERF_T[1:-1]:
        t += c
        t *= z
    t += _ERF_T[-1]
    flat *= t
    np.add(z, _ERF_U[0], out=t)                         # t is now U
    for c in _ERF_U[1:]:
        t *= z
        t += c
    flat /= t
    if big.size:
        a = np.abs(xb)
        np.minimum(a, 8.0, out=a)
        pq = _ERFC_PQ[0] * a
        for c in _ERFC_PQ[1:-1]:
            pq += c
            pq *= a
        pq += _ERFC_PQ[-1]
        np.multiply(a, a, out=a)
        np.negative(a, out=a)
        e = np.exp(a.astype(np.complex128)).real * pq[0]
        e /= pq[1]
        np.subtract(1.0, e, out=e)
        flat[big] = np.copysign(e, xb, out=e)
    return flat.reshape(x.shape)


def gelu(x: Tensor) -> Tensor:
    """Exact-CDF GELU: x * Phi(x) with Phi the standard normal CDF.

    The erf-based form is used (not the tanh approximation) so reference
    oracles are unambiguous.  erf is Cephes' rational approximation,
    evaluated in numpy by ``_erf``.
    """
    cdf = _erf(x.data * _INV_SQRT2)
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

    def __init__(self, params: Iterable[Tensor], lr: float, weight_decay: float,
                 momentum: float):
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
    """Seeded normal draw truncated to two standard deviations.

    Out-of-range values are redrawn in rounds: each round draws one value
    per entry still out of range and writes them in flat (C) index order,
    then keeps only the entries whose new value is out of range again.
    """
    out = rng.normal(0.0, std, size=tuple(shape))
    flat = out.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2.0 * std)
    while bad.size:
        flat[bad] = rng.normal(0.0, std, size=bad.size)
        bad = bad[np.abs(flat[bad]) > 2.0 * std]
    return out


def fan_in_normal(rng: np.random.Generator, shape: Sequence[int]) -> np.ndarray:
    """Truncated normal scaled to the fan-in of a matrix or a stack of
    matrices, ``shape[-2]`` (std = 1/sqrt(fan_in)).

    At desk-scale widths a fixed tiny std leaves gradients too small to
    train in reasonable time; scaling by fan-in keeps activations O(1).
    """
    return trunc_normal(rng, shape, std=1.0 / math.sqrt(shape[-2]))
