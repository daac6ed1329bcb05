"""Reverse-mode automatic differentiation over dense numpy arrays.

Every op records its parents and a backward rule on the output tensor;
``backward(loss)`` walks the graph once in reverse topological order and
accumulates gradients into leaf tensors (parameters). Arrays are float32 in
training, float64 for finite-difference gradient checks; ops preserve the
input dtype.
"""

from __future__ import annotations

import ctypes
import functools
import math
import sys
from typing import Callable, Sequence

import numpy as np

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_memory() -> None:
    """Keep memory freed by one pass in the process for the next (glibc only).

    A forward pass allocates every activation of its graph and frees them all
    when the graph is dropped. With glibc's default thresholds, which slide
    with the sizes seen so far, the freed memory is handed back to the kernel
    whenever enough of it ends up at the top of the heap, and the next pass
    page-faults it all in again: 15-30% of a pretraining job and of a
    classifier evaluation, more or less from run to run with the heap's
    layout. Here blocks under 32 MiB (every activation of the model1 shape)
    come from the heap, and the heap is trimmed only when more than 2 GiB at
    its top is free, the most mallopt takes. It runs once, on the first graph
    node, so a process that builds no graph (normalizing text, training a
    tokenizer) keeps glibc's defaults and their smaller footprint.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, (1 << 31) - 1)


class Tensor:
    """A dense array plus the graph edge that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple] | None = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """A named trainable leaf; ``grad`` persists and accumulates across backward calls."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name
        # np.zeros, not zeros_like: its pages stay untouched until a gradient lands
        self.grad = np.zeros(self.data.shape, self.data.dtype)

    def zero_grad(self) -> None:
        self.grad[...] = 0

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def _node(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    _keep_freed_memory()
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# Elementwise chains (GELU, softmax, layer norm, dropout) run over blocks of
# rows of about this many values, so their intermediates stay in cache
# instead of every pass streaming the whole array through memory.
_BLOCK_VALUES = 1 << 16


def _row_blocks(*arrays: np.ndarray):
    """Matching blocks of leading rows of arrays with the same leading shape.

    Each block is a (rows, last axis) view; blocks of a C-contiguous output
    can be written in place. A non-contiguous input is copied once.
    """
    rows = [a.reshape(-1, a.shape[-1] if a.ndim else 1) for a in arrays]
    step = max(1, _BLOCK_VALUES // max(1, rows[0].shape[1]))
    for start in range(0, rows[0].shape[0], step):
        yield [r[start : start + step] for r in rows]


def _binary_data(op: str, a: Tensor, b: Tensor, fn) -> np.ndarray:
    try:
        return fn(a.data, b.data)
    except ValueError:
        raise ValueError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    data = _binary_data("add", a, b, np.add)
    return _node(
        data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = _binary_data("sub", a, b, np.subtract)
    return _node(
        data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = _binary_data("mul", a, b, np.multiply)
    return _node(
        data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.shape),
            _unbroadcast(g * a.data, b.shape),
        ),
    )


def scale(a: Tensor, s: float) -> Tensor:
    return _node(a.data * s, (a,), lambda g: (g * s,))


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b, plus ``bias`` when given (any shape that broadcasts to the product's).

    The bias is added in place into the fresh product, so ``matmul(a, b,
    bias)`` equals ``add(matmul(a, b), bias)`` bit for bit, values and
    gradients, without a second product-sized array.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(f"matmul: operands must be at least 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    if a.data.ndim > 2 and b.data.ndim == 2:
        # (..., K) @ (K, N) as one 2-D GEMM over all leading rows; the weight
        # gradient is then a single a2.T @ g2 with no batch-sized temporary
        a2 = a.data.reshape(-1, a.shape[-1])
        data = (a2 @ b.data).reshape(a.shape[:-1] + (b.shape[1],))

        def backward(g):
            g2 = g.reshape(-1, g.shape[-1])
            return (g2 @ b.data.T).reshape(a.shape), a2.T @ g2

    else:
        data = a.data @ b.data

        def backward(g):
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
            return ga, gb

    if bias is None:
        return _node(data, (a, b), backward)
    try:
        fits = np.broadcast_shapes(data.shape, bias.shape) == data.shape
    except ValueError:
        fits = False
    if not fits:
        raise ValueError(
            f"matmul: bias {bias.shape} does not broadcast to the product {data.shape}"
        )
    data += bias.data

    def backward_with_bias(g):
        return backward(g) + (_unbroadcast(g, bias.shape) if bias.requires_grad else None,)

    return _node(data, (a, b, bias), backward_with_bias)


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0)
    return _node(data, (x,), lambda g: (g * (x.data > 0),))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU: 0.5x(1 + tanh(c(x + 0.044715 x^3)))."""
    xd = x.data
    t = np.empty(xd.shape, xd.dtype)
    data = np.empty(xd.shape, xd.dtype)
    # In place, block by block, in the order of the formula above. The cube is
    # x * x * x, not x**3 (float32 powf is ~50x slower on negative inputs), and
    # halving is exact, so 0.5(1 + t) * x equals 0.5x * (1 + t).
    for xb, tb, db in _row_blocks(xd, t, data):
        np.multiply(xb, xb, out=tb)
        tb *= xb
        tb *= 0.044715
        tb += xb
        tb *= _GELU_C
        np.tanh(tb, out=tb)
        np.add(tb, 1.0, out=db)
        db *= 0.5
        db *= xb

    def backward(g):
        # g * (0.5(1 + t) + 0.5x(1 - t^2) * c(1 + 3 * 0.044715 x^2))
        dx = np.empty(xd.shape, xd.dtype)
        for xb, tb, gb, db in _row_blocks(xd, t, g, dx):
            dinner = xb * xb
            dinner *= 3 * 0.044715
            dinner += 1.0
            dinner *= _GELU_C
            np.multiply(tb, tb, out=db)
            np.subtract(1.0, db, out=db)
            db *= 0.5
            db *= xb
            db *= dinner
            np.add(tb, 1.0, out=dinner)
            dinner *= 0.5
            db += dinner
            db *= gb
        return (dx,)

    return _node(data, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    return _node(t, (x,), lambda g: (g * (1.0 - t**2),))


def sigmoid(x: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-x.data))
    return _node(s, (x,), lambda g: (g * s * (1.0 - s),))


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    s = np.empty(x.shape, x.dtype)
    for xb, sb in _row_blocks(x.data, s):
        np.subtract(xb, xb.max(axis=-1, keepdims=True), out=sb)
        np.exp(sb, out=sb)
        sb /= sb.sum(axis=-1, keepdims=True)

    def backward(g):
        # (g - sum(g * s)) * s
        dx = np.empty(s.shape, s.dtype)
        for gb, sb, db in _row_blocks(g, s, dx):
            np.multiply(gb, sb, out=db)
            np.subtract(gb, db.sum(axis=-1, keepdims=True), out=db)
            db *= sb
        return (dx,)

    return _node(s, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, shift: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    if gain.shape != (x.shape[-1],) or shift.shape != (x.shape[-1],):
        raise ValueError(
            f"layer_norm: scale/shift must be ({x.shape[-1]},), got {gain.shape} and {shift.shape}"
        )
    xhat = np.empty(x.shape, x.dtype)
    data = np.empty(x.shape, x.dtype)
    inv = np.empty(x.shape[:-1] + (1,), x.dtype)
    for xb, hb, ib, db in _row_blocks(x.data, xhat, inv, data):
        np.subtract(xb, xb.mean(axis=-1, keepdims=True), out=hb)
        var = (hb**2).mean(axis=-1, keepdims=True)
        np.divide(1.0, np.sqrt(var + eps), out=ib)
        hb *= ib
        np.multiply(hb, gain.data, out=db)
        db += shift.data

    def backward(g):
        axes = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=axes)
        dshift = g.sum(axis=axes)
        dxhat = g * gain.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return dx, dgain, dshift

    return _node(data, (x, gain, shift), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None, train: bool) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-rate) so inference is identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout: training mode needs a random generator")
    keep = np.empty(x.shape, dtype=bool)
    data = np.empty(x.shape, x.dtype)
    factor = 1.0 / (1.0 - rate)
    # the uniforms are drawn block by block in C order, the same values one
    # rng.random(x.shape) call would give
    for xb, kb, db in _row_blocks(x.data, keep, data):
        np.greater_equal(rng.random(kb.shape), rate, out=kb)
        np.multiply(xb, kb, out=db)
        db *= factor

    def backward(g):
        dx = g * keep
        dx *= factor
        return (dx,)

    return _node(data, (x,), backward)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
        raise ValueError(f"embedding_lookup: id {bad} out of range for table of {table.shape[0]}")
    data = table.data[ids]

    def backward(g):
        dt = np.zeros_like(table.data)
        np.add.at(dt, ids, g)
        return (dt,)

    return _node(data, (table,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: int = -100) -> Tensor:
    """Mean negative log-likelihood over the last axis, skipping ignore_index targets.

    Returns a scalar; 0 with zero gradient when every target is ignored.
    """
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ValueError(
            f"cross_entropy: targets shape {targets.shape} does not match logits {logits.shape}"
        )
    flat_logits = logits.data.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)
    valid = flat_targets != ignore_index
    n_valid = int(valid.sum())
    if n_valid == 0:
        data = np.zeros((), dtype=logits.dtype)
        return _node(data, (logits,), lambda g: (np.zeros_like(logits.data),))
    picked_targets = flat_targets[valid]
    if picked_targets.min() < 0 or picked_targets.max() >= logits.shape[-1]:
        raise ValueError("cross_entropy: target class out of range")
    # ignored rows take no part in the loss, so only the others are normalized
    all_valid = n_valid == flat_targets.size
    rows = flat_logits if all_valid else flat_logits[valid]
    row_max = rows.max(axis=-1, keepdims=True)
    shifted = rows - row_max
    logsumexp = np.log(np.exp(shifted).sum(axis=-1)) + row_max[:, 0]
    picked = rows[np.arange(n_valid), picked_targets]
    data = np.asarray((logsumexp - picked).sum() / n_valid, dtype=logits.dtype)

    def backward(g):
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        probs[np.arange(n_valid), picked_targets] -= 1.0
        # a float64 weight, as the old per-row weights were: one rounding per value
        probs *= np.float64(1.0 / n_valid)
        probs = float(g) * probs
        if all_valid:
            return (probs.reshape(logits.shape),)
        grad = np.zeros(flat_logits.shape, dtype=logits.dtype)
        grad[valid] = probs
        return (grad.reshape(logits.shape),)

    return _node(data, (logits,), backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    sizes = [t.shape[axis] for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        slicer = [slice(None)] * g.ndim
        outs = []
        for i in range(len(tensors)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            outs.append(g[tuple(slicer)])
        return tuple(outs)

    return _node(data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int) -> Tensor:
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        return tuple(np.moveaxis(g, axis, 0)[i] for i in range(len(tensors)))

    return _node(data, tuple(tensors), backward)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    slicer = [slice(None)] * x.data.ndim
    slicer[axis] = slice(start, start + length)
    slicer = tuple(slicer)
    data = x.data[slicer]

    def backward(g):
        dx = np.zeros_like(x.data)
        dx[slicer] = g
        return (dx,)

    return _node(data, (x,), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = x.data.reshape(shape)
    return _node(data, (x,), lambda g: (g.reshape(x.shape),))


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    data = x.data.transpose(axes)
    inverse = tuple(np.argsort(axes))
    return _node(data, (x,), lambda g: (g.transpose(inverse),))


def reduce_sum(x: Tensor) -> Tensor:
    data = np.asarray(x.data.sum(), dtype=x.dtype)
    return _node(data, (x,), lambda g: (np.broadcast_to(g, x.shape).astype(x.dtype),))


def reduce_mean(x: Tensor) -> Tensor:
    n = x.data.size
    data = np.asarray(x.data.mean(), dtype=x.dtype)
    return _node(
        data, (x,), lambda g: ((np.broadcast_to(g, x.shape) / n).astype(x.dtype),)
    )


def _topo_order(loss: Tensor) -> list[Tensor]:
    # iterative DFS: recurrent graphs get deeper than the recursion limit
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable requires-grad leaf."""
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be a scalar, got shape {loss.shape}")
    if loss._consumed:
        raise RuntimeError("backward: graph already consumed; rerun the forward pass")
    loss._consumed = True
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._parents:
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg
        elif node.requires_grad:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g


def truncated_normal(
    shape: tuple[int, ...],
    std: float,
    rng: np.random.Generator,
    dtype=np.float32,
) -> np.ndarray:
    """Normal(0, std) resampled until within 2 std, the BERT-style initializer."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out.astype(dtype)
