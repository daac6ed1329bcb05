"""Reverse-mode automatic differentiation over dense numpy arrays.

Every op gives its output tensor a ``_Node``: an edge per input and a backward
rule that holds only the arrays it reads. ``backward(loss)`` walks the nodes
once in reverse topological order and adds gradients into leaf tensors
(parameters) as they arrive. Inside ``no_grad()`` ops compute the same arrays
and record nothing, so evaluation holds no graph.
Arrays are float32 in training, float64 for finite-difference gradient
checks; ops preserve the input dtype.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import math
import sys
from typing import Callable, NamedTuple, Sequence

import numpy as np

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_MAX = -4


@functools.cache
def _keep_freed_memory() -> None:
    """Keep memory freed by one pass in the process for the next (glibc only).

    A forward pass allocates every activation of its graph and frees them all
    when the graph is dropped. With glibc's default thresholds, which slide
    with the sizes seen so far, the freed memory is handed back to the kernel
    whenever enough of it ends up at the top of the heap, and the next pass
    page-faults it all in again: 15-30% of a pretraining job and of a
    classifier evaluation, more or less from run to run with the heap's
    layout. Here every block comes from the heap, none from a mapping of its
    own (a checkpoint's one read buffer, 56 MB at the model1 shape, would be
    mapped and faulted in again on every load), and the heap is trimmed only
    when more than 2 GiB at its top is free, the most mallopt takes. It runs
    once, on the first op, with or without a graph (an eval pass under
    ``no_grad`` frees as much), so a process that runs no op (normalizing
    text, training a tokenizer) keeps glibc's defaults and their smaller
    footprint.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_MAX, 0)
    mallopt(_M_TRIM_THRESHOLD, (1 << 31) - 1)


class _Node:
    """One recorded op in the graph: an edge per input, the backward rule, and whether
    ``backward`` has run the rule.

    An input's edge is the input's own ``_Node`` when a recorded op made it, the input itself
    when it is a ``Parameter``, and None when no gradient flows to it. A node holds no tensor
    an op made, so an intermediate the caller drops is freed during the forward, and its array
    with it unless a rule saved that array.
    """

    __slots__ = ("inputs", "rule", "consumed")

    def __init__(self, inputs: tuple, rule: Callable[[np.ndarray], tuple]):
        self.inputs = inputs
        self.rule = rule
        self.consumed = False


class _Rows(NamedTuple):
    """A gradient that is zero but at the distinct row indices ``ids`` of a ``shape`` array,
    where it holds ``rows``."""

    ids: np.ndarray
    rows: np.ndarray
    shape: tuple[int, ...]

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape, self.rows.dtype)
        out[self.ids] = self.rows
        return out


class Tensor:
    """A dense array and the ``_Node`` of the op that made it (None for a constant and for a
    result recorded without a graph). Only a ``Parameter`` holds a gradient."""

    __slots__ = ("data", "_node", "__weakref__")

    def __init__(self, data):
        self.data = np.asarray(data)
        self._node: _Node | None = None

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        """The value of a one-element tensor of any shape; ValueError for any other size."""
        return float(self.data.item())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """A named trainable leaf; ``grad`` accumulates across backward calls until released.

    ``grad`` is None until a backward reaches the parameter: its first contribution is added
    into a fresh zero buffer, and ``adam_step`` or ``zero_grad`` sets it back to None. From
    zero, adding each contribution as it arrives rounds exactly as summing them first would;
    onto a nonzero ``grad`` (several backward calls between two updates) it may round
    differently, and no library code does that.
    """

    __slots__ = ("name", "grad")
    requires_grad = True

    def __init__(self, name: str, data):
        super().__init__(data)
        self.name = name
        self.grad: np.ndarray | None = None

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


# read by every op; each thread (and asyncio task) has its own setting
_GRAD_ENABLED = contextvars.ContextVar("grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Within the block, ops record no graph: each returns a bare ``Tensor``.

    Every op computes exactly the array it computes outside the block, draws
    the same random numbers, and drops its backward rule and the arrays that
    rule would hold as soon as it returns. Blocks nest; the previous setting
    comes back on exit, also on an exception.
    """
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def _record(data: np.ndarray, inputs: Sequence[Tensor], rule) -> Tensor:
    """The op's result; with a ``_Node`` of ``rule`` when grad is enabled and an input needs one.

    ``rule`` maps the result's gradient to one gradient (or None) per input. It holds only
    what it reads: arrays, shapes and flags, never a ``Tensor``.
    """
    _keep_freed_memory()
    if not _GRAD_ENABLED.get():
        return Tensor(data)
    edges = tuple(t._node if t._node is not None else t if t.requires_grad else None for t in inputs)
    out = Tensor(data)
    if any(edge is not None for edge in edges):
        out._node = _Node(edges, rule)
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
    a_shape, b_shape = a.shape, b.shape
    return _record(data, (a, b), lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = _binary_data("sub", a, b, np.subtract)
    a_shape, b_shape = a.shape, b.shape
    return _record(data, (a, b), lambda g: (_unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = _binary_data("mul", a, b, np.multiply)
    a_data, b_data = a.data, b.data
    return _record(
        data,
        (a, b),
        lambda g: (_unbroadcast(g * b_data, a_data.shape), _unbroadcast(g * a_data, b_data.shape)),
    )


def scale(a: Tensor, s: float) -> Tensor:
    return _record(a.data * s, (a,), lambda g: (g * s,))


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
    a_data, b_data = a.data, b.data
    if a_data.ndim > 2 and b_data.ndim == 2:
        # (..., K) @ (K, N) as one 2-D GEMM over all leading rows; the weight
        # gradient is then a single a2.T @ g2 with no batch-sized temporary
        a_shape = a.shape
        a2 = a_data.reshape(-1, a_shape[-1])
        data = (a2 @ b_data).reshape(a_shape[:-1] + (b.shape[1],))

        def backward(g):
            g2 = g.reshape(-1, g.shape[-1])
            return (g2 @ b_data.T).reshape(a_shape), a2.T @ g2

    else:
        data = a_data @ b_data

        def backward(g):
            ga = _unbroadcast(g @ np.swapaxes(b_data, -1, -2), a_data.shape)
            gb = _unbroadcast(np.swapaxes(a_data, -1, -2) @ g, b_data.shape)
            return ga, gb

    return _with_bias("matmul", data, (a, b), backward, bias)


def _with_bias(op: str, data: np.ndarray, inputs: tuple[Tensor, ...], backward, bias: Tensor | None) -> Tensor:
    """``op``'s product ``data`` recorded with ``backward``, after ``bias`` is added into it in place."""
    if bias is None:
        return _record(data, inputs, backward)
    try:
        fits = np.broadcast_shapes(data.shape, bias.shape) == data.shape
    except ValueError:
        fits = False
    if not fits:
        raise ValueError(f"{op}: bias {bias.shape} does not broadcast to the product {data.shape}")
    data += bias.data
    bias_shape, bias_grad = bias.shape, bias.requires_grad

    def backward_with_bias(g):
        return backward(g) + (_unbroadcast(g, bias_shape) if bias_grad else None,)

    return _record(data, inputs + (bias,), backward_with_bias)


def linear(x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ wᵀ, plus ``bias`` when given, for ``x`` of (N, K) and ``w`` of (M, K).

    The product is ``matmul(x, transpose(w, (1, 0)), bias)``'s. The weight's
    gradient is ``gᵀ @ x``, made in ``w``'s own (M, K) layout, so a (V, H) table
    used as a decoder adds it into its ``grad`` without a pass over a transposed view.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ValueError(f"linear: x {x.shape} and w {w.shape} must be (N, K) and (M, K)")
    x_data, w_data = x.data, w.data
    data = x_data @ w_data.T

    def backward(g):
        return g @ w_data, g.T @ x_data

    return _with_bias("linear", data, (x, w), backward, bias)


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0)
    positive = x.data > 0
    return _record(data, (x,), lambda g: (g * positive,))


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_tanh(xb: np.ndarray, out: np.ndarray) -> np.ndarray:
    """tanh(c(x + 0.044715 x^3)) into ``out``: the forward's ops, in the forward's order, so
    the backward recomputes the same bits. The cube is x * x * x, not x**3 (float32 powf is
    ~50x slower on negative inputs)."""
    np.multiply(xb, xb, out=out)
    out *= xb
    out *= 0.044715
    out += xb
    out *= _GELU_C
    return np.tanh(out, out=out)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU: 0.5x(1 + tanh(c(x + 0.044715 x^3))).

    The graph keeps only the input: the backward recomputes the tanh term block by block
    instead of holding a third array as large as the input.
    """
    xd = x.data
    data = np.empty(xd.shape, xd.dtype)
    # In place, block by block, in the order of the formula above; halving is exact, so
    # 0.5(1 + t) * x equals 0.5x * (1 + t).
    for xb, db in _row_blocks(xd, data):
        _gelu_tanh(xb, db)
        db += 1.0
        db *= 0.5
        db *= xb

    def backward(g):
        # g * (0.5(1 + t) + 0.5x(1 - t^2) * c(1 + 3 * 0.044715 x^2))
        dx = np.empty(xd.shape, xd.dtype)
        for xb, gb, db in _row_blocks(xd, g, dx):
            tb = _gelu_tanh(xb, np.empty_like(xb))
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

    return _record(data, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    return _record(t, (x,), lambda g: (g * (1.0 - t**2),))


def sigmoid(x: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-x.data))
    return _record(s, (x,), lambda g: (g * s * (1.0 - s),))


def _softmax_rows(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Softmax of ``x`` over its last axis into ``out``, which may be ``x`` itself."""
    for xb, sb in _row_blocks(x, out):
        np.subtract(xb, xb.max(axis=-1, keepdims=True), out=sb)
        np.exp(sb, out=sb)
        sb /= sb.sum(axis=-1, keepdims=True)
    return out


def _softmax_rows_backward(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The gradient by the softmax's input, (g - sum(g * s)) * s, for softmax output ``s``."""
    dx = np.empty(s.shape, s.dtype)
    for gb, sb, db in _row_blocks(g, s, dx):
        np.multiply(gb, sb, out=db)
        np.subtract(gb, db.sum(axis=-1, keepdims=True), out=db)
        db *= sb
    return dx


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    s = _softmax_rows(x.data, np.empty(x.shape, x.dtype))
    return _record(s, (x,), lambda g: (_softmax_rows_backward(g, s),))


def _attention_groups(
    attention_mask: np.ndarray, queries: np.ndarray | None = None
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``attention``'s plan for a (B, T) mask and the packed rows that query (every row when
    ``queries`` is None): for each attended count L and query count r > 0, ascending in (L, r),
    the batch rows with those counts, ascending, their (G, L) packed rows and the (G, r) rows
    of their queries in ``q``. When every row queries, r is L and the two index arrays are one."""
    counts = np.count_nonzero(attention_mask, axis=1)
    offsets = np.cumsum(counts) - counts
    if queries is None:
        query_counts, query_offsets = counts, offsets
    else:
        # the batch row of each query: the last row starting at or before it
        owners = np.searchsorted(offsets, queries, side="right") - 1
        query_counts = np.bincount(owners, minlength=len(counts))
        query_offsets = np.cumsum(query_counts) - query_counts
    width = attention_mask.shape[1] + 1
    keys = counts * width + query_counts
    groups = []
    for key in np.unique(keys[query_counts > 0]):
        batch_rows = np.flatnonzero(keys == key)
        length, n_queries = divmod(int(key), width)
        index = offsets[batch_rows, None] + np.arange(length)
        query_index = index if queries is None else query_offsets[batch_rows, None] + np.arange(n_queries)
        groups.append((batch_rows, index, query_index))
    return groups


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

    gain_data = gain.data

    def backward(g):
        axes = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=axes)
        dshift = g.sum(axis=axes)
        dxhat = g * gain_data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return dx, dgain, dshift

    return _record(data, (x, gain, shift), backward)


def _keep_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator) -> np.ndarray:
    """``rng.integers(0, 2**16, shape, dtype=np.uint16) >= round(rate * 2**16)``.

    A value is kept with probability 1 - round(rate * 2**16) / 2**16. The mask is one draw of
    the whole shape, the same rule for every bit generator: ``integers`` cuts each 32-bit
    output of the generator into two 16-bit words, so the draw takes well under half the time
    of a float64 ``rng.random(shape) >= rate`` and 2 bytes a value. Drawn in parts, the words
    of an odd-sized part would differ, so the mask is never split.
    """
    words = rng.integers(0, 1 << 16, size=shape, dtype=np.uint16)
    return np.greater_equal(words, round(rate * (1 << 16)))


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-rate) so inference is identity.

    It drops exactly when given a generator and ``rate`` is above 0; with no
    generator (evaluation) it returns ``x``. The keep mask is
    ``_keep_mask(x.shape, rate, rng)``, 16-bit words against the threshold
    ``round(rate * 2**16)``, and the result is ``(x * keep) * (1 / (1 - rate))``.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return x
    keep = _keep_mask(x.shape, rate, rng)
    data = np.empty(x.shape, x.dtype)
    factor = 1.0 / (1.0 - rate)
    for xb, kb, db in _row_blocks(x.data, keep, data):
        np.multiply(xb, kb, out=db)
        db *= factor

    def backward(g):
        dx = g * keep
        dx *= factor
        return (dx,)

    return _record(data, (x,), backward)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """``table[ids]``; the table's gradient is ``_Rows``: the distinct ids and their summed rows."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
        raise ValueError(f"embedding_lookup: id {bad} out of range for table of {table.shape[0]}")
    data = table.data[ids]
    flat_ids, table_shape, dtype = ids.reshape(-1), table.shape, table.dtype

    def backward(g):
        # each id's rows summed in their order into zeros, as np.add.at sums them into a table
        distinct, inverse = np.unique(flat_ids, return_inverse=True)
        rows = np.zeros((distinct.size,) + table_shape[1:], dtype)
        np.add.at(rows, inverse, g.reshape((flat_ids.size,) + table_shape[1:]))
        return (_Rows(distinct, rows, table_shape),)

    return _record(data, (table,), backward)


def gather_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """``x[rows]`` for distinct ``rows``: its gradient is set, not summed, into place."""
    data = x.data[rows]
    x_shape, dtype = x.shape, x.dtype

    def backward(g):
        dx = np.zeros(x_shape, dtype)
        dx[rows] = g
        return (dx,)

    return _record(data, (x,), backward)


def scatter_rows(x: Tensor, rows: np.ndarray, n_rows: int) -> Tensor:
    """The rows of ``x`` placed at distinct ``rows`` of an (n_rows, ...) array of zeros."""
    data = np.zeros((n_rows,) + x.shape[1:], x.dtype)
    data[rows] = x.data
    return _record(data, (x,), lambda g: (g[rows],))


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    heads: int,
    attention_mask: np.ndarray,
    rate: float = 0.0,
    rng: np.random.Generator | None = None,
    queries: np.ndarray | None = None,
) -> Tensor:
    """Multi-head scaled dot-product attention, softmax(q kᵀ / √d) v, over packed rows.

    ``attention_mask`` is the (B, T) 0/1 mask of a padded batch; ``k`` and ``v``
    are the (N, H) rows of its N attended positions in C order. ``queries``
    names the packed rows that query, strictly ascending, and ``q`` holds their
    (R, H) rows; None means every row, with ``q`` of (N, H). The result is the
    (R, H) context of the querying rows. d is H / ``heads``. Each row's
    queries attend over that row's attended positions only, so pads take no
    part and the batch's padded width T changes no bit.

    The rows with the same attended count L and query count r run as one group
    (``_attention_groups``), on (G, A, r, d) queries and (G, A, L, d) keys and
    values: ``s = (q * (1 / √d)) @ kᵀ``, softmax, probability dropout and
    ``p @ v``; the backward scales ``dq`` by the same 1 / √d. Probability
    dropout runs, as ``dropout`` does, exactly when ``rng`` is given and
    ``rate`` is above 0. It masks each group's (G, A, r, L) probabilities as
    ``dropout`` masks an array, ``_keep_mask((G, A, r, L), rate, rng)``, one
    group after another in the order of ``_attention_groups``. A batch row without a query draws
    nothing, and its keys and values get zero gradients.
    """
    n, hidden = k.shape
    if v.shape != k.shape or hidden % heads or n != np.count_nonzero(attention_mask):
        raise ValueError(
            f"attention: q, k, v {q.shape}, {k.shape}, {v.shape} are not the mask's rows in {heads} heads")
    if queries is not None:
        queries = np.asarray(queries)
        if queries.ndim != 1 or (queries.size and (queries[0] < 0 or queries[-1] >= n)) \
                or (np.diff(queries) <= 0).any():
            raise ValueError(f"attention: queries must be packed rows in [0, {n}), strictly ascending")
    if q.shape != (n if queries is None else len(queries), hidden):
        raise ValueError(f"attention: q {q.shape} does not hold one row of width {hidden} per query")
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"attention: rate must be in [0, 1), got {rate}")
    dropping = rng is not None and rate > 0.0
    head_dim = hidden // heads
    scale_q = 1.0 / math.sqrt(head_dim)
    factor = 1.0 / (1.0 - rate)
    groups = _attention_groups(attention_mask, queries)

    def split(a: np.ndarray, index: np.ndarray) -> np.ndarray:
        # packed (N, H) rows -> (G, A, L, head_dim) heads of the group's rows
        return a[index].reshape(index.shape + (heads, head_dim)).transpose(0, 2, 1, 3)

    def merge(heads_out: np.ndarray, index: np.ndarray, out: np.ndarray) -> None:
        # (G, A, L, head_dim) -> the group's packed rows of ``out``
        out[index] = heads_out.transpose(0, 2, 1, 3).reshape(index.shape + (hidden,))

    scaled_q = q.data * scale_q
    out = np.empty(q.shape, q.dtype)
    saved = []
    for _, index, query_index in groups:
        qg, kg, vg = split(scaled_q, query_index), split(k.data, index), split(v.data, index)
        s = qg @ np.swapaxes(kg, -1, -2)
        p = _softmax_rows(s, s)
        pd, keep = p, None
        if dropping:
            keep = _keep_mask(p.shape, rate, rng)
            pd = np.multiply(p, keep)
            pd *= factor
        merge(pd @ vg, query_index, out)
        saved.append((index, query_index, qg, kg, vg, p, pd, keep))

    q_shape = q.shape

    def backward(g):
        dq = np.empty(q_shape, g.dtype)
        dk, dv = (np.zeros((n, hidden), g.dtype) for _ in range(2))
        for index, query_index, qg, kg, vg, p, pd, keep in saved:
            gctx = split(g, query_index)
            dp = gctx @ np.swapaxes(vg, -1, -2)
            merge(np.swapaxes(pd, -1, -2) @ gctx, index, dv)
            if dropping:
                dp *= keep
                dp *= factor
            ds = _softmax_rows_backward(dp, p)
            merge(ds @ kg, query_index, dq)
            merge(np.swapaxes(np.swapaxes(qg, -1, -2) @ ds, -1, -2), index, dk)
        dq *= scale_q
        return dq, dk, dv

    return _record(out, (q, k, v), backward)


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
    logits_shape, dtype = logits.shape, logits.dtype
    if n_valid == 0:
        return _record(np.zeros((), dtype), (logits,), lambda g: (np.zeros(logits_shape, dtype),))
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
    data = np.asarray((logsumexp - picked).sum() / n_valid, dtype=dtype)
    flat_shape = flat_logits.shape

    def backward(g):
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        probs[np.arange(n_valid), picked_targets] -= 1.0
        # a float64 weight, as the old per-row weights were: one rounding per value
        probs *= np.float64(1.0 / n_valid)
        probs = float(g) * probs
        if all_valid:
            return (probs.reshape(logits_shape),)
        grad = np.zeros(flat_shape, dtype=dtype)
        grad[valid] = probs
        return (grad.reshape(logits_shape),)

    return _record(data, (logits,), backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    sizes = [t.shape[axis] for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        slicer = [slice(None)] * g.ndim
        outs = []
        for i in range(len(sizes)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            outs.append(g[tuple(slicer)])
        return tuple(outs)

    return _record(data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int) -> Tensor:
    data = np.stack([t.data for t in tensors], axis=axis)
    count = len(tensors)

    def backward(g):
        return tuple(np.moveaxis(g, axis, 0)[i] for i in range(count))

    return _record(data, tuple(tensors), backward)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    slicer = [slice(None)] * x.data.ndim
    slicer[axis] = slice(start, start + length)
    slicer = tuple(slicer)
    data = x.data[slicer]
    x_shape, dtype = x.shape, x.dtype

    def backward(g):
        dx = np.zeros(x_shape, dtype)
        dx[slicer] = g
        return (dx,)

    return _record(data, (x,), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = x.data.reshape(shape)
    x_shape = x.shape
    return _record(data, (x,), lambda g: (g.reshape(x_shape),))


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    data = x.data.transpose(axes)
    inverse = tuple(np.argsort(axes))
    return _record(data, (x,), lambda g: (g.transpose(inverse),))


def reduce_sum(x: Tensor) -> Tensor:
    x_shape, dtype = x.shape, x.dtype
    data = np.asarray(x.data.sum(), dtype=dtype)
    return _record(data, (x,), lambda g: (np.broadcast_to(g, x_shape).astype(dtype),))


def reduce_mean(x: Tensor) -> Tensor:
    n, x_shape, dtype = x.data.size, x.shape, x.dtype
    data = np.asarray(x.data.mean(), dtype=dtype)
    return _record(data, (x,), lambda g: ((np.broadcast_to(g, x_shape) / n).astype(dtype),))


def lstm_layer(x: Tensor, weights: Sequence[Tensor], attention_mask: np.ndarray, d_h: int) -> Tensor:
    """Both directions of one bidirectional LSTM layer over time-major ``x`` (T, B, D).

    ``weights`` holds 24 tensors: for the forward and then the backward
    direction, for each gate in (input, forget, cell, output) order, the input
    weights (D, d_h), the recurrent weights (d_h, d_h) and the bias (d_h,).
    The cell candidate is tanh, the other gates sigmoid; ``c = f*c + i*g`` and
    ``h = o * tanh(c)``. ``attention_mask`` is (B, T): at a pad step the state
    carries over unchanged, so pad positions never leak into real ones.
    Returns (T, B, 2 * d_h), the forward state at each step and then the
    backward one.

    Per direction the gate weights are concatenated into (D, 4 d_h),
    (d_h, 4 d_h) and (4 d_h,), and the input projection of every step is one
    GEMM. The recurrence runs in numpy with no graph nodes, both directions
    in the same array ops, each pre-activation summed as
    ``(x_t @ w_x + h @ w_h) + b``. The backward is BPTT by hand; each weight
    gradient is one GEMM over all steps.
    """
    if len(weights) != 24:
        raise ValueError(f"lstm_layer: expected 24 weight tensors, got {len(weights)}")
    steps, batch, d_in = x.shape
    if attention_mask.shape != (batch, steps):
        raise ValueError(f"lstm_layer: mask {attention_mask.shape} does not match x {x.shape}")
    dtype = x.dtype
    h4 = 4 * d_h
    cell_cols = slice(2 * d_h, 3 * d_h)

    def stacked(kind: int) -> np.ndarray:
        # kind 0, 1, 2: w_x, w_h, b; the four gates side by side, one row per direction
        return np.stack([
            np.concatenate([w.data for w in weights[12 * d + kind : 12 * (d + 1) : 3]], axis=-1)
            for d in (0, 1)
        ])

    wx, wh, b = stacked(0), stacked(1), stacked(2)[:, None, :]
    # Every array below is (direction, step, ...), each direction in the order it
    # runs: the backward one reads time reversed.
    xs = np.stack([x.data, x.data[::-1]]).reshape(2, steps * batch, d_in)
    mask = attention_mask.T.astype(dtype)
    step_mask = np.stack([mask, mask[::-1]])[..., None]
    carry = 1.0 - step_mask
    xw = (xs @ wx).reshape(2, steps, batch, h4)
    acts = np.empty((2, steps, batch, h4), dtype)
    tanh_c, hs, cs = (np.empty((2, steps, batch, d_h), dtype) for _ in range(3))
    pre = np.empty((2, batch, h4), dtype)
    h = c = np.zeros((2, batch, d_h), dtype)
    for t in range(steps):
        a = acts[:, t]
        np.add(xw[:, t], h @ wh, out=pre)
        pre += b
        # 1 / (1 + exp(-z)), as ``sigmoid`` evaluates it, over all four gates; then
        # the cell's columns again, as tanh of the pre-activation
        np.negative(pre, out=a)
        np.exp(a, out=a)
        a += 1.0
        np.divide(1.0, a, out=a)
        np.tanh(pre[..., cell_cols], out=a[..., cell_cols])
        c_new = a[..., d_h : 2 * d_h] * c
        c_new += a[..., :d_h] * a[..., cell_cols]
        h_new = a[..., 3 * d_h :] * np.tanh(c_new, out=tanh_c[:, t])
        m, k = step_mask[:, t], carry[:, t]
        h = np.add(h_new * m, h * k, out=hs[:, t])
        c = np.add(c_new * m, c * k, out=cs[:, t])
    out = np.concatenate([hs[0], hs[1, ::-1]], axis=-1)
    x_grad = x.requires_grad

    def backward(g):
        gy = np.stack([g[:, :, :d_h], g[::-1, :, d_h:]])
        # the states each step started from: its predecessor's, zeros for the first
        h_prev, c_prev = np.zeros_like(hs), np.zeros_like(cs)
        h_prev[:, 1:], c_prev[:, 1:] = hs[:, :-1], cs[:, :-1]
        i, f, cell, o = (acts[..., k * d_h : (k + 1) * d_h] for k in range(4))
        # each activation's derivative by its pre-activation
        dact = acts * (1.0 - acts)
        dact[..., cell_cols] = 1.0 - cell * cell
        # d h_new / d c_new
        dc_dh = o * (1.0 - tanh_c * tanh_c)
        dpre = np.empty(acts.shape, dtype)
        dh = dc = np.zeros((2, batch, d_h), dtype)
        wh_t = wh.transpose(0, 2, 1)
        for t in reversed(range(steps)):
            dh = dh + gy[:, t]
            m, k = step_mask[:, t], carry[:, t]
            dh_new = dh * m
            dc_new = dc * m
            dc_new += dh_new * dc_dh[:, t]
            p = dpre[:, t]
            np.multiply(dc_new, cell[:, t], out=p[..., :d_h])
            np.multiply(dc_new, c_prev[:, t], out=p[..., d_h : 2 * d_h])
            np.multiply(dc_new, i[:, t], out=p[..., cell_cols])
            np.multiply(dh_new, tanh_c[:, t], out=p[..., 3 * d_h :])
            p *= dact[:, t]
            dc = dc * k + dc_new * f[:, t]
            dh = dh * k + p @ wh_t
        dpre = dpre.reshape(2, steps * batch, h4)
        dwx = xs.transpose(0, 2, 1) @ dpre
        dwh = h_prev.reshape(2, steps * batch, d_h).transpose(0, 2, 1) @ dpre
        db = dpre.sum(axis=1)
        grads = [
            grad[d][..., k * d_h : (k + 1) * d_h]
            for d in (0, 1) for k in range(4) for grad in (dwx, dwh, db)
        ]
        dx = None
        if x_grad:
            dxs = (dpre @ wx.transpose(0, 2, 1)).reshape(2, steps, batch, d_in)
            dx = dxs[0] + dxs[1, ::-1]
        return (dx, *grads)

    return _record(out, (x, *weights), backward)


def _topo_order(root: _Node) -> list[_Node]:
    """The nodes reachable from ``root``, each after the nodes of its inputs."""
    # iterative DFS: recurrent graphs get deeper than the recursion limit
    order: list[_Node] = []
    visited: set[_Node] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for edge in node.inputs:
            if type(edge) is _Node and edge not in visited:
                stack.append((edge, False))
    return order


def _add_to_leaf(leaf: Parameter, grad) -> None:
    buf = leaf.grad
    if buf is None:
        buf = leaf.grad = np.zeros_like(leaf.data)
    if type(grad) is _Rows:
        buf[grad.ids] += grad.rows
    else:
        buf += grad


def backward(loss: Tensor) -> None:
    """Add d(loss)/d(p) into the ``grad`` of every reachable ``Parameter`` p.

    The graph holds nodes and leaves, not the tensors the ops made, so what
    lives until here is what the rules saved. The pass runs each node's rule
    once, in reverse topological order. A node's incoming gradients are summed
    into one array for its rule; a leaf's are added into its ``grad`` as they
    arrive. ``embedding_lookup`` hands its table the distinct ids and their
    summed rows (``_Rows``), which are added into those rows of the ``grad``;
    only a table that is not a leaf gets them as a dense array. Each node drops
    its inputs and rule once the rule has run, so the arrays the rule holds are
    freed while the pass goes on. A graph is therefore good for one backward: a
    second one through any of its nodes raises.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be a scalar, got shape {loss.shape}")
    root = loss._node
    if root is None:
        if loss.requires_grad:
            _add_to_leaf(loss, np.ones_like(loss.data))
        return
    order = _topo_order(root)
    if any(node.consumed for node in order):
        raise RuntimeError("backward: graph already consumed; rerun the forward pass")
    grads: dict[_Node, np.ndarray] = {root: np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(node, None)
        inputs, rule = node.inputs, node.rule
        node.inputs, node.rule, node.consumed = (), None, True
        if g is None:
            continue
        for edge, grad in zip(inputs, rule(g)):
            if grad is None or edge is None:
                continue
            if type(edge) is not _Node:
                _add_to_leaf(edge, grad)
                continue
            if type(grad) is _Rows:
                grad = grad.dense()
            grads[edge] = grads[edge] + grad if edge in grads else grad


def truncated_normal(
    shape: tuple[int, ...],
    std: float,
    rng: np.random.Generator,
    dtype=np.float32,
) -> np.ndarray:
    """Normal(0, std) resampled until within 2 std, the BERT-style initializer.

    Draws ``_BLOCK_VALUES`` float64 values at a time straight into the ``dtype`` output and
    records the flat indices outside 2 std, then redraws only those, in C order, until none
    is left. The stream and the bits are those of one whole-array draw whose out-of-range
    values are redrawn by mask.
    """
    out = np.empty(shape, dtype=dtype)
    flat = out.reshape(-1)
    bad = [np.empty(0, dtype=np.intp)]
    for start in range(0, flat.size, _BLOCK_VALUES):
        draw = rng.normal(0.0, std, size=min(_BLOCK_VALUES, flat.size - start))
        flat[start : start + draw.size] = draw
        bad.append(start + np.flatnonzero(np.abs(draw) > 2 * std))
    redraw = np.concatenate(bad)
    while redraw.size:
        draw = rng.normal(0.0, std, size=redraw.size)
        flat[redraw] = draw
        redraw = redraw[np.abs(draw) > 2 * std]
    return out
