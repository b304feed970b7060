"""Reverse-mode autodiff over a fixed set of numpy kernels.

Every value is a Tensor wrapping a floating-point ndarray; ops build a graph
of parent links plus a backward closure. Tensor(data) keeps a floating dtype
(anything else becomes float64), and ops take their dtype from their operands
and never introduce a wider one: a model's graph runs in FLOAT, the dtype of
its parameters, while grad_check's graphs run in float64 because their
parameters are float64 copies. 2-D products run through BLAS on a
multiple of MATMUL_PAD rows, the tail zero-padded; attention's 3-D per-head
products go through non-optimized np.einsum; the causal softmax uses
cumulative sums/maxima. So each output row is computed
independently of how many later rows sit in the input and of how many other
sessions are stacked beside it. That is what makes causal forward passes
bit-identical under input truncation, and a session's rows in a batched
forward bit-identical to its own forward. Gradients need only be
deterministic for a given shape, so matmul's backward is plain BLAS.

Packed sessions of any lengths travel as (R, d) rows through the row-wise
ops. attention is one node, as lstm_cell is: it splits the query/key/value
rows of B equal-length sessions into (B·H, L, hd) per-head stacks and merges
the heads' outputs back into rows. The softmaxes work on the last axis.

backward() frees the graph as it goes: once a node's backward has run, its
grad, closure and parent links are dropped, so only leaf parameters keep
gradients and a batch's activations are released during the backward pass.
A node's first gradient is a fresh 0 + g, with the bits of zeros plus g and
no zero-fill; later ones add in place. Leaf gradients are views of the
trainer's gradient vector: training binds each parameter's grad to its view
before a minibatch, so backward accumulates there in place.
Inference runs under no_grad(), which links no graph at all: each activation
is freed once the next op has read it, and values are the same bit for bit.

Non-finite values are caught at the boundaries, not on every op result.
Tensors that callers build with Tensor(data) and the loss reject NaN/Inf
with a NumericError, so training divergence stops at the batch that
caused it; adam_step rejects non-finite gradients; each predictor row passes
domain.check_prob_rows, rollout rows included; and load_checkpoint refuses
non-finite weights in a model's flat vector, whose parameter_view()s skip the
check, as do op results (built by _result()). Every op passes NaN on (relu
too), so a NaN in a weight reaches the loss or the row check.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from ..errors import ConstraintViolation, NumericError

PROB_FLOOR = 1e-12
LAYER_NORM_EPS = 1e-12
# matmul's forward makes each BLAS call on a multiple of this many rows.
MATMUL_PAD = 8
# The one precision of model parameters, activations, gradients, Adam state
# and checkpoints.
FLOAT = np.dtype(np.float32)

_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Within the block, ops record no parents or backward closures."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward_fn: Callable[[np.ndarray], None] | None = None,
        name: str = "",
    ) -> None:
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError(
                f"non-finite values in tensor {name or '<unnamed>'} "
                f"(shape {arr.shape})"
            )
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        if not _grad_enabled:
            parents, backward_fn = (), None
        self._parents = parents
        self._backward_fn = backward_fn
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def needs_grad(self) -> bool:
        return self.requires_grad or bool(self._parents)

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate gradients of this (scalar) tensor into the graph."""
        if self.data.size != 1:
            raise NumericError(
                f"backward() needs a scalar, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while topo:
            # popping lets a finished node's activations go as soon as
            # nothing else holds it
            node = topo.pop()
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
            if node._parents:
                # every consumer of this node ran before it: tear it down
                node.grad = None
                node._backward_fn = None
                node._parents = ()

    def __repr__(self) -> str:
        return f"Tensor(name={self.name!r}, shape={self.shape})"


def _result(
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    backward_fn: Callable[[np.ndarray], None],
) -> Tensor:
    """An op's output, built without Tensor's finiteness check: the boundaries
    named in the module doc catch non-finite values instead."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    if _grad_enabled:
        out._parents, out._backward_fn = parents, backward_fn
    else:
        out._parents, out._backward_fn = (), None
    out.name = ""
    return out


def parameter_view(data: np.ndarray, name: str) -> Tensor:
    """A parameter on ``data`` itself, unscanned: a view of a model's flat vector."""
    out = _result(data, (), None)
    out.requires_grad, out.name = True, name
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.needs_grad:
        return
    if t.grad is None:
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t.grad += g


def _accum_at(t: Tensor, where, g: np.ndarray) -> None:
    """Add ``g`` into the ``where`` part of t's gradient, in place."""
    if not t.needs_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad[where] += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g: np.ndarray) -> None:
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _result(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g: np.ndarray) -> None:
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _result(a.data * b.data, (a, b), backward)


def scale(a: Tensor, factor: float) -> Tensor:
    def backward(g: np.ndarray) -> None:
        _accum(a, g * factor)

    return _result(a.data * factor, (a,), backward)


def _padded_product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w in one BLAS call on the leading rows - rows % MATMUL_PAD rows,
    written in place, and one on the tail zero-padded to MATMUL_PAD rows.

    Every call's row count is a multiple of the GEMM micro-kernel's height, so
    BLAS runs each row through the same full-height kernel (never gemv or an
    edge kernel): a row's bits depend neither on how many rows are beside it
    nor on where it sits in the stack.
    """
    rows = x.shape[0]
    full = rows - rows % MATMUL_PAD
    out = np.empty((rows, w.shape[1]), dtype=np.result_type(x, w))
    np.matmul(x[:full], w, out=out[:full])
    if full < rows:
        tail = np.zeros((MATMUL_PAD, x.shape[1]), dtype=x.dtype)
        tail[: rows - full] = x[full:]
        out[full:] = (tail @ w)[: rows - full]
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product: row-stable padded calls forward, plain BLAS backward."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ConstraintViolation(
            f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}"
        )

    def backward(g: np.ndarray) -> None:
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _result(_padded_product(a.data, b.data), (a, b), backward)


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ConstraintViolation(f"transpose expects 2-D input, got {x.data.shape}")

    def backward(g: np.ndarray) -> None:
        _accum(x, g.T)

    return _result(x.data.T.copy(), (x,), backward)


def relu(x: Tensor) -> Tensor:
    """max(x, 0); NaN stays NaN, so a non-finite input still reaches the loss."""
    mask = x.data > 0

    def backward(g: np.ndarray) -> None:
        _accum(x, g * mask)

    return _result(np.maximum(x.data, 0.0), (x,), backward)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def backward(g: np.ndarray) -> None:
        _accum(x, g * (1.0 - y * y))

    return _result(y, (x,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function through exp(-|x|), which never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)

    def backward(g: np.ndarray) -> None:
        _accum(x, g * y * (1.0 - y))

    return _result(y, (x,), backward)


def lstm_cell(gates: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step: (h, c) from (B, 4H) gate pre-activations in (input,
    forget, cell, output) order and the (B, H) previous cell state.

    c = sigmoid(f)·c_prev + sigmoid(i)·tanh(g) and h = sigmoid(o)·tanh(c),
    as two nodes with hand-written backwards. The values are those of
    sigmoid, tanh, mul and add applied to the same column slices, bit for
    bit.
    """
    z = gates.data
    width = c_prev.data.shape[1]
    if z.ndim != 2 or z.shape != (c_prev.data.shape[0], 4 * width):
        raise ConstraintViolation(
            f"lstm_cell expects (B, 4H) gates for a (B, H) state, got {z.shape} "
            f"and {c_prev.data.shape}"
        )
    cols = [(slice(None), slice(j * width, (j + 1) * width)) for j in range(4)]
    i, f = _sigmoid(z[cols[0]]), _sigmoid(z[cols[1]])
    g = np.tanh(z[cols[2]])
    o = _sigmoid(z[cols[3]])

    def cell_backward(dc: np.ndarray) -> None:
        _accum_at(gates, cols[0], dc * g * i * (1.0 - i))
        _accum_at(gates, cols[1], dc * c_prev.data * f * (1.0 - f))
        _accum_at(gates, cols[2], dc * i * (1.0 - g * g))
        _accum(c_prev, dc * f)

    c = _result(f * c_prev.data + i * g, (gates, c_prev), cell_backward)
    tanh_c = np.tanh(c.data)

    def output_backward(dh: np.ndarray) -> None:
        _accum_at(gates, cols[3], dh * tanh_c * o * (1.0 - o))
        _accum(c, dh * o * (1.0 - tanh_c * tanh_c))

    return _result(o * tanh_c, (gates, c), output_backward), c


def layer_norm(x: Tensor) -> Tensor:
    """Normalize each row to mean 0, variance 1 (affine rescale is separate).

    LAYER_NORM_EPS sits inside the square root; 1e-12 keeps a float64 row's output
    variance within 1e-9 of 1 for any non-degenerate row.
    """
    if x.data.ndim != 2:
        raise ConstraintViolation(f"layer_norm expects 2-D input, got {x.data.shape}")
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    y = (x.data - mu) * inv

    def backward(g: np.ndarray) -> None:
        g_mean = g.mean(axis=1, keepdims=True)
        gy_mean = (g * y).mean(axis=1, keepdims=True)
        _accum(x, inv * (g - g_mean - y * gy_mean))

    return _result(y, (x,), backward)


def _causal_probs(x: np.ndarray, offset: int = 0) -> np.ndarray:
    """Softmax of row i of each matrix in x over its columns j <= offset + i;
    exact zeros beyond. Running maxima and cumulative sums make row i's result
    independent of any later column, bit for bit."""
    run_max = np.maximum.accumulate(x, axis=-1)
    m = np.diagonal(run_max, offset, axis1=-2, axis2=-1)
    e = np.tril(np.exp(np.tril(x - m[..., None], offset)), offset)
    denom = np.diagonal(np.cumsum(e, axis=-1), offset, axis1=-2, axis2=-1)
    return e / denom[..., None]


def _softmax(x: np.ndarray) -> np.ndarray:
    """Plain softmax over the last axis."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_backward(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of a softmax's input from the output ``y`` and its gradient ``g``."""
    return y * (g - (y * g).sum(axis=-1, keepdims=True))


def _softmax_result(y: np.ndarray, x: Tensor) -> Tensor:
    """Softmax output ``y`` over the last axis of ``x``, with its backward."""

    def backward(g: np.ndarray) -> None:
        _accum(x, _softmax_backward(y, g))

    return _result(y, (x,), backward)


def causal_softmax(scores: Tensor) -> Tensor:
    """Row-wise softmax over columns j <= i of one square (L, L) matrix or a
    (N, L, L) stack of them; exact zeros above the diagonal."""
    x = scores.data
    if x.ndim not in (2, 3) or x.shape[-2] != x.shape[-1]:
        raise ConstraintViolation(
            f"causal_softmax expects square matrices, got {x.shape}"
        )
    return _softmax_result(_causal_probs(x), scores)


def softmax_rows(x: Tensor) -> Tensor:
    """Plain softmax over the last axis of 2-D or 3-D input (the output heads)."""
    if x.data.ndim not in (2, 3):
        raise ConstraintViolation(
            f"softmax_rows expects 2-D or 3-D input, got {x.data.shape}"
        )
    return _softmax_result(_softmax(x.data), x)


def attention(
    qkv: Tensor, n_batch: int, n_heads: int, causal: bool, past: np.ndarray | None = None
) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention as one node.

    ``qkv`` holds B sessions' Q rows each, session after session, as
    (B·Q, 3·H·hd) query, key and value columns. A session's keys and values
    are its ``past`` rows, if any, then its own: ``past`` is the sessions'
    cached (B, n, 2·H·hd) key/value prefix, and causal query i sees keys
    j <= n + i. Returns the merged (B·Q, H·hd) head outputs and the
    (B·H, Q, n + Q) weights.

    The values are the unfused graph's, bit for bit: C-contiguous (B·H, L, hd)
    per-head stacks (einsum's summation order follows its operands' strides)
    into non-optimized np.einsum, scores times 1/sqrt(hd), then the causal or
    plain softmax. The backward runs that graph's einsums in its order.
    """
    rows, cols = qkv.data.shape
    width, n_past = cols // 3, 0 if past is None else past.shape[1]
    if cols % (3 * n_heads) or rows % n_batch or (
        past is not None and past.shape != (n_batch, n_past, 2 * width)
    ):
        raise ConstraintViolation(
            f"attention expects (B·Q, 3·H·hd) rows and a (B, n, 2·H·hd) past for B={n_batch}, "
            f"H={n_heads}, got {qkv.data.shape} and {None if past is None else past.shape}"
        )
    hd, q_len = width // n_heads, rows // n_batch
    keys_values = qkv.data[:, width:]
    if past is not None:
        own = keys_values.reshape(n_batch, q_len, 2 * width)
        keys_values = np.concatenate([past, own], axis=1).reshape(-1, 2 * width)

    def stacks(x: np.ndarray) -> np.ndarray:
        """(B·L, H·hd) rows -> C-contiguous (B·H, L, hd) per-head stacks."""
        length = x.shape[0] // n_batch
        heads = x.reshape(n_batch, length, n_heads, hd).transpose(0, 2, 1, 3)
        return np.ascontiguousarray(heads.reshape(-1, length, hd))

    def merged(x: np.ndarray) -> np.ndarray:
        """(B·H, L, hd) per-head stacks -> (B·L, H·hd) rows."""
        length = x.shape[1]
        return x.reshape(n_batch, n_heads, length, hd).transpose(0, 2, 1, 3).reshape(-1, width)

    q = stacks(qkv.data[:, :width])
    k, v = stacks(keys_values[:, :width]), stacks(keys_values[:, width:])
    factor = 1.0 / math.sqrt(hd)  # a Python float: it keeps the operands' dtype
    scores = np.einsum("bid,bjd->bij", q, k) * factor
    alpha = _causal_probs(scores, n_past) if causal else _softmax(scores)

    def backward(g: np.ndarray) -> None:
        g_out = stacks(g)
        d_alpha = np.einsum("bid,bjd->bij", g_out, v)
        d_v = np.einsum("bij,bid->bjd", alpha, g_out)
        d_scores = _softmax_backward(alpha, d_alpha) * factor
        d_q = np.einsum("bij,bjd->bid", d_scores, k)
        d_k = np.einsum("bid,bij->bjd", q, d_scores)
        for part, grad in enumerate((d_q, d_k[:, n_past:], d_v[:, n_past:])):
            _accum_at(qkv, (slice(None), slice(part * width, (part + 1) * width)), merged(grad))

    out = np.ascontiguousarray(merged(np.einsum("bij,bjd->bid", alpha, v)))
    return _result(out, (qkv,), backward), alpha


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    widths = [p.data.shape[1] for p in parts]

    def backward(g: np.ndarray) -> None:
        offset = 0
        for part, width in zip(parts, widths):
            _accum(part, g[:, offset : offset + width])
            offset += width

    return _result(np.concatenate([p.data for p in parts], axis=1), tuple(parts), backward)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    heights = [p.data.shape[0] for p in parts]

    def backward(g: np.ndarray) -> None:
        offset = 0
        for part, height in zip(parts, heights):
            _accum(part, g[offset : offset + height, :])
            offset += height

    return _result(np.concatenate([p.data for p in parts], axis=0), tuple(parts), backward)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Columns start..stop-1; the gradient goes back into x's columns in place."""

    def backward(g: np.ndarray) -> None:
        _accum_at(x, (slice(None), slice(start, stop)), g)

    return _result(x.data[:, start:stop], (x,), backward)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows start..stop-1; the gradient goes back into x's rows in place."""

    def backward(g: np.ndarray) -> None:
        _accum_at(x, slice(start, stop), g)

    return _result(x.data[start:stop], (x,), backward)


def take_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Embedding-style row lookup with scatter-add backward.

    Unique indices (permutations, block-row gathers) scatter with one indexed
    add, repeated ones (a position table) with np.add.at; either way each
    gradient row gets its additions in index order, so the bits agree.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ConstraintViolation(f"take_rows expects 1-D indices, got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ConstraintViolation(
            f"take_rows index out of range 0..{table.data.shape[0] - 1}"
        )
    unique = (
        _grad_enabled and table.needs_grad and idx.size > 0 and np.bincount(idx).max() == 1
    )

    def backward(g: np.ndarray) -> None:
        if not table.needs_grad:
            return
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        if unique:
            table.grad[idx] += g
        else:
            np.add.at(table.grad, idx, g)

    return _result(table.data[idx], (table,), backward)


def cross_entropy_mean(
    probs: Tensor, labels: np.ndarray, mask: np.ndarray
) -> Tensor:
    """Mean of -log p(label) over masked rows, probabilities clamped at 1e-12,
    as a scalar of the probabilities' dtype."""
    lab = np.asarray(labels, dtype=np.int64)
    msk = np.asarray(mask, dtype=bool)
    n_rows = probs.data.shape[0]
    if lab.shape != (n_rows,) or msk.shape != (n_rows,):
        raise ConstraintViolation(
            f"labels/mask must be ({n_rows},), got {lab.shape} and {msk.shape}"
        )
    n_scored = int(msk.sum())
    if n_scored == 0:
        raise ConstraintViolation("cross_entropy_mean: mask selects no rows")
    rows = np.arange(n_rows)
    picked = probs.data[rows, lab]
    clamped = np.maximum(picked, PROB_FLOOR)
    loss = -(np.log(clamped) * msk).sum() / n_scored

    def backward(g: np.ndarray) -> None:
        grad = np.zeros_like(probs.data)
        live = msk & (picked > PROB_FLOOR)
        grad[rows[live], lab[live]] = -1.0 / clamped[live] / n_scored
        _accum(probs, grad * float(g))

    return Tensor(loss, parents=(probs,), backward_fn=backward)
