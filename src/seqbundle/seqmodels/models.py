"""Model definitions: MLP, LSTM, and a Transformer built on the autodiff kit.

Every forward takes packed rows: an (R, input_dim) matrix holding its
sessions one after another, with ``lengths`` giving each session's row count
(default: one session of R rows). It returns (R, 3) probabilities in the same
order, and the transformer can also return each session's attention weights.
A session's rows and weights do not depend on the other sessions in the call,
bit for bit: row-wise layers run once over all R rows, and only attention (one
``nk.attention`` node per block of equal-length sessions) and the LSTM's
recurrence see the segments.

With ``states``, one per session (``initial_state()`` is the empty prefix),
a causal model's forward runs each session on from its cached prefix state
and returns the extended states second: the transformer's key/value rows per
block, the LSTM's (h, c) per layer. A KV-cached decode step is this forward
on one row per session, with the bits of the same teacher-forced rows.

A model keeps its parameters in one contiguous vector, ``flat``, of dtype
``nk.FLOAT`` (float32), in sorted-name order (its ``layout``, the
checkpoint's); each ``params[name].data`` is a reshaped view into it, which
training updates in place. Weights are drawn in float64, uniformly in
(-1/sqrt(fan_in), +1/sqrt(fan_in)) from a seeded generator, and rounded on
their copy into ``flat``; biases start at zero and norm gains at one, so
construction is fully deterministic. A model built to be loaded
(``seed=None``) draws nothing and leaves its weights unwritten for
``nk.load_checkpoint``. The model's dtype is ``flat``'s: the forward casts
its feature rows to it and builds its zero states, position table and
``initial_state()`` in it, so the whole graph runs in one precision.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .. import neuralkit as nk
from ..domain import N_OUTCOMES
from ..errors import ConstraintViolation
from .config import LSTMConfig, MLPConfig, ModelKind, TransformerConfig

Lengths = Sequence[int] | np.ndarray | None
Captured = list[np.ndarray] | None  # per session (n_blocks, n_heads, L, L) attention
State = tuple  # one prefix's state; its layout is the model's own
States = Sequence[State] | None


def _segments(lengths: np.ndarray, past=None) -> tuple[np.ndarray, np.ndarray, list[tuple]]:
    """Layout of packed sessions sorted longest first, then by longer ``past``
    (cached rows before each session; default none), ties in input order.

    Returns ``order`` (sorted row i is input row order[i]), each sorted row's
    position in its session after its past, and the blocks of sessions of
    equal length and past as (their sorted rows, their sessions' input
    indices). Sorting permutes the constant input, so it adds no graph node.
    """
    past = np.zeros_like(lengths) if past is None else past
    by_length = np.lexsort((-past, -lengths))
    sorted_lengths, sorted_past = lengths[by_length], past[by_length]
    sorted_starts = np.cumsum(sorted_lengths) - sorted_lengths
    positions = np.arange(lengths.sum()) - np.repeat(sorted_starts, sorted_lengths)
    order = np.repeat((np.cumsum(lengths) - lengths)[by_length], sorted_lengths) + positions
    cuts = np.flatnonzero(np.diff(sorted_lengths) | np.diff(sorted_past)) + 1
    block_rows = np.split(np.arange(order.size), sorted_starts[cuts])
    positions += np.repeat(sorted_past, sorted_lengths)
    return order, positions, list(zip(block_rows, np.split(by_length, cuts)))


def _uniform(rng: np.random.Generator | None, fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
    """Initial weights; without a generator (a model whose weights are loaded
    next) a read-only zero view that only gives the shape."""
    if rng is None:
        return np.broadcast_to(0.0, shape)
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape)


class SequenceModel:
    """Common parameter-container behavior; subclasses implement forward()."""

    kind: ModelKind

    def __init__(self) -> None:
        self.params: dict[str, nk.Tensor] = {}
        self.flat = np.empty(0, dtype=nk.FLOAT)
        self.layout: list[tuple[str, int, tuple[int, ...]]] = []
        self._initial: dict[str, np.ndarray] = {}

    def _add_param(self, name: str, data: np.ndarray) -> None:
        self._initial[name] = data

    def _pack_params(self, rng: np.random.Generator | None) -> None:
        """Lay the added parameters out in ``flat``, one contiguous vector in
        sorted-name order, and make each ``params[name]`` a parameter tensor on
        its reshaped view. Initial values are copied in only for a drawn model
        (``rng`` given): a loaded one's are read straight into ``flat``.
        Constructors call this once all parameters are added."""
        initial, self._initial = self._initial, {}
        offset = 0
        for name in sorted(initial):
            self.layout.append((name, offset, initial[name].shape))
            offset += initial[name].size
        self.flat = np.empty(offset, dtype=nk.FLOAT)
        for name, view in self.views(self.flat).items():
            if rng is not None:
                view[...] = initial[name]
            self.params[name] = nk.parameter_view(view, name)

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """``vector``, laid out as ``flat``, as per-parameter views shaped as
        the parameters."""
        return {
            name: vector[start : start + math.prod(shape)].reshape(shape)
            for name, start, shape in self.layout
        }

    def forward(
        self, rows: np.ndarray, lengths: Lengths = None, states: States = None
    ) -> tuple[nk.Tensor, Captured | list[State]]:
        """(R, 3) probabilities of the packed rows and, with ``states``, each
        session's extended state (else the captured weights or None)."""
        raise NotImplementedError

    def initial_state(self) -> State:
        """State of the empty prefix, before any row."""
        raise NotImplementedError

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def _dense(self, x: nk.Tensor, prefix: str, suffix: str = "") -> nk.Tensor:
        """x @ <prefix>/w<suffix> + <prefix>/b<suffix>."""
        w, b = self.params[f"{prefix}/w{suffix}"], self.params[f"{prefix}/b{suffix}"]
        return nk.add(nk.matmul(x, w), b)

    @property
    def n_parameters(self) -> int:
        return self.flat.size

    def _check_rows(self, rows, lengths: Lengths, states: States) -> tuple[np.ndarray, np.ndarray]:
        """``rows`` as an (R, input_dim) array and the session lengths, which
        must be positive and sum to R (the default is one session), with one
        state per session if ``states`` are given."""
        arr = np.asarray(rows, dtype=self.flat.dtype)
        if arr.ndim != 2 or arr.shape[1] != self.config.input_dim:
            raise ConstraintViolation(
                f"expected (n_rows, {self.config.input_dim}) feature rows, got {np.shape(rows)}"
            )
        lens = np.asarray([len(arr)] if lengths is None else lengths, dtype=np.int64)
        if lens.ndim != 1 or lens.size == 0 or lens.min() < 1 or lens.sum() != len(arr):
            raise ConstraintViolation(
                f"session lengths {lens.tolist()} must be positive and sum to the "
                f"{len(arr)} feature rows"
            )
        if states is not None and len(states) != lens.size:
            raise ConstraintViolation(f"{len(states)} prefix states for {lens.size} sessions")
        return arr, lens


class MLPModel(SequenceModel):
    """Stateless per-row classifier; its context is only the feature row itself."""

    kind = ModelKind.MLP

    def __init__(self, config: MLPConfig, seed: int | None = 0) -> None:
        super().__init__()
        self.config = config
        rng = None if seed is None else np.random.default_rng(seed)
        dims = [config.input_dim] + [config.hidden_dim] * config.n_layers
        for i in range(config.n_layers):
            self._add_param(f"layer{i}/w", _uniform(rng, dims[i], (dims[i], dims[i + 1])))
            self._add_param(f"layer{i}/b", np.zeros(dims[i + 1]))
        self._add_param("head/w", _uniform(rng, dims[-1], (dims[-1], N_OUTCOMES)))
        self._add_param("head/b", np.zeros(N_OUTCOMES))
        self._pack_params(rng)

    def forward(
        self, rows: np.ndarray, lengths: Lengths = None, states: States = None
    ) -> tuple[nk.Tensor, list[State] | None]:
        """Rows carry all of the MLP's context, so its states stay empty."""
        x = nk.Tensor(self._check_rows(rows, lengths, states)[0])
        for i in range(self.config.n_layers):
            x = nk.relu(self._dense(x, f"layer{i}"))
        return nk.softmax_rows(self._dense(x, "head")), None if states is None else list(states)

    def initial_state(self) -> State:
        return ()


class LSTMModel(SequenceModel):
    """Stacked LSTM; fused gate matrices in (input, forget, cell, output) order."""

    kind = ModelKind.LSTM

    def __init__(self, config: LSTMConfig, seed: int | None = 0) -> None:
        super().__init__()
        self.config = config
        rng = None if seed is None else np.random.default_rng(seed)
        h = config.hidden_dim
        for layer in range(config.n_layers):
            in_dim = config.input_dim if layer == 0 else h
            self._add_param(f"l{layer}/wx", _uniform(rng, in_dim, (in_dim, 4 * h)))
            self._add_param(f"l{layer}/wh", _uniform(rng, h, (h, 4 * h)))
            self._add_param(f"l{layer}/b", np.zeros(4 * h))
        self._add_param("head/w1", _uniform(rng, h, (h, h)))
        self._add_param("head/b1", np.zeros(h))
        self._add_param("head/w2", _uniform(rng, h, (h, N_OUTCOMES)))
        self._add_param("head/b2", np.zeros(N_OUTCOMES))
        self._pack_params(rng)

    def forward(
        self, rows: np.ndarray, lengths: Lengths = None, states: States = None
    ) -> tuple[nk.Tensor, list[State] | None]:
        """Runs layer by layer over the sessions sorted longest first; step t
        runs the sessions still live, which are the first ones (as PyTorch's
        pack_padded_sequence does). Rows travel step-major, so each layer's
        input projection is one matmul over all of them, whose padded calls give
        every row the bits of a per-step product. Each layer starts from zero
        (h, c) or from the sessions' ``states``; a session's final (h, c) are
        the rows dropped at the step where it ends, or the last live rows."""
        arr, lens = self._check_rows(rows, lengths, states)
        order, positions, blocks = _segments(lens)
        ids = np.concatenate([batch for _, batch in blocks]).tolist()  # sessions, sorted
        step_major = order[np.argsort(positions, kind="stable")]
        live = np.bincount(positions).tolist()  # sessions live at each step
        starts = (np.cumsum(live) - live).tolist()
        zeros = nk.Tensor(np.zeros((lens.size, self.config.hidden_dim), self.flat.dtype))
        finals: list[list[np.ndarray]] = []  # per layer, the sorted sessions' final (h, c)
        x = nk.Tensor(arr[step_major])
        for layer in range(self.config.n_layers):
            wx, wh, bias = (self.params[f"l{layer}/{name}"] for name in ("wx", "wh", "b"))
            projected = nk.matmul(x, wx)
            h = c = zeros
            if states is not None:
                h, c = (nk.Tensor(np.stack([states[b][layer][k] for b in ids])) for k in (0, 1))
            outputs: list[nk.Tensor] = []
            ended: list[tuple[np.ndarray, np.ndarray]] = []  # shortest sessions first
            for start, n in zip(starts, live):
                if n < h.shape[0]:  # the shortest live sessions ended
                    ended.append((h.data[n:], c.data[n:]))
                    h, c = nk.slice_rows(h, 0, n), nk.slice_rows(c, 0, n)
                xw = nk.slice_rows(projected, start, start + n)
                h, c = nk.lstm_cell(nk.add(nk.add(xw, nk.matmul(h, wh)), bias), c)
                outputs.append(h)
            if states is not None:  # the longest sessions end at the last step
                ends = zip(*ended, (h.data, c.data))
                finals.append([np.concatenate(part[::-1]) for part in ends])
            x = nk.concat_rows(outputs)
        probs = nk.take_rows(self._head(x), np.argsort(step_major))
        return probs, None if states is None else [
            tuple((h[k], c[k]) for h, c in finals) for k in np.argsort(ids)
        ]

    def _head(self, x: nk.Tensor) -> nk.Tensor:
        hidden = nk.relu(self._dense(x, "head", "1"))
        return nk.softmax_rows(self._dense(hidden, "head", "2"))

    def initial_state(self) -> State:
        """Per layer, the zero (h, c) that every session starts from."""
        zeros = np.zeros(self.config.hidden_dim, self.flat.dtype)
        return tuple((zeros, zeros) for _ in range(self.config.n_layers))


class TransformerModel(SequenceModel):
    """Pre-norm residual Transformer with per-head attention capture.

    causal=True masks attention to positions <= i (decoder); causal=False
    attends everywhere, which is only valid for training-phase use or on
    inputs already truncated at the prediction position.
    """

    def __init__(self, config: TransformerConfig, seed: int | None = 0) -> None:
        super().__init__()
        self.config = config
        self.kind = ModelKind.TRANSFORMER if config.causal else ModelKind.ENCODER
        rng = None if seed is None else np.random.default_rng(seed)
        d = config.embed_dim
        self._add_param("embed/w", _uniform(rng, config.input_dim, (config.input_dim, d)))
        self._add_param("embed/b", np.zeros(d))
        if config.positional == "learned":
            self._add_param("pos_table", _uniform(rng, d, (config.max_positions, d)))
        for i in range(config.n_blocks):
            self._add_param(f"block{i}/ln1/gain", np.ones(d))
            self._add_param(f"block{i}/ln1/bias", np.zeros(d))
            # drawn head by head as (Q, K, V); laid out as all Q heads, then K, then V
            qkv = _uniform(rng, d, (config.n_heads, 3, d, config.head_dim))
            self._add_param(f"block{i}/w_qkv", qkv.transpose(2, 1, 0, 3).reshape(d, -1))
            self._add_param(f"block{i}/attn_out/w", _uniform(rng, d, (d, d)))
            self._add_param(f"block{i}/attn_out/b", np.zeros(d))
            self._add_param(f"block{i}/ln2/gain", np.ones(d))
            self._add_param(f"block{i}/ln2/bias", np.zeros(d))
            self._add_param(f"block{i}/ff/w1", _uniform(rng, d, (d, config.ff_dim)))
            self._add_param(f"block{i}/ff/b1", np.zeros(config.ff_dim))
            self._add_param(f"block{i}/ff/w2", _uniform(rng, config.ff_dim, (config.ff_dim, d)))
            self._add_param(f"block{i}/ff/b2", np.zeros(d))
        self._add_param("final_ln/gain", np.ones(d))
        self._add_param("final_ln/bias", np.zeros(d))
        self._add_param("head/w", _uniform(rng, d, (d, N_OUTCOMES)))
        self._add_param("head/b", np.zeros(N_OUTCOMES))
        self._pack_params(rng)
        self._fixed_table = np.empty((0, d), self.flat.dtype)  # fixed encodings, grown on demand

    def _norm(self, x: nk.Tensor, prefix: str) -> nk.Tensor:
        gain, bias = self.params[f"{prefix}/gain"], self.params[f"{prefix}/bias"]
        return nk.add(nk.mul(nk.layer_norm(x), gain), bias)

    def _positions(self, positions: np.ndarray) -> nk.Tensor:
        """Position rows for the given 0-based positions within their sessions."""
        n = int(positions.max()) + 1
        if self.config.positional == "fixed":
            if n > len(self._fixed_table):  # each row is computed on its own
                table = nk.positional_encoding_matrix(n, self.config.embed_dim)
                self._fixed_table = table.astype(self.flat.dtype)
            return nk.Tensor(self._fixed_table[positions])
        if n > self.config.max_positions:
            raise ConstraintViolation(
                f"session has {n} events but the learned position table holds "
                f"{self.config.max_positions}",
                keys=("max_positions",),
            )
        return nk.take_rows(self.params["pos_table"], positions)

    def _embed(self, rows: np.ndarray, positions: np.ndarray) -> nk.Tensor:
        return nk.add(self._dense(nk.Tensor(rows), "embed"), self._positions(positions))

    def _head(self, x: nk.Tensor) -> nk.Tensor:
        return nk.softmax_rows(self._dense(self._norm(x, "final_ln"), "head"))

    def forward(
        self, rows: np.ndarray, lengths: Lengths = None, states: States = None,
        capture_attention: bool = False,
    ) -> tuple[nk.Tensor, Captured | list[State]]:
        """Row-wise layers run once over the rows sorted by session length;
        attention runs once per block of sessions of equal length and equal
        past, whose weights ``capture_attention`` returns per session, in
        input order. Each block is pre-norm attention, then the pre-norm
        feed-forward. A state holds, per block, the (n, 2·H·hd) key/value
        rows of its prefix's n rows: the session's rows sit at positions n
        onwards and attend to them as ``nk.attention``'s past."""
        if states is not None and (capture_attention or not self.config.causal):
            raise ConstraintViolation(
                "prefix states run the causal transformer, without attention capture"
            )
        arr, lens = self._check_rows(rows, lengths, states)
        past = None if states is None else np.array([len(state[0]) for state in states])
        order, positions, blocks = _segments(lens, past)
        n_heads = self.config.n_heads
        stack = (self.config.n_blocks, n_heads)
        captured = (
            [np.empty((*stack, n, n), self.flat.dtype) for n in lens.tolist()]
            if capture_attention else None
        )
        extended: list[list[np.ndarray]] = [[] for _ in states or ()]  # per session
        width = 2 * n_heads * self.config.head_dim  # of a key/value row
        x = self._embed(arr[order], positions)
        for i in range(stack[0]):
            qkv = nk.matmul(self._norm(x, f"block{i}/ln1"), self.params[f"block{i}/w_qkv"])
            merged = []
            for block_rows, batch in blocks:
                block = qkv if len(blocks) == 1 else nk.take_rows(qkv, block_rows)
                cached = None
                if states is not None:
                    cached = np.stack([states[b][i] for b in batch])
                    own = block.data[:, -width:].reshape(batch.size, -1, width)
                    for b, kv in zip(batch.tolist(), np.concatenate([cached, own], axis=1)):
                        extended[b].append(kv)
                heads, alpha = nk.attention(block, batch.size, n_heads, self.config.causal, cached)
                if captured is not None:
                    per_session = alpha.reshape(batch.size, n_heads, *alpha.shape[1:])
                    for index, weights in zip(batch.tolist(), per_session):
                        captured[index][i] = weights
                merged.append(heads)
            mixed = merged[0] if len(merged) == 1 else nk.concat_rows(merged)
            x = nk.add(x, self._dense(mixed, f"block{i}/attn_out"))
            hidden = nk.relu(self._dense(self._norm(x, f"block{i}/ln2"), f"block{i}/ff", "1"))
            x = nk.add(x, self._dense(hidden, f"block{i}/ff", "2"))
        probs = nk.take_rows(self._head(x), np.argsort(order))
        return probs, captured if states is None else [tuple(kv) for kv in extended]

    def initial_state(self) -> State:
        """Per block, the empty (0, 2·H·hd) key/value rows."""
        width = 2 * self.config.n_heads * self.config.head_dim
        return tuple(np.empty((0, width), self.flat.dtype) for _ in range(self.config.n_blocks))


def make_model(kind: ModelKind, config, seed: int | None = 0) -> SequenceModel:
    """A model of ``kind`` initialized from ``seed``; with ``seed=None`` its
    ``flat`` is left unwritten, for a model whose weights are loaded next."""
    if kind is ModelKind.MLP:
        return MLPModel(config, seed=seed)
    if kind is ModelKind.LSTM:
        return LSTMModel(config, seed=seed)
    if kind is ModelKind.TRANSFORMER:
        if not config.causal:
            raise ConstraintViolation("transformer kind requires causal=True")
        return TransformerModel(config, seed=seed)
    if kind is ModelKind.ENCODER:
        if config.causal:
            raise ConstraintViolation("encoder kind requires causal=False")
        return TransformerModel(config, seed=seed)
    raise ConstraintViolation(f"unknown model kind {kind!r}")
