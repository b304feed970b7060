"""Model definitions: MLP, LSTM, and a Transformer built on the autodiff kit.

Every forward takes packed rows: an (R, input_dim) matrix holding its
sessions one after another, with ``lengths`` giving each session's row count
(default: one session of R rows). It returns (R, 3) probabilities in the same
order, and the transformer can also return each session's attention weights.
A session's rows and weights do not depend on the other sessions in the call,
bit for bit: row-wise layers run once over all R rows, and only attention (one
``nk.attention`` node per block of equal-length sessions) and the LSTM's
recurrence see the segments.

The causal models also decode: ``decode(rows, states)`` extends B prefixes by
one row each from their cached states (the transformer's key/value rows per
block, the LSTM's (h, c) per layer; ``initial_state()`` is the empty prefix)
and returns the new rows' probabilities and the extended states. Forward and
decode share one block function (transformer, whose decode step attends with
the cached rows as ``nk.attention``'s past) or one cell step (LSTM), so a
decoded row has the bits of the same row in a teacher-forced forward.

All parameters are float64 and initialized uniformly in
(-1/sqrt(fan_in), +1/sqrt(fan_in)) from a seeded generator, biases at zero,
norm gains at one, so construction is fully deterministic; a model built to
be loaded (``seed=None``) draws nothing and leaves its weights unwritten for
``nk.load_checkpoint``. A model keeps its parameters in one contiguous
vector, ``flat``, in sorted-name order (its ``layout``, the checkpoint's);
each ``params[name].data`` is a reshaped view into it, which training
updates in place.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .. import neuralkit as nk
from ..errors import ConstraintViolation
from .config import LSTMConfig, MLPConfig, ModelKind, TransformerConfig

Lengths = Sequence[int] | np.ndarray | None
Captured = list[np.ndarray] | None  # per session (n_blocks, n_heads, L, L) attention
State = tuple  # one prefix's decode state; its layout is the model's own


def _segments(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[tuple]]:
    """Layout of packed sessions sorted longest first, ties in input order.

    Returns ``order`` (sorted row i is input row order[i]), each sorted row's
    0-based position in its session, and the blocks of equal-length sessions
    as (their sorted rows, their sessions' input indices). Sorting permutes
    the constant input, so it adds no graph node.
    """
    by_length = np.argsort(-lengths, kind="stable")
    sorted_lengths = lengths[by_length]
    sorted_starts = np.cumsum(sorted_lengths) - sorted_lengths
    positions = np.arange(lengths.sum()) - np.repeat(sorted_starts, sorted_lengths)
    order = np.repeat((np.cumsum(lengths) - lengths)[by_length], sorted_lengths) + positions
    negated, counts = np.unique(-sorted_lengths, return_counts=True)  # longest first
    block_rows = np.split(np.arange(order.size), np.cumsum(-negated * counts)[:-1])
    return order, positions, list(zip(block_rows, np.split(by_length, np.cumsum(counts)[:-1])))


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
        self.flat = np.empty(0)
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
        self.flat = np.empty(offset)
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

    def forward(self, rows: np.ndarray, lengths: Lengths = None) -> tuple[nk.Tensor, Captured]:
        raise NotImplementedError

    def initial_state(self) -> State:
        """Decode state of the empty prefix, before any row."""
        raise NotImplementedError

    def decode(self, rows: np.ndarray, states: Sequence[State]) -> tuple[nk.Tensor, list[State]]:
        """(B, 3) probabilities of B new rows, row b extending the prefix whose
        state is ``states[b]`` (all of one length), and the extended states."""
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

    def _check_rows(self, rows, input_dim: int, lengths: Lengths) -> tuple[np.ndarray, np.ndarray]:
        """``rows`` as an (R, input_dim) array and the session lengths, which
        must be positive and sum to R; the default is one session."""
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != input_dim:
            raise ConstraintViolation(
                f"expected (n_rows, {input_dim}) feature rows, got {np.shape(rows)}"
            )
        lens = np.asarray([len(arr)] if lengths is None else lengths, dtype=np.int64)
        if lens.ndim != 1 or lens.size == 0 or lens.min() < 1 or lens.sum() != len(arr):
            raise ConstraintViolation(
                f"session lengths {lens.tolist()} must be positive and sum to the "
                f"{len(arr)} feature rows"
            )
        return arr, lens

    def _check_step(self, rows, input_dim: int, states: Sequence[State]) -> np.ndarray:
        """``rows`` as a (B, input_dim) array with one row per decode state."""
        arr = self._check_rows(rows, input_dim, None)[0]
        if len(arr) != len(states):
            raise ConstraintViolation(f"{len(arr)} decode rows for {len(states)} prefix states")
        return arr


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
        self._add_param(
            "head/w", _uniform(rng, config.hidden_dim, (config.hidden_dim, config.n_classes))
        )
        self._add_param("head/b", np.zeros(config.n_classes))
        self._pack_params(rng)

    def forward(self, rows: np.ndarray, lengths: Lengths = None) -> tuple[nk.Tensor, None]:
        x = nk.Tensor(self._check_rows(rows, self.config.input_dim, lengths)[0])
        for i in range(self.config.n_layers):
            x = nk.relu(self._dense(x, f"layer{i}"))
        probs = nk.softmax_rows(self._dense(x, "head"))
        return probs, None

    def initial_state(self) -> State:
        return ()

    def decode(self, rows: np.ndarray, states: Sequence[State]) -> tuple[nk.Tensor, list[State]]:
        """Rows carry all of the MLP's context, so the states stay empty."""
        return self.forward(self._check_step(rows, self.config.input_dim, states))[0], list(states)


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
        self._add_param("head/w2", _uniform(rng, h, (h, config.n_classes)))
        self._add_param("head/b2", np.zeros(config.n_classes))
        self._pack_params(rng)

    def forward(self, rows: np.ndarray, lengths: Lengths = None) -> tuple[nk.Tensor, None]:
        """Runs layer by layer over the sessions sorted longest first; step t
        runs the sessions still live, which are the first ones (as PyTorch's
        pack_padded_sequence does). Rows travel step-major, so each layer's
        input projection is one matmul over all of them, whose padded calls give
        every row the bits of a per-step product."""
        arr, lens = self._check_rows(rows, self.config.input_dim, lengths)
        order, positions, _ = _segments(lens)
        step_major = order[np.argsort(positions, kind="stable")]
        live = np.bincount(positions).tolist()  # sessions live at each step
        starts = (np.cumsum(live) - live).tolist()
        zeros = nk.Tensor(np.zeros((lens.size, self.config.hidden_dim)))
        x = nk.Tensor(arr[step_major])
        for layer in range(self.config.n_layers):
            projected = nk.matmul(x, self.params[f"l{layer}/wx"])
            h = c = zeros
            outputs: list[nk.Tensor] = []
            for start, n in zip(starts, live):
                if n < h.shape[0]:  # the shortest live sessions ended
                    h, c = nk.slice_rows(h, 0, n), nk.slice_rows(c, 0, n)
                h, c = self._step(layer, nk.slice_rows(projected, start, start + n), h, c)
                outputs.append(h)
            x = nk.concat_rows(outputs)
        return nk.take_rows(self._head(x), np.argsort(step_major)), None

    def _step(
        self, layer: int, xw: nk.Tensor, h: nk.Tensor, c: nk.Tensor
    ) -> tuple[nk.Tensor, nk.Tensor]:
        """(h, c) after one step of ``layer`` from its input product xw = x @ wx:
        the one cell step of forward and decode."""
        wh, b = self.params[f"l{layer}/wh"], self.params[f"l{layer}/b"]
        return nk.lstm_cell(nk.add(nk.add(xw, nk.matmul(h, wh)), b), c)

    def _head(self, x: nk.Tensor) -> nk.Tensor:
        hidden = nk.relu(self._dense(x, "head", "1"))
        return nk.softmax_rows(self._dense(hidden, "head", "2"))

    def initial_state(self) -> State:
        """Per layer, the zero (h, c) that every session starts from."""
        zeros = np.zeros(self.config.hidden_dim)
        return tuple((zeros, zeros) for _ in range(self.config.n_layers))

    def decode(self, rows: np.ndarray, states: Sequence[State]) -> tuple[nk.Tensor, list[State]]:
        """One step of every layer for each prefix; a state is (h, c) per layer."""
        x = nk.Tensor(self._check_step(rows, self.config.input_dim, states))
        carried = []
        for layer in range(self.config.n_layers):
            h, c = (nk.Tensor(np.stack([state[layer][k] for state in states])) for k in (0, 1))
            x, c = self._step(layer, nk.matmul(x, self.params[f"l{layer}/wx"]), h, c)
            carried.append((x.data, c.data))
        return self._head(x), [
            tuple((h[b], c[b]) for h, c in carried) for b in range(len(states))
        ]


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
            for head in range(config.n_heads):
                for proj in ("wq", "wk", "wv"):
                    self._add_param(
                        f"block{i}/head{head}/{proj}",
                        _uniform(rng, d, (d, config.head_dim)),
                    )
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
        self._add_param("head/w", _uniform(rng, d, (d, config.n_classes)))
        self._add_param("head/b", np.zeros(config.n_classes))
        self._pack_params(rng)
        self._fixed_table = np.empty((0, d))  # fixed encodings, grown on demand

    def _norm(self, x: nk.Tensor, prefix: str) -> nk.Tensor:
        gain, bias = self.params[f"{prefix}/gain"], self.params[f"{prefix}/bias"]
        return nk.add(nk.mul(nk.layer_norm(x), gain), bias)

    def _positions(self, positions: np.ndarray) -> nk.Tensor:
        """Position rows for the given 0-based positions within their sessions."""
        n = int(positions.max()) + 1
        if self.config.positional == "fixed":
            if n > len(self._fixed_table):  # each row is computed on its own
                self._fixed_table = nk.positional_encoding_matrix(n, self.config.embed_dim)
            return nk.Tensor(self._fixed_table[positions])
        if n > self.config.max_positions:
            raise ConstraintViolation(
                f"session has {n} events but the learned position table holds "
                f"{self.config.max_positions}"
            )
        return nk.take_rows(self.params["pos_table"], positions)

    def _embed(self, rows: np.ndarray, positions: np.ndarray) -> nk.Tensor:
        return nk.add(self._dense(nk.Tensor(rows), "embed"), self._positions(positions))

    def _block(self, i: int, x: nk.Tensor, attend) -> nk.Tensor:
        """Block i over the rows x, the one block function of forward and
        decode: pre-norm attention, whose mixing across rows is
        ``attend(i, qkv)`` on the (R, 3·H·hd) query/key/value rows, then the
        pre-norm feed-forward."""
        w_qkv = nk.concat_cols([
            self.params[f"block{i}/head{head}/{proj}"]
            for proj in ("wq", "wk", "wv")
            for head in range(self.config.n_heads)
        ])
        qkv = nk.matmul(self._norm(x, f"block{i}/ln1"), w_qkv)
        x = nk.add(x, self._dense(attend(i, qkv), f"block{i}/attn_out"))
        hidden = nk.relu(self._dense(self._norm(x, f"block{i}/ln2"), f"block{i}/ff", "1"))
        return nk.add(x, self._dense(hidden, f"block{i}/ff", "2"))

    def _head(self, x: nk.Tensor) -> nk.Tensor:
        return nk.softmax_rows(self._dense(self._norm(x, "final_ln"), "head"))

    def forward(
        self, rows: np.ndarray, lengths: Lengths = None, capture_attention: bool = False
    ) -> tuple[nk.Tensor, Captured]:
        """Row-wise layers run once over the rows sorted by session length;
        attention runs once per block of equal-length sessions, whose weights
        ``capture_attention`` returns per session, in input order."""
        arr, lens = self._check_rows(rows, self.config.input_dim, lengths)
        order, positions, blocks = _segments(lens)
        stack = (self.config.n_blocks, self.config.n_heads)
        captured = [np.empty((*stack, n, n)) for n in lens.tolist()] if capture_attention else None

        def attend(i: int, qkv: nk.Tensor) -> nk.Tensor:
            merged = []
            for block_rows, batch in blocks:
                block = qkv if len(blocks) == 1 else nk.take_rows(qkv, block_rows)
                heads, alpha = nk.attention(block, batch.size, stack[1], self.config.causal)
                if captured is not None:
                    per_session = alpha.reshape(batch.size, stack[1], *alpha.shape[1:])
                    for index, weights in zip(batch.tolist(), per_session):
                        captured[index][i] = weights
                merged.append(heads)
            return merged[0] if len(merged) == 1 else nk.concat_rows(merged)

        x = self._embed(arr[order], positions)
        for i in range(self.config.n_blocks):
            x = self._block(i, x, attend)
        return nk.take_rows(self._head(x), np.argsort(order)), captured

    def initial_state(self) -> State:
        """Per block, the empty (0, 2·H·hd) key/value rows."""
        width = 2 * self.config.n_heads * self.config.head_dim
        return tuple(np.empty((0, width)) for _ in range(self.config.n_blocks))

    def decode(self, rows: np.ndarray, states: Sequence[State]) -> tuple[nk.Tensor, list[State]]:
        """The new row of each prefix attends to its cached key/value rows and
        its own; a state holds, per block, the (n, 2·H·hd) key/value rows of
        the prefix's n rows, so the new row sits at position n."""
        if not self.config.causal:
            raise ConstraintViolation("the bidirectional encoder cannot decode: it has no prefix state")
        arr = self._check_step(rows, self.config.input_dim, states)
        if len({len(state[0]) for state in states}) > 1:
            raise ConstraintViolation("decode steps prefixes of one length at a time")
        n_batch, width = len(arr), self.config.n_heads * self.config.head_dim
        extended: list[np.ndarray] = []

        def attend(i: int, qkv: nk.Tensor) -> nk.Tensor:
            past = np.stack([state[i] for state in states])
            extended.append(np.concatenate([past, qkv.data[:, None, width:]], axis=1))
            return nk.attention(qkv, n_batch, self.config.n_heads, True, past)[0]

        x = self._embed(arr, np.full(n_batch, len(states[0][0])))
        for i in range(self.config.n_blocks):
            x = self._block(i, x, attend)
        return self._head(x), [tuple(kv[b] for kv in extended) for b in range(n_batch)]


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
