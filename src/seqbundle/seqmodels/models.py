"""Model definitions: MLP, LSTM, and a Transformer built on the autodiff kit.

Every forward takes one session's (L, input_dim) rows or a (B, L, input_dim)
stack of equal-length sessions and returns (B·L, 3) probabilities,
session-major; a single session is the B=1 case. A session's rows do not
depend on the other sessions in the stack, bit for bit.

All parameters are float64 and initialized uniformly in
(-1/sqrt(fan_in), +1/sqrt(fan_in)) from a seeded generator, biases at zero,
norm gains at one, so construction is fully deterministic.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, Iterable, TypeVar

import numpy as np

from .. import neuralkit as nk
from ..errors import ConstraintViolation
from .config import LSTMConfig, MLPConfig, ModelKind, TransformerConfig


T = TypeVar("T")


def group_by_length(items: Iterable[T], length: Callable[[T], int]) -> list[list[T]]:
    """``items`` grouped by equal ``length``, ascending; input order is kept
    within a group. Each group stacks into one forward without padding."""
    ordered = sorted(items, key=length)
    return [list(group) for _, group in groupby(ordered, key=length)]


def _uniform(rng: np.random.Generator, fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape)


class SequenceModel:
    """Common parameter-container behavior; subclasses implement forward()."""

    kind: ModelKind

    def __init__(self) -> None:
        self.params: dict[str, nk.Tensor] = {}

    def _add_param(self, name: str, data: np.ndarray) -> nk.Tensor:
        tensor = nk.parameter(data, name=name)
        self.params[name] = tensor
        return tensor

    def forward(
        self, rows: np.ndarray, capture_attention: bool = False
    ) -> tuple[nk.Tensor, np.ndarray | None]:
        raise NotImplementedError

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def set_param_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        missing = sorted(set(self.params) - set(arrays))
        extra = sorted(set(arrays) - set(self.params))
        if missing or extra:
            raise ConstraintViolation(
                f"parameter name mismatch: missing {missing}, unexpected {extra}"
            )
        for name, tensor in self.params.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != tensor.data.shape:
                raise ConstraintViolation(
                    f"parameter {name!r}: shape {arr.shape} != {tensor.data.shape}"
                )
            tensor.data = arr.copy()

    @property
    def n_parameters(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def _check_rows(self, rows: np.ndarray, input_dim: int) -> np.ndarray:
        """The (B, L, input_dim) stack of ``rows``; one session is B=1."""
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[None]
        if arr.ndim != 3 or arr.shape[2] != input_dim:
            raise ConstraintViolation(
                f"expected (n_events, {input_dim}) feature rows or a "
                f"(n_sessions, n_events, {input_dim}) stack, got {np.shape(rows)}"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ConstraintViolation("forward() needs at least one feature row")
        return arr


def _linear(x: nk.Tensor, w: nk.Tensor, b: nk.Tensor) -> nk.Tensor:
    return nk.add(nk.matmul(x, w), b)


class MLPModel(SequenceModel):
    """Stateless per-row classifier; its context is only the feature row itself."""

    kind = ModelKind.MLP

    def __init__(self, config: MLPConfig, seed: int = 0) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(seed)
        dims = [config.input_dim] + [config.hidden_dim] * config.n_layers
        for i in range(config.n_layers):
            self._add_param(f"layer{i}/w", _uniform(rng, dims[i], (dims[i], dims[i + 1])))
            self._add_param(f"layer{i}/b", np.zeros(dims[i + 1]))
        self._add_param(
            "head/w", _uniform(rng, config.hidden_dim, (config.hidden_dim, config.n_classes))
        )
        self._add_param("head/b", np.zeros(config.n_classes))

    def forward(
        self, rows: np.ndarray, capture_attention: bool = False
    ) -> tuple[nk.Tensor, np.ndarray | None]:
        arr = self._check_rows(rows, self.config.input_dim)
        x = nk.Tensor(arr.reshape(-1, arr.shape[2]))
        for i in range(self.config.n_layers):
            x = nk.relu(_linear(x, self.params[f"layer{i}/w"], self.params[f"layer{i}/b"]))
        probs = nk.softmax_rows(_linear(x, self.params["head/w"], self.params["head/b"]))
        return probs, None


class LSTMModel(SequenceModel):
    """Stacked LSTM; fused gate matrices in (input, forget, cell, output) order."""

    kind = ModelKind.LSTM

    def __init__(self, config: LSTMConfig, seed: int = 0) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(seed)
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

    def forward(
        self, rows: np.ndarray, capture_attention: bool = False
    ) -> tuple[nk.Tensor, np.ndarray | None]:
        arr = self._check_rows(rows, self.config.input_dim)
        h_dim = self.config.hidden_dim
        n_batch, n_steps, _ = arr.shape
        zeros = nk.Tensor(np.zeros((n_batch, h_dim)))
        h_state = [zeros] * self.config.n_layers
        c_state = [zeros] * self.config.n_layers
        outputs: list[nk.Tensor] = []
        for t in range(n_steps):
            x: nk.Tensor = nk.Tensor(arr[:, t])
            for layer in range(self.config.n_layers):
                gates = nk.add(
                    nk.add(
                        nk.matmul(x, self.params[f"l{layer}/wx"]),
                        nk.matmul(h_state[layer], self.params[f"l{layer}/wh"]),
                    ),
                    self.params[f"l{layer}/b"],
                )
                gi = nk.sigmoid(nk.slice_cols(gates, 0, h_dim))
                gf = nk.sigmoid(nk.slice_cols(gates, h_dim, 2 * h_dim))
                gc = nk.tanh(nk.slice_cols(gates, 2 * h_dim, 3 * h_dim))
                go = nk.sigmoid(nk.slice_cols(gates, 3 * h_dim, 4 * h_dim))
                c_new = nk.add(nk.mul(gf, c_state[layer]), nk.mul(gi, gc))
                h_new = nk.mul(go, nk.tanh(c_new))
                c_state[layer] = c_new
                h_state[layer] = h_new
                x = h_new
            outputs.append(x)
        stacked = nk.concat_rows(outputs)  # step-major: row t·B + b
        hidden = nk.relu(_linear(stacked, self.params["head/w1"], self.params["head/b1"]))
        probs = nk.softmax_rows(_linear(hidden, self.params["head/w2"], self.params["head/b2"]))
        session_major = np.arange(n_steps * n_batch).reshape(n_steps, n_batch).T.reshape(-1)
        return nk.take_rows(probs, session_major), None


class TransformerModel(SequenceModel):
    """Pre-norm residual Transformer with per-head attention capture.

    causal=True masks attention to positions <= i (decoder); causal=False
    attends everywhere, which is only valid for training-phase use or on
    inputs already truncated at the prediction position.
    """

    def __init__(self, config: TransformerConfig, seed: int = 0) -> None:
        super().__init__()
        self.config = config
        self.kind = ModelKind.TRANSFORMER if config.causal else ModelKind.ENCODER
        rng = np.random.default_rng(seed)
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

    def _norm(self, x: nk.Tensor, prefix: str) -> nk.Tensor:
        normalized = nk.layer_norm(x)
        return nk.add(
            nk.mul(normalized, self.params[f"{prefix}/gain"]),
            self.params[f"{prefix}/bias"],
        )

    def _positions(self, n: int, n_batch: int) -> nk.Tensor:
        """Position rows for ``n_batch`` stacked sessions of ``n`` events."""
        if self.config.positional == "fixed":
            table = nk.positional_encoding_matrix(n, self.config.embed_dim)
            return nk.Tensor(np.tile(table, (n_batch, 1)))
        if n > self.config.max_positions:
            raise ConstraintViolation(
                f"session has {n} events but the learned position table holds "
                f"{self.config.max_positions}"
            )
        return nk.take_rows(self.params["pos_table"], np.tile(np.arange(n), n_batch))

    def forward(
        self, rows: np.ndarray, capture_attention: bool = False
    ) -> tuple[nk.Tensor, np.ndarray | None]:
        arr = self._check_rows(rows, self.config.input_dim)
        n_batch, n, _ = arr.shape
        cfg = self.config
        if capture_attention and n_batch != 1:
            raise ConstraintViolation("attention capture takes one session at a time")
        x = nk.add(
            _linear(
                nk.Tensor(arr.reshape(n_batch * n, -1)),
                self.params["embed/w"],
                self.params["embed/b"],
            ),
            self._positions(n, n_batch),
        )
        captured = (
            np.zeros((cfg.n_blocks, cfg.n_heads, n, n)) if capture_attention else None
        )
        inv_sqrt_dk = 1.0 / np.sqrt(cfg.head_dim)
        width = cfg.n_heads * cfg.head_dim
        for i in range(cfg.n_blocks):
            normed = self._norm(x, f"block{i}/ln1")
            w_qkv = nk.concat_cols([
                self.params[f"block{i}/head{head}/{proj}"]
                for proj in ("wq", "wk", "wv")
                for head in range(cfg.n_heads)
            ])
            qkv = nk.matmul(normed, w_qkv)
            q, k, v = (
                nk.split_heads(nk.slice_cols(qkv, j * width, (j + 1) * width), n_batch, cfg.n_heads)
                for j in range(3)
            )
            scores = nk.scale(nk.einsum("bid,bjd->bij", q, k), inv_sqrt_dk)
            alpha = nk.causal_softmax(scores) if cfg.causal else nk.softmax_rows(scores)
            if captured is not None:
                captured[i] = alpha.data
            attn = _linear(
                nk.merge_heads(nk.einsum("bij,bjd->bid", alpha, v), n_batch),
                self.params[f"block{i}/attn_out/w"],
                self.params[f"block{i}/attn_out/b"],
            )
            x = nk.add(x, attn)
            ff_in = self._norm(x, f"block{i}/ln2")
            ff = _linear(
                nk.relu(_linear(ff_in, self.params[f"block{i}/ff/w1"], self.params[f"block{i}/ff/b1"])),
                self.params[f"block{i}/ff/w2"],
                self.params[f"block{i}/ff/b2"],
            )
            x = nk.add(x, ff)
        final = self._norm(x, "final_ln")
        probs = nk.softmax_rows(_linear(final, self.params["head/w"], self.params["head/b"]))
        return probs, captured


def make_model(kind: ModelKind, config, seed: int = 0) -> SequenceModel:
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
