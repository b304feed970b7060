"""Session-level prediction, next-event queries and attention capture on a
trained model and feature pipeline. A next-event query runs its prefix's rows
on from the cached state of its longest kept prefix, every asked prefix in one
forward (PrefixDecoder); ``feasibility_mask`` masks every returned row by one
rule.

Models compute in float32; every row returned here, probabilities and
attention weights alike, is float64, renormalized by ``_float64_rows`` so it
sums to 1 within domain.ROW_SUM_TOL."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import neuralkit as nk
from ..domain import (
    DEFAULT_CAP,
    OUTCOME_INDEX,
    Event,
    Outcome,
    Session,
    feasible_rows,
    walk,
)
from ..errors import ConstraintViolation
from ..dataio import FeaturePipeline
from .config import ModelKind
from .models import SequenceModel, State

_REPLAY = OUTCOME_INDEX[Outcome.REPLAY]
# Rows per inference forward, which holds activations for all of its rows; the
# encoder's prediction mode packs every distinct prefix, up to about L/2 times
# a session's rows.
PACKED_ROWS = 1024


def _float64_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` (any shape, rows along the last axis) in float64, each divided
    by its float64 sum. The sum runs left to right (a cumulative sum), so
    trailing exact zeros, as a causal weight row has beyond its query, leave
    it unchanged: each row depends on its own entries alone, bit for bit."""
    wide = rows.astype(np.float64)
    return wide / np.cumsum(wide, axis=-1)[..., -1:]


@dataclass
class NeuralPredictor:
    model: SequenceModel
    pipeline: FeaturePipeline
    feasibility_mask: bool = False
    cap: int = DEFAULT_CAP

    @property
    def is_causal(self) -> bool:
        return self.model.kind is not ModelKind.ENCODER

    def predict_session(self, session: Session) -> np.ndarray:
        """(n_events, 3) outcome probabilities, teacher-forced."""
        return self.predict_sessions([session])[0][:-1]

    def predict_sessions(self, sessions: Sequence[Session]) -> list[np.ndarray]:
        """Each session's (n_events + 1, 3) outcome probabilities,
        teacher-forced; the last row is for the decision after its last event.

        Causal models pack every session's prefix_matrix into one forward (up
        to PACKED_ROWS rows). The bidirectional encoder is evaluated in
        prediction mode: row j comes from a pass over rows 1..j alone, so the
        forward packs every distinct prefix of the matrices once and reads
        each prefix's last row. Packing changes no session's values.
        """
        if not sessions:
            return []
        matrices = [self.pipeline.prefix_matrix(session.events) for session in sessions]
        if self.is_causal:
            probs, _ = self._forward(matrices)
        else:
            probs = self._last_rows([m[:j] for m in matrices for j in range(1, len(m) + 1)])
        out = np.split(probs, np.cumsum([len(m) for m in matrices])[:-1])
        if self.feasibility_mask:  # row 0 is never scored
            for session, rows in zip(sessions, out):
                self._mask(rows[1:], self._walk(session.events)[1:])
        return out

    def _forward(self, matrices: Sequence[np.ndarray], **options) -> tuple[np.ndarray, list]:
        """(R, 3) probabilities of the matrices packed row after row and, when
        ``options`` ask the model to capture attention, each matrix's weights
        (else []); built without a graph. Matrices whose first rows fall in
        the same span of PACKED_ROWS packed rows share a forward."""
        lengths = [len(m) for m in matrices]
        span = (np.cumsum(lengths) - lengths) // PACKED_ROWS
        ends = [0, *(np.flatnonzero(np.diff(span)) + 1), len(lengths)]
        with nk.no_grad():
            results = [
                self.model.forward(np.concatenate(matrices[a:b]), lengths[a:b], **options)
                for a, b in zip(ends, ends[1:])
            ]
        probs = _float64_rows(np.concatenate([p.data for p, _ in results]))
        return probs, [
            _float64_rows(weights) for _, captured in results if captured for weights in captured
        ]

    def _last_rows(self, matrices: Sequence[np.ndarray]) -> np.ndarray:
        """(B, 3): the last probability row of each matrix, from one packed
        pass over the distinct matrices, whose rows equal inputs share."""
        keys = [m.tobytes() for m in matrices]
        distinct = dict(zip(keys, matrices))  # equal bytes: equal shapes, one width
        slot = {key: i for i, key in enumerate(distinct)}
        inputs = list(distinct.values())
        last = self._forward(inputs)[0][np.cumsum([len(m) for m in inputs]) - 1]
        return last[[slot[key] for key in keys]]

    def _walk(self, events: Sequence[Event]) -> list:
        return walk(events, len(self.pipeline.playlist), self.cap)

    def _mask(self, rows: np.ndarray, steps: Sequence) -> None:
        """The feasibility mask, in place: rows[i], the row for the event after
        walk step steps[i], goes through domain.feasible_rows where that step
        closes REPLAY. Rows that keep REPLAY keep their bits."""
        closed = [i for i, step in enumerate(steps) if not step[2][_REPLAY]]
        rows[closed] = feasible_rows(rows[closed], [False] * len(closed))

    def attention_for_sessions(self, sessions: Sequence[Session]) -> list[np.ndarray]:
        """Each session's (n_blocks, n_heads, L, L) attention weights from packed causal passes."""
        if self.model.kind is not ModelKind.TRANSFORMER:
            raise ConstraintViolation(
                f"attention capture needs the causal transformer, got "
                f"{self.model.kind.value!r}"
            )
        if not sessions:
            return []
        matrices = [self.pipeline.matrix(session) for session in sessions]
        return self._forward(matrices, capture_attention=True)[1]

    # -- forward-looking prediction ------------------------------------------

    def next_probs(self, events: tuple[Event, ...]) -> np.ndarray:
        """Probability row for the event that would follow the given prefix."""
        return self.decoder()([events])[0]

    def decoder(self) -> "PrefixDecoder":
        """A fresh PrefixDecoder: next-event rows of prefixes, whose later
        calls run on from the prefixes of the call before."""
        if self.pipeline.config.leak:
            raise ConstraintViolation(
                "forward-looking prediction is undefined for leak features "
                "(observed remaining time requires the finished session)"
            )
        return PrefixDecoder(self)


class PrefixDecoder:
    """Next-event rows of event prefixes, each run on from the cached model
    state of its longest kept prefix.

    Node P holds the state after the rows of FeaturePipeline.prefix_matrix(P),
    whose last is P's query row. A call runs each distinct prefix it asks for
    from the node of its longest proper prefix that the previous call kept,
    over the rows after that node's, or over all of its rows from
    ``model.initial_state()`` when none is kept; every asked prefix goes
    through one forward. The call keeps only the nodes it asked for: the live
    frontier of lockstep rollouts, which the next call extends by one event.
    So a fresh decoder's first call is one forward over its prefixes' rows,
    and rollout step k costs one row per live distinct prefix. The
    bidirectional encoder has no prefix state: it runs prediction mode over
    the distinct prefixes on every call.
    """

    def __init__(self, predictor: NeuralPredictor) -> None:
        self._predictor = predictor
        self._nodes: dict[tuple[Event, ...], tuple[State, np.ndarray]] = {}

    def __call__(self, prefixes: Sequence[Sequence[Event]]) -> np.ndarray:
        if not prefixes or not all(prefixes):
            raise ConstraintViolation("next-event prediction needs at least one event")
        slots: dict[tuple[Event, ...], int] = {}
        index = [slots.setdefault(tuple(events), len(slots)) for events in prefixes]
        predictor = self._predictor
        if predictor.is_causal:
            with nk.no_grad():
                nodes = self._decode(list(slots))
            self._nodes = dict(zip(slots, nodes))
            rows = np.stack([row for _, row in nodes])
        else:
            rows = predictor._last_rows([predictor.pipeline.prefix_matrix(k) for k in slots])
        if predictor.feasibility_mask:
            predictor._mask(rows, [predictor._walk(k)[-1] for k in slots])
        return rows[index]

    def _decode(self, keys: list[tuple[Event, ...]]) -> list[tuple[State, np.ndarray]]:
        """The nodes of distinct prefixes from one forward: each runs the rows
        after its longest kept proper prefix's from that node's state, or all
        of its rows from the initial state."""
        model, pipeline, kept = self._predictor.model, self._predictor.pipeline, self._nodes
        pasts = [next((key[:n] for n in range(len(key) - 1, 0, -1) if key[:n] in kept), None)
                 for key in keys]
        chunks = [pipeline.prefix_matrix(key)[0 if past is None else len(past) + 1 :]
                  for key, past in zip(keys, pasts)]
        states = [model.initial_state() if past is None else kept[past][0] for past in pasts]
        lengths = [len(chunk) for chunk in chunks]
        probs, extended = model.forward(np.concatenate(chunks), lengths, states)
        return list(zip(extended, _float64_rows(probs.data[np.cumsum(lengths) - 1])))
