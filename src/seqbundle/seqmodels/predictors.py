"""Session-level prediction and attention capture on a trained model and feature pipeline."""

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
    max_probability,
    walk,
)
from ..errors import ConstraintViolation
from ..dataio import FeaturePipeline
from .config import ModelKind
from .models import SequenceModel

_REPLAY = OUTCOME_INDEX[Outcome.REPLAY]
# Rows per inference forward, which holds activations for all of its rows; the
# encoder's prediction mode packs every prefix, about L/2 times a session's rows.
PACKED_ROWS = 1024


@dataclass(frozen=True, slots=True)
class QueueDecision:
    """Result of iterated next-track prediction.

    track_offset counts tracks ahead of the last resolved position: +1 means
    the immediate next track is played, 0 means the current track is replayed,
    None means the playlist ran out while skipping.
    """

    outcome: Outcome
    track_offset: int | None
    predicted: tuple[Outcome, ...]
    probs: tuple[float, ...]


@dataclass
class NeuralPredictor:
    model: SequenceModel
    pipeline: FeaturePipeline
    feasibility_mask: bool = False
    cap: int = DEFAULT_CAP

    @property
    def playlist_id(self) -> str:
        return self.pipeline.playlist.playlist_id

    @property
    def is_causal(self) -> bool:
        return self.model.kind is not ModelKind.ENCODER

    def predict_session(self, session: Session) -> np.ndarray:
        """(n_events, 3) outcome probabilities, teacher-forced."""
        return self.predict_sessions([session])[0]

    def predict_sessions(self, sessions: Sequence[Session]) -> list[np.ndarray]:
        """Each session's (n_events, 3) outcome probabilities, teacher-forced.

        Causal models pack all sessions into one forward (up to PACKED_ROWS
        rows). The bidirectional encoder is evaluated in prediction mode: the
        row for event j comes from a pass over rows 1..j alone, so the
        forward packs every prefix of every session and reads each prefix's
        last row. Packing changes no session's values.
        """
        if not sessions:
            return []
        matrices = [self.pipeline.matrix(session) for session in sessions]
        if self.is_causal:
            probs, _ = self._forward(matrices)
        else:
            probs = self._last_rows([m[:j] for m in matrices for j in range(1, len(m) + 1)])
        out = np.split(probs, np.cumsum([len(m) for m in matrices])[:-1])
        if self.feasibility_mask:
            for session, rows in zip(sessions, out):
                self._apply_feasibility(session, rows)
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
        probs = np.concatenate([p.data for p, _ in results])
        return probs, [weights for _, captured in results if captured for weights in captured]

    def _last_rows(self, matrices: Sequence[np.ndarray]) -> np.ndarray:
        """(B, 3): the last probability row of each packed matrix."""
        return self._forward(matrices)[0][np.cumsum([len(m) for m in matrices]) - 1]

    def _apply_feasibility(self, session: Session, probs: np.ndarray) -> None:
        """Put the scored rows where a replay is impossible through
        domain.feasible_rows, in place. Rows that keep REPLAY are left as they
        are, so their bits do not change; row 0 is never scored."""
        steps = walk(session.events, len(self.pipeline.playlist), self.cap)
        closed = [j for j in range(1, len(session.events)) if not steps[j][2][_REPLAY]]
        probs[closed] = feasible_rows(probs[closed], [False] * len(closed))

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

    def predict_next(self, events: tuple[Event, ...]) -> tuple[Outcome, np.ndarray]:
        """Most probable outcome following ``events``, and its probability row."""
        row = self.next_probs_batch([events])[0]
        return max_probability(row), row

    def next_probs(self, events: tuple[Event, ...]) -> np.ndarray:
        """Probability row for the event that would follow the given prefix."""
        return self.next_probs_batch([events])[0]

    def next_probs_batch(self, prefixes: Sequence[Sequence[Event]]) -> np.ndarray:
        """(B, 3) rows for the events that would follow the given prefixes.

        The model reads each prefix's FeaturePipeline.prefix_matrix, whose
        last row is the query row: built from the prefix alone, by the same
        rule as every scored row. The input ends at the query row, so one
        packed pass serves the causal models and the encoder's prediction
        mode, whatever the prefixes' lengths.
        """
        if self.pipeline.config.leak:
            raise ConstraintViolation(
                "forward-looking prediction is undefined for leak features "
                "(observed remaining time requires the finished session)"
            )
        if not prefixes or not all(prefixes):
            raise ConstraintViolation("next-event prediction needs at least one event")
        return self._last_rows([self.pipeline.prefix_matrix(events) for events in prefixes])

    def queue_next(self, events: tuple[Event, ...]) -> QueueDecision:
        """Iterate predictions to pick the next track to queue.

        A predicted SKIP advances the candidate position and repeats; PLAY
        stops with the candidate queued; REPLAY stops with the queue unchanged.
        """
        n = len(self.pipeline.playlist)
        work = tuple(events)
        offset = 0
        taken: list[Outcome] = []
        while True:
            outcome, probs = self.predict_next(work)
            taken.append(outcome)
            candidate = work[-1].track_position + 1
            if outcome is Outcome.SKIP and candidate <= n:
                work = work + (Event(track_position=candidate, outcome=Outcome.SKIP),)
                offset += 1
                continue
            # a SKIP here ran past the last track: nothing is left to queue
            track_offset = {Outcome.PLAY: offset + 1, Outcome.REPLAY: offset}.get(outcome)
            return QueueDecision(
                outcome=outcome,
                track_offset=track_offset,
                predicted=tuple(taken),
                probs=tuple(float(p) for p in probs),
            )
