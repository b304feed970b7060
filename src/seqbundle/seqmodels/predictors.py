"""Session-level prediction on top of a trained model and feature pipeline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..domain import (
    DEFAULT_CAP,
    OUTCOME_INDEX,
    OUTCOME_ORDER,
    Event,
    Outcome,
    Session,
    walk,
)
from ..errors import ConstraintViolation
from ..dataio import FeaturePipeline
from .config import ModelKind
from .models import SequenceModel


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
        """(n_events, 3) outcome probabilities, teacher-forced.

        Causal models run one pass over the whole session. The bidirectional
        encoder is evaluated in prediction mode: one pass per position, input
        truncated to rows 1..j, reading the output at row j.
        """
        rows = self.pipeline.matrix(session)
        if self.is_causal:
            probs, _ = self.model.forward(rows)
            out = probs.data.copy()
        else:
            out = np.zeros((rows.shape[0], 3), dtype=np.float64)
            for j in range(rows.shape[0]):
                probs, _ = self.model.forward(rows[: j + 1])
                out[j] = probs.data[-1]
        if self.feasibility_mask:
            out = self._apply_feasibility(session, out)
        return out

    def _apply_feasibility(self, session: Session, probs: np.ndarray) -> np.ndarray:
        """Zero the REPLAY column wherever a replay is impossible, renormalize."""
        replay = OUTCOME_INDEX[Outcome.REPLAY]
        out = probs.copy()
        steps = walk(session.events, len(self.pipeline.playlist), self.cap)
        for j in range(1, len(session.events)):
            if not steps[j][2][replay]:
                out[j, replay] = 0.0
                total = out[j].sum()
                if total > 0:
                    out[j] /= total
        return out

    def attention_for_session(self, session: Session) -> np.ndarray:
        """(n_blocks, n_heads, L, L) attention weights from one causal pass."""
        if self.model.kind is not ModelKind.TRANSFORMER:
            raise ConstraintViolation(
                f"attention capture needs the causal transformer, got "
                f"{self.model.kind.value!r}"
            )
        rows = self.pipeline.matrix(session)
        _, captured = self.model.forward(rows, capture_attention=True)
        assert captured is not None
        return captured

    # -- forward-looking prediction ------------------------------------------

    def predict_next(self, events: tuple[Event, ...]) -> tuple[Outcome, np.ndarray]:
        """Distribution over the outcome following ``events``.

        The model reads the feature matrix of ``events`` plus a placeholder
        event for the head of the queue: the next track in order, or the
        current track again when the playlist is exhausted. The placeholder's
        row depends only on its position, its track and the outcome before
        it, never on its own outcome.
        """
        if self.pipeline.config.leak:
            raise ConstraintViolation(
                "forward-looking prediction is undefined for leak features "
                "(observed remaining time requires the finished session)"
            )
        if not events:
            raise ConstraintViolation("predict_next needs at least one event")
        playlist = self.pipeline.playlist
        next_pos = min(events[-1].track_position + 1, len(playlist))
        placeholder = Event(track_position=next_pos, outcome=Outcome.PLAY)
        query = Session(
            session_id="query",
            playlist_id=playlist.playlist_id,
            events=tuple(events) + (placeholder,),
        )
        # The input ends at the query row, so one forward works for both the
        # causal models and the encoder's truncated prediction mode.
        probs, _ = self.model.forward(self.pipeline.matrix(query))
        row = probs.data[-1].copy()
        return OUTCOME_ORDER[int(np.argmax(row))], row

    def next_probs(self, events: tuple[Event, ...]) -> np.ndarray:
        """Probability row for the event that would follow the given prefix."""
        _, row = self.predict_next(tuple(events))
        return row

    def queue_next(self, events: tuple[Event, ...]) -> QueueDecision:
        """Iterate predictions to pick the next track to queue.

        A predicted SKIP advances the candidate position and repeats; PLAY
        stops with the candidate queued; REPLAY stops with the queue unchanged.
        """
        playlist = self.pipeline.playlist
        n = len(playlist)
        work = tuple(events)
        offset = 0
        taken: list[Outcome] = []
        while True:
            outcome, probs = self.predict_next(work)
            taken.append(outcome)
            if outcome is Outcome.PLAY:
                return QueueDecision(
                    outcome=outcome,
                    track_offset=offset + 1,
                    predicted=tuple(taken),
                    probs=tuple(float(p) for p in probs),
                )
            if outcome is Outcome.REPLAY:
                return QueueDecision(
                    outcome=outcome,
                    track_offset=offset,
                    predicted=tuple(taken),
                    probs=tuple(float(p) for p in probs),
                )
            candidate = work[-1].track_position + 1
            if candidate > n:
                return QueueDecision(
                    outcome=outcome,
                    track_offset=None,
                    predicted=tuple(taken),
                    probs=tuple(float(p) for p in probs),
                )
            work = work + (Event(track_position=candidate, outcome=Outcome.SKIP),)
            offset += 1
