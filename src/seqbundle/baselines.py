"""Count-based baselines: first-order Markov chains and a zero-order model.

All probability rows are ordered (SKIP, PLAY, REPLAY); the rules about them
(feasible transitions, row validity, the modal outcome) live in ``domain``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .domain import (
    DEFAULT_CAP,
    N_OUTCOMES,
    OUTCOME_INDEX,
    Event,
    Outcome,
    Playlist,
    Session,
    check_prob_rows,
    feasible_cells,
    feasible_rows,
    tally_sessions,
    walk,
)
from .errors import ConstraintViolation, SchemaError

log = logging.getLogger(__name__)


@dataclass
class TransitionMatrix:
    """Row-stochastic 3x3 transition probabilities with raw counts kept.

    A row that never occurred (and got no smoothing) is all zero and reported
    as structurally empty; every other row is a probability row.
    """

    probs: np.ndarray
    counts: np.ndarray
    cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        self.probs = np.asarray(self.probs, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.float64)
        if self.probs.shape != (N_OUTCOMES, N_OUTCOMES):
            raise ConstraintViolation(
                f"transition matrix must be 3x3, got {self.probs.shape}"
            )
        mask = feasible_cells(self.cap)
        if np.any(self.probs[~mask] != 0.0):
            raise ConstraintViolation(
                "transition matrix puts mass on an infeasible cell"
            )
        check_prob_rows(self.probs, "transition matrix", allow_empty=True)

    def row(self, prev: Outcome) -> np.ndarray:
        return self.probs[OUTCOME_INDEX[prev]]

    def is_row_empty(self, prev: Outcome) -> bool:
        return float(self.probs[OUTCOME_INDEX[prev]].sum()) == 0.0


@dataclass
class MarkovModel:
    """First-order chain over outcomes, optionally position-dependent.

    kind "mc" holds one pooled matrix; kind "pmc" holds one matrix per target
    event position (the transition INTO position j, j >= 2). ``marginal`` is
    the playlist's pooled outcome distribution, used as the fallback row.
    """

    kind: str
    playlist_id: str
    marginal: np.ndarray
    matrix: TransitionMatrix | None = None
    matrices: dict[int, TransitionMatrix] = field(default_factory=dict)
    cap: int = DEFAULT_CAP
    smoothing: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("mc", "pmc"):
            raise ConstraintViolation(f"unknown Markov kind {self.kind!r}")
        self.marginal = check_prob_rows(self.marginal, "marginal distribution")

    @property
    def n_parameters(self) -> int:
        mats = [self.matrix] if self.kind == "mc" else list(self.matrices.values())
        return sum(int(feasible_cells(m.cap).sum()) for m in mats if m is not None)


def _fit_matrix(counts: np.ndarray, smoothing: float, cap: int) -> TransitionMatrix:
    mask = feasible_cells(cap)
    replay_ok = mask[:, OUTCOME_INDEX[Outcome.REPLAY]]
    probs = feasible_rows(counts + smoothing * mask, replay_ok)
    return TransitionMatrix(probs=probs, counts=counts, cap=cap)


def fit_markov(
    sessions: Sequence[Session],
    playlist: Playlist,
    position_dependent: bool = False,
    smoothing: float = 0.0,
    cap: int = DEFAULT_CAP,
) -> MarkovModel:
    """Fit MC (pooled) or pMC (per target position) transition probabilities.

    Smoothing adds the given pseudo-count to feasible cells only; infeasible
    cells stay exactly zero.
    """
    if not sessions:
        raise ConstraintViolation("cannot fit a Markov model on zero sessions")
    if smoothing < 0:
        raise ConstraintViolation(f"smoothing must be >= 0, got {smoothing}")
    tally = tally_sessions(sessions, len(playlist), cap)
    transitions = tally.transitions.astype(np.float64)
    matrix, matrices = None, {}
    if position_dependent:
        for position, counts in enumerate(transitions[2:], start=2):
            matrices[position] = _fit_matrix(counts, smoothing, cap)
    else:
        matrix = _fit_matrix(transitions.sum(axis=0), smoothing, cap)
    return MarkovModel(
        kind="pmc" if position_dependent else "mc",
        playlist_id=playlist.playlist_id,
        marginal=tally.outcomes / tally.outcomes.sum(),
        matrix=matrix,
        matrices=matrices,
        cap=cap,
        smoothing=smoothing,
    )


def predict_markov(
    model: MarkovModel, prev: Outcome, position: int | None = None
) -> np.ndarray:
    """Probability row for the next outcome given the previous one.

    Structurally empty rows (and pMC positions that were never fitted) fall
    back to the playlist marginal, with a warning so silent degradation is
    visible in logs.
    """
    if model.kind == "mc":
        matrix = model.matrix
        assert matrix is not None
    else:
        if position is None:
            raise ConstraintViolation("pMC prediction requires a position")
        matrix = model.matrices.get(position)
        if matrix is None:
            log.warning(
                "pMC for playlist %r has no matrix for position %d; "
                "falling back to the playlist marginal",
                model.playlist_id,
                position,
            )
            return model.marginal.copy()
    if matrix.is_row_empty(prev):
        log.warning(
            "%s row %r for playlist %r is structurally empty; "
            "falling back to the playlist marginal",
            model.kind,
            prev.value,
            model.playlist_id,
        )
        return model.marginal.copy()
    return matrix.row(prev).copy()


@dataclass
class ZeroOrderTable:
    """Per-track play-count marginals: probs[i, c] = P(track i+1 consumed c times).

    Each row sums to 1 over counts 0..cap, or is all zero for a track no
    session reached; counts[i] is the number of sessions in which track i+1
    was observed at all.
    """

    playlist_id: str
    probs: np.ndarray
    counts: np.ndarray
    cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        self.probs = np.asarray(self.probs, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.float64)
        if self.probs.ndim != 2 or self.probs.shape[1] != self.cap + 1:
            raise ConstraintViolation(
                f"zero-order table must be (n_tracks, cap+1), got {self.probs.shape}"
            )
        check_prob_rows(self.probs, "zero-order table", allow_empty=True)

    @property
    def n_tracks(self) -> int:
        return self.probs.shape[0]

    def p(self, track_position: int, count: int) -> float:
        return float(self.probs[track_position - 1, count])

    def p_played(self, track_position: int) -> float:
        return float(self.probs[track_position - 1, 1:].sum())

    def p_replayed(self, track_position: int) -> float:
        return float(self.probs[track_position - 1, 2:].sum())

    def expected_plays(self, track_position: int) -> float:
        """Mean units consumed for a track, implied by the table."""
        row = self.probs[track_position - 1]
        return float(np.dot(row, np.arange(self.cap + 1)))


def fit_zero_order(
    sessions: Sequence[Session], playlist: Playlist, cap: int = DEFAULT_CAP
) -> ZeroOrderTable:
    """Empirical play-count frequencies per track position.

    A track only enters a session's tally if the session reached it (always
    true for full-mode data, not for truncated data).
    """
    if not sessions:
        raise ConstraintViolation("cannot fit a zero-order table on zero sessions")
    tallies = tally_sessions(sessions, len(playlist), cap).plays.astype(np.float64)
    seen = tallies.sum(axis=1)
    probs = np.zeros_like(tallies)
    nonzero = seen > 0
    probs[nonzero] = tallies[nonzero] / seen[nonzero, None]
    return ZeroOrderTable(
        playlist_id=playlist.playlist_id, probs=probs, counts=seen, cap=cap
    )


# ---------------------------------------------------------------------------
# session-level predictors (shared interface with the neural models)


class _LoopedBatches:
    """The batched predictor methods as loops over the per-session ones, whose
    rows are table lookups."""

    def predict_sessions(self, sessions: Sequence[Session]) -> list[np.ndarray]:
        return [self.predict_session(session) for session in sessions]

    def next_probs_batch(self, prefixes: Sequence[Sequence[Event]]) -> np.ndarray:
        return np.array([self.next_probs(events) for events in prefixes])


@dataclass
class MarkovPredictor(_LoopedBatches):
    """Teacher-forced per-event probability rows from a fitted Markov model."""

    model: MarkovModel

    @property
    def playlist_id(self) -> str:
        return self.model.playlist_id

    def predict_session(self, session: Session) -> np.ndarray:
        outcomes = session.outcomes()
        probs = np.zeros((len(outcomes), N_OUTCOMES), dtype=np.float64)
        probs[0] = self.model.marginal  # position 1 is never scored
        for j in range(1, len(outcomes)):
            probs[j] = predict_markov(self.model, outcomes[j - 1], position=j + 1)
        return probs

    def next_probs(self, events: Sequence[Event]) -> np.ndarray:
        """Probability row for the event that would follow the given prefix."""
        if not events:
            return self.model.marginal.copy()
        return predict_markov(
            self.model, events[-1].outcome, position=len(events) + 1
        )


@dataclass
class ZeroOrderPredictor(_LoopedBatches):
    """Event-level distribution derived from per-track play-count marginals.

    At the decision after track i (count x_i), the replay probability is the
    table's P(x_i >= 2 | x_i >= 1) when a replay is feasible; the remaining
    mass follows the next track's skip/play marginals.
    """

    table: ZeroOrderTable

    @property
    def playlist_id(self) -> str:
        return self.table.playlist_id

    def _row_after(
        self, track: int, count: int, feasible: tuple[bool, bool, bool]
    ) -> np.ndarray:
        """Row for the decision taken after the given track holds the given count."""
        r = 0.0
        if feasible[OUTCOME_INDEX[Outcome.REPLAY]]:
            played = self.table.p_played(track)
            if played > 0:
                r = self.table.p_replayed(track) / played
        if feasible[OUTCOME_INDEX[Outcome.PLAY]]:
            skip = self.table.p(track + 1, 0)
            return np.array(((1 - r) * skip, (1 - r) * (1 - skip), r))
        return np.array((1 - r, 0.0, r))

    def predict_session(self, session: Session) -> np.ndarray:
        steps = walk(session.events, self.table.n_tracks, self.table.cap)
        return np.array([self._row_after(*step) for step in steps[:-1]])

    def next_probs(self, events: Sequence[Event]) -> np.ndarray:
        """Probability row for the event that would follow the given prefix."""
        return self._row_after(*walk(events, self.table.n_tracks, self.table.cap)[-1])


# ---------------------------------------------------------------------------
# serialization


def markov_to_json(model: MarkovModel) -> dict:
    obj: dict = {
        "type": model.kind,
        "playlist_id": model.playlist_id,
        "cap": model.cap,
        "smoothing": model.smoothing,
        "marginal": model.marginal.tolist(),
    }
    if model.kind == "mc":
        assert model.matrix is not None
        obj["matrix"] = model.matrix.probs.tolist()
        obj["counts"] = model.matrix.counts.tolist()
    else:
        obj["matrices"] = {
            str(pos): m.probs.tolist() for pos, m in sorted(model.matrices.items())
        }
        obj["counts"] = {
            str(pos): m.counts.tolist() for pos, m in sorted(model.matrices.items())
        }
    return obj


def zero_order_to_json(table: ZeroOrderTable) -> dict:
    return {
        "type": "zero",
        "playlist_id": table.playlist_id,
        "cap": table.cap,
        "probs": table.probs.tolist(),
        "counts": table.counts.tolist(),
    }


def baseline_from_json(obj: dict) -> MarkovModel | ZeroOrderTable:
    kind = obj.get("type")
    if kind == "zero":
        return ZeroOrderTable(
            playlist_id=obj["playlist_id"],
            probs=np.asarray(obj["probs"], dtype=np.float64),
            counts=np.asarray(obj["counts"], dtype=np.float64),
            cap=int(obj["cap"]),
        )
    if kind == "mc":
        return MarkovModel(
            kind="mc",
            playlist_id=obj["playlist_id"],
            marginal=np.asarray(obj["marginal"], dtype=np.float64),
            matrix=TransitionMatrix(
                probs=np.asarray(obj["matrix"], dtype=np.float64),
                counts=np.asarray(obj["counts"], dtype=np.float64),
                cap=int(obj["cap"]),
            ),
            cap=int(obj["cap"]),
            smoothing=float(obj.get("smoothing", 0.0)),
        )
    if kind == "pmc":
        cap = int(obj["cap"])
        matrices = {
            int(pos): TransitionMatrix(
                probs=np.asarray(probs, dtype=np.float64),
                counts=np.asarray(obj["counts"][pos], dtype=np.float64),
                cap=cap,
            )
            for pos, probs in obj["matrices"].items()
        }
        return MarkovModel(
            kind="pmc",
            playlist_id=obj["playlist_id"],
            marginal=np.asarray(obj["marginal"], dtype=np.float64),
            matrices=matrices,
            cap=cap,
            smoothing=float(obj.get("smoothing", 0.0)),
        )
    raise SchemaError(f"unknown baseline model type {kind!r}")
