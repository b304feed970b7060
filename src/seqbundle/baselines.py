"""Count-based baselines: first-order Markov chains and a zero-order model.

All probability rows are ordered (SKIP, PLAY, REPLAY); the rules about them
(feasible transitions, row validity, the modal outcome) live in ``domain``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .domain import (
    DEFAULT_CAP,
    N_OUTCOMES,
    OUTCOME_INDEX,
    OUTCOME_ORDER,
    Event,
    Outcome,
    Playlist,
    Session,
    check_prob_rows,
    feasible_cells,
    feasible_outcomes,
    feasible_rows,
    integer,
    number,
    numbers,
    object_of,
    one_of,
    read_fields,
    string,
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

    ``matrices`` maps a slot to its transition matrix. kind "mc" holds its one
    pooled matrix at slot 0; kind "pmc" holds one per target event position
    (the transition INTO position j, j >= 2). ``marginal`` is the playlist's
    pooled outcome distribution, used as the fallback row.
    """

    kind: str
    playlist_id: str
    marginal: np.ndarray
    matrices: dict[int, TransitionMatrix]
    cap: int = DEFAULT_CAP
    smoothing: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("mc", "pmc"):
            raise ConstraintViolation(f"unknown Markov kind {self.kind!r}")
        positions = sorted(self.matrices)
        if self.kind == "mc" and positions != [0]:
            raise ConstraintViolation(f"MC holds one matrix, at slot 0; got slots {positions}")
        if self.kind == "pmc" and positions != list(range(2, len(positions) + 2)):
            raise ConstraintViolation(
                f"pMC positions must run from 2 without gaps, got {positions}"
            )
        self.marginal = check_prob_rows(self.marginal, "marginal distribution")

    @property
    def matrix(self) -> TransitionMatrix:
        """MC's pooled matrix, slot 0."""
        try:
            return self.matrices[0]
        except KeyError:
            raise AttributeError("only an MC has a pooled matrix") from None

    @property
    def n_parameters(self) -> int:
        return sum(int(feasible_cells(m.cap).sum()) for m in self.matrices.values())


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
    if not 0 <= smoothing < np.inf:
        raise ConstraintViolation(f"smoothing must be finite and >= 0, got {smoothing}")
    tally = tally_sessions(sessions, len(playlist), cap)
    transitions = tally.transitions.astype(np.float64)
    slots = enumerate(transitions[2:], start=2) if position_dependent else [
        (0, transitions.sum(axis=0))
    ]
    return MarkovModel(
        kind="pmc" if position_dependent else "mc",
        playlist_id=playlist.playlist_id,
        marginal=tally.outcomes / tally.outcomes.sum(),
        matrices={slot: _fit_matrix(counts, smoothing, cap) for slot, counts in slots},
        cap=cap,
        smoothing=smoothing,
    )


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

_NO_PREV = N_OUTCOMES  # the previous-outcome slot of the empty prefix


class _RowTable:
    """A count model's rows, one per prefix state, built with the predictor.

    A subclass sets ``rows``, the ``fallback`` mask of the states whose row
    stands in for a fit the model lacks, and ``_prefix_states(events)``, the
    states after events[:k] for k = 0..len(events). Every prediction is one
    gather, with at most one warning per call.
    """

    def _gather(self, states: Sequence[int]) -> np.ndarray:
        states = np.asarray(states, dtype=np.intp)
        if n_fallback := int(np.count_nonzero(self.fallback[states])):
            log.warning("%s for playlist %r read %d fallback row(s): the playlist marginal",
                        type(self).__name__, self.playlist_id, n_fallback)
        return self.rows[states]

    def predict_sessions(self, sessions: Sequence[Session]) -> list[np.ndarray]:
        """Each session's (n_events + 1, 3) rows, teacher-forced, the last for
        the decision after its last event, from one gather."""
        states = [self._prefix_states(session.events) for session in sessions]
        rows = self._gather([k for ks in states for k in ks])
        return np.split(rows, np.cumsum([len(ks) for ks in states]))[:-1]

    def decoder(self) -> Callable[[Sequence[Sequence[Event]]], np.ndarray]:
        """Next-event rows of event prefixes, (B, 3) per call. A count model
        keeps no per-prefix state: every call is one gather."""
        return lambda prefixes: self._gather([self._prefix_states(e)[-1] for e in prefixes])


@dataclass
class MarkovPredictor(_RowTable):
    """Teacher-forced per-event probability rows from a fitted Markov model.

    State (p, o) is the event at target position p after outcome o, or after
    the empty prefix for o == _NO_PREV, whose row is the marginal. MC has the
    one position slot 0; pMC has slots up to K+1 for fitted positions 2..K,
    and later positions read slot K+1. Rows no matrix fills, and structurally
    empty ones, fall back to the marginal.
    """

    model: MarkovModel

    def __post_init__(self) -> None:
        model = self.model
        self._last = max(model.matrices, default=0) + 1 if model.kind == "pmc" else 0
        rows = np.tile(model.marginal, (self._last + 1, N_OUTCOMES + 1, 1))
        fallback = np.ones((self._last + 1, N_OUTCOMES + 1), dtype=bool)
        fallback[:, _NO_PREV] = False
        for position, matrix in model.matrices.items():
            for o, outcome in enumerate(OUTCOME_ORDER):
                if not matrix.is_row_empty(outcome):
                    rows[position, o] = matrix.probs[o]
                    fallback[position, o] = False
        self.rows, self.fallback = rows.reshape(-1, N_OUTCOMES), fallback.reshape(-1)

    @property
    def playlist_id(self) -> str:
        return self.model.playlist_id

    @property
    def cap(self) -> int:
        return self.model.cap

    def _prefix_states(self, events: Sequence[Event]) -> list[int]:
        prev = [_NO_PREV] + [e.index for e in events]
        return [min(p, self._last) * (N_OUTCOMES + 1) + o for p, o in enumerate(prev, 1)]

    def predict_session(self, session: Session) -> np.ndarray:
        return self._gather(self._prefix_states(session.events)[:-1])

    def next_probs(self, events: Sequence[Event]) -> np.ndarray:
        return self.decoder()([events])[0]


@dataclass
class ZeroOrderPredictor(_RowTable):
    """Event-level distribution derived from per-track play-count marginals.

    State (track, count) of domain.walk is the decision taken once ``track``
    holds ``count`` units. Its replay probability is the table's
    P(x >= 2 | x >= 1) for the track when a replay is feasible; the remaining
    mass follows the next track's skip/play marginals, all skip past the last.
    """

    table: ZeroOrderTable

    def __post_init__(self) -> None:
        n, cap, probs = self.table.n_tracks, self.table.cap, self.table.probs
        played = probs[:, 1:].sum(axis=1)
        ratio = np.zeros(n + 1)
        np.divide(probs[:, 2:].sum(axis=1), played, out=ratio[1:], where=played > 0)
        replay = OUTCOME_INDEX[Outcome.REPLAY]
        replay_ok = [
            [feasible_outcomes(track, count, n, cap)[replay] for count in range(cap + 1)]
            for track in range(n + 1)
        ]
        r = np.where(replay_ok, ratio[:, None], 0.0)
        skip = np.append(probs[:, 0], 1.0)[:, None]
        rows = np.stack(((1 - r) * skip, (1 - r) * (1 - skip), r), axis=-1)
        self.rows = rows.reshape(-1, N_OUTCOMES)
        self.fallback = np.zeros(len(self.rows), dtype=bool)

    @property
    def playlist_id(self) -> str:
        return self.table.playlist_id

    @property
    def cap(self) -> int:
        return self.table.cap

    def _prefix_states(self, events: Sequence[Event]) -> list[int]:
        steps = walk(events, self.table.n_tracks, self.table.cap)
        return [track * (self.table.cap + 1) + count for track, count, _ in steps]

    def predict_session(self, session: Session) -> np.ndarray:
        return self._gather(self._prefix_states(session.events)[:-1])

    def next_probs(self, events: Sequence[Event]) -> np.ndarray:
        return self.decoder()([events])[0]


# ---------------------------------------------------------------------------
# serialization


def markov_to_json(model: MarkovModel) -> dict:
    probs = {str(pos): m.probs.tolist() for pos, m in sorted(model.matrices.items())}
    counts = {str(pos): m.counts.tolist() for pos, m in sorted(model.matrices.items())}
    return {
        "type": model.kind,
        "playlist_id": model.playlist_id,
        "cap": model.cap,
        "smoothing": model.smoothing,
        "marginal": model.marginal.tolist(),
        # MC's one matrix sits at the top level; pMC maps target positions
        **({"matrix": probs["0"], "counts": counts["0"]} if model.kind == "mc"
           else {"matrices": probs, "counts": counts}),
    }


def zero_order_to_json(table: ZeroOrderTable) -> dict:
    return {
        "type": "zero",
        "playlist_id": table.playlist_id,
        "cap": table.cap,
        "probs": table.probs.tolist(),
        "counts": table.counts.tolist(),
    }


_MARKOV_FIELDS = {"playlist_id": string, "cap": integer, "smoothing": (number, 0.0),
                  "marginal": numbers}
# a baseline bundle's payload, by its "type": MC's one matrix sits at the top
# level, and pMC maps target positions to their matrices
_BASELINE_FIELDS = {
    "zero": {"playlist_id": string, "cap": integer, "probs": numbers, "counts": numbers},
    "mc": {**_MARKOV_FIELDS, "matrix": numbers, "counts": numbers},
    "pmc": {**_MARKOV_FIELDS, "matrices": object_of(numbers), "counts": object_of(numbers)},
}
_TYPE = {"type": one_of(*_BASELINE_FIELDS)}


def baseline_from_json(obj: dict) -> MarkovModel | ZeroOrderTable:
    """The model a markov_to_json or zero_order_to_json object describes,
    read by _BASELINE_FIELDS for its type."""
    kind = read_fields(obj, _TYPE)["type"]
    fields = read_fields(obj, _BASELINE_FIELDS[kind])
    if kind == "zero":
        return ZeroOrderTable(**fields)
    if kind == "mc":
        probs, counts = {"0": fields.pop("matrix")}, {"0": fields.pop("counts")}
    else:
        probs, counts = fields.pop("matrices"), fields.pop("counts")
        if counts.keys() != probs.keys():
            raise SchemaError(f"counts cover positions {sorted(counts)}, matrices {sorted(probs)}")
    matrices = {int(pos): TransitionMatrix(probs=p, counts=counts[pos], cap=fields["cap"])
                for pos, p in probs.items()}
    return MarkovModel(kind=kind, matrices=matrices, **fields)
