"""Holdout evaluation: hit rates, confusion, demand rates, and dataset summaries.

Every predictor answers two calls. predict_sessions(sessions) returns one
(n_events + 1, 3) array of probability rows per session, ordered (SKIP, PLAY,
REPLAY); the row at index j is the prediction for event j given everything
before it, and the last is for the decision after the last event, which no
event records. Only rows 1..n_events - 1 are scored. decoder() returns a
callable that maps event prefixes of any lengths to (B, 3) next-event rows;
expected-mode demand asks it for the rollouts' rows. A neural model's decoder
keeps per-prefix state, so each call runs one forward on from the prefixes of
the call before; a count model's is one gather. One rollout call owns one
decoder and drops it when it returns.

Rows depend on their prefix alone, so evaluation scores, checks and walks
each distinct event sequence once, keyed on the events tuple (events are
canonical, so the tuple hashes in C), and weights it by its session count;
sums run over the distinct sequences in the order of their first session.
Rollouts come from domain.sample_walks, which asks for each distinct open
prefix once per step and returns the rows each walk drew from; expected-mode
demand credits those rows, with no second walk of the rollouts.

Every row a predictor returns must pass domain.check_prob_rows, at
domain.ROW_SUM_TOL; a scored event's prediction is its row's modal outcome,
domain.first_max_index, so exact ties go to the earliest outcome.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dataio import Dataset, Split, event_listening_time
from .domain import (
    DEFAULT_CAP,
    N_OUTCOMES,
    OUTCOME_INDEX,
    OUTCOME_ORDER,
    Event,
    Outcome,
    Playlist,
    Session,
    Walks,
    check_prob_rows,
    draw_outcomes,
    feasible_rows,
    first_max_index,
    sample_walks,
    tally_sessions,
    walk,
)
from .errors import ConstraintViolation, MetricUndefinedError

log = logging.getLogger(__name__)

_PLAY = OUTCOME_INDEX[Outcome.PLAY]
_REPLAY = OUTCOME_INDEX[Outcome.REPLAY]


def _check_prob_rows(probs: np.ndarray, n_events: int, where: str) -> np.ndarray:
    arr = np.asarray(probs, dtype=np.float64)
    if arr.shape != (n_events, N_OUTCOMES):
        raise ConstraintViolation(
            f"{where}: expected ({n_events}, 3) probabilities, got {arr.shape}"
        )
    return check_prob_rows(arr, where)


# ---------------------------------------------------------------------------
# scalar metrics


def hit_rate_from_counts(hits: int, total: int) -> float:
    if total <= 0:
        raise MetricUndefinedError("hit rate undefined with zero scored events")
    return hits / total


def confusion_normalized(counts: np.ndarray) -> np.ndarray:
    """Rows are actual outcomes, columns predicted; each non-empty row sums to 1."""
    arr = np.asarray(counts, dtype=np.float64)
    if arr.shape != (N_OUTCOMES, N_OUTCOMES):
        raise ConstraintViolation(f"confusion matrix must be 3x3, got {arr.shape}")
    out = np.zeros_like(arr)
    for i in range(N_OUTCOMES):
        total = arr[i].sum()
        if total > 0:
            out[i] = arr[i] / total
    return out


def pseudo_r2(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """1 - SS_res / SS_tot around the mean of the actual values.

    Can be arbitrarily negative for a bad predictor; undefined when the
    actual values are constant.
    """
    y = np.asarray(actual, dtype=np.float64)
    f = np.asarray(predicted, dtype=np.float64)
    if y.shape != f.shape or y.ndim != 1 or y.size < 2:
        raise ConstraintViolation("pseudo_r2 needs two equal-length vectors, size >= 2")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise MetricUndefinedError("pseudo R^2 undefined for constant actual values")
    ss_res = float(np.sum((y - f) ** 2))
    return 1.0 - ss_res / ss_tot


def hit_rate_cdf(values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of per-group hit rates: sorted unique values and F(x)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise MetricUndefinedError("CDF undefined for an empty sample")
    xs = np.unique(arr)
    fractions = np.searchsorted(np.sort(arr), xs, side="right") / arr.size
    return xs, fractions


# ---------------------------------------------------------------------------
# per-playlist evaluation


@dataclass(frozen=True, slots=True)
class DemandRates:
    """Per-track plays per listener, actual vs predicted, tracks 2..n.

    The first track is excluded: the model never predicts the first event.
    Actual demand is the mean final play count over the holdout sessions that
    reached the track; ``coverage`` records those denominators. Predicted
    demand, in both modes: at every decision after the first event, the one
    after the last included, the row as drawn (domain.feasible_rows) credits
    P(PLAY) to the track ahead and P(REPLAY) to the current track. A track is
    credited by, and divided by, the sessions that reached it: the holdout's
    in realized mode, the rollouts' in expected mode.
    """

    track_positions: tuple[int, ...]
    actual: tuple[float, ...]
    predicted: tuple[float, ...]
    coverage: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class EvaluationResult:
    playlist_id: str
    n_sessions: int
    n_scored: int
    hits: int
    confusion_counts: np.ndarray  # (3, 3), rows actual, columns predicted
    position_hits: tuple[tuple[int, int, int], ...]  # (position, hits, total)
    demand: DemandRates

    @property
    def hit_rate(self) -> float:
        return hit_rate_from_counts(self.hits, self.n_scored)

    def position_rates(self) -> tuple[tuple[int, float], ...]:
        return tuple((pos, h / t) for pos, h, t in self.position_hits if t > 0)


def _play_tally(plays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Final play counts summed per track, and how many sessions reached it,
    from the ``plays`` array of domain.tally_sessions."""
    return plays @ np.arange(plays.shape[1], dtype=np.float64), plays.sum(axis=1)


def _credit_plays(
    sequences: Iterable[tuple[tuple[Event, ...], int]], drawn: np.ndarray, n_tracks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Predicted plays summed per track, and how many sessions reached it:
    the one demand estimator (see DemandRates).

    ``sequences`` holds each distinct event sequence and its session count;
    ``drawn`` holds their rows as drawn (domain.feasible_rows), sequence
    after sequence, a sequence's row j for the decision after events[:j + 1].
    A session credits only the tracks it reached, so a track's sum estimates
    the expected final play count of the sessions its count covers.
    """
    cover = np.zeros(n_tracks + 1, dtype=np.int64)
    tracks, reached, weights = [], [], []
    for events, weight in sequences:
        cover[1 : events[-1].track_position + 1] += weight
        tracks += [event.track_position for event in events]
        reached += [events[-1].track_position] * len(events)
        weights += [weight] * len(events)
    tracks, drawn = np.array(tracks), drawn * np.array(weights)[:, None]
    ahead = tracks < np.array(reached)
    credit = np.bincount(tracks, drawn[:, _REPLAY], n_tracks + 1)
    credit += np.bincount(tracks[ahead] + 1, drawn[ahead, _PLAY], n_tracks + 1)
    return credit[1:], cover[1:]


def _demand_rates(
    actual: tuple[np.ndarray, np.ndarray], predicted: tuple[np.ndarray, np.ndarray]
) -> DemandRates:
    """Per-track means of two (sum, cover) tallies, tracks 2..n; coverage is
    the actual side's."""
    positions = tuple(range(2, len(actual[0]) + 1))

    def means(total: np.ndarray, cover: np.ndarray) -> tuple[float, ...]:
        return tuple(
            float(total[pos - 1] / c) if (c := int(cover[pos - 1])) > 0 else 0.0
            for pos in positions
        )

    return DemandRates(
        track_positions=positions,
        actual=means(*actual),
        predicted=means(*predicted),
        coverage=tuple(int(actual[1][pos - 1]) for pos in positions),
    )


def rollout_walks(
    predictor,
    playlist: Playlist,
    first_row: np.ndarray,
    uniforms: np.ndarray,
    cap: int = DEFAULT_CAP,
) -> Walks:
    """Sample walks from a predictor's own conditionals, all in lockstep:
    walk r draws its first outcome from ``first_row`` with ``uniforms[r, 0]``
    (n_tracks * cap + 1 columns) and the rest through domain.sample_walks, from
    one call per step to the predictor's decoder(), whose rows pass
    check_prob_rows before any is drawn from."""
    n = len(playlist)
    max_events = n * cap + 1
    if uniforms.ndim != 2 or uniforms.shape[1] < max_events:
        raise ConstraintViolation(
            f"rollouts need a (n_rollouts, {max_events}) block of uniforms, "
            f"got {uniforms.shape}"
        )
    where = f"playlist {playlist.playlist_id!r}: rollout rows"
    next_probs = predictor.decoder()
    first = draw_outcomes(first_row, uniforms[:, 0])
    return sample_walks(
        lambda prefixes: check_prob_rows(next_probs(prefixes), where), first, uniforms, n, cap
    )


def rollout_session(
    predictor,
    playlist: Playlist,
    first_row: np.ndarray,
    rng: np.random.Generator,
    cap: int = DEFAULT_CAP,
) -> Session:
    """Sample one session from a predictor's own conditionals (see rollout_walks)."""
    uniforms = rng.random((1, len(playlist) * cap + 1))
    events = rollout_walks(predictor, playlist, first_row, uniforms, cap).events[0]
    return Session(session_id="rollout", playlist_id=playlist.playlist_id, events=events)


def _rolled_plays(
    predictor,
    plays: np.ndarray,
    playlist: Playlist,
    cap: int,
    n_rollouts: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """_credit_plays over rollouts from the model, each distinct one with the
    rows it drew from, in the order of its first rollout; first events come
    from the holdout's (``plays``) frequencies."""
    if n_rollouts < 1:
        raise ConstraintViolation(f"n_rollouts must be >= 1, got {n_rollouts}")
    n = len(playlist)
    # the first event resolves track 1: a SKIP leaves it at 0 units, a PLAY above 0
    first_counts = np.array((plays[0, 0], plays[0, 1:].sum(), 0), dtype=np.float64)
    first_row = first_counts / first_counts.sum()
    rng = np.random.default_rng([seed, 0x5EED])
    uniforms = rng.random((n_rollouts, n * cap + 1))
    rolled = rollout_walks(predictor, playlist, first_row, uniforms, cap)
    first = {events: r for r, events in reversed(list(enumerate(rolled.events)))}  # least r wins
    return _credit_plays(Counter(rolled.events).items(), rolled.drawn(sorted(first.values())), n)


def evaluate_playlist(
    predictor,
    sessions: Sequence[Session],
    playlist: Playlist,
    cap: int = DEFAULT_CAP,
    demand_mode: str = "realized",
    n_rollouts: int = 200,
    seed: int = 0,
) -> EvaluationResult:
    """Score one predictor on one playlist's holdout sessions.

    Events at positions >= 2 are scored with the most-probable-outcome rule.
    """
    if not sessions:
        raise ConstraintViolation(
            f"no sessions to evaluate for playlist {playlist.playlist_id!r}"
        )
    if demand_mode not in ("realized", "expected"):
        raise ConstraintViolation(f"unknown demand mode {demand_mode!r}")
    confusion = np.zeros((N_OUTCOMES, N_OUTCOMES), dtype=np.int64)
    position_hits: dict[int, list[int]] = {}
    weights = Counter(session.events for session in sessions)
    first = {session.events: session for session in reversed(sessions)}
    checked = {
        events: _check_prob_rows(probs, len(events) + 1, f"session {first[events].session_id!r}")
        for events, probs in zip(weights, predictor.predict_sessions([first[e] for e in weights]))
    }
    for events, weight in weights.items():
        predicted = first_max_index(checked[events][1:-1]).tolist()
        for position, (event, pred_idx) in enumerate(zip(events[1:], predicted), start=2):
            confusion[event.index, pred_idx] += weight
            bucket = position_hits.setdefault(position, [0, 0])
            bucket[0] += weight * (pred_idx == event.index)
            bucket[1] += weight
    n = len(playlist)
    plays = tally_sessions(sessions, n, cap).plays
    if demand_mode == "realized":
        replay_ok = [f[_REPLAY] for events in weights for _, _, f in walk(events, n, cap)[1:]]
        rows = np.concatenate([checked[events][1:] for events in weights])
        predicted_plays = _credit_plays(weights.items(), feasible_rows(rows, replay_ok), n)
    else:
        predicted_plays = _rolled_plays(predictor, plays, playlist, cap, n_rollouts, seed)
    return EvaluationResult(
        playlist_id=playlist.playlist_id,
        n_sessions=len(sessions),
        n_scored=int(confusion.sum()),
        hits=int(np.trace(confusion)),
        confusion_counts=confusion,
        position_hits=tuple(
            (pos, h, t) for pos, (h, t) in sorted(position_hits.items())
        ),
        demand=_demand_rates(_play_tally(plays), predicted_plays),
    )


# ---------------------------------------------------------------------------
# dataset-level evaluation


@dataclass(frozen=True, slots=True)
class EvaluationReport:
    results: tuple[EvaluationResult, ...]
    demand_mode: str

    @property
    def n_scored(self) -> int:
        return sum(r.n_scored for r in self.results)

    @property
    def hits(self) -> int:
        return sum(r.hits for r in self.results)

    @property
    def hit_rate(self) -> float:
        """Pooled over playlists, each scored event weighing the same."""
        return hit_rate_from_counts(self.hits, self.n_scored)

    def confusion_counts(self) -> np.ndarray:
        total = np.zeros((N_OUTCOMES, N_OUTCOMES), dtype=np.int64)
        for r in self.results:
            total += r.confusion_counts
        return total

    def position_rate_values(self) -> tuple[float, ...]:
        """Per-(playlist, position) hit rates, the sample behind the CDF."""
        values: list[float] = []
        for r in self.results:
            values.extend(rate for _, rate in r.position_rates())
        return tuple(values)

    def pooled_demand(self) -> tuple[np.ndarray, np.ndarray]:
        actual: list[float] = []
        predicted: list[float] = []
        for r in self.results:
            for i, c in enumerate(r.demand.coverage):
                if c > 0:
                    actual.append(r.demand.actual[i])
                    predicted.append(r.demand.predicted[i])
        return np.asarray(actual), np.asarray(predicted)

    def demand_pseudo_r2(self) -> float | None:
        actual, predicted = self.pooled_demand()
        if actual.size < 2:
            return None
        try:
            return pseudo_r2(actual, predicted)
        except MetricUndefinedError:
            return None

    def to_jsonable(self) -> dict:
        per_playlist = []
        for r in self.results:
            per_playlist.append(
                {
                    "playlist_id": r.playlist_id,
                    "n_sessions": r.n_sessions,
                    "n_scored": r.n_scored,
                    "hits": r.hits,
                    "hit_rate": r.hit_rate,
                    "confusion_counts": r.confusion_counts.tolist(),
                    "confusion_rates": confusion_normalized(
                        r.confusion_counts
                    ).tolist(),
                    "position_hit_rates": [
                        {"position": pos, "hits": h, "observations": t, "rate": h / t}
                        for pos, h, t in r.position_hits
                    ],
                    "demand": asdict(r.demand),
                }
            )
        xs, fractions = hit_rate_cdf(self.position_rate_values())
        return {
            "demand_mode": self.demand_mode,
            "n_scored": self.n_scored,
            "hits": self.hits,
            "hit_rate": self.hit_rate,
            "confusion_counts": self.confusion_counts().tolist(),
            "confusion_rates": confusion_normalized(self.confusion_counts()).tolist(),
            "outcome_order": [o.value for o in OUTCOME_ORDER],
            "position_rate_cdf": {
                "values": xs.tolist(),
                "cumulative": fractions.tolist(),
            },
            "demand_pseudo_r2": self.demand_pseudo_r2(),
            "playlists": per_playlist,
        }


def evaluate_dataset(
    predictors: Mapping[str, object],
    dataset: Dataset,
    split: Split = Split.TEST,
    demand_mode: str = "realized",
    n_rollouts: int = 200,
    seed: int = 0,
) -> EvaluationReport:
    """Evaluate per-playlist predictors on one split of a dataset, at its cap.

    ``predictors`` maps playlist id to a fitted predictor. Playlists without
    holdout sessions are skipped with a warning; a playlist with sessions but
    no predictor or no scored event is an error.
    """
    results: list[EvaluationResult] = []
    for pid in sorted(dataset.playlists):
        sessions = dataset.sessions_for(pid, split)
        if not sessions:
            log.warning("playlist %r has no %s sessions; skipping", pid, split.value)
            continue
        if pid not in predictors:
            raise ConstraintViolation(f"no predictor for playlist {pid!r}")
        if all(len(session) < 2 for session in sessions):
            raise ConstraintViolation(
                f"playlist {pid!r}: no {split.value} session has a scored event "
                f"(scoring needs a session of at least 2 events)"
            )
        results.append(
            evaluate_playlist(
                predictors[pid],
                sessions,
                dataset.playlists[pid],
                cap=dataset.cap,
                demand_mode=demand_mode,
                n_rollouts=n_rollouts,
                seed=seed,
            )
        )
    if not results:
        raise ConstraintViolation(f"no playlist had any {split.value} sessions")
    return EvaluationReport(results=tuple(results), demand_mode=demand_mode)


# ---------------------------------------------------------------------------
# dataset summaries


@dataclass(frozen=True, slots=True)
class PlaylistSummary:
    playlist_id: str
    n_tracks: int
    n_sessions: int
    mean_events: float
    mean_listening_seconds: float
    mean_tracks_played: float
    share_skip: float
    share_play: float
    share_replay: float


def summarize_dataset(dataset: Dataset) -> tuple[PlaylistSummary, ...]:
    """Descriptive statistics per playlist over all sessions (both splits)."""
    out: list[PlaylistSummary] = []
    for pid in sorted(dataset.playlists):
        playlist = dataset.playlists[pid]
        sessions = dataset.sessions_for(pid)
        if not sessions:
            log.warning("playlist %r has no sessions; skipping summary", pid)
            continue
        tally = tally_sessions(sessions, len(playlist), dataset.cap)
        seconds = {  # per distinct sequence, added per session in order below
            events: sum(event_listening_time(e, playlist) for e in events)
            for events in {session.events for session in sessions}
        }
        total_seconds = 0.0
        for session in sessions:
            total_seconds += seconds[session.events]
        n_sessions = len(sessions)
        n_actions = int(tally.outcomes.sum())
        shares = tally.outcomes / n_actions
        out.append(
            PlaylistSummary(
                playlist_id=pid,
                n_tracks=len(playlist),
                n_sessions=n_sessions,
                mean_events=n_actions / n_sessions,
                mean_listening_seconds=total_seconds / n_sessions,
                mean_tracks_played=int(tally.plays[:, 1:].sum()) / n_sessions,
                share_skip=shares[OUTCOME_INDEX[Outcome.SKIP]],
                share_play=shares[OUTCOME_INDEX[Outcome.PLAY]],
                share_replay=shares[OUTCOME_INDEX[Outcome.REPLAY]],
            )
        )
    if not out:
        raise ConstraintViolation("dataset has no sessions to summarize")
    return tuple(out)


def summary_to_jsonable(summaries: Iterable[PlaylistSummary]) -> list[dict]:
    return [asdict(s) for s in summaries]
