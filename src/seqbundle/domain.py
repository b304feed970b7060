"""Core domain model for sequential consumption of an ordered bundle.

A listener walks through an ordered playlist one decision at a time. Each
event either skips the next track, plays the next track, or replays the
track that was just played. Per-track consumption is capped at ``cap`` units
(default 2: one play plus at most one replay), and the walk ends after the
last track is resolved.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConstraintViolation, SchemaError

DEFAULT_CAP = 2


class Outcome(str, Enum):
    """Decision outcome at one event position."""

    SKIP = "skip"
    PLAY = "play"
    REPLAY = "replay"

    def __str__(self) -> str:  # keep log/CSV output compact
        return self.value


# Canonical index order; also the deterministic tie-break order for argmax.
OUTCOME_ORDER: tuple[Outcome, Outcome, Outcome] = (
    Outcome.SKIP,
    Outcome.PLAY,
    Outcome.REPLAY,
)
OUTCOME_INDEX: Mapping[Outcome, int] = {o: i for i, o in enumerate(OUTCOME_ORDER)}
N_OUTCOMES = len(OUTCOME_ORDER)
_SKIP = OUTCOME_INDEX[Outcome.SKIP]
_PLAY = OUTCOME_INDEX[Outcome.PLAY]
_REPLAY = OUTCOME_INDEX[Outcome.REPLAY]

# Tolerance for a probability row (spec row, transition row, predictor row,
# attention row) summing to 1; check_prob_rows is its one user.
ROW_SUM_TOL = 1e-9


def check_prob_rows(rows, where: str, allow_empty: bool = False) -> np.ndarray:
    """``rows`` as float64, once every row along its last axis is a probability row.

    A probability row is finite, >= 0 and sums to 1 within ROW_SUM_TOL; with
    ``allow_empty`` an all-zero row passes too (a count-table row that no
    data reached). This is the only statement of the rule.
    """
    arr = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ConstraintViolation(f"{where}: probabilities must be finite and >= 0")
    sums = arr.sum(axis=-1)
    bad = np.abs(sums - 1.0) > ROW_SUM_TOL
    if allow_empty:
        bad &= sums != 0.0
    if np.any(bad):
        first = np.unravel_index(int(np.argmax(bad)), bad.shape)
        label = " row " + ",".join(str(int(i)) for i in first) if first else ""
        raise ConstraintViolation(
            f"{where}:{label} sums to {float(sums[first])!r}; probability rows must "
            f"sum to 1 within {ROW_SUM_TOL:g}"
        )
    return arr


def first_max_index(rows):
    """Index of the largest entry of each row along the last axis: the one
    argmax rule. Exact ties go to the earliest outcome in OUTCOME_ORDER."""
    return np.argmax(rows, axis=-1)


def draw_outcomes(rows, u) -> np.ndarray:
    """Outcome index (OUTCOME_ORDER) drawn from each row of ``rows`` by its
    uniform ``u`` on [0, 1): the one draw rule.

    SKIP when ``u < row[0]``, PLAY when ``u < row[0] + row[1]``, else the last
    outcome with nonzero mass, which also takes any mass that rounding leaves
    short of 1; so a row never yields an outcome it gives no mass. An all-zero
    row has nothing to draw and yields SKIP.
    """
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, N_OUTCOMES)
    skip, play, replay = rows.T
    rest = np.where(replay > 0.0, _REPLAY, np.where(play > 0.0, _PLAY, _SKIP))
    return np.where(u < skip, _SKIP, np.where(u < skip + play, _PLAY, rest))


_OUTCOME_BY_VALUE: Mapping[str, Outcome] = {o.value: o for o in Outcome}


def parse_outcome(raw: str) -> Outcome:
    """Parse a serialized outcome string ("skip" | "play" | "replay")."""
    try:
        return _OUTCOME_BY_VALUE[raw]
    except (KeyError, TypeError):
        raise ConstraintViolation(f"unknown outcome string {raw!r}") from None


def integer(value) -> int:
    """A JSON integer: an int, or a float with no fraction (2.0 reads as 2).
    2.7, true or "2" is a TypeError, never a truncation."""
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise TypeError(f"must be an integer, got {value!r}")


def number(value) -> float:
    """A JSON number as a float: true or "2" is a TypeError, never a cast."""
    if type(value) is int or type(value) is float:
        return float(value)
    raise TypeError(f"must be a number, got {value!r}")


def numbers(value) -> np.ndarray:
    """A JSON array of numbers, nested to any depth, as float64: a bare
    number, or a string, boolean or null entry, is a TypeError, never a cast."""

    def read(item):
        return [read(x) for x in item] if type(item) is list else number(item)

    if type(value) is not list:
        raise TypeError(f"must be a list of numbers, got {value!r}")
    return np.array(read(value), dtype=np.float64)


def string(value) -> str:
    """A JSON string: 7 or null is a TypeError, never a str() cast."""
    if type(value) is str:
        return value
    raise TypeError(f"must be a string, got {value!r}")


def boolean(value) -> bool:
    """A JSON boolean: true or false, never a truthy cast."""
    if type(value) is bool:
        return value
    raise TypeError(f"must be true or false, got {value!r}")


def one_of(*choices: str) -> Callable[[object], str]:
    """The rule of a JSON string among ``choices``."""

    def read(value) -> str:
        if type(value) is str and value in choices:
            return value
        raise ValueError(f"must be one of {list(choices)}, got {value!r}")

    return read


def at_least(least: int) -> Callable[[object], int]:
    """The rule of an integer, as integer reads it, that is >= ``least``."""

    def read(value) -> int:
        if (n := integer(value)) >= least:
            return n
        raise ValueError(f"must be an integer >= {least}, got {value!r}")

    return read


def object_of(rule) -> Callable[[object], dict]:
    """The rule of a JSON object with any keys, each value read by ``rule``."""
    read_value = _compiled(rule)

    def read(value) -> dict:
        if type(value) is not dict:
            raise _not_an_object(value)
        return dict(zip(value, _read_each(value.items(), read_value)))

    return read


class FieldError(SchemaError):
    """A field that is missing (``problem`` None) or that its rule refuses;
    ``key`` is its dotted name, or None for the object itself."""

    def __init__(self, where, key, problem: str | None) -> None:
        self.key, self.problem = key, problem
        text = (f"missing field {key!r}" if problem is None
                else problem if key is None else f"field {key!r}: {problem}")
        super().__init__(text if where is None else f"{where}: {text}")


# what a rule raises for a value it refuses
_REFUSALS = (TypeError, ValueError, ConstraintViolation, SchemaError)


def read_json(path) -> object:
    """The JSON value a file holds; a file that does not decode or parse, even
    for deep nesting, is a SchemaError naming it. read_fields reads its fields."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise SchemaError(f"{path}: not valid JSON (nested too deeply)") from None


def read_fields(obj, table: Mapping, where=None) -> dict:
    """``obj``'s fields as ``table`` reads them: field_reader(table)(obj, where)."""
    return field_reader(table)(obj, where)


# the default of a field that may not be missing
_REQUIRED = object()


def field_reader(table: Mapping) -> Callable[..., dict]:
    """The one field reader: ``table`` compiled into ``read(obj, where=None)``,
    ``obj``'s fields as ``table`` reads them.

    ``table`` maps each key to a rule, or to (rule, default) for a key that may
    be missing. A rule is a function that converts a JSON value or raises one of
    _REFUSALS, a table for a nested object, or [rule] for a JSON array whose
    items it reads, keyed by index. Other keys are ignored. A missing or refused
    field is a FieldError: "<where>: missing field '<dotted.key>'" or
    "<where>: field '<dotted.key>': <the rule's reason>". Nested tables and
    arrays are compiled here, once, so a reader built before a loop reads
    each object with no walk of its table."""
    fields = tuple(
        (key, _compiled(entry[0]), entry[1]) if type(entry) is tuple
        else (key, _compiled(entry), _REQUIRED)
        for key, entry in table.items()
    )

    def read(obj, where=None) -> dict:
        if type(obj) is not dict:
            raise _not_an_object(obj, where)
        out = {}
        for key, read_value, default in fields:
            if key in obj:
                try:
                    out[key] = read_value(obj[key])
                except _REFUSALS as exc:
                    raise _refused(where, key, exc) from None
            elif default is _REQUIRED:
                raise FieldError(where, key, None)
            else:
                out[key] = default
        return out

    return read


def _compiled(rule) -> Callable:
    """The function that reads a value by ``rule``: a rule function itself,
    or the reader of a nested table or array."""
    if type(rule) is dict:
        return field_reader(rule)
    if type(rule) is not list:
        return rule
    read_item = _compiled(rule[0])

    def read(value) -> list:
        if type(value) is not list:
            raise TypeError(f"must be a list, got {value!r}")
        return _read_each(enumerate(value), read_item)

    return read


def _read_each(items, read_value) -> list:
    """``read_value`` of the value of each (key, value) of ``items``; a
    refusal is a FieldError naming its key."""
    out = []
    for key, value in items:
        try:
            out.append(read_value(value))
        except _REFUSALS as exc:
            raise _refused(None, key, exc) from None
    return out


def _refused(where, key, exc) -> FieldError:
    """The FieldError of ``key`` whose value ``exc`` refused; a refused nested
    field's dotted key goes after ``key``."""
    if isinstance(exc, FieldError):
        return FieldError(where, key if exc.key is None else f"{key}.{exc.key}", exc.problem)
    return FieldError(where, key, str(exc))


def _not_an_object(value, where=None) -> FieldError:
    return FieldError(where, None, f"expected a JSON object, got {type(value).__name__}")


@dataclass(frozen=True, slots=True)
class Track:
    """One item of an ordered bundle."""

    track_id: str
    duration: float  # seconds, strictly positive
    extra_features: tuple[tuple[str, float], ...] = ()  # sorted (name, value) pairs

    def __post_init__(self) -> None:
        if not 0 < self.duration < math.inf:
            raise ConstraintViolation(
                f"track {self.track_id!r}: duration must be finite and > 0, "
                f"got {self.duration}"
            )


@dataclass(frozen=True, slots=True)
class Playlist:
    """An ordered bundle of tracks. Track order is the consumption order."""

    playlist_id: str
    tracks: tuple[Track, ...]

    def __post_init__(self) -> None:
        if not self.tracks:
            raise ConstraintViolation(f"playlist {self.playlist_id!r} has no tracks")

    def __len__(self) -> int:
        return len(self.tracks)

    def track_at(self, position: int) -> Track:
        """Track at a 1-based position."""
        if not 1 <= position <= len(self.tracks):
            raise ConstraintViolation(
                f"playlist {self.playlist_id!r}: position {position} outside 1..{len(self.tracks)}"
            )
        return self.tracks[position - 1]


_EVENTS: dict[tuple[int, Outcome], Event] = {}


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Event:
    """One decision: which track position it resolved and how.

    Events are canonical: ``Event(p, o)`` returns the one instance for
    (p, o), so equality is identity and an events tuple hashes in C. ``index``
    is the outcome's index in OUTCOME_ORDER.
    """

    track_position: int  # 1-based
    outcome: Outcome
    index: int = field(repr=False)

    def __new__(cls, track_position: int, outcome: Outcome) -> Event:
        event = _EVENTS.get((track_position, outcome))
        if event is None or type(track_position) is not int:  # 1.0 is no position
            position, outcome = operator.index(track_position), parse_outcome(outcome)
            if position < 1:
                raise ConstraintViolation(f"event track_position must be >= 1, got {position}")
            event = _EVENTS.get((position, outcome))
            if event is None:  # stored only once it is whole
                event = object.__new__(cls)
                object.__setattr__(event, "track_position", position)
                object.__setattr__(event, "outcome", outcome)
                object.__setattr__(event, "index", OUTCOME_INDEX[outcome])
                _EVENTS[position, outcome] = event
        return event

    def __reduce__(self):
        return Event, (self.track_position, self.outcome)


@dataclass(frozen=True, slots=True, init=False)
class Session:
    """One listener's walk through one playlist.

    Events are ordered. A REPLAY event carries the same track_position as the
    event before it; SKIP/PLAY events move to the next position. The first
    event always resolves track 1 (and therefore cannot be a REPLAY).
    """

    session_id: str
    playlist_id: str
    events: tuple[Event, ...]

    def __init__(self, session_id: str, playlist_id: str, events: tuple[Event, ...]) -> None:
        # a load builds one per line: set the slots through their descriptors,
        # past the frozen __setattr__
        if not events:
            raise ConstraintViolation(f"session {session_id!r} has no events")
        set_id, set_playlist, set_events = _SESSION_SLOTS
        set_id(self, session_id)
        set_playlist(self, playlist_id)
        set_events(self, events)

    def __len__(self) -> int:
        return len(self.events)


_SESSION_SLOTS = tuple(Session.__dict__[name].__set__ for name in Session.__slots__)


@dataclass(frozen=True, slots=True)
class ConsumptionState:
    """Play counts (x_1 .. x_i) for the items covered so far.

    Only the last count may still be incremented; earlier items are settled.
    """

    counts: tuple[int, ...]
    cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        if self.cap < 1:
            raise ConstraintViolation(f"cap must be >= 1, got {self.cap}")
        for k, c in enumerate(self.counts, start=1):
            if not 0 <= c <= self.cap:
                raise ConstraintViolation(
                    f"state count x_{k}={c} outside 0..{self.cap}"
                )

    @property
    def covered(self) -> int:
        """Number of items resolved so far (i)."""
        return len(self.counts)

    @property
    def last_count(self) -> int:
        if not self.counts:
            raise ConstraintViolation("empty state has no last count")
        return self.counts[-1]


def initial_state(cap: int = DEFAULT_CAP) -> ConsumptionState:
    """State before any decision has been made."""
    return ConsumptionState(counts=(), cap=cap)


def feasible_outcomes(
    track: int, count: int, n_tracks: int, cap: int
) -> tuple[bool, bool, bool]:
    """Which outcomes (in OUTCOME_ORDER) may follow once ``track`` holds ``count``.

    ``track`` is the last resolved position (0 before any decision). SKIP and
    PLAY need an unresolved track ahead; REPLAY needs a played track with
    budget left under ``cap``. This is the only statement of the rule.
    """
    ahead = track < n_tracks
    return ahead, ahead, track >= 1 and 1 <= count < cap


def _infeasible_reason(
    outcome: Outcome, track: int, count: int, n_tracks: int, cap: int
) -> str:
    if outcome is not Outcome.REPLAY:
        return (
            f"{outcome.value.upper()} past the end: all {n_tracks} items are "
            f"already resolved"
        )
    if track == 0:
        return "REPLAY with no preceding item: the first decision must resolve item 1"
    if count == 0:
        return "REPLAY after SKIP: a skipped item cannot be replayed"
    return f"REPLAY beyond cap: item already consumed {count} of {cap} units"


# The least count each outcome can leave on its track: a replay follows a play.
_LEAST_COUNT = (0, 1, 2)


def feasible_cells(cap: int = DEFAULT_CAP) -> np.ndarray:
    """(3, 3) bool mask of prev -> next transitions open to a first-order chain.

    Row ``prev`` is feasible_outcomes with a track ahead and the least count
    ``prev`` can leave: REPLAY may follow ``prev`` when that count is below
    ``cap``. So SKIP -> REPLAY is always closed, PLAY -> REPLAY is closed at
    cap 1 and REPLAY -> REPLAY at cap <= 2; a first-order chain sees no more
    of the count than its previous outcome.
    """
    return np.array([feasible_outcomes(1, least, 2, cap) for least in _LEAST_COUNT])


WalkStep = tuple[int, int, tuple[bool, bool, bool]]


def advance_walk(track: int, count: int, outcome: Outcome) -> tuple[int, int]:
    """The (track, count) after ``outcome`` is taken from (track, count).

    REPLAY adds a unit to the current track; SKIP and PLAY resolve the next
    track with 0 or 1 units. Feasibility is the caller's check.
    """
    if outcome is Outcome.REPLAY:
        return track, count + 1
    return track + 1, 0 if outcome is Outcome.SKIP else 1


def walk(
    events: Sequence[Event], n_tracks: int, cap: int = DEFAULT_CAP
) -> list[WalkStep]:
    """The (track, count) play-count walk of an event sequence.

    Entry j is (track, count, feasible) before event j, where ``feasible``
    comes from feasible_outcomes; the final entry describes the state after
    the last event. Raises ConstraintViolation naming the 1-based event index
    and the rule it breaks.
    """
    track = count = 0
    steps: list[WalkStep] = []
    for idx, event in enumerate(events, start=1):
        feasible = feasible_outcomes(track, count, n_tracks, cap)
        steps.append((track, count, feasible))
        outcome = event.outcome
        want, next_count = advance_walk(track, count, outcome)
        if event.track_position != want:
            raise ConstraintViolation(
                f"event {idx}: track_position {event.track_position} does not "
                f"follow from position {track} under outcome {outcome}"
            )
        if not feasible[event.index]:
            raise ConstraintViolation(
                f"event {idx}: "
                + _infeasible_reason(outcome, track, count, n_tracks, cap)
            )
        track, count = want, next_count
    steps.append((track, count, feasible_outcomes(track, count, n_tracks, cap)))
    return steps


def feasible_rows(rows: Sequence[Sequence[float]], replay_ok: Sequence[bool]) -> np.ndarray:
    """Conditional rows as outcomes are drawn from them: the one row rule.

    Row i loses its REPLAY mass unless ``replay_ok[i]`` and is divided by its
    sum; a row with no mass left comes back all zeros, which ends its walk.
    """
    out = np.array(rows, dtype=np.float64).reshape(-1, N_OUTCOMES)
    out[~np.asarray(replay_ok, dtype=bool), _REPLAY] = 0.0
    totals = out.sum(axis=1, keepdims=True)
    np.divide(out, totals, out=out, where=totals > 0.0)
    return out


def _children(
    prefixes: np.ndarray,
    states: list[tuple[int, int]],
    keys: np.ndarray,
    n_tracks: int,
    cap: int,
) -> tuple[list[tuple[Event, ...]], list[tuple[int, int]], np.ndarray]:
    """Prefix, (track, count) and feasible_outcomes of each child
    ``keys[i] = parent * N_OUTCOMES + outcome index`` of ``prefixes``."""
    children: list[tuple[Event, ...]] = []
    walked: list[tuple[int, int]] = []
    feasible: list[tuple[bool, bool, bool]] = []
    for key in keys.tolist():
        parent, k = divmod(key, N_OUTCOMES)
        outcome = OUTCOME_ORDER[k]
        track, count = advance_walk(*states[parent], outcome)
        children.append(prefixes[parent] + (Event(track_position=track, outcome=outcome),))
        walked.append((track, count))
        feasible.append(feasible_outcomes(track, count, n_tracks, cap))
    return children, walked, np.array(feasible, dtype=bool).reshape(-1, N_OUTCOMES)


class Walks(NamedTuple):
    """sample_walks' draw: each walk's events and, per step k, the rows of the
    distinct prefixes of length k + 1 as drawn (feasible_rows; zeros where no
    outcome is open) with the node of each walk longer than k, in walk order."""

    events: list[tuple[Event, ...]]
    steps: list[tuple[np.ndarray, np.ndarray]]

    def drawn(self, which: Sequence[int]) -> np.ndarray:
        """The rows walks ``which`` drew from, walk after walk: a walk's row j
        for its decision after its first j + 1 events."""
        lengths = np.array([len(events) for events in self.events])
        out = np.zeros((len(which), len(self.steps), N_OUTCOMES))
        for k, (rows, at) in enumerate(self.steps):
            # a walk past its last event reads another's row, which the mask drops
            out[:, k] = rows[at[(np.cumsum(lengths > k) - 1)[which]]]
        return out[np.arange(len(self.steps)) < lengths[which, None]]


def sample_walks(
    next_rows: Callable[[list[tuple[Event, ...]]], Sequence[Sequence[float]]],
    first: Sequence[int],
    uniforms: np.ndarray,
    n_tracks: int,
    cap: int,
) -> Walks:
    """Sample walks in lockstep from conditional rows, the one outcome sampler.

    Walk r opens with outcome index ``first[r]`` (OUTCOME_ORDER) and draws
    its k-th outcome from ``uniforms[r, k]`` by draw_outcomes, so it depends
    on its own row alone, never on which walks run beside it; ``uniforms``
    needs n_tracks * cap + 1 columns. The walks advance as a frontier of
    distinct prefixes, one length at a time: walks with the same prefix share
    one tuple, every step makes one ``next_rows(prefixes)`` call for the
    distinct prefixes with an open outcome, in the order of the first walk on
    each, and passes each row through feasible_rows once. A walk ends when no
    outcome is feasible, when its row has no mass left, or when it draws SKIP
    or PLAY with no track ahead; its events are the tuple of its last prefix,
    the one object every walk that ended on that prefix returns.
    """
    ended = np.empty(len(first), dtype=object)
    walks = np.arange(len(first))
    nodes = np.fromiter([()], dtype=object, count=1)  # the distinct prefixes
    states = [(0, 0)]  # (track, count) of each node
    at = np.zeros(len(first), dtype=np.intp)  # the node of each live walk
    outcome = np.asarray(first, dtype=np.intp)
    steps: list[tuple[np.ndarray, np.ndarray]] = []
    while len(walks):
        # each distinct (node, outcome) of the walks makes one child, in the
        # order of its first walk
        keys, first_walk, at = np.unique(
            at * N_OUTCOMES + outcome, return_index=True, return_inverse=True
        )
        order = np.argsort(first_walk)
        children, states, feasible = _children(nodes, states, keys[order], n_tracks, cap)
        nodes = np.fromiter(children, dtype=object, count=len(children))
        at = np.argsort(order)[at]  # the inverse permutation ranks each child
        rows = np.zeros((len(nodes), N_OUTCOMES))
        open_ = np.flatnonzero(feasible.any(axis=1))
        if len(open_):
            rows[open_] = feasible_rows(next_rows(nodes[open_].tolist()), feasible[open_, _REPLAY])
        steps.append((rows, at))
        drawn = rows[at]
        outcome = draw_outcomes(drawn, uniforms[walks, len(steps)])
        go = drawn.any(axis=1) & ((outcome == _REPLAY) | feasible[at, _SKIP])
        ended[walks[~go]] = nodes[at[~go]]
        walks, at, outcome = walks[go], at[go], outcome[go]
    return Walks(ended.tolist(), steps)


def advance_state(
    state: ConsumptionState, outcome: Outcome, n_tracks: int
) -> ConsumptionState:
    """Apply one decision outcome to a consumption state.

    SKIP appends a 0 count for the next item, PLAY appends a 1, REPLAY
    increments the last count. Raises ConstraintViolation naming the violated
    rule when the outcome is infeasible from ``state``.
    """
    if n_tracks < 1:
        raise ConstraintViolation(f"n_tracks must be >= 1, got {n_tracks}")
    if state.covered > n_tracks:
        raise ConstraintViolation(
            f"state covers {state.covered} items but the playlist has {n_tracks}"
        )
    track = state.covered
    count = state.counts[-1] if state.counts else 0
    if not feasible_outcomes(track, count, n_tracks, state.cap)[OUTCOME_INDEX[outcome]]:
        raise ConstraintViolation(
            _infeasible_reason(outcome, track, count, n_tracks, state.cap)
        )
    track, count = advance_walk(track, count, outcome)
    return ConsumptionState(state.counts[: track - 1] + (count,), cap=state.cap)


def is_terminal(state: ConsumptionState, n_tracks: int) -> bool:
    """True when no further decision is possible from ``state``.

    The walk ends once the last item is resolved with count 0 (skipped) or
    count == cap (no replay budget left). With a partial last count the
    listener may still replay, or simply stop; stopping is the caller's call.
    """
    count = state.counts[-1] if state.counts else 0
    return not any(feasible_outcomes(state.covered, count, n_tracks, state.cap))


def count_states(n_tracks: int, cap: int = DEFAULT_CAP) -> int:
    """Number of reachable consumption states for ``n_tracks`` items.

    Every vector (x_1..x_i) with 1 <= i <= n and each count in 0..cap is
    reachable, giving sum_{i=1..n} (cap+1)^i. Exact integer arithmetic, no
    overflow for any practical size.
    """
    if n_tracks < 1:
        raise ConstraintViolation(f"n_tracks must be >= 1, got {n_tracks}")
    if cap < 1:
        raise ConstraintViolation(f"cap must be >= 1, got {cap}")
    base = cap + 1
    return (base ** (n_tracks + 1) - base) // cap


def validate_session(
    session: Session, n_tracks: int, cap: int = DEFAULT_CAP
) -> list[WalkStep]:
    """Check every event of ``session`` against the process rules; its walk.

    Raises ConstraintViolation naming the session, the offending event index
    (1-based) and the rule it breaks.
    """
    try:
        return walk(session.events, n_tracks, cap)
    except ConstraintViolation as exc:
        raise ConstraintViolation(f"session {session.session_id!r} {exc}") from None


def session_to_states(
    session: Session, n_tracks: int, cap: int = DEFAULT_CAP
) -> tuple[ConsumptionState, ...]:
    """Fold a session into the consumption state after each event.

    Validates as it goes; the returned tuple has one state per event.
    """
    states: list[ConsumptionState] = []
    counts: tuple[int, ...] = ()
    for track, count, _ in validate_session(session, n_tracks, cap)[1:]:
        counts = counts[: track - 1] + (count,)
        states.append(ConsumptionState(counts, cap=cap))
    return tuple(states)


class SessionTally(NamedTuple):
    """Integer counts over a list of sessions, from tally_sessions."""

    outcomes: np.ndarray  # (3,): events per outcome
    transitions: np.ndarray  # (max_len + 1, 3, 3): [j, prev, next] into event j >= 2
    plays: np.ndarray  # (n_tracks, cap + 1): [i, c] sessions ending track i + 1 at c


def _sequence_counts(
    events: Sequence[Event], n_tracks: int
) -> tuple[list[int], list[int]]:
    """Outcome indices of an event sequence and its final per-track play
    counts, zero for unreached tracks."""
    counts = [0] * n_tracks
    for event in events:
        if event.index != _SKIP:
            counts[event.track_position - 1] += 1
    return [event.index for event in events], counts


def tally_sessions(
    sessions: Sequence[Session], n_tracks: int, cap: int = DEFAULT_CAP
) -> SessionTally:
    """Outcome, transition and final play-count tallies of ``sessions``.

    Sessions are grouped by their events tuple; each distinct sequence is
    counted once, weighted by the sessions that have it. A track enters
    ``plays`` only for sessions that reached it. Raises ConstraintViolation
    for the first session, in input order, that consumes more than ``cap``
    units of a track. This is the one count loop of the count models, the
    demand tallies and the dataset summaries.
    """
    if cap < 1:
        raise ConstraintViolation(f"cap must be >= 1, got {cap}")
    weights = Counter(session.events for session in sessions)
    # Python lists: an indexed numpy add costs more than a sequence's walk.
    max_len = max(map(len, weights), default=0)
    outcomes = [0] * N_OUTCOMES
    transitions = [
        [[0] * N_OUTCOMES for _ in range(N_OUTCOMES)] for _ in range(max_len + 1)
    ]
    plays = [[0] * (cap + 1) for _ in range(n_tracks)]
    for events, weight in weights.items():
        idx, counts = _sequence_counts(events, n_tracks)
        for track, count in enumerate(counts[: events[-1].track_position]):
            if count > cap:
                first = next(s for s in sessions if s.events == events)
                raise ConstraintViolation(
                    f"session {first.session_id!r}: track {track + 1} consumed "
                    f"{count} units, cap is {cap}"
                )
            plays[track][count] += weight
        for k in idx:
            outcomes[k] += weight
        for j in range(1, len(idx)):
            transitions[j + 1][idx[j - 1]][idx[j]] += weight
    return SessionTally(
        *(np.array(a, dtype=np.int64) for a in (outcomes, transitions, plays))
    )


def events_from_outcomes(outcomes: Iterable[Outcome]) -> tuple[Event, ...]:
    """Build events with track positions derived from an outcome sequence."""
    events: list[Event] = []
    pos = 0
    for outcome in outcomes:
        pos = pos if outcome is Outcome.REPLAY else pos + 1
        events.append(Event(track_position=max(pos, 1), outcome=outcome))
    return tuple(events)
