"""Synthetic listening sessions with known conditional structure.

Three generator kinds:
  markov1     next outcome depends on the previous outcome
  markov_pos  like markov1, but with a separate row per event position
  order2      next outcome depends on the previous two outcomes

All sessions are drawn in one domain.sample_walks call, the sampler that
expected-mode rollouts use too: it asks the spec for one row per distinct
live prefix and step. Session k reads its uniforms from its own bit stream,
np.random.default_rng([seed, k]), so any one session can be regenerated
without replaying the stream and inserting sessions never disturbs earlier
ones. The streams are not built one by one: _uniform_block computes every
session's row of uniforms as one block, bit-identical to those generators.

The reference rates (bayes_rate, first_order_rate) score the rows the
sampler drew, once per distinct walk: no session is walked or asked of the
spec a second time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .baselines import MarkovPredictor, fit_markov
from .dataio import Dataset, dataset_from_sessions
from .domain import (
    DEFAULT_CAP,
    N_OUTCOMES,
    OUTCOME_INDEX,
    OUTCOME_ORDER,
    Event,
    Outcome,
    Playlist,
    Session,
    Track,
    Walks,
    at_least,
    check_prob_rows,
    feasible_cells,
    first_max_index,
    integer,
    number,
    object_of,
    one_of,
    read_fields,
    sample_walks,
    string,
)
from .errors import ConstraintViolation

_SKIP = OUTCOME_INDEX[Outcome.SKIP]
_PLAY = OUTCOME_INDEX[Outcome.PLAY]
_REPLAY = OUTCOME_INDEX[Outcome.REPLAY]

_BASE_DURATIONS = (214.0, 187.5, 243.2, 198.7, 256.4, 171.9, 222.4, 204.3)

GENERATOR_KINDS = ("markov1", "markov_pos", "order2")

Row = tuple[float, float, float]


def build_playlist(
    playlist_id: str = "synthetic",
    n_tracks: int = 13,
    durations: tuple[float, ...] | None = None,
) -> Playlist:
    """Playlist with the given or cycled default track durations."""
    if n_tracks < 1:
        raise ConstraintViolation(f"n_tracks must be >= 1, got {n_tracks}")
    if durations is None:
        durations = tuple(
            _BASE_DURATIONS[i % len(_BASE_DURATIONS)] for i in range(n_tracks)
        )
    if len(durations) != n_tracks:
        raise ConstraintViolation(
            f"{len(durations)} durations for {n_tracks} tracks"
        )
    tracks = tuple(
        Track(track_id=f"t{i + 1:03d}", duration=float(d))
        for i, d in enumerate(durations)
    )
    return Playlist(playlist_id=playlist_id, tracks=tracks)


def _validate_row(row: Row, prev: Outcome, cap: int, where: str) -> Row:
    vals = tuple(float(v) for v in row)
    if len(vals) != N_OUTCOMES:
        raise ConstraintViolation(f"{where}: rows are 3 probabilities")
    check_prob_rows(vals, where)
    if vals[_REPLAY] != 0.0 and not feasible_cells(cap)[OUTCOME_INDEX[prev], _REPLAY]:
        raise ConstraintViolation(
            f"{where}: a replay cannot follow {prev.value} at cap {cap}, "
            f"replay mass must be 0"
        )
    return vals


@dataclass(frozen=True)
class GeneratorSpec:
    """Generator kind, playlist shape, sampling seeds, and conditional rows.

    ``transitions`` is kind-dependent:
      markov1     {prev Outcome: row}
      markov_pos  {target event position (contiguous from 2): {prev: row}}
      order2      {(prev2 Outcome or None, prev1 Outcome): row}

    Rows are (P(skip), P(play), P(replay)) for the next event. Probability on
    a structurally impossible replay is rejected outright rather than being
    renormalized away at sampling time.
    """

    kind: str
    n_sessions: int
    seed: int
    transitions: Mapping = field(default_factory=dict)
    playlist_id: str = "synthetic"
    n_tracks: int = 13
    durations: tuple[float, ...] | None = None
    cap: int = DEFAULT_CAP
    initial_play_prob: float = 0.65

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise ConstraintViolation(f"unknown generator kind {self.kind!r}")
        if self.n_sessions < 1:
            raise ConstraintViolation(f"n_sessions must be >= 1, got {self.n_sessions}")
        if self.seed < 0:
            raise ConstraintViolation(f"seed must be an integer >= 0, got {self.seed}")
        if not 0.0 <= self.initial_play_prob <= 1.0:
            raise ConstraintViolation("initial_play_prob must be in [0, 1]")
        if self.cap < 1:
            raise ConstraintViolation(f"cap must be >= 1, got {self.cap}")
        self.build_playlist()  # refuses its n_tracks or durations now, not at generate
        object.__setattr__(self, "transitions", self._canonical_transitions())

    def _outcome_rows(self, rows: Mapping, owner: str, where: str) -> dict[Outcome, Row]:
        """One checked row per previous outcome; ``owner`` and ``where``
        open the messages for a missing and a refused row."""
        out = {}
        for prev in OUTCOME_ORDER:
            if prev not in rows:
                raise ConstraintViolation(f"{owner} needs a row for {prev.value!r}")
            out[prev] = _validate_row(rows[prev], prev, self.cap, f"{where}row {prev.value!r}")
        return out

    def _canonical_transitions(self) -> Mapping:
        t = self.transitions
        if self.kind == "markov1":
            return self._outcome_rows(t, "markov1", "")
        if self.kind == "markov_pos":
            if not t:
                raise ConstraintViolation("markov_pos needs at least one position")
            positions = sorted(int(p) for p in t)
            if positions[0] != 2 or positions != list(
                range(2, positions[-1] + 1)
            ):
                raise ConstraintViolation(
                    f"markov_pos positions must be contiguous from 2, got {positions}"
                )
            return {
                pos: self._outcome_rows(t[pos], f"position {pos}", f"position {pos} ")
                for pos in positions
            }
        # order2
        rows2: dict[tuple[Outcome | None, Outcome], Row] = {}
        for key, row in t.items():
            prev2, prev1 = key
            if prev2 is not None and not isinstance(prev2, Outcome):
                raise ConstraintViolation(f"bad order2 key {key!r}")
            rows2[(prev2, prev1)] = _validate_row(
                row,
                prev1,
                self.cap,
                f"row ({prev2.value if prev2 else 'none'}, {prev1.value})",
            )
        cells = feasible_cells(self.cap)
        required: list[tuple[Outcome | None, Outcome]] = [
            (None, Outcome.SKIP),
            (None, Outcome.PLAY),
        ] + [
            (a, b)
            for a in OUTCOME_ORDER
            for b in OUTCOME_ORDER
            if cells[OUTCOME_INDEX[a], OUTCOME_INDEX[b]]
        ]
        for key in required:
            if key not in rows2:
                a, b = key
                raise ConstraintViolation(
                    f"order2 needs a row for ({a.value if a else 'none'}, {b.value})"
                )
        return rows2

    def build_playlist(self) -> Playlist:
        return build_playlist(self.playlist_id, self.n_tracks, self.durations)

    def row_for(
        self, prev2: Outcome | None, prev1: Outcome, target_position: int
    ) -> Row:
        """Conditional row for the event at ``target_position`` (>= 2)."""
        if self.kind == "markov1":
            return self.transitions[prev1]
        if self.kind == "markov_pos":
            top = max(self.transitions)
            return self.transitions[min(target_position, top)][prev1]
        # validation required a row for every context a walk can reach
        return self.transitions[(prev2, prev1)]


def _spec_rows(spec: GeneratorSpec, prefixes: Sequence[Sequence[Event]]) -> list[Row]:
    """The spec's conditional row for the event after each prefix."""
    return [
        spec.row_for(p[-2].outcome if len(p) >= 2 else None, p[-1].outcome, len(p) + 1)
        for p in prefixes
    ]


# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (1 << 64) - 1)
# the low multiplier word's 32-bit halves, for the high word of lo * _PCG_MULT_LO
_PCG_MULT_LO_HI, _PCG_MULT_LO_LO = _PCG_MULT_LO >> 32, _PCG_MULT_LO & _MASK32


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix: each call xors in the running hash constant,
    steps it, and multiplies by the stepped one (uint32 arrays)."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return result ^ (result >> 16)


def _mul_add_128(hi, lo, inc_hi, inc_lo):
    """(hi, lo) * PCG64's multiplier + (inc_hi, inc_lo), mod 2**128."""
    lo_hi, lo_lo = lo >> 32, lo & _MASK32
    cross_a, cross_b = lo_lo * _PCG_MULT_LO_HI, lo_hi * _PCG_MULT_LO_LO
    mid = (lo_lo * _PCG_MULT_LO_LO >> 32) + (cross_a & _MASK32) + (cross_b & _MASK32)
    carry_hi = lo_hi * _PCG_MULT_LO_HI + (cross_a >> 32) + (cross_b >> 32) + (mid >> 32)
    hi = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + carry_hi + inc_hi
    lo = lo * _PCG_MULT_LO
    new_lo = lo + inc_lo
    return hi + (new_lo < lo), new_lo


def _uniform_block(seed: int, n: int, width: int) -> np.ndarray:
    """Row k is np.random.default_rng([seed, k]).random(width), for every
    k < n at once.

    SeedSequence([seed, k]) hashes the entropy words of seed (32 bits each,
    least significant first) and then k into a 4-word pool, which
    generate_state(4, uint64) expands into PCG64's 128-bit state and stream;
    PCG64 then takes ``width`` XSL-RR steps, and each double is the step's
    top 53 bits. The hash constants follow a fixed schedule, so every step
    is one operation on a column of n sessions. Needs seed >= 0 (as
    GeneratorSpec checks) and n <= 2**32, so that each k is one entropy word.
    """
    seed_words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(n, w, dtype=np.uint32) for w in seed_words]
    entropy.append(np.arange(n, dtype=np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    zeros = np.zeros(n, dtype=np.uint32)
    pool = [
        hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    # generate_state(4, uint64): little-endian pairs of uint32 words
    seed_hi, seed_lo, seq_hi, seq_lo = (
        state[i] | state[i + 1] << 32 for i in range(0, 8, 2)
    )
    # pcg64 srandom: inc = seq << 1 | 1; state = (inc + seed) * mult + inc
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo)
    hi, lo = _mul_add_128(hi, lo, inc_hi, inc_lo)

    out = np.empty((n, width), dtype=np.float64)
    for j in range(width):
        hi, lo = _mul_add_128(hi, lo, inc_hi, inc_lo)
        # XSL-RR: (hi ^ lo) rotated right by the state's top 6 bits
        xored, rot = hi ^ lo, hi >> 58
        bits = xored >> rot | xored << (64 - rot & 63)
        out[:, j] = bits >> 11
    out *= 2.0**-53
    return out


def _sample_sessions(spec: GeneratorSpec) -> Walks:
    """Every session of ``spec`` as one sample_walks draw: the walks' events
    and the rows they drew.

    Session k's row of uniforms is np.random.default_rng([spec.seed, k])
    .random(width), computed for all sessions as one block (_uniform_block).
    """
    width = spec.n_tracks * spec.cap + 1
    uniforms = _uniform_block(spec.seed, spec.n_sessions, width)
    first = np.where(uniforms[:, 0] < spec.initial_play_prob, _PLAY, _SKIP)
    return sample_walks(
        lambda prefixes: _spec_rows(spec, prefixes), first, uniforms, spec.n_tracks, spec.cap
    )


def generate(spec: GeneratorSpec) -> Dataset:
    """Sample the spec's sessions; all sessions start tagged TRAIN."""
    playlist = spec.build_playlist()
    sessions = [
        Session(session_id=f"s{k:05d}", playlist_id=spec.playlist_id, events=events)
        for k, events in enumerate(_sample_sessions(spec).events)
    ]
    return dataset_from_sessions(
        {playlist.playlist_id: playlist}, sessions, cap=spec.cap
    )


# ---------------------------------------------------------------------------
# reference rates (Monte Carlo, fresh draws so estimates are independent of
# any generated dataset)


def bayes_rate(spec: GeneratorSpec, n_sessions: int = 2000, seed: int = 90210) -> float:
    """Hit rate of the most-probable-outcome rule under the true conditionals.

    Estimated by simulation: each scored event contributes the true
    probability of its context's modal outcome, which has smaller variance
    than scoring 0/1 hits.
    """
    probe = replace(spec, n_sessions=n_sessions, seed=seed, playlist_id="probe")
    return _modal_mass_rate(probe, predicted=None)


def first_order_rate(
    spec: GeneratorSpec, n_sessions: int = 2000, seed: int = 90210
) -> float:
    """Hit rate of the best first-order rule against the true conditionals.

    Pass one fits an unsmoothed first-order chain (baselines.fit_markov) on
    simulated sessions and predicts the modal outcome of its predictor's row
    after each outcome; pass two scores that rule on fresh sessions using
    true event probabilities.
    """
    fit_spec = replace(spec, n_sessions=n_sessions, seed=seed + 1, playlist_id="probe")
    fitted = generate(fit_spec)
    model = fit_markov(fitted.sessions, fitted.playlists["probe"], cap=spec.cap)
    predicted = tuple(first_max_index(MarkovPredictor(model).rows[:N_OUTCOMES]).tolist())
    return _modal_mass_rate(replace(fit_spec, seed=seed + 2), predicted)


def _modal_mass_rate(spec: GeneratorSpec, predicted: tuple[int, int, int] | None) -> float:
    """Mean true probability of the predicted outcome over the scored events
    (every event but the first) of ``spec``'s sessions.

    An event's row is the one its walk drew at the decision before it, or
    (0, 0, 1) when the event before it sits on the last track: there only a
    replay keeps the session alive, so given that an event occurs it is a
    replay. ``predicted`` maps the previous outcome's index to the predicted
    one; None means the Bayes rule, the row's modal mass. Each distinct walk
    is summed once in event order, then the sums are added in session order.
    """
    walks = _sample_sessions(spec)
    first: dict[tuple[Event, ...], int] = {}
    for r, events in enumerate(walks.events):
        first.setdefault(events, r)
    rows = iter(walks.drawn(list(first.values())).tolist())
    for events in first:
        mass = 0.0
        for prev, row in zip(events[:-1], rows):
            if prev.track_position == spec.n_tracks:
                row = (0.0, 0.0, 1.0)
            mass += max(row) if predicted is None else row[predicted[prev.index]]
        next(rows)  # the decision after the last event scores nothing
        first[events] = mass
    total = 0.0
    for events in walks.events:
        total += first[events]
    scored = sum(map(len, walks.events)) - len(walks.events)
    if scored == 0:
        raise ConstraintViolation("no scored events; sessions were all length 1")
    return total / scored


# ---------------------------------------------------------------------------
# canonical specs


def frequent_pattern_spec(n_sessions: int = 5000, seed: int = 20240601) -> GeneratorSpec:
    """First-order generator matching observed aggregate switching behavior:
    skips clump, plays persist, and a small replay share follows plays."""
    play_row = (0.31 / 0.99, 0.65 / 0.99, 0.03 / 0.99)
    return GeneratorSpec(
        kind="markov1",
        n_sessions=n_sessions,
        seed=seed,
        transitions={
            Outcome.SKIP: (0.85, 0.15, 0.0),
            Outcome.PLAY: play_row,
            Outcome.REPLAY: (0.38, 0.62, 0.0),
        },
        n_tracks=13,
        initial_play_prob=0.65,
    )


def second_order_spec(n_sessions: int = 3000, seed: int = 20240602) -> GeneratorSpec:
    """Second-order generator a first-order chain cannot fit.

    After a skip the response flips depending on the outcome before it, and
    the two contexts occur at similar rates, so the pooled first-order row is
    close to uniform while the true conditionals are decisive.
    """
    return GeneratorSpec(
        kind="order2",
        n_sessions=n_sessions,
        seed=seed,
        transitions={
            (None, Outcome.SKIP): (0.5, 0.5, 0.0),
            (None, Outcome.PLAY): (0.5, 0.47, 0.03),
            (Outcome.SKIP, Outcome.SKIP): (0.1, 0.9, 0.0),
            (Outcome.PLAY, Outcome.SKIP): (0.9, 0.1, 0.0),
            (Outcome.REPLAY, Outcome.SKIP): (0.9, 0.1, 0.0),
            (Outcome.SKIP, Outcome.PLAY): (0.85, 0.12, 0.03),
            (Outcome.PLAY, Outcome.PLAY): (0.12, 0.85, 0.03),
            (Outcome.REPLAY, Outcome.PLAY): (0.12, 0.85, 0.03),
            (Outcome.PLAY, Outcome.REPLAY): (0.38, 0.62, 0.0),
        },
        n_tracks=8,
        initial_play_prob=0.65,
    )


def stopping_spec(n_sessions: int = 400, seed: int = 20240603) -> GeneratorSpec:
    """Absorbing-skip generator: once a listener skips, they never play again.

    Under it, an outcome is SKIP exactly when the observed remaining listening
    time at that event is zero, which a leaky feature set can read off and an
    honest one cannot.
    """
    return GeneratorSpec(
        kind="markov1",
        n_sessions=n_sessions,
        seed=seed,
        transitions={
            Outcome.SKIP: (1.0, 0.0, 0.0),
            Outcome.PLAY: (0.15, 0.85, 0.0),
            Outcome.REPLAY: (0.38, 0.62, 0.0),
        },
        n_tracks=6,
        initial_play_prob=0.85,
    )


def position_shift_spec(n_sessions: int = 3000, seed: int = 20240604) -> GeneratorSpec:
    """Position-dependent generator: early positions favor skipping, late ones
    favor playing, with the same prev-outcome structure throughout."""
    early = {
        Outcome.SKIP: (0.8, 0.2, 0.0),
        Outcome.PLAY: (0.6, 0.37, 0.03),
        Outcome.REPLAY: (0.6, 0.4, 0.0),
    }
    late = {
        Outcome.SKIP: (0.2, 0.8, 0.0),
        Outcome.PLAY: (0.1, 0.87, 0.03),
        Outcome.REPLAY: (0.2, 0.8, 0.0),
    }
    return GeneratorSpec(
        kind="markov_pos",
        n_sessions=n_sessions,
        seed=seed,
        transitions={2: early, 3: early, 4: late, 5: late},
        n_tracks=6,
        initial_play_prob=0.65,
    )


# ---------------------------------------------------------------------------
# serialization

_CANONICAL_SPECS = {
    "frequent_pattern": frequent_pattern_spec,
    "second_order": second_order_spec,
    "stopping": stopping_spec,
    "position_shift": position_shift_spec,
}

CANONICAL_SPEC_NAMES = tuple(sorted(_CANONICAL_SPECS))


def named_spec(name: str, n_sessions: int | None = None, seed: int | None = None) -> GeneratorSpec:
    """One of the canonical generator specs, optionally resized or reseeded."""
    if name not in _CANONICAL_SPECS:
        raise ConstraintViolation(
            f"unknown spec name {name!r}; choices: {sorted(_CANONICAL_SPECS)}"
        )
    spec = _CANONICAL_SPECS[name]()
    if n_sessions is not None:
        spec = replace(spec, n_sessions=n_sessions)
    if seed is not None:
        spec = replace(spec, seed=seed)
    return spec


def _row_to_json(row: Row) -> list[float]:
    return [float(v) for v in row]


def spec_to_json(spec: GeneratorSpec) -> dict:
    if spec.kind == "markov1":
        transitions: dict = {
            prev.value: _row_to_json(row) for prev, row in spec.transitions.items()
        }
    elif spec.kind == "markov_pos":
        transitions = {
            str(pos): {prev.value: _row_to_json(row) for prev, row in rows.items()}
            for pos, rows in spec.transitions.items()
        }
    else:
        transitions = {
            f"{prev2.value if prev2 else 'none'},{prev1.value}": _row_to_json(row)
            for (prev2, prev1), row in spec.transitions.items()
        }
    return {
        "kind": spec.kind,
        "n_sessions": spec.n_sessions,
        "seed": spec.seed,
        "playlist_id": spec.playlist_id,
        "n_tracks": spec.n_tracks,
        "durations": list(spec.durations) if spec.durations else None,
        "cap": spec.cap,
        "initial_play_prob": spec.initial_play_prob,
        "transitions": transitions,
    }


def _durations(value) -> tuple[float, ...] | None:
    """A list of durations; null, or an empty list, leaves the defaults."""
    if value is None or type(value) is list:
        return tuple(map(number, value or ())) or None
    raise TypeError(f"must be a list of durations or null, got {value!r}")


def _keyed(convert, rule):
    """The rule of a JSON object, each value read by ``rule`` and each key by ``convert``."""
    read = object_of(rule)
    return lambda value: {convert(key): item for key, item in read(value).items()}


def _order2_key(key: str) -> tuple[Outcome | None, Outcome]:
    a, b = key.split(",")
    return None if a == "none" else Outcome(a), Outcome(b)


_MARKOV1 = _keyed(Outcome, [number])
# the rule of "transitions", by the spec's kind
_TRANSITIONS = {
    "markov1": _MARKOV1,
    "markov_pos": _keyed(int, _MARKOV1),
    "order2": _keyed(_order2_key, [number]),
}
# a generator spec's fields but "transitions"
_SPEC_FIELDS = {
    "kind": one_of(*_TRANSITIONS), "n_sessions": integer, "seed": integer,
    "playlist_id": (string, "synthetic"), "n_tracks": (at_least(1), 13),
    "durations": (_durations, None), "cap": (integer, DEFAULT_CAP),
    "initial_play_prob": (number, 0.65),
}


def spec_from_json(obj: dict, path: str = "generator spec") -> GeneratorSpec:
    """The spec a JSON object read from ``path`` describes, read by _SPEC_FIELDS and
    its kind's _TRANSITIONS rule. A missing or wrongly typed field is a SchemaError
    naming ``path`` and the field; a value the spec refuses, a ConstraintViolation
    naming ``path``."""
    kind = read_fields(obj, {"kind": _SPEC_FIELDS["kind"]}, path)["kind"]
    fields = read_fields(obj, {**_SPEC_FIELDS, "transitions": _TRANSITIONS[kind]}, path)
    try:
        return GeneratorSpec(**fields)
    except ConstraintViolation as exc:
        raise ConstraintViolation(f"{path}: {exc}") from None
