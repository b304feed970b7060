"""State machine rules, state counting, session validation and the probability-row rules."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_playlist, make_session, valid_outcome_walks
from seqbundle.domain import (
    OUTCOME_INDEX,
    OUTCOME_ORDER,
    Event,
    Outcome,
    Session,
    Track,
    ROW_SUM_TOL,
    advance_state,
    advance_walk,
    check_prob_rows,
    count_states,
    draw_outcomes,
    events_from_outcomes,
    feasible_outcomes,
    feasible_rows,
    first_max_index,
    initial_state,
    is_terminal,
    parse_outcome,
    sample_walks,
    session_to_states,
    tally_sessions,
    validate_session,
    walk,
)
from seqbundle.errors import ConstraintViolation
from seqbundle.evalkit import rollout_walks
from seqbundle.synthgen import GeneratorSpec, generate, second_order_spec


class TestAdvanceRules:
    def test_play_appends_one(self):
        state = advance_state(initial_state(), Outcome.PLAY, 3)
        assert state.counts == (1,)

    def test_skip_appends_zero(self):
        state = advance_state(initial_state(), Outcome.SKIP, 3)
        assert state.counts == (0,)

    def test_replay_increments_last(self):
        state = advance_state(initial_state(), Outcome.PLAY, 3)
        state = advance_state(state, Outcome.REPLAY, 3)
        assert state.counts == (2,)

    def test_replay_first_is_forbidden(self):
        with pytest.raises(ConstraintViolation):
            advance_state(initial_state(), Outcome.REPLAY, 3)

    def test_replay_after_skip_is_forbidden(self):
        state = advance_state(initial_state(), Outcome.SKIP, 3)
        with pytest.raises(ConstraintViolation):
            advance_state(state, Outcome.REPLAY, 3)

    def test_replay_beyond_cap_is_forbidden(self):
        state = advance_state(initial_state(), Outcome.PLAY, 3)
        state = advance_state(state, Outcome.REPLAY, 3)
        with pytest.raises(ConstraintViolation):
            advance_state(state, Outcome.REPLAY, 3)

    def test_cap_three_allows_double_replay(self):
        state = advance_state(initial_state(3), Outcome.PLAY, 2)
        state = advance_state(state, Outcome.REPLAY, 2)
        state = advance_state(state, Outcome.REPLAY, 2)
        assert state.counts == (3,)

    def test_advance_past_last_track_is_forbidden(self):
        state = initial_state()
        for _ in range(2):
            state = advance_state(state, Outcome.PLAY, 2)
        with pytest.raises(ConstraintViolation):
            advance_state(state, Outcome.PLAY, 2)

    def test_terminal_states(self):
        skip_end = advance_state(initial_state(), Outcome.SKIP, 1)
        assert is_terminal(skip_end, 1)
        play_end = advance_state(initial_state(), Outcome.PLAY, 1)
        assert not is_terminal(play_end, 1)  # replay still possible
        capped = advance_state(play_end, Outcome.REPLAY, 1)
        assert is_terminal(capped, 1)
        assert not is_terminal(advance_state(initial_state(), Outcome.PLAY, 2), 2)


class TestCountStates:
    @staticmethod
    def enumerate_states(n_tracks: int, cap: int) -> int:
        """Breadth-first enumeration of every state reachable by some walk."""
        seen = set()
        frontier = [initial_state(cap)]
        while frontier:
            state = frontier.pop()
            for outcome in Outcome:
                try:
                    nxt = advance_state(state, outcome, n_tracks)
                except ConstraintViolation:
                    continue
                if nxt.counts not in seen:
                    seen.add(nxt.counts)
                    frontier.append(nxt)
        return len(seen)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_formula_matches_enumeration(self, n, cap):
        assert count_states(n, cap) == self.enumerate_states(n, cap)

    def test_frozen_values(self):
        # geometric sums worked out by hand
        assert count_states(1, 1) == 2
        assert count_states(2, 1) == 6
        assert count_states(3, 2) == 3 + 9 + 27
        assert count_states(2, 3) == 4 + 16

    def test_exact_for_large_inputs(self):
        n, cap = 60, 2
        assert count_states(n, cap) == sum(3**i for i in range(1, n + 1))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConstraintViolation):
            count_states(0, 2)
        with pytest.raises(ConstraintViolation):
            count_states(3, 0)


class TestValidateSession:
    def test_accepts_ordinary_session(self):
        validate_session(make_session(["play", "replay", "skip", "play"]), 3)

    def test_rejects_wrong_first_position(self):
        session = Session(
            session_id="s",
            playlist_id="pl",
            events=(Event(track_position=2, outcome=Outcome.PLAY),),
        )
        with pytest.raises(ConstraintViolation):
            validate_session(session, 3)

    def test_rejects_position_jump(self):
        session = Session(
            session_id="s",
            playlist_id="pl",
            events=(
                Event(track_position=1, outcome=Outcome.PLAY),
                Event(track_position=3, outcome=Outcome.PLAY),
            ),
        )
        with pytest.raises(ConstraintViolation):
            validate_session(session, 3)

    def test_rejects_replay_position_drift(self):
        session = Session(
            session_id="s",
            playlist_id="pl",
            events=(
                Event(track_position=1, outcome=Outcome.PLAY),
                Event(track_position=2, outcome=Outcome.REPLAY),
            ),
        )
        with pytest.raises(ConstraintViolation):
            validate_session(session, 3)

    def test_rejects_replay_after_skip(self):
        with pytest.raises(ConstraintViolation):
            validate_session(make_session(["skip", "replay"]), 3)

    def test_rejects_session_past_playlist(self):
        with pytest.raises(ConstraintViolation):
            validate_session(make_session(["play", "play"]), 1)

    def test_error_names_event_index(self):
        with pytest.raises(ConstraintViolation, match="event 2"):
            validate_session(make_session(["skip", "replay"]), 3)


class TestWalk:
    def test_frozen_walk(self):
        events = make_session(["play", "replay", "skip"]).events
        assert walk(events, n_tracks=2, cap=2) == [
            (0, 0, (True, True, False)),
            (1, 1, (True, True, True)),
            (1, 2, (True, True, False)),
            (2, 0, (False, False, False)),
        ]

    def test_cap_bounds_replays(self):
        events = make_session(["play", "replay", "replay"]).events
        assert walk(events, n_tracks=1, cap=3)[-1] == (1, 3, (False, False, False))
        with pytest.raises(ConstraintViolation, match="event 3: REPLAY beyond cap"):
            walk(events, n_tracks=1, cap=2)

    @settings(max_examples=100, deadline=None)
    @given(walk_=valid_outcome_walks(cap=3))
    def test_end_state_matches_state_machine(self, walk_):
        n, outcomes = walk_
        state = initial_state(3)
        for outcome in outcomes:
            state = advance_state(state, outcome, n)
        track, count, feasible = walk(events_from_outcomes(outcomes), n, cap=3)[-1]
        assert (track, count) == (state.covered, state.last_count)
        assert (not any(feasible)) == is_terminal(state, n)


class TestFeasibleRows:
    def test_row_rule_zeroes_infeasible_replay_and_renormalizes(self):
        rows = feasible_rows(
            [(0.2, 0.6, 0.2), (0.2, 0.6, 0.2), (0.0, 0.0, 1.0)], [True, False, False]
        )
        assert rows[0].tolist() == [0.2, 0.6, 0.2]  # sums to exactly 1: unchanged
        assert rows[1].tolist() == pytest.approx([0.25, 0.75, 0.0], abs=1e-15)
        assert rows[2].tolist() == [0.0, 0.0, 0.0]  # nothing left: the walk ends


# A REPLAY-closed row that feasible_rows leaves short of 1: SKIP + PLAY is
# 0.9999999999999999, and Generator.random can return the largest u below 1.
SHORT_ROW = (0.01, 0.04, 0.5)
TOP_U = float(np.nextafter(1.0, 0.0))


class TestDraw:
    def test_rounding_never_draws_a_closed_outcome(self):
        row = feasible_rows([SHORT_ROW], [False])[0]
        assert row[0] + row[1] < 1.0 and row[2] == 0.0
        drawn = draw_outcomes(row, np.array([TOP_U]))
        assert drawn.tolist() == [1] and OUTCOME_ORDER[drawn[0]] is Outcome.PLAY

    def test_leftover_mass_goes_to_the_last_outcome_with_mass(self):
        rows = np.array([[0.3, 0.2, 0.5], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert draw_outcomes(rows, np.array([0.9, 0.7, 0.5])).tolist() == [2, 0, 0]

    def test_draws_compare_with_the_cumulative_edges(self):
        rows = np.tile([0.25, 0.5, 0.25], (4, 1))
        u = np.array([0.0, 0.25, 0.7499999, 0.75])
        assert draw_outcomes(rows, u).tolist() == [0, 1, 1, 2]
        assert [OUTCOME_ORDER[i] for i in draw_outcomes(rows[0], u)] == [
            Outcome.SKIP, Outcome.PLAY, Outcome.PLAY, Outcome.REPLAY
        ]

    def test_a_short_row_never_leaves_a_walk_infeasible(self):
        # at cap 1 REPLAY is always closed, so a draw at u = TOP_U lands on PLAY
        walks = sample_walks(
            lambda prefixes: [SHORT_ROW] * len(prefixes),
            [0], np.full((1, 4), TOP_U), 3, 1,
        ).events
        assert [e.outcome for e in walks[0]] == [Outcome.SKIP, Outcome.PLAY, Outcome.PLAY]
        validate_session(Session("s", "pl", walks[0]), 3, 1)

    def test_a_short_first_row_draws_a_first_event(self):
        first_row = feasible_rows([SHORT_ROW], [False])[0]
        rolled = rollout_walks(
            FixedRows(SHORT_ROW), make_playlist(2), first_row, np.full((1, 5), TOP_U)
        )
        assert rolled.events[0][0] == Event(1, Outcome.PLAY)


class FixedRows:
    def __init__(self, row):
        self.row = row

    def decoder(self):
        return lambda prefixes: feasible_rows([self.row] * len(prefixes), [True] * len(prefixes))


def scalar_draw(row, u):
    """The draw rule, one row at a time."""
    edge = 0.0
    for idx in range(2):
        edge += row[idx]
        if u < edge:
            return OUTCOME_ORDER[idx]
    return OUTCOME_ORDER[max(i for i in range(3) if row[i] > 0.0)]


def per_walk_reference(next_rows, first, uniforms, n_tracks, cap):
    """The sampler one walk at a time, one next_rows call per prefix: each
    walk's events and the rows it drew from, zeros once no outcome is open."""
    out = []
    for r, first_idx in enumerate(first):
        outcome = OUTCOME_ORDER[first_idx]
        track, count = advance_walk(0, 0, outcome)
        events = [Event(track_position=track, outcome=outcome)]
        feasible = feasible_outcomes(track, count, n_tracks, cap)
        drawn = []
        step = 1
        while True:
            if not any(feasible):
                drawn.append([0.0, 0.0, 0.0])
                break
            row = feasible_rows(next_rows([tuple(events)]), [feasible[2]])[0].tolist()
            drawn.append(row)
            if not any(row):
                break
            outcome = scalar_draw(row, uniforms[r, step])
            if outcome is not Outcome.REPLAY and not feasible[0]:
                break
            track, count = advance_walk(track, count, outcome)
            events.append(Event(track_position=track, outcome=outcome))
            feasible = feasible_outcomes(track, count, n_tracks, cap)
            step += 1
        out.append((tuple(events), drawn))
    return out


ROWS = st.one_of(
    st.sampled_from([(0.0, 0.0, 0.0), (0.0, 0.0, 1.0), SHORT_ROW, (1.0, 0.0, 0.0)]),
    st.tuples(*[st.floats(0.0, 1.0)] * 3),
)


class TestSampleWalks:
    @pytest.mark.deep
    @settings(deadline=None)
    @given(
        n_tracks=st.integers(1, 6),
        cap=st.integers(1, 4),
        table=st.lists(ROWS, min_size=1, max_size=8),
        n_walks=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
        top_share=st.sampled_from([0.0, 0.1, 0.5]),
    )
    def test_sampler_equals_the_per_walk_reference(
        self, n_tracks, cap, table, n_walks, seed, top_share
    ):
        rng = np.random.default_rng(seed)
        uniforms = rng.random((n_walks, n_tracks * cap + 1))
        uniforms[rng.random(uniforms.shape) < top_share] = TOP_U
        first = rng.integers(0, 2, size=n_walks)

        def row_of(prefix):
            last = prefix[-1]
            key = 7 * len(prefix) + 3 * last.track_position + OUTCOME_INDEX[last.outcome]
            return table[key % len(table)]

        calls = []

        def next_rows(prefixes):
            calls.append(prefixes)
            return [row_of(p) for p in prefixes]

        sampled_walks = sample_walks(next_rows, first, uniforms, n_tracks, cap)
        walks = sampled_walks.events
        sampled = list(calls)
        reference = per_walk_reference(next_rows, first, uniforms, n_tracks, cap)
        assert walks == [events for events, _ in reference]
        # each walk drew its k-th row after its first k events, one row per event
        drawn = sampled_walks.drawn(range(n_walks))
        assert drawn.tolist() == [row for _, rows in reference for row in rows]
        for events, (_, rows) in zip(walks, reference):
            assert len(rows) == len(events)
        order = np.random.default_rng(seed + 1).permutation(n_walks)
        assert sampled_walks.drawn(order).tolist() == [
            row for r in order for row in reference[r][1]
        ]
        for events in walks:
            validate_session(Session("s", "pl", events), n_tracks, cap)
        # walks with the same events share one tuple
        assert len({id(events) for events in walks}) == len(set(walks))
        # one call per step for the distinct prefixes of the live walks, the
        # first for their distinct first events, each extending the call before
        assert len(sampled) < n_tracks * cap
        opened = [
            events[:1] for events in walks
            if any(feasible_outcomes(*advance_walk(0, 0, events[0].outcome), n_tracks, cap))
        ]
        assert sampled[:1] == ([list(dict.fromkeys(opened))] if opened else [])
        for step, prefixes in enumerate(sampled, start=1):
            assert len(set(prefixes)) == len(prefixes)
            assert {len(events) for events in prefixes} == {step}
        for before, after in zip(sampled, sampled[1:]):
            assert {events[:-1] for events in after} <= set(before)


class TestCheckProbRows:
    def test_accepts_rows_within_tolerance(self):
        rows = [[0.2, 0.3, 0.5], [1.0 - ROW_SUM_TOL / 2, 0.0, 0.0]]
        assert check_prob_rows(rows, "rows").dtype == np.float64

    def test_rejects_a_row_off_by_more_than_the_tolerance(self):
        rows = np.array([[0.2, 0.3, 0.5], [0.5, 0.5, 3 * ROW_SUM_TOL]])
        with pytest.raises(ConstraintViolation, match="rows: row 1 sums to .*sum to 1"):
            check_prob_rows(rows, "rows")

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
    def test_rejects_negative_or_non_finite(self, bad):
        with pytest.raises(ConstraintViolation, match="finite and >= 0"):
            check_prob_rows([[0.5, 0.6, bad]], "rows")

    def test_empty_rows_only_when_allowed(self):
        rows = np.zeros((2, 3))
        rows[0] = (0.0, 1.0, 0.0)
        check_prob_rows(rows, "table", allow_empty=True)
        with pytest.raises(ConstraintViolation, match="table: row 1 sums to 0.0"):
            check_prob_rows(rows, "table")

    def test_checks_the_last_axis_of_any_rank(self):
        weights = np.full((2, 2, 4), 0.25)
        check_prob_rows(weights, "w")
        weights[1, 0, 3] = 0.5
        with pytest.raises(ConstraintViolation, match="w: row 1,0 sums to 1.25"):
            check_prob_rows(weights, "w")


class TestFirstMaxIndex:
    def test_one_call_over_rows_equals_a_call_per_row(self):
        rows = np.array([[0.4, 0.4, 0.2], [0.2, 0.4, 0.4], [0.1, 0.2, 0.7], [1 / 3] * 3])
        assert first_max_index(rows).tolist() == [0, 1, 2, 0]
        assert [int(first_max_index(row)) for row in rows] == [0, 1, 2, 0]


class TestSessionTally:
    def _reference(self, sessions, n, cap):
        """Per-session counts, one event at a time."""
        outcomes = np.zeros(3, dtype=np.int64)
        transitions = np.zeros((max(map(len, sessions)) + 1, 3, 3), dtype=np.int64)
        plays = np.zeros((n, cap + 1), dtype=np.int64)
        for session in sessions:
            counts = [0] * n
            for j, event in enumerate(session.events, start=1):
                k = OUTCOME_ORDER.index(event.outcome)
                outcomes[k] += 1
                if j >= 2:
                    prev = OUTCOME_ORDER.index(session.events[j - 2].outcome)
                    transitions[j, prev, k] += 1
                if event.outcome is not Outcome.SKIP:
                    counts[event.track_position - 1] += 1
            for track in range(session.events[-1].track_position):
                plays[track, counts[track]] += 1
        return outcomes, transitions, plays

    @pytest.mark.parametrize(
        "spec",
        [
            second_order_spec(n_sessions=300, seed=11),
            GeneratorSpec(  # replays may follow replays: third units
                kind="markov1",
                n_sessions=300,
                seed=11,
                n_tracks=4,
                cap=3,
                transitions={
                    Outcome.SKIP: (0.7, 0.3, 0.0),
                    Outcome.PLAY: (0.2, 0.6, 0.2),
                    Outcome.REPLAY: (0.4, 0.4, 0.2),
                },
            ),
        ],
        ids=["second_order", "cap3"],
    )
    def test_matches_per_session_reference(self, spec):
        sessions = generate(spec).sessions
        assert len({s.events for s in sessions}) < len(sessions) / 2
        tally = tally_sessions(sessions, spec.n_tracks, spec.cap)
        assert tally.plays[:, spec.cap].any()
        reference = self._reference(sessions, spec.n_tracks, spec.cap)
        for got, want in zip(tally, reference):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    def test_transitions_are_indexed_by_target_position(self):
        tally = tally_sessions([make_session(["play", "replay", "skip"])], 3)
        assert tally.transitions.shape == (4, 3, 3)
        assert tally.transitions[2].tolist() == [[0, 0, 0], [0, 0, 1], [0, 0, 0]]
        assert tally.transitions[3].tolist() == [[0, 0, 0], [0, 0, 0], [1, 0, 0]]
        assert not tally.transitions[:2].any()
        assert tally.outcomes.tolist() == [1, 1, 1]

    def test_over_cap_names_the_first_offending_session(self):
        ok = make_session(["skip", "play"], sid="ok")
        first = make_session(["play", "skip", "play", "replay"], sid="first")
        second = make_session(["play", "replay"], sid="second")
        again = make_session(["play", "replay"], sid="again")
        with pytest.raises(
            ConstraintViolation,
            match="session 'first': track 3 consumed 2 units, cap is 1",
        ):
            tally_sessions([ok, first, second, again], 3, cap=1)
        with pytest.raises(ConstraintViolation, match="session 'second': track 1"):
            tally_sessions([ok, second, first, again], 3, cap=1)

    def test_shared_and_copied_tuples_tally_alike(self):
        spec = second_order_spec(n_sessions=300, seed=11)
        sessions = generate(spec).sessions
        canonical = {}
        shared = [
            Session(s.session_id, s.playlist_id, canonical.setdefault(s.events, s.events))
            for s in sessions
        ]
        copied = [
            Session(s.session_id, s.playlist_id, tuple(list(s.events))) for s in sessions
        ]
        assert len({id(s.events) for s in shared}) == len(canonical) < len(sessions)
        assert len({id(s.events) for s in copied}) == len(sessions)
        tallies = [tally_sessions(group, spec.n_tracks, spec.cap) for group in (shared, copied)]
        for got, want in zip(*tallies):
            assert np.array_equal(got, want)

    def test_over_cap_names_the_first_session_whether_tuples_are_shared(self):
        ok = make_session(["skip", "play"], sid="ok")
        second = make_session(["play", "replay"], sid="second")
        copy = Session("copy", "pl", tuple(list(second.events)))
        again = Session("again", "pl", second.events)
        with pytest.raises(ConstraintViolation, match="session 'copy': track 1"):
            tally_sessions([ok, copy, second, again], 3, cap=1)
        with pytest.raises(ConstraintViolation, match="session 'second': track 1"):
            tally_sessions([ok, second, copy, again], 3, cap=1)

    def test_rejects_cap_below_one(self):
        with pytest.raises(ConstraintViolation, match="cap must be >= 1"):
            tally_sessions([make_session(["skip"])], 1, cap=0)


def is_canonical(events):
    return all(e is Event(e.track_position, e.outcome) for e in events)


class TestCanonicalEvents:
    """Event(p, o) is the one instance for (p, o), so equality is identity."""

    @pytest.mark.parametrize("outcome", OUTCOME_ORDER)
    def test_equal_arguments_give_the_same_object(self, outcome):
        event = Event(3, outcome)
        assert Event(track_position=3, outcome=outcome) is event
        assert Event(np.int64(3), outcome) is event
        assert type(Event(np.int64(301), outcome).track_position) is int
        assert event.index == OUTCOME_INDEX[outcome]
        assert Event(4, outcome) is not event
        with pytest.raises(AttributeError):
            event.track_position = 4

    def test_copy_and_pickle_return_the_same_object(self):
        event = Event(2, Outcome.REPLAY)
        assert copy.copy(event) is event
        assert copy.deepcopy(event) is event
        assert pickle.loads(pickle.dumps(event)) is event
        events = make_session(["play", "replay", "skip"]).events
        assert is_canonical(pickle.loads(pickle.dumps(events)))

    def test_an_invalid_event_is_refused_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ConstraintViolation, match="track_position must be >= 1"):
                Event(0, Outcome.PLAY)
            with pytest.raises(ConstraintViolation, match="unknown outcome"):
                Event(5, "pause")
            with pytest.raises(TypeError):
                Event(1.0, Outcome.PLAY)
        event = Event(1009, "play")
        assert (event.track_position, event.outcome, event.index) == (1009, Outcome.PLAY, 1)
        assert Event(1009, Outcome.PLAY) is event

    def test_generated_and_derived_events_are_canonical(self):
        sessions = generate(second_order_spec(n_sessions=200, seed=4)).sessions
        assert all(is_canonical(s.events) for s in sessions)
        assert is_canonical(events_from_outcomes([Outcome.PLAY, Outcome.REPLAY, Outcome.SKIP]))


class TestSessionHelpers:
    def test_session_counts_padded(self):
        # track 1 ends at 2 units; tracks 3 and 4 were never reached
        session = make_session(["play", "replay", "skip"])
        plays = tally_sessions([session], 4).plays
        assert plays.tolist() == [[0, 0, 1], [1, 0, 0], [0, 0, 0], [0, 0, 0]]

    def test_states_track_each_event(self):
        session = make_session(["play", "replay", "skip", "play"])
        states = session_to_states(session, 3)
        assert [s.counts for s in states] == [(1,), (2,), (2, 0), (2, 0, 1)]

    def test_events_from_outcomes_positions(self):
        events = events_from_outcomes(
            [Outcome.PLAY, Outcome.REPLAY, Outcome.SKIP]
        )
        assert [e.track_position for e in events] == [1, 1, 2]

    def test_parse_outcome(self):
        assert parse_outcome("replay") is Outcome.REPLAY
        with pytest.raises(ConstraintViolation):
            parse_outcome("pause")

    @pytest.mark.parametrize("duration", [0.0, -1.0, math.inf, math.nan])
    def test_track_requires_finite_positive_duration(self, duration):
        with pytest.raises(ConstraintViolation, match="duration must be finite and > 0"):
            Track(track_id="t", duration=duration)

    def test_session_requires_events(self):
        with pytest.raises(ConstraintViolation, match="session 's' has no events"):
            Session(session_id="s", playlist_id="pl", events=())
        with pytest.raises(ConstraintViolation, match="session 's' has no events"):
            Session("s", "pl", ())

    def test_session_is_a_frozen_value(self):
        events = make_session(["play", "replay", "skip"]).events
        session = Session("s", "pl", events)
        twin = Session(session_id="s", playlist_id="pl", events=tuple(events))
        assert session == twin and hash(session) == hash(twin)
        assert session != Session("s", "pl2", events)
        assert {session: 1}[twin] == 1
        for name in ("session_id", "playlist_id", "events"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(session, name, getattr(session, name))
        assert dataclasses.replace(session, events=events[:1]) == Session("s", "pl", events[:1])
        assert pickle.loads(pickle.dumps(session)) == session


@given(valid_outcome_walks())
@settings(max_examples=200)
def test_every_feasible_walk_validates(walk):
    n, outcomes = walk
    session = make_session([o.value for o in outcomes])
    validate_session(session, n)
    plays = tally_sessions([session], n).plays  # raises on a count above 2
    assert plays.sum() == session.events[-1].track_position
    folded = []
    state = initial_state()
    for outcome in outcomes:
        state = advance_state(state, outcome, n)
        folded.append(state)
    assert session_to_states(session, n) == tuple(folded)


@given(valid_outcome_walks(max_tracks=4))
@settings(max_examples=100)
def test_playlist_lookup_consistency(walk):
    n, outcomes = walk
    playlist = make_playlist(n)
    session = make_session([o.value for o in outcomes])
    assert session.events[-1].track_position <= len(playlist)
    for event in session.events:
        assert playlist.track_at(event.track_position).duration > 0
