"""Markov chains and play-count marginals against hand-computed tables."""

import json
import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import make_playlist, make_session, valid_outcome_walks
from seqbundle.baselines import (
    MarkovPredictor,
    TransitionMatrix,
    ZeroOrderPredictor,
    baseline_from_json,
    fit_markov,
    fit_zero_order,
    markov_to_json,
    zero_order_to_json,
)
from seqbundle import domain
from seqbundle.dataio import dataset_from_sessions
from seqbundle.domain import Outcome, feasible_cells, tally_sessions
from seqbundle.errors import ConstraintViolation
from seqbundle.evalkit import _play_tally, summarize_dataset, summary_to_jsonable
from seqbundle.synthgen import generate, second_order_spec


@pytest.fixture
def three_sessions():
    return [
        make_session(["play", "play", "skip"], sid="s1"),
        make_session(["play", "replay", "play", "skip"], sid="s2"),
        make_session(["skip", "skip", "play"], sid="s3"),
    ]


class TestFeasibleCells:
    def test_cap_two_closes_replay_after_replay(self):
        mask = feasible_cells(2)
        expected = np.array(
            [[True, True, False], [True, True, True], [True, True, False]]
        )
        assert np.array_equal(mask, expected)

    def test_higher_cap_reopens_it(self):
        mask = feasible_cells(3)
        assert mask[2, 2]
        assert not mask[0, 2]  # replay directly after a skip stays impossible

    @pytest.mark.parametrize("cap", [2, 3, 4])
    def test_mask_from_cap_two_up_is_the_hand_written_one(self, cap):
        expected = np.ones((3, 3), dtype=bool)
        expected[0, 2] = False
        if cap == 2:
            expected[2, 2] = False
        assert np.array_equal(feasible_cells(cap), expected)

    def test_cap_one_closes_every_replay(self, playlist3, three_sessions):
        assert feasible_cells(1)[:, 2].tolist() == [False, False, False]
        no_replays = [
            s for s in three_sessions if all(e.outcome is not Outcome.REPLAY for e in s.events)
        ]
        model = fit_markov(no_replays, playlist3, smoothing=1.0, cap=1)
        assert model.matrix.probs[:, 2].tolist() == [0.0, 0.0, 0.0]
        assert model.matrix.probs[1].tolist() == [0.5, 0.5, 0.0]


class TestFitMarkov:
    def test_pooled_matrix_matches_hand_counts(self, playlist3, three_sessions):
        model = fit_markov(three_sessions, playlist3)
        # transitions: s1 P>P P>S; s2 P>R R>P P>S; s3 S>S S>P
        expected = np.array(
            [[0.5, 0.5, 0.0], [0.5, 0.25, 0.25], [0.0, 1.0, 0.0]]
        )
        assert np.allclose(model.matrix.probs, expected, atol=1e-15)
        assert np.allclose(model.marginal, (0.4, 0.5, 0.1), atol=1e-15)

    def test_smoothing_touches_feasible_cells_only(self, playlist3, three_sessions):
        model = fit_markov(three_sessions, playlist3, smoothing=1.0)
        probs = model.matrix.probs
        assert np.allclose(probs[0], (0.5, 0.5, 0.0), atol=1e-15)
        assert np.allclose(probs[1], (3 / 7, 2 / 7, 2 / 7), atol=1e-15)
        assert np.allclose(probs[2], (1 / 3, 2 / 3, 0.0), atol=1e-15)
        assert probs[0, 2] == 0.0 and probs[2, 2] == 0.0

    def test_position_dependent_matrices(self, playlist3, three_sessions):
        model = fit_markov(three_sessions, playlist3, position_dependent=True)
        assert sorted(model.matrices) == [2, 3, 4]
        m2 = model.matrices[2].probs
        assert np.allclose(m2[0], (1.0, 0.0, 0.0), atol=1e-15)
        assert np.allclose(m2[1], (0.0, 0.5, 0.5), atol=1e-15)
        assert model.matrices[2].is_row_empty(Outcome.REPLAY)

    def test_parameter_counts(self, playlist3, three_sessions):
        mc = fit_markov(three_sessions, playlist3)
        pmc = fit_markov(three_sessions, playlist3, position_dependent=True)
        assert mc.n_parameters == 7
        assert pmc.n_parameters == 21

    def test_rejects_empty_and_negative_smoothing(self, playlist3, three_sessions):
        with pytest.raises(ConstraintViolation):
            fit_markov([], playlist3)
        with pytest.raises(ConstraintViolation):
            fit_markov(three_sessions, playlist3, smoothing=-0.5)

    @pytest.mark.parametrize("smoothing", [np.nan, np.inf])
    def test_rejects_non_finite_smoothing(self, playlist3, three_sessions, smoothing):
        with pytest.raises(ConstraintViolation, match="finite"):
            fit_markov(three_sessions, playlist3, smoothing=smoothing)


class TestPredictMarkov:
    def test_empty_row_falls_back_to_marginal(self, playlist3, caplog):
        sessions = [make_session(["play", "play", "skip"], sid="a")]
        predictor = MarkovPredictor(fit_markov(sessions, playlist3))
        with caplog.at_level(logging.WARNING):
            row = predictor.next_probs(make_session(["play", "replay"]).events)
        assert np.array_equal(row, predictor.model.marginal)
        assert [r.getMessage() for r in caplog.records] == [
            "MarkovPredictor for playlist 'pl' read 1 fallback row(s): the playlist marginal"
        ]

    def test_unfitted_position_falls_back(self, playlist3, three_sessions, caplog):
        predictor = MarkovPredictor(
            fit_markov(three_sessions, playlist3, position_dependent=True)
        )
        session = make_session(["play", "replay", "play", "replay", "play"])
        with caplog.at_level(logging.WARNING):
            rows = predictor.predict_session(session)
        # positions 2..4 were fitted; position 5 was not
        assert np.array_equal(rows[3], predictor.model.matrices[4].row(Outcome.PLAY))
        assert np.array_equal(rows[4], predictor.model.marginal)
        assert len(caplog.records) == 1
        assert "read 1 fallback row(s)" in caplog.records[0].getMessage()

    def test_pmc_position_is_the_prefix_length(self, playlist3, three_sessions):
        model = fit_markov(three_sessions, playlist3, position_dependent=True)
        predictor = MarkovPredictor(model)
        events = make_session(["play", "play", "play"]).events
        for j in (1, 2, 3):
            expected = model.matrices[j + 1].row(Outcome.PLAY)
            assert np.array_equal(predictor.next_probs(events[:j]), expected)

    def test_pmc_positions_must_run_without_gaps(self, playlist3, three_sessions):
        model = fit_markov(three_sessions, playlist3, position_dependent=True)
        with pytest.raises(ConstraintViolation, match="without gaps"):
            replace(model, matrices={2: model.matrices[2], 4: model.matrices[4]})

    def test_each_kind_holds_its_own_slots(self, playlist3, three_sessions):
        mc = fit_markov(three_sessions, playlist3)
        pmc = fit_markov(three_sessions, playlist3, position_dependent=True)
        pooled = mc.matrices[0]
        for slots in ({}, {2: pooled}, {0: pooled, 2: pooled}):
            with pytest.raises(ConstraintViolation, match="at slot 0"):
                replace(mc, matrices=slots)
        with pytest.raises(ConstraintViolation, match="without gaps"):
            replace(pmc, matrices={0: pooled, **pmc.matrices})

    def test_matrix_is_mc_slot_zero_and_read_only(self, playlist3, three_sessions):
        mc = fit_markov(three_sessions, playlist3)
        assert mc.matrix is mc.matrices[0]
        with pytest.raises(AttributeError):
            mc.matrix = mc.matrices[0]
        with pytest.raises(AttributeError, match="only an MC has a pooled matrix"):
            fit_markov(three_sessions, playlist3, position_dependent=True).matrix

    def test_returned_row_is_a_copy(self, playlist3, three_sessions):
        predictor = MarkovPredictor(fit_markov(three_sessions, playlist3))
        row = predictor.next_probs(make_session(["play"]).events)
        row[0] = 99.0
        assert predictor.model.matrix.probs[1, 0] == 0.5
        assert predictor.next_probs(make_session(["play"]).events)[0] == 0.5

    def test_one_warning_per_call(self, playlist3, caplog):
        sessions = [make_session(["play", "play", "skip"], sid="a")]
        predictor = MarkovPredictor(fit_markov(sessions, playlist3))
        replayed = make_session(["play", "replay", "play", "replay"])
        with caplog.at_level(logging.WARNING):
            predictor.predict_sessions([replayed, replayed, replayed])
            predictor.decoder()([replayed.events[:2], replayed.events[:2]])
        # each session reads the empty REPLAY row twice: at event 3, and at
        # the decision after its last event, a replay
        assert [r.getMessage().split(" read ")[1] for r in caplog.records] == [
            "6 fallback row(s): the playlist marginal",
            "2 fallback row(s): the playlist marginal",
        ]


class TestTransitionMatrixValidation:
    def test_rejects_infeasible_mass(self):
        probs = np.array([[0.5, 0.3, 0.2], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ConstraintViolation, match="infeasible"):
            TransitionMatrix(probs=probs, counts=np.zeros((3, 3)))

    def test_rejects_bad_row_sum(self):
        probs = np.array([[0.5, 0.4, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ConstraintViolation, match="sums to"):
            TransitionMatrix(probs=probs, counts=np.zeros((3, 3)))

    def test_allows_empty_rows(self):
        probs = np.zeros((3, 3))
        matrix = TransitionMatrix(probs=probs, counts=np.zeros((3, 3)))
        assert matrix.is_row_empty(Outcome.SKIP)


class TestZeroOrder:
    def test_table_matches_hand_tally(self, playlist3, three_sessions):
        table = fit_zero_order(three_sessions, playlist3)
        expected = np.array(
            [[1 / 3, 1 / 3, 1 / 3], [1 / 3, 2 / 3, 0.0], [2 / 3, 1 / 3, 0.0]]
        )
        assert np.allclose(table.probs, expected, atol=1e-15)
        assert np.array_equal(table.counts, (3.0, 3.0, 3.0))

    def test_expected_plays(self, playlist3, three_sessions):
        table = fit_zero_order(three_sessions, playlist3)
        assert table.expected_plays(1) == pytest.approx(1.0)
        assert table.expected_plays(2) == pytest.approx(2 / 3)
        assert table.expected_plays(3) == pytest.approx(1 / 3)

    def test_unreached_tracks_stay_zero(self, playlist3):
        sessions = [make_session(["play"], sid="a")]
        table = fit_zero_order(sessions, playlist3)
        assert table.counts[1] == 0.0 and table.counts[2] == 0.0
        assert np.all(table.probs[1:] == 0.0)

    def test_over_cap_session_rejected(self, playlist3):
        bad = make_session(["play", "replay", "replay", "play"], sid="a")
        with pytest.raises(ConstraintViolation, match="cap"):
            fit_zero_order([bad], playlist3, cap=2)


def _zero_order_reference_row(table, track, count, feasible):
    """The zero-order rule one decision at a time, in scalar arithmetic."""
    r = 0.0
    if feasible[2]:
        played = float(table.probs[track - 1, 1:].sum())
        if played > 0:
            r = float(table.probs[track - 1, 2:].sum()) / played
    if feasible[1]:
        skip = float(table.probs[track, 0])
        return np.array(((1 - r) * skip, (1 - r) * (1 - skip), r))
    return np.array((1 - r, 0.0, r))


class TestPredictorRows:
    @given(walk=valid_outcome_walks(max_tracks=4, cap=4))
    @settings(max_examples=60)
    def test_zero_order_rows_equal_the_scalar_rule(self, walk):
        n, outcomes = walk
        session = make_session([o.value for o in outcomes])
        fit_on = [session, make_session(["play", "replay"], sid="f")]
        table = fit_zero_order(fit_on, make_playlist(n), cap=4)
        steps = domain.walk(session.events, n, 4)
        expected = np.array([_zero_order_reference_row(table, *step) for step in steps[:-1]])
        rows = ZeroOrderPredictor(table).predict_session(session)
        assert rows.tobytes() == expected.tobytes()

    def test_zero_order_rows_frozen_example(self, playlist3, three_sessions):
        predictor = ZeroOrderPredictor(fit_zero_order(three_sessions, playlist3))
        rows = predictor.predict_session(make_session(["play", "play", "skip"]))
        assert np.allclose(rows[0], (1 / 3, 2 / 3, 0.0), atol=1e-15)
        # after track 1 with one play: r = P(x>=2)/P(x>=1) = (1/3)/(2/3)
        assert np.allclose(rows[1], (1 / 6, 1 / 3, 0.5), atol=1e-15)
        assert np.allclose(rows[2], (2 / 3, 1 / 3, 0.0), atol=1e-15)

    def test_zero_order_end_of_playlist_row(self, playlist3, three_sessions):
        predictor = ZeroOrderPredictor(fit_zero_order(three_sessions, playlist3))
        events = make_session(["play", "play", "play"]).events
        # all three tracks done; track 3 was never replayed in training, so
        # the ending event can only be a skip
        row = predictor.next_probs(events)
        assert np.allclose(row, (1.0, 0.0, 0.0), atol=1e-15)
        assert row[1] == 0.0

    def test_zero_order_end_of_playlist_replay_mass(self):
        playlist = make_playlist(1)
        sessions = [
            make_session(["play", "replay"], sid="a"),
            make_session(["play"], sid="b"),
        ]
        predictor = ZeroOrderPredictor(fit_zero_order(sessions, playlist))
        # after one play of the only track: r = (1/2)/(2/2) = 0.5, rest skips
        row = predictor.next_probs(make_session(["play"]).events)
        assert np.allclose(row, (0.5, 0.0, 0.5), atol=1e-15)

    def test_markov_first_row_is_marginal(self, playlist3, three_sessions):
        predictor = MarkovPredictor(fit_markov(three_sessions, playlist3))
        rows = predictor.predict_session(make_session(["play", "skip", "play"]))
        assert np.allclose(rows[0], (0.4, 0.5, 0.1), atol=1e-15)
        assert np.allclose(rows[1], (0.5, 0.25, 0.25), atol=1e-15)
        assert np.allclose(rows[2], (0.5, 0.5, 0.0), atol=1e-15)

    @given(walk=valid_outcome_walks(max_tracks=3))
    @settings(max_examples=50)
    def test_next_probs_agrees_with_session_rows(self, walk):
        n, outcomes = walk
        playlist = make_playlist(3)
        fit_sessions = [
            make_session(["play", "play", "skip"], sid="s1"),
            make_session(["play", "replay", "play", "skip"], sid="s2"),
            make_session(["skip", "skip", "play"], sid="s3"),
        ]
        session = make_session([o.value for o in outcomes])
        for predictor in (
            MarkovPredictor(fit_markov(fit_sessions, playlist, smoothing=1.0)),
            ZeroOrderPredictor(fit_zero_order(fit_sessions, playlist)),
        ):
            rows = predictor.predict_session(session)
            for j in range(1, len(session.events)):
                stepped = predictor.next_probs(session.events[:j])
                assert np.allclose(rows[j], stepped, atol=1e-15)

    def test_rows_are_distributions(self, playlist3, three_sessions):
        predictor = ZeroOrderPredictor(fit_zero_order(three_sessions, playlist3))
        rows = predictor.predict_session(
            make_session(["play", "replay", "play", "skip"])
        )
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(rows >= 0.0)


class TestSerialization:
    def test_markov_round_trip(self, playlist3, three_sessions):
        model = fit_markov(three_sessions, playlist3, smoothing=0.5)
        restored = baseline_from_json(markov_to_json(model))
        assert restored.kind == "mc"
        assert np.array_equal(restored.matrix.probs, model.matrix.probs)
        assert np.array_equal(restored.marginal, model.marginal)
        assert restored.smoothing == 0.5

    @pytest.mark.parametrize("kind", ["mc", "pmc", "zero"])
    def test_cap_is_read_as_an_integer_not_cast(self, playlist3, three_sessions, kind):
        # 2.7, true or "2" are refused: test_reports_cli.py TestFieldTables
        if kind == "zero":
            obj = zero_order_to_json(fit_zero_order(three_sessions, playlist3))
        else:
            obj = markov_to_json(fit_markov(three_sessions, playlist3, kind == "pmc"))
        assert baseline_from_json({**obj, "cap": 2.0}).cap == 2

    def test_pmc_round_trip(self, playlist3, three_sessions):
        model = fit_markov(three_sessions, playlist3, position_dependent=True)
        restored = baseline_from_json(markov_to_json(model))
        assert sorted(restored.matrices) == sorted(model.matrices)
        for pos, matrix in model.matrices.items():
            assert np.array_equal(restored.matrices[pos].probs, matrix.probs)

    def test_zero_order_round_trip(self, playlist3, three_sessions):
        table = fit_zero_order(three_sessions, playlist3)
        restored = baseline_from_json(zero_order_to_json(table))
        assert np.array_equal(restored.probs, table.probs)
        assert np.array_equal(restored.counts, table.counts)
        assert restored.cap == table.cap


class TestOneTally:
    """The count models, demand tallies and summaries read one session tally."""

    @pytest.fixture(scope="class")
    def generated(self):
        # Listening seconds are a float sum in session order; whole-second
        # durations keep that sum exact in any order.
        spec = second_order_spec(n_sessions=400, seed=5)
        durations = tuple(float(150 + 10 * i) for i in range(spec.n_tracks))
        return generate(replace(spec, durations=durations))

    def _outputs(self, dataset, sessions):
        (playlist,) = dataset.playlists.values()
        plays = tally_sessions(sessions, len(playlist), dataset.cap).plays
        summaries = summarize_dataset(dataset_from_sessions(dataset.playlists, sessions))
        return {
            "mc": markov_to_json(fit_markov(sessions, playlist, smoothing=0.5)),
            "pmc": markov_to_json(fit_markov(sessions, playlist, position_dependent=True)),
            "zero": zero_order_to_json(fit_zero_order(sessions, playlist)),
            "summary": summary_to_jsonable(summaries),
            "play_tally": _play_tally(plays),
        }

    def test_session_order_does_not_change_any_output(self, generated):
        sessions = list(generated.sessions)
        order = np.random.default_rng(0).permutation(len(sessions))
        a = self._outputs(generated, sessions)
        b = self._outputs(generated, [sessions[i] for i in order])
        for key in ("mc", "pmc", "zero", "summary"):
            assert json.dumps(a[key]) == json.dumps(b[key]), key
        for x, y in zip(a["play_tally"], b["play_tally"]):
            assert x.dtype == y.dtype and np.array_equal(x, y)

    def test_each_distinct_sequence_is_walked_once_per_call(self, generated, monkeypatch):
        sessions = generated.sessions
        distinct = {s.events for s in sessions}
        assert len(distinct) < len(sessions) / 2
        walked = []
        step = domain._sequence_counts

        def spy(events, n_tracks):
            walked.append(events)
            return step(events, n_tracks)

        monkeypatch.setattr(domain, "_sequence_counts", spy)
        (playlist,) = generated.playlists.values()
        calls = {
            "mc": lambda: fit_markov(sessions, playlist),
            "pmc": lambda: fit_markov(sessions, playlist, position_dependent=True),
            "zero": lambda: fit_zero_order(sessions, playlist),
            "summary": lambda: summarize_dataset(generated),
            "play_tally": lambda: _play_tally(
                tally_sessions(sessions, len(playlist)).plays
            ),
        }
        for name, call in calls.items():
            walked.clear()
            call()
            assert len(walked) == len(distinct), name
            assert set(walked) == distinct, name
