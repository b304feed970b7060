"""Scoring rules, demand rates, CDF comparisons, and dataset summaries."""

import logging
import re
import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_playlist, make_session
from seqbundle.baselines import (
    MarkovPredictor,
    ZeroOrderPredictor,
    fit_markov,
    fit_zero_order,
)
from seqbundle.dataio import Dataset, Split, dataset_from_sessions
from seqbundle.domain import (
    OUTCOME_INDEX,
    Event,
    Outcome,
    Session,
    check_prob_rows,
    feasible_rows,
    first_max_index,
    tally_sessions,
    validate_session,
    walk,
)
from seqbundle.errors import ConstraintViolation, MetricUndefinedError
from seqbundle.evalkit import (
    EvaluationReport,
    confusion_normalized,
    evaluate_dataset,
    evaluate_playlist,
    hit_rate_cdf,
    hit_rate_from_counts,
    pseudo_r2,
    rollout_session,
    rollout_walks,
    summarize_dataset,
    summary_to_jsonable,
)
from seqbundle import evalkit, neuralkit as nk
from seqbundle.seqmodels import predictors
from seqbundle.dataio import FeatureConfig, FeaturePipeline
from seqbundle.seqmodels import (
    LSTMConfig,
    MLPConfig,
    ModelKind,
    NeuralPredictor,
    TransformerConfig,
    make_model,
)
from seqbundle.synthgen import GeneratorSpec, generate, second_order_spec


class FixedRowPredictor:
    """Every event gets the same probability row (hand-oracle evaluation)."""

    def __init__(self, row=(0.2, 0.7, 0.1)):
        self.row = np.asarray(row, dtype=np.float64)

    def predict_session(self, session):
        return np.tile(self.row, (len(session.events), 1))

    def predict_sessions(self, sessions):
        # each session's rows and the row after its last event
        return [
            np.vstack([self.predict_session(session), self.next_probs(session.events)])
            for session in sessions
        ]

    def next_probs(self, events):
        return self.row.copy()

    def decoder(self):
        return self.next_rows

    def next_rows(self, prefixes):
        return np.tile(self.row, (len(prefixes), 1))


class RecordingPredictor(FixedRowPredictor):
    """Records the prefixes of every batched call."""

    def __init__(self, row=(0.2, 0.7, 0.1)):
        super().__init__(row)
        self.session_calls = 0
        self.batches = []

    def predict_sessions(self, sessions):
        self.session_calls += 1
        return super().predict_sessions(sessions)

    def next_rows(self, prefixes):
        self.batches.append(list(prefixes))
        return super().next_rows(prefixes)


ROLLOUT_FIT_SESSIONS = [
    make_session(["play", "play", "skip", "play"], sid="a"),
    make_session(["skip", "play", "replay", "play"], sid="b"),
    make_session(["play", "replay", "skip", "play", "replay"], sid="c"),
    make_session(["skip", "skip", "play"], sid="d"),
]


def rollout_predictor(family, playlist):
    if family == "mc":
        return MarkovPredictor(fit_markov(ROLLOUT_FIT_SESSIONS, playlist, smoothing=1.0))
    pipeline = FeaturePipeline(playlist=playlist, config=FeatureConfig()).fit(
        ROLLOUT_FIT_SESSIONS
    )
    if family == "lstm":
        config = LSTMConfig(pipeline.config.input_dim, hidden_dim=8, n_layers=2)
    else:
        config = TransformerConfig(
            input_dim=pipeline.config.input_dim, embed_dim=8, n_blocks=1, n_heads=2,
            head_dim=4, ff_dim=8,
        )
    return NeuralPredictor(
        model=make_model(ModelKind(family), config, seed=2), pipeline=pipeline
    )


class FullForwardQueries:
    """A neural predictor's next-event rows from one teacher-forced forward
    per prefix, with no decode state: the reference for decoded rollouts."""

    def __init__(self, predictor):
        self.predictor = predictor
        self.queries = []

    def decoder(self):
        return self.next_rows

    def next_rows(self, prefixes):
        self.queries.append(list(prefixes))
        model, pipeline = self.predictor.model, self.predictor.pipeline
        with nk.no_grad():
            return predictors._float64_rows(np.stack(
                [model.forward(pipeline.prefix_matrix(events))[0].data[-1] for events in prefixes]
            ))


class TestScalarMetrics:
    def test_weighted_hit_rate(self):
        # 100 events at 0.8 pooled with 50 events at 0.6
        assert hit_rate_from_counts(80 + 30, 150) == pytest.approx(11 / 15)

    def test_zero_total_undefined(self):
        with pytest.raises(MetricUndefinedError):
            hit_rate_from_counts(0, 0)

    def test_first_max_tie_goes_to_earliest(self):
        assert first_max_index(np.array([0.4, 0.4, 0.2])) == 0
        assert first_max_index(np.array([0.2, 0.4, 0.4])) == 1

    def test_confusion_rows_normalize_independently(self):
        counts = np.array([[8, 2, 0], [1, 3, 0], [0, 0, 0]])
        rates = confusion_normalized(counts)
        assert np.allclose(rates[0], (0.8, 0.2, 0.0), atol=1e-15)
        assert np.allclose(rates[1], (0.25, 0.75, 0.0), atol=1e-15)
        assert np.all(rates[2] == 0.0)

    def test_pseudo_r2_anchors(self):
        assert pseudo_r2((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)) == pytest.approx(1.0)
        assert pseudo_r2((1.0, 3.0), (2.0, 2.0)) == pytest.approx(0.0)
        assert pseudo_r2((0.0, 1.0), (1.0, 0.0)) == pytest.approx(-3.0)

    def test_pseudo_r2_constant_actual_undefined(self):
        with pytest.raises(MetricUndefinedError):
            pseudo_r2((2.0, 2.0, 2.0), (1.0, 2.0, 3.0))


class TestCdf:
    def test_cdf_fractions(self):
        xs, fractions = hit_rate_cdf((0.5, 0.25, 0.5, 1.0))
        assert np.array_equal(xs, (0.25, 0.5, 1.0))
        assert np.allclose(fractions, (0.25, 0.75, 1.0), atol=1e-15)

    def test_cdf_empty_undefined(self):
        with pytest.raises(MetricUndefinedError):
            hit_rate_cdf(())

    @given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 2 / 3, 1.0]), min_size=1, max_size=12))
    @settings(max_examples=60)
    def test_cdf_counts_the_sample_at_or_below_each_value(self, values):
        xs, fractions = hit_rate_cdf(values)
        assert np.all(np.diff(xs) > 0)
        assert set(xs.tolist()) == set(values)
        assert fractions[-1] == 1.0
        for x, fraction in zip(xs, fractions):
            assert fraction == sum(v <= x for v in values) / len(values)


class TestEvaluatePlaylist:
    def setup_method(self):
        self.playlist = make_playlist(3)
        self.sessions = [
            make_session(["play", "play", "skip"], sid="a"),
            make_session(["skip", "play", "play"], sid="b"),
        ]

    def test_hand_counted_hits(self):
        result = evaluate_playlist(
            FixedRowPredictor(), self.sessions, self.playlist
        )
        # the stub always predicts PLAY; scored outcomes are play, skip, play, play
        assert result.n_scored == 4
        assert result.hits == 3
        assert result.hit_rate == pytest.approx(0.75)

    def test_confusion_matches_hits_exactly(self):
        result = evaluate_playlist(FixedRowPredictor(), self.sessions, self.playlist)
        counts = result.confusion_counts
        assert counts[1, 1] == 3  # actual play, predicted play
        assert counts[0, 1] == 1  # actual skip, predicted play
        assert counts.sum() == result.n_scored
        assert int(np.trace(counts)) == result.hits
        # the weighted diagonal of the normalized matrix is the hit rate
        rates = confusion_normalized(counts)
        weights = counts.sum(axis=1) / counts.sum()
        assert float(np.dot(weights, np.diag(rates))) == pytest.approx(
            result.hit_rate, abs=1e-15
        )

    def test_position_buckets(self):
        result = evaluate_playlist(FixedRowPredictor(), self.sessions, self.playlist)
        assert result.position_hits == ((2, 2, 2), (3, 1, 2))
        assert result.position_rates() == ((2, 1.0), (3, 0.5))

    def test_first_event_is_never_scored(self):
        result = evaluate_playlist(
            FixedRowPredictor(), [make_session(["skip"], sid="solo")], self.playlist
        )
        assert result.n_scored == 0
        with pytest.raises(MetricUndefinedError):
            result.hit_rate

    def test_bad_probability_rows_rejected(self):
        class Broken(FixedRowPredictor):
            def predict_session(self, session):
                return np.tile((0.3, 0.3, 0.3), (len(session.events), 1))

        with pytest.raises(ConstraintViolation, match="sum to 1"):
            evaluate_playlist(Broken(), self.sessions, self.playlist)

    def test_unknown_demand_mode_rejected(self):
        with pytest.raises(ConstraintViolation):
            evaluate_playlist(
                FixedRowPredictor(), self.sessions, self.playlist, demand_mode="magic"
            )


class TestDemandRealized:
    def test_hand_example(self):
        playlist = make_playlist(2)
        sessions = [
            make_session(["play", "replay", "play"], sid="s1"),
            make_session(["skip", "play"], sid="s2"),
        ]
        result = evaluate_playlist(FixedRowPredictor(), sessions, playlist)
        demand = result.demand
        assert demand.track_positions == (2,)
        assert demand.coverage == (2,)
        # both sessions played track 2 exactly once
        assert demand.actual == pytest.approx((1.0,))
        # s1 credits track 2 with P(PLAY) = 0.7 after its play, 7/9 after its
        # replay (REPLAY closed at the cap: the row as drawn is (0.2, 0.7) /
        # 0.9) and P(REPLAY) = 0.1 after its last event; s2 with 7/9 after its
        # skip and 0.1 after its last event
        assert demand.predicted == pytest.approx(((0.7 + 7 / 9 + 0.1 + 7 / 9 + 0.1) / 2,))

    def test_replay_credit_goes_to_previous_track(self):
        playlist = make_playlist(2)
        sessions = [make_session(["play", "replay", "play"], sid="s1")]
        result = evaluate_playlist(FixedRowPredictor(), sessions, playlist)
        # track 2 collects P(PLAY) at both decisions on track 1, the first as
        # offered and the second with REPLAY closed, and P(REPLAY) after the
        # last event; the replay credit at event 2 goes to track 1, outside
        # the reported range
        assert result.demand.predicted == pytest.approx((0.7 + 7 / 9 + 0.1,))

    def test_coverage_counts_only_reaching_sessions(self):
        playlist = make_playlist(3)
        sessions = [
            make_session(["play", "play", "play"], sid="full"),
            make_session(["play"], sid="stub"),  # truncated at track 1
        ]
        result = evaluate_playlist(FixedRowPredictor(), sessions, playlist)
        assert result.demand.coverage == (1, 1)
        assert result.demand.actual == pytest.approx((1.0, 1.0))

    def test_actual_rates_match_zero_order_expectation(self):
        # on full-mode data both sides average play counts over the same
        # covering sessions, so they agree to float precision
        playlist = make_playlist(4)
        sessions = [
            make_session(["play", "replay", "play", "skip", "play"], sid="a"),
            make_session(["skip", "play", "play", "play"], sid="b"),
            make_session(["play", "skip", "skip", "play", "replay"], sid="c"),
            make_session(["skip", "skip", "play", "replay", "skip"], sid="d"),
        ]
        table = fit_zero_order(sessions, playlist)
        predictor = ZeroOrderPredictor(table)
        result = evaluate_playlist(predictor, sessions, playlist)
        for pos, actual in zip(result.demand.track_positions, result.demand.actual):
            assert actual == pytest.approx(table.expected_plays(pos), abs=1e-9)


class TestRollouts:
    def test_rollout_sessions_are_valid(self):
        playlist = make_playlist(3)
        fit_sessions = [
            make_session(["play", "play", "skip"], sid="a"),
            make_session(["skip", "play", "replay", "play"], sid="b"),
            make_session(["play", "replay", "skip", "play"], sid="c"),
        ]
        predictor = MarkovPredictor(fit_markov(fit_sessions, playlist, smoothing=1.0))
        rng = np.random.default_rng(5)
        for _ in range(25):
            rolled = rollout_session(predictor, playlist, np.array([0.4, 0.6, 0.0]), rng)
            validate_session(rolled, len(playlist), cap=2)
            assert len(rolled.events) <= 3 * 2 + 1

    def test_rollout_feasibility_masks_replay(self):
        playlist = make_playlist(2)
        all_replay = FixedRowPredictor((0.0, 0.0, 1.0))
        rng = np.random.default_rng(0)
        # forced first play, then the only unmasked mass is a replay; after it
        # hits the cap no feasible mass remains and the session stops
        rolled = rollout_session(all_replay, playlist, np.array([0.0, 1.0, 0.0]), rng)
        outcomes = [e.outcome for e in rolled.events]
        assert outcomes == [Outcome.PLAY, Outcome.REPLAY]

    def test_rollout_rows_are_checked_before_drawing(self):
        class NanRows(FixedRowPredictor):
            def next_rows(self, prefixes):
                rows = super().next_rows(prefixes)
                rows[-1] = (np.nan, 1.0, 0.0)
                return rows

        playlist = make_playlist(3)
        uniforms = np.random.default_rng(0).random((4, 3 * 2 + 1))
        message = f"playlist {playlist.playlist_id!r}: rollout rows: probabilities must be finite"
        with pytest.raises(ConstraintViolation, match=re.escape(message)):
            rollout_walks(NanRows(), playlist, np.array([0.4, 0.6, 0.0]), uniforms)

    def test_rollout_forced_skip_with_no_alternative(self):
        playlist = make_playlist(2)
        all_replay = FixedRowPredictor((0.0, 0.0, 1.0))
        rng = np.random.default_rng(0)
        rolled = rollout_session(all_replay, playlist, np.array([1.0, 0.0, 0.0]), rng)
        assert [e.outcome for e in rolled.events] == [Outcome.SKIP]

    def test_last_track_is_not_forced_into_a_replay(self):
        # past the last track PLAY means "the session ends", as in the generator
        playlist = make_playlist(2)
        mostly_play = FixedRowPredictor((0.0, 0.9, 0.1))
        rng = np.random.default_rng(3)
        replayed = 0
        for _ in range(100):
            rolled = rollout_session(mostly_play, playlist, np.array([0.0, 1.0, 0.0]), rng)
            validate_session(rolled, len(playlist), cap=2)
            last = rolled.events[-1]
            replayed += last.outcome is Outcome.REPLAY and last.track_position == 2
        assert replayed < 30

    @pytest.mark.parametrize(
        "position_dependent,tolerance",
        # both modes credit the same rows, so they differ by Monte Carlo noise
        # alone: over rollout seeds 0-9 the largest gap was 0.009 for mc and
        # 0.014 for pmc
        [(False, 0.03), (True, 0.04)],
        ids=["mc", "pmc"],
    )
    def test_expected_mode_last_track_agrees_with_realized(self, position_dependent, tolerance):
        dataset = generate(second_order_spec(n_sessions=3000))
        playlist = dataset.playlists[dataset.playlist_ids()[0]]
        train, test = dataset.sessions[:2400], dataset.sessions[2400:]
        predictor = MarkovPredictor(
            fit_markov(train, playlist, position_dependent=position_dependent, cap=dataset.cap)
        )
        realized, expected = (
            evaluate_playlist(
                predictor, test, playlist, cap=dataset.cap,
                demand_mode=mode, n_rollouts=300, seed=0,
            ).demand.predicted[-1]
            for mode in ("realized", "expected")
        )
        assert abs(expected - realized) < tolerance

    @pytest.mark.parametrize("family", ["mc", "transformer"])
    def test_rollout_alone_equals_the_same_rollout_in_a_stack(self, family):
        playlist = make_playlist(4)
        predictor = rollout_predictor(family, playlist)
        first_row = np.array([0.4, 0.6, 0.0])
        uniforms = np.random.default_rng(9).random((50, 4 * 2 + 1))
        stacked = rollout_walks(predictor, playlist, first_row, uniforms).events
        assert len(stacked) == 50
        assert len({len(events) for events in stacked}) > 2  # rollouts end at different steps
        for r, rolled in enumerate(stacked):
            walk(rolled, len(playlist), cap=2)
            alone = rollout_walks(predictor, playlist, first_row, uniforms[r : r + 1]).events
            assert alone == [rolled], r

    @pytest.mark.parametrize("family", ["lstm", "transformer"])
    def test_decoded_rollouts_equal_the_full_forward_reference(self, family, monkeypatch):
        playlist = make_playlist(4)
        predictor = rollout_predictor(family, playlist)
        first_row = np.array([0.4, 0.6, 0.0])
        uniforms = np.random.default_rng(10).random((40, 4 * 2 + 1))
        full_forward = FullForwardQueries(predictor)
        reference = rollout_walks(full_forward, playlist, first_row, uniforms).events
        decoded = []
        forward = predictor.model.forward

        def counting_forward(rows, lengths=None, states=None):
            decoded.append(len(rows))
            return forward(rows, lengths, states)

        monkeypatch.setattr(predictor.model, "forward", counting_forward)
        decoders = []
        make_decoder = predictor.decoder

        def tracked_decoder():
            decoder = make_decoder()
            decoders.append(weakref.ref(decoder))
            return decoder

        monkeypatch.setattr(predictor, "decoder", tracked_decoder)
        rolled = rollout_walks(predictor, playlist, first_row, uniforms).events
        assert rolled == reference
        assert len(decoders) == 1 and decoders[0]() is None  # the trie went with the call
        # every call asks for distinct prefixes, the first call for the
        # distinct first events in the order of their first rollout; the
        # decoder runs the two rows of each first event, then one row on each
        # later prefix, one forward per call
        queries = full_forward.queries
        assert all(len(set(prefixes)) == len(prefixes) for prefixes in queries)
        assert queries[0] == list(dict.fromkeys(events[:1] for events in reference))
        assert decoded == [2 * len(queries[0]), *map(len, queries[1:])]

    def test_rollout_session_is_the_one_rollout_case(self):
        playlist = make_playlist(4)
        predictor = rollout_predictor("mc", playlist)
        first_row = np.array([0.4, 0.6, 0.0])
        for seed in range(5):
            uniforms = np.random.default_rng(seed).random((1, 4 * 2 + 1))
            assert rollout_session(
                predictor, playlist, first_row, np.random.default_rng(seed)
            ).events == rollout_walks(predictor, playlist, first_row, uniforms).events[0]

    def test_expected_mode_asks_once_per_step_over_live_rollouts(self):
        playlist = make_playlist(3)
        sessions = [
            make_session(["play", "play", "skip"], sid="a"),
            make_session(["skip", "play", "play"], sid="b"),
        ]
        predictor = RecordingPredictor((0.3, 0.5, 0.2))
        evaluate_playlist(
            predictor, sessions, playlist, demand_mode="expected", n_rollouts=30, seed=4
        )
        assert predictor.session_calls == 1
        calls = predictor.batches
        assert 1 < len(calls) <= 3 * 2
        # one call per step, each for the distinct prefixes of the live
        # rollouts; the first holds the distinct first events
        assert set(calls[0]) == {(Event(1, Outcome.SKIP),), (Event(1, Outcome.PLAY),)}
        for step, prefixes in enumerate(calls, start=1):
            assert len(set(prefixes)) == len(prefixes)
            assert {len(events) for events in prefixes} == {step}
        for before, after in zip(calls, calls[1:]):
            assert {events[:-1] for events in after} <= set(before)

    def test_expected_mode_is_seed_deterministic(self):
        playlist = make_playlist(3)
        sessions = [
            make_session(["play", "play", "skip"], sid="a"),
            make_session(["skip", "play", "play"], sid="b"),
            make_session(["play", "replay", "play", "play"], sid="c"),
        ]
        predictor = MarkovPredictor(fit_markov(sessions, playlist, smoothing=0.5))
        runs = [
            evaluate_playlist(
                predictor,
                sessions,
                playlist,
                demand_mode="expected",
                n_rollouts=40,
                seed=123,
            ).demand
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


def _own_rows_case(name):
    if name == "constant":
        return FixedRowPredictor((0.3, 0.4, 0.3)), make_playlist(4), 2
    spec = GeneratorSpec(
        kind="markov1", n_sessions=400, seed=3, n_tracks=5, cap=3,
        transitions={
            Outcome.SKIP: (0.6, 0.4, 0.0),
            Outcome.PLAY: (0.2, 0.5, 0.3),
            Outcome.REPLAY: (0.3, 0.3, 0.4),
        },
    )
    dataset = generate(spec)
    playlist = dataset.playlists[dataset.playlist_ids()[0]]
    return MarkovPredictor(fit_markov(dataset.sessions, playlist, cap=3)), playlist, 3


class TestOwnRows:
    """Sessions drawn from a predictor's own rows and scored by that predictor:
    its predicted demand is unbiased for the actual demand in both modes."""

    @pytest.mark.parametrize("mode", ["realized", "expected"])
    @pytest.mark.parametrize("name", ["constant", "mc-cap3"])
    def test_every_track_is_within_three_standard_errors(self, name, mode):
        predictor, playlist, cap = _own_rows_case(name)
        n_sessions = 2000
        uniforms = np.random.default_rng(0).random((n_sessions, len(playlist) * cap + 1))
        first_row = np.array([0.35, 0.65, 0.0])
        sessions = [
            Session("rollout", playlist.playlist_id, events)
            for events in rollout_walks(predictor, playlist, first_row, uniforms, cap).events
        ]
        demand = evaluate_playlist(
            predictor, sessions, playlist, cap=cap, demand_mode=mode,
            n_rollouts=n_sessions, seed=0,
        ).demand
        # the standard error of the actual mean play count, per track; expected
        # mode adds the rollouts' own, which is at most as large
        plays = tally_sessions(sessions, len(playlist), cap).plays[1:].astype(np.float64)
        units = np.arange(cap + 1)
        cover = plays.sum(axis=1)
        mean = plays @ units / cover
        se = np.sqrt((plays @ units**2 / cover - mean**2) / cover)
        if mode == "expected":
            se *= np.sqrt(2.0)
        assert demand.coverage == tuple(cover)
        gap = np.abs(np.array(demand.predicted) - demand.actual)
        assert np.all(gap < 3 * se), (gap / se).round(2)


class TestDistinctSequences:
    def test_each_distinct_sequence_is_scored_and_walked_once(self, monkeypatch):
        from seqbundle import evalkit
        from seqbundle.seqmodels import predictors

        playlist = make_playlist(4)
        outcomes = [["play", "replay", "skip"], ["skip", "play"], ["play", "play", "replay"]]
        sessions = [make_session(outcomes[i % 3], sid=f"s{i}") for i in range(12)]
        predictor = _family_predictor("transformer", True, sessions, playlist)
        # the realized demand credited from each distinct sequence's rows as
        # drawn, asked for one session at a time, weighted by its session count
        first = {s.events: s for s in reversed(sessions)}
        weights = Counter(s.events for s in sessions)
        drawn = np.concatenate([
            feasible_rows(
                predictor.predict_sessions([first[events]])[0][1:],
                [feasible[2] for _, _, feasible in walk(events, 4, 2)[1:]],
            )
            for events in weights
        ])
        predicted = evalkit._credit_plays(weights.items(), drawn, 4)
        actual = evalkit._play_tally(tally_sessions(sessions, 4, 2).plays)
        expected = evalkit._demand_rates(actual, predicted)
        walks = []
        asked = []
        for module in (evalkit, predictors):
            def counting_walk(*args, _walk=module.walk, _module=module.__name__):
                walks.append(_module)
                return _walk(*args)

            monkeypatch.setattr(module, "walk", counting_walk)
        predict_sessions = predictor.predict_sessions

        def recording_predict_sessions(batch):
            asked.append([s.session_id for s in batch])
            return predict_sessions(batch)

        monkeypatch.setattr(predictor, "predict_sessions", recording_predict_sessions)
        result = evaluate_playlist(predictor, sessions, playlist)
        assert asked == [["s0", "s1", "s2"]]
        assert sorted(walks) == ["seqbundle.evalkit"] * 3 + ["seqbundle.seqmodels.predictors"] * 3
        assert result.n_scored == sum(len(s) - 1 for s in sessions)
        assert result.demand == expected


def old_credit_plays(sequences, n_tracks, cap):
    """The estimator as it was before the sampler handed over its drawn rows:
    it re-walks every sequence for its tracks and REPLAY mask and passes the
    raw rows through feasible_rows itself."""
    replay, play = OUTCOME_INDEX[Outcome.REPLAY], OUTCOME_INDEX[Outcome.PLAY]
    cover = np.zeros(n_tracks + 1, dtype=np.int64)
    steps, weights, blocks = [], [], []
    for events, weight, rows in sequences:
        reached = events[-1].track_position
        cover[1 : reached + 1] += weight
        steps += [(track, feasible[replay], track < reached)
                  for track, _, feasible in walk(events, n_tracks, cap)[1:]]
        weights += [weight] * len(events)
        blocks.append(rows)
    tracks, replay_ok, ahead = map(np.array, zip(*steps))
    drawn = feasible_rows(np.concatenate(blocks), replay_ok) * np.array(weights)[:, None]
    credit = np.bincount(tracks, drawn[:, replay], n_tracks + 1)
    credit += np.bincount(tracks[ahead] + 1, drawn[ahead, play], n_tracks + 1)
    return credit[1:], cover[1:]


TABLE_ROWS = st.one_of(
    st.sampled_from([(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.01, 0.04, 0.95)]),
    st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(lambda row: sum(row) > 0.0),
)


class TableRows:
    """Rows from a table, keyed on a prefix's length and last event; records
    each row it returns by its prefix."""

    def __init__(self, table):
        self.table = [np.array(row) / sum(row) for row in table]
        self.rows = {}

    def decoder(self):
        return self.next_rows

    def next_rows(self, prefixes):
        out = []
        for prefix in prefixes:
            last = prefix[-1]
            key = 7 * len(prefix) + 3 * last.track_position + last.index
            self.rows[prefix] = self.table[key % len(self.table)]
            out.append(self.rows[prefix])
        return np.array(out)


class TestDrawnRows:
    @pytest.mark.deep
    @settings(deadline=None)
    @given(
        n_tracks=st.integers(1, 6),
        cap=st.integers(1, 4),
        table=st.lists(TABLE_ROWS, min_size=1, max_size=8),
        n_rollouts=st.integers(1, 40),
        first_counts=st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_credit_from_drawn_rows_equals_the_rewalk_reference(
        self, n_tracks, cap, table, n_rollouts, first_counts, seed
    ):
        playlist = make_playlist(n_tracks)
        plays = np.zeros((n_tracks, cap + 1), dtype=np.int64)
        plays[0, :2] = first_counts
        predictor = TableRows(table)
        rolled = []

        def recording_rollout_walks(*args):
            rolled.append(rollout_walks(*args))
            return rolled[-1]

        rollout_walks = evalkit.rollout_walks
        with mock.patch.object(evalkit, "rollout_walks", recording_rollout_walks):
            credit, cover = evalkit._rolled_plays(
                predictor, plays, playlist, cap, n_rollouts, seed
            )
        # the reference: each distinct rollout's rows looked up by its
        # prefixes, zeros where no outcome was open, and walked again
        closed = np.zeros(3)
        weights = Counter(rolled[0].events)
        ref_credit, ref_cover = old_credit_plays(
            [(events, weight, np.array([predictor.rows.get(events[:j], closed)
                                        for j in range(1, len(events) + 1)]))
             for events, weight in weights.items()],
            n_tracks, cap,
        )
        assert credit.tobytes() == ref_credit.tobytes()
        assert cover.tobytes() == ref_cover.tobytes()


class TestEvaluateDataset:
    def build_dataset(self):
        pa, pb = make_playlist(3, pid="a"), make_playlist(3, pid="b")
        sessions = [
            make_session(["play", "play", "skip"], sid="a1", pid="a"),
            make_session(["skip", "play", "play"], sid="a2", pid="a"),
            make_session(["play", "skip", "play"], sid="b1", pid="b"),
        ]
        dataset = dataset_from_sessions({"a": pa, "b": pb}, sessions)
        return Dataset(
            playlists=dataset.playlists,
            sessions=dataset.sessions,
            split_tags=(Split.TEST, Split.TEST, Split.TEST),
        )

    def test_pooled_report(self):
        dataset = self.build_dataset()
        predictors = {"a": FixedRowPredictor(), "b": FixedRowPredictor()}
        report = evaluate_dataset(predictors, dataset)
        assert [r.playlist_id for r in report.results] == ["a", "b"]
        assert report.n_scored == 6
        assert report.hits == 4  # plays hit, skips miss
        assert report.hit_rate == pytest.approx(4 / 6)
        assert int(np.trace(report.confusion_counts())) == 4

    def test_scores_at_the_dataset_cap(self):
        # track 1 is played three times, which only a cap of 3 allows
        sessions = (
            make_session(["play", "replay", "replay", "play"], sid="s1"),
            make_session(["play", "play", "skip"], sid="s2"),
        )
        dataset = Dataset(
            playlists={"pl": make_playlist(3)},
            sessions=sessions,
            split_tags=(Split.TEST, Split.TEST),
            cap=3,
        )
        report = evaluate_dataset({"pl": FixedRowPredictor()}, dataset)
        assert (report.n_scored, report.hits) == (5, 2)

    def test_missing_predictor_is_an_error(self):
        dataset = self.build_dataset()
        with pytest.raises(ConstraintViolation, match="no predictor"):
            evaluate_dataset({"a": FixedRowPredictor()}, dataset)

    def test_playlist_without_split_sessions_is_skipped(self, caplog):
        dataset = self.build_dataset()
        retagged = Dataset(
            playlists=dataset.playlists,
            sessions=dataset.sessions,
            split_tags=(Split.TEST, Split.TEST, Split.TRAIN),
        )
        with caplog.at_level(logging.WARNING):
            report = evaluate_dataset(
                {"a": FixedRowPredictor(), "b": FixedRowPredictor()}, retagged
            )
        assert [r.playlist_id for r in report.results] == ["a"]
        assert any("skipping" in rec.getMessage() for rec in caplog.records)

    def test_report_jsonable_shape(self):
        dataset = self.build_dataset()
        predictors = {"a": FixedRowPredictor(), "b": FixedRowPredictor()}
        obj = evaluate_dataset(predictors, dataset).to_jsonable()
        assert obj["outcome_order"] == ["skip", "play", "replay"]
        assert obj["n_scored"] == 6
        assert len(obj["playlists"]) == 2
        assert set(obj["position_rate_cdf"]) == {"values", "cumulative"}
        assert obj["position_rate_cdf"]["cumulative"][-1] == pytest.approx(1.0)

    def test_demand_pseudo_r2_none_when_constant(self):
        playlist = make_playlist(2)
        sessions = [make_session(["play", "play"], sid=f"s{i}") for i in range(3)]
        result = evaluate_playlist(FixedRowPredictor(), sessions, playlist)
        report = EvaluationReport(results=(result,), demand_mode="realized")
        # only one track position in range: fewer than two demand points
        assert report.demand_pseudo_r2() is None


class TestSummaries:
    def test_hand_computed_summary(self):
        playlist = make_playlist(3)
        sessions = [
            make_session(["play", "replay", "skip", "play"], sid="a"),
            make_session(["skip", "skip", "skip"], sid="b"),
        ]
        dataset = dataset_from_sessions({"pl": playlist}, sessions)
        (summary,) = summarize_dataset(dataset)
        assert summary.n_tracks == 3
        assert summary.n_sessions == 2
        assert summary.mean_events == pytest.approx(3.5)
        # session a listens 100 + 100 + 0 + 300, session b listens nothing
        assert summary.mean_listening_seconds == pytest.approx(250.0)
        assert summary.mean_tracks_played == pytest.approx(1.0)
        assert summary.share_skip == pytest.approx(4 / 7)
        assert summary.share_play == pytest.approx(2 / 7)
        assert summary.share_replay == pytest.approx(1 / 7)

    def test_listening_seconds_walk_each_sequence_once(self, monkeypatch):
        # durations whose float sums depend on the order of the additions
        playlist = make_playlist(3, durations=(0.1, 0.7, 1e16 / 3))
        walks = [["play", "replay", "play"], ["play", "play", "play"], ["skip", "play"]]
        sessions = [
            make_session(walks[k], sid=f"s{i}") for i, k in enumerate((0, 1, 0, 2, 1, 0, 0))
        ]
        expected = 0.0
        for session in sessions:  # today's order: each session's events, then sessions
            expected += sum(evalkit.event_listening_time(e, playlist) for e in session.events)
        calls = []
        listen = evalkit.event_listening_time
        monkeypatch.setattr(
            evalkit, "event_listening_time", lambda e, pl: calls.append(e) or listen(e, pl)
        )
        (summary,) = summarize_dataset(dataset_from_sessions({"pl": playlist}, sessions))
        assert summary.mean_listening_seconds == expected / len(sessions)
        assert len(calls) == sum(map(len, walks))

    def test_jsonable_round_trip_fields(self):
        playlist = make_playlist(2)
        dataset = dataset_from_sessions(
            {"pl": playlist}, [make_session(["play", "play"], sid="a")]
        )
        (obj,) = summary_to_jsonable(summarize_dataset(dataset))
        assert obj["playlist_id"] == "pl"
        assert obj["share_play"] == 1.0

    def test_empty_dataset_rejected(self):
        playlist = make_playlist(2)
        dataset = dataset_from_sessions({"pl": playlist}, [])
        with pytest.raises(ConstraintViolation):
            summarize_dataset(dataset)


# Every predictor family, the neural ones with and without the feasibility mask.
ROW_FAMILIES = [
    ("mc", False), ("pmc", False), ("zero", False),
    ("mlp", False), ("mlp", True), ("lstm", False), ("lstm", True),
    ("transformer", False), ("transformer", True), ("encoder", False), ("encoder", True),
]


def _family_predictor(family, mask, sessions, playlist):
    if family in ("mc", "pmc"):
        return MarkovPredictor(
            fit_markov(sessions, playlist, position_dependent=family == "pmc", smoothing=0.5)
        )
    if family == "zero":
        return ZeroOrderPredictor(fit_zero_order(sessions, playlist))
    pipeline = FeaturePipeline(playlist=playlist, config=FeatureConfig()).fit(sessions)
    dim = pipeline.config.input_dim
    transformer = dict(input_dim=dim, embed_dim=8, n_blocks=1, n_heads=2, head_dim=4, ff_dim=8)
    config = {
        "mlp": MLPConfig(dim, hidden_dim=8, n_layers=1),
        "lstm": LSTMConfig(dim, hidden_dim=8, n_layers=1),
        "transformer": TransformerConfig(**transformer),
        "encoder": TransformerConfig(**transformer, causal=False, positional="learned",
                                     max_positions=32),
    }[family]
    return NeuralPredictor(
        model=make_model(ModelKind(family), config, seed=2),
        pipeline=pipeline,
        feasibility_mask=mask,
    )


@pytest.mark.parametrize(
    "family,mask", ROW_FAMILIES, ids=[f + ("-masked" if m else "") for f, m in ROW_FAMILIES]
)
def test_predictor_rows_pass_the_row_check(family, mask):
    dataset = generate(second_order_spec(n_sessions=40, seed=5))
    playlist = dataset.playlists[dataset.playlist_ids()[0]]
    predictor = _family_predictor(family, mask, dataset.sessions, playlist)
    for session, rows in zip(dataset.sessions, predictor.predict_sessions(dataset.sessions)):
        check_prob_rows(rows, session.session_id)


# Sessions on a 5-track playlist; the replays are the rows where the track a
# row offers differs from the track its event resolves.
PREFIX_OUTCOMES = [
    ["play", "play"],
    ["play", "replay"],
    ["skip", "play", "replay", "play", "skip"],
    ["play", "replay", "skip", "play", "replay", "play", "play"],
    ["play", "play", "play", "play", "play", "replay"],
]


def _prefix_rule_predictor(family, include_duration, feasibility_mask=False):
    playlist = make_playlist(5)
    sessions = [make_session(o, sid=f"q{i}") for i, o in enumerate(PREFIX_OUTCOMES)]
    if family in ("mc", "pmc"):
        model = fit_markov(sessions, playlist, position_dependent=family == "pmc")
        return MarkovPredictor(model), sessions
    if family == "zero":
        return ZeroOrderPredictor(fit_zero_order(sessions, playlist)), sessions
    config = FeatureConfig(include_duration=include_duration)
    d = config.input_dim
    transformer = dict(input_dim=d, embed_dim=8, n_blocks=2, n_heads=2, head_dim=4, ff_dim=8)
    kind, model_config = {
        "mlp": (ModelKind.MLP, MLPConfig(d, hidden_dim=6, n_layers=2)),
        "lstm": (ModelKind.LSTM, LSTMConfig(d, hidden_dim=4, n_layers=2)),
        "transformer": (ModelKind.TRANSFORMER, TransformerConfig(**transformer)),
        "encoder": (ModelKind.ENCODER, TransformerConfig(
            **transformer, causal=False, positional="learned", max_positions=16)),
    }[family]
    pipeline = FeaturePipeline(playlist=playlist, config=config).fit(sessions)
    predictor = NeuralPredictor(
        model=make_model(kind, model_config, seed=2), pipeline=pipeline,
        feasibility_mask=feasibility_mask,
    )
    return predictor, sessions


class TestPrefixRule:
    """Row j of every family is a function of events[:j] alone: the scored row,
    or the row after the last event, and the next-event query for the same
    prefix are the same bytes, with the feasibility mask too."""

    @pytest.mark.parametrize(
        "family,variant",
        [(f, "plain") for f in ("mc", "pmc", "zero")]
        + [(f, v) for f in ("mlp", "lstm", "transformer", "encoder")
           for v in ("plain", "duration", "masked")],
    )
    def test_scored_row_is_the_query_row_of_its_prefix(self, family, variant):
        predictor, sessions = _prefix_rule_predictor(
            family, variant == "duration", feasibility_mask=variant == "masked"
        )
        for session, rows in zip(sessions, predictor.predict_sessions(sessions)):
            for j in range(1, len(session.events) + 1):
                query = predictor.decoder()([session.events[:j]])[0]
                assert rows[j].tobytes() == query.tobytes(), (session.session_id, j)
