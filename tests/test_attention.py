"""Attention weight algebra, content-free baselines, harmonic approximation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_playlist, make_session
from seqbundle import attention
from seqbundle.attention import (
    BASELINE_DIAGONAL,
    BASELINE_FIRST_KEY,
    BASELINE_UNIFORM,
    AttentionTensor,
    average_key_weights,
    average_query_weights,
    baseline_key_weights,
    harmonic_approx_check,
    pearson,
    playlist_correlations,
    session_attention_profile,
)
from seqbundle.dataio import FeatureConfig, FeaturePipeline
from seqbundle.errors import ConstraintViolation, MetricUndefinedError
from seqbundle.seqmodels import ModelKind, NeuralPredictor, TransformerConfig, make_model


def random_causal_matrix(n, seed):
    raw = np.random.default_rng(seed).uniform(0.1, 1.0, size=(n, n))
    raw = np.tril(raw)
    return raw / raw.sum(axis=1, keepdims=True)


@st.composite
def causal_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return random_causal_matrix(n, seed)


class TestValidation:
    def test_accepts_valid_tensor(self):
        w = np.stack([[random_causal_matrix(4, s) for s in (1, 2)] for _ in range(3)])
        tensor = AttentionTensor(w)
        assert tensor.n_positions == 4

    def test_rejects_mass_above_diagonal(self):
        w = random_causal_matrix(3, 0)
        w[0, 1] = 1e-12  # any non-zero at all, not just tolerance-sized
        with pytest.raises(ConstraintViolation, match="above the diagonal"):
            AttentionTensor(w[None, None])

    def test_rejects_bad_row_sum(self):
        w = random_causal_matrix(3, 0)
        w[2, 0] += 1e-6
        with pytest.raises(ConstraintViolation, match="sum to 1"):
            AttentionTensor(w[None, None])

    def test_rejects_wrong_rank(self):
        with pytest.raises(ConstraintViolation):
            AttentionTensor(random_causal_matrix(3, 0))

    def test_averaged_is_still_causal_stochastic(self):
        w = np.stack([[random_causal_matrix(5, s) for s in (3, 4, 5)]])
        avg = AttentionTensor(w).averaged()
        assert avg.shape == (5, 5)
        assert np.allclose(avg.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(avg[np.triu_indices(5, k=1)] == 0.0)


class TestQueryWeights:
    @given(alpha=causal_matrices())
    @settings(max_examples=60)
    def test_always_equals_one_over_i(self, alpha):
        n = alpha.shape[0]
        got = average_query_weights(alpha)
        expected = 1.0 / np.arange(1, n + 1, dtype=np.float64)
        assert np.allclose(got, expected, atol=1e-9)

    def test_frozen_small_case(self):
        got = average_query_weights(random_causal_matrix(4, 9))
        assert np.allclose(got, (1.0, 0.5, 1 / 3, 0.25), atol=1e-12)


class TestKeyWeights:
    def test_identity_matrix_matches_diagonal_baseline(self):
        n = 5
        got = average_key_weights(np.eye(n))
        assert np.allclose(got, baseline_key_weights(BASELINE_DIAGONAL, n), atol=1e-15)

    def test_first_column_matrix_matches_first_key_baseline(self):
        n = 4
        alpha = np.zeros((n, n))
        alpha[:, 0] = 1.0
        got = average_key_weights(alpha)
        assert np.array_equal(got, baseline_key_weights(BASELINE_FIRST_KEY, n))

    def test_uniform_matrix_matches_uniform_baseline(self):
        n = 6
        alpha = np.tril(np.ones((n, n))) / np.arange(1, n + 1)[:, None]
        got = average_key_weights(alpha)
        assert np.allclose(got, baseline_key_weights(BASELINE_UNIFORM, n), atol=1e-12)

    def test_uniform_baseline_frozen_n3(self):
        got = baseline_key_weights(BASELINE_UNIFORM, 3)
        assert np.allclose(got, (11 / 18, 5 / 12, 1 / 3), atol=1e-12)

    def test_key_weights_average_to_query_mass(self):
        # total attention mass is n rows of 1; the weighted key averages must
        # redistribute exactly that mass
        alpha = random_causal_matrix(7, 13)
        got = average_key_weights(alpha)
        denom = np.arange(7, 0, -1, dtype=np.float64)
        assert np.dot(got, denom) == pytest.approx(7.0, abs=1e-9)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConstraintViolation, match="unknown baseline"):
            baseline_key_weights(4, 3)
        with pytest.raises(ConstraintViolation):
            baseline_key_weights(BASELINE_UNIFORM, 0)


class TestHarmonicCheck:
    def test_n2_exact_value(self):
        check = harmonic_approx_check(2)
        assert check.exact == pytest.approx(0.75, abs=1e-15)

    def test_n10_exact_value(self):
        check = harmonic_approx_check(10)
        h10 = sum(1.0 / k for k in range(1, 11))
        assert check.exact == pytest.approx(h10 / 10, abs=1e-15)
        assert check.exact == pytest.approx(0.2928968253968254, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 25, 60, 100])
    def test_bound_holds_across_lengths(self, n):
        check = harmonic_approx_check(n)
        assert check.passed
        assert check.deviation <= check.bound
        assert check.bound == pytest.approx(1.0 / (8 * n * n) / n, abs=1e-18)

    def test_approximation_overestimates_within_remainder(self):
        # the dropped term is subtracted from the closed form, so keeping
        # only ln n + gamma + 1/(2n) overshoots the harmonic sum slightly
        for n in (4, 16, 64):
            check = harmonic_approx_check(n)
            assert check.exact - 1e-15 <= check.approximation
            assert check.approximation - check.exact <= 1.0 / (8 * n * n) / n

    def test_rejects_n_zero(self):
        with pytest.raises(ConstraintViolation):
            harmonic_approx_check(0)


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson((1.0, 2.0, 3.0), (2.0, 4.0, 6.0)) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert pearson((1.0, 2.0, 3.0), (3.0, 2.0, 1.0)) == pytest.approx(-1.0)

    def test_constant_input_is_undefined(self):
        with pytest.raises(MetricUndefinedError):
            pearson((1.0, 1.0, 1.0), (1.0, 2.0, 3.0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConstraintViolation):
            pearson((1.0, 2.0), (1.0, 2.0, 3.0))


class TestProfiles:
    def test_uniform_attention_correlates_perfectly(self):
        n = 4
        uniform = np.tril(np.ones((n, n))) / np.arange(1, n + 1)[:, None]
        session = make_session(["play", "play", "skip", "play"])
        profile = session_attention_profile(session, uniform[None, None])
        assert profile.correlation == pytest.approx(1.0, abs=1e-12)
        assert profile.empirical == pytest.approx(profile.baseline)

    def test_short_sessions_are_excluded(self):
        weights = np.ones((1, 1, 2, 2))
        assert session_attention_profile(make_session(["play", "skip"]), weights) is None

    def test_constant_profile_yields_none_correlation(self):
        tensor = self.constant_key_weight_tensor()
        assert np.allclose(average_key_weights(tensor), 0.5, atol=1e-15)
        session = make_session(["play", "play", "skip"])
        profile = session_attention_profile(session, tensor[None, None])
        assert profile.correlation is None

    def test_each_profiled_session_is_checked_once(self, monkeypatch):
        sessions = [
            make_session(["play", "skip", "play"], sid="a"),
            make_session(["play", "play"], sid="short"),
            make_session(["skip", "play", "replay", "play"], sid="b"),
        ]
        stacks = [  # (3 layers, 2 heads, n, n)
            np.array([[random_causal_matrix(len(s), 10 * layer + head) for head in range(2)]
                      for layer in range(3)])
            for s in sessions
        ]
        expected = [
            None if len(s) < 3 else average_key_weights(AttentionTensor(w).averaged())
            for s, w in zip(sessions, stacks)
        ]
        calls = []
        check = attention._check_causal

        def counting_check(*args):
            calls.append(args[2])
            return check(*args)

        monkeypatch.setattr(attention, "_check_causal", counting_check)
        profiles = [session_attention_profile(s, w) for s, w in zip(sessions, stacks)]
        assert calls == ["attention tensor (layers, heads, n, n)"] * 2
        assert profiles[1] is None
        for profile, weights in zip(profiles[::2], expected[::2]):
            assert np.array(profile.empirical).tobytes() == weights.tobytes()

    @staticmethod
    def constant_key_weight_tensor():
        # built so every average key weight equals 1/2:
        # col sums needed: 3/2, 1, 1/2 over denominators 3, 2, 1
        return np.array(
            [[1.0, 0.0, 0.0], [0.25, 0.75, 0.0], [0.25, 0.25, 0.5]]
        )

    def test_playlist_correlations_mean_and_none_handling(self):
        profiles = []
        n = 4
        uniform = np.tril(np.ones((n, n))) / np.arange(1, n + 1)[:, None]
        for sid in ("a", "b"):
            session = make_session(["play", "play", "skip", "play"], sid=sid)
            profiles.append(session_attention_profile(session, uniform[None, None]))
        flat = self.constant_key_weight_tensor()[None, None]
        profiles.append(
            session_attention_profile(make_session(["play", "play", "skip"], sid="c"), flat)
        )
        means = playlist_correlations(profiles)
        assert list(means) == ["pl"]
        assert means["pl"] == pytest.approx(1.0, abs=1e-12)  # the None drops out


class TestEndToEndCapture:
    def test_real_transformer_profile(self):
        playlist = make_playlist(3)
        sessions = [
            make_session(["play", "play", "skip"], sid=f"s{i}") for i in range(4)
        ]
        pipeline = FeaturePipeline(playlist=playlist, config=FeatureConfig()).fit(sessions)
        config = TransformerConfig(
            input_dim=pipeline.config.input_dim,
            embed_dim=8,
            n_blocks=1,
            n_heads=2,
            head_dim=4,
            ff_dim=8,
        )
        predictor = NeuralPredictor(
            model=make_model(ModelKind.TRANSFORMER, config, seed=4), pipeline=pipeline
        )
        [weights] = predictor.attention_for_sessions(sessions[:1])
        profile = session_attention_profile(sessions[0], weights)
        assert profile is not None
        assert len(profile.empirical) == 3
        assert profile.baseline == pytest.approx((11 / 18, 5 / 12, 1 / 3))
        if profile.correlation is not None:
            assert -1.0 <= profile.correlation <= 1.0
