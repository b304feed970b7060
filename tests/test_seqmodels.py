"""Model construction, gradients, causality, training, and queue decisions."""

import functools
import logging
import math
import re
import types

import numpy as np
import pytest

from conftest import make_playlist, make_session, rng
from seqbundle.dataio import FeatureConfig, FeaturePipeline
from seqbundle.domain import (
    DEFAULT_CAP,
    N_OUTCOMES,
    OUTCOME_ORDER,
    Event,
    advance_walk,
    check_prob_rows,
    walk,
)
from seqbundle.evalkit import rollout_walks
from seqbundle import neuralkit as nk
from seqbundle.errors import ConstraintViolation, NumericError, SchemaError
from seqbundle.neuralkit import grad_check, load_checkpoint, save_checkpoint
from seqbundle.neuralkit.autodiff import cross_entropy_mean
from seqbundle.neuralkit.gradcheck import float64_data
from seqbundle.seqmodels import models, predictors, training
from seqbundle.seqmodels import (
    LSTMConfig,
    MLPConfig,
    ModelKind,
    NeuralPredictor,
    TrainConfig,
    TransformerConfig,
    build_training_arrays,
    config_from_json,
    config_to_json,
    make_model,
    train_model,
)

INPUT_DIM = 5  # prev-action one-hot (4) + remaining-time channel


def tiny_transformer_config(**overrides):
    base = dict(
        input_dim=INPUT_DIM,
        embed_dim=8,
        n_blocks=1,
        n_heads=2,
        head_dim=4,
        ff_dim=8,
    )
    base.update(overrides)
    return TransformerConfig(**base)


def fitted_pipeline(playlist, sessions, **config_kwargs):
    config = FeatureConfig(**config_kwargs)
    return FeaturePipeline(playlist=playlist, config=config).fit(sessions)


def pattern_sessions(n_each=6):
    """Sessions whose next action is fully determined by the previous one."""
    out = []
    for i in range(n_each):
        out.append(make_session(["play", "play", "play"], sid=f"p{i}"))
        out.append(make_session(["skip", "skip", "skip"], sid=f"k{i}"))
    return out


class TestConstruction:
    def test_mlp_parameter_count(self):
        model = make_model(ModelKind.MLP, MLPConfig(INPUT_DIM, hidden_dim=8, n_layers=2))
        # (5*8+8) + (8*8+8) + (8*3+3)
        assert model.n_parameters == 147

    def test_lstm_parameter_count(self):
        model = make_model(ModelKind.LSTM, LSTMConfig(INPUT_DIM, hidden_dim=4, n_layers=2))
        # l0: 5*16+4*16+16, l1: 4*16+4*16+16, head: 4*4+4+4*3+3
        assert model.n_parameters == 339

    def test_transformer_parameter_count(self):
        model = make_model(ModelKind.TRANSFORMER, tiny_transformer_config())
        # embed 48, block 440 (ln 32, qkv 192, attn_out 72, ff 144), final_ln 16, head 27
        assert model.n_parameters == 531

    def test_encoder_adds_learned_positions(self):
        causal = make_model(ModelKind.TRANSFORMER, tiny_transformer_config())
        encoder = make_model(
            ModelKind.ENCODER,
            tiny_transformer_config(causal=False, positional="learned", max_positions=16),
        )
        assert encoder.n_parameters == causal.n_parameters + 16 * 8

    @pytest.mark.parametrize("kind,config", [
        (ModelKind.TRANSFORMER, tiny_transformer_config(n_blocks=2, n_heads=4, head_dim=2)),
        (ModelKind.ENCODER, tiny_transformer_config(
            n_blocks=2, causal=False, positional="learned", max_positions=6
        )),
    ], ids=["transformer", "encoder"])
    def test_w_qkv_holds_each_heads_draw(self, kind, config):
        # replay the draws of one (d, head_dim) matrix per head and projection,
        # head by head as (Q, K, V), between the other weights of each block
        model = make_model(kind, config, seed=11)
        gen = np.random.default_rng(11)
        d, hd, n_heads = config.embed_dim, config.head_dim, config.n_heads
        models._uniform(gen, config.input_dim, (config.input_dim, d))
        if config.positional == "learned":
            models._uniform(gen, d, (config.max_positions, d))
        for i in range(config.n_blocks):
            w_qkv = model.params[f"block{i}/w_qkv"].data
            assert w_qkv.shape == (d, 3 * n_heads * hd)
            for head in range(n_heads):
                for proj in range(3):  # Q, K, V
                    column = (proj * n_heads + head) * hd
                    drawn = models._uniform(gen, d, (d, hd)).astype(nk.FLOAT)
                    assert w_qkv[:, column : column + hd].tobytes() == drawn.tobytes()
            models._uniform(gen, d, (d, d))
            models._uniform(gen, d, (d, config.ff_dim))
            models._uniform(gen, config.ff_dim, (config.ff_dim, d))
        head_w = models._uniform(gen, d, (d, N_OUTCOMES)).astype(nk.FLOAT)
        assert model.params["head/w"].data.tobytes() == head_w.tobytes()

    def test_kind_and_causality_must_agree(self):
        with pytest.raises(ConstraintViolation):
            make_model(ModelKind.TRANSFORMER, tiny_transformer_config(causal=False))
        with pytest.raises(ConstraintViolation):
            make_model(ModelKind.ENCODER, tiny_transformer_config())

    def test_config_validation(self):
        with pytest.raises(ConstraintViolation):
            tiny_transformer_config(n_heads=3)  # 3 * 4 != 8
        with pytest.raises(ConstraintViolation):
            TrainConfig(validation_fraction=1.0)
        with pytest.raises(ConstraintViolation):
            MLPConfig(input_dim=0)

    @pytest.mark.parametrize("sizes", [
        {"embed_dim": 0, "n_heads": 1, "head_dim": 0, "ff_dim": 0},
        {"embed_dim": 0, "n_heads": 0, "head_dim": 4, "ff_dim": 4},
        {"embed_dim": -4, "n_heads": -1, "head_dim": 4, "ff_dim": -4},
    ], ids=["zero-head-dim", "zero-heads", "negative"])
    def test_empty_attention_sizes_rejected(self, sizes):
        with pytest.raises(ConstraintViolation, match="dimensions must be >= 1"):
            TransformerConfig(input_dim=5, **sizes)

    def test_config_json_round_trip(self):
        for kind, config in [
            (ModelKind.MLP, MLPConfig(INPUT_DIM, hidden_dim=16)),
            (ModelKind.LSTM, LSTMConfig(INPUT_DIM, hidden_dim=8, n_layers=1)),
            (ModelKind.TRANSFORMER, tiny_transformer_config()),
            (
                ModelKind.ENCODER,
                tiny_transformer_config(causal=False, positional="learned"),
            ),
        ]:
            back_kind, back_config = config_from_json(config_to_json(kind, config))
            assert back_kind is kind
            assert back_config == config


class TestForward:
    @pytest.mark.parametrize(
        "kind,config",
        [
            (ModelKind.MLP, MLPConfig(INPUT_DIM, hidden_dim=8, n_layers=1)),
            (ModelKind.LSTM, LSTMConfig(INPUT_DIM, hidden_dim=4, n_layers=1)),
            (ModelKind.TRANSFORMER, tiny_transformer_config()),
        ],
        ids=["mlp", "lstm", "transformer"],
    )
    def test_outputs_are_distributions(self, kind, config):
        model = make_model(kind, config, seed=1)
        probs, _ = model.forward(rng(2).normal(size=(5, INPUT_DIM)))
        assert probs.data.shape == (5, 3)
        assert np.allclose(probs.data.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs.data > 0)

    def test_rejects_wrong_width(self):
        model = make_model(ModelKind.MLP, MLPConfig(INPUT_DIM, hidden_dim=4, n_layers=1))
        with pytest.raises(ConstraintViolation):
            model.forward(np.zeros((3, INPUT_DIM + 1)))

    def test_attention_capture_shape(self):
        model = make_model(ModelKind.TRANSFORMER, tiny_transformer_config(n_blocks=2))
        _, [weights] = model.forward(rng(3).normal(size=(4, INPUT_DIM)), capture_attention=True)
        assert weights.shape == (2, 2, 4, 4)
        assert np.allclose(weights.sum(axis=3), 1.0, atol=1e-9)

    def test_same_seed_same_init(self):
        a = make_model(ModelKind.TRANSFORMER, tiny_transformer_config(), seed=9)
        b = make_model(ModelKind.TRANSFORMER, tiny_transformer_config(), seed=9)
        for name in a.params:
            assert a.params[name].data.tobytes() == b.params[name].data.tobytes()

    def test_checkpoint_round_trip_into_a_model_built_for_loading(self, tmp_path):
        config = LSTMConfig(INPUT_DIM, hidden_dim=4, n_layers=1)
        model = make_model(ModelKind.LSTM, config)
        rows = rng(4).normal(size=(3, INPUT_DIM))
        save_checkpoint(tmp_path / "w", model.flat, model.layout)
        fresh = make_model(ModelKind.LSTM, config, seed=None)
        load_checkpoint(tmp_path / "w", fresh.flat, fresh.layout)
        assert fresh.forward(rows)[0].data.tobytes() == model.forward(rows)[0].data.tobytes()
        other = make_model(ModelKind.LSTM, LSTMConfig(INPUT_DIM, hidden_dim=5, n_layers=1))
        with pytest.raises(SchemaError, match=r"w\.json: array entry 0 is .*'head/b1'"):
            load_checkpoint(tmp_path / "w", other.flat, other.layout)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_checkpoint_load_refuses_non_finite(self, bad, tmp_path):
        config = LSTMConfig(INPUT_DIM, hidden_dim=4, n_layers=1)
        model = make_model(ModelKind.LSTM, config)
        model.params["head/b1"].data[2] = bad
        save_checkpoint(tmp_path / "w", model.flat, model.layout)
        fresh = make_model(ModelKind.LSTM, config, seed=None)
        message = f"{tmp_path / 'w.bin'}: array 'head/b1' holds non-finite values"
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_checkpoint(tmp_path / "w", fresh.flat, fresh.layout)

    def test_checkpoint_reload_preserves_outputs(self, tmp_path):
        model = make_model(ModelKind.TRANSFORMER, tiny_transformer_config(), seed=5)
        rows = rng(6).normal(size=(4, INPUT_DIM))
        before = model.forward(rows)[0].data
        save_checkpoint(tmp_path / "w", model.flat, model.layout)
        fresh = make_model(ModelKind.TRANSFORMER, tiny_transformer_config(), seed=77)
        load_checkpoint(tmp_path / "w", fresh.flat, fresh.layout)
        after = fresh.forward(rows)[0].data
        assert before.tobytes() == after.tobytes()


class TestGradients:
    @pytest.mark.parametrize(
        "kind,config",
        [
            (ModelKind.MLP, MLPConfig(INPUT_DIM, hidden_dim=6, n_layers=2)),
            (ModelKind.LSTM, LSTMConfig(INPUT_DIM, hidden_dim=4, n_layers=2)),
            (ModelKind.TRANSFORMER, tiny_transformer_config()),
            (
                ModelKind.ENCODER,
                tiny_transformer_config(
                    causal=False, positional="learned", max_positions=8
                ),
            ),
        ],
        ids=["mlp", "lstm", "transformer", "encoder"],
    )
    def test_backward_matches_finite_differences(self, kind, config):
        model = make_model(kind, config, seed=3)
        rows = rng(7).normal(size=(4, INPUT_DIM))
        labels = np.array([1, 0, 2, 1])
        mask = np.array([False, True, True, True])

        def loss():
            probs, _ = model.forward(rows)
            return cross_entropy_mean(probs, labels, mask)

        err = grad_check(loss, model.params, max_entries_per_param=4, seed=11)
        assert err < 1e-4, f"{kind.value}: max relative error {err:.3e}"


# The four families of acceptance criterion 4, at its sizes.
CRITERION_4_FAMILIES = [
    (ModelKind.MLP, MLPConfig(INPUT_DIM, hidden_dim=6, n_layers=2)),
    (ModelKind.LSTM, LSTMConfig(INPUT_DIM, hidden_dim=4, n_layers=2)),
    (ModelKind.TRANSFORMER, tiny_transformer_config(max_positions=64)),
    (
        ModelKind.ENCODER,
        tiny_transformer_config(causal=False, positional="learned", max_positions=64),
    ),
]


class TestGradCheckPrecision:
    @pytest.mark.parametrize(
        "kind,config", CRITERION_4_FAMILIES, ids=["mlp", "lstm", "transformer", "encoder"]
    )
    def test_runs_in_float64_and_gives_the_float32_parameters_back(self, kind, config):
        model = make_model(kind, config, seed=3)
        before = model.flat.copy()
        rows = rng(7).normal(size=(4, INPUT_DIM))
        losses = []

        def loss():
            probs, _ = model.forward(rows)
            losses.append(cross_entropy_mean(probs, np.array([1, 0, 2, 1]), np.arange(4) > 0))
            return losses[-1]

        assert grad_check(loss, model.params, max_entries_per_param=4, seed=11) < 1e-4
        assert {loss.data.dtype for loss in losses} == {np.dtype(np.float64)}
        assert model.flat.dtype == nk.FLOAT and model.flat.tobytes() == before.tobytes()
        _assert_views_of_flat(model)
        assert all(p.grad is None for p in model.params.values())


FAMILIES = [
    (ModelKind.MLP, MLPConfig(INPUT_DIM, hidden_dim=6, n_layers=2)),
    (ModelKind.LSTM, LSTMConfig(INPUT_DIM, hidden_dim=4, n_layers=2)),
    (ModelKind.TRANSFORMER, tiny_transformer_config(n_blocks=2)),
    (
        ModelKind.ENCODER,
        tiny_transformer_config(causal=False, positional="learned", max_positions=16),
    ),
]
FAMILY_IDS = ["mlp", "lstm", "transformer", "encoder"]


def _reference_forward(model, rows):
    """The per-session MLP/LSTM forward as a single-session graph: one row at
    a time through the LSTM, heads on the (L, d) result, in the model's dtype."""
    p = model.params
    if model.kind is ModelKind.LSTM:
        return _unfused_lstm_forward(model, rows, [len(rows)]).data
    x = nk.Tensor(rows.astype(model.flat.dtype))
    for i in range(model.config.n_layers):
        x = nk.relu(nk.add(nk.matmul(x, p[f"layer{i}/w"]), p[f"layer{i}/b"]))
    return nk.softmax_rows(nk.add(nk.matmul(x, p["head/w"]), p["head/b"])).data


def _unfused_lstm_forward(model, rows, lengths):
    """The packed LSTM forward as one graph node per elementwise op: per step,
    the live rows' input product, gate slices through sigmoid and tanh, and
    state rows kept by take_rows. Inputs and states are in the model's dtype."""
    p = model.params
    h_dim = model.config.hidden_dim
    lens = np.asarray(lengths)
    order, positions, _ = models._segments(lens)
    sorted_rows = rows[order].astype(model.flat.dtype)
    zeros = nk.Tensor(np.zeros((lens.size, h_dim), model.flat.dtype))
    h_state = [zeros] * model.config.n_layers
    c_state = [zeros] * model.config.n_layers
    outputs = []
    for t in range(lens.max()):
        x = nk.Tensor(sorted_rows[positions == t])
        if x.shape[0] < h_state[0].shape[0]:
            keep = np.arange(x.shape[0])
            h_state = [nk.take_rows(h, keep) for h in h_state]
            c_state = [nk.take_rows(c, keep) for c in c_state]
        for layer in range(model.config.n_layers):
            wx, wh, b = (p[f"l{layer}/{name}"] for name in ("wx", "wh", "b"))
            gates = nk.add(nk.add(nk.matmul(x, wx), nk.matmul(h_state[layer], wh)), b)
            gi, gf, gc, go = (nk.slice_cols(gates, j * h_dim, (j + 1) * h_dim) for j in range(4))
            c_state[layer] = nk.add(
                nk.mul(nk.sigmoid(gf), c_state[layer]), nk.mul(nk.sigmoid(gi), nk.tanh(gc))
            )
            x = h_state[layer] = nk.mul(nk.sigmoid(go), nk.tanh(c_state[layer]))
        outputs.append(x)
    hidden = nk.relu(nk.add(nk.matmul(nk.concat_rows(outputs), p["head/w1"]), p["head/b1"]))
    probs = nk.softmax_rows(nk.add(nk.matmul(hidden, p["head/w2"]), p["head/b2"]))
    step_major = order[np.argsort(positions, kind="stable")]
    return nk.take_rows(probs, np.argsort(step_major))


# Unsorted session lengths for packed forwards, with single-row sessions and
# repeated lengths.
PACKED_LENGTHS = (3, 1, 7, 3, 12, 1, 5, 7, 2)


class TestBatchedForward:
    @pytest.mark.parametrize("kind,config", FAMILIES, ids=FAMILY_IDS)
    def test_stacked_rows_match_single_session_forward(self, kind, config):
        model = make_model(kind, config, seed=3)
        gen = rng(40)
        for lengths in (PACKED_LENGTHS, (4,), (1, 1), (16, 2, 9, 16, 1)):
            sessions = [gen.normal(size=(n, INPUT_DIM)) for n in lengths]
            probs, _ = model.forward(np.concatenate(sessions), lengths)
            assert probs.shape == (sum(lengths), 3)
            start = 0
            for rows in sessions:
                single = model.forward(rows)[0].data
                packed = probs.data[start : start + len(rows)]
                assert packed.tobytes() == single.tobytes(), (lengths, start)
                start += len(rows)

    @pytest.mark.parametrize("kind,config", FAMILIES[:2], ids=FAMILY_IDS[:2])
    def test_mlp_and_lstm_match_the_single_session_graph(self, kind, config):
        model = make_model(kind, config, seed=8)
        gen = rng(41)
        for length in (1, 2, 7, 13):
            rows = gen.normal(size=(length, INPUT_DIM))
            expected = _reference_forward(model, rows)
            assert model.forward(rows)[0].data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind,config", FAMILIES, ids=FAMILY_IDS)
    def test_backward_through_a_stack_matches_finite_differences(self, kind, config):
        model = make_model(kind, config, seed=3)
        lengths = (3, 1, 5, 3)
        rows = rng(42).normal(size=(sum(lengths), INPUT_DIM))
        labels = rng(43).integers(0, 3, size=sum(lengths))
        mask = np.ones(sum(lengths), dtype=bool)
        mask[np.cumsum(lengths) - lengths] = False

        def loss():
            probs, _ = model.forward(rows, lengths)
            return cross_entropy_mean(probs, labels, mask)

        # the second LSTM layer has gradient entries near 1e-8, where the
        # round-off of a 1e-5 central difference is held to grad_check's floor
        err = grad_check(loss, model.params, max_entries_per_param=4, seed=11)
        assert err < 1e-4, f"{kind.value}: max relative error {err:.3e}"

    @pytest.mark.parametrize("kind,config", FAMILIES, ids=FAMILY_IDS)
    def test_minibatch_gradient_is_the_share_weighted_session_sum(self, kind, config):
        # on grad_check's float64 copies of the parameters, where the two
        # summation orders agree to 1e-12
        model = make_model(kind, config, seed=5)
        gen = rng(44)
        lengths = (4, 6, 1, 4, 2, 6, 4)
        matrices = [gen.normal(size=(n, INPUT_DIM)) for n in lengths]
        labels = [gen.integers(0, 3, size=n) for n in lengths]
        total = sum(n - 1 for n in lengths)

        with float64_data(model.params):
            loss, n_scored = training._batch_loss(model, matrices, labels, range(len(lengths)))
            assert n_scored == total
            loss.backward()
            packed = {name: p.grad.copy() for name, p in model.params.items()}

            model.zero_grads()
            for rows, labs in zip(matrices, labels):
                if len(labs) < 2:
                    continue
                probs, _ = model.forward(rows)
                mask = np.arange(len(labs)) != 0
                nk.scale(cross_entropy_mean(probs, labs, mask), (len(labs) - 1) / total).backward()
            grads = {name: p.grad for name, p in model.params.items()}
        assert all(g.dtype == np.float64 for g in grads.values())
        for name, grad in grads.items():
            scale = max(np.abs(grad).max(), 1e-300)
            assert np.abs(packed[name] - grad).max() / scale < 1e-12, name

    @pytest.mark.parametrize("kind,config", FAMILIES, ids=FAMILY_IDS)
    @pytest.mark.parametrize("lengths", [(2, 2), (2, 3), (4, 0, 2), ()], ids=str)
    def test_lengths_must_be_positive_and_sum_to_the_rows(self, kind, config, lengths):
        model = make_model(kind, config, seed=3)
        with pytest.raises(ConstraintViolation, match="session lengths"):
            model.forward(np.zeros((6, INPUT_DIM)), lengths)

    def test_packed_capture_matches_single_session_capture(self):
        model = make_model(*FAMILIES[2], seed=3)
        gen = rng(46)
        sessions = [gen.normal(size=(n, INPUT_DIM)) for n in PACKED_LENGTHS]
        rows = np.concatenate(sessions)
        probs, captured = model.forward(rows, PACKED_LENGTHS, capture_attention=True)
        assert probs.data.tobytes() == model.forward(rows, PACKED_LENGTHS)[0].data.tobytes()
        assert len(captured) == len(sessions)
        for session, weights in zip(sessions, captured):
            _, [single] = model.forward(session, capture_attention=True)
            assert weights.shape == (2, 2, len(session), len(session))
            assert weights.tobytes() == single.tobytes()


class TestFusedLSTM:
    """The fused cell and the hoisted input product against the unfused graph."""

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_forward_matches_the_unfused_graph(self, n_layers):
        model = make_model(ModelKind.LSTM, LSTMConfig(INPUT_DIM, 6, n_layers), seed=9)
        gen = rng(47)
        # 70 packed rows: the input product spans two matmul tiles
        for lengths in (PACKED_LENGTHS, (1,), (5, 5), (20, 1, 20, 3, 1, 9, 16)):
            rows = gen.normal(size=(sum(lengths), INPUT_DIM))
            expected = _unfused_lstm_forward(model, rows, lengths).data
            assert model.forward(rows, lengths)[0].data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_gradients_match_the_unfused_graph(self, n_layers):
        # on grad_check's float64 copies of the parameters, where the two
        # graphs' summation orders agree to 1e-12
        model = make_model(ModelKind.LSTM, LSTMConfig(INPUT_DIM, 6, n_layers), seed=10)
        gen = rng(48)
        rows = gen.normal(size=(sum(PACKED_LENGTHS), INPUT_DIM))
        labels = gen.integers(0, 3, size=len(rows))
        mask = np.ones(len(rows), dtype=bool)
        mask[np.cumsum(PACKED_LENGTHS) - PACKED_LENGTHS] = False
        grads = []
        with float64_data(model.params):
            for forward in (
                lambda: model.forward(rows, PACKED_LENGTHS)[0],
                lambda: _unfused_lstm_forward(model, rows, PACKED_LENGTHS),
            ):
                model.zero_grads()
                cross_entropy_mean(forward(), labels, mask).backward()
                grads.append({name: p.grad.copy() for name, p in model.params.items()})
        fused, unfused = grads
        assert fused["head/w1"].dtype == np.float64
        for name in unfused:
            scale = np.abs(unfused[name]).max()
            assert scale > 0.0, name
            assert np.abs(fused[name] - unfused[name]).max() / scale < 1e-12, name

    def test_a_step_builds_six_nodes(self, monkeypatch):
        model = make_model(ModelKind.LSTM, LSTMConfig(INPUT_DIM, 4, 1), seed=3)
        built = []
        result = nk.autodiff._result

        def counting_result(*args):
            built.append(1)
            return result(*args)

        monkeypatch.setattr(nk.autodiff, "_result", counting_result)
        model.forward(rng(49).normal(size=(8, INPUT_DIM)), (4, 4))
        # input product, 4 steps of (slice, state product, 2 adds, c, h),
        # concat, the head (2 dense layers, relu, softmax) and the reorder
        assert len(built) == 1 + 4 * 6 + 1 + 6 + 1


def _split_heads(x, n_batch, n_heads):
    """(B·L, H·hd) rows -> C-contiguous (B·H, L, hd) per-head stacks, one node."""
    rows, width = x.data.shape
    shape = (n_batch, rows // n_batch, n_heads, width // n_heads)

    def backward(g):
        nk.autodiff._accum(x, g.reshape(n_batch, n_heads, shape[1], shape[3])
                           .transpose(0, 2, 1, 3).reshape(rows, width))

    heads = x.data.reshape(shape).transpose(0, 2, 1, 3).reshape(-1, shape[1], shape[3])
    return nk.autodiff._result(np.ascontiguousarray(heads), (x,), backward)


def _merge_heads(x, n_batch):
    """(B·H, L, hd) per-head stacks -> (B·L, H·hd) rows, one node."""
    stacks, length, hd = x.data.shape
    shape = (n_batch, stacks // n_batch, length, hd)

    def backward(g):
        nk.autodiff._accum(x, g.reshape(n_batch, length, shape[1], hd)
                           .transpose(0, 2, 1, 3).reshape(stacks, length, hd))

    rows = x.data.reshape(shape).transpose(0, 2, 1, 3).reshape(n_batch * length, -1)
    return nk.autodiff._result(np.ascontiguousarray(rows), (x,), backward)


def _einsum(spec, a, b):
    """Two-operand non-optimized np.einsum as one node; each gradient is again one einsum."""
    inputs, out = spec.split("->")
    sa, sb = inputs.split(",")

    def backward(g):
        nk.autodiff._accum(a, np.einsum(f"{out},{sb}->{sa}", g, b.data))
        nk.autodiff._accum(b, np.einsum(f"{sa},{out}->{sb}", a.data, g))

    return nk.autodiff._result(np.einsum(spec, a.data, b.data), (a, b), backward)


def _unfused_attention(qkv, n_batch, n_heads, causal):
    """Attention as eleven graph nodes: three column slices, three head splits,
    the scores einsum, its scale, the softmax, the weighted-sum einsum and the
    head merge. Returns the merged rows and the weights."""
    width = qkv.shape[1] // 3
    q, k, v = (
        _split_heads(nk.slice_cols(qkv, j * width, (j + 1) * width), n_batch, n_heads)
        for j in range(3)
    )
    scores = nk.scale(_einsum("bid,bjd->bij", q, k), 1.0 / np.sqrt(width // n_heads))
    alpha = (nk.causal_softmax if causal else nk.softmax_rows)(scores)
    return _merge_heads(_einsum("bij,bjd->bid", alpha, v), n_batch), alpha.data


ATTENTION_SHAPES = [
    (causal, n_batch, n_heads)
    for causal in (True, False)
    for n_batch in (1, 3)
    for n_heads in (1, 2)
]
ATTENTION_IDS = [
    f"{'causal' if c else 'bidirectional'}-b{b}-h{h}" for c, b, h in ATTENTION_SHAPES
]


def _attention_loss(attend, qkv, n_batch, n_heads, causal):
    """Cross-entropy of a fixed 3-way read-out of every attention output column."""
    out = attend(qkv, n_batch, n_heads, causal)[0]
    gen = rng(53)
    logits = nk.matmul(out, nk.Tensor(gen.normal(size=(out.shape[1], 3))))
    labels = gen.integers(0, 3, size=len(out.data))
    return cross_entropy_mean(nk.softmax_rows(logits), labels, np.ones(len(labels), bool))


class TestFusedAttention:
    """nk.attention against the unfused eleven-node graph."""

    @pytest.mark.parametrize("causal,n_batch,n_heads", ATTENTION_SHAPES, ids=ATTENTION_IDS)
    def test_forward_matches_the_unfused_graph(self, causal, n_batch, n_heads):
        gen = rng(50)
        for length in (1, 7, 12):
            qkv = nk.Tensor(gen.normal(size=(n_batch * length, 3 * n_heads * 4)) * 2.0)
            out, alpha = nk.attention(qkv, n_batch, n_heads, causal)
            ref_out, ref_alpha = _unfused_attention(qkv, n_batch, n_heads, causal)
            assert alpha.shape == (n_batch * n_heads, length, length)
            assert out.data.tobytes() == ref_out.data.tobytes()
            assert alpha.tobytes() == ref_alpha.tobytes()

    @pytest.mark.parametrize("n_batch,n_heads", [(1, 1), (3, 2)])
    @pytest.mark.parametrize("n_new", [1, 2])
    def test_decode_step_matches_the_full_rows(self, n_batch, n_heads, n_new):
        width, length = n_heads * 4, 9
        full = rng(51).normal(size=(n_batch, length, 3 * width)) * 2.0
        ref_out, ref_alpha = _unfused_attention(
            nk.Tensor(full.reshape(-1, 3 * width)), n_batch, n_heads, True
        )
        n_past = length - n_new
        past = full[:, :n_past, width:]
        new_rows = nk.Tensor(full[:, n_past:].reshape(-1, 3 * width))
        out, alpha = nk.attention(new_rows, n_batch, n_heads, True, past)
        expected = ref_out.data.reshape(n_batch, length, width)[:, n_past:]
        assert out.data.tobytes() == expected.reshape(-1, width).tobytes()
        assert alpha.tobytes() == ref_alpha[:, n_past:].tobytes()

    @pytest.mark.parametrize("causal,n_batch,n_heads", ATTENTION_SHAPES, ids=ATTENTION_IDS)
    def test_gradients_match_the_unfused_graph(self, causal, n_batch, n_heads):
        qkv = nk.Tensor(
            np.array(rng(52).normal(size=(n_batch * 6, 3 * n_heads * 4))), requires_grad=True
        )
        grads = []
        for attend in (nk.attention, _unfused_attention):
            qkv.zero_grad()
            _attention_loss(attend, qkv, n_batch, n_heads, causal).backward()
            grads.append(qkv.grad.copy())
        assert np.abs(grads[1]).max() > 0.0
        assert grads[0].tobytes() == grads[1].tobytes()

    @pytest.mark.parametrize("causal,n_past", [(True, 0), (False, 0), (True, 3)])
    def test_gradients_match_finite_differences(self, causal, n_past):
        full = rng(54).normal(size=(2, 5 + n_past, 3 * 2 * 3))
        qkv = nk.Tensor(np.array(full[:, n_past:].reshape(-1, 18)), requires_grad=True)
        attend = functools.partial(nk.attention, past=full[:, :n_past, 6:] if n_past else None)
        err = grad_check(lambda: _attention_loss(attend, qkv, 2, 2, causal), {"qkv": qkv},
                         max_entries_per_param=60)
        assert err < 1e-6, f"max relative gradient error {err:.3e}"

    @pytest.mark.parametrize(
        "causal,nodes", [(True, 52), (False, 53)], ids=["transformer", "encoder"]
    )
    def test_a_forward_builds_one_node_per_attention_block(self, monkeypatch, causal, nodes):
        kind = ModelKind.TRANSFORMER if causal else ModelKind.ENCODER
        positional = "fixed" if causal else "learned"
        config = tiny_transformer_config(
            n_blocks=2, causal=causal, positional=positional, max_positions=16
        )
        model = make_model(kind, config, seed=3)
        built = []
        result = nk.autodiff._result

        def counting_result(*args):
            built.append(1)
            return result(*args)

        monkeypatch.setattr(nk.autodiff, "_result", counting_result)
        model.forward(rng(56).normal(size=(40, INPUT_DIM)), (13, 13, 14))
        # the embedding (3, and the encoder's position lookup); per block, 2
        # norms (6), the qkv product (1), a row gather and one
        # attention node for each of the 2 length blocks and their concat (5),
        # 3 dense layers (6), relu and 2 residual adds; the head (6) and the
        # reorder
        assert len(built) == nodes

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ConstraintViolation, match="attention"):
            nk.attention(nk.Tensor(np.zeros((4, 10))), 1, 2, True)
        with pytest.raises(ConstraintViolation, match=r"got \(2, 12\) and \(2, 3, 4\)"):
            nk.attention(nk.Tensor(np.zeros((2, 12))), 2, 2, True, np.zeros((2, 3, 4)))


# Decoding configurations: positions, blocks and heads of the transformer,
# layers of the LSTM.
DECODE_FAMILIES = [
    (ModelKind.TRANSFORMER, tiny_transformer_config(
        n_blocks=blocks, n_heads=heads, head_dim=8 // heads, positional=positional,
        max_positions=16,
    ))
    for positional in ("learned", "fixed")
    for blocks in (1, 2, 3)
    for heads in (1, 2)
] + [
    (ModelKind.LSTM, LSTMConfig(INPUT_DIM, hidden_dim=6, n_layers=layers))
    for layers in (1, 2)
]
DECODE_IDS = [
    f"transformer-{c.positional}-b{c.n_blocks}-h{c.n_heads}" for _, c in DECODE_FAMILIES[:-2]
] + ["lstm-l1", "lstm-l2"]


def _state_bytes(state) -> bytes:
    """A prefix state's arrays as bytes, in order."""
    if isinstance(state, np.ndarray):
        return state.tobytes()
    return b"|".join(map(_state_bytes, state))


class TestDecode:
    """A forward from cached prefix states extends each session's state by its
    rows, which have the bits of the same rows of a teacher-forced forward."""

    @pytest.mark.parametrize("kind,config", DECODE_FAMILIES, ids=DECODE_IDS)
    def test_one_row_steps_match_the_teacher_forced_forward(self, kind, config):
        model = make_model(kind, config, seed=11)
        gen = rng(47)
        lengths = list(range(1, 17))
        sessions = [gen.normal(size=(n, INPUT_DIM)) for n in lengths]
        with nk.no_grad():
            forwards = [model.forward(rows)[0].data for rows in sessions]
            states = [model.initial_state()] * len(sessions)
            for t in range(max(lengths)):
                live = [b for b, n in enumerate(lengths) if n > t]  # lockstep, longest last
                probs, extended = model.forward(
                    np.stack([sessions[b][t] for b in live]), [1] * len(live),
                    [states[b] for b in live],
                )
                for b, row, state in zip(live, probs.data, extended):
                    assert row.tobytes() == forwards[b][t].tobytes(), (lengths[b], t)
                    states[b] = state

    @pytest.mark.parametrize("kind,config", DECODE_FAMILIES, ids=DECODE_IDS)
    def test_chunks_from_mixed_pasts_match_the_teacher_forced_forward(self, kind, config):
        model = make_model(kind, config, seed=12)
        gen = rng(49)
        lengths = [16, 1, 5, 9, 2, 16, 7, 3, 12, 9]
        sessions = [gen.normal(size=(n, INPUT_DIM)) for n in lengths]
        with nk.no_grad():
            forwards = [model.forward(rows)[0].data for rows in sessions]
            whole = model.forward(np.concatenate(sessions), lengths,
                                  [model.initial_state()] * len(sessions))[1]
            states = [model.initial_state()] * len(sessions)
            done = [0] * len(sessions)
            while live := [b for b, n in enumerate(lengths) if done[b] < n]:
                # each live session runs on by 1-3 rows from its own past, in one call
                chunks = [min(lengths[b] - done[b], int(gen.integers(1, 4))) for b in live]
                spans = [slice(done[b], done[b] + n) for b, n in zip(live, chunks)]
                rows = np.concatenate([sessions[b][span] for b, span in zip(live, spans)])
                probs, extended = model.forward(rows, chunks, [states[b] for b in live])
                parts = np.split(probs.data, np.cumsum(chunks)[:-1])
                for b, span, part, state in zip(live, spans, parts, extended):
                    assert part.tobytes() == forwards[b][span].tobytes(), (b, span)
                    states[b], done[b] = state, span.stop
        assert list(map(_state_bytes, states)) == list(map(_state_bytes, whole))

    def test_mlp_states_stay_empty(self):
        model = make_model(*FAMILIES[0], seed=11)
        rows = rng(48).normal(size=(4, INPUT_DIM))
        probs, states = model.forward(rows, [1] * 4, [model.initial_state()] * 4)
        assert probs.data.tobytes() == model.forward(rows)[0].data.tobytes()
        assert states == [()] * 4

    def test_encoder_has_no_prefix_state(self):
        model = make_model(*FAMILIES[3], seed=11)
        with pytest.raises(ConstraintViolation, match="prefix states run the causal transformer"):
            model.forward(np.zeros((1, INPUT_DIM)), None, [model.initial_state()])

    def test_capture_runs_without_states(self):
        model = make_model(*FAMILIES[2], seed=11)
        with pytest.raises(ConstraintViolation, match="without attention capture"):
            model.forward(np.zeros((1, INPUT_DIM)), None, [model.initial_state()],
                          capture_attention=True)

    @pytest.mark.parametrize("kind,config", FAMILIES[:3], ids=FAMILY_IDS[:3])
    def test_one_state_per_session(self, kind, config):
        model = make_model(kind, config, seed=11)
        with pytest.raises(ConstraintViolation, match="1 prefix states for 2 sessions"):
            model.forward(np.zeros((2, INPUT_DIM)), [1, 1], [model.initial_state()])


class TestCausality:
    def test_causal_prefix_rows_bit_identical(self):
        model = make_model(ModelKind.TRANSFORMER, tiny_transformer_config(), seed=2)
        rows = rng(8).normal(size=(6, INPUT_DIM))
        full = model.forward(rows)[0].data
        for k in range(1, 7):
            prefix = model.forward(rows[:k])[0].data
            assert full[:k].tobytes() == prefix.tobytes()

    def test_lstm_is_causal_too(self):
        model = make_model(ModelKind.LSTM, LSTMConfig(INPUT_DIM, hidden_dim=4, n_layers=1), seed=2)
        rows = rng(9).normal(size=(5, INPUT_DIM))
        full = model.forward(rows)[0].data
        prefix = model.forward(rows[:3])[0].data
        assert full[:3].tobytes() == prefix.tobytes()

    def test_encoder_full_pass_sees_the_future(self):
        model = make_model(
            ModelKind.ENCODER,
            tiny_transformer_config(causal=False, positional="learned", max_positions=8),
            seed=2,
        )
        rows = rng(10).normal(size=(5, INPUT_DIM))
        full = model.forward(rows)[0].data
        prefix = model.forward(rows[:3])[0].data
        assert not np.array_equal(full[:3], prefix)


class TestTraining:
    def make_setup(self, model_kind=ModelKind.MLP, n_each=6, seed=0):
        playlist = make_playlist(3)
        sessions = pattern_sessions(n_each)
        pipeline = fitted_pipeline(playlist, sessions)
        if model_kind is ModelKind.MLP:
            config = MLPConfig(pipeline.config.input_dim, hidden_dim=8, n_layers=1)
        else:
            config = LSTMConfig(pipeline.config.input_dim, hidden_dim=4, n_layers=1)
        model = make_model(model_kind, config, seed=seed)
        matrices, labels = build_training_arrays(pipeline, sessions)
        return model, matrices, labels

    def test_loss_decreases_on_learnable_pattern(self):
        model, matrices, labels = self.make_setup()
        result = train_model(
            model,
            matrices,
            labels,
            TrainConfig(epochs=8, batch_size=4, learning_rate=0.05, validation_fraction=0.0),
        )
        assert result.train_losses[-1] < result.train_losses[0]
        assert result.best_epoch == 8
        assert not result.stopped_early
        assert result.val_losses == ()

    def test_training_is_deterministic(self):
        runs = []
        for _ in range(2):
            model, matrices, labels = self.make_setup(seed=4)
            result = train_model(
                model,
                matrices,
                labels,
                TrainConfig(epochs=3, batch_size=4, learning_rate=0.01, seed=7),
            )
            runs.append((result, _param_arrays(model)))
        (res_a, params_a), (res_b, params_b) = runs
        assert res_a.train_losses == res_b.train_losses
        assert res_a.val_losses == res_b.val_losses
        for name in params_a:
            assert params_a[name].tobytes() == params_b[name].tobytes()

    def test_early_stop_restores_best_epoch_parameters(self):
        # run A trains long with patience; run B stops exactly at A's best
        # epoch; identical rng streams make their parameters agree bitwise
        model_a, matrices, labels = self.make_setup(n_each=8, seed=5)
        config = TrainConfig(
            epochs=20,
            batch_size=4,
            learning_rate=0.2,  # too large a step to settle: val loss turns up
            seed=13,
            validation_fraction=0.25,
            patience=2,
        )
        result_a = train_model(model_a, matrices, labels, config)
        assert result_a.stopped_early
        assert result_a.best_epoch < len(result_a.train_losses)

        model_b, matrices_b, labels_b = self.make_setup(n_each=8, seed=5)
        config_b = TrainConfig(
            epochs=result_a.best_epoch,
            batch_size=4,
            learning_rate=0.2,
            seed=13,
            validation_fraction=0.25,
            patience=2,
        )
        train_model(model_b, matrices_b, labels_b, config_b)
        for name, arr in _param_arrays(model_a).items():
            assert arr.tobytes() == _param_arrays(model_b)[name].tobytes()

    def test_each_epoch_logs_one_progress_line(self, caplog):
        model, matrices, labels = self.make_setup()  # 12 sessions, all 3 events long
        config = TrainConfig(epochs=2, batch_size=4, validation_fraction=0.25)
        with caplog.at_level(logging.INFO, logger="seqbundle.seqmodels.training"):
            train_model(model, matrices, labels, config)
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 2
        for epoch, line in enumerate(lines, start=1):
            assert re.fullmatch(
                rf"epoch {epoch}/2: train loss \d+\.\d{{6}}, val loss \d+\.\d{{6}}, "
                r"\d+\.\d\d s, \d+\.\d sessions/s",
                line,
            ), line

    def test_each_minibatch_calls_forward_once(self, monkeypatch):
        model, matrices, labels = self.make_setup()
        matrices = [m[:n] for m, n in zip(matrices, [2, 3] * 6)]  # mixed lengths
        labels = [lab[:n] for lab, n in zip(labels, [2, 3] * 6)]
        calls = []
        forward = model.forward

        def counting_forward(rows, lengths=None, **options):
            calls.append(list(lengths))
            return forward(rows, lengths, **options)

        monkeypatch.setattr(model, "forward", counting_forward)
        config = TrainConfig(epochs=2, batch_size=4, validation_fraction=0.25)
        train_model(model, matrices, labels, config)
        # per epoch: 9 training sessions in batches of 4, 3 validation sessions in one
        assert [len(c) for c in calls] == [4, 4, 1, 3] * 2

    def test_a_nan_weight_stops_training_in_the_first_epoch(self):
        # relu passes the NaN on, so the loss of the first batch catches it
        model, matrices, labels = self.make_setup()
        model.params["layer0/b"].data[0] = np.nan
        with pytest.raises(NumericError, match="training diverged at epoch 1"):
            train_model(model, matrices, labels, TrainConfig(epochs=2, batch_size=4))

    def test_single_event_sessions_are_dropped(self):
        playlist = make_playlist(3)
        sessions = [make_session(["play"], sid="one")] + pattern_sessions(2)
        pipeline = fitted_pipeline(playlist, sessions)
        matrices, labels = build_training_arrays(pipeline, sessions)
        assert len(matrices) == 4

    def test_empty_training_set_rejected(self):
        model, matrices, labels = self.make_setup()
        with pytest.raises(ConstraintViolation):
            train_model(model, [], [], TrainConfig())
        with pytest.raises(ConstraintViolation, match="at least 2 events"):
            train_model(model, [matrices[0][:1]] + matrices, [labels[0][:1]] + labels,
                        TrainConfig())


# Families trained against the per-name Adam loop: the transformer with both
# position kinds and the encoder.
TRAIN_FAMILIES = [
    (ModelKind.MLP, MLPConfig(INPUT_DIM, hidden_dim=6, n_layers=2)),
    (ModelKind.LSTM, LSTMConfig(INPUT_DIM, hidden_dim=4, n_layers=2)),
    (ModelKind.TRANSFORMER, tiny_transformer_config(n_blocks=2)),
    (ModelKind.TRANSFORMER, tiny_transformer_config(positional="learned", max_positions=8)),
    (
        ModelKind.ENCODER,
        tiny_transformer_config(causal=False, positional="learned", max_positions=8),
    ),
]
TRAIN_IDS = ["mlp", "lstm", "transformer-fixed", "transformer-learned", "encoder"]


# Kingma & Ba's (2015) Adam defaults, stated here so the reference below does
# not read them from the optimizer it checks.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def _per_name_adam_step(params, grads, state):
    """One Adam update per named array into new arrays, as the optimizer ran
    before parameters moved into one flat vector, in ``nk.adam_step``'s order."""
    state.step_count += 1
    t = state.step_count
    root_bias2 = math.sqrt(1.0 - BETA2**t)
    lr_t = state.learning_rate * root_bias2 / (1.0 - BETA1**t)
    eps_t = EPS * root_bias2
    out = {}
    for name in sorted(params):
        p, g = params[name], grads[name]
        m = BETA1 * state.m.get(name, np.zeros_like(p)) + (1.0 - BETA1) * g
        v = BETA2 * state.v.get(name, np.zeros_like(p)) + (1.0 - BETA2) * g * g
        state.m[name], state.v[name] = m, v
        out[name] = p - lr_t * (m / (np.sqrt(v) + eps_t))
    return out


def _per_name_train(model, matrices, labels, config):
    """train_model's loop with a gradient dict (zeros for parameters without a
    gradient), the per-name Adam, new arrays assigned to each parameter, and a
    parameter snapshot of the best epoch. Needs validation and no early stop."""
    gen = np.random.default_rng(config.seed)
    order = gen.permutation(len(matrices))
    n_val = min(len(matrices) - 1, max(1, round(config.validation_fraction * len(matrices))))
    val_idx, train_idx = order[:n_val], order[n_val:]
    state = types.SimpleNamespace(learning_rate=config.learning_rate, step_count=0, m={}, v={})
    train_losses, val_losses = [], []
    best_val, best_arrays = np.inf, None
    for _ in range(config.epochs):
        epoch_order = train_idx[gen.permutation(len(train_idx))]
        total = count = 0
        for start in range(0, len(epoch_order), config.batch_size):
            model.zero_grads()
            batch = epoch_order[start : start + config.batch_size]
            loss, n_scored = training._batch_loss(model, matrices, labels, batch)
            loss.backward()
            total += loss.item() * n_scored
            count += n_scored
            grads = {
                name: (p.grad if p.grad is not None else np.zeros_like(p.data))
                for name, p in model.params.items()
            }
            updated = _per_name_adam_step(
                {name: p.data for name, p in model.params.items()}, grads, state
            )
            for name, tensor in model.params.items():
                tensor.data = updated[name]
        train_losses.append(total / count)
        val_losses.append(training._dataset_loss(
            model, [matrices[i] for i in val_idx], [labels[i] for i in val_idx],
            config.batch_size,
        ))
        if val_losses[-1] < best_val:
            best_val, best_arrays = val_losses[-1], _param_arrays(model)
    for name, tensor in model.params.items():
        tensor.data = best_arrays[name]
    return tuple(train_losses), tuple(val_losses)


def _param_arrays(model):
    """A copy of each of ``model``'s parameters, by name."""
    return {name: p.data.copy() for name, p in model.params.items()}


def _assert_views_of_flat(model):
    """Every parameter is its reshaped slice of ``model.flat``, in sorted-name order."""
    offset = 0
    for name in sorted(model.params):
        data = model.params[name].data
        assert np.shares_memory(data, model.flat), name
        assert data.ctypes.data == model.flat[offset:].ctypes.data, name
        offset += data.size
    assert offset == model.flat.size == model.n_parameters


class TestFlatParameters:
    """One contiguous parameter vector per model, updated in place by training."""

    def training_data(self, seed=51):
        gen = rng(seed)
        lengths = (3, 5, 2, 7, 4, 4, 6, 2, 3, 5, 7, 4, 2, 6)
        matrices = [gen.normal(size=(n, INPUT_DIM)) for n in lengths]
        labels = [gen.integers(0, 3, size=n) for n in lengths]
        return matrices, labels

    @pytest.mark.parametrize("kind,config", TRAIN_FAMILIES, ids=TRAIN_IDS)
    def test_training_matches_the_per_name_adam_loop(self, kind, config):
        matrices, labels = self.training_data()
        train_config = TrainConfig(
            epochs=2, batch_size=4, learning_rate=0.05, seed=17,
            validation_fraction=0.25, patience=5,
        )
        flat_model = make_model(kind, config, seed=4)
        reference = make_model(kind, config, seed=4)
        result = train_model(flat_model, matrices, labels, train_config)
        train_losses, val_losses = _per_name_train(reference, matrices, labels, train_config)
        assert result.train_losses == train_losses
        assert result.val_losses == val_losses
        for name, arr in _param_arrays(reference).items():
            assert flat_model.params[name].data.tobytes() == arr.tobytes(), name
        _assert_views_of_flat(flat_model)

    @pytest.mark.parametrize("kind,config", TRAIN_FAMILIES, ids=TRAIN_IDS)
    def test_parameters_stay_views_after_load_checkpoint(self, kind, config, tmp_path):
        model = make_model(kind, config, seed=4)
        flat = model.flat
        _assert_views_of_flat(model)
        source = make_model(kind, config, seed=5)
        save_checkpoint(tmp_path / "w", source.flat, source.layout)
        load_checkpoint(tmp_path / "w", model.flat, model.layout)
        assert model.flat is flat
        _assert_views_of_flat(model)
        assert model.flat.tobytes() == source.flat.tobytes()

    @pytest.mark.parametrize("kind,config", TRAIN_FAMILIES, ids=TRAIN_IDS)
    def test_a_model_built_for_loading_draws_writes_and_scans_nothing(
        self, kind, config, monkeypatch
    ):
        empty = np.empty

        def nan_empty(*args, **kwargs):  # np.empty's memory may hold anything
            out = empty(*args, **kwargs)
            if out.dtype.kind == "f":
                out.fill(np.nan)
            return out

        monkeypatch.setattr(np.random, "default_rng", None)  # a draw would fail
        monkeypatch.setattr(np, "empty", nan_empty)
        model = make_model(kind, config, seed=None)  # a finiteness scan would raise
        assert np.isnan(model.flat).all()  # nothing was written
        _assert_views_of_flat(model)

    def test_a_loaded_predictor_keeps_views_and_trains(self, tmp_path):
        from seqbundle.artifacts import load_predictor, save_predictor

        playlist = make_playlist(3)
        sessions = pattern_sessions(4)
        pipeline = fitted_pipeline(playlist, sessions)
        config = tiny_transformer_config(input_dim=pipeline.config.input_dim)
        model = make_model(ModelKind.TRANSFORMER, config, seed=6)
        save_predictor(tmp_path / "bundle", NeuralPredictor(model=model, pipeline=pipeline))
        loaded = load_predictor(tmp_path / "bundle", playlist).model
        _assert_views_of_flat(loaded)
        assert loaded.flat.tobytes() == model.flat.tobytes()

        matrices, labels = build_training_arrays(pipeline, sessions)
        flat, before = loaded.flat, loaded.flat.copy()
        train_config = TrainConfig(epochs=1, batch_size=4, validation_fraction=0.0)
        train_model(loaded, matrices, labels, train_config)
        train_model(model, matrices, labels, train_config)
        assert loaded.flat is flat and loaded.flat.tobytes() != before.tobytes()
        assert loaded.flat.tobytes() == model.flat.tobytes()
        _assert_views_of_flat(loaded)

    def test_a_nan_gradient_names_its_parameter(self, monkeypatch):
        model = make_model(*TRAIN_FAMILIES[1], seed=4)
        matrices, labels = self.training_data()
        backward = nk.Tensor.backward

        def poisoned_backward(tensor):
            backward(tensor)
            model.params["l1/wh"].grad[2, 3] = np.nan  # a view of the trainer's vector

        monkeypatch.setattr(nk.Tensor, "backward", poisoned_backward)
        with pytest.raises(
            NumericError,
            match=r"training diverged at epoch 1, batch starting at session 0: "
            r"non-finite gradient for 'l1/wh'$",
        ):
            train_model(model, matrices, labels, TrainConfig(epochs=1, batch_size=4))


class TestNeuralPredictor:
    def build(self, model_kind=ModelKind.MLP, feasibility_mask=False, leak=False):
        playlist = make_playlist(3)
        sessions = pattern_sessions(4)
        pipeline = fitted_pipeline(playlist, sessions, leak=leak)
        config = MLPConfig(pipeline.config.input_dim, hidden_dim=8, n_layers=1)
        model = make_model(model_kind, config, seed=1)
        return NeuralPredictor(
            model=model, pipeline=pipeline, feasibility_mask=feasibility_mask
        )

    def test_predict_session_rows_are_distributions(self):
        predictor = self.build()
        rows = predictor.predict_session(make_session(["play", "replay", "play"]))
        assert rows.shape == (3, 3)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)

    def test_feasibility_mask_zeroes_impossible_replays(self):
        predictor = self.build(feasibility_mask=True)
        session = make_session(["skip", "play", "replay", "play"])
        rows = predictor.predict_session(session)
        # event 2 follows a skip and event 4 follows a capped replay: both
        # rows must carry zero replay probability yet still sum to one
        assert rows[1, 2] == 0.0
        assert rows[3, 2] == 0.0
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)
        unmasked = self.build(feasibility_mask=False).predict_session(session)
        assert unmasked[1, 2] > 0.0

    def test_next_probs_rejects_leak_features(self):
        predictor = self.build(leak=True)
        with pytest.raises(ConstraintViolation, match="leak"):
            predictor.next_probs(make_session(["play"]).events)

    def test_next_probs_returns_one_normalized_row(self):
        row = self.build().next_probs(make_session(["play", "play"]).events)
        assert row.shape == (3,)
        assert row.dtype == np.float64
        assert row.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("outcomes", [["play", "skip"], ["skip", "play", "play"]])
    def test_next_probs_matches_hand_built_query_row(self, outcomes):
        # The query row next_probs feeds the model: previous outcome one-hot,
        # the table's remaining time for the next position (0 past the table),
        # and the duration of the next track (the last one when exhausted).
        playlist = make_playlist(3)
        pipeline = fitted_pipeline(
            playlist,
            [make_session(["play", "play"], sid="a"), make_session(["skip"], sid="b")],
            include_duration=True,
        )
        config = MLPConfig(pipeline.config.input_dim, hidden_dim=8, n_layers=1)
        predictor = NeuralPredictor(
            model=make_model(ModelKind.MLP, config, seed=1), pipeline=pipeline
        )
        events = make_session(outcomes).events
        table = pipeline.remaining_time_table
        remaining = table[len(events)] if len(events) < len(table) else 0.0
        next_pos = min(events[-1].track_position + 1, len(playlist))
        query = np.zeros((1, pipeline.config.input_dim))
        query[0, ("skip", "play", "replay").index(outcomes[-1])] = 1.0
        query[0, 4] = (remaining - pipeline.time_mean) / pipeline.time_std
        query[0, 5] = (
            playlist.track_at(next_pos).duration - pipeline.duration_mean
        ) / pipeline.duration_std
        prefix = make_session(outcomes)
        full = np.concatenate([pipeline.matrix(prefix), query], axis=0)
        expected = predictors._float64_rows(predictor.model.forward(full)[0].data)[-1]
        assert np.array_equal(predictor.next_probs(events), expected)


class TestEncoderPredictionMode:
    def build_predictor(self):
        playlist = make_playlist(3)
        sessions = pattern_sessions(4)
        pipeline = fitted_pipeline(playlist, sessions)
        config = tiny_transformer_config(
            input_dim=pipeline.config.input_dim,
            causal=False,
            positional="learned",
            max_positions=8,
        )
        model = make_model(ModelKind.ENCODER, config, seed=6)
        return NeuralPredictor(model=model, pipeline=pipeline)

    def test_rows_do_not_depend_on_the_future(self):
        predictor = self.build_predictor()
        longer = predictor.predict_session(make_session(["play", "skip", "play"]))
        shorter = predictor.predict_session(make_session(["play", "skip"]))
        assert longer[:2].tobytes() == shorter.tobytes()

    def test_attention_capture_requires_causal_kind(self):
        predictor = self.build_predictor()
        with pytest.raises(ConstraintViolation, match="causal"):
            predictor.attention_for_sessions([make_session(["play", "play"])])


# Valid sessions on a 5-track playlist with repeated and single-event lengths.
MIXED_OUTCOMES = [
    ["play"],
    ["skip", "play", "replay", "play"],
    ["play", "replay", "play", "skip"],
    ["skip"],
    ["play", "play"],
    ["skip", "skip", "play", "replay", "skip", "play"],
    ["play", "skip"],
    ["play", "replay", "skip", "play", "replay", "play", "skip"],
    ["skip", "play", "play", "skip"],
]


class TestBatchedInference:
    def build(self, kind, config, feasibility_mask=False):
        playlist = make_playlist(5)
        sessions = [make_session(o, sid=f"m{i}") for i, o in enumerate(MIXED_OUTCOMES)]
        predictor = NeuralPredictor(
            model=make_model(kind, config, seed=4),
            pipeline=fitted_pipeline(playlist, sessions),
            feasibility_mask=feasibility_mask,
        )
        return predictor, sessions

    @pytest.mark.parametrize("feasibility_mask", [False, True], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("kind,config", FAMILIES, ids=FAMILY_IDS)
    def test_predict_sessions_matches_each_session(self, kind, config, feasibility_mask):
        predictor, sessions = self.build(kind, config, feasibility_mask)
        batched = predictor.predict_sessions(sessions)
        assert len(batched) == len(sessions)
        for session, rows in zip(sessions, batched):
            # the last row is the query row of the decision after the last event
            assert rows.shape == (len(session.events) + 1, 3)
            assert rows[:-1].tobytes() == predictor.predict_session(session).tobytes()
            assert rows[-1].tobytes() == predictor.next_probs(session.events).tobytes()

    @pytest.mark.parametrize("kind,config", FAMILIES[1:3], ids=FAMILY_IDS[1:3])
    def test_mask_gives_the_zero_and_divide_bytes(self, kind, config):
        # reference: per scored row where REPLAY is closed, zero it and divide
        # the row by its sum when that is positive; other rows keep their bits
        masked, sessions = self.build(kind, config, feasibility_mask=True)
        plain, _ = self.build(kind, config)
        for session, rows, expected in zip(
            sessions, masked.predict_sessions(sessions), plain.predict_sessions(sessions)
        ):
            steps = walk(session.events, 5, DEFAULT_CAP)
            for j in range(1, len(session.events) + 1):
                if not steps[j][2][2]:
                    expected[j, 2] = 0.0
                    total = expected[j].sum()
                    if total > 0:
                        expected[j] /= total
            assert rows.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind,config", FAMILIES, ids=FAMILY_IDS)
    def test_rows_match_a_graph_forward_per_session(self, kind, config):
        # causal models read one forward of the session's prefix matrix; the
        # encoder reads row j of a forward over rows 1..j alone; the rows
        # leave in float64
        predictor, sessions = self.build(kind, config)
        for session, rows in zip(sessions, predictor.predict_sessions(sessions)):
            matrix = predictor.pipeline.prefix_matrix(session.events)
            if predictor.is_causal:
                expected = predictor.model.forward(matrix)[0].data
            else:
                expected = np.array([
                    predictor.model.forward(matrix[: j + 1])[0].data[-1]
                    for j in range(len(matrix))
                ])
            assert rows.tobytes() == predictors._float64_rows(expected).tobytes()

    @pytest.mark.parametrize("kind,config", FAMILIES, ids=FAMILY_IDS)
    def test_predict_sessions_calls_forward_once(self, kind, config, monkeypatch):
        predictor, sessions = self.build(kind, config)
        calls = []
        forward = predictor.model.forward

        def counting_forward(rows, lengths=None, **options):
            calls.append(list(lengths))
            return forward(rows, lengths, **options)

        monkeypatch.setattr(predictor.model, "forward", counting_forward)
        predictor.predict_sessions(sessions)
        lengths = [len(s.events) + 1 for s in sessions]
        if predictor.is_causal:
            assert calls == [lengths]
        else:  # every distinct prefix once: rows 1..j hold events[:j-1] alone
            seen = dict.fromkeys(s.events[:j] for s in sessions for j in range(len(s) + 1))
            assert calls == [[len(events) + 1 for events in seen]]

    @pytest.mark.parametrize("kind,config", FAMILIES, ids=FAMILY_IDS)
    def test_forwards_hold_at_most_packed_rows(self, kind, config, monkeypatch):
        predictor, sessions = self.build(kind, config)
        whole = predictor.predict_sessions(sessions)
        calls = []
        forward = predictor.model.forward

        def counting_forward(rows, lengths=None, **options):
            calls.append(list(lengths))
            return forward(rows, lengths, **options)

        monkeypatch.setattr(predictor.model, "forward", counting_forward)
        monkeypatch.setattr(predictors, "PACKED_ROWS", 6)
        chunked = predictor.predict_sessions(sessions)
        assert len(calls) > 1
        assert all(sum(lengths[:-1]) < 6 for lengths in calls)  # first rows in one span
        for a, b in zip(whole, chunked):
            assert a.tobytes() == b.tobytes()

    def test_attention_for_sessions_is_the_same_across_spans(self, monkeypatch):
        predictor, sessions = self.build(*FAMILIES[2])
        assert predictor.attention_for_sessions([]) == []
        whole = predictor.attention_for_sessions(sessions)
        calls = []
        forward = predictor.model.forward

        def counting_forward(rows, lengths=None, **options):
            calls.append(list(lengths))
            return forward(rows, lengths, **options)

        monkeypatch.setattr(predictor.model, "forward", counting_forward)
        monkeypatch.setattr(predictors, "PACKED_ROWS", 6)
        chunked = predictor.attention_for_sessions(sessions)
        assert len(calls) > 1
        assert len(whole) == len(chunked) == len(sessions)
        for session, a, b in zip(sessions, whole, chunked):
            assert a.shape == (2, 2, len(session), len(session))
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind,config", FAMILIES, ids=FAMILY_IDS)
    def test_decoder_rows_equal_next_probs(self, kind, config):
        predictor, sessions = self.build(kind, config)
        prefixes = [s.events[:n] for s in sessions for n in (4, 1, 2) if len(s) >= n]
        rows = predictor.decoder()(prefixes)
        assert rows.shape == (len(prefixes), 3)
        for events, row in zip(prefixes, rows):
            assert row.tobytes() == predictor.next_probs(events).tobytes()

    def test_decoder_needs_nonempty_prefixes(self):
        predictor, sessions = self.build(*FAMILIES[0])
        with pytest.raises(ConstraintViolation, match="at least one event"):
            predictor.decoder()([sessions[0].events, ()])


class TestPrefixSharing:
    """The encoder's prediction mode packs each distinct prefix once, and a
    causal decoder call is one forward in which each asked prefix runs on from
    its longest kept prefix's state."""

    def build(self, kind, config):
        playlist = make_playlist(5)
        outcomes = MIXED_OUTCOMES + MIXED_OUTCOMES[1:4] + [["play", "replay", "skip"]]
        sessions = [make_session(o, sid=f"r{i}") for i, o in enumerate(outcomes)]
        predictor = NeuralPredictor(
            model=make_model(kind, config, seed=4), pipeline=fitted_pipeline(playlist, sessions)
        )
        return predictor, sessions

    def test_encoder_packs_each_distinct_prefix_once(self, monkeypatch):
        predictor, sessions = self.build(*FAMILIES[3])
        model = predictor.model
        expected = [
            predictors._float64_rows(
                np.array([model.forward(m[: j + 1])[0].data[-1] for j in range(len(m))])
            )
            for m in (predictor.pipeline.prefix_matrix(s.events) for s in sessions)
        ]
        packed = []
        forward = model.forward

        def recording_forward(rows, lengths=None, **options):
            packed.extend(np.split(rows, np.cumsum(lengths)[:-1]))
            return forward(rows, lengths, **options)

        monkeypatch.setattr(model, "forward", recording_forward)
        rows = predictor.predict_sessions(sessions)
        for got, want in zip(rows, expected, strict=True):
            assert got.tobytes() == want.tobytes()
        distinct = {s.events[:j] for s in sessions for j in range(len(s) + 1)}
        assert len({m.tobytes() for m in packed}) == len(packed) == len(distinct)
        assert sum(map(len, packed)) < sum((len(s) + 1) * (len(s) + 2) // 2 for s in sessions)

    @pytest.mark.parametrize("kind,config", FAMILIES[:3], ids=FAMILY_IDS[:3])
    def test_a_decoder_extends_its_frontier_by_one_row(self, kind, config, monkeypatch):
        predictor, sessions = self.build(kind, config)
        decoded = []
        forward = predictor.model.forward

        def counting_forward(rows, lengths=None, states=None):
            decoded.append(len(rows))
            return forward(rows, lengths, states)

        monkeypatch.setattr(predictor.model, "forward", counting_forward)
        decoder = predictor.decoder()
        events = sessions[7].events  # seven events
        first = decoder([events[:2], events[:2], sessions[4].events[:2]])
        assert decoded == [6]  # the three rows of each of two distinct prefixes
        for n in range(3, len(events) + 1):
            decoded.clear()
            row = decoder([events[:n]])[0]
            assert decoded == [1]
            assert row.tobytes() == predictor.next_probs(events[:n]).tobytes()
        assert first[0].tobytes() == first[1].tobytes()
        decoded.clear()
        decoder([sessions[4].events[:2]])  # a dropped branch runs all of its rows
        assert decoded == [3]

    @pytest.mark.parametrize("kind,config", FAMILIES[1:3], ids=FAMILY_IDS[1:3])
    def test_a_fresh_query_runs_every_row_in_one_forward(self, kind, config, monkeypatch):
        predictor, sessions = self.build(kind, config)
        prefixes = [sessions[7].events[:n] for n in range(1, 6)]  # of one five-event session
        model, pipeline = predictor.model, predictor.pipeline
        expected = [
            predictors._float64_rows(model.forward(pipeline.prefix_matrix(p))[0].data)[-1]
            for p in prefixes
        ]
        decoded = []
        forward = model.forward

        def counting_forward(rows, lengths=None, states=None):
            decoded.append(len(rows))
            return forward(rows, lengths, states)

        monkeypatch.setattr(model, "forward", counting_forward)
        rows = predictor.decoder()(prefixes)
        assert decoded == [2 + 3 + 4 + 5 + 6]  # each prefix's rows, in one forward
        for row, want in zip(rows, expected, strict=True):
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind,config", FAMILIES[1:3], ids=FAMILY_IDS[1:3])
    def test_prefixes_of_two_lengths_share_one_forward(self, kind, config, monkeypatch):
        predictor, sessions = self.build(kind, config)
        events = sessions[7].events
        decoder = predictor.decoder()
        decoder([events[:1], events[:2]])  # keeps both nodes
        calls = []
        forward = predictor.model.forward

        def recording_forward(rows, lengths=None, states=None):
            calls.append(len(rows))
            return forward(rows, lengths, states)

        monkeypatch.setattr(predictor.model, "forward", recording_forward)
        rows = decoder([events[:2], events[:3]])
        monkeypatch.undo()
        assert calls == [2]  # one row on each kept node, in one forward
        for row, n in zip(rows, (2, 3)):
            assert row.tobytes() == predictor.next_probs(events[:n]).tobytes()

    @pytest.mark.parametrize("kind,config", FAMILIES[:3], ids=FAMILY_IDS[:3])
    def test_each_call_is_one_forward_from_the_longest_kept_prefixes(
        self, kind, config, monkeypatch
    ):
        predictor, _ = self.build(kind, config)
        model, pipeline = predictor.model, predictor.pipeline
        n_tracks = len(pipeline.playlist)
        gen = rng(53)

        def extend(events, n):
            """``events`` and up to ``n`` more feasible events, drawn by ``gen``."""
            for _ in range(n):
                track, count, feasible = walk(events, n_tracks)[-1]
                if not any(feasible):
                    break
                outcome = OUTCOME_ORDER[gen.choice(np.flatnonzero(feasible))]
                position = advance_walk(track, count, outcome)[0]
                events += (Event(track_position=position, outcome=outcome),)
            return events

        calls = []
        forward = model.forward

        def recording_forward(rows, lengths=None, states=None):
            calls.append(list(lengths))
            return forward(rows, lengths, states)

        monkeypatch.setattr(model, "forward", recording_forward)
        decoder, kept, asked = predictor.decoder(), [], []
        multi_row_chunks = 0
        for _ in range(40):
            prefixes = []
            for _ in range(int(gen.integers(1, 6))):
                case = int(gen.integers(5))
                if case == 0 and kept:  # 0-3 events past a kept node
                    base = kept[gen.integers(len(kept))]
                    prefixes.append(extend(base, int(gen.integers(4))))
                elif case == 1 and kept:  # a kept node's own prefix, kept nodes nest
                    base = kept[gen.integers(len(kept))]
                    prefixes.append(base[: gen.integers(1, len(base) + 1)])
                elif case == 2 and (dropped := [p for p in asked if p not in kept]):
                    # on from a dropped branch
                    prefixes.append(extend(dropped[gen.integers(len(dropped))],
                                           int(gen.integers(3))))
                elif case == 3 and prefixes:  # a duplicate within the call
                    prefixes.append(prefixes[gen.integers(len(prefixes))])
                else:  # a fresh prefix
                    prefixes.append(extend((), int(gen.integers(1, 8))))
            distinct = list(dict.fromkeys(prefixes))
            past = [
                max((len(k) + 1 for k in kept if len(k) < len(p) and p[: len(k)] == k),
                    default=0)
                for p in distinct
            ]
            calls.clear()
            rows = decoder(prefixes)
            assert calls == [[len(p) + 1 - c for p, c in zip(distinct, past)]]
            multi_row_chunks += sum(0 < c < len(p) for p, c in zip(distinct, past))
            for events, row in zip(prefixes, rows, strict=True):
                want = predictors._float64_rows(forward(pipeline.prefix_matrix(events))[0].data)
                assert row.tobytes() == want[-1].tobytes(), events
                assert row.tobytes() == predictor.next_probs(events).tobytes(), events
            kept = distinct
            asked.extend(p for p in distinct if p not in asked)
        assert multi_row_chunks > 0


def _graph(root):
    """Every node of the graph under ``root``."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


class TestOnePrecision:
    """Models compute in nk.FLOAT (float32) throughout; rows leave predictors
    as float64 probability rows."""

    @pytest.mark.parametrize("kind,config", FAMILIES, ids=FAMILY_IDS)
    def test_a_training_step_builds_only_float32_values(self, kind, config, monkeypatch):
        model = make_model(kind, config, seed=3)
        gen = rng(60)
        matrices = [gen.normal(size=(n, INPUT_DIM)) for n in (4, 6, 2)]
        labels = [gen.integers(0, 3, size=n) for n in (4, 6, 2)]
        values, gradients, steps = set(), set(), []
        batch_loss, adam_step = training._batch_loss, nk.adam_step

        def recording(backward):
            def run(g):
                gradients.add(g.dtype)
                backward(g)
            return run

        def recording_loss(*args):
            loss, n_scored = batch_loss(*args)
            for node in _graph(loss):
                values.add(node.data.dtype)
                if node._backward_fn is not None:
                    node._backward_fn = recording(node._backward_fn)
            return loss, n_scored

        def recording_step(params, grads, state):
            adam_step(params, grads, state)
            steps.append((params.dtype, grads.dtype, state.m.dtype, state.v.dtype))

        monkeypatch.setattr(training, "_batch_loss", recording_loss)
        monkeypatch.setattr(nk, "adam_step", recording_step)
        config = TrainConfig(epochs=1, batch_size=8, validation_fraction=0.0)
        train_model(model, matrices, labels, config)
        assert values == gradients == {nk.FLOAT}
        assert steps == [(nk.FLOAT,) * 4]

    @pytest.mark.parametrize("kind,config", FAMILIES, ids=FAMILY_IDS)
    def test_every_returned_row_is_a_float64_probability_row(self, kind, config, monkeypatch):
        playlist = make_playlist(5)
        sessions = [make_session(o, sid=f"m{i}") for i, o in enumerate(MIXED_OUTCOMES)]
        predictor = NeuralPredictor(
            model=make_model(kind, config, seed=4), pipeline=fitted_pipeline(playlist, sessions)
        )
        returned = {"scored": predictor.predict_sessions(sessions)}
        returned["query"] = [predictor.decoder()([s.events for s in sessions])]
        returned["rollout"] = []
        make_decoder = predictor.decoder

        def recording_decoder():
            decode = make_decoder()

            def recording(prefixes):
                returned["rollout"].append(decode(prefixes))
                return returned["rollout"][-1]
            return recording

        monkeypatch.setattr(predictor, "decoder", recording_decoder)
        uniforms = rng(61).random((20, 5 * DEFAULT_CAP + 1))
        rollout_walks(predictor, playlist, np.array([0.4, 0.6, 0.0]), uniforms)
        if kind is ModelKind.TRANSFORMER:
            returned["attention"] = predictor.attention_for_sessions(sessions)
        for what, rows in returned.items():
            assert rows, what
            for array in rows:
                assert array.dtype == np.float64, what
                check_prob_rows(array, what)


class TestNoGrad:
    @pytest.mark.parametrize("kind,config", FAMILIES, ids=FAMILY_IDS)
    def test_links_no_graph_and_gives_the_same_bytes(self, kind, config):
        model = make_model(kind, config, seed=3)
        rows = rng(45).normal(size=(9, INPUT_DIM))
        with_graph = model.forward(rows, [2, 5, 2])[0]
        with nk.no_grad():
            bare = model.forward(rows, [2, 5, 2])[0]
        assert with_graph.needs_grad
        assert not bare._parents and bare._backward_fn is None and not bare.needs_grad
        assert bare.data.tobytes() == with_graph.data.tobytes()

    def test_restores_the_grad_mode_after_an_exception(self):
        a = nk.Tensor(np.array(np.ones((2, 2))), requires_grad=True)
        with pytest.raises(RuntimeError, match="inside"):
            with nk.no_grad():
                raise RuntimeError("inside")
        assert nk.add(a, a)._parents == (a, a)
        with nk.no_grad():
            with nk.no_grad():
                pass
            assert nk.add(a, a)._parents == ()
        assert nk.add(a, a)._parents == (a, a)
