"""Numeric kernels, reverse-mode gradients, Adam, and checkpoints."""

import json
import math
import re

import numpy as np
import pytest

from conftest import rng
from seqbundle.errors import ConstraintViolation, NumericError, SchemaError
from seqbundle.neuralkit import optim
from seqbundle.neuralkit import (
    FLOAT,
    AdamState,
    NonFiniteGradient,
    Tensor,
    adam_step,
    add,
    causal_softmax,
    concat_cols,
    concat_rows,
    cross_entropy_mean,
    grad_check,
    layer_norm,
    load_checkpoint,
    lstm_cell,
    matmul,
    mul,
    positional_encoding_matrix,
    relu,
    save_checkpoint,
    scale,
    sigmoid,
    slice_cols,
    slice_rows,
    softmax_rows,
    take_rows,
    tanh,
    transpose,
)


class TestKernels:
    def test_positional_encoding_zero_position(self):
        enc = positional_encoding_matrix(1, 8)[0]
        assert np.array_equal(enc[0::2], np.zeros(4))
        assert np.array_equal(enc[1::2], np.ones(4))
        assert np.dot(enc, enc) == pytest.approx(4.0)  # dim / 2

    def test_positional_encoding_frozen_entries(self):
        enc = positional_encoding_matrix(2, 4)[1]
        expected = np.array(
            [math.sin(1.0), math.cos(1.0), math.sin(0.01), math.cos(0.01)]
        )
        assert np.allclose(enc, expected, atol=1e-15)

    def test_positional_encoding_matrix_stacks(self):
        """A row's bits do not depend on how many rows the table holds."""
        mat = positional_encoding_matrix(40, 6)
        assert mat.shape == (40, 6)
        for n in (1, 2, 5, 8, 9, 17, 39):
            assert np.array_equal(positional_encoding_matrix(n, 6), mat[:n])

    def test_positional_encoding_rejects_odd_dim(self):
        with pytest.raises(NumericError):
            positional_encoding_matrix(1, 3)


class TestTensor:
    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            Tensor(np.array([1.0, np.inf]))
        with pytest.raises(NumericError):
            Tensor(np.array([np.nan]))

    def test_op_results_skip_the_check_and_the_loss_keeps_it(self):
        big = Tensor(np.array([[1e308, 1.0]]))
        with np.errstate(over="ignore"):
            assert np.isinf(scale(big, 10.0).data[0, 0])  # an op result is not checked
        poisoned = Tensor(np.array(np.full((1, 3), 1 / 3)), requires_grad=True)
        poisoned.data[0, 1] = np.nan  # as a diverged update would leave it
        with pytest.raises(NumericError, match="non-finite"):
            cross_entropy_mean(relu(poisoned), np.array([1]), np.ones(1, bool))

    def test_backward_requires_scalar(self):
        t = Tensor(np.array(np.zeros(3)), requires_grad=True)
        with pytest.raises(NumericError):
            t.backward()

    def test_gradients_accumulate_across_uses(self):
        x = Tensor(np.array([[1.5]]), requires_grad=True)
        loss = add(x, x)
        loss.backward()
        assert x.grad.item() == 2.0

    def test_graph_reuse_shares_node_once(self):
        # a diamond graph: the shared node's backward must run exactly once
        x = Tensor(np.array([[2.0]]), requires_grad=True)
        shared = mul(x, x)
        loss = add(shared, shared)  # 2 x^2, d/dx = 4x = 8
        loss.backward()
        assert x.grad.item() == pytest.approx(8.0)

    def test_backward_tears_down_the_graph(self):
        w = Tensor(np.array(rng(30).normal(size=(3, 2))), requires_grad=True)
        x = Tensor(rng(31).normal(size=(4, 3)))
        hidden = tanh(matmul(x, w))
        probs = softmax_rows(concat_cols([hidden, hidden]))
        loss = cross_entropy_mean(probs, np.array([0, 1, 2, 3]), np.ones(4, bool))
        loss.backward()
        for node in (hidden, probs, loss):
            assert node.grad is None
            assert node._parents == ()
            assert node._backward_fn is None
        assert w.grad is not None and w.grad.shape == (3, 2)
        assert np.any(w.grad != 0.0)


def _assert_grads_ok(build, params, tol=1e-6):
    err = grad_check(build, params)
    assert err < tol, f"max relative gradient error {err:.3e}"


class TestOperatorGradients:
    def test_add_broadcast(self):
        a = Tensor(np.array(rng(1).normal(size=(4, 3))), requires_grad=True)
        # a row vector, broadcast over the rows
        b = Tensor(np.array(rng(2).normal(size=(1, 3))), requires_grad=True)
        _assert_grads_ok(
            lambda: cross_entropy_mean(
                softmax_rows(add(a, b)), np.array([0, 1, 2, 0]), np.ones(4, bool)
            ),
            {"a": a, "b": b},
        )

    def test_mul_and_scale(self):
        a = Tensor(np.array(rng(4).normal(size=(3, 3))), requires_grad=True)
        b = Tensor(np.array(rng(5).normal(size=(3, 3))), requires_grad=True)
        _assert_grads_ok(
            lambda: cross_entropy_mean(
                softmax_rows(scale(mul(a, b), 0.7)),
                np.array([0, 2, 1]),
                np.ones(3, bool),
            ),
            {"a": a, "b": b},
        )

    def test_matmul_and_transpose(self):
        a = Tensor(np.array(rng(6).normal(size=(3, 4))), requires_grad=True)
        b = Tensor(np.array(rng(7).normal(size=(4, 3))), requires_grad=True)
        _assert_grads_ok(
            lambda: cross_entropy_mean(
                softmax_rows(matmul(a, b)), np.array([1, 1, 0]), np.ones(3, bool)
            ),
            {"a": a, "b": b},
        )
        c = Tensor(np.array(rng(8).normal(size=(3, 4))), requires_grad=True)
        _assert_grads_ok(
            lambda: cross_entropy_mean(
                softmax_rows(matmul(c, transpose(c))),
                np.array([0, 2, 1]),
                np.ones(3, bool),
            ),
            {"c": c},
        )

    def test_elementwise_nonlinearities(self):
        # offset keeps relu inputs away from the kink, where the two routes differ
        base = rng(9).normal(size=(3, 4)) + np.sign(rng(9).normal(size=(3, 4))) * 0.5
        for op in (relu, tanh, sigmoid):
            x = Tensor(np.array(base), requires_grad=True)
            _assert_grads_ok(
                lambda op=op, x=x: cross_entropy_mean(
                    softmax_rows(op(x)), np.array([0, 1, 2]), np.ones(3, bool)
                ),
                {"x": x},
            )

    def test_layer_norm(self):
        x = Tensor(np.array(rng(10).normal(size=(4, 6))), requires_grad=True)
        _assert_grads_ok(
            lambda: cross_entropy_mean(
                softmax_rows(layer_norm(x)),
                np.array([0, 1, 2, 3]),
                np.ones(4, bool),
            ),
            {"x": x},
            tol=1e-5,  # eps inside the sqrt shifts the numeric route slightly
        )

    def test_causal_softmax_gradients(self):
        x = Tensor(np.array(rng(11).normal(size=(4, 4))), requires_grad=True)
        _assert_grads_ok(
            lambda: cross_entropy_mean(
                causal_softmax(x), np.array([0, 1, 2, 3]), np.ones(4, bool)
            ),
            {"x": x},
        )

    def test_concat_and_slice(self):
        a = Tensor(np.array(rng(12).normal(size=(3, 2))), requires_grad=True)
        b = Tensor(np.array(rng(13).normal(size=(3, 2))), requires_grad=True)
        _assert_grads_ok(
            lambda: cross_entropy_mean(
                softmax_rows(slice_cols(concat_cols([a, b]), 1, 4)),
                np.array([0, 1, 2]),
                np.ones(3, bool),
            ),
            {"a": a, "b": b},
        )
        c = Tensor(np.array(rng(14).normal(size=(2, 3))), requires_grad=True)
        d = Tensor(np.array(rng(15).normal(size=(2, 3))), requires_grad=True)
        _assert_grads_ok(
            lambda: cross_entropy_mean(
                softmax_rows(concat_rows([c, d])),
                np.array([0, 1, 2, 0]),
                np.ones(4, bool),
            ),
            {"c": c, "d": d},
        )

    def test_slice_rows(self):
        x = Tensor(np.array(rng(35).normal(size=(5, 3))), requires_grad=True)
        _assert_grads_ok(
            lambda: cross_entropy_mean(
                softmax_rows(concat_rows([slice_rows(x, 1, 4), slice_rows(x, 0, 2)])),
                np.array([0, 1, 2, 0, 1]),
                np.ones(5, bool),
            ),
            {"x": x},
        )

    def test_lstm_cell(self):
        # loss through both outputs, so c's gradient has two consumers; every
        # entry stays well above the 1e-8 floor of grad_check's relative error
        gates = Tensor(np.array(rng(36).normal(size=(3, 8))), requires_grad=True)
        c_prev = Tensor(np.array(rng(37).normal(size=(3, 2))), requires_grad=True)
        params = {"gates": gates, "c_prev": c_prev}

        def loss():
            h, c = lstm_cell(gates, c_prev)
            return cross_entropy_mean(
                softmax_rows(concat_cols([h, c])), np.array([0, 3, 2]), np.ones(3, bool)
            )

        loss().backward()
        assert min(np.abs(p.grad).min() for p in params.values()) > 1e-4
        assert grad_check(loss, params) < 1e-6

    def test_take_rows_scatter_add(self):
        table = Tensor(np.array(rng(16).normal(size=(5, 3))), requires_grad=True)
        idx = np.array([0, 2, 2, 4])  # repeated index exercises accumulation
        _assert_grads_ok(
            lambda: cross_entropy_mean(
                softmax_rows(take_rows(table, idx)),
                np.array([0, 1, 2, 0]),
                np.ones(4, bool),
            ),
            {"table": table},
        )

    def test_cross_entropy_mean_masked(self):
        x = Tensor(np.array(rng(17).normal(size=(4, 3))), requires_grad=True)
        mask = np.array([False, True, True, False])
        _assert_grads_ok(
            lambda: cross_entropy_mean(
                softmax_rows(x), np.array([0, 1, 2, 0]), mask
            ),
            {"x": x},
        )


class TestLayerNormValues:
    def test_rows_have_zero_mean_unit_variance(self):
        x = Tensor(rng(20).normal(size=(6, 8)) * 3.0 + 1.0)
        y = layer_norm(x).data
        assert np.allclose(y.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(y.var(axis=1), 1.0, atol=1e-9)

    def test_rejects_non_2d(self):
        with pytest.raises(ConstraintViolation):
            layer_norm(Tensor(np.zeros(4)))


class TestCausalSoftmax:
    def test_upper_triangle_is_exactly_zero(self):
        alpha = causal_softmax(Tensor(rng(21).normal(size=(6, 6)))).data
        assert np.all(alpha[np.triu_indices(6, k=1)] == 0.0)
        assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-12)

    def test_prefix_rows_are_bit_identical(self):
        scores = rng(22).normal(size=(8, 8)) * 4.0
        full = causal_softmax(Tensor(scores)).data
        for k in range(1, 8):
            sub = causal_softmax(Tensor(scores[:k, :k])).data
            assert full[:k, :k].tobytes() == sub.tobytes()

    def test_rejects_non_square(self):
        with pytest.raises(ConstraintViolation):
            causal_softmax(Tensor(np.zeros((2, 3))))

    def test_first_row_is_deterministic_one(self):
        alpha = causal_softmax(Tensor(rng(23).normal(size=(3, 3)))).data
        assert alpha[0, 0] == 1.0

    def test_stack_matches_each_matrix(self):
        stack = rng(25).normal(size=(5, 6, 6)) * 3.0
        for op in (causal_softmax, softmax_rows):
            batched = op(Tensor(stack)).data
            for i in range(5):
                assert batched[i].tobytes() == op(Tensor(stack[i])).data.tobytes()


# Every (k, n) that a CLI-default (wide) or small model multiplies by.
PRODUCTION_SHAPES = [
    (5, 256), (256, 768), (256, 256), (256, 2048), (2048, 256), (256, 3),
    (5, 32), (32, 96), (32, 32), (32, 3), (5, 128), (32, 128),
]


def _tile_product(x, w, tile=64):
    """x @ w with one BLAS call per 64-row tile, the last one zero-padded:
    every call has one shape, so each row's bits are those of its own tile.
    Computed in the operands' dtype."""
    out = np.empty((len(x), w.shape[1]), x.dtype)
    for start in range(0, len(x), tile):
        block = np.zeros((tile, x.shape[1]), x.dtype)
        block[: len(x) - start] = x[start : start + tile]
        out[start : start + tile] = (block @ w)[: len(x) - start]
    return out


def _normal(seed, size):
    """Standard normal draws in the models' dtype."""
    return rng(seed).normal(size=size).astype(FLOAT)


class TestMatmulTiles:
    """matmul's forward gives every row the bits of a 64-row-tile product, so a
    row's bits depend neither on the rows beside it nor on its place. The
    row-stability checks run in the models' dtype, FLOAT."""

    @pytest.mark.parametrize("k,n", PRODUCTION_SHAPES)
    def test_every_row_count_matches_the_tile_product(self, k, n):
        x = _normal(k, (1100, k))
        w = _normal(n, (k, n))
        # a GEMM row reads no other row, so the first m rows of the tile
        # product are the tile product of x[:m]
        reference = _tile_product(x, w)
        for m in range(1, 1101):
            got = matmul(Tensor(x[:m]), Tensor(w)).data
            assert got.tobytes() == reference[:m].tobytes(), m

    @pytest.mark.parametrize("width", [3, 256])
    def test_prefix_rows_are_bit_identical(self, width):
        x = _normal(40, (200, 32))
        w = _normal(41, (32, width))
        full = matmul(Tensor(x), Tensor(w)).data
        for k in range(1, 201):
            assert matmul(Tensor(x[:k]), Tensor(w)).data.tobytes() == full[:k].tobytes()

    @pytest.mark.parametrize("width", [3, 256])
    def test_stacked_sessions_match_each_alone(self, width):
        # 16 sessions of 13 rows: most straddle the 8-row multiples of a call
        length = 13
        x = _normal(42, (16 * length, 32))
        w = _normal(43, (32, width))
        stacked = matmul(Tensor(x), Tensor(w)).data
        for b in range(16):
            rows = slice(b * length, (b + 1) * length)
            assert matmul(Tensor(x[rows]), Tensor(w)).data.tobytes() == stacked[rows].tobytes()

    def test_single_row(self):
        x = _normal(44, (70, 16))
        w = _normal(45, (16, 5))
        one = matmul(Tensor(x[5:6]), Tensor(w)).data
        assert one.shape == (1, 5) and one.dtype == FLOAT
        assert one.tobytes() == matmul(Tensor(x), Tensor(w)).data[5:6].tobytes()

    def test_backward_products_match_finite_differences(self):
        # 70 rows: the forward spans two BLAS calls, 64 rows and a padded tail
        a = Tensor(np.array(rng(46).normal(size=(70, 5))), requires_grad=True)
        b = Tensor(np.array(rng(47).normal(size=(5, 3))), requires_grad=True)
        labels = np.arange(70) % 3
        _assert_grads_ok(
            lambda: cross_entropy_mean(
                softmax_rows(matmul(a, b)), labels, np.ones(labels.size, bool)
            ),
            {"a": a, "b": b},
        )

    @pytest.mark.parametrize("width", [3, 2048])
    def test_agrees_with_einsum(self, width):
        # the padded calls differ from the einsum route by rounding only: each
        # entry stays within 1e-12 of it, relative to |x| @ |w|, in float64
        # (matmul takes its operands' dtype)
        x = rng(48).normal(size=(208, 256))
        w = rng(49).normal(size=(256, width))
        padded = matmul(Tensor(x), Tensor(w)).data
        reference = np.einsum("ij,jk->ik", x, w)
        assert np.all(np.abs(padded - reference) <= 1e-12 * (np.abs(x) @ np.abs(w)))


class TestTakeRowsScatter:
    """Unique indices scatter with one indexed add and repeated ones with
    np.add.at; both give np.add.at's bits, into a fresh or a running grad."""

    @pytest.mark.parametrize("unique", [True, False], ids=["unique", "repeated"])
    @pytest.mark.parametrize("running", [False, True], ids=["fresh", "running"])
    def test_scatter_matches_add_at(self, unique, running):
        gen = rng(50)
        table = Tensor(np.array(gen.normal(size=(1200, 32))), requires_grad=True)
        idx = gen.permutation(1200) if unique else gen.integers(0, 40, size=1200)
        g = gen.normal(size=(1200, 32))
        g[::5, ::3] = -0.0
        expected = gen.normal(size=table.shape) if running else np.zeros(table.shape)
        if running:
            table.grad = expected.copy()
        take_rows(table, idx)._backward_fn(g)
        np.add.at(expected, idx, g)
        assert table.grad.tobytes() == expected.tobytes()


class TestSigmoidValues:
    def test_matches_the_three_exp_expression_bit_for_bit(self):
        x = np.concatenate(
            [[-700.0, -50.0, -1.0, -1e-300, 0.0, -0.0, 1e-300, 1.0, 50.0, 700.0],
             rng(26).normal(size=64) * 20.0]
        )
        old = np.where(
            x >= 0,
            1.0 / (1.0 + np.exp(-np.abs(x))),
            np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))),
        )
        assert sigmoid(Tensor(x)).data.tobytes() == old.tobytes()


class TestReluValues:
    def test_keeps_nan(self):
        x = Tensor(np.array([[-1.0, 0.0, 2.0, 0.5]]), requires_grad=True)
        x.data[0, 3] = np.nan
        assert relu(x).data.tobytes() == np.array([[0.0, 0.0, 2.0, np.nan]]).tobytes()


class TestLSTMCellValues:
    def test_matches_the_composed_ops_bit_for_bit(self):
        width = 5
        gates = Tensor(rng(38).normal(size=(7, 4 * width)) * 4.0)
        c_prev = Tensor(rng(39).normal(size=(7, width)))
        gi, gf, gc, go = (slice_cols(gates, j * width, (j + 1) * width) for j in range(4))
        c_ref = add(mul(sigmoid(gf), c_prev), mul(sigmoid(gi), tanh(gc)))
        h_ref = mul(sigmoid(go), tanh(c_ref))
        h, c = lstm_cell(gates, c_prev)
        assert c.data.tobytes() == c_ref.data.tobytes()
        assert h.data.tobytes() == h_ref.data.tobytes()

    def test_rejects_mismatched_state(self):
        with pytest.raises(ConstraintViolation, match="lstm_cell"):
            lstm_cell(Tensor(np.zeros((2, 8))), Tensor(np.zeros((2, 3))))


class TestCrossEntropyMean:
    def test_frozen_value(self):
        probs = Tensor(np.array([[0.5, 0.25, 0.25], [0.1, 0.6, 0.3]]))
        loss = cross_entropy_mean(probs, np.array([0, 1]), np.ones(2, bool))
        expected = (-math.log(0.5) - math.log(0.6)) / 2
        assert loss.item() == pytest.approx(expected, abs=1e-15)

    def test_mask_drops_rows(self):
        probs = Tensor(np.array([[0.5, 0.25, 0.25], [0.1, 0.6, 0.3]]))
        loss = cross_entropy_mean(
            probs, np.array([0, 1]), np.array([False, True])
        )
        assert loss.item() == pytest.approx(-math.log(0.6), abs=1e-15)

    def test_gradient_only_on_scored_labels(self):
        probs = Tensor(np.array([[0.5, 0.25, 0.25], [0.1, 0.6, 0.3]]), requires_grad=True)
        loss = cross_entropy_mean(
            probs, np.array([0, 1]), np.array([False, True])
        )
        loss.backward()
        expected = np.zeros((2, 3))
        expected[1, 1] = -1.0 / 0.6
        assert np.allclose(probs.grad, expected, atol=1e-12)

    def test_empty_mask_rejected(self):
        probs = Tensor(np.full((2, 3), 1 / 3))
        with pytest.raises(ConstraintViolation):
            cross_entropy_mean(probs, np.array([0, 1]), np.zeros(2, bool))


class TestGradCheckHarness:
    def test_detects_wrong_backward(self):
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)

        def bad_double(t):
            def backward(g):
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad += 3.0 * g  # deliberately wrong, true factor is 2

            return Tensor(t.data * 2.0, parents=(t,), backward_fn=backward)

        def loss():
            y = bad_double(x)
            return cross_entropy_mean(
                softmax_rows(y), np.array([0]), np.ones(1, bool)
            )

        assert grad_check(loss, {"x": x}) > 0.1

    @staticmethod
    def tiny_entry_loss(factor):
        # y enters scaled by 1e-8, so its gradient entries sit near 1e-8,
        # where central-difference round-off alone is about 1e-3 of them;
        # ``factor`` scales y's backward, 1.0 being the true one
        x = Tensor(np.array(rng(25).normal(size=(2, 3))), requires_grad=True)
        y = Tensor(np.array(rng(26).normal(size=(2, 3))), requires_grad=True)

        def tiny(t):
            def backward(g):
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad += 1e-8 * factor * g

            return Tensor(t.data * 1e-8, parents=(t,), backward_fn=backward)

        def loss():
            return cross_entropy_mean(
                softmax_rows(add(x, tiny(y))), np.array([0, 2]), np.ones(2, bool)
            )

        return loss, {"x": x, "y": y}

    def test_round_off_on_tiny_entries_is_held_to_the_gradient_scale(self):
        loss, params = self.tiny_entry_loss(1.0)
        loss().backward()
        assert np.abs(params["y"].grad).max() < 1e-8
        assert grad_check(loss, params) < 1e-6

    def test_a_wrong_backward_on_tiny_entries_still_fails(self):
        loss, params = self.tiny_entry_loss(1.5)
        assert grad_check(loss, params) > 1e-6

    def test_passes_correct_graph(self):
        x = Tensor(np.array(rng(24).normal(size=(2, 3))), requires_grad=True)
        err = grad_check(
            lambda: cross_entropy_mean(
                softmax_rows(x), np.array([0, 1]), np.ones(2, bool)
            ),
            {"x": x},
        )
        assert err < 1e-6


class TestAdam:
    def test_constants_are_kingma_and_ba_defaults(self):
        assert (optim.BETA1, optim.BETA2, optim.EPS) == (0.9, 0.999, 1e-8)

    def test_first_step_matches_closed_form(self):
        state = AdamState(1e-3)
        params = np.zeros(2)
        grads = np.array([1.0, -0.5])
        adam_step(params, grads, state)
        # bias correction makes mhat = g and vhat = g^2 on step one, so the
        # update is lr * sign(g) up to eps
        expected = -1e-3 * np.sign(grads) / (1.0 + optim.EPS)
        assert np.allclose(params, expected, atol=1e-18)

    def test_two_constant_steps_move_twice(self):
        state = AdamState(1e-3)
        params = np.array([0.0])
        g = np.array([2.0])
        adam_step(params, g, state)
        adam_step(params, g, state)
        step = 1e-3 * 2.0 / (2.0 + optim.EPS)
        assert params[0] == pytest.approx(-2.0 * step, rel=1e-12)
        assert state.step_count == 2

    @staticmethod
    def chunk_steps(rule):
        """Three steps over three chunks, the last one partial: yields the
        stepped params, state, and the moments and params of ``rule`` (which
        takes params, m, v, t and the learning rate) on whole arrays."""
        lr, b1, b2 = 0.01, optim.BETA1, optim.BETA2
        gen = rng(31)
        n = 2 * optim.ADAM_CHUNK + 5
        params = gen.normal(size=n)
        expected = params.copy()
        m = v = np.zeros(n)
        state = AdamState(lr)
        for t in (1, 2, 3):
            g = gen.normal(size=n)
            g[::7] = -0.0
            adam_step(params, g, state)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            expected = rule(expected, m, v, t, lr)
            yield params, state, m, v, expected

    def test_chunks_match_the_whole_array_rule(self):
        def folded(p, m, v, t, lr):
            root_bias2 = math.sqrt(1.0 - optim.BETA2**t)
            lr_t = lr * root_bias2 / (1.0 - optim.BETA1**t)
            return p - lr_t * (m / (np.sqrt(v) + optim.EPS * root_bias2))

        for params, state, m, v, expected in self.chunk_steps(folded):
            assert params.tobytes() == expected.tobytes()
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()

    def test_chunks_stay_near_the_textbook_rule(self):
        # mhat and vhat in full: the folded order differs only by rounding.
        # Measured: at most 4.4e-16 apart over these three float64 steps of
        # about 1e-2, one unit in the last place of a parameter in [2, 4)
        def textbook(p, m, v, t, lr):
            mhat, vhat = m / (1.0 - optim.BETA1**t), v / (1.0 - optim.BETA2**t)
            return p - lr * mhat / (np.sqrt(vhat) + optim.EPS)

        for params, _, _, _, expected in self.chunk_steps(textbook):
            assert np.abs(params - expected).max() <= 1e-15

    def test_rejects_shape_mismatch(self):
        state = AdamState(1e-3)
        with pytest.raises(ConstraintViolation):
            adam_step(np.zeros(2), np.zeros((2, 1)), state)

    def test_rejects_length_mismatch(self):
        state = AdamState(1e-3)
        params = np.zeros(2)
        with pytest.raises(ConstraintViolation, match="gradient shape"):
            adam_step(params, np.ones(3), state)
        assert state.step_count == 0 and params.tobytes() == np.zeros(2).tobytes()

    def test_rejects_non_finite_gradient_before_any_change(self):
        state = AdamState(1e-3)
        params = np.zeros(3)
        with pytest.raises(NumericError) as caught:
            adam_step(params, np.array([1.0, np.nan, np.inf]), state)
        assert isinstance(caught.value, NonFiniteGradient)
        assert caught.value.offset == 1
        assert state.step_count == 0 and state.m is None
        assert params.tobytes() == np.zeros(3).tobytes()

    @pytest.mark.parametrize("value", [0.0, -1e-3, math.nan, math.inf])
    def test_learning_rate_must_be_finite_and_positive(self, value):
        with pytest.raises(ConstraintViolation, match="learning_rate must be finite") as caught:
            AdamState(value)
        assert caught.value.keys == ("learning_rate",)


def _packed(arrays):
    """``arrays`` as one flat FLOAT vector and its layout, in sorted-name order."""
    layout, start = [], 0
    for name in sorted(arrays):
        layout.append((name, start, np.shape(arrays[name])))
        start += np.size(arrays[name])
    flat = np.concatenate([np.ravel(arrays[name]) for name in sorted(arrays)])
    return flat.astype(FLOAT), layout


class TestCheckpoint:
    def save(self, tmp_path, arrays):
        flat, layout = _packed(arrays)
        save_checkpoint(tmp_path / "ck", flat, layout)
        return flat, layout

    def load(self, tmp_path, layout):
        flat = np.empty(sum(math.prod(shape) for _, _, shape in layout), FLOAT)
        load_checkpoint(tmp_path / "ck", flat, layout)
        return flat

    def test_round_trip_is_bitwise(self, tmp_path):
        arrays = {
            "b": rng(30).normal(size=(3, 4)),
            "a": rng(31).normal(size=(7,)),
            "scalar": np.array(2.5),
        }
        flat, layout = self.save(tmp_path, arrays)
        assert [name for name, _, _ in layout] == ["a", "b", "scalar"]
        assert self.load(tmp_path, layout).tobytes() == flat.tobytes()

    def test_files_are_the_vector_and_its_layout(self, tmp_path):
        flat, layout = self.save(tmp_path, {"w": rng(33).normal(size=(2, 3)), "b": np.ones(2)})
        assert (tmp_path / "ck.bin").read_bytes() == flat.astype("<f4").tobytes()
        assert json.loads((tmp_path / "ck.json").read_text()) == {
            "format": "flat-float32-v1",
            "byte_order": "little",
            "arrays": [
                {"name": "b", "shape": [2], "offset": 0, "size": 2},
                {"name": "w", "shape": [2, 3], "offset": 8, "size": 6},
            ],
        }

    def test_a_float64_checkpoint_is_refused(self, tmp_path):
        # the layout of the format before float32: 8-byte entries
        flat, layout = self.save(tmp_path, {"w": rng(34).normal(size=(2, 3))})
        manifest = json.loads((tmp_path / "ck.json").read_text())
        manifest["format"] = "flat-float64-v1"
        (tmp_path / "ck.json").write_text(json.dumps(manifest))
        (tmp_path / "ck.bin").write_bytes(flat.astype("<f8").tobytes())
        message = f"{tmp_path / 'ck.json'}: checkpoint format 'flat-float64-v1'"
        with pytest.raises(SchemaError, match=re.escape(message)):
            self.load(tmp_path, layout)

    def test_unknown_format_tag_rejected(self, tmp_path):
        _, layout = self.save(tmp_path, {"w": np.zeros(2)})
        manifest = (tmp_path / "ck.json").read_text()
        (tmp_path / "ck.json").write_text(
            manifest.replace("flat-float32-v1", "mystery-v9")
        )
        with pytest.raises(SchemaError, match="format"):
            self.load(tmp_path, layout)

    @pytest.mark.parametrize("manifest", ['{"x": ', "[]", '{"format": "flat-float32-v1"}'])
    def test_malformed_manifest_rejected(self, tmp_path, manifest):
        _, layout = self.save(tmp_path, {"w": np.zeros(2)})
        (tmp_path / "ck.json").write_text(manifest)
        with pytest.raises(SchemaError, match=re.escape(str(tmp_path / "ck.json"))):
            self.load(tmp_path, layout)

    def test_truncated_payload_rejected(self, tmp_path):
        _, layout = self.save(tmp_path, {"v": np.zeros(2), "w": np.arange(4.0)})
        raw = (tmp_path / "ck.bin").read_bytes()
        (tmp_path / "ck.bin").write_bytes(raw[:-4])
        with pytest.raises(SchemaError, match="array 'w' runs past end"):
            self.load(tmp_path, layout)

    def test_trailing_byte_rejected(self, tmp_path):
        _, layout = self.save(tmp_path, {"w": np.arange(4.0)})
        with open(tmp_path / "ck.bin", "ab") as fh:
            fh.write(b"\0")
        message = f"{tmp_path / 'ck.bin'}: 17 bytes, but the arrays end at byte 16"
        with pytest.raises(SchemaError, match=re.escape(message)):
            self.load(tmp_path, layout)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda arrays: arrays.reverse(),  # permuted offsets
            lambda arrays: arrays[1].update(offset=4),  # overlapping
            lambda arrays: arrays[1].update(offset=12),  # a gap
            lambda arrays: arrays[0].update(name="z"),
            lambda arrays: arrays[0].update(shape=[1, 2]),
            lambda arrays: arrays[1].update(size=2),
            lambda arrays: arrays.pop(),
            lambda arrays: arrays.append(dict(arrays[0], name="x", offset=20)),
        ],
        ids=["permuted", "overlapping", "gap", "name", "shape", "size", "missing", "extra"],
    )
    def test_manifest_must_describe_the_layout(self, tmp_path, edit):
        _, layout = self.save(tmp_path, {"a": np.zeros(2), "w": np.arange(3.0)})
        manifest = json.loads((tmp_path / "ck.json").read_text())
        edit(manifest["arrays"])
        (tmp_path / "ck.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match=re.escape(f"{tmp_path / 'ck.json'}: array entry")):
            self.load(tmp_path, layout)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_rejected(self, tmp_path, bad):
        _, layout = self.save(tmp_path, {"a": np.zeros(2), "w": np.array([1.0, bad])})
        message = f"{tmp_path / 'ck.bin'}: array 'w' holds non-finite values"
        with pytest.raises(SchemaError, match=re.escape(message)):
            self.load(tmp_path, layout)

    def test_finite_entries_whose_sum_overflows_load(self, tmp_path):
        flat, layout = self.save(tmp_path, {"w": np.array([3e38, 3e38, -3e38])})
        assert self.load(tmp_path, layout).tobytes() == flat.tobytes()

    def test_byte_identical_files_across_runs(self, tmp_path):
        flat, layout = _packed({"w": rng(32).normal(size=(5, 5))})
        save_checkpoint(tmp_path / "one", flat, layout)
        save_checkpoint(tmp_path / "two", flat, layout)
        assert (tmp_path / "one.bin").read_bytes() == (tmp_path / "two.bin").read_bytes()
        assert (tmp_path / "one.json").read_text() == (tmp_path / "two.json").read_text()
