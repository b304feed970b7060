"""Minimal numeric stack for the sequence models.

Reverse-mode differentiation over a fixed set of numpy kernels, an in-place
Adam optimizer over flat vectors, a finite-difference gradient checker, and a
flat binary checkpoint format. Model compute has one precision, FLOAT
(float32): parameters, activations, gradients, Adam's moments and the
checkpoint's data. Only the finite-difference check runs in float64, on
float64 copies of the parameters. Its numeric route never touches the
autodiff backward machinery, so the two gradient routes stay independent.
"""

from .autodiff import (
    FLOAT,
    Tensor,
    add,
    attention,
    causal_softmax,
    concat_cols,
    concat_rows,
    cross_entropy_mean,
    layer_norm,
    lstm_cell,
    matmul,
    mul,
    no_grad,
    parameter_view,
    relu,
    scale,
    sigmoid,
    slice_cols,
    slice_rows,
    softmax_rows,
    take_rows,
    tanh,
    transpose,
)
from .checkpoint import load_checkpoint, name_at, save_checkpoint
from .gradcheck import grad_check
from .kernels import positional_encoding_matrix
from .optim import AdamState, NonFiniteGradient, adam_step
