"""Adam with bias correction, in place on flat vectors.

Update rule per parameter entry, at step t (1-based), in the order of
Kingma & Ba (2015, "Adam: A Method for Stochastic Optimization", end of §2),
which folds both bias corrections into the step size and epsilon:
    m <- b1*m + (1-b1)*g
    v <- b2*v + (1-b2)*g^2
    lr_t = lr * sqrt(1 - b2^t) / (1 - b1^t)      eps_t = eps * sqrt(1 - b2^t)
    p <- p - lr_t * (m / (sqrt(v) + eps_t))
This is the textbook p - lr * mhat / (sqrt(vhat) + eps), with mhat = m / (1 -
b1^t) and vhat = v / (1 - b2^t), up to rounding, at one divide per entry
instead of three.

Parameters, gradients and both moments are each one contiguous vector of the
parameters' dtype, FLOAT for a model (which keeps every parameter in one, see
SequenceModel.flat). The update runs over ADAM_CHUNK-element chunks through
one reused work buffer of that dtype, so a step allocates no float temporary
of the parameters' size. Each entry sees the operations of the rule above in
the same order, so the bits are those of the whole-array expressions.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConstraintViolation, NumericError

# Entries per chunk of the in-place update; its work buffers stay in cache.
ADAM_CHUNK = 32_768

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's; AdamState takes the learning rate


class AdamState:
    """Flat first/second moment vectors, made at the first step."""

    def __init__(self, learning_rate: float) -> None:
        if not 0 < learning_rate < np.inf:
            raise ConstraintViolation(
                f"Adam learning_rate must be finite and > 0, got {learning_rate}",
                keys=("learning_rate",),
            )
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None


class NonFiniteGradient(NumericError):
    """A gradient entry is NaN or Inf; ``offset`` is the first such entry."""

    def __init__(self, offset: int) -> None:
        super().__init__(f"adam_step: non-finite gradient at offset {offset}")
        self.offset = offset


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One Adam update of the flat vector ``params``, in place; mutates ``state``.

    A gradient of another length, or a non-finite one, is refused before
    anything changes.
    """
    if params.ndim != 1 or grads.shape != params.shape:
        raise ConstraintViolation(
            f"adam_step: gradient shape {grads.shape} != parameter shape {params.shape}"
        )
    # the sum is not finite whenever an entry is not; only then find the entry
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(grads.sum()) and not (finite := np.isfinite(grads)).all():
            raise NonFiniteGradient(int(finite.argmin()))
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    state.step_count += 1
    t = state.step_count
    root_bias2 = math.sqrt(1.0 - BETA2**t)
    lr_t = state.learning_rate * root_bias2 / (1.0 - BETA1**t)
    eps_t = EPS * root_bias2
    work = np.empty(min(ADAM_CHUNK, params.size), dtype=params.dtype)
    for start in range(0, params.size, ADAM_CHUNK):
        part = slice(start, start + ADAM_CHUNK)
        p, g, m, v = params[part], grads[part], state.m[part], state.v[part]
        x = work[: p.size]
        np.multiply(g, 1.0 - BETA1, out=x)
        m *= BETA1
        m += x
        np.multiply(g, 1.0 - BETA2, out=x)
        x *= g
        v *= BETA2
        v += x
        np.sqrt(v, out=x)
        x += eps_t
        np.divide(m, x, out=x)
        x *= lr_t
        p -= x
