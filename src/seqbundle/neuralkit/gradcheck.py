"""Finite-difference verification of reverse-mode gradients.

The numeric route only re-runs the forward pass (central differences with a
perturbed parameter entry); it never reads autodiff gradients, so the two
routes fail independently. Both routes run in float64 whatever the
parameters' dtype: a FLOAT loss could not resolve a step of H = 1e-5.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from ..errors import NumericError
from .autodiff import Tensor

H = 1e-5  # the central-difference step
# The denominator floor of an entry's relative error, as a share of the
# gradient's L2 norm. At H = 1e-5 the round-off of a difference of O(1)
# losses is about 1e-11, which reads as 1e-3 on an entry near 1e-8 but stays
# below 1e-5 against this floor for gradient norms above 1e-2.
FLOOR_SCALE = 1e-4


@contextmanager
def float64_data(params: dict[str, Tensor]) -> Iterator[None]:
    """Within the block each parameter's data is a float64 copy of its own,
    and its grad starts empty; afterwards it has its own array back."""
    originals = {name: p.data for name, p in params.items()}
    try:
        for p in params.values():
            p.data = p.data.astype(np.float64)
            p.zero_grad()
        yield
    finally:
        for name, p in params.items():
            p.data = originals[name]
            p.zero_grad()


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: dict[str, Tensor],
    max_entries_per_param: int = 16,
    seed: int = 0,
) -> float:
    """Max relative error between autodiff and central differences.

    loss_fn must rebuild the forward graph from ``params`` on every call.
    For the check, each parameter's ``data`` is a float64 copy, so the graphs
    loss_fn builds promote to float64; the parameters get their own arrays
    back afterwards, unchanged.
    Up to ``max_entries_per_param`` entries per array are probed (all of them
    when the array is small), chosen by a seeded RNG. An entry's error is
    relative to the larger of its two values and FLOOR_SCALE times the L2
    norm of the whole analytic gradient: central-difference round-off is
    absolute, so an entry far below the gradient's scale is held to that
    scale.
    """
    with float64_data(params):
        rng = np.random.default_rng(seed)
        loss = loss_fn()
        if not np.isfinite(loss.data):
            raise NumericError("grad_check: loss is not finite")
        loss.backward()
        analytic = {
            name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
            for name, p in params.items()
        }

        norm = float(np.sqrt(sum(float(np.vdot(g, g)) for g in analytic.values())))
        floor = max(FLOOR_SCALE * norm, 1e-8)
        worst = 0.0
        for name in sorted(params):
            tensor = params[name]
            flat = tensor.data.reshape(-1)
            n = flat.size
            if n <= max_entries_per_param:
                picks = np.arange(n)
            else:
                picks = rng.choice(n, size=max_entries_per_param, replace=False)
            for idx in np.sort(picks):
                original = flat[idx]
                flat[idx] = original + H
                up = float(loss_fn().data)
                flat[idx] = original - H
                down = float(loss_fn().data)
                flat[idx] = original
                numeric = (up - down) / (2.0 * H)
                a = float(analytic[name].reshape(-1)[idx])
                denom = max(abs(a), abs(numeric), floor)
                err = abs(a - numeric) / denom
                if err > worst:
                    worst = err
    return worst
