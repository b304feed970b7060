"""Algebra over causal attention weights and their content-free baselines.

Weight matrices are lower-triangular and row-stochastic: alpha[i, j] is the
weight query position i puts on key position j (0-based here; formulas below
use the 1-based convention of the accompanying docs).

Baselines for the average key weight:
  1  diagonal attention (each position attends to itself)
  2  all attention on the first position
  3  uniform attention over the admissible prefix (alpha_ij = 1/i)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .domain import Session, check_prob_rows
from .errors import ConstraintViolation, MetricUndefinedError

EULER_GAMMA = 0.5772156649015329

BASELINE_DIAGONAL = 1
BASELINE_FIRST_KEY = 2
BASELINE_UNIFORM = 3


@dataclass(frozen=True, slots=True)
class AttentionTensor:
    """Per-layer, per-head causal attention weights, shape (layers, heads, n, n)."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = _check_causal(self.weights, 4, "attention tensor (layers, heads, n, n)")
        object.__setattr__(self, "weights", w)

    @property
    def n_positions(self) -> int:
        return self.weights.shape[2]

    def averaged(self) -> np.ndarray:
        """Elementwise mean over layers and heads (taken before any row/column
        averaging, so the result is still row-stochastic lower-triangular)."""
        return self.weights.mean(axis=(0, 1))


def _check_causal(weights, ndim: int, where: str) -> np.ndarray:
    """``weights`` as float64, once it has ``ndim`` axes and its last two hold
    square causal matrices: no weight above the diagonal, and probability rows."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != ndim or w.shape[-1] != w.shape[-2]:
        raise ConstraintViolation(f"{where}: wrong shape {w.shape}")
    if np.any(np.triu(w, k=1) != 0.0):
        raise ConstraintViolation(f"{where} has weight above the diagonal")
    return check_prob_rows(w, where)


def average_query_weights(alpha: np.ndarray) -> np.ndarray:
    """Mean weight per query row over its admissible keys: (1/i) * sum_{j<=i}.

    Because rows are stochastic this equals 1/i identically; the value is
    computed from the matrix, validation makes deviation an error rather than
    a silent result.
    """
    a = _check_causal(alpha, 2, "attention matrix (n, n)")
    n = a.shape[0]
    i = np.arange(1, n + 1, dtype=np.float64)
    return a.sum(axis=1) / i


def average_key_weights(alpha: np.ndarray) -> np.ndarray:
    """Mean weight per key column over the queries that may attend to it:
    (1/(n+1-j)) * sum_{i>=j} alpha_ij."""
    return _key_weights(_check_causal(alpha, 2, "attention matrix (n, n)"))


def _key_weights(a: np.ndarray) -> np.ndarray:
    """average_key_weights of an (n, n) matrix already checked causal."""
    denom = np.arange(a.shape[0], 0, -1, dtype=np.float64)  # n+1-j for j = 1..n
    return a.sum(axis=0) / denom


def baseline_key_weights(kind: int, n: int) -> np.ndarray:
    """Average key weights of a content-free attention pattern (see module doc)."""
    if n < 1:
        raise ConstraintViolation(f"n must be >= 1, got {n}")
    j = np.arange(1, n + 1, dtype=np.float64)
    if kind == BASELINE_DIAGONAL:
        return 1.0 / (n + 1.0 - j)
    if kind == BASELINE_FIRST_KEY:
        out = np.zeros(n)
        out[0] = 1.0
        return out
    if kind == BASELINE_UNIFORM:
        # (1/(n+1-j)) * sum_{i=j..n} 1/i
        inv = 1.0 / np.arange(1, n + 1, dtype=np.float64)
        tail = np.cumsum(inv[::-1])[::-1]
        return tail / (n + 1.0 - j)
    raise ConstraintViolation(f"unknown baseline kind {kind} (expected 1, 2, or 3)")


@dataclass(frozen=True, slots=True)
class HarmonicCheck:
    n: int
    exact: float  # H_n / n, the uniform baseline's first key weight
    approximation: float  # (ln n + gamma + 1/(2n)) / n, remainder dropped
    deviation: float
    bound: float  # (1/(8 n^2)) / n
    passed: bool


def harmonic_approx_check(n: int) -> HarmonicCheck:
    """Compare the exact uniform-baseline first-key weight with its
    logarithmic approximation and check the Euler-Maclaurin remainder bound.

    The dropped remainder eps_n satisfies 0 <= eps_n <= 1/(8 n^2), so the
    deviation of the approximation is at most that bound divided by n.
    """
    if n < 1:
        raise ConstraintViolation(f"n must be >= 1, got {n}")
    harmonic = float(np.sum(1.0 / np.arange(1, n + 1, dtype=np.float64)))
    exact = harmonic / n
    approximation = (math.log(n) + EULER_GAMMA + 1.0 / (2.0 * n)) / n
    deviation = abs(exact - approximation)
    bound = 1.0 / (8.0 * n * n) / n
    remainder = math.log(n) + EULER_GAMMA + 1.0 / (2.0 * n) - harmonic
    passed = deviation <= bound and -1e-15 <= remainder <= 1.0 / (8.0 * n * n)
    return HarmonicCheck(
        n=n,
        exact=exact,
        approximation=approximation,
        deviation=deviation,
        bound=bound,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# session profiles


@dataclass(frozen=True, slots=True)
class AttentionProfile:
    playlist_id: str
    session_id: str
    empirical: tuple[float, ...]  # average key weights of the averaged heads
    baseline: tuple[float, ...]  # uniform-attention baseline, same length
    correlation: float | None  # None when undefined (constant profile)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation; raises MetricUndefinedError when either side is constant."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ConstraintViolation("pearson needs two equal-length vectors of size >= 2")
    if float(np.std(a)) == 0.0 or float(np.std(b)) == 0.0:
        raise MetricUndefinedError("correlation undefined for a constant profile")
    return float(np.corrcoef(a, b)[0, 1])


def session_attention_profile(session: Session, weights) -> AttentionProfile | None:
    """Empirical vs baseline key-weight profile for one session, from its
    (layers, heads, n, n) attention weights.

    Heads and layers are averaged elementwise first, then key weights are
    taken. Sessions shorter than 3 events cannot support a correlation and
    are excluded (returns None).
    """
    if len(session) < 3:
        return None
    tensor = AttentionTensor(weights)
    # the mean of a checked stack is causal and row-stochastic again
    empirical = _key_weights(tensor.averaged())
    baseline = baseline_key_weights(BASELINE_UNIFORM, tensor.n_positions)
    try:
        corr: float | None = pearson(empirical, baseline)
    except MetricUndefinedError:
        corr = None
    return AttentionProfile(
        playlist_id=session.playlist_id,
        session_id=session.session_id,
        empirical=tuple(float(v) for v in empirical),
        baseline=tuple(float(v) for v in baseline),
        correlation=corr,
    )


def playlist_correlations(
    profiles: Iterable[AttentionProfile],
) -> dict[str, float]:
    """Mean session correlation per playlist (sessions first, then the mean)."""
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for profile in profiles:
        if profile.correlation is None:
            continue
        sums[profile.playlist_id] = sums.get(profile.playlist_id, 0.0) + profile.correlation
        counts[profile.playlist_id] = counts.get(profile.playlist_id, 0) + 1
    return {pid: sums[pid] / counts[pid] for pid in sorted(sums)}
