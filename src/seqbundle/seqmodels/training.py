"""Teacher-forced training loop with early stopping.

Training owns one gradient vector laid out as the model's parameter vector
``flat`` and of its dtype, nk.FLOAT, as Adam's moments are. Before each
minibatch it is zeroed with one fill and each parameter's grad is bound to its
view, so backward accumulates in place and Adam updates ``flat`` in place from
it.

The loss is the mean cross-entropy over every scored position (event index
>= 2) in the minibatch. The minibatch's sessions, whatever their lengths, are
packed into one forward: one graph and one backward per minibatch.
Validation packs its minibatches the same way and builds no graph.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import neuralkit as nk
from ..dataio import FeaturePipeline
from ..domain import Session
from ..errors import ConstraintViolation, NumericError
from .config import TrainConfig
from .models import SequenceModel

log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class TrainResult:
    train_losses: tuple[float, ...]
    val_losses: tuple[float, ...]
    best_epoch: int  # 1-based; epoch whose parameters the model ends up with
    stopped_early: bool
    n_parameters: int


def build_training_arrays(
    pipeline: FeaturePipeline, sessions: Sequence[Session]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Vectorize sessions; sessions with a single event carry no scored
    positions and are dropped (with a log line). No session left is an error
    naming the playlist."""
    matrices: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    dropped = 0
    for session in sessions:
        if len(session) < 2:
            dropped += 1
            continue
        matrices.append(pipeline.matrix(session))
        labels.append(pipeline.labels(session))
    if dropped:
        log.info("dropped %d session(s) with fewer than 2 events", dropped)
    if not matrices:
        raise ConstraintViolation(
            f"playlist {pipeline.playlist.playlist_id!r}: no training session has a scored "
            f"event (a neural model trains on sessions of at least 2 events)"
        )
    return matrices, labels


def _batch_loss(
    model: SequenceModel,
    matrices: Sequence[np.ndarray],
    labels: Sequence[np.ndarray],
    batch: Sequence[int],
) -> tuple[nk.Tensor, int]:
    """Mean cross-entropy over the scored rows of ``batch``'s sessions, from
    one packed forward, and their count."""
    lengths = np.array([matrices[i].shape[0] for i in batch])
    probs, _ = model.forward(np.concatenate([matrices[i] for i in batch]), lengths)
    scored = np.ones(probs.shape[0], dtype=bool)
    scored[np.cumsum(lengths) - lengths] = False  # first events are given
    labs = np.concatenate([labels[i] for i in batch])
    return nk.cross_entropy_mean(probs, labs, scored), int(scored.sum())


def _dataset_loss(
    model: SequenceModel,
    matrices: Sequence[np.ndarray],
    labels: Sequence[np.ndarray],
    batch_size: int,
) -> float:
    """Mean cross-entropy over all scored positions (forward only, no graph)."""
    total = 0.0
    count = 0
    with nk.no_grad():
        for start in range(0, len(matrices), batch_size):
            batch = range(start, min(start + batch_size, len(matrices)))
            loss, n_scored = _batch_loss(model, matrices, labels, batch)
            total += loss.item() * n_scored
            count += n_scored
    return total / count


def train_model(
    model: SequenceModel,
    matrices: Sequence[np.ndarray],
    labels: Sequence[np.ndarray],
    config: TrainConfig,
) -> TrainResult:
    """Train in place; the model ends at its best validation epoch.

    Deterministic for fixed seeds: the same model init, data, and TrainConfig
    reproduce identical loss curves and final parameters.
    """
    if len(matrices) != len(labels) or not matrices or min(map(len, matrices)) < 2:
        raise ConstraintViolation(
            "training needs matching features/labels of sessions with at least 2 events"
        )
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(matrices))
    n_val = 0
    if config.validation_fraction > 0 and len(matrices) >= 2:
        n_val = min(len(matrices) - 1, max(1, round(config.validation_fraction * len(matrices))))
    val_idx = order[:n_val]
    train_idx = order[n_val:]
    adam = nk.AdamState(config.learning_rate)
    grads = np.empty_like(model.flat)
    grad_views = model.views(grads)
    train_losses: list[float] = []
    val_losses: list[float] = []
    best_val = np.inf
    best_epoch = 0
    best_flat: np.ndarray | None = None
    since_best = 0
    stopped_early = False

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        epoch_order = train_idx[rng.permutation(len(train_idx))]
        epoch_loss = 0.0
        epoch_count = 0
        for start in range(0, len(epoch_order), config.batch_size):
            batch = epoch_order[start : start + config.batch_size]
            grads.fill(0.0)
            for name, tensor in model.params.items():
                tensor.grad = grad_views[name]
            try:
                loss, n_scored = _batch_loss(model, matrices, labels, batch)
                loss.backward()
                epoch_loss += loss.item() * n_scored
                epoch_count += n_scored
                nk.adam_step(model.flat, grads, adam)
            except NumericError as exc:
                cause = (
                    f"non-finite gradient for {nk.name_at(model.layout, exc.offset)!r}"
                    if isinstance(exc, nk.NonFiniteGradient)
                    else exc
                )
                raise NumericError(
                    f"training diverged at epoch {epoch}, "
                    f"batch starting at session {start}: {cause}"
                ) from exc
        train_losses.append(epoch_loss / epoch_count)

        if n_val:
            val_loss = _dataset_loss(
                model,
                [matrices[i] for i in val_idx],
                [labels[i] for i in val_idx],
                config.batch_size,
            )
            val_losses.append(val_loss)
        seconds = time.perf_counter() - started
        log.info(
            "epoch %d/%d: train loss %.6f, val loss %s, %.2f s, %.1f sessions/s",
            epoch,
            config.epochs,
            train_losses[-1],
            f"{val_losses[-1]:.6f}" if n_val else "n/a",
            seconds,
            (len(train_idx) + n_val) / seconds,
        )
        if n_val:
            if val_loss < best_val:
                best_val = val_loss
                best_epoch = epoch
                best_flat = model.flat.copy()
                since_best = 0
            else:
                since_best += 1
                if since_best >= config.patience:
                    stopped_early = True
                    break

    model.zero_grads()  # unbind the views, so the gradient vector goes with this call
    if best_flat is not None:
        model.flat[...] = best_flat
    else:
        best_epoch = len(train_losses)
    return TrainResult(
        train_losses=tuple(train_losses),
        val_losses=tuple(val_losses),
        best_epoch=best_epoch,
        stopped_early=stopped_early,
        n_parameters=model.n_parameters,
    )
