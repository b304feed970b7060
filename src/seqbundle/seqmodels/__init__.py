"""Neural sequence models over per-event feature rows.

A model maps an (n_events, input_dim) feature matrix to an (n_events, 3)
matrix of outcome probabilities; the output at row j is the prediction for
the event at position j+1 (1-based j+1), conditioned on rows up to j for the
causal models. Sessions of any lengths pack into one forward, row after
row with their lengths alongside; each session's rows are bit-identical to
its own forward. Training is teacher-forced, one packed forward per
minibatch, and scored at positions >= 2.
"""

from .config import (
    LSTMConfig,
    MLPConfig,
    ModelKind,
    TrainConfig,
    TransformerConfig,
    config_from_json,
    config_to_json,
)
from .models import make_model
from .predictors import NeuralPredictor
from .training import build_training_arrays, train_model

__all__ = [
    "LSTMConfig",
    "MLPConfig",
    "ModelKind",
    "NeuralPredictor",
    "TrainConfig",
    "TransformerConfig",
    "build_training_arrays",
    "config_from_json",
    "config_to_json",
    "make_model",
    "train_model",
]
