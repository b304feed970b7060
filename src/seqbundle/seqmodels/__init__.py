"""Neural sequence models over per-event feature rows.

A model maps an (n_events, input_dim) feature matrix to an (n_events, 3)
matrix of outcome probabilities; the output at row j is the prediction for
the event at position j+1 (1-based j+1), conditioned on rows up to j for the
causal models. A (n_sessions, n_events, input_dim) stack of equal-length
sessions gives their rows one after another, each bit-identical to the
session's own forward. Training is teacher-forced and scored at positions
>= 2.
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
from .models import LSTMModel, MLPModel, SequenceModel, TransformerModel, make_model
from .predictors import NeuralPredictor, QueueDecision
from .training import TrainResult, build_training_arrays, train_model

__all__ = [
    "LSTMConfig",
    "LSTMModel",
    "MLPConfig",
    "MLPModel",
    "ModelKind",
    "NeuralPredictor",
    "QueueDecision",
    "SequenceModel",
    "TrainConfig",
    "TrainResult",
    "TransformerConfig",
    "TransformerModel",
    "build_training_arrays",
    "config_from_json",
    "config_to_json",
    "make_model",
    "train_model",
]
