"""Models of skip/play/replay decisions in playlist listening sessions.

The package is organized bottom-up:

  domain     outcomes, sessions, the play-count state machine, the field reader
  dataio     file formats, splits, feature pipelines, prompt export
  baselines  first-order Markov and zero-order count models
  neuralkit  float32 reverse-mode autodiff, Adam, gradient checking
  seqmodels  MLP / LSTM / transformer sequence models and training
  attention  attention-weight algebra and content-free baselines
  evalkit    hit rates, confusion, demand rates, summaries
  synthgen   synthetic generators with known conditional structure
  artifacts  predictor bundles, stored splits, run manifests
  reports    deterministic JSON/CSV/SVG emission
  cli        the ``seqbundle`` command
"""

from .domain import (
    DEFAULT_CAP,
    Event,
    Outcome,
    Playlist,
    Session,
    Track,
    advance_state,
    count_states,
    initial_state,
    is_terminal,
    validate_session,
)
from .errors import (
    ConstraintViolation,
    MetricUndefinedError,
    NumericError,
    SchemaError,
    SeqBundleError,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CAP",
    "ConstraintViolation",
    "Event",
    "MetricUndefinedError",
    "NumericError",
    "Outcome",
    "Playlist",
    "SchemaError",
    "SeqBundleError",
    "Session",
    "Track",
    "advance_state",
    "count_states",
    "initial_state",
    "is_terminal",
    "validate_session",
    "__version__",
]
