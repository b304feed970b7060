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
