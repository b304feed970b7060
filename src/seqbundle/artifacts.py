"""On-disk run artifacts: predictor bundles, stored splits, and manifests.

A predictor bundle is a directory holding model.json plus, for the neural
families, a weights.bin/weights.json checkpoint pair. Baseline models are
small enough to live inside model.json directly.

Nothing here embeds wall-clock time; reruns with the same inputs produce the
same bytes, and manifests carry content digests so that can be checked.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path
from typing import Mapping

from .baselines import (
    MarkovPredictor,
    ZeroOrderPredictor,
    ZeroOrderTable,
    baseline_from_json,
    markov_to_json,
    zero_order_to_json,
)
from .dataio import Dataset, FeaturePipeline, Split
from .domain import (
    DEFAULT_CAP,
    Playlist,
    boolean,
    integer,
    object_of,
    one_of,
    read_fields,
    read_json,
)
from .errors import SchemaError
from .neuralkit import load_checkpoint, save_checkpoint
from .reports import write_json
from .seqmodels import (
    NeuralPredictor,
    config_from_json,
    config_to_json,
    make_model,
)

BUNDLE_FILE = "model.json"
WEIGHTS_STEM = "weights"


def sha256_file(path: Path | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# split persistence

_SPLIT_TAGS = {split.value: split for split in Split}
# a dict lookup is cheaper than the Enum.value property
_TAG_VALUES = {split: value for value, split in _SPLIT_TAGS.items()}


def save_split(path: Path | str, dataset: Dataset) -> Path:
    """Record each session's split tag so later runs score the same holdout."""
    assignment = {
        session.session_id: _TAG_VALUES[tag]
        for session, tag in zip(dataset.sessions, dataset.split_tags)
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_split_text(assignment) + "\n", encoding="utf-8")
    return path


def _split_text(assignment: Mapping[str, str]) -> str:
    """``json.dumps({"session_splits": assignment}, indent=2, sort_keys=True)``,
    built by the C encoder: indent makes json fall back to its Python one, so
    the entries' newlines and indent go into the item separator instead."""
    if not assignment:
        return '{\n  "session_splits": {}\n}'
    entries = json.dumps(assignment, sort_keys=True, separators=(",\n    ", ": "))
    return '{\n  "session_splits": {\n    ' + entries[1:-1] + "\n  }\n}"


# a split file: each session's split tag
_SPLIT_FIELDS = {"session_splits": object_of(one_of(*_SPLIT_TAGS))}


def load_split(path: Path | str, dataset: Dataset) -> Dataset:
    """Re-tag a dataset from a stored split file, read by _SPLIT_FIELDS.

    Every session must be covered; a dataset that drifted since the split
    was stored is an error, not a silent re-split. A loaded dataset's session
    ids are unique, so the file covers no other session when it holds as
    many tags as the dataset has sessions.
    """
    assignment = read_fields(read_json(path), _SPLIT_FIELDS, path)["session_splits"]
    try:
        tags = tuple([_SPLIT_TAGS[assignment[s.session_id]] for s in dataset.sessions])
    except KeyError as exc:
        raise SchemaError(f"{path}: session {exc.args[0]!r} has no stored split tag") from None
    if len(assignment) != len(tags):
        extra = set(assignment).difference([s.session_id for s in dataset.sessions])
        if extra:
            raise SchemaError(
                f"{path}: split file covers unknown sessions, e.g. {sorted(extra)[0]!r}"
            )
    return replace(dataset, split_tags=tags)


# ---------------------------------------------------------------------------
# predictor bundles


def save_predictor(bundle_dir: Path | str, predictor) -> Path:
    """Write a predictor bundle; returns the bundle directory."""
    bundle_dir = Path(bundle_dir)
    bundle_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(predictor, MarkovPredictor):
        payload = {"family": "baseline", "payload": markov_to_json(predictor.model)}
    elif isinstance(predictor, ZeroOrderPredictor):
        payload = {"family": "baseline", "payload": zero_order_to_json(predictor.table)}
    elif isinstance(predictor, NeuralPredictor):
        save_checkpoint(bundle_dir / WEIGHTS_STEM, predictor.model.flat, predictor.model.layout)
        payload = {
            "family": "neural",
            "model": config_to_json(predictor.model.kind, predictor.model.config),
            "pipeline": predictor.pipeline.to_jsonable(),
            "feasibility_mask": predictor.feasibility_mask,
            "cap": predictor.cap,
        }
    else:
        raise SchemaError(f"cannot serialize predictor type {type(predictor).__name__}")
    write_json(bundle_dir / BUNDLE_FILE, payload)
    return bundle_dir


def _baseline_predictor(payload: dict) -> MarkovPredictor | ZeroOrderPredictor:
    model = baseline_from_json(payload)
    if isinstance(model, ZeroOrderTable):
        return ZeroOrderPredictor(table=model)
    return MarkovPredictor(model=model)


_FAMILY = {"family": one_of("baseline", "neural")}


def _neural_fields(playlist: Playlist) -> dict:
    """The fields of a neural bundle's model.json, its pipeline read for ``playlist``."""
    return {
        "model": config_from_json,
        "pipeline": lambda state: FeaturePipeline.from_jsonable(state, playlist),
        "cap": (integer, DEFAULT_CAP),
        "feasibility_mask": (boolean, False),
    }


def load_predictor(bundle_dir: Path | str, playlist: Playlist):
    """Load a predictor bundle written by save_predictor; its model.json is
    read by _neural_fields or, for a baseline, as its payload."""
    bundle_dir = Path(bundle_dir)
    path = bundle_dir / BUNDLE_FILE
    obj = read_json(path)
    if read_fields(obj, _FAMILY, path)["family"] == "baseline":
        return read_fields(obj, {"payload": _baseline_predictor}, path)["payload"]
    fields = read_fields(obj, _neural_fields(playlist), path)
    model = make_model(*fields.pop("model"), seed=None)  # no draws: weights load next
    load_checkpoint(bundle_dir / WEIGHTS_STEM, model.flat, model.layout)
    return NeuralPredictor(model=model, **fields)


# ---------------------------------------------------------------------------
# run manifests


def write_manifest(
    path: Path | str,
    command: str,
    parameters: Mapping,
    input_files: Mapping[str, Path | str] | None = None,
    output_files: Mapping[str, Path | str] | None = None,
    input_digests: Mapping[str, str] | None = None,
) -> Path:
    """Describe a run: the command, its parameters, and file digests.

    Paths are recorded relative to the manifest's directory when possible so
    a moved artifact directory stays self-consistent. ``input_digests`` holds
    the sha256 of each input file, by name, when the caller has hashed them.
    """
    path = Path(path)
    base = path.parent

    def describe(files: Mapping[str, Path | str] | None,
                 digests: Mapping[str, str] | None = None) -> dict:
        out = {}
        for name, p in (files or {}).items():
            p = Path(p)
            try:
                shown = str(p.relative_to(base))
            except ValueError:
                shown = str(p)
            out[name] = {"path": shown, "sha256": digests[name] if digests else sha256_file(p)}
        return out

    payload = {
        "command": command,
        "parameters": dict(parameters),
        "inputs": describe(input_files, input_digests),
        "outputs": describe(output_files),
    }
    return write_json(path, payload)
