"""Flat binary checkpoints: a flat parameter vector of dtype FLOAT as one .bin
of little-endian float32 data, plus a JSON manifest of its layout: the (name,
start, shape) of each array, in sorted-name order and without gaps, as name,
shape, byte offset and size. The manifest's format tag names the dtype; a
bundle of any other format, float64 ones included, is refused."""

from __future__ import annotations

import json
import sys
from itertools import zip_longest
from pathlib import Path
from typing import Sequence

import numpy as np

from ..domain import integer, read_fields, read_json, string
from ..errors import SchemaError
from .autodiff import FLOAT

FORMAT_TAG = "flat-float32-v1"
FILE_DTYPE = FLOAT.newbyteorder("<")
# a manifest as save_checkpoint writes it
_MANIFEST_FIELDS = {
    "format": string,
    "arrays": [{"name": string, "shape": [integer], "offset": integer, "size": integer}],
}
Layout = Sequence[tuple[str, int, tuple[int, ...]]]


def _paths(stem: str | Path) -> tuple[Path, Path]:
    return Path(stem).with_suffix(".bin"), Path(stem).with_suffix(".json")


def _entries(layout: Layout) -> list[dict]:
    return [{"name": name, "shape": list(shape), "offset": FILE_DTYPE.itemsize * start,
             "size": int(np.prod(shape))} for name, start, shape in layout]


def name_at(layout: Layout, offset: int) -> str:
    """The array that holds entry ``offset`` of a vector laid out as ``layout``."""
    return [name for name, start, _ in layout if start <= offset][-1]


def save_checkpoint(stem: str | Path, flat: np.ndarray, layout: Layout) -> None:
    """Write <stem>.bin, ``flat`` in one write, and its manifest <stem>.json."""
    bin_path, manifest_path = _paths(stem)
    bin_path.write_bytes(np.ascontiguousarray(flat, dtype=FILE_DTYPE).data)
    manifest = {"format": FORMAT_TAG, "byte_order": "little", "arrays": _entries(layout)}
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", "utf-8")


def load_checkpoint(stem: str | Path, flat: np.ndarray, layout: Layout) -> None:
    """Read <stem>.bin into ``flat``, a FLOAT vector, in one read. <stem>.json,
    read by _MANIFEST_FIELDS, must carry FORMAT_TAG and describe exactly
    ``layout``, and <stem>.bin be exactly ``flat.nbytes`` long, or a
    SchemaError names the file; after one, ``flat`` may hold part of the file."""
    bin_path, manifest_path = _paths(stem)
    manifest = read_fields(read_json(manifest_path), _MANIFEST_FIELDS, manifest_path)
    if (tag := manifest["format"]) != FORMAT_TAG:
        raise SchemaError(
            f"{manifest_path}: checkpoint format {tag!r}; this version reads {FORMAT_TAG!r} only"
        )
    for i, (got, want) in enumerate(zip_longest(manifest["arrays"], _entries(layout))):
        if got != want:
            raise SchemaError(f"{manifest_path}: array entry {i} is {got}, the model needs {want}")
    size = bin_path.stat().st_size
    if size < flat.nbytes:  # the array holding the entry at byte ``size`` is cut short
        name = name_at(layout, size // FILE_DTYPE.itemsize)
        raise SchemaError(f"{bin_path}: array {name!r} runs past end of file at byte {size}")
    with open(bin_path, "rb") as fh:
        if size > flat.nbytes or fh.readinto(flat) != size:
            raise SchemaError(f"{bin_path}: {size} bytes, but the arrays end at byte {flat.nbytes}")
    if sys.byteorder == "big":
        flat.byteswap(inplace=True)
    # the sum is not finite whenever an entry is not; only then find the entry
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(flat.sum()) and not (finite := np.isfinite(flat)).all():
            name = name_at(layout, int(finite.argmin()))
            raise SchemaError(f"{bin_path}: array {name!r} holds non-finite values")
