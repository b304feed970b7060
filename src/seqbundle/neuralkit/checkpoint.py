"""Flat binary checkpoints: one .bin of little-endian float64 data plus a
JSON manifest mapping array names to shapes and byte offsets."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import SchemaError

FORMAT_TAG = "flat-float64-v1"
ENTRY_KEYS = frozenset({"name", "shape", "offset", "size"})


def _paths(stem: str | Path) -> tuple[Path, Path]:
    stem = Path(stem)
    return stem.with_suffix(".bin"), stem.with_suffix(".json")


def save_checkpoint(stem: str | Path, arrays: dict[str, np.ndarray]) -> None:
    """Write <stem>.bin and <stem>.json. Array order is sorted by name."""
    bin_path, manifest_path = _paths(stem)
    entries = []
    offset = 0
    with open(bin_path, "wb") as fh:
        for name in sorted(arrays):
            arr = np.asarray(arrays[name], dtype="<f8")
            # ascontiguousarray promotes 0-d to 1-d, so shape comes from arr
            raw = np.ascontiguousarray(arr).tobytes()
            fh.write(raw)
            entries.append(
                {
                    "name": name,
                    "shape": list(arr.shape),
                    "offset": offset,
                    "size": int(arr.size),
                }
            )
            offset += len(raw)
    manifest = {"format": FORMAT_TAG, "byte_order": "little", "arrays": entries}
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_checkpoint(stem: str | Path) -> dict[str, np.ndarray]:
    bin_path, manifest_path = _paths(stem)
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:
        raise SchemaError(f"{manifest_path}: not valid JSON ({exc})") from None
    tag = manifest.get("format") if isinstance(manifest, dict) else None
    if tag != FORMAT_TAG:
        raise SchemaError(f"{manifest_path}: unknown checkpoint format {tag!r}")
    entries = manifest.get("arrays")
    well_formed = isinstance(entries, list) and all(
        isinstance(entry, dict) and ENTRY_KEYS <= entry.keys() for entry in entries
    )
    if not well_formed:
        raise SchemaError(f"{manifest_path}: 'arrays' entries need name, shape, offset and size")
    raw = Path(bin_path).read_bytes()
    out: dict[str, np.ndarray] = {}
    for entry in entries:
        name = entry["name"]
        size = int(entry["size"])
        offset = int(entry["offset"])
        end = offset + size * 8
        if end > len(raw):
            raise SchemaError(
                f"{bin_path}: array {name!r} runs past end of file "
                f"({end} > {len(raw)} bytes)"
            )
        arr = np.frombuffer(raw[offset:end], dtype="<f8").reshape(entry["shape"])
        if not np.all(np.isfinite(arr)):
            raise SchemaError(f"{bin_path}: array {name!r} holds non-finite values")
        out[name] = arr.astype(np.float64, copy=True)
    return out
