"""Binary tensor serialization: little-endian float32 blob plus JSON manifest.

The manifest lists (name, shape, byte_offset, byte_length) per tensor, in
blob order. Writes are atomic (temp file in the target directory, then
rename), so an interrupted run never leaves a partial artifact.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Sequence

import numpy as np


def atomic_write_bytes(path: str, payload: bytes) -> None:
    atomic_write_chunks(path, [payload])


def atomic_write_chunks(path: str, chunks) -> None:
    """Write the bytes-like ``chunks`` one after another to ``path``, atomically."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: str, obj) -> None:
    atomic_write_text(path, json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n")


def write_blob(
    named_arrays: Sequence[tuple[str, np.ndarray]], bin_path: str, manifest_path: str
) -> None:
    # each tensor is written straight from its own buffer, with no joined copy
    arrays = [np.ascontiguousarray(arr, dtype="<f4") for _, arr in named_arrays]
    manifest: list[dict] = []
    offset = 0
    for (name, original), arr in zip(named_arrays, arrays):
        manifest.append(
            {
                "name": name,
                "shape": list(np.shape(original)),
                "byte_offset": offset,
                "byte_length": arr.nbytes,
            }
        )
        offset += arr.nbytes
    atomic_write_chunks(bin_path, [arr.reshape(-1).view(np.uint8) for arr in arrays])
    atomic_write_json(manifest_path, manifest)


def read_blob(bin_path: str, manifest_path: str) -> dict[str, np.ndarray]:
    """Load every tensor described by the manifest; rejects truncated blobs."""
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(bin_path, "rb") as fh:
        payload = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
        size = fh.readinto(payload)
    if not isinstance(manifest, list):
        raise ValueError(f"{manifest_path}: expected a list of tensor entries")
    for i, entry in enumerate(manifest):
        if not isinstance(entry, dict):
            raise ValueError(f"{manifest_path}: entry {i} is not an object")
        for key in ("name", "shape", "byte_offset", "byte_length"):
            if key not in entry:
                raise ValueError(f"{manifest_path}: entry {i} is missing key {key!r}")
    expected = sum(entry["byte_length"] for entry in manifest)
    if size != expected:
        raise ValueError(f"{bin_path}: expected {expected} bytes per manifest, found {size}")
    out: dict[str, np.ndarray] = {}
    for entry in manifest:
        name = entry["name"]
        shape = tuple(entry["shape"])
        start, length = entry["byte_offset"], entry["byte_length"]
        n_values = int(np.prod(shape)) if shape else 1
        if length != 4 * n_values:
            raise ValueError(
                f"{manifest_path}: tensor {name!r} byte_length {length} does not match shape {shape}"
            )
        if start < 0 or start + length > size:
            raise ValueError(f"{manifest_path}: tensor {name!r} lies outside {bin_path}")
        # views of the one buffer the file was read into, not copies
        out[name] = payload[start : start + length].view("<f4").reshape(shape)
    return out
