"""Binary tensor serialization: little-endian float32 blob plus JSON manifest,
and the one checked reader of every JSON file the package loads.

The manifest lists (name, shape, byte_offset, byte_length) per tensor, in
blob order. Writes are atomic (temp file in the target directory, then
rename), so an interrupted run never leaves a partial artifact.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import typing
from types import UnionType
from typing import Sequence

import numpy as np

_MANIFEST_ENTRY = {"name": str, "shape": list[int], "byte_offset": int, "byte_length": int}


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


def read_json(path: str):
    """Parse the JSON file at ``path``; a file that is not valid JSON is a ValueError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ValueError(f"{path}: invalid JSON: {exc}") from None


def _matches(value, hint) -> bool:
    """Whether a JSON value has type ``hint``: an int passes for a float, a bool never for an int."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, UnionType):
        return any(_matches(value, arg) for arg in args)
    if origin in (list, tuple):
        return isinstance(value, list) and all(_matches(v, args[0]) for v in value)
    if hint in (int, float) and isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def check_fields(raw, types: dict, where: str, required=()) -> dict:
    """Return ``raw`` unchanged once it is a JSON object with no key outside ``types``,
    every ``required`` key and values of the declared types; else a ValueError naming ``where``."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} is not an object")
    for key, value in raw.items():
        if key not in types:
            raise ValueError(f"{where} has unknown config key {key!r}")
        if not _matches(value, types[key]):
            name = types[key].__name__ if isinstance(types[key], type) else str(types[key])
            raise ValueError(f"{where} key {key!r} must be {name}, got {value!r}")
    for key in required:
        if key not in raw:
            raise ValueError(f"{where} is missing key {key!r}")
    return raw


def field_types(cls) -> dict:
    """Field name -> type hint of the dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def from_dict(cls, raw, where: str):
    """The dataclass ``cls`` built from ``raw``, checked against its field types; a field
    without a default is required, and a constructor error is prefixed with ``where``."""
    required = [f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]
    check_fields(raw, field_types(cls), where, required)
    try:
        return cls(**raw)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


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
    manifest = read_json(manifest_path)
    with open(bin_path, "rb") as fh:
        payload = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
        size = fh.readinto(payload)
    if not isinstance(manifest, list):
        raise ValueError(f"{manifest_path}: expected a list of tensor entries")
    for i, entry in enumerate(manifest):
        check_fields(entry, _MANIFEST_ENTRY, f"{manifest_path}: entry {i}", _MANIFEST_ENTRY)
    expected = sum(entry["byte_length"] for entry in manifest)
    if size != expected:
        raise ValueError(f"{bin_path}: expected {expected} bytes per manifest, found {size}")
    out: dict[str, np.ndarray] = {}
    for entry in manifest:
        name = entry["name"]
        if name in out:
            raise ValueError(f"{manifest_path}: tensor {name!r} is listed twice")
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


def check_tensors(arrays: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...]], where: str) -> None:
    """Pass when ``arrays`` holds exactly the tensors named in ``shapes``, each of that shape; else
    a ValueError naming ``where`` and a missing, else an unexpected, else a wrong-shaped tensor."""
    for name in shapes:
        if name not in arrays:
            raise ValueError(f"{where}: no tensor {name!r}")
    for name in arrays:
        if name not in shapes:
            raise ValueError(f"{where}: unexpected tensor {name!r}")
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ValueError(f"{where}: tensor {name!r} has shape {arrays[name].shape}, expected {shape}")
