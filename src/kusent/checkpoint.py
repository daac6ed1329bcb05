"""Binary tensor serialization: little-endian float32 blob plus JSON manifest,
and the one checked reader of every JSON file the package loads.

The manifest lists (name, shape, byte_offset, byte_length) per tensor, in
blob order: the tensors follow one another from byte 0. Writes are atomic
(temp file in the target directory, then rename), so an interrupted run never
leaves a partial artifact, and no file is ever written in place: a blob may
be a hard link to another one (``link_blob``), and stays its bytes.
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
# (st_dev, st_ino, st_size, st_mtime_ns): which file, and a witness that it was not rewritten
FileIdentity = tuple[int, int, int, int]


def _file_identity(st: os.stat_result) -> FileIdentity:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


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
    atomic_write_chunks(path, [text.encode("utf-8")])


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
    atomic_write_chunks(bin_path, [arr.reshape(-1).view(np.uint8) for arr in arrays])
    write_manifest(named_arrays, manifest_path)


def write_manifest(named_arrays: Sequence[tuple[str, np.ndarray]], manifest_path: str) -> None:
    """The manifest ``write_blob`` writes beside the blob of ``named_arrays``."""
    manifest: list[dict] = []
    offset = 0
    for name, arr in named_arrays:
        length = 4 * int(np.size(arr))
        manifest.append(
            {"name": name, "shape": list(np.shape(arr)), "byte_offset": offset, "byte_length": length}
        )
        offset += length
    atomic_write_json(manifest_path, manifest)


def link_blob(source: str, identity: FileIdentity, bin_path: str) -> bool:
    """Make ``bin_path`` a hard link to ``source`` if that is still the file ``identity``
    names; True when ``bin_path`` then is that file, which it may already be (nothing is
    written then). False, with ``bin_path`` untouched, on any OSError (a link across
    devices, a filesystem without links, too many links, no permission) or when
    ``source`` is no longer that file; the caller then writes the bytes itself.
    """
    try:
        if _file_identity(os.lstat(bin_path)) == identity:
            # renaming a link onto its own file does nothing and would leave the temp name
            return True
    except OSError:
        pass
    directory, base = os.path.split(os.path.abspath(bin_path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}{base}")
    try:
        os.link(source, tmp)
        try:
            # the link is to whatever is at ``source`` now: a rename may have replaced it
            linked = _file_identity(os.lstat(tmp)) == identity
            if linked:
                os.replace(tmp, bin_path)
        finally:
            if os.path.lexists(tmp):
                os.unlink(tmp)
    except OSError:
        return False
    return linked


def read_blob(bin_path: str, manifest_path: str) -> tuple[dict[str, np.ndarray], FileIdentity]:
    """Every tensor the manifest describes, and the identity of the blob file they were read
    from; rejects a truncated blob and tensors that do not follow one another from byte 0."""
    manifest = read_json(manifest_path)
    with open(bin_path, "rb") as fh:
        stat = os.fstat(fh.fileno())
        payload = np.empty(stat.st_size, dtype=np.uint8)
        size = fh.readinto(payload)
    if not isinstance(manifest, list):
        raise ValueError(f"{manifest_path}: expected a list of tensor entries")
    for i, entry in enumerate(manifest):
        check_fields(entry, _MANIFEST_ENTRY, f"{manifest_path}: entry {i}", _MANIFEST_ENTRY)
    expected = sum(entry["byte_length"] for entry in manifest)
    if size != expected:
        raise ValueError(f"{bin_path}: expected {expected} bytes per manifest, found {size}")
    out: dict[str, np.ndarray] = {}
    offset = 0
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
        if start != offset:
            raise ValueError(
                f"{manifest_path}: tensor {name!r} starts at byte {start}, not at {offset} "
                "where the tensor before it ends"
            )
        offset += length
        # views of the one buffer the file was read into, not copies
        out[name] = payload[start : start + length].view("<f4").reshape(shape)
    return out, _file_identity(stat)


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
