"""Corrupt every file of a pretrained encoder, a bilstm head and an mlp head, one mutation
at a time, and run each case through the CLI: it must exit 0, or exit 1 with exactly one
``error: ...`` line, and never raise.

JSON files are truncated, overwritten at seeded bytes, stripped of each key (and of the
first and last element of each list), given a value of another JSON type at each key, and
replaced by nesting too deep to parse. Blobs are truncated and grown. A byte flip inside a
blob is not tried: the manifests hold no checksum, so such a blob still loads.
"""

import json
import shutil
import zlib

import numpy as np
import pytest

from kusent.cli import main
from test_acceptance import _desk_run

# one value of each JSON kind; a key gets one whose kind differs from its value's
_OTHER_VALUES = ["x", 7, 2.5, True, None, [], {}, [[1]]]


def _kind(value) -> str:
    if isinstance(value, bool) or value is None:
        return repr(value)
    # an int passes for a float, so the two are one kind
    return "number" if isinstance(value, (int, float)) else type(value).__name__


def _paths(value, prefix=()):
    """The path of each dict value, and of each list's first and last element, under ``value``."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = sorted({0: value[0], len(value) - 1: value[-1]}.items()) if value else []
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _edited(raw, path, value=None, delete=False):
    """The JSON text of ``raw`` with the value at ``path`` deleted or set to ``value``."""
    copy = json.loads(json.dumps(raw))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(copy).encode()


def _json_mutations(data: bytes, rng):
    """(label, new bytes) for each mutation of one JSON file."""
    for cut in sorted({0, 1, len(data) // 2, len(data) - 2, *rng.integers(2, len(data) - 2, size=2)}):
        yield f"truncated to {cut} bytes", data[:cut]
    for i in range(6):
        changed = bytearray(data)
        for at in rng.integers(0, len(data), size=int(rng.integers(1, 4))):
            changed[at] = int(rng.integers(0, 256))
        yield f"overwrite {i}", bytes(changed)
    raw = json.loads(data)
    for path in _paths(raw):
        yield f"deleted {path}", _edited(raw, path, delete=True)
        current = raw
        for key in path:
            current = current[key]
        others = [v for v in _OTHER_VALUES if _kind(v) != _kind(current)]
        value = others[int(rng.integers(len(others)))]
        yield f"{path} set to {value!r}", _edited(raw, path, value)
    yield "nested too deep", b"[" * 100_000


def _blob_mutations(data: bytes, rng):
    for cut in (0, len(data) // 2, len(data) - 4, len(data) - 1):
        yield f"truncated to {cut} bytes", data[:cut]
    for extra in (b"\0", bytes(4), rng.integers(0, 256, size=4, dtype=np.uint8).tobytes()):
        yield f"{len(extra)} bytes appended", data + extra


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The desk run's encoder and mlp head, a bilstm head on that encoder, and their inputs."""
    root = tmp_path_factory.mktemp("fuzz")
    encoder, mlp, _ = _desk_run(root, "a")
    inputs = {"config": root / "cfg_a.json", "corpus": root / "corpus_a.txt",
              "vocab": root / "vocab_a.txt", "data": root / "labeled_a.tsv"}
    bilstm = root / "bilstm"
    assert main(["train", "--task", "bilstm", "--config", str(inputs["config"]), "--encoder", str(encoder),
                 "--data", str(inputs["data"]), "--vocab", str(inputs["vocab"]), "--out", str(bilstm),
                 "--epochs", "1"]) == 0
    return {"encoder": encoder, "mlp": mlp, "bilstm": bilstm, **inputs}


def _commands(artifacts, artifact, target, case_dir):
    """The commands that read ``target``, a copy of ``artifact``."""
    flags = ["--config", str(artifacts["config"]), "--vocab", str(artifacts["vocab"])]
    data = ["--data", str(artifacts["data"])]
    if artifact != "encoder":
        return [["evaluate", "--model", str(target), *data, *flags]]
    return [["pretrain", "--corpus", str(artifacts["corpus"]), "--out", str(target), "--resume", *flags],
            ["train", "--task", "mlp", "--encoder", str(target), "--out", str(case_dir / "model"),
             "--epochs", "1", *data, *flags]]


CASES = [("encoder", name) for name in ("config.json", "manifest.json", "params.bin",
                                         "optim_manifest.json", "optim.bin", "state.json")]
CASES += [(head, name) for head in ("mlp", "bilstm")
          for name in ("head_config.json", "head_manifest.json", "head.bin", "labels.json",
                       "encoder/config.json", "encoder/manifest.json", "encoder/params.bin")]


@pytest.mark.parametrize("artifact, name", CASES, ids=[f"{a}/{n}" for a, n in CASES])
def test_corrupt_artifact_is_at_most_one_error_line(artifacts, tmp_path, capsys, artifact, name):
    source = artifacts[artifact]
    data = (source / name).read_bytes()
    rng = np.random.default_rng(zlib.crc32(f"{artifact}/{name}".encode()))
    mutations = _json_mutations if name.endswith(".json") else _blob_mutations
    failures, count = [], 0
    for label, mutated in mutations(data, rng):
        case_dir = tmp_path / f"case{count}"
        target = case_dir / artifact
        shutil.copytree(source, target)
        (target / name).write_bytes(mutated)
        for argv in _commands(artifacts, artifact, target, case_dir):
            capsys.readouterr()
            try:
                rc = main(argv)
            except Exception as exc:  # any escape is the failure looked for
                failures.append(f"{label}: {argv[0]} raised {type(exc).__name__}: {exc}"[:300])
                continue
            err = capsys.readouterr().err
            if rc not in (0, 1) or (rc == 1 and not (err.startswith("error: ") and err.count("\n") == 1)):
                failures.append(f"{label}: {argv[0]} exited {rc} with stderr {err[:300]!r}")
        shutil.rmtree(case_dir)
        count += 1
    assert count > 5
    assert not failures, "\n".join(failures)
