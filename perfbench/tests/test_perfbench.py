"""Tests of the pipeline benchmark itself (not of the library).

Run from the repository root: ``python -m pytest perfbench/tests -q``.
Each run test works on a copy of the checkout in a temporary directory, so
it leaves nothing behind in the repository.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
REPO = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(REPO, "src")]

import gen  # noqa: E402
from spans import Tracer, covered, self_times, summarize  # noqa: E402


def _tree_files(root):
    return sorted(os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_inputs_depend_only_on_the_seed(tmp_path, workload):
    dirs = {name: str(tmp_path / name) for name in ("a", "b", "c")}
    gen.generate(workload, "smoke", 5, dirs["a"])
    gen.generate(workload, "smoke", 5, dirs["b"])
    gen.generate(workload, "smoke", 6, dirs["c"])
    files = _tree_files(dirs["a"])
    assert files == _tree_files(dirs["b"]) == _tree_files(dirs["c"])
    _, mismatch, errors = filecmp.cmpfiles(dirs["a"], dirs["b"], files, shallow=False)
    assert not mismatch and not errors
    _, differ, _ = filecmp.cmpfiles(dirs["a"], dirs["c"], files, shallow=False)
    data_files = [f for f in files if f != "config.json"]
    assert set(data_files) & set(differ), "another seed must give other inputs"


def test_self_time_on_a_hand_built_tree():
    # root [0,10] has children a [1,4] and b [3,6] (overlapping: union 5 s)
    # and c [8,12], which sticks out of the root (2 s of it inside);
    # a has child d [2,3]; e [20,21] is a second root.
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],
        ["c", 8.0, 12.0, 0, 0],
        ["d", 2.0, 3.0, 1, 0],
        ["e", 20.0, 21.0, -1, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 3.0, 4.0, 1.0, 1.0]
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == 7.0
    assert covered([], 0, 10) == 0.0


def test_busy_time_counts_nested_spans_of_one_name_once():
    spans = [
        ["f", 0.0, 10.0, -1, 3],
        ["f", 2.0, 5.0, 0, 4],
        ["g", 6.0, 7.0, 0, 0],
    ]
    got = summarize(spans)
    assert got["f"] == {"busy_s": 10.0, "self_s": 9.0, "calls": 2, "value": 7}
    assert got["g"]["busy_s"] == 1.0


def test_tracer_records_parents_and_restores_patches():
    module = types.ModuleType("m")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    original = module.inner
    tracer = Tracer()
    tracer.patch(module, "inner", "inner", lambda a, k, r: r)
    tracer.patch(module, "outer", "outer")
    assert module.outer(1) == 4
    tracer.restore()
    assert module.inner is original
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [("outer", -1, 0), ("inner", 0, 2)]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A copy of the files the benchmark needs, like a fresh checkout."""
    root = tmp_path_factory.mktemp("checkout")
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), root)
    shutil.copytree(BENCH, root / "perfbench", ignore=ignore)
    shutil.copytree(os.path.join(REPO, "src"), root / "src", ignore=ignore)
    return root


def _run(root, workload, trace, seed=3):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                             "--trace", str(trace), "--size", "smoke"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return spec, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(checkout, workload):
    spec, detail, result = _run(checkout, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())

    spec, traced_detail, traced = _run(checkout, workload, 1)
    assert traced["correct"] is True
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == want
    # tracing changes no artifact
    assert traced_detail["artifacts_sha256"] == detail["artifacts_sha256"]
    assert detail["machine"]["sgemm_gflops"] > 0


def test_bare_directory_fails_without_a_result(tmp_path):
    spec = json.loads(open(os.path.join(REPO, "BENCHMARK.json")).read())
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(REPO, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = spec["command"] + ["--workload", "text", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
