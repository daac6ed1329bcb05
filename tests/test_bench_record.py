"""``tools/bench_record.py`` builds a BENCH file from perfbench result files."""

import importlib.util
import json
import os
import statistics

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_record.py")
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

MACHINE = {"cpu_count": 2, "cpus_usable": 2, "numpy": "2.4.6", "threads": {"OPENBLAS_NUM_THREADS": "2"},
           "kusent_file": "/somewhere/kusent/__init__.py", "sgemm_gflops": 40.0}


def job(train_s, apply_s, traced=False):
    """One classify job: ``train_s`` reference seconds over its two train stages, ``apply_s`` in eval."""
    return {"traced": traced, "units": {"train": 112, "apply": 64},
            "ref_stages": {"prepare": 0.01, "train_bilstm": 0.75 * train_s, "train_mlp": 0.25 * train_s,
                           "eval": apply_s}}


def canned(seed, train_s, failed=0, trace=0):
    """A classify result file as ``perfbench/run.py`` writes it, with the keys the tool reads."""
    return {
        "workload": "classify", "seed": seed, "trace": trace,
        "setup_samples_s": [0.6, 0.5, 0.9, 0.7, 0.8],
        "checks": {"report_recount": {"attempted": 4, "failed": failed}},
        "failures": ["report_recount: off by one"] if failed else [],
        "machine": dict(MACHINE, sgemm_gflops=30.0 + seed),
        "result": {
            "peak_rss_kb": 350 * 1024,
            # a warm-up and a traced job, which do not count, around three measured jobs
            "jobs": [job(9.0, 9.0), job(train_s, 0.5), job(9.0, 9.0, traced=True), job(train_s + 0.1, 0.4),
                     job(train_s + 0.2, 0.6)],
        },
    }


def write(path, result):
    path.write_text(json.dumps(result))
    return str(path)


def test_builds_a_file_from_canned_results(tmp_path, capsys):
    paths = [write(tmp_path / "b.json", canned(8, 1.0)), write(tmp_path / "a.json", canned(7, 0.6))]
    previous = bench_record.record([write(tmp_path / "p7.json", canned(7, 0.8)),
                                    write(tmp_path / "p8.json", canned(8, 0.9, failed=1))], 15, "parent")
    (tmp_path / "BENCH_15.json").write_text(json.dumps(previous))
    out = tmp_path / "BENCH_16.json"
    assert bench_record.main(paths + ["--pr", "16", "--commit", "abc1234", "--out", str(out),
                                      "--previous", str(tmp_path / "BENCH_15.json")]) == 0
    bench = json.loads(out.read_text())
    assert bench["pr"] == 16 and bench["commit"] == "abc1234"
    assert bench["machine"] == {k: v for k, v in MACHINE.items() if k not in ("kusent_file", "sgemm_gflops")}
    classify = bench["workloads"]["classify"]
    assert (classify["runs"], classify["seeds"], classify["correct"]) == (2, [7, 8], True)
    assert previous["workloads"]["classify"]["correct"] is False
    train = classify["metrics"]["train_per_ref_s"]
    # per run: the median over measured jobs of train units per reference second of train stages
    assert train["values"] == pytest.approx([112 / 0.7, 112 / 1.1])
    assert train["median"] == pytest.approx(statistics.median(train["values"]))
    assert train["iqr"] == pytest.approx(train["q3"] - train["q1"]) and train["unit"] == "1/ref_s"
    assert classify["metrics"]["apply_per_ref_s"]["values"] == pytest.approx([64 / 0.5, 64 / 0.5])
    assert classify["metrics"]["setup_s"]["values"] == [0.7, 0.7]
    assert classify["metrics"]["peak_rss_mb"]["values"] == [350.0, 350.0]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert "classify train_per_ref_s:" in lines[2] and lines[2].endswith("wins 1 of 2 same-seed pairs")


def test_traced_run_rejected(tmp_path):
    with pytest.raises(ValueError, match="a traced run has no end-to-end metrics"):
        bench_record.record([write(tmp_path / "t.json", canned(7, 1.0, trace=1))], 16, "abc")
