#!/usr/bin/env python3
"""Pipeline benchmark for kusent: `pretrain`, `classify` and `text` workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 20 --trace 0

The run generates its inputs from ``--seed``, measures the set-up time in
several fresh processes, then runs the workload in one more fresh process
(one caller, closed loop) for ``--seconds`` and checks every output. With
``--trace 1`` alternate jobs are traced and the per-layer metrics are printed
instead of the end-to-end ones.

stdout: a detail line (machine facts, artifact hashes, checks, the
workload's named metrics), then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
DEADLINE_S = 170.0
SETUP_SAMPLES = 4  # set-up-only processes per run, plus the measured one

# The end-to-end metrics every workload reports (see README.md for what each
# stage group is on each workload and what a reference second is).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_per_ref_s": "1/ref_s",
    "apply_per_ref_s": "1/ref_s",
}


def blas_threads() -> int:
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(2, usable or 1))


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(blas_threads())
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONPATH=SRC, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def run_child(argv: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker process to completion; returns its JSON and its spawn wall time."""
    spawned = time.time()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + argv,
                            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker exceeded the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1]), spawned


def stage_rate(job: dict, unit: str, stages, clock: str = "stages") -> float:
    """Units per second (``clock="stages"``) or per reference second
    (``clock="ref_stages"``) spent in ``stages``."""
    return job["units"][unit] / sum(job[clock][s] for s in stages)


def tree_digest(root: str, suffixes: tuple[str, ...] = ("",)) -> str:
    """Hash of the files under ``root`` (names and contents) that end in one of ``suffixes``."""
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(root)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(suffixes):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()[:16]


def update_ledger(key: str, artifacts: dict) -> tuple[bool, dict]:
    """Runs of one program and benchmark on the same inputs, traced or not,
    must write the same artifacts."""
    path = os.path.join(WORK, "ledger.json")
    ledger = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            ledger = json.load(fh)
    previous = ledger.get(key)
    ledger[key] = artifacts
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, sort_keys=True, indent=1)
    os.replace(tmp, path)
    return previous is None or previous == artifacts, previous or {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("pretrain", "classify", "text"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "smoke"),
                        help="smoke: toy shapes for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "kusent", "__init__.py")):
        print(f"error: no kusent sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import gen
    import worker

    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(WORK, f"run-{tag}-{os.getpid()}")
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    inputs = os.path.join(run_dir, "inputs")
    try:
        gen.generate(args.workload, args.size, args.seed, inputs)
        ledger_key = "/".join([tree_digest(os.path.join(SRC, "kusent"), (".py", ".pyx")),
                               tree_digest(HERE, (".py",)), tree_digest(inputs),
                               args.workload, args.size, str(args.seed)])
        base = ["--workload", args.workload, "--inputs", inputs, "--size", args.size]
        setup_samples = []
        if not args.trace:
            for i in range(SETUP_SAMPLES):
                got, spawned = run_child(base + ["--out", os.path.join(run_dir, f"setup{i}"), "--setup-only"],
                                         deadline)
                setup_samples.append(got["ready_wall"] - spawned)
        spans_path = os.path.join(results_dir, f"{tag}.spans.json")
        result, spawned = run_child(
            base + ["--out", os.path.join(run_dir, "out"), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--spans-out", spans_path], deadline)
        setup_samples.append(result["ready_wall"] - spawned)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    checks = result["checks"]
    failures = list(result["failures"])
    jobs = result["jobs"]
    if len(jobs) < 2 or (args.trace and "per_layer" not in result):
        print("error: too few jobs completed: " + "; ".join(failures), file=sys.stderr)
        return 1
    artifacts = jobs[0]["artifacts"]
    same, previous = update_ledger(ledger_key, artifacts)
    checks["artifacts_match_earlier_runs"] = [1, 0 if same else 1]
    if not same:
        failures.append(f"artifacts_match_earlier_runs: {previous} != {artifacts}")
    attempted = sum(n for n, _ in checks.values())
    failed = sum(f for _, f in checks.values())

    cls = worker.WORKLOADS[args.workload]
    # jobs[0] is the warm-up; a run cut short by a failure may have no untraced job left
    untraced = [j for j in jobs[1:] if not j["traced"]] or jobs[1:]
    rates = dict(train_per_s=("train", cls.TRAIN), apply_per_s=("apply", cls.APPLY), **cls.NAMED)
    named = {name: {"value": statistics.median(stage_rate(j, unit, stages) for j in untraced), "unit": "1/s"}
             for name, (unit, stages) in rates.items()}
    for stage in jobs[0]["stages"]:
        named[f"{stage}_s"] = {"value": statistics.median(j["stages"][stage] for j in untraced), "unit": "s"}
    named["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "jobs": len(jobs), "traced_jobs": sum(j["traced"] for j in jobs),
        "setup_samples_s": setup_samples,
        "workload_metrics": named,
        "artifacts_sha256": artifacts,
        "checks": {name: {"attempted": n, "failed": f} for name, (n, f) in checks.items()},
        "failures": failures,
        "machine": result["machine"],
        "reference": result["reference"],
    }
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(detail, result=result), fh, indent=1)

    if args.trace:
        metrics = {name: {"value": value, "unit": worker.LAYER_UNITS[name]}
                   for name, value in result["per_layer"].items()}
    else:
        e2e = {
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "train_per_ref_s": statistics.median(stage_rate(j, "train", cls.TRAIN, "ref_stages")
                                                 for j in untraced),
            "apply_per_ref_s": statistics.median(stage_rate(j, "apply", cls.APPLY, "ref_stages")
                                                 for j in untraced),
        }
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps(detail, ensure_ascii=False))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
