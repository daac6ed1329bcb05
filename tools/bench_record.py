"""Write a ``BENCH_<n>.json`` from perfbench result files, and compare it with an earlier one.

Each input is the result file of one untraced perfbench run
(``perfbench/run.py --trace 0`` writes ``.perfbench_work/results/<run>.json``).
The end-to-end metrics are computed from it as ``perfbench/run.py`` prints
them. Per workload the output holds, for each metric, the median, the
quartiles (inclusive method), the IQR and every run's value in seed order,
and also the seeds, the run count and whether every run was correct. It also
holds the machine facts the runs share and the commit they measured.

    python tools/bench_record.py --pr 16 --commit <sha> \\
        [--previous BENCH_15.json] <checkout>/.perfbench_work/results/*-trace0.json

``--previous`` prints each median against the earlier file's, and, on the
seeds both files ran, how many runs beat the earlier run of the same seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the benchmark's stage groups live in its worker, which imports kusent
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import worker  # noqa: E402
from run import END_TO_END, stage_rate  # noqa: E402

# per-run readings, not facts of the machine
_NOT_MACHINE = ("kusent_file", "sgemm_gflops")


def run_metrics(result: dict) -> dict[str, float]:
    """The end-to-end metrics of one run's result file, as ``perfbench/run.py`` prints them."""
    jobs = result["result"]["jobs"]
    cls = worker.WORKLOADS[result["workload"]]
    # jobs[0] is the warm-up; a run cut short by a failure may have no untraced job left
    untraced = [j for j in jobs[1:] if not j["traced"]] or jobs[1:]
    return {
        "setup_s": statistics.median(result["setup_samples_s"]),
        "peak_rss_mb": result["result"]["peak_rss_kb"] / 1024.0,
        "train_per_ref_s": statistics.median(
            stage_rate(j, "train", cls.TRAIN, "ref_stages") for j in untraced),
        "apply_per_ref_s": statistics.median(
            stage_rate(j, "apply", cls.APPLY, "ref_stages") for j in untraced),
    }


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def record(paths: list[str], pr: int, commit: str) -> dict:
    runs: dict[str, list[dict]] = {}
    machine = None
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        if result["trace"]:
            raise ValueError(f"{path}: a traced run has no end-to-end metrics")
        facts = {k: v for k, v in result["machine"].items() if k not in _NOT_MACHINE}
        if machine is not None and facts != machine:
            raise ValueError(f"{path}: machine facts differ from the other runs'")
        machine = facts
        runs.setdefault(result["workload"], []).append(result)
    workloads = {}
    for name, results in sorted(runs.items()):
        results.sort(key=lambda r: r["seed"])
        seeds = [r["seed"] for r in results]
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"{name}: more than one run of a seed")
        metrics = [run_metrics(r) for r in results]
        workloads[name] = {
            "runs": len(results),
            "seeds": seeds,
            "correct": all(not r["failures"] and all(c["failed"] == 0 for c in r["checks"].values())
                           for r in results),
            "metrics": {
                m: dict(unit=unit, **summary([x[m] for x in metrics])) for m, unit in END_TO_END.items()
            },
        }
    return {"pr": pr, "commit": commit, "machine": machine, "workloads": workloads}


def compare(bench: dict, previous: dict, better: dict[str, str]) -> list[str]:
    """One line per workload and metric: the earlier median, this median, the change, and
    the same-seed runs this file wins (when both ran the same seeds)."""
    lines = []
    for name, now in bench["workloads"].items():
        before = previous["workloads"].get(name)
        if before is None:
            continue
        for metric, cur in now["metrics"].items():
            old = before["metrics"][metric]
            line = (f"{name} {metric}: {old['median']:.4g} (IQR {old['iqr']:.3g}) -> "
                    f"{cur['median']:.4g} (IQR {cur['iqr']:.3g}), {cur['median'] / old['median'] - 1:+.1%}")
            if now["seeds"] == before["seeds"]:
                sign = 1 if better[metric] == "higher" else -1
                wins = sum(sign * (a - b) > 0 for a, b in zip(cur["values"], old["values"]))
                line += f", wins {wins} of {len(cur['values'])} same-seed pairs"
            lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("results", nargs="+", help="perfbench result files of untraced runs")
    parser.add_argument("--pr", type=int, required=True, help="the number n of BENCH_<n>.json")
    parser.add_argument("--commit", required=True, help="the commit the runs measured")
    parser.add_argument("--out", help="output path (default: BENCH_<pr>.json at the repository root)")
    parser.add_argument("--previous", help="an earlier BENCH_<n>.json to compare with")
    args = parser.parse_args(argv)
    bench = record(args.results, args.pr, args.commit)
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if args.previous:
        with open(args.previous, encoding="utf-8") as fh:
            previous = json.load(fh)
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
        print("\n".join(compare(bench, previous, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
