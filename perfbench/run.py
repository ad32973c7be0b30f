#!/usr/bin/env python3
"""Repository benchmark: S2V save, V2S load and a concurrent SQL mix.

Run from the repository root:

    python3 perfbench/run.py --workload s2v_save|v2s_load|sql_mix \\
        --seed N --seconds S --trace 0|1

Builds perfbench/ (and with it the fabric from src/) into .bench_build/,
runs one workload, checks every answer and prints each metric with its
unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. The exit code
is 0 only when every op was correct and deterministic.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave the checkout as it was

import stats  # noqa: E402

WORKLOADS = ("s2v_save", "v2s_load", "sql_mix")
BUILD_DIR = ".bench_build"
BUILD_JOBS = min(4, os.cpu_count() or 1)
# The harness stops measuring after 120 s whatever it is asked; this
# leaves room for set-up and probes inside the benchmark's 180 s.
HARNESS_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_harness",
         "-j", str(BUILD_JOBS)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench_harness")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        log("perfbench: the fabric sources (src/) are not next to "
            "perfbench/; run from a full checkout")
        return 2

    build_dir = os.path.abspath(BUILD_DIR)
    try:
        harness = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"perfbench: build failed: {error}")
        return 2

    runs = os.path.join(build_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, f"{args.workload}-seed{args.seed}-"
                              f"trace{args.trace}")
    record_path, spans_path = stem + ".record.json", stem + ".spans.json"
    command = [harness, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--out", record_path]
    if args.trace:
        command += ["--spans", spans_path]
    try:
        subprocess.run(command, check=True, timeout=HARNESS_TIMEOUT_S,
                       stdout=sys.stderr)
    except (OSError, subprocess.SubprocessError) as error:
        log(f"perfbench: harness failed: {error}")
        return 1

    with open(record_path) as f:
        record = json.load(f)
    spans = []
    if args.trace:
        with open(spans_path) as f:
            spans = json.load(f)["spans"]
        values = stats.per_layer(record, spans)
        units = stats.PER_LAYER
    else:
        values = stats.end_to_end(record)
        units = {name: unit for name, (unit, _) in stats.END_TO_END.items()}

    ops = record["ops"]
    failed = sum(1 for op in ops if not op["ok"])
    tail_pct, _ = stats.tail([op["host_ms"] for op in ops], record["min_ops"])
    missing = [name for name, value in values.items() if value is None]
    correct = (record["failures"] == 0 and record["determinism_checked"] > 0
               and not missing)
    for error in record["errors"]:
        log(f"perfbench: FAILED {error}")
    if record["determinism_checked"] == 0:
        log("perfbench: FAILED no op repeated, so determinism is unchecked")
    if missing:
        log(f"perfbench: FAILED no value for {', '.join(missing)} "
            f"({len(ops)} ops of {record['min_ops']} required)")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": record["inputs"],
        "input_labels": record["input_labels"],
        "samples": len(ops),
        "tail_percentile": tail_pct,
        "determinism_checked": record["determinism_checked"],
        "metrics": values,
        "span_self_times": stats.self_time_by_name(spans),
    }
    with open(stem + ".report.json", "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops, "
          f"{failed} failed, tail at p{tail_pct} of {len(ops)} samples, "
          f"{record['determinism_checked']} repetitions checked")
    print(f"host times at the reference speed: scale "
          f"{stats.run_scale(record):.4f} (reference sample median "
          f"{stats.REF_NOMINAL_MS / stats.run_scale(record):.4f} ms, "
          f"nominal {stats.REF_NOMINAL_MS} ms)")
    print("inputs: " + ", ".join(
        f"{k}={v:g}" for k, v in sorted(record["inputs"].items())))
    for name, value in values.items():
        if value is not None:
            print(f"  {name:40s} {value:16.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items() if value is not None},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
