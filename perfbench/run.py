#!/usr/bin/env python3
"""Builds and runs the SMRP workspace benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a Cargo package of its own that depends on the
workspace crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs one workload, and passes its output through.
The last line of the output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
`end_to_end` metrics of `BENCHMARK.json`, with `--trace 1` its `per_layer`
metrics; a result that names other metrics or units makes the run fail.
Spans of a traced run are written to
`$CARGO_TARGET_DIR/perfbench/spans-<workload>-<seed>.jsonl`.

Exits 0 when every check passed, 1 when a check failed or the program
misbehaved, and 2 when the workspace sources are missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["campaign-mix", "hierarchy-audit", "churn-4k", "scale-40k"]
# A run measures for --seconds and then finishes its last unit of work;
# nothing a workload does takes this long.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns a list of problems with the result line."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, units {units}")
    if result["attempted"] < 1:
        problems.append("nothing was attempted")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be non-negative and --seconds positive", 2)

    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "crates", "faultlab", "Cargo.toml")):
        return fail("the workspace crates are missing; run from a full checkout", 2)

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        return fail("build failed")

    command = [
        os.path.join(target, "release", "smrp-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        spans_dir = os.path.join(target, "perfbench")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(spans_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    problems = check_result(lines[-1], args.trace) if lines and lines[-1] else ["no output"]
    print(run.stdout, end="")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    if run.returncode != 0:
        return fail(f"{args.workload} exited with code {run.returncode}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
