#!/usr/bin/env python3
"""stackbench: one benchmark for the tmb stack.

Usage (from the root of a source checkout):

    python3 stackbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: kv-atomically, alias-executor and svc-open (see
stackbench/README.md).

The script builds the benchmark (a CMake package in stackbench/ that compiles
../src) into $CARGO_TARGET_DIR/stackbench, or .bench_build/stackbench when that
variable is unset, then runs one workload in its own process.

  --trace 0  one untraced process; reports the end-to-end metrics.
  --trace 1  an untraced and a traced process of seconds/2 each; reports the
             per-layer metrics of the traced one plus the tracing overhead
             (traced end-to-end numbers against the untraced ones).

It prints every metric with its unit and sample count, then, as the last line
of standard output, one JSON object with the keys correct, attempted, failed
and metrics. It exits 1 when an output check failed and 2 when the benchmark
could not be built or run (then without a result line).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kv-atomically", "alias-executor", "svc-open")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"stackbench: {msg}", file=sys.stderr)
    sys.exit(2)


def declared():
    """BENCHMARK.json's metric name -> unit maps."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return e2e, layer


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no tmb sources under {ROOT}/src; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "stackbench")
    binary = os.path.join(build_dir, "stackbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j3"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no {binary}")
    return binary, build_dir


def run_workload(binary, workload, seed, seconds, trace, trace_out=None):
    """Runs one workload process; returns (exit code, parsed result)."""
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={1 if trace else 0}"]
    if trace_out:
        cmd.append(f"--trace-out={trace_out}")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{workload} did not finish: {e}")
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        fail(f"{workload} exited {done.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        return done.returncode, json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} printed no result line")


def show(title, metrics):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:>16.6g} {m['unit']:<6s}"
              f" samples={m['samples']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be > 0")

    e2e_units, layer_units = declared()
    binary, build_dir = build()

    if args.trace == 0:
        code, res = run_workload(binary, args.workload, args.seed,
                                 args.seconds, False)
        show(f"{args.workload} seed={args.seed}: end-to-end "
             "(tracing off)", res["metrics"])
        wanted = e2e_units
        metrics = {k: v for k, v in res["metrics"].items() if k in wanted}
        attempted, failed, correct = (res["attempted"], res["failed"],
                                      res["correct"])
    else:
        half = args.seconds / 2
        code_u, plain = run_workload(binary, args.workload, args.seed, half,
                                     False)
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        # One file per workload, overwritten: a kv trace is ~50 MiB.
        trace_file = os.path.join(trace_dir, f"{args.workload}.sbtrace")
        code_t, traced = run_workload(binary, args.workload, args.seed, half,
                                      True, trace_file)
        code = max(code_u, code_t)
        show(f"{args.workload} seed={args.seed}: end-to-end, tracing off",
             plain["metrics"])
        show(f"{args.workload} seed={args.seed}: traced run "
             f"(spans in {os.path.relpath(trace_file, ROOT)})",
             traced["metrics"])
        metrics = {k: v for k, v in traced["metrics"].items()
                   if k not in e2e_units}
        # Tracing overhead: traced end-to-end numbers against untraced.
        for name in ("ops_per_s", "p50_us", "p99_us"):
            base = plain["metrics"][name]["value"]
            metrics[f"trace.overhead.{name}"] = {
                "value": traced["metrics"][name]["value"] / base - 1
                if base else 0.0,
                "unit": "share", "samples": 2}
        # A layer this workload never reaches reports 0.
        for name, unit in layer_units.items():
            metrics.setdefault(name, {"value": 0.0, "unit": unit,
                                      "samples": 0})
        show("per-layer (0 with samples=0: layer not reached by this "
             "workload)", metrics)
        wanted = layer_units
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        correct = plain["correct"] and traced["correct"]

    # The result line carries exactly the declared metrics.
    for name, unit in wanted.items():
        if name not in metrics:
            fail(f"{args.workload} did not report {name}")
        if metrics[name]["unit"] != unit:
            fail(f"{name}: unit {metrics[name]['unit']} != declared {unit}")
    undeclared = sorted(set(metrics) - set(wanted))
    if undeclared:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(undeclared))

    print(json.dumps({
        "correct": bool(correct) and code == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": metrics[k]["value"],
                        "unit": metrics[k]["unit"]} for k in wanted},
    }))
    sys.exit(0 if code == 0 and correct else 1)


if __name__ == "__main__":
    main()
