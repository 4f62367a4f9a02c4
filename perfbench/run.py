#!/usr/bin/env python3
"""Run one X-RDMA benchmark workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (``perfbench/``, a Cargo package of its own that
depends on the repository's crates by path) and runs the workload in a
fresh process. ``--trace 0`` prints every end-to-end metric of
BENCHMARK.json; ``--trace 1`` runs the untraced build for half of the
time and the traced build (``--features telemetry``) for the other half
and prints every per-layer metric, plus the traced run's spans under
``perfbench/out/``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Whole-process limit for one invocation after the build.
RUN_LIMIT_S = 170
# Per-layer metrics whose host cost the tracing itself would distort:
# in a traced invocation they come from the untraced half.
FROM_UNTRACED = ("sim.cost_drift", "sim.allocs_per_event", "sim.alloc_bytes_per_event")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build(target_dir, traced):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
           "--target-dir", target_dir]
    if traced:
        cmd += ["--features", "telemetry"]
    # Cargo's output goes to stderr so stdout carries only results.
    res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        fail("build failed")
    return os.path.join(target_dir, "release", "xrdma-perfbench")


def run_child(binary, args, seconds, deadline, spans=None):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds)]
    if spans:
        cmd += ["--spans", spans]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("no time left to run")
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_LIMIT_S} s")
    lines = res.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark process exited with {res.returncode} and printed nothing")
    out = json.loads(lines[-1])
    if res.returncode != 0 and out.get("correct", False):
        fail(f"benchmark process exited with {res.returncode}")
    return out


def span_table(path):
    """Self time per span name of the traced run, largest first."""
    by_name = {}
    wall = 0
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            e = by_name.setdefault(s["name"], [0, 0])
            e[0] += 1
            e[1] += s["self_ns"]
            if s["parent"] < 0:
                wall += s["end_ns"] - s["start_ns"]
    rows = sorted(by_name.items(), key=lambda kv: -kv[1][1])
    lines = [f"traced wall {wall / 1e6:.3f} ms; span self time by name:"]
    for name, (n, ns) in rows:
        share = ns / wall if wall else 0.0
        lines.append(f"  {name:<22} {n:>8} spans {ns / 1e6:>10.3f} ms {share:>7.1%}")
    return "\n".join(lines)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_json):
        fail("BENCHMARK.json not found at the repository root")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the repository's crates/ are missing; the benchmark builds them from source")
    with open(bench_json) as f:
        bench = json.load(f)
    names = {w["name"] for w in bench["workloads"]}
    if args.workload not in names:
        fail(f"unknown workload {args.workload}; one of {sorted(names)}")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(BENCH_DIR, "target")
    target = os.path.abspath(os.path.join(ROOT, target))
    plain = build(target, traced=False)
    traced = build(os.path.join(target, "traced"), traced=True) if args.trace else None

    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        half = max(args.seconds / 2, 0.5)
        base = run_child(plain, args, half, deadline)
        out_dir = os.path.join(BENCH_DIR, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.spans.jsonl")
        res = run_child(traced, args, half, deadline, spans=spans)
        values = dict(res["values"])
        for k in FROM_UNTRACED:
            values[k] = base["values"][k]
        values["telemetry.overhead"] = (res["values"]["host_ns_per_op"]
                                        / base["values"]["host_ns_per_op"])
        correct = res["correct"] and base["correct"]
        if res["info"]["virtual_digest"] != base["info"]["virtual_digest"]:
            print("perfbench: the traced and untraced builds differ in virtual results",
                  file=sys.stderr)
            correct = False
        if os.path.isfile(spans):
            print(span_table(spans), file=sys.stderr)
        metrics_spec = bench["per_layer"]
    else:
        res = run_child(plain, args, args.seconds, deadline)
        values = res["values"]
        correct = res["correct"]
        metrics_spec = bench["end_to_end"]

    # Every end-to-end metric must be measured; a per-layer metric the
    # workload does not exercise reads 0 and is listed as not applicable.
    metrics = {}
    not_applicable = []
    for m in metrics_spec:
        name = m["name"]
        if name not in values:
            if not args.trace:
                fail(f"the benchmark did not report {name}")
            values[name] = 0.0
            not_applicable.append(name)
        metrics[name] = {"value": values[name], "unit": m["unit"]}
    info = dict(res["info"])
    if args.trace:
        info["not_applicable"] = not_applicable
    info["rustc"] = command_output(["rustc", "--version"]) or "unknown"
    info["git_rev"] = command_output(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)"
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": bool(correct), "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
