#!/usr/bin/env python3
"""Two-clock benchmark of citusx: YCSB-A, TPC-C and TPC-H on Citus 4+1.

    python3 perfbench/run.py --workload {ycsb_a|tpcc|tpch|all} --seed N \
        --seconds S --trace {0|1}

Builds perfbench/ (and with it the citusx libraries) into .bench_build/,
pins each round to the idlest allowed CPU, and runs `twoclock` rounds:

  --trace 0  untraced rounds (7 for ycsb_a, 5 for tpcc, 3 for tpch), each a
             fresh process with its own sub-seed that sets up the deployment
             and measures S/rounds host seconds. Virtual metrics pool the raw samples of the rounds'
             fixed virtual windows; host metrics, setup_s and peak_rss_mb are
             the median of the rounds.
  --trace 1  an untraced and a traced round of the same sub-seed; prints the
             per-layer metrics and the tracing overhead. The simulated run
             must repeat exactly under tracing (same sim events and counter
             deltas).

Prints every metric by name with its unit, then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. The metric names and
units are read from BENCHMARK.json. Exits 1 when a correctness gate fails or
the build fails. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Untraced rounds per run: set-ups are cheap for the OLTP workloads, so they
# take more, shorter rounds (the medians then shrug off a slow round).
ROUNDS = {"ycsb_a": 7, "tpcc": 5, "tpch": 3}
ROUND_TIMEOUT_S = 170
WORKLOADS = ["ycsb_a", "tpcc", "tpch"]
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))  # before any pinning


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build twoclock; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no citusx sources next to perfbench/ (expected src/)")
        return None
    out = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    cmds = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + gen,
        ["cmake", "--build", out, "--target", "twoclock", "-j",
         str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in cmds:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "twoclock")


def pin_to_idlest_cpu():
    """Pins this process (and so the next round) to the allowed CPU that was
    idlest over a short sample. The simulation runs one thread at a time:
    one core removes cross-core wakeups without hiding CPU work."""
    def idle():
        out = {}
        with open("/proc/stat") as f:
            for line in f:
                parts = line.split()
                if parts[0].startswith("cpu") and parts[0] != "cpu":
                    out[int(parts[0][3:])] = int(parts[4]) + int(parts[5])
        return out
    try:
        a = idle()
        time.sleep(0.1)
        b = idle()
        cpu = max(ALLOWED_CPUS, key=lambda c: (b.get(c, 0) - a.get(c, 0), c))
    except (OSError, ValueError, IndexError):
        cpu = ALLOWED_CPUS[-1]
    os.sched_setaffinity(0, {cpu})
    return cpu


def stamp():
    """Commit (when in a git checkout) and a digest of the sources built."""
    commit = "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                            "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        lines = r.stdout.split()
        # Only the repository this tree is the root of, not an enclosing one.
        if r.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, IndexError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return {"commit": commit, "source_sha256": h.hexdigest()}


def run_round(binary, workload, seed, host_seconds, trace, spans=None):
    start_ns = time.monotonic_ns()
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--host-seconds", repr(host_seconds), "--trace",
           "1" if trace else "0", "--start-ns", str(start_ns)]
    if spans:
        cmd += ["--spans", spans]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "round timed out"
    lines = [l for l in r.stdout.splitlines() if l.startswith("{")]
    if not lines:
        return None, "twoclock exited %d without a result" % r.returncode
    return json.loads(lines[-1]), None


def percentile(samples, p):
    """Nearest-rank percentile of raw samples."""
    if not samples:
        return 0.0
    rank = max(1, min(len(samples), math.ceil(p / 100.0 * len(samples))))
    return samples[rank - 1]


def measure(binary, workload, seed, seconds, trace, report_dir):
    """Runs the rounds of one workload; returns (metrics, summary)."""
    errors = []
    rounds = []
    # Round r of seed s runs the inputs of sub-seed 16*s + r: the untraced
    # rounds pool their virtual samples; the traced round replays round 0.
    rounds_n = ROUNDS[workload]
    plan = [(r, False, None) for r in range(rounds_n)] if not trace else [
        (0, False, None),
        (0, True, os.path.join(report_dir,
                               "spans-%s-seed%d.tsv" % (workload, seed))),
    ]
    cpus = []
    for r, traced, spans in plan:
        cpus.append(pin_to_idlest_cpu())
        res, err = run_round(binary, workload, 16 * seed + r,
                             seconds / rounds_n, traced, spans)
        if err:
            return None, {"errors": [err]}
        rounds.append(res)
        errors += res["errors"]
        if res["first_error"]:
            log("perfbench: %s: an op failed: %s" % (workload, res["first_error"]))
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if trace:
        untraced, traced = rounds
        # Tracing must not change the simulated run.
        if untraced["determinism_digest"] != traced["determinism_digest"]:
            errors.append("the traced run diverged from the untraced one "
                          "(sim events or counter deltas differ)")
        metrics = dict(traced["layers"])
        metrics["sim.host_us_per_event"] = untraced["layers"]["sim.host_us_per_event"]
        metrics["fail_frac"] = failed / attempted if attempted else 0.0
        metrics["trace.overhead_pct"] = 100.0 * (
            traced["host"]["fixed_window_norm_s"] /
            untraced["host"]["fixed_window_norm_s"] - 1)
    else:
        lat_ms = sorted(ns / 1e6 for r in rounds for ns in r["virt"]["lat_ns"])
        cycle = rounds[0]["host"]["cycle_ops"]
        if cycle:
            # One client cycling a fixed op list: each op's host time is its
            # own, so take every op's median over the passes of all rounds
            # (host times are at the reference slice's nominal speed).
            per_op = [[] for _ in range(cycle)]
            for r in rounds:
                for i, h in enumerate(r["host"]["op_host_s"]):
                    per_op[i % cycle].append(h)
            host_ops_per_s = cycle / sum(statistics.median(p) for p in per_op)
        else:
            host_ops_per_s = statistics.median(r["host"]["ops_per_s"]
                                               for r in rounds)
        window_s = sum(r["virt"]["window_s"] for r in rounds)
        med = lambda part, key: statistics.median(r[part][key] for r in rounds)
        metrics = {
            "virt_ops_per_s": len(lat_ms) / window_s,
            "virt_p50_ms": percentile(lat_ms, 50),
            "virt_p90_ms": percentile(lat_ms, 90),
            "virt_p99_ms": percentile(lat_ms, 99),
            "virt_load_s": med("virt", "load_s"),
            "host_ops_per_s": host_ops_per_s,
            "setup_s": med("host", "setup_s"),
            "peak_rss_mb": med("host", "peak_rss_mb"),
        }
    for r in rounds:
        del r["virt"]["lat_ns"], r["host"]["op_host_s"]
    summary = {
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "samples": sum(r["virt"]["samples"] for r in rounds),
        "shape": rounds[0]["shape"],
        "cost_model": rounds[0]["cost_model"],
        "cpus": cpus,
        "rounds": rounds,
    }
    return metrics, summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    if binary is None:
        return 1
    report_dir = os.path.join(build_dir(), "reports")
    os.makedirs(report_dir, exist_ok=True)
    st = stamp()
    log("perfbench: commit %s, sources %s, seed %d" %
        (st["commit"], st["source_sha256"][:16], args.seed))

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, out_metrics = True, 0, 0, {}
    for w in workloads:
        metrics, summary = measure(binary, w, args.seed, args.seconds,
                                   bool(args.trace), report_dir)
        if metrics is None or summary["errors"]:
            correct = False
            for e in summary["errors"]:
                log("perfbench: %s: correctness gate failed: %s" % (w, e))
        if metrics is None:
            continue
        attempted += summary["attempted"]
        failed += summary["failed"]
        shape = summary["shape"]
        print("== %s  seed=%d  commit=%s  cost_model=%s  samples=%d  "
              "clients=%d  worker pools=%.0f MB" %
              (w, args.seed, st["commit"][:12],
               summary["cost_model"]["fingerprint"], summary["samples"],
               shape["clients"], shape["worker_pools_mb"]))
        for m in wanted:
            if m["name"] not in metrics:
                correct = False
                log("perfbench: %s: metric %s missing" % (w, m["name"]))
                continue
            value = metrics[m["name"]]
            key = m["name"] if len(workloads) == 1 else w + "." + m["name"]
            out_metrics[key] = {"value": value, "unit": m["unit"]}
            print("  %-44s %16.6g %s" % (m["name"], value, m["unit"]))
        report = dict(stamp=st, workload=w, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, metrics=metrics,
                      **summary)
        path = os.path.join(report_dir, "%s-seed%d-trace%d.json" %
                            (w, args.seed, args.trace))
        with open(path, "w") as f:
            json.dump(report, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
