#!/usr/bin/env python3
"""Build and run the parafile benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the `pf` daemon binary and the benchmark harness (release, offline,
into $CARGO_TARGET_DIR, default `.bench_build`), clears the program's `PF_*`
environment knobs and runs one workload; the last line of standard output
is the result as one JSON object.

    python3 perfbench/run.py --steady 10 [--workloads a,b] [--seconds S] [--trace 0|1]

runs each workload once per seed 1..10 and prints, per metric, the median,
the quartiles and the quartile spread as a share of the median.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The workloads BENCHMARK.json gates on, and one run for reference only:
# durable_records is fsync-bound and its write figures drift with the disk
# far beyond any useful bound (README).
WORKLOADS = ["matrix_redist", "replicated_records", "view_churn"]
REFERENCE = ["durable_records"]
# One run may take at most this long, set-up and checks included.
RUN_TIMEOUT_S = 170


def clean_env():
    """The environment without the program's PF_* knobs (PF_NET_WORKERS,
    PF_NET_CHUNK, PF_PLAN_CACHE, PF_REACTOR, ...), so the shipped defaults
    are measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PF_")}
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    return env


def build(env):
    """Builds `pf` (the repository's workspace) and the harness (its own
    package); returns their paths. Build output goes to standard error."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "pf-tools", "--bin", "pf"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    return os.path.join(release, "pf"), os.path.join(release, "perfbench")


def provenance():
    """The commit when the checkout is a git repository, and a digest of
    the sources either way."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "perfbench/src", "perfbench/Cargo.toml"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            if f.endswith((".rs", ".toml", ".lock")):
                digest.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    digest.update(fh.read())
    return commit, digest.hexdigest()[:16]


def run_once(binaries, env, workload, seed, seconds, trace, capture):
    """Runs the harness once in its own process group, so that a timeout
    stops the daemons it started too."""
    pf, harness = binaries
    work = os.path.join(env["CARGO_TARGET_DIR"], "perfbench-work")
    cmd = [harness, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--pf", pf, "--work", work]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: {workload} seed {seed} ran past {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def steady(binaries, env, args):
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    seeds = range(1, args.steady + 1)
    for w in workloads:
        results = []
        for seed in seeds:
            code, out = run_once(binaries, env, w, seed, args.seconds, args.trace, capture=True)
            last = out.decode().strip().splitlines()[-1] if out else ""
            if code != 0 or not last.startswith("{"):
                sys.exit(f"perfbench: {w} seed {seed} exited {code}")
            results.append(json.loads(last))
            print(f"{w} seed {seed}: " + last, flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{w}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}, "
              f"failed shares: {sorted(shares)}")
        print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{name:28} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f}")
        print(flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + REFERENCE)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, metavar="RUNS")
    ap.add_argument("--workloads", help="comma-separated subset for --steady")
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be 1..60")
    if (args.steady is None) == (args.workload is None):
        ap.error("give either --workload or --steady")
    env = clean_env()
    binaries = build(env)
    commit, digest = provenance()
    print(f"commit: {commit}; source digest: {digest}", flush=True)
    if args.steady:
        steady(binaries, env, args)
        return 0
    code, _ = run_once(binaries, env, args.workload, args.seed, args.seconds, args.trace, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
