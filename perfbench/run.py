#!/usr/bin/env python3
"""Build and run the RankSQL end-to-end benchmark.

    python3 perfbench/run.py --workload serve_point --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) with a path dependency on the repository, so it
is built from source first, into $CARGO_TARGET_DIR (default .bench_build).
The program then runs with every RANKSQL_* variable removed from its
environment, so neither RANKSQL_THREADS nor RANKSQL_VERIFY can change what
is measured.  Its last stdout line is the JSON result; the exit code is
non-zero when the build fails, the run times out, or any check fails.
`--workload all` runs every workload in turn and ends with one combined
result whose metric names carry the workload as a prefix.
BENCHMARK.json gates serve_point and adhoc_join; ingest_paged runs by hand
and inside every traced run, but its timings are not steady enough to gate.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
WORKLOADS = ("serve_point", "adhoc_join", "ingest_paged")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args()


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def source_id():
    """The commit, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    roots += [ROOT / d for d in ("src", "crates", "vendor", "perfbench")]
    for root in roots:
        files = [root] if root.is_file() else sorted(root.rglob("*")) if root.is_dir() else []
        for f in files:
            if f.is_file() and "target" not in f.relative_to(ROOT).parts:
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_child(cmd, env, timeout):
    """Runs cmd; returns (returncode, stdout), or None on timeout (the
    child is killed and reaped first)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    return proc.returncode, out


def main():
    args = parse_args()
    target = target_dir()
    env = {k: v for k, v in os.environ.items() if not k.startswith("RANKSQL_")}
    env["CARGO_TARGET_DIR"] = str(target)

    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(MANIFEST),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    header = f"# nproc={os.cpu_count()} rustc={rustc_version()!r} source={source_id()} profile=release"
    if args.workload != "all":
        code, _ = run_workload(args.workload, args, target, env, header)
        return code
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_workload(workload, args, target, env, header)
        worst = worst or code
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return worst


def run_workload(workload, args, target, env, header):
    """Runs one workload; returns (exit code, parsed result or None)."""
    binary = target / "release" / "ranksql-perfbench"
    cmd = [
        str(binary),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", str(target / "perfbench-work"),
    ]
    if args.trace:
        trace_file = f"seed{args.seed}.jsonl"
        cmd += ["--trace-out", str(target / "perfbench-traces" / trace_file)]
    print(f"{header} workload={workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    sys.stdout.flush()

    done = run_child(cmd, env, RUN_TIMEOUT_S)
    if done is None:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s and was stopped", file=sys.stderr)
        return 3, None
    code, out = done
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        return code, None
    try:
        result = json.loads(out.rstrip("\n").split("\n")[-1])
    except ValueError:
        print("perfbench: the last line is not a JSON result", file=sys.stderr)
        return 4, None
    if set(result) != RESULT_KEYS or not result["correct"]:
        print("perfbench: malformed or incorrect result", file=sys.stderr)
        return 4, None
    return 0, result


if __name__ == "__main__":
    sys.exit(main())
