#!/usr/bin/env python3
"""dpnet benchmark: one command per workload run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds dpnet and the
benchmark program from source into .bench_build/, generates the
workload's fixed dataset in a process of its own, runs the workload
with traffic or noise drawn from --seed in another, records the
environment beside the result, and prints the result as the last line
of stdout:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
A failed build, correctness check or run exits non-zero without a
result line.  See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
WORKLOADS = ("serve_scan", "analyses_batch")
RUN_LIMIT_S = 175  # a measured run must end within this, build excluded


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(f"perfbench: {msg}")
    sys.exit(code)


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no dpnet sources under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD_DIR / "dpnet_perfbench"


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-1 over the engine and benchmark sources (paths and bytes)."""
    h = hashlib.sha1()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def filesystem_type(path):
    """fstype of the mount holding `path`, from /proc/mounts."""
    real = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                prefix = mount.rstrip("/") + "/"
                inside = real == mount or real.startswith(prefix)
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def stolen_cpu_s():
    """CPU time the hypervisor gave other guests (steal), from /proc/stat."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def expected_metrics(traced):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    doc = json.loads(spec.read_text())
    return {m["name"] for m in doc["per_layer" if traced else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    binary = build()
    started = time.monotonic()
    work = BUILD_ROOT / "perfbench-run" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir = BUILD_ROOT / "perfbench-out" / args.workload
    trace_file = work / "input.dpnt"

    gen = [str(binary), "gen", "--workload", args.workload,
           "--out", str(trace_file)]
    if subprocess.run(gen, stdout=sys.stderr, timeout=RUN_LIMIT_S).returncode:
        fail("input generation failed")

    env = {
        "nproc": os.cpu_count(),
        "build_type": BUILD_TYPE,
        "seed": args.seed,
        "commit": git_commit(),
        "source_sha1": source_digest(),
        "journal_fs": filesystem_type(work),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    run = [str(binary), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-file", str(trace_file),
           "--scratch", str(work / "scratch"), "--out-dir", str(out_dir)]
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    steal_before = stolen_cpu_s()
    try:
        proc = subprocess.run(run, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired:
        fail("run exceeded its time limit")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"run exited with code {proc.returncode}", proc.returncode)
    steal_after = stolen_cpu_s()
    if steal_before is not None and steal_after is not None:
        env["steal_s"] = round(steal_after - steal_before, 2)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("run printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has unexpected keys")
    expected = expected_metrics(args.trace == 1)
    if expected is not None and set(result["metrics"]) != expected:
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ expected)}")

    results = BUILD_ROOT / "perfbench-results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(
        json.dumps({"env": env, "result": result}, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
