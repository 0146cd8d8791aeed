#!/usr/bin/env python3
"""End-to-end campaign benchmark of ompfuzz (see bench_e2e/README.md).

    python3 bench_e2e/run.py --workload sim-interp --seed 1 --seconds 30 --trace 0

Builds the benchmark binary (bench_e2e/CMakeLists.txt, Release) under .bench_build/ on
first use, runs one workload from the root of the checkout, checks the
campaign digest against bench_e2e/pinned_digests.json, and prints one
metadata line followed, as the last line, by the result object
{"correct", "attempted", "failed", "metrics"}.

Exit status: non-zero without a result when the build or the binary fails;
non-zero with "correct": false when an output check fails.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "bench_e2e"
BINARY = BUILD / "bench_e2e"
PINNED = HERE / "pinned_digests.json"
BINARY_TIMEOUT_S = 170


def log(message):
    print(f"bench_e2e: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds incrementally; build output goes to stderr."""
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", str(min(4, os.cpu_count() or 1))]]
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit(f"bench_e2e: build step failed: {' '.join(step)}")


def first_line(command):
    try:
        out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return "unavailable"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unavailable"


def source_digest():
    """sha256 over the library sources and build file: identifies the code
    under measurement where no git commit is available."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_metadata(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    build_type = "unknown"
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "gxx": first_line(["g++", "--version"]),
        "build_type": build_type,
        "git_commit": first_line(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
        "seed": seed,
    }


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="shrink the workload to a handful of programs")
    return p.parse_args()


def main():
    args = parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("bench_e2e: --seed must be >= 0 and --seconds >= 1")
    build()
    meta = machine_metadata(args.seed)
    if meta["build_type"] != "Release":
        log(f"WARNING: benchmark build type is {meta['build_type']}, not Release; "
            "timings are not comparable")

    tmp = BUILD_ROOT / "tmp"  # g++ temporaries stay inside the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-root", str(BUILD_ROOT / "work"),
               "--trace-file", str(BUILD_ROOT / "traces" / f"{args.workload}-{args.seed}.json")]
    if args.smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S, env=dict(os.environ, TMPDIR=str(tmp)))
    except subprocess.TimeoutExpired:
        sys.exit(f"bench_e2e: benchmark binary exceeded {BINARY_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        sys.exit(f"bench_e2e: benchmark binary exited {proc.returncode} without a result")

    pinned = json.loads(PINNED.read_text()).get(args.workload, {})
    expected = pinned.get(str(args.seed))
    if expected is not None and not args.smoke and detail["digest"] != expected:
        log(f"digest {detail['digest']} != pinned {expected} for seed {args.seed}: "
            "outputs changed")
        result["correct"] = False
        result["failed"] = result["attempted"]
    if result["failed"]:
        log(f"{result['failed']} of {result['attempted']} triples failed their checks")

    print(json.dumps({"meta": meta, "detail": detail}))
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
