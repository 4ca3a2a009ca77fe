#!/usr/bin/env python3
"""Build the benchmark runner from this checkout and run one workload.

Run from the root of the checkout:

    python3 perfbench/run.py --workload vod-encode --seed 1 --seconds 15 --trace 0

The program is configured through the repository's own top-level
CMakeLists.txt (perfbench/CMakeLists.txt adds it as a subdirectory and
adopts its build type and flags) and built under .bench_build/. The
runner's output passes through unchanged; its last line is the result.
Exits non-zero, printing no result, when the build or the run fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("vod-encode", "playback", "transcode", "serve")
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 170


def source_digest():
    """The git commit when the checkout has one, and a digest of every
    file the program and the runner are built from."""
    files = []
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(path)
        for dirpath, _, names in os.walk(path):
            files.extend(os.path.join(dirpath, n) for n in names)
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or "none"
        except (OSError, subprocess.SubprocessError):
            pass
    return "git:%s src-sha256:%s" % (commit, digest.hexdigest()[:16])


def build():
    """Configure and build the runner; returns its path, or None."""
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD],
        ["cmake", "--build", BUILD, "--target", "perfbench_runner",
         "-j", BUILD_JOBS],
    ):
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            sys.stderr.write("perfbench: %s failed\n" % " ".join(cmd[:2]))
            return None
    return os.path.join(BUILD, "perfbench_runner")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds within 1..120")

    runner = build()
    if runner is None:
        return 1
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
