#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The binary is built with cargo into
$CARGO_TARGET_DIR (default `.bench_build`); traces and result files go to
`<target>/perfbench-out/`. The last line of standard output is the
result object the binary prints. Exit status: 0 when every step passed
its correctness checks, 1 when one failed, 2 on a usage, build or
set-up error (nothing is printed as a result then).
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
# Sources whose digest identifies the measured code when the checkout is
# not a git repository.
SOURCE_DIRS = ("crates", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Width of the workloads' thread pool. On the 2-vCPU VM where the
# benchmark was defined, a two-thread pool gained only about 1.4x over one
# thread (1.3-1.6x) and its run-to-run step spread was 0.25-0.37, against
# 0.09-0.10 with one thread: the second vCPU's speed varied with the
# host's load.
THREADS = 1


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def command_output(argv):
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the benchmark's and the workspace crates' sources."""
    digest = hashlib.sha256()
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def thread_count():
    nproc = len(os.sched_getaffinity(0))
    return nproc, min(THREADS, nproc)


def main():
    args = sys.argv[1:]
    if "--workload" not in args or "--seed" not in args or "--seconds" not in args:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    if not os.path.isdir(os.path.join(ROOT, "crates", "fl")):
        fail(f"no workspace sources under {ROOT}/crates; run from a full checkout")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    nproc, threads = thread_count()
    env["RAYON_NUM_THREADS"] = str(threads)

    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if built.returncode != 0:
        fail(f"build failed with status {built.returncode}")

    # Only this checkout's own commit: a parent directory's repository
    # would name code that is not the code measured.
    toplevel = command_output(["git", "rev-parse", "--show-toplevel"])
    same_root = toplevel is not None and os.path.realpath(toplevel) == os.path.realpath(ROOT)
    commit = command_output(["git", "rev-parse", "HEAD"]) if same_root else None
    provenance = {
        "nproc": nproc,
        "rayon_num_threads": threads,
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "git_commit": commit or "none (not a git checkout)",
        "source_sha256": source_digest(),
    }
    binary = os.path.join(target, "release", "perfbench")
    argv = [binary, *args, "--out-dir", os.path.join(target, "perfbench-out"),
            "--provenance", json.dumps(provenance, sort_keys=True)]
    try:
        run = subprocess.run(argv, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    except OSError as e:
        fail(f"cannot start {binary}: {e}")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
