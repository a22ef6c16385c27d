#!/usr/bin/env python3
"""Builds the lmbench binary from source and runs one workload.

Usage (from the repository root):

    python3 lmbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary is configured and built with CMake into .bench_build/ (an
incremental no-op after the first build); build output goes to stderr so
the binary's last stdout line stays the JSON result.  Exits non-zero,
printing no result, when the lmpeel sources next to lmbench/ are missing
or the build fails.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def source_sha():
    """SHA-256 over the library and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "lmbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("lmbench: lmpeel sources (src/) not found next to lmbench/",
              file=sys.stderr)
        return 2
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs, "--target",
                 "lmbench"]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("lmbench: build failed", file=sys.stderr)
            return 2
    env = dict(os.environ, LMBENCH_GIT_SHA=git_sha(),
               LMBENCH_SOURCE_SHA=source_sha())
    binary = os.path.join(BUILD, "lmbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
