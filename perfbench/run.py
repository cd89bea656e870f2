#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload kv-e2e --seed 1 --seconds 20 --trace 0

Builds the splitsim library from ../src together with splitsim_perfbench
(perfbench/CMakeLists.txt) into .bench_build/ at the repository root, then
runs one workload in one process. Its last stdout line is the JSON
result. Build output goes to stderr. Extra flags (--pin, --self-test) pass
through to splitsim_perfbench; see perfbench/NOTES.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "splitsim_perfbench")


def build(env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs, "--target", "splitsim_perfbench"]):
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    # Keep compiler temporaries inside the build tree too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    build(env)
    cmd = [BINARY, "--spec", os.path.join(ROOT, "BENCHMARK.json"),
           "--pins", os.path.join(HERE, "pins.json"),
           "--out-dir", os.path.join(ROOT, ".bench_build", "perfbench-out")] + sys.argv[1:]
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
