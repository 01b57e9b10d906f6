#!/usr/bin/env python3
"""Builds the dflp benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds a
Release tree in .bench_build/perfbench; later runs rebuild incrementally.
Build output goes to .bench_build/perfbench/build.log. Inputs, run records
and span files go to .bench_build/out. Any other flags (--small,
--inject-mismatch N) pass through to the driver; the benchmark's own test
uses them. The last line of standard output is the result object.

--workload all runs every workload BENCHMARK.json names, one after the
other, and ends with a table of their metrics.
"""
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "out")
TARGETS = ["perfbench_driver", "dflp_cli"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt here; run from the root of a dflp checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", *TARGETS])
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-40:]))
                fail(f"build failed: {' '.join(step)}")


def git_sha():
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                         text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_all(command, index):
    """Runs `command` once per workload, with the workload at argv[index]."""
    with open("BENCHMARK.json") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    rows = []
    status = 0
    for name in names:
        command[index] = name
        out = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(out.stdout)
        if out.returncode:
            fail(f"{name} exited {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            status = 1
        rows.append(f"| {name} | attempted | {result['attempted']} | ops |")
        rows.append(f"| {name} | failed | {result['failed']} | ops |")
        for metric, m in result["metrics"].items():
            rows.append(f"| {name} | {metric} | {m['value']:.6g} | {m['unit']} |")
    print("| workload | metric | value | unit |\n|---|---|---|---|")
    print("\n".join(rows))
    return status


def main():
    build()
    driver = os.path.join(BUILD_DIR, "perfbench_driver")
    cli = os.path.join(BUILD_DIR, "tools", "dflp_cli")
    command = [driver, *sys.argv[1:], "--cli", cli, "--out-dir", OUT_DIR,
               "--git-sha", git_sha()]
    index = command.index("--workload") + 1 if "--workload" in command else 0
    if 0 < index < len(command) and command[index] == "all":
        sys.exit(run_all(command, index))
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
