#!/usr/bin/env python3
"""Gates the paper outputs of the real-workload benchmark exactly.

    python3 tests/perfbench_fingerprints.py           # check; exit 1 on a mismatch
    python3 tests/perfbench_fingerprints.py --write   # regenerate the committed file

Run it from the repository root. It runs perfbench (perfbench/run.py, which
builds .bench_build/perfbench on first use) in two passes, a --small one at
seed 3 and a full-size one at seed 1, both with --seconds 1 --trace 0, and
reads each workload's cost_ratio, sim_rounds and sim_messages from the
result line. These depend only on the inputs and the seeds, never on
timing, and perfbench_driver prints them with max_digits10 digits, so a check
compares them exactly against tests/goldens/perfbench_fingerprints.json.
"""
import json
import os
import subprocess
import sys

GOLDEN = os.path.join("tests", "goldens", "perfbench_fingerprints.json")
METRICS = ["cost_ratio", "sim_rounds", "sim_messages"]
PASSES = {
    "small": ["--workload", "all", "--seed", "3", "--seconds", "1",
              "--trace", "0", "--small"],
    "full": ["--workload", "all", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
}


def measure(args):
    """{workload: {metric: value}} from one `run.py --workload all` pass."""
    with open("BENCHMARK.json") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    out = subprocess.run([sys.executable, "perfbench/run.py", *args],
                         stdout=subprocess.PIPE, text=True)
    if out.returncode:
        sys.exit(f"perfbench {' '.join(args)} exited {out.returncode}")
    # Each workload's perfbench_driver output ends with its result object, in
    # BENCHMARK.json order; the summary table follows.
    results = []
    for line in out.stdout.splitlines():
        if line.startswith('{"correct"'):
            results.append(json.loads(line))
    if len(results) != len(names):
        sys.exit(f"expected {len(names)} result lines, got {len(results)}")
    return {name: {m: r["metrics"][m]["value"] for m in METRICS}
            for name, r in zip(names, results)}


def main():
    measured = {name: measure(args) for name, args in PASSES.items()}
    if sys.argv[1:] == ["--write"]:
        golden = {"passes": {name: {"args": args, "workloads": measured[name]}
                             for name, args in PASSES.items()}}
        with open(GOLDEN, "w") as f:
            json.dump(golden, f, indent=2)
            f.write("\n")
        print(f"wrote {GOLDEN}")
        return 0
    if sys.argv[1:]:
        sys.exit(__doc__)
    with open(GOLDEN) as f:
        golden = json.load(f)["passes"]
    failures = 0
    for name, want_pass in golden.items():
        for workload, want in want_pass["workloads"].items():
            got = measured[name].get(workload)
            for metric, value in want.items():
                have = None if got is None else got.get(metric)
                status = "ok" if have == value else "MISMATCH"
                if have != value:
                    failures += 1
                print(f"{status}: pass {name}, workload {workload}, metric "
                      f"{metric}: committed {value!r}, measured {have!r}")
    if failures:
        print(f"{failures} fingerprint(s) differ from {GOLDEN}")
        return 1
    print(f"all fingerprints match {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
