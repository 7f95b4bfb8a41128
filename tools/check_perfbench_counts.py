#!/usr/bin/env python3
"""Check perfbench's exactly-repeating traced counts against a baseline.

Usage (from the repository root):
    python3 tools/check_perfbench_counts.py [--update]

For each workload in PERFBENCH_COUNTS.json, runs

    python3 perfbench/run.py --workload W --seed S --seconds 1 --trace 1

with the baseline's seed and compares every count the baseline lists for
that workload with the fresh value, exactly. The baseline is the one list
of counts checked. These counts depend only on the seed and on the
engine's work (sweep events, publishes, WAL bytes, memory rows), not on
the host, so any difference is a change in what the program does. A
change that moves a count on purpose reruns this with --update, which
rewrites the values of the counts already listed, and says why in
CHANGES.md.

Exit codes: 0 = identical, 1 = a count differs or is missing, 2 = a
failed benchmark run. Stdlib only; do not add dependencies.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "PERFBENCH_COUNTS.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the listed counts from fresh runs")
    args = parser.parse_args()
    with open(BASELINE, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)

    differences = []
    for workload, committed in sorted(baseline["workloads"].items()):
        command = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(baseline["seed"]), "--seconds", "1",
                   "--trace", "1"]
        print("$ python3 " + " ".join(command[1:]), flush=True)
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        if done.returncode != 0:
            print(f"error: perfbench exited with {done.returncode}",
                  file=sys.stderr)
            return 2
        metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
        for name, want in sorted(committed.items()):
            got = metrics.get(name, {}).get("value")
            if got != want:
                differences.append(f"{workload} {name}: committed {want!r}, "
                                   f"fresh {got!r}")
            committed[name] = got

    if args.update:
        with open(BASELINE, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {BASELINE}")
        return 0
    if differences:
        print("traced counts changed:")
        for line in differences:
            print("  " + line)
        return 1
    print("every count in PERFBENCH_COUNTS.json is identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
