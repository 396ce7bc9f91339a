#!/usr/bin/env python3
"""Build the conquer CLI and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload serve-miss --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run it from the root of the repository.  The last line of standard output
is the run's JSON result (see README.md).  `--workload all` runs every
workload in turn and ends with a summary table instead.
"""

import argparse
import os
import resource
import signal
import subprocess
import sys

WORKLOADS = ["serve-miss", "serve-hot", "offline-assign"]
BUILD_DIR = "_build/default"
WORK_DIR = ".perfbench_work"
# address-space cap for the benchmark and the daemons it starts: a
# runaway query fails with Out_of_memory instead of exhausting the host
MEMORY_LIMIT = 4 << 30


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "bin/conquer_cli.ml", "lib", "perfbench/dune"):
        if not os.path.exists(needed):
            fail("not a conquer source tree (missing %s); run from the repository root" % needed)
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./bin/conquer_cli.exe", "./perfbench/perfbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build failed")


def run_one(workload, seed, seconds, trace):
    exe = os.path.join(BUILD_DIR, "perfbench", "perfbench.exe")
    cli = os.path.abspath(os.path.join(BUILD_DIR, "bin", "conquer_cli.exe"))
    work = os.path.abspath(os.path.join(WORK_DIR, workload))
    proc = subprocess.Popen(
        [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--cli", cli, "--work", work],
        stdout=subprocess.PIPE, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT)))

    def forward(signum, _frame):
        proc.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    out, _ = proc.communicate()
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    if args.workload != "all":
        code, _ = run_one(args.workload, args.seed, args.seconds, args.trace)
        sys.exit(code)
    worst = 0
    summary = []
    for w in WORKLOADS:
        code, out = run_one(w, args.seed, args.seconds, args.trace)
        worst = worst or code
        lines = [l for l in out.splitlines() if l.startswith("  ") and len(l.split()) >= 3]
        summary.append((w, code, lines))
    print("\nsummary (seed %d, %d s per workload):" % (args.seed, args.seconds))
    for w, code, lines in summary:
        print("%s%s" % (w, "" if code == 0 else "  [exit %d]" % code))
        for l in lines:
            parts = l.split()
            try:
                float(parts[1])
            except ValueError:
                continue
            print("  " + l.strip())
    sys.exit(worst)


if __name__ == "__main__":
    main()
