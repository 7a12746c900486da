#!/usr/bin/env python3
"""Same-host perf gate: the ratio of two commands' medians.

    perf_ratio.py QUANTITY (--max R | --min R) "CMD_A" "CMD_B"

Runs CMD_A and CMD_B (each an `xisa_exp` command line, optionally led
by VAR=VALUE environment assignments) in alternating order for PAIRS
pairs, every run at XISA_QUICK=1 and XISA_BENCH_THREADS=1 unless its
own assignments set them otherwise, and compares
the medians of one host quantity: `wall`, the process wall time this
script measures, or a host field of the run's --json report (`mips`,
`events_per_sec`). It fails when median(A) / median(B) is above --max
or below --min. Both commands run on this host in the same job, so the
bound compares engines and builds, not machines. The report also gives
the smallest and largest A/B ratio of one pair, to show how noisy the
host was.

The simulated numbers are not gated here: the goldens pin them exactly
(tests/golden_check.cmake).

Exit status: 0 within bound, 1 past it, 2 usage error or failed run.
"""

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time

PAIRS = 11


def die(message):
    print(f"perf_ratio: {message}", file=sys.stderr)
    sys.exit(2)


def parse_command(text):
    """(env overrides, argv) of a command line led by VAR=VALUE words."""
    words = shlex.split(text)
    env = {}
    while words and "=" in words[0]:
        name, _, value = words.pop(0).partition("=")
        env[name] = value
    if not words:
        die(f"no command in {text!r}")
    return env, words


def measure(command, quantity, json_path):
    """One run of `command`: its wall seconds or its --json field."""
    env_over, argv = command
    env = {**os.environ, "XISA_QUICK": "1", "XISA_BENCH_THREADS": "1",
           **env_over}
    if quantity != "wall":
        argv = argv[:1] + ["--json", json_path] + argv[1:]
    t0 = time.perf_counter()
    rc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - t0
    if rc != 0:
        die(f"{shlex.join(argv)} exited with {rc}")
    if quantity == "wall":
        return wall
    with open(json_path) as f:
        report = json.load(f)
    if quantity not in report:
        die(f"--json of {shlex.join(argv)} has no {quantity!r}")
    return float(report[quantity])


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("quantity",
                    help="wall, or a host field of the --json report")
    bound = ap.add_mutually_exclusive_group(required=True)
    bound.add_argument("--max", type=float,
                       help="fail if median(A) / median(B) exceeds this")
    bound.add_argument("--min", type=float,
                       help="fail if median(A) / median(B) is below this")
    ap.add_argument("a", help="command A (the change)")
    ap.add_argument("b", help="command B (the reference)")
    args = ap.parse_args()

    commands = [parse_command(args.a), parse_command(args.b)]
    samples = [[], []]
    with tempfile.TemporaryDirectory() as tmp:
        json_path = os.path.join(tmp, "perf.json")
        for pair in range(PAIRS):
            for side in (0, 1) if pair % 2 == 0 else (1, 0):
                samples[side].append(
                    measure(commands[side], args.quantity, json_path))

    med_a, med_b = (statistics.median(s) for s in samples)
    ratio = med_a / med_b
    pair_ratios = [a / b for a, b in zip(*samples)]
    ok = ratio <= args.max if args.max is not None else ratio >= args.min
    limit = (f"<= {args.max}" if args.max is not None
             else f">= {args.min}")
    print(f"perf_ratio: {args.quantity} median A {med_a:.6g}, "
          f"B {med_b:.6g} over {PAIRS} pairs: A/B = {ratio:.3f} "
          f"(per pair {min(pair_ratios):.3f}..{max(pair_ratios):.3f}) "
          f"(want {limit}) {'ok' if ok else 'FAIL'}")
    print(f"  A: {args.a}\n  B: {args.b}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
