#!/usr/bin/env python3
"""Steadiness check: run one workload N times and print, for every metric,
the median, the quartiles and the spread (q3 - q1) / median, calibrated
and raw.

Run from the repository root:

    python3 hostbench/steady.py --workload roundtrip --runs 10

Each run uses the next seed (--seed0, --seed0 + 1, ...) and the command in
BENCHMARK.json. The bounds in BENCHMARK.json are set from this output: a
metric's spread must stay well inside its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    cal, raw, shares = {}, {}, []
    units = {}
    for i in range(args.runs):
        seed = args.seed0 + i
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            sys.exit(f"run with seed {seed} exited {out.returncode}")
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        raws = next(json.loads(l[len("raw: "):]) for l in lines if l.startswith("raw: "))
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect output\n" + out.stdout)
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            cal.setdefault(name, []).append(m["value"])
            raw.setdefault(name, []).append(raws[name])
            units[name] = m["unit"]
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}",
              file=sys.stderr)

    print(f"workload {args.workload}: {args.runs} runs of {seconds} s, seeds "
          f"{args.seed0}..{args.seed0 + args.runs - 1}")
    print(f"failed share per run: {sorted(set(shares))}")
    print(f"{'metric':<32} {'unit':<9} {'calibrated q1 / median / q3':>32} {'spread':>7}"
          f" {'raw q1 / median / q3':>32} {'spread':>7} {'bound':>6}")
    for name in cal:
        q1, med, q3 = quartiles(cal[name])
        r1, rmed, r3 = quartiles(raw[name])
        spread = (q3 - q1) / med if med else float("nan")
        rspread = (r3 - r1) / rmed if rmed else float("nan")
        bound = bounds.get(name)
        mark = "" if bound is None or spread < bound / 3 else "  <-- over bound/3"
        print(f"{name:<32} {units[name]:<9} {q1:>10.4g} {med:>10.4g} {q3:>10.4g} {spread:>7.2%}"
              f" {r1:>10.4g} {rmed:>10.4g} {r3:>10.4g} {rspread:>7.2%}"
              f" {bound if bound is not None else '-':>6}{mark}")


if __name__ == "__main__":
    main()
