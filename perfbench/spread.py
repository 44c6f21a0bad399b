"""Run workloads over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workloads train segment-short \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--seconds 20] [--trace 0] [--out FILE]

Runs ``run.py`` once per (workload, seed), one after another, and for
every metric it printed gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median, together with the failed share of operations and the wall
time of each whole run.  These are the figures in README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        name, value, unit = line.split(" ")
        printed[name] = (float(value), unit)
    return result, printed, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else float("nan"),
            "min": min(values), "max": max(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the figures as JSON here")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    report = {}
    for workload in args.workloads:
        values, failed_shares, walls = {}, set(), []
        for seed in args.seeds:
            result, printed, wall = run_once(workload, seed, args.seconds, args.trace)
            walls.append(wall)
            failed_shares.add(f"{result['failed']}/{result['attempted']}")
            for name, (value, unit) in printed.items():
                values.setdefault(name, ([], unit))[0].append(value)
            print(f"{workload} seed {seed}: {wall:.1f} s, "
                  f"{json.dumps(result['metrics'])}", file=sys.stderr)
        entry = {"failed": sorted(failed_shares), "run_wall_s": spread(walls),
                 "metrics": {}}
        for name, (vals, unit) in values.items():
            if len(vals) == len(args.seeds):
                entry["metrics"][name] = dict(spread(vals), unit=unit, values=vals)
        report[workload] = entry
        print(f"\n{workload}: failed {entry['failed']}, whole run "
              f"{entry['run_wall_s']['median']:.1f} s (max "
              f"{entry['run_wall_s']['max']:.1f} s)")
        for name, s in entry["metrics"].items():
            print(f"  {name:34s} {s['median']:12.6g} {s['unit']:8s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {100 * s['iqr_share']:.1f}%")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
