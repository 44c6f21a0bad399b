"""Compare perfbench's end-to-end metrics of two commits over alternating
pairs of runs.

    python3 scripts/pairs.py BASE CHANGE --workloads train segment-short \
        --seeds 1 2 3 4 5 6 7 8 9 10

BASE and CHANGE are git revisions of this repository.  The workloads
must be ones that this tree's BENCHMARK.json lists; that file is read
first, and gives each run's length (`run_seconds`) and the end-to-end
metrics.  Each revision is taken with `git archive` into a fresh
temporary directory, so only committed files run, as they would from a
clean checkout.  For each workload and seed the script runs each tree's
own `perfbench/run.py --trace 0` once, through that tree's
`perfbench/spread.py`: one pair.  The side that runs first alternates
from pair to pair, so a machine that drifts in speed does not favour
one side.  Every run of either side runs from one path: the side's
tree is renamed to it for the run and back after, its __pycache__
with it.  Run from two paths, identical trees read apart by a few
tenths of a MB of peak RSS, which followed the path and not the run
order.

For each workload and end-to-end metric of BENCHMARK.json, it prints
each side's median and quartiles, taken as spread.py takes them, and
how many pairs the change won; a metric that the runs also print
unscaled, as raw_<name>, gets a second row for that.  The next column
reads "ok", or "WORSE" when the change's median is worse than the
base's by more than the metric's bound, as a fraction of the base's
median ("-" on a raw row, which has no bound).  The last reads "MEETS"
when the figures would carry a claimed gain: the change won at least
nine tenths of the pairs, and its median is better than the base's by
more than the distance between the base's quartiles.  A last line per
workload counts each side's failed operations.  The exit status is 1
if any metric is WORSE or any operation failed, else 0.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")


def extract(revision, into):
    """The committed files of `revision` written into the directory
    `into`."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", revision],
                             capture_output=True, check=True).stdout
    os.makedirs(into)
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def load_spread(tree):
    """The module perfbench/spread.py of `tree`, whose run_once runs
    that tree's perfbench/run.py."""
    spec = importlib.util.spec_from_file_location(
        "spread", os.path.join(tree, "perfbench", "spread.py"))
    spread = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spread)
    return spread


# this tree's spread.py, whose quartiles the summary takes
SPREAD = load_spread(ROOT)


def run_pairs(revisions, workloads, seeds, seconds):
    """One record per (workload, seed) pair of runs of `seconds` each:
    the side that ran first and each side's perfbench result, with the
    metrics the run printed, name -> (value, unit), as "printed"."""
    runs = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        for side, revision in zip(SIDES, revisions):
            extract(revision, os.path.join(scratch, side))
        # spread.py fixes the run.py it runs when it is loaded, so it is
        # loaded from the shared path for every run
        tree = os.path.join(scratch, "tree")
        for workload in workloads:
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                record = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    os.rename(os.path.join(scratch, side), tree)
                    try:
                        result, printed, _ = load_spread(tree).run_once(
                            workload, seed, seconds, 0)
                    finally:
                        os.rename(tree, os.path.join(scratch, side))
                    record[side] = dict(result, printed=printed)
                runs.append(record)
                print(f"{workload} seed {seed}: " + "; ".join(
                    side + " " + " ".join(f"{name} {metric['value']:.4g}" for
                                          name, metric in
                                          record[side]["metrics"].items())
                    for side in SIDES), file=sys.stderr, flush=True)
    return runs


def quartiles(values):
    """(first quartile, median, third quartile) of `values`, as
    perfbench/spread.py takes them."""
    spread = SPREAD.spread(values)
    return spread["q1"], spread["median"], spread["q3"]


def compare(workload, name, values, better, bound):
    """The summary row of one metric, from each side's values by pair;
    a bound of None judges no WORSE."""
    sign = 1 if better == "higher" else -1
    base, change = (quartiles(values[side]) for side in SIDES)
    pairs = len(values["base"])
    won = sum(sign * (c - b) > 0 for b, c in zip(values["base"], values["change"]))
    gain = sign * (change[1] - base[1]) / base[1]
    return {"workload": workload, "metric": name, "base": base, "change": change,
            "won": won, "pairs": pairs, "gain": gain,
            "worse": None if bound is None else gain < -bound,
            "meets": (10 * won >= 9 * pairs
                      and sign * (change[1] - base[1]) > base[2] - base[0])}


def summary(runs, end_to_end):
    """One row per workload and metric of `end_to_end` (BENCHMARK.json's
    list), and one more for its raw_ counterpart where every run printed
    one: the metric, each side's quartiles, the pairs the change won,
    the change's median against the base's as a signed fraction, where
    positive is better, whether that is worse than the bound, and
    whether the figures meet the gain rule.  Then the failed and
    attempted operations of each side, by workload."""
    rows, failures = [], {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = [r for r in runs if r["workload"] == workload]
        failures[workload] = {
            side: (sum(r[side]["failed"] for r in pairs),
                   sum(r[side]["attempted"] for r in pairs))
            for side in SIDES}
        for metric in end_to_end:
            name, better = metric["name"], metric["better"]
            rows.append(compare(workload, name, {
                side: [r[side]["metrics"][name]["value"] for r in pairs]
                for side in SIDES}, better, metric["bound"]))
            raw = "raw_" + name
            if all(raw in r[side]["printed"] for r in pairs for side in SIDES):
                rows.append(compare(workload, raw, {
                    side: [r[side]["printed"][raw][0] for r in pairs]
                    for side in SIDES}, better, None))
    return rows, failures


def report(rows, failures):
    """The summary as printable lines."""
    verdicts = {None: "-", False: "ok", True: "WORSE"}
    lines = [f"{'workload':14} {'metric':18} {'base median [q1, q3]':>30} "
             f"{'change median [q1, q3]':>30} {'won':>6} {'change':>7} "
             f"{'bound':5} gain"]
    for row in rows:
        spread = {side: "{1:.4g} [{0:.4g}, {2:.4g}]".format(*row[side])
                  for side in SIDES}
        lines.append(
            f"{row['workload']:14} {row['metric']:18} {spread['base']:>30} "
            f"{spread['change']:>30} {row['won']:>3}/{row['pairs']:<2} "
            f"{row['gain']:+7.1%} {verdicts[row['worse']]:5} "
            f"{'MEETS' if row['meets'] else '-'}")
    for workload, sides in failures.items():
        lines.append(f"{workload}: failed operations " + ", ".join(
            f"{side} {failed} of {attempted}"
            for side, (failed, attempted) in sides.items()))
    return lines


def verdict(rows, failures):
    """The exit status: 1 if any row of the summary is worse than its
    bound or any operation failed on either side, else 0."""
    failed = any(failed for sides in failures.values()
                 for failed, _ in sides.values())
    return 1 if failed or any(row["worse"] for row in rows) else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("revisions", nargs=2, metavar="REVISION",
                        help="BASE, then CHANGE")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    listed = {workload["name"] for workload in benchmark["workloads"]}
    unknown = [name for name in args.workloads if name not in listed]
    if unknown:
        parser.error(f"BENCHMARK.json lists no workload {', '.join(unknown)}")
    runs = run_pairs(args.revisions, args.workloads, args.seeds,
                     benchmark["run_seconds"])
    rows, failures = summary(runs, benchmark["end_to_end"])
    print("\n".join(report(rows, failures)))
    return verdict(rows, failures)


if __name__ == "__main__":
    sys.exit(main())
