"""Print the benchmark trajectory: every committed BENCH_*.json, one
table per workload and end-to-end metric.

    python3 scripts/benchtable.py

Each BENCH_<label>.json at the repository root is one run of

    python3 perfbench/spread.py --workloads train segment-short \
        segment-long --seeds 1 2 3 4 5 6 7 8 9 10 --out BENCH_<label>.json

with an `environment` object that names the commit and the
scripts/codelines.py total.  For each workload and end-to-end metric of
BENCHMARK.json, in that file's order, the script prints a Markdown
table with one row per file, the baseline first and then by the number
in the label: its label, commit, code lines, and the metric's median
with its quartiles.  A file without that workload or metric reads "-".
"""

import glob
import json
import os
import re

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def label_order(label):
    """Sort key of a BENCH label: the baseline first, then by number."""
    number = re.search(r"\d+", label)
    return (label != "baseline", int(number.group()) if number else 0, label)


def bench_files(root):
    """(label, contents) of every BENCH_*.json in `root`, in label order."""
    files = {}
    for path in glob.glob(os.path.join(root, "BENCH_*.json")):
        label = os.path.basename(path)[len("BENCH_"):-len(".json")]
        with open(path, encoding="utf-8") as fh:
            files[label] = json.load(fh)
    return [(label, files[label]) for label in sorted(files, key=label_order)]


def cell(figures):
    """A metric's median and quartiles, to four significant digits."""
    return f"{figures['median']:.4g} ({figures['q1']:.4g}–{figures['q3']:.4g})"


def tables(root):
    """The lines of every table, blank lines between them."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    files = bench_files(root)
    lines = []
    for workload in benchmark["workloads"]:
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            lines += [f"{workload['name']} {name} ({metric['unit']}, "
                      f"{metric['better']} is better)", "",
                      "| file | commit | code lines | median (q1–q3) |",
                      "|---|---|---|---|"]
            for label, bench in files:
                env = bench.get("environment", {})
                figures = bench.get(workload["name"], {}).get("metrics", {}).get(name)
                lines.append(f"| {label} | {env.get('commit', '-')[:7]} | "
                             f"{env.get('codelines_total', '-')} | "
                             f"{cell(figures) if figures else '-'} |")
            lines.append("")
    return lines


def main():
    print("\n".join(tables(ROOT)), end="")


if __name__ == "__main__":
    main()
