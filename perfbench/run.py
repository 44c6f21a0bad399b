"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout this file sits in.
Every metric is printed as ``name value unit`` on its own line; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Every run does
the same fixed work; ``--seconds`` is accepted but does not change it.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
END_TO_END = ("setup_s", "chars_per_s", "latency_p50_ms", "peak_rss_mb")
PER_LAYER = tuple(
    f"{name}.{quantity}"
    for name, _, _ in spans.LAYERS for quantity in ("calls", "self_ms", "total_ms")
) + ("encoder.forward.peak_traced_mb", "work.chars", "work.calls",
     "work.attention_pairs")


def import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "attnseg", "__init__.py")):
        raise SystemExit(f"perfbench: no attnseg package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import attnseg
    return attnseg


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def layer_metrics(tracer):
    summary = tracer.summary()
    metrics = {}
    for name, _, _ in spans.LAYERS:
        calls, total, own = summary.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (own, "ms")
        metrics[f"{name}.total_ms"] = (total, "ms")
        if name in spans.PEAK:
            metrics[f"{name}.peak_traced_mb"] = (tracer.peak_mb(name), "MB")
    return metrics


def main(argv=None, sizes=workloads.PAPER):
    args = _parse(argv)
    attnseg = import_program()
    os.makedirs(RUNS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR)
    tracer = spans.Tracer()
    try:
        if args.trace:
            spans.install(tracer, attnseg)
        attempted, failed, metrics = workloads.RUNNERS[args.workload](
            attnseg, sizes, args.seed, workdir, tracer
        )
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir)
    if args.trace:
        metrics.update(layer_metrics(tracer))
        tracer.write(os.path.join(
            RUNS_DIR, f"{args.workload}-seed{args.seed}-spans.jsonl"
        ))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    chosen = PER_LAYER if args.trace else END_TO_END
    # Every check belongs to one operation, and an operation whose output
    # fails a check is counted in `failed`; so the operations that did not
    # fail are correct by construction.
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in chosen},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
