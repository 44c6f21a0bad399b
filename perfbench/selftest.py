"""Self-test of the benchmark at toy dimensions, in well under a minute.

    python3 perfbench/selftest.py

Runs every workload in BENCHMARK.json end to end, untraced and traced,
and checks that each prints exactly the metrics BENCHMARK.json names,
with their units, and the expected failed operations.  Then it corrupts
the program in memory (decode, segment output, gradients) and checks
that each corruption is counted as failed, and that the benchmark
refuses to run in a copy without the program's sources.  Exits 1 if
anything is wrong.
"""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import run
import workloads

TRAIN_ONLY = {"corpus.load_corpus", "encoder.backward", "crf.nll_and_grads",
              "model.build", "model.loss_and_grads", "train.train_epoch",
              "train.adagrad_update", "train.tag_accuracy", "train.save_model",
              "evaluate.evaluate_corpus"}
SEGMENT_ONLY = {"model.segment", "train.load_model"}
BOTH = {"corpus.preprocess", "corpus.featurize", "encoder.forward",
        "crf.viterbi", "model.decode"}


def run_toy(workload, trace=0):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        run.main(["--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace)], sizes=workloads.TOY)
    lines = out.getvalue().strip().split("\n")
    return json.loads(lines[-1]), lines[:-1]


@contextlib.contextmanager
def patched(owner, attr, replacement):
    original = vars(owner)[attr]
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def check_outputs(bench, problems):
    sizes = workloads.TOY
    expected_failed = {
        "train": 0, "segment-long": 0,
        "segment-short": len(sizes.short_lengths) // sizes.mixed_every,
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = run_toy(workload, trace)
            where = f"{workload} --trace {trace}"
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {got} != BENCHMARK.json {want}")
            for name, unit in want.items():
                if not any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                           for line in lines):
                    problems.append(f"{where}: no '{name} <value> {unit}' line")
            for name, m in result["metrics"].items():
                value = m["value"]
                if not math.isfinite(value) or value < 0 or (trace == 0 and value == 0):
                    problems.append(f"{where}: {name} = {value}")
            if result["failed"] != expected_failed[workload] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of "
                                f"{result['attempted']} failed, expected "
                                f"{expected_failed[workload]}")
            if trace:
                runs = BOTH | (TRAIN_ONLY if workload == "train" else SEGMENT_ONLY)
                for name in TRAIN_ONLY | SEGMENT_ONLY | BOTH:
                    calls = result["metrics"][f"{name}.calls"]["value"]
                    if (calls > 0) != (name in runs):
                        problems.append(f"{where}: {name} called {calls} times")


def check_failures_counted(attnseg, problems):
    seg = attnseg.model.Segmenter
    decode, segment, loss_and_grads = (
        vars(seg)[name] for name in ("decode", "segment", "loss_and_grads")
    )

    def all_singles(self, tokens, masked=True):
        decode(self, tokens, masked)
        return [3] * len(tokens)

    def drop_last_word(self, line):
        return segment(self, line)[:-1]

    def bent_gradient(self, sentence, *args, **kwargs):
        loss, grads = loss_and_grads(self, sentence, *args, **kwargs)
        grads["out.b"] = grads["out.b"] + 1e-3
        return loss, grads

    for attr, fake, workload, what in (
        ("decode", all_singles, "segment-long", "an all-S decode"),
        ("segment", drop_last_word, "segment-short", "a dropped word"),
        ("loss_and_grads", bent_gradient, "train", "a wrong gradient"),
    ):
        with patched(seg, attr, fake):
            result, _ = run_toy(workload)
        clean, _ = run_toy(workload)
        if result["failed"] <= clean["failed"]:
            problems.append(f"{what} was not counted as failed on {workload}: "
                            f"{result['failed']} vs {clean['failed']}")


def check_refuses_without_sources(problems):
    os.makedirs(run.RUNS_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.RUNS_DIR)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "train",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without src/ the run exited {proc.returncode} and "
                        f"printed {proc.stdout!r}")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    attnseg = run.import_program()
    problems = []
    check_outputs(bench, problems)
    check_failures_counted(attnseg, problems)
    check_refuses_without_sources(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
