"""Guards on the tools the package relies on.

The benchmark's tracer wraps the package's functions by name
(perfbench/spans.py).  Installing and removing it here makes a rename of
a wrapped function fail the tests, not a traced benchmark run.  Each
workload also runs once at toy sizes (perfbench/run.py), so a change to
a library call the benchmark makes fails here too.

The attention summaries rely on numpy's einsum adding products in order,
backward's recomputed tanh c_t on numpy's tanh giving the same bits
into a scratch row as into a fresh array, and the gate products on
OpenBLAS forming each row of a stacked product through a strided half
of cell.w as the half's own product with that row; a numpy or BLAS
release that changes any of these fails here, by name, before the tape
bit-equality tests fail without saying why.  Training's bytes
depend on the BLAS thread count, but the forward pass and decoding must
not, and two processes at 1 and 2 threads check that.  A program that
decoded leaves no decode worker running, when it exits or when it is
killed.  scripts/codelines.py, which counts the package's code lines,
runs once, scripts/pins.py must print the committed tests/pins.txt
under the builds named in its first line, scripts/batchmem.py measures
one small batch, scripts/benchtable.py tabulates the committed BENCH
files, and scripts/pairs.py summarizes canned perfbench runs, runs both
sides of a pair from one path, and takes its workloads and run length
from BENCHMARK.json before it runs anything."""

import importlib.util
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import attnseg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def blas_build():
    # the BLAS build and thread count decide how gemv rounds
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return (f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}, "
            f"{os.cpu_count()} cores, OPENBLAS_NUM_THREADS={threads}")


def load_perfbench(name):
    """perfbench/<name>.py, read as it is: no bytecode cache is written
    next to it or to the perfbench modules it imports, and neither
    sys.path nor sys.modules keeps them."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    writes, path = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, PERFBENCH)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
        sys.path[:] = path
        for added in [m for m, mod in sys.modules.items()
                      if os.path.dirname(getattr(mod, "__file__", None) or "") == PERFBENCH]:
            del sys.modules[added]
    return module


def test_tracer_wraps_and_restores_every_layer():
    spans = load_perfbench("spans")
    targets = []
    for _, paths, attr in spans.LAYERS:
        for path in paths:
            owner = attnseg
            for part in path.split("."):
                owner = getattr(owner, part)
            targets.append((owner, attr, vars(owner)[attr]))
    tracer = spans.Tracer()
    spans.install(tracer, attnseg)
    try:
        for owner, attr, original in targets:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in targets:
        assert vars(owner)[attr] is original, (owner, attr)


@pytest.mark.parametrize("k", [None, 1, 2, 3, 5, 8])
def test_einsum_sums_window_rows_in_tape_order(k):
    # the layout of encoder.tape_step: a (k, w) weight block and a window
    # of rows of a (k, n, 2h) tape, w > 2h, summed into a fresh array as
    # tape_step does and into a strided row; both must match the loop
    rng = np.random.default_rng(90 + (k or 0))
    batch = () if k is None else (k,)
    two_h, n, start = 6, 40, 3
    tape = rng.normal(size=batch + (n, two_h))
    summary = np.zeros(batch + (n, two_h))
    for t in range(start + 1, n):
        window = tape[..., start:t, :]
        weights = rng.random(batch + (t - start,))
        weights /= weights.sum(axis=-1, keepdims=True)
        fresh = np.einsum("...i,...ij->...j", weights, window)
        out = summary[..., t, :]
        np.einsum("...i,...ij->...j", weights, window, out=out)
        want = np.zeros(batch + (two_h,))
        for i in range(t - start):
            want += weights[..., i, None] * window[..., i, :]
        for form, got in (("fresh", fresh), ("out=", out)):
            assert np.array_equal(got, want), (
                f"numpy {np.__version__}: einsum ({form}) no longer sums "
                f"window rows in order (k={k}, w={t - start}); "
                "encoder.tape_step's summaries would break the bit-equality "
                "pin of the tapes to tests/oracles.py::lstmn_unrolled"
            )


@pytest.mark.parametrize("hidden", [5, 150])
def test_tanh_of_a_tape_slice_ignores_its_output_layout(hidden):
    # the layout of encoder.tape_step and _direction_backward: tanh c_t
    # of k sentences, a strided (k, h) slice of a (k, n, 2h) tape; both
    # form it as a fresh array, and its bits must not depend on where
    # the output lies, for toy and paper hidden sizes
    rng = np.random.default_rng(95 + hidden)
    n = 12
    for k in range(1, 9):
        tape = rng.normal(scale=2.0, size=(k, n, 2 * hidden))
        scratch = np.empty((k, 1, hidden))
        for t in range(n):
            rows = tape[:k, t, hidden:]
            out = np.tanh(rows, out=scratch[:k, 0])
            assert np.array_equal(out, np.tanh(rows)), (
                f"numpy {np.__version__}: tanh of a (k, h) tape slice "
                f"depends on its output's layout (k={k}, h={hidden}); "
                "encoder._direction_backward's recomputed tanh c_t may "
                "then differ from the forward's, and training's bytes with it"
            )


@pytest.mark.parametrize("shape", [(600, 450), (600, 550), (20, 25)])
@pytest.mark.parametrize("k", [1, 2, 3, 8, 26, 64])
def test_gate_product_by_row_blocks_matches_each_sentence(shape, k):
    # the layout of encoder.DirectionState.input_block and tape_step: a
    # stack of k strided rows, in read order or reversed, times one of
    # the strided halves w[:, h:] and w[:, :h] of cell.w, one
    # matrix-vector product per row, into strided rows or a fresh array;
    # each row must get the bits of the half's own product with it, as
    # tests/oracles.py::lstmn_unrolled forms it.  Paper, bigram and toy
    # dimensions of cell.w
    rng = np.random.default_rng(shape[1] + k)
    rows, cols = shape
    hidden = rows // 4
    w = rng.uniform(-0.1, 0.1, size=shape)
    for half in (w[:, hidden:], w[:, :hidden]):
        stack = rng.normal(size=(k, 3, half.shape[1]))[:, 1]
        for order in (slice(None), slice(None, None, -1)):
            x = stack[order]
            out = np.zeros((k, 3, rows))[:, 1]
            np.matmul(half, x[:, :, None], out=out[:, :, None])
            fresh = np.matmul(half, x[:, :, None])[:, :, 0]
            for s in range(k):
                want = half @ x[s]
                got = np.array_equal(out[s], want), np.array_equal(fresh[s], want)
                assert all(got), (
                    f"{blas_build()}: a stacked product through the "
                    f"{half.shape} half of cell.w {shape} no longer equals "
                    f"the half's own product with each row (k={k}, row {s}); "
                    "the encoder's gate products would break the "
                    "bit-equality pin of the tapes to "
                    "tests/oracles.py::lstmn_unrolled"
                )


@pytest.mark.parametrize("workload, attempted, most_failed", [
    ("train", 1, 0),
    ("segment-long", 2, 0),
    ("segment-short", 20, 0),
])
def test_benchmark_workload_runs_at_toy_sizes(workload, attempted, most_failed,
                                              capsys, monkeypatch, tmp_path):
    # --trace 1 wraps the layers and reads encoder.forward's size from
    # its positional arguments (perfbench/spans.py, PEAK), so a change to
    # that layout fails here
    run = load_perfbench("run")
    # the run's work directory and the trace's spans file
    monkeypatch.setattr(run, "RUNS_DIR", str(tmp_path))
    for trace in (0, 1):
        path = list(sys.path)
        try:
            run.main(["--workload", workload, "--seed", "5", "--seconds", "1",
                      "--trace", str(trace)], sizes=run.workloads.TOY)
        finally:
            sys.path[:] = path
        result = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert result["correct"] is True
        assert result["attempted"] == attempted
        assert result["failed"] <= most_failed
        if trace:
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            assert metrics["encoder.forward.peak_traced_mb"] > 0
            assert metrics["encoder.forward.calls"] > 0
            if workload == "train":
                assert metrics["encoder.backward.calls"] > 0


# a paper-dimension model (hidden = attention = 150, emb 100, window 3)
# over the toy corpus, every parameter redrawn from normal(0, 0.3); one
# line per toy sentence: the sha256 of its emission bytes, of its
# segment output, and of its path in one decode of the whole corpus
THREADS_PROBE = """
import hashlib
import numpy as np
from attnseg.corpus import load_toy_corpus
from attnseg.model import Segmenter, TrainConfig

corpus = load_toy_corpus()
model = Segmenter.build(corpus, TrainConfig(hidden=150, attn_dim=150,
                                            emb_dim=100, window=3))
rng = np.random.default_rng(7)
for p in model.params.values():
    p[...] = rng.normal(0.0, 0.3, size=p.shape)
paths = model.decode([sent.tokens for sent in corpus])
for sent, path in zip(corpus, paths):
    scores, _ = model.emissions(sent.tokens)
    words = model.segment("".join(sent.tokens))
    print(*(hashlib.sha256(data).hexdigest() for data in (
        scores.tobytes(), " ".join(words).encode(), bytes(path))))
"""


def lines_at_blas_threads(probe):
    """The stdout lines of the Python source `probe`, run in a
    subprocess over this checkout's package at OPENBLAS_NUM_THREADS=1
    and at 2, as a pair of lists."""
    src = os.path.dirname(os.path.abspath(attnseg.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.path.dirname(src))
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(done.stdout.splitlines())
    return outputs


def test_forward_and_segment_do_not_depend_on_blas_threads():
    # training's gradient products round by the BLAS thread split, so
    # params.bin does; the forward pass and decoding must not
    outputs = lines_at_blas_threads(THREADS_PROBE)
    assert len(outputs[0]) == 32
    for line, (one, two) in enumerate(zip(*outputs), start=1):
        assert one == two, (
            f"numpy {np.__version__}: toy sentence {line} hashes differently "
            "at 1 and 2 BLAS threads (emissions, segment output, decoded path)"
        )


# a random-init paper-dimension encoder (hidden = attention = 150, emb
# 100, window 3); one line per sentence: the sha256 of its emission
# bytes, for each of the five lengths alone, without a cache, then for
# each sentence of one kept batch of 8, which holds the five and three
# more
FORWARD_THREADS_PROBE = """
import hashlib
import numpy as np
from attnseg import encoder
from attnseg.model import TrainConfig

cfg = TrainConfig(hidden=150, attn_dim=150, emb_dim=100, window=3)
rng = np.random.default_rng(17)
params = encoder.init_params(cfg, rng)
xs = [rng.normal(size=(n, cfg.input_dim)) for n in (4, 18, 70, 250, 600)]
alone = [encoder.forward(params, cfg, [x], keep_cache=False)[0][0] for x in xs]
batch = xs + [rng.normal(size=(n, cfg.input_dim)) for n in (33, 9, 1)]
kept, _ = encoder.forward(params, cfg, batch)
for e in alone + kept:
    print(hashlib.sha256(e.tobytes()).hexdigest())
"""


def test_forward_at_every_length_does_not_depend_on_blas_threads():
    # each step's W_h h~ and the hoisted W_x x_t + b are stacks of
    # matrix-vector products, whose rows must not round by the BLAS
    # thread split, from a 4-token sentence to a 600-token one, alone
    # without a cache and in a kept batch
    outputs = lines_at_blas_threads(FORWARD_THREADS_PROBE)
    assert len(outputs[0]) == 13
    # a sentence's emissions are the same alone and in the batch
    assert outputs[0][:5] == outputs[0][5:10]
    for line, (one, two) in enumerate(zip(*outputs), start=1):
        assert one == two, (
            f"{blas_build()}: encoder.forward's emissions, line {line} of "
            "the probe, differ at 1 and 2 BLAS threads"
        )


# decodes one line through the decode worker, as on a machine with 2
# CPUs, and prints the worker's pid; then exits and, after attnseg's own
# exit handlers (atexit runs the last registered first), says whether
# they reaped the worker, or with "wait" waits for its stdin to close
WORKER_PROBE = """
import atexit, os, sys

def reaped():
    try:
        os.waitpid(pid, os.WNOHANG)
        print("worker not reaped", flush=True)
    except ChildProcessError:
        print("worker reaped", flush=True)

atexit.register(reaped)
import numpy as np
from attnseg import encoder, worker
from attnseg.model import TrainConfig

os.sched_getaffinity = lambda pid: {0, 1}
cfg = TrainConfig(hidden=8, emb_dim=4, window=1)
params = encoder.init_params(cfg, np.random.default_rng(0))
x = np.zeros((worker.FORK_MIN_TOKENS, cfg.input_dim))
encoder.forward(params, cfg, [x], keep_cache=False)
pid = worker._worker.pid
print(pid, flush=True)
if sys.argv[1:] == ["wait"]:
    sys.stdin.read()
"""


def gone_or_zombie(pid):
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not hasattr(os, "memfd_create") or not os.path.isdir("/proc"),
                    reason="the decode worker and /proc are Linux's")
def test_decode_worker_leaves_with_its_parent():
    # no process is left running after a program that decoded exits,
    # nor after it is killed
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        os.path.abspath(attnseg.__file__))))
    done = subprocess.run([sys.executable, "-c", WORKER_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    pid, said = done.stdout.splitlines()
    assert said == "worker reaped"
    assert gone_or_zombie(int(pid))
    probe = subprocess.Popen([sys.executable, "-c", WORKER_PROBE, "wait"],
                             env=env, stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
    try:
        worker = int(probe.stdout.readline())
        assert not gone_or_zombie(worker)
    finally:
        probe.kill()
        # not communicate(): the worker shares the probe's stdout
        probe.wait(timeout=10)
        probe.stdin.close()
        probe.stdout.close()
    deadline = time.monotonic() + 5.0
    while not gone_or_zombie(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert gone_or_zombie(worker)


def test_codelines_lists_every_module_and_their_total():
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "codelines.py")],
        capture_output=True, text=True, check=True)
    rows = [line.split() for line in done.stdout.splitlines()]
    counts = {name: int(count) for count, name in rows}
    total = counts.pop("total")
    package = os.path.join(ROOT, "src", "attnseg")
    assert sorted(counts) == sorted(f for f in os.listdir(package)
                                    if f.endswith(".py"))
    assert all(count > 0 for count in counts.values())
    assert total == sum(counts.values())


def test_pins_match_the_committed_pins():
    # tests/pins.txt is scripts/pins.py's output, regenerated only by a
    # planned pin change; its first line names the numpy and OpenBLAS
    # builds the other lines hold for
    with open(os.path.join(ROOT, "tests", "pins.txt"), encoding="utf-8") as fh:
        want = fh.read().splitlines()
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "pins.py")],
        capture_output=True, text=True, check=True)
    got = done.stdout.splitlines()
    if got[0] != want[0]:
        pytest.skip(f"pins were taken under {want[0]!r}, this run is "
                    f"under {got[0]!r}")
    assert got == want


def test_batchmem_prints_its_four_figures():
    # toy sizes: two sentences of 3 to 5 characters
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "batchmem.py"),
         "--batch", "2", "--lengths", "3", "5"],
        capture_output=True, text=True, check=True)
    keys = [line.split()[0] for line in done.stdout.splitlines()]
    assert keys == ["peak_growth_mb", "minor_faults", "seconds", "grads_sha256"]


def test_benchtable_prints_one_table_per_workload_and_metric():
    # on the committed BENCH files: one table per workload and end-to-end
    # metric of BENCHMARK.json, one row per file, the baseline first
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    labels = sorted(name[len("BENCH_"):-len(".json")] for name in os.listdir(ROOT)
                    if name.startswith("BENCH_") and name.endswith(".json"))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "benchtable.py")],
        capture_output=True, text=True, check=True)
    tables = done.stdout.split("\n\n")
    titles = [table.split(" (")[0] for table in tables[::2]]
    assert titles == [f"{w['name']} {m['name']}" for w in benchmark["workloads"]
                      for m in benchmark["end_to_end"]]
    for rows in tables[1::2]:
        rows = [row.split(" | ")[0].lstrip("| ") for row in rows.splitlines()[2:]]
        assert rows[0] == "baseline"
        assert sorted(rows) == labels


def perfbench_result(failed=0, **values):
    """A perfbench/run.py result with these end-to-end metric values."""
    return {"correct": True, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": value, "unit": ""}
                        for name, value in values.items()}}


def test_pairs_summarizes_medians_wins_and_bounds():
    spec = importlib.util.spec_from_file_location(
        "pairs", os.path.join(ROOT, "scripts", "pairs.py"))
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    end_to_end = [{"name": "chars_per_s", "better": "higher", "bound": 0.25},
                  {"name": "latency_p50_ms", "better": "lower", "bound": 0.25}]
    # the change is 10% faster in 3 of 4 pairs and 30% slower per line;
    # unscaled, it is some 20% faster in every pair
    base = [(100.0, 10.0), (110.0, 12.0), (90.0, 8.0), (120.0, 10.0)]
    change = [(110.0, 13.0), (121.0, 15.6), (99.0, 10.4), (100.0, 13.0)]
    raw = {"base": [100.0, 102.0, 98.0, 101.0], "change": [120.0, 121.0, 119.0, 122.0]}

    def printed(side, seed):
        # raw_latency_p50_ms is missing from one run, so it gets no row
        figures = {"raw_chars_per_s": (raw[side][seed], "chars/s"),
                   "dev_f1": (0.5, "")}
        if seed:
            figures["raw_latency_p50_ms"] = (1.0, "ms")
        return figures

    runs = [{"workload": "w", "seed": seed, "first": ("base", "change")[seed % 2],
             "base": dict(perfbench_result(chars_per_s=b[0], latency_p50_ms=b[1]),
                          printed=printed("base", seed)),
             "change": dict(perfbench_result(failed=seed == 3, chars_per_s=c[0],
                                             latency_p50_ms=c[1]),
                            printed=printed("change", seed))}
            for seed, (b, c) in enumerate(zip(base, change))]
    rows, failures = pairs.summary(runs, end_to_end)
    chars, raw_chars, latency = rows
    # quartiles as perfbench/spread.py takes them
    assert chars["base"] == (92.5, 105.0, 117.5)
    assert chars["change"] == (99.25, 105.0, 118.25)
    assert (chars["won"], chars["pairs"], chars["gain"], chars["worse"]) == (
        3, 4, 0.0, False)
    assert not chars["meets"]
    # the raw row: no bound, and it meets the gain rule, since the change
    # won 4 of 4 pairs and the medians lie 20 apart against a base
    # quartile spread of 3.25
    assert raw_chars["metric"] == "raw_chars_per_s"
    assert raw_chars["base"] == (98.5, 100.5, 101.75)
    assert raw_chars["change"] == (119.25, 120.5, 121.75)
    assert (raw_chars["won"], raw_chars["worse"], raw_chars["meets"]) == (
        4, None, True)
    assert latency["base"] == (8.5, 10.0, 11.5)
    assert latency["change"] == pytest.approx((11.05, 13.0, 14.95))
    assert latency["won"] == 0
    assert latency["gain"] == pytest.approx(-0.3)
    assert latency["worse"]
    assert not latency["meets"]
    assert failures == {"w": {"base": (0, 40), "change": (1, 40)}}
    lines = pairs.report(rows, failures)
    assert lines[1].split()[-4:] == ["3/4", "+0.0%", "ok", "-"]
    assert lines[2].split()[-4:] == ["4/4", "+19.9%", "-", "MEETS"]
    assert lines[3].split()[-4:] == ["0/4", "-30.0%", "WORSE", "-"]
    assert lines[-1] == "w: failed operations base 0 of 40, change 1 of 40"
    # every pair won, but the medians lie 1 apart: no MEETS
    raw["change"] = [101.0, 103.0, 99.0, 102.0]
    for seed, record in enumerate(runs):
        record["change"]["printed"] = printed("change", seed)
    assert not pairs.summary(runs, end_to_end)[0][1]["meets"]
    # the exit status: 1 for a worse metric or a failed operation
    assert pairs.verdict(rows, failures) == 1
    runs[3]["change"]["failed"] = 0
    assert pairs.verdict(*pairs.summary(runs, end_to_end)) == 1
    for record in runs:
        record["change"]["metrics"]["latency_p50_ms"]["value"] /= 1.3
    assert pairs.verdict(*pairs.summary(runs, end_to_end)) == 0
    # a raw row, however much worse, leaves it as it is
    for record in runs:
        record["change"]["printed"]["raw_chars_per_s"] = (1.0, "chars/s")
    rows, failures = pairs.summary(runs, end_to_end)
    assert rows[1]["gain"] < -0.25 and rows[1]["worse"] is None
    assert pairs.verdict(rows, failures) == 0
    runs[0]["base"]["failed"] = 2
    assert pairs.verdict(*pairs.summary(runs, end_to_end)) == 1


def fake_extract(extracted):
    """A stand-in for scripts/pairs.py's extract: it appends each
    revision to `extracted` and writes it into the tree's one file,
    REVISION."""
    def extract(revision, into):
        extracted.append(revision)
        os.makedirs(into)
        with open(os.path.join(into, "REVISION"), "w", encoding="utf-8") as fh:
            fh.write(revision)
    return extract


def test_pairs_checks_workloads_and_runs_for_run_seconds(monkeypatch, capsys):
    # BENCHMARK.json is read before anything runs: a workload it does not
    # list stops the script before any tree is extracted, and each run
    # lasts its run_seconds
    spec = importlib.util.spec_from_file_location(
        "pairs", os.path.join(ROOT, "scripts", "pairs.py"))
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    extracted, calls = [], []

    class FakeSpread:
        def __init__(self, tree):
            self.tree = tree

        def run_once(self, *args):
            with open(os.path.join(self.tree, "REVISION"), encoding="utf-8") as fh:
                side = {"A": "base", "B": "change"}[fh.read()]
            calls.append((side, *args))
            return perfbench_result(**{metric["name"]: 1.0 for metric
                                       in benchmark["end_to_end"]}), printed, 0.0

    # as perfbench/run.py prints them: the raw_ counterparts of three of
    # the end-to-end metrics, and figures that have none
    printed = {"raw_setup_s": (0.01, "s"), "raw_chars_per_s": (900.0, "chars/s"),
               "raw_latency_p50_ms": (5.0, "ms"), "machine_speed": (1.1, ""),
               "latency_p90_ms": (9.0, "ms")}

    monkeypatch.setattr(pairs, "extract", fake_extract(extracted))
    monkeypatch.setattr(pairs, "load_spread", FakeSpread)
    workload = benchmark["workloads"][0]["name"]
    with pytest.raises(SystemExit) as stopped:
        pairs.main(["A", "B", "--workloads", workload, "no-such-workload",
                    "--seeds", "1", "2"])
    assert stopped.value.code == 2
    assert "no-such-workload" in capsys.readouterr().err
    assert not extracted and not calls
    assert pairs.main(["A", "B", "--workloads", workload,
                       "--seeds", "1", "2"]) == 0
    assert extracted == ["A", "B"]
    seconds = benchmark["run_seconds"]
    assert calls == [("base", workload, 1, seconds, 0),
                     ("change", workload, 1, seconds, 0),
                     ("change", workload, 2, seconds, 0),
                     ("base", workload, 2, seconds, 0)]
    # one row per end-to-end metric, each followed by its raw_ row where
    # the runs printed one
    table = capsys.readouterr().out.splitlines()
    names = [metric["name"] for metric in benchmark["end_to_end"]]
    want = [row for name in names
            for row in (name, "raw_" + name) if row in names or row in printed]
    assert [line.split()[1] for line in table[1:-1]] == want
    assert len(want) == len(names) + 3
    # each run's record keeps what it printed
    runs = pairs.run_pairs(["A", "B"], [workload], [1, 2], seconds)
    assert all(record[side]["printed"] == printed
               for record in runs for side in pairs.SIDES)


def test_pairs_runs_both_sides_from_one_path(monkeypatch):
    # identical trees run from two paths read apart in peak RSS, so every
    # run of either side loads its spread.py from one path and finds its
    # own tree there while it runs
    spec = importlib.util.spec_from_file_location(
        "pairs", os.path.join(ROOT, "scripts", "pairs.py"))
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    extracted, runs = [], []

    class FakeSpread:
        def __init__(self, tree):
            self.tree = tree

        def run_once(self, workload, seed, seconds, trace):
            with open(os.path.join(self.tree, "REVISION"), encoding="utf-8") as fh:
                runs.append((self.tree, fh.read(), seed))
            return perfbench_result(), {}, 0.0

    monkeypatch.setattr(pairs, "extract", fake_extract(extracted))
    monkeypatch.setattr(pairs, "load_spread", FakeSpread)
    pairs.run_pairs(["A", "B"], ["w"], [1, 2, 3], 1)
    assert extracted == ["A", "B"]
    assert len({tree for tree, _, _ in runs}) == 1
    assert [(revision, seed) for _, revision, seed in runs] == [
        ("A", 1), ("B", 1), ("B", 2), ("A", 2), ("A", 3), ("B", 3)]
