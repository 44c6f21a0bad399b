"""Guards on the tools the package relies on.

The benchmark's tracer wraps the package's functions by name
(perfbench/spans.py).  Installing and removing it here makes a rename of
a wrapped function fail the tests, not a traced benchmark run.  Each
workload also runs once at toy sizes (perfbench/run.py), so a change to
a library call the benchmark makes fails here too.

The attention summaries rely on numpy's einsum adding products in order,
and the gate product of every step, one sentence's too, on OpenBLAS
forming each row of a row block, in either block order, as it forms it
in the whole product; a numpy or BLAS release that changes either fails
here, by name, before the tape bit-equality tests fail without saying
why.  Training's bytes depend on the BLAS thread count, but the forward
pass and decoding must not, and two processes at 1 and 2 threads check
that.  A program that decoded leaves no decode worker running, when it
exits or when it is killed.  scripts/codelines.py, which counts the
package's code lines, runs once, and scripts/pins.py must print the
committed tests/pins.txt under the builds named in its first line."""

import importlib.util
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import attnseg
from attnseg.encoder import GATE_BLOCK_ROWS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def blas_build():
    # the BLAS and thread count decide how gemv groups rows (encoder
    # module docstring, Cost)
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
    # of rows of a (k, n, 2h) tape, into a strided summary row, w > 2h
    rng = np.random.default_rng(90 + (k or 0))
    batch = () if k is None else (k,)
    two_h, n, start = 6, 40, 3
    tape = rng.normal(size=batch + (n, two_h))
    summary = np.zeros(batch + (n, two_h))
    for t in range(start + 1, n):
        window = tape[..., start:t, :]
        weights = rng.random(batch + (t - start,))
        weights /= weights.sum(axis=-1, keepdims=True)
        out = summary[..., t, :]
        np.einsum("...i,...ij->...j", weights, window, out=out)
        want = np.zeros(batch + (two_h,))
        for i in range(t - start):
            want += weights[..., i, None] * window[..., i, :]
        assert np.array_equal(out, want), (
            f"numpy {np.__version__}: einsum no longer sums window rows in "
            f"order (k={k}, w={t - start}); encoder.tape_step's summaries "
            "would break the bit-equality pin of the tapes to "
            "tests/oracles.py::lstmn_unrolled"
        )


@pytest.mark.parametrize("shape", [(600, 450), (600, 550), (20, 25)])
@pytest.mark.parametrize("k", [1, 2, 3, 8, 26])
def test_gate_product_by_row_blocks_matches_each_sentence(shape, k):
    # the layout of encoder.tape_step: k strided gate inputs times cell.w
    # into strided gate rows, GATE_BLOCK_ROWS rows at a time, the blocks
    # first to last and last to first; paper, bigram and toy dimensions
    # of cell.w
    rng = np.random.default_rng(shape[1] + k)
    rows, cols = shape
    w = rng.uniform(-0.1, 0.1, size=shape)
    gate_in = rng.normal(size=(k, 3, cols))[:, 1]
    blocks = range(0, rows, GATE_BLOCK_ROWS)
    for order in (blocks, reversed(blocks)):
        z = np.zeros((k, 3, rows))[:, 1]
        for r in order:
            block = slice(r, r + GATE_BLOCK_ROWS)
            np.matmul(gate_in[:, None, :], w[block].T, out=z[:, None, block])
        for s in range(k):
            assert np.array_equal(z[s], w @ gate_in[s]), (
                f"{blas_build()}: the gate product by blocks of "
                f"{GATE_BLOCK_ROWS} rows no longer equals W @ x for each "
                f"sentence (W {shape}, k={k}, sentence {s}); "
                "encoder.tape_step's steps would break the bit-equality pin "
                "of the tapes to tests/oracles.py::lstmn_unrolled"
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


def test_forward_and_segment_do_not_depend_on_blas_threads():
    # training's gradient products round by the BLAS thread split, so
    # params.bin does; the forward pass and decoding must not
    src = os.path.dirname(os.path.abspath(attnseg.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.path.dirname(src))
        done = subprocess.run([sys.executable, "-c", THREADS_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(done.stdout.splitlines())
    assert len(outputs[0]) == 32
    for line, (one, two) in enumerate(zip(*outputs), start=1):
        assert one == two, (
            f"numpy {np.__version__}: toy sentence {line} hashes differently "
            "at 1 and 2 BLAS threads (emissions, segment output, decoded path)"
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
