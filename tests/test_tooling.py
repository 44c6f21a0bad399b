"""Guards on the tools the package relies on.

The benchmark's tracer wraps the package's functions by name
(perfbench/spans.py).  Installing and removing it here makes a rename of
a wrapped function fail the tests, not a traced benchmark run.

The attention summaries rely on numpy's einsum adding products in order;
a numpy release that changes that order fails here, by name, before the
tape bit-equality tests fail without saying why."""

import importlib.util
import os
import sys

import numpy as np
import pytest

import attnseg

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def load_spans():
    # read the file as it is: no bytecode cache is written next to it
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def test_tracer_wraps_and_restores_every_layer():
    spans = load_spans()
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
