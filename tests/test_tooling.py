"""The benchmark's tracer wraps the package's functions by name
(perfbench/spans.py).  Installing and removing it here makes a rename of
a wrapped function fail the tests, not a traced benchmark run."""

import importlib.util
import os
import sys

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
