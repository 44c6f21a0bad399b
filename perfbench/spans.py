"""Spans around the program's public functions, taken from outside it.

The tracer replaces the module and class attributes the program calls
through (``attnseg.encoder.forward``, ``Segmenter.decode`` and so on)
with wrappers that record one span per call: name, start, end and the
index of the enclosing span.  Nothing under ``src/`` is edited, and
``uninstall`` puts every original back.  Spans stay in memory until the
run ends.  A span's self time is its duration minus the time its direct
children cover; calls nest in one thread, so that is the sum of the
children's durations.
"""

import json
import time
import tracemalloc


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index]
        self.active = False    # wrappers pass straight through when False
        self.largest = {}      # name -> (size, function, args, kwargs)
        self._stack = []
        self._undo = []

    def _wrapper(self, name, fn, size_of):
        spans, stack, largest = self.spans, self._stack, self.largest

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if size_of is not None:
                size = size_of(args)
                if size > largest.get(name, (-1,))[0]:
                    largest[name] = (size, fn, args, kwargs)
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end

        return traced

    def wrap(self, name, owners, attr, size_of=None):
        """Replace `attr` on every object in `owners` (all bound to the
        same function) by one traced wrapper.  With `size_of`, the call
        with the largest size_of(args) is kept for peak_mb."""
        raw = vars(owners[0])[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrapper(name, raw.__func__, size_of))
        else:
            wrapped = self._wrapper(name, raw, size_of)
        for owner in owners:
            self._undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def peak_mb(self, name):
        """tracemalloc peak of the allocations made by the largest call
        of `name`, repeated after the run with the same arguments: under
        tracemalloc a call runs several times slower, so no timed call
        carries it.  0 if `name` was never called."""
        if name not in self.largest:
            return 0.0
        _, fn, args, kwargs = self.largest[name]
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def summary(self):
        """{name: (calls, total_ms, self_ms)} over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + 1e3 * (end - start),
                         own + 1e3 * (end - start - covered))
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


# (metric prefix, objects under attnseg whose attribute the program
# calls through, attribute); a function imported into several modules
# is wrapped in each of them.
LAYERS = (
    ("corpus.preprocess", ("corpus", "model"), "preprocess"),
    ("corpus.featurize", ("model",), "featurize"),
    ("corpus.load_corpus", ("corpus",), "load_corpus"),
    ("encoder.forward", ("encoder",), "forward"),
    ("encoder.backward", ("encoder",), "backward"),
    ("crf.viterbi", ("crf",), "viterbi"),
    ("crf.nll_and_grads", ("crf",), "nll_and_grads"),
    ("model.build", ("model.Segmenter",), "build"),
    ("model.loss_and_grads", ("model.Segmenter",), "loss_and_grads"),
    ("model.decode", ("model.Segmenter",), "decode"),
    ("model.segment", ("model.Segmenter",), "segment"),
    ("train.train_epoch", ("train",), "train_epoch"),
    ("train.adagrad_update", ("train",), "adagrad_update"),
    ("train.tag_accuracy", ("train",), "tag_accuracy"),
    ("train.save_model", ("train",), "save_model"),
    ("train.load_model", ("train",), "load_model"),
    ("evaluate.evaluate_corpus", ("evaluate", "train"), "evaluate_corpus"),
)
# Layers whose memory is measured, with the size of a call's input:
# encoder.forward(params, config, inputs, ...) allocates with the length.
PEAK = {"encoder.forward": lambda args: len(args[2])}


def install(tracer, attnseg):
    """Wrap every layer in LAYERS; `attnseg` is the imported package."""
    for name, paths, attr in LAYERS:
        owners = []
        for path in paths:
            obj = attnseg
            for part in path.split("."):
                obj = getattr(obj, part)
            owners.append(obj)
        tracer.wrap(name, owners, attr, PEAK.get(name))
