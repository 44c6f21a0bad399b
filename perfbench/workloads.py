"""The workloads: train, segment-short and segment-long.

Each runner generates its inputs from the workload seed, writes them to
the run's scratch directory, warms up without timing, then runs the
timed work once.  The tracer is active only over set-up and the timed
work, never over warm-up or the output checks.  Peak RSS is read right
after the timed work, before any check runs.  Every runner returns
(attempted, failed, metrics), metrics mapping a name to (value, unit).
"""

import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

import gen
import oracle
import probe

MODEL_SEED = 7         # the untrained segment models do not vary with the workload seed
IDIOM_CHARS = 1000     # idioms use characters outside the text alphabet
# Probes (2-4 ms each) after each timed operation: some 5-10% of an
# operation's time at paper sizes.
SETUP_PROBE_UNITS = 1
SHORT_PROBE_UNITS = 1
LONG_PROBE_UNITS = 30
EPOCH_PROBE_UNITS = 100
# Set-up is plain Python (reading corpora, vocabularies, lexicons), numpy
# (drawing the initial weights) and some 700 page faults per build.
SETUP_PROBE_MIX = (probe.tape_unit, probe.text_unit, probe.fault_unit)
# Preprocessing, plain Python, takes 60-70% of segment-short's time.
SHORT_PROBE_MIX = (probe.tape_unit, probe.text_unit, probe.text_unit, probe.text_unit)


@dataclass(frozen=True)
class Sizes:
    hidden: int            # hidden = attention dimension
    emb_dim: int
    window: int
    alphabet: int          # Han characters the text is drawn from
    lexicon_words: int     # words in the generated Zipfian lexicon
    idioms: int            # entries of the segment-short idiom lexicon
    train_lengths: tuple   # characters per training sentence
    dev_lengths: tuple
    epochs: int
    batch_size: int
    short_lengths: tuple   # characters per segment-short line
    mixed_every: int       # every n-th short line has Latin, digits or an idiom
    long_lengths: tuple
    short_checked: int     # lines that get the Viterbi score check
    long_checked: int
    grad_coords: int       # coordinates per parameter in the gradient check
    setup_repeats: int


PAPER = Sizes(
    hidden=150, emb_dim=100, window=3,
    alphabet=3000, lexicon_words=2000, idioms=3000,
    train_lengths=tuple(6 + i % 13 for i in range(72)),
    dev_lengths=tuple(6 + i % 13 for i in range(26)),
    epochs=5, batch_size=8,
    short_lengths=tuple(6 + 7 * i % 25 for i in range(450)),
    mixed_every=5,
    long_lengths=(250,) * 12,
    short_checked=20, long_checked=1,
    grad_coords=2, setup_repeats=20,
)

TOY = Sizes(
    hidden=6, emb_dim=5, window=3,
    alphabet=60, lexicon_words=40, idioms=30,
    train_lengths=tuple(4 + i % 5 for i in range(40)),
    dev_lengths=tuple(4 + i % 5 for i in range(10)),
    epochs=3, batch_size=4,
    short_lengths=tuple(6 + 3 * i % 7 for i in range(20)),
    mixed_every=5,
    long_lengths=(30, 40),
    short_checked=8, long_checked=2,
    grad_coords=2, setup_repeats=3,
)


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))


def _config(attnseg, sizes, **kw):
    return attnseg.model.TrainConfig(
        hidden=sizes.hidden, emb_dim=sizes.emb_dim, window=sizes.window, **kw
    )


def run_train(attnseg, sizes, seed, workdir, tracer):
    """`fit` then `save_model`, as `attnseg train` runs them."""
    train = attnseg.train
    rng = np.random.default_rng(seed)
    source = gen.WordSource(rng, gen.han(0, sizes.alphabet), sizes.lexicon_words)
    train_words = [source.sentence(rng, n) for n in sizes.train_lengths]
    dev_words = [source.sentence(rng, n) for n in sizes.dev_lengths]
    train_path = os.path.join(workdir, "train.txt")
    dev_path = os.path.join(workdir, "dev.txt")
    _write_lines(train_path, [" ".join(ws) for ws in train_words])
    _write_lines(dev_path, [" ".join(ws) for ws in dev_words])
    out_dir = os.path.join(workdir, "model")
    config = _config(attnseg, sizes, epochs=sizes.epochs,
                     batch_size=sizes.batch_size, seed=seed)

    warm_corpus = attnseg.corpus.load_corpus(dev_path)
    warm = attnseg.model.Segmenter.build(warm_corpus, config)
    warm.loss_and_grads(warm_corpus[0])
    warm.decode(warm_corpus[0].tokens)

    clock, setup = probe.Clock(), probe.Clock(SETUP_PROBE_MIX)
    tracer.active = True
    setup.probe(SETUP_PROBE_UNITS)
    for _ in range(sizes.setup_repeats):
        start = time.perf_counter()
        train_corpus = attnseg.corpus.load_corpus(train_path)
        dev_corpus = attnseg.corpus.load_corpus(dev_path)
        model = attnseg.model.Segmenter.build(train_corpus, config)
        setup.record("setup", time.perf_counter() - start, SETUP_PROBE_UNITS)
    clock.probe(EPOCH_PROBE_UNITS)
    # Epoch i ends at the i-th on_epoch call; the probe runs inside the
    # callback and is left out of both neighbouring intervals.
    mark = [time.perf_counter()]

    def on_epoch(record):
        clock.record("epoch", time.perf_counter() - mark[0], EPOCH_PROBE_UNITS)
        mark[0] = time.perf_counter()

    model, history = train.fit(model, train_corpus, dev_corpus, config,
                               on_epoch=on_epoch)
    train.save_model(model, out_dir)
    clock.record("finish", time.perf_counter() - mark[0], EPOCH_PROBE_UNITS)
    tracer.active = False
    rss_mb = _peak_rss_mb()
    f1, problems = _check_train(attnseg, sizes, model, history, out_dir,
                                dev_corpus, dev_words, seed)
    for problem in problems:
        print(f"train: check failed: {problem}", file=sys.stderr)

    chars = sum(sizes.train_lengths) * sizes.epochs
    metrics = _timing_metrics(clock, setup, chars, ("epoch", "finish"), "epoch")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    metrics["dev_f1"] = (f1, "ratio")
    metrics["work.chars"] = (chars, "chars")
    metrics["work.calls"] = (len(sizes.train_lengths) * sizes.epochs, "count")
    metrics["work.attention_pairs"] = (
        sum(n * (n - 1) for n in sizes.train_lengths) * sizes.epochs, "count"
    )
    return 1, int(bool(problems)), metrics


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timing_metrics(clock, setup, chars, busy, latency):
    """End-to-end timings at the reference speed, and the same figures as
    measured (raw_*), from the work's clock and the set-up's.  Throughput
    counts the `busy` kinds of operation; latency is that of `latency`."""
    metrics = {}
    speed = clock.speed()
    samples = clock.times[latency]
    for prefix, scale, setup_scale in (("", speed, setup.speed()), ("raw_", 1.0, 1.0)):
        metrics[prefix + "setup_s"] = (
            setup_scale * statistics.median(setup.times["setup"]), "s"
        )
        metrics[prefix + "chars_per_s"] = (
            chars / (scale * sum(sum(clock.times[kind]) for kind in busy)), "chars/s"
        )
        metrics[prefix + "latency_p50_ms"] = (
            1e3 * scale * statistics.median(samples), "ms"
        )
        if len(samples) >= 100:
            metrics[prefix + "latency_p90_ms"] = (
                1e3 * scale * statistics.quantiles(samples, n=10)[8], "ms"
            )
    metrics["latency_samples"] = (len(samples), "count")
    metrics["machine_speed"] = (speed, "ratio")
    metrics["setup_machine_speed"] = (setup.speed(), "ratio")
    for unit in dict.fromkeys(clock.mix + setup.mix):
        metrics[f"machine_speed.{unit.__name__}"] = (
            probe.Clock.speed_of(unit, clock, setup), "ratio"
        )
    return metrics


def _check_train(attnseg, sizes, model, history, out_dir, dev_corpus,
                 dev_words, seed):
    """(dev F1, list of failed checks) for one trained model."""
    problems = []
    paths = [model.decode(sent.tokens) for sent in dev_corpus]
    gold = [oracle.spans_of_lengths(len(w) for w in words) for words in dev_words]
    try:
        f1 = oracle.micro_f1(zip(gold, map(oracle.spans_of_tags, paths)))
    except ValueError as exc:
        return 0.0, [f"decoded dev path is not a segmentation: {exc}"]
    singles = oracle.micro_f1(
        (g, oracle.spans_of_lengths([1] * len(p))) for g, p in zip(gold, paths)
    )
    if not f1 > singles:
        problems.append(f"dev F1 {f1:.4f} does not beat one word per "
                        f"character ({singles:.4f})")
    if not history[-1].nll < history[0].nll:
        problems.append(f"training NLL rose from {history[0].nll:.4f} "
                        f"to {history[-1].nll:.4f}")
    loaded = attnseg.train.load_model(out_dir)
    if [loaded.decode(sent.tokens) for sent in dev_corpus] != paths:
        problems.append("the saved and reloaded model decodes the dev set "
                        "differently")
    sentence = min(dev_corpus, key=lambda sent: len(sent.tokens))
    _, grads = model.loss_and_grads(sentence)
    rng = np.random.default_rng(seed)
    dim = model.config.emb_dim
    rows = sorted(set(model.vocab.encode(sentence.tokens)) | {0})
    # contiguous, so that each flat view below writes through to the model
    model.params = {k: np.ascontiguousarray(p) for k, p in model.params.items()}
    for name, param in model.params.items():
        flat = param.reshape(-1)
        if name == "emb.uni":
            coords = [int(rng.choice(rows)) * dim + int(rng.integers(dim))
                      for _ in range(sizes.grad_coords)]
        else:
            coords = [int(i) for i in rng.integers(0, flat.size, sizes.grad_coords)]
        bad = oracle.gradient_mismatches(
            lambda: model.nll(sentence), grads[name].reshape(-1), flat, coords
        )
        problems.extend(f"{name}[{i}]: analytic {a:.6g}, central difference "
                        f"{n:.6g}" for i, a, n in bad)
    return f1, problems


def _segment_model(attnseg, sizes, model_dir, with_lexicon):
    """Save an untrained model over the whole text alphabet.  Decode cost
    does not depend on the weight values."""
    rng = np.random.default_rng(MODEL_SEED)
    chars = gen.han(0, sizes.alphabet)
    lexicon = None
    if with_lexicon:
        lexicon = gen.idiom_lexicon(
            rng, gen.han(sizes.alphabet, IDIOM_CHARS), sizes.idioms
        )
    corpus = attnseg.corpus.Corpus([
        attnseg.corpus.Sentence(tokens=chars[i:i + 50],
                                tags=[oracle.S] * len(chars[i:i + 50]))
        for i in range(0, len(chars), 50)
    ])
    model = attnseg.model.Segmenter.build(
        corpus, _config(attnseg, sizes, seed=MODEL_SEED),
        lexicon=frozenset(lexicon) if lexicon else None,
    )
    attnseg.train.save_model(model, model_dir)
    return chars, lexicon


def _run_segment(attnseg, sizes, seed, workdir, tracer, lengths,
                 mixed_every, with_lexicon, checked, probe_units, probe_mix):
    model_dir = os.path.join(workdir, "model")
    chars, lexicon = _segment_model(attnseg, sizes, model_dir, with_lexicon)
    rng = np.random.default_rng(seed)
    source = gen.WordSource(rng, chars, sizes.lexicon_words)
    lines, tokens, mixed = gen.segment_lines(
        rng, source, lengths, mixed_every, lexicon or ()
    )
    input_path = os.path.join(workdir, "input.txt")
    _write_lines(input_path, lines)
    # Only all-Han lines get the score check: their tokens are exactly
    # their characters, so the decoded path can be read off the output.
    pure = [i for i, m in enumerate(mixed) if not m]
    sample = {int(i) for i in rng.choice(pure, size=checked, replace=False)}

    warm = attnseg.train.load_model(model_dir)
    warm.segment(lines[pure[0]][:8])

    clock, setup = probe.Clock(probe_mix), probe.Clock(SETUP_PROBE_MIX)
    tracer.active = True
    setup.probe(SETUP_PROBE_UNITS)
    for _ in range(sizes.setup_repeats):
        start = time.perf_counter()
        model = attnseg.train.load_model(model_dir)
        with open(input_path, encoding="utf-8") as fh:
            text_lines = fh.read().split("\n")[:-1]
        setup.record("setup", time.perf_counter() - start, SETUP_PROBE_UNITS)
    clock.probe(probe_units)
    outputs = []
    for line in text_lines:
        start = time.perf_counter()
        outputs.append(model.segment(line))
        clock.record("line", time.perf_counter() - start, probe_units)
    tracer.active = False
    rss_mb = _peak_rss_mb()
    failed = 0
    for i, (line, words) in enumerate(zip(text_lines, outputs)):
        problem = _check_line(model, line, words, i in sample)
        if problem:
            failed += 1
            print(f"line {i + 1}: check failed: {problem}", file=sys.stderr)

    metrics = _timing_metrics(clock, setup, sum(lengths), ("line",), "line")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    metrics["work.chars"] = (sum(lengths), "chars")
    metrics["work.calls"] = (len(lines), "count")
    metrics["work.attention_pairs"] = (sum(n * (n - 1) for n in tokens), "count")
    return len(lines), failed, metrics


def _check_line(model, line, words, score_check):
    """None if the output is right, else what is wrong with it."""
    if "".join("".join(words).split()) != "".join(line.split()):
        return f"output {' '.join(words)!r} does not spell the input {line!r}"
    if not score_check:
        return None
    emissions, _ = model.emissions(list(line))
    trans = model.params["crf.trans"]
    got = oracle.path_score(emissions, trans,
                            oracle.tags_of_lengths(len(w) for w in words))
    best = oracle.best_masked_score(emissions, trans)
    if abs(got - best) > 1e-9 * max(1.0, abs(best)):
        return f"decoded path scores {got!r}, the best masked path {best!r}"
    return None


def run_segment_short(attnseg, sizes, seed, workdir, tracer):
    """Several hundred short lines with an idiom lexicon in the model."""
    return _run_segment(attnseg, sizes, seed, workdir, tracer,
                        sizes.short_lengths, sizes.mixed_every, True,
                        sizes.short_checked, SHORT_PROBE_UNITS, SHORT_PROBE_MIX)


def run_segment_long(attnseg, sizes, seed, workdir, tracer):
    """Long unpunctuated Han lines, no lexicon."""
    return _run_segment(attnseg, sizes, seed, workdir, tracer,
                        sizes.long_lengths, 0, False, sizes.long_checked,
                        LONG_PROBE_UNITS, (probe.tape_unit,))


RUNNERS = {
    "train": run_train,
    "segment-short": run_segment_short,
    "segment-long": run_segment_long,
}
