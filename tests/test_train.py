import dataclasses
import json
import math
import mmap
import os
import re
import resource
import tracemalloc

import numpy as np
import pytest

from attnseg import crf, encoder, tagging, worker
from attnseg import train as train_module
from attnseg.corpus import (
    IDIOM, RESERVED, Corpus, Sentence, Vocab, load_embeddings,
    load_toy_corpus, preprocess, sentence_bigrams, split_train_dev,
)
from attnseg.evaluate import evaluate_corpus
from attnseg.model import TABLES, Segmenter, TrainConfig, param_shapes
from attnseg.numerics import ShapeError
from attnseg.train import (
    IO_CHUNK, adagrad_update, fit, load_model, model_gradient_check,
    save_model, tag_accuracy, train_epoch,
)
from model_files import json_edit, rehashed_edit
from oracles import is_valid, train_epoch_sequential

TOY_CONFIG = dict(hidden=12, emb_dim=8, window=3, dropout=0.0,
                  batch_size=8, epochs=2, seed=42)


def toy_model(**overrides):
    corpus = load_toy_corpus()
    cfg = TrainConfig(**{**TOY_CONFIG, **overrides})
    return Segmenter.build(corpus, cfg), corpus, cfg


def same_bits(params, other):
    """Whether two parameter dicts hold the same names in the same order
    and arrays of the same dtypes, shapes and bytes."""
    return list(params) == list(other) and all(
        p.dtype == other[name].dtype and p.shape == other[name].shape
        and p.tobytes() == other[name].tobytes()
        for name, p in params.items())


def zero_accum(model):
    """AdaGrad sums of zeros for every parameter, as before a first epoch."""
    return {k: np.zeros_like(p) for k, p in model.params.items()}


def test_adagrad_zero_gradient_is_identity():
    p = np.array([1.0, -2.0])
    g = np.zeros(2)
    acc = np.array([0.5, 0.5])
    p2, acc2 = adagrad_update(p, g, acc, lr=0.1, eps=1e-6)
    assert np.array_equal(p2, [1.0, -2.0])
    assert np.array_equal(acc2, [0.5, 0.5])


def test_adagrad_zero_learning_rate_is_identity():
    p = np.array([1.0])
    adagrad_update(p, np.array([0.3]), np.zeros(1), lr=0.0, eps=1e-6)
    assert p[0] == 1.0


def test_adagrad_first_step_magnitude():
    p = np.zeros(1)
    adagrad_update(p, np.array([0.3]), np.zeros(1), lr=0.1, eps=1e-6)
    want = 0.1 * 0.3 / (0.3 + 1e-6)
    assert abs(-p[0] - want) < 1e-15


def test_adagrad_steps_shrink_for_repeated_gradient():
    p = np.zeros(1)
    acc = np.zeros(1)
    g = np.array([0.7])
    adagrad_update(p, g, acc, lr=0.1, eps=1e-6)
    first = abs(p[0])
    before = p[0]
    adagrad_update(p, g, acc, lr=0.1, eps=1e-6)
    second = abs(p[0] - before)
    assert second < first


def test_adagrad_shape_mismatch():
    with pytest.raises(ShapeError):
        adagrad_update(np.zeros(2), np.zeros(3), np.zeros(2), 0.1, 1e-6)


def test_adagrad_accumulator_never_decreases():
    rng = np.random.default_rng(62)
    p = rng.normal(size=5)
    acc = np.zeros(5)
    prev = acc.copy()
    for _ in range(30):
        adagrad_update(p, rng.normal(size=5), acc, 0.05, 1e-6)
        assert np.all(acc >= prev)
        prev = acc.copy()


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(dropout=1.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(window=2)
    with pytest.raises(ValueError):
        TrainConfig(extra_layers=5)
    # values that fail silently or late: a nan clip_norm clips nothing, a
    # zero epsilon divides by zero after one batch, a negative one can
    # flip the step, a float count dies in train_epoch, bigrams=1 trains
    # but writes a model.json that load_model refuses, and an int past a
    # float's range overflowed in the int-to-float conversion
    for fields in ({"learning_rate": float("inf")}, {"learning_rate": float("nan")},
                   {"clip_norm": float("nan")}, {"clip_norm": float("inf")},
                   {"adagrad_epsilon": 0.0}, {"adagrad_epsilon": -1.0},
                   {"adagrad_epsilon": float("nan")},
                   {"adagrad_epsilon": float("inf")},
                   {"batch_size": 2.5}, {"hidden": 8.0}, {"window": 3.0},
                   {"memory_span": 2.5}, {"bigrams": 1},
                   {"learning_rate": 10 ** 400}, {"clip_norm": -10 ** 400},
                   {"dropout": 2 ** 1024}):
        name = next(iter(fields))
        with pytest.raises(ValueError, match=name):
            TrainConfig(**fields)
        # the path load_model takes for model.json
        with pytest.raises(ValueError, match=name):
            TrainConfig.from_dict({**TrainConfig().to_dict(), **fields})
    # counts, sizes and the seed below their least value, and a dev
    # fraction at either end of (0, 1)
    for fields in ({"epochs": 0}, {"hidden": 0}, {"emb_dim": 0},
                   {"attn_dim": 0}, {"seed": -1}, {"dev_fraction": 0.0},
                   {"dev_fraction": 1.0}):
        name = next(iter(fields))
        with pytest.raises(ValueError, match=name):
            TrainConfig(**fields)
        with pytest.raises(ValueError, match=name):
            TrainConfig.from_dict({**TrainConfig().to_dict(), **fields})
    # numpy scalars are numbers like any other, stored as plain ints and
    # floats; numpy bools are bools
    cfg = TrainConfig(learning_rate=np.float64(0.05), hidden=np.int64(8),
                      dropout=np.float32(0.25), clip_norm=np.int32(2))
    assert cfg == TrainConfig(learning_rate=0.05, hidden=8, dropout=0.25,
                              clip_norm=2.0)
    assert [type(getattr(cfg, name)) for name in
            ("learning_rate", "hidden", "dropout", "clip_norm")] == \
        [float, int, float, float]
    for fields in ({"bigrams": np.bool_(True)}, {"hidden": np.bool_(True)},
                   {"learning_rate": np.bool_(True)}, {"hidden": np.float64(8.0)},
                   {"learning_rate": np.float64("nan")}):
        name = next(iter(fields))
        with pytest.raises(ValueError, match=name):
            TrainConfig(**fields)


def test_config_roundtrip():
    cfg = TrainConfig(hidden=20, bigrams=True, memory_span=4)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    # a missing field would take its default, so the dict must name
    # every field, and no other
    odd = cfg.to_dict()
    del odd["memory_span"], odd["seed"]
    odd["no_such_field"] = 1
    with pytest.raises(ValueError, match=re.escape("config fields ['memory_span', "
                                                   "'no_such_field', 'seed'] are "
                                                   "missing or unknown")):
        TrainConfig.from_dict(odd)


@pytest.mark.parametrize("fields, name", [
    ({"hidden": "4"}, "hidden"),
    ({"bigrams": "no"}, "bigrams"),
    ({"bigrams": 1}, "bigrams"),
    ({"batch_size": 2.5}, "batch_size"),
    ({"batch_size": True}, "batch_size"),
    ({"dropout": True}, "dropout"),
    ({"hidden": None}, "hidden"),
    ({"memory_span": "2"}, "memory_span"),
])
def test_config_from_dict_checks_field_types(fields, name):
    with pytest.raises(ValueError, match=name):
        TrainConfig.from_dict({**TrainConfig().to_dict(), **fields})


def test_config_from_dict_takes_declared_types():
    cfg = TrainConfig.from_dict({**TrainConfig().to_dict(), "dropout": 0,
                                 "clip_norm": 1, "attn_dim": None,
                                 "memory_span": None, "bigrams": True})
    assert cfg == TrainConfig(dropout=0.0, clip_norm=1.0, bigrams=True)
    assert type(cfg.dropout) is float and type(cfg.clip_norm) is float
    with pytest.raises(ValueError):
        TrainConfig.from_dict([["hidden", 4]])


def test_adagrad_scratch_update_matches_formula_bitwise():
    # 1-d and 2-d parameters, small and large, each element stepped by
    # the formula's operations in the formula's order
    rng = np.random.default_rng(63)
    for shape in [(60, 45), (2 * 2 ** 15 + 123,), (70, 1000)]:
        p = rng.normal(size=shape)
        g = rng.normal(size=shape)
        acc = rng.random(shape)
        want_p, want_acc = p.copy(), acc.copy()
        want_acc += g * g
        want_p -= 0.1 * g / (np.sqrt(want_acc) + 1e-6)
        g_before = g.copy()
        adagrad_update(p, g, acc, 0.1, 1e-6)
        assert np.array_equal(p, want_p), shape
        assert np.array_equal(acc, want_acc), shape
        assert np.array_equal(g, g_before), shape
    # strided views step their parents' even columns in place and leave
    # the odd columns and the gradient as they were
    p, g = rng.normal(size=(40, 60)), rng.normal(size=(40, 60))
    acc = rng.random((40, 60))
    want_p, want_acc, g_before = p.copy(), acc.copy(), g.copy()
    want_acc[:, ::2] += g[:, ::2] * g[:, ::2]
    want_p[:, ::2] -= 0.1 * g[:, ::2] / (np.sqrt(want_acc[:, ::2]) + 1e-6)
    adagrad_update(p[:, ::2], g[:, ::2], acc[:, ::2], 0.1, 1e-6)
    assert np.array_equal(p, want_p)
    assert np.array_equal(acc, want_acc)
    assert np.array_equal(g, g_before)


def test_train_epoch_returns_finite_stats_and_learns():
    model, corpus, cfg = toy_model()
    rng = np.random.default_rng(cfg.seed)
    accum = {k: np.zeros_like(p) for k, p in model.params.items()}
    nll1 = train_epoch(model, corpus, cfg, rng, accum)
    acc = tag_accuracy(model, corpus)
    nll2 = train_epoch(model, corpus, cfg, rng, accum)
    assert np.isfinite(nll1) and np.isfinite(nll2)
    assert 0.0 <= acc <= 1.0
    assert nll2 < nll1


@pytest.mark.parametrize("overrides", [
    {}, {"bigrams": True}, {"extra_layers": 1, "memory_span": 2},
])
def test_nll_matches_training_loss(overrides):
    # nll runs the encoder without gradients and the CRF's log partition;
    # loss_and_grads keeps the cache and takes the loss from nll_and_grads
    model, corpus, _ = toy_model(**overrides)
    for sent in corpus:
        assert model.nll(sent) == model.loss_and_grads(sent)[0]


def test_train_epoch_does_not_decode(monkeypatch):
    # an epoch trains; decoding the training set is tag_accuracy's job
    model, corpus, cfg = toy_model()

    def no_decode(self, tokens):
        raise AssertionError("train_epoch decoded a sentence")

    monkeypatch.setattr(Segmenter, "decode", no_decode)
    nll = train_epoch(model, corpus, cfg, np.random.default_rng(cfg.seed),
                      zero_accum(model))
    assert np.isfinite(nll)


def test_train_epoch_empty_corpus_errors():
    model, _, cfg = toy_model()
    with pytest.raises(ValueError):
        train_epoch(model, [], cfg, np.random.default_rng(0),
                    zero_accum(model))


def test_train_epoch_is_deterministic():
    runs = []
    for _ in range(2):
        model, corpus, cfg = toy_model()
        rng = np.random.default_rng(cfg.seed)
        nll = train_epoch(model, corpus, cfg, rng, zero_accum(model))
        runs.append((nll, model.params))
    assert runs[0][0] == runs[1][0]
    assert same_bits(runs[0][1], runs[1][1])


def test_train_epoch_aborts_on_non_finite_loss():
    model, corpus, cfg = toy_model()
    model.params["out.b"][:] = np.nan
    with pytest.raises(FloatingPointError, match="batch"):
        train_epoch(model, corpus, cfg, np.random.default_rng(0),
                    zero_accum(model))


def test_gradient_accumulation_is_batch_mean():
    # one batch of the whole corpus: a single update from the mean grad
    model, corpus, cfg = toy_model(batch_size=32, learning_rate=0.5)
    twin, _, _ = toy_model(batch_size=32, learning_rate=0.5)
    rng = np.random.default_rng(cfg.seed)
    train_epoch(model, corpus, cfg, rng, zero_accum(model))

    order = np.random.default_rng(cfg.seed).permutation(32)
    _, sums = twin.loss_and_grads([corpus[int(i)] for i in order])
    accum = {k: np.zeros_like(p) for k, p in twin.params.items()}
    for k in twin.params:
        adagrad_update(twin.params[k], sums[k] / 32.0, accum[k],
                       0.5, cfg.adagrad_epsilon)
    for k in model.params:
        assert np.array_equal(model.params[k], twin.params[k]), k


@pytest.mark.parametrize("overrides", [
    {}, {"bigrams": True}, {"memory_span": 2, "extra_layers": 1},
])
def test_batched_loss_and_grads_match_single_sentences(overrides):
    model, corpus, _ = toy_model(**overrides)
    batch = [corpus[i] for i in (3, 0, 7, 1, 5)]
    losses, grads = model.loss_and_grads(batch, dropout=0.3,
                                         rng=np.random.default_rng(9))
    rng = np.random.default_rng(9)
    sums = {k: np.zeros_like(p) for k, p in model.params.items()}
    for sent, loss in zip(batch, losses):
        one_loss, one_grads = model.loss_and_grads(sent, dropout=0.3, rng=rng)
        assert loss == one_loss
        for k in sums:
            sums[k] += one_grads[k]
    assert list(grads) == list(model.params)
    # backward's products over the batch round apart from one sentence's,
    # within 1e-12 of each gradient's largest entry. The second layer's
    # attn.wx and attn.wp are the exception: they take each step's window
    # sum of the d pre terms, which the softmax's shift invariance nearly
    # cancels (at these weights to about 1e-4 of the terms), so their
    # rounding follows the terms' size. attn.wh sums the same d pre terms
    # over steps, without that cancellation, and gives their scale.
    for k in sums:
        scale = np.max(np.abs(sums[k]))
        if k.startswith("enc1.") and k.endswith(("attn.wx", "attn.wp")):
            scale = np.max(np.abs(sums[k.rsplit(".", 1)[0] + ".wh"]))
        assert np.max(np.abs(grads[k] - sums[k])) <= 1e-12 * scale, k


@pytest.mark.parametrize("overrides", [
    {}, {"bigrams": True}, {"clip_norm": 0.1},
    {"memory_span": 2, "extra_layers": 1},
    {"bigrams": True, "clip_norm": 0.1},
])
def test_train_epoch_matches_sequential_reference(overrides):
    # batches of 5 over 32 sentences end in a partial batch
    kw = dict(dropout=0.2, batch_size=5, **overrides)
    model, corpus, cfg = toy_model(**kw)
    twin, _, _ = toy_model(**kw)
    accum = {k: np.zeros_like(p) for k, p in model.params.items()}
    twin_accum = {k: np.zeros_like(p) for k, p in twin.params.items()}
    rng = np.random.default_rng(cfg.seed)
    twin_rng = np.random.default_rng(cfg.seed)
    for _ in range(2):
        nll = train_epoch(model, corpus, cfg, rng, accum)
        assert nll == train_epoch_sequential(twin, corpus, cfg,
                                             twin_rng, twin_accum)
    assert same_bits(model.params, twin.params)
    for k in accum:
        assert np.array_equal(accum[k], twin_accum[k]), k


def test_clip_norm_caps_update():
    model, corpus, cfg = toy_model(clip_norm=1e-9)
    before = {name: p.copy() for name, p in model.params.items()}
    train_epoch(model, corpus, cfg, np.random.default_rng(0),
                zero_accum(model))
    # with the gradient clipped to ~0 the AdaGrad step is ~lr per coord at most;
    # the real check is that it ran and moved far less than unclipped training
    assert max(np.max(np.abs(p - before[name]))
               for name, p in model.params.items()) < 1.0


def test_fit_single_epoch_and_history():
    model, corpus, cfg = toy_model(epochs=1)
    _, history = fit(model, corpus, corpus, cfg)
    assert len(history) == 1
    assert history[0].epoch == 1


def test_fit_rejects_empty_corpora():
    model, corpus, cfg = toy_model(epochs=1)
    for train, dev in (([], corpus), (corpus, [])):
        with pytest.raises(ValueError, match="non-empty"):
            fit(model, train, dev, cfg)


def test_segmenter_needs_bigram_vocab_iff_bigrams():
    model, _, _ = toy_model()
    cfg = dataclasses.replace(model.config, bigrams=True)
    with pytest.raises(ValueError, match="bigram vocab"):
        Segmenter(cfg, model.vocab, model.params)


def test_corpora_are_plain_lists_of_sentences():
    corpus = load_toy_corpus()  # load_corpus on the bundled file
    assert type(corpus) is list
    train, dev = split_train_dev(corpus, 0.25, seed=3)
    assert type(train) is list and type(dev) is list
    cfg = TrainConfig(**{**TOY_CONFIG, "epochs": 1})
    model, (rec,) = fit(Segmenter.build(train, cfg), train, dev, cfg)
    assert evaluate_corpus(model, dev) == (rec.precision, rec.recall, rec.f1)
    # the name perfbench still builds its corpus with
    assert Corpus(corpus[:1]) == corpus[:1]


def test_fit_history_length_and_best_selection():
    model, corpus, cfg = toy_model(epochs=4)
    model, history = fit(model, corpus, corpus, cfg)
    assert len(history) == 4
    best = max(rec.f1 for rec in history)
    _, _, f1_now = evaluate_corpus(model, corpus)
    assert f1_now == best


def test_fit_restores_a_copy_of_the_first_best_epoch(monkeypatch):
    # dev F1 0.5, 0.7, 0.6, 0.7: the tie at epoch 4 keeps epoch 2
    scores = iter([0.5, 0.7, 0.6, 0.7])
    monkeypatch.setattr(train_module, "evaluate_corpus",
                        lambda model, corpus: (0.0, 0.0, next(scores)))
    model, corpus, cfg = toy_model(epochs=4)
    trained = dict(model.params)
    snapshots = []
    fit(model, corpus, corpus, cfg, on_epoch=lambda rec: snapshots.append(
        {name: p.copy() for name, p in model.params.items()}))
    assert len(snapshots) == 4
    assert list(model.params) == list(trained)
    for name, p in model.params.items():
        assert p is not trained[name], name
        assert p.shape == snapshots[1][name].shape, name
        assert p.tobytes() == snapshots[1][name].tobytes(), name
        assert not np.array_equal(trained[name], snapshots[1][name]), name


def test_fit_on_epoch_callback():
    model, corpus, cfg = toy_model(epochs=2)
    seen = []
    fit(model, corpus, corpus, cfg, on_epoch=lambda rec: seen.append(rec.epoch))
    assert seen == [1, 2]


def test_embedding_gradient_is_sparse():
    model, corpus, _ = toy_model()
    sent = corpus[0]
    _, grads = model.loss_and_grads(sent)
    used = set(model.vocab.encode(sent.tokens)) | {0}
    for row in range(len(model.vocab)):
        touched = np.max(np.abs(grads["emb.uni"][row])) > 0
        if row not in used:
            assert not touched, f"unused row {row} got gradient"
    assert set(grads) == set(model.params)


def test_batch_gradient_memory_does_not_grow_with_the_bigram_table():
    # the same batch over a bigram table of 20k and of 200k rows: each
    # sentence's gradient covers the rows it looked up, not the table
    peaks = []
    for rows in (20_000, 200_000):
        model, corpus, _ = toy_model(bigrams=True)
        table = model.params["emb.bi"]
        model.params["emb.bi"] = np.concatenate(
            [table, np.zeros((rows - len(table), table.shape[1]))])
        sums = {k: np.zeros_like(p) for k, p in model.params.items()}
        batch = [corpus[i] for i in range(8)]
        model.loss_and_grads(batch, into=sums)
        tracemalloc.start()
        try:
            model.loss_and_grads(batch, into=sums)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0]


def test_one_batch_updates_only_the_looked_up_embedding_rows(monkeypatch):
    model, corpus, cfg = toy_model(bigrams=True)
    batch = corpus[:cfg.batch_size]
    before = {k: p.copy() for k, p in model.params.items()}
    accum = {k: np.zeros_like(p) for k, p in model.params.items()}
    shapes, shared = [], []

    def recording_update(param, grad, acc, *args):
        # the parameters and accumulators that the updated arrays view
        shapes.append(param.shape)
        shared.append(([k for k, p in model.params.items() if np.shares_memory(param, p)],
                       [k for k, a in accum.items() if np.shares_memory(acc, a)]))
        return adagrad_update(param, grad, acc, *args)

    monkeypatch.setattr(train_module, "adagrad_update", recording_update)
    train_epoch(model, batch, cfg, np.random.default_rng(0), accum)
    tokens = [tok for sent in batch for tok in sent.tokens]
    bigrams = [b for sent in batch for b in sentence_bigrams(sent.tokens)]
    # every sentence's window reads <PAD> (row 0) past its ends
    looked_up = {"emb.uni": sorted(set(model.vocab.encode(tokens)) | {0}),
                 "emb.bi": sorted(set(model.bigram_vocab.encode(bigrams)))}
    dim = cfg.emb_dim
    others = [name for name in model.params if name not in looked_up]
    assert shapes == [(len(looked_up["emb.uni"]), dim),
                      (len(looked_up["emb.bi"]), dim)] + [
        model.params[name].shape for name in others]
    # a table's rows are gathered copies; every other parameter and its
    # accumulator are updated in place, with no copy
    assert shared == [([], [])] * len(looked_up) + [([name], [name]) for name in others]
    for name, ids in looked_up.items():
        assert len(ids) < len(model.params[name])
        others = np.setdiff1d(np.arange(len(model.params[name])), ids)
        assert np.array_equal(model.params[name][others], before[name][others])
        assert not accum[name][others].any()
        assert accum[name][ids].any(axis=1).all()


def test_model_gradient_check_small():
    from attnseg.cli import gradcheck_fixture
    model, sent = gradcheck_fixture(1)
    assert model_gradient_check(model, sent) < 1e-3


def test_model_gradient_check_window3_bigrams():
    # the fixture runs window 1 without bigrams; here d_inputs splits
    # into three window slots of emb.uni and one slot of emb.bi
    from attnseg.cli import gradcheck_fixture
    model, sent = gradcheck_fixture(1)
    cfg = dataclasses.replace(model.config, window=3, bigrams=True)
    model = Segmenter.build([sent], cfg)
    rng = np.random.default_rng(1)
    for name, p in model.params.items():
        model.params[name] = rng.normal(0.0, 0.5, size=p.shape)
    assert model_gradient_check(model, sent) < 1e-3


def test_model_gradient_check_corrupt_hook_fails(monkeypatch):
    # the harness must be able to fail: one output-bias coordinate of the
    # analytic gradient is off by 0.5
    from attnseg.cli import gradcheck_fixture
    model, sent = gradcheck_fixture(1)
    loss_and_grads = Segmenter.loss_and_grads

    def bent(self, *args, **kwargs):
        loss, grads = loss_and_grads(self, *args, **kwargs)
        grads["out.b"][0] += 0.5
        return loss, grads

    monkeypatch.setattr(Segmenter, "loss_and_grads", bent)
    assert model_gradient_check(model, sent) > 1e-2


def nll_bent_at(monkeypatch, model, name, index, outcome):
    """Make Segmenter.nll call `outcome` while the check's probe has moved
    model.params[name][index]; the list returned gets each params dict
    that nll read."""
    held = model.params[name][index]
    nll = Segmenter.nll
    seen = []

    def bent(self, sentence):
        seen.append(self.params)
        if self.params[name][index] != held:
            return outcome()
        return nll(self, sentence)

    monkeypatch.setattr(Segmenter, "nll", bent)
    return seen


def test_model_gradient_check_names_a_non_finite_probe(monkeypatch):
    # nll is NaN while one coordinate of one parameter is probed: the
    # error names that parameter and the coordinate within it
    from attnseg.cli import gradcheck_fixture
    model, sent = gradcheck_fixture(1)
    nll_bent_at(monkeypatch, model, "enc0.bwd.cell.w", (7, 3),
                lambda: float("nan"))
    with pytest.raises(ValueError, match=r"^enc0\.bwd\.cell\.w: .*"
                       r"probing coordinate 7, 3$"):
        model_gradient_check(model, sent)


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
@pytest.mark.parametrize("fails", [False, True], ids=["done", "raised"])
def test_model_gradient_check_gives_back_the_callers_params(
        tmp_path, monkeypatch, loaded, fails):
    # the probes move the model's own encoder arrays (and float64 copies
    # of a loaded model's float32 tables), and model.params is the
    # caller's dict again afterwards, with the same arrays bitwise as
    # they were, also when nll raises with a coordinate moved
    from attnseg.cli import gradcheck_fixture
    model, sent = gradcheck_fixture(1)
    if loaded:
        save_model(model, tmp_path / "m")
        model = load_model(tmp_path / "m")
    params, arrays = model.params, list(model.params.values())
    before = {name: p.copy() for name, p in params.items()}

    def fail():
        raise RuntimeError("nll failed")

    seen = nll_bent_at(monkeypatch, model, "enc0.fwd.cell.w", (2, 5),
                       fail if fails else lambda: 0.0)
    if fails:
        with pytest.raises(RuntimeError, match="nll failed"):
            model_gradient_check(model, sent)
    else:
        assert model_gradient_check(model, sent) > 1e-2
    assert seen[-1]["enc0.fwd.cell.w"] is params["enc0.fwd.cell.w"]
    assert model.params is params
    assert all(p is q for p, q in zip(params.values(), arrays))
    assert same_bits(params, before)


def trained_toy_model(tmp_path, epochs=3):
    model, corpus, cfg = toy_model(epochs=epochs)
    fit(model, corpus, corpus, cfg)
    d = os.path.join(tmp_path, "m")
    save_model(model, d)
    return model, corpus, d


def test_save_load_roundtrip_decodes_identically(tmp_path):
    model, corpus, d = trained_toy_model(tmp_path)
    loaded = load_model(d)
    assert loaded.config == model.config
    assert loaded.config.hidden == model.config.hidden
    assert loaded.vocab.id_to_token == model.vocab.id_to_token
    for sent in corpus:
        assert loaded.decode(sent.tokens) == model.decode(sent.tokens)


def test_save_load_save_is_byte_identical(tmp_path):
    # ints given for float fields are stored as floats, so a loaded model
    # saves the files it was loaded from
    model, _, _ = toy_model(learning_rate=1, adagrad_epsilon=1, clip_norm=1)
    first, second = tmp_path / "first", tmp_path / "second"
    save_model(model, first)
    save_model(load_model(first), second)
    assert sorted(os.listdir(first)) == sorted(os.listdir(second))
    for name in os.listdir(first):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_save_load_float32_quantization_is_the_only_change(tmp_path):
    model, _, d = trained_toy_model(tmp_path)
    loaded = load_model(d)
    for name, p in model.params.items():
        assert np.array_equal(
            loaded.params[name], p.astype("<f4").astype(np.float64)
        )


def test_load_rejects_corrupted_params(tmp_path):
    _, _, d = trained_toy_model(tmp_path)
    path = os.path.join(d, "params.bin")
    blob = bytearray(open(path, "rb").read())
    blob[13] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    with pytest.raises(ValueError, match="checksum"):
        load_model(d)


def test_load_rejects_unknown_format_version(tmp_path):
    _, _, d = trained_toy_model(tmp_path)

    def version_99(meta):
        meta["format"] = "attnseg-model/99"
        return meta

    rehashed_edit(d, "model.json", json_edit(version_99))
    with pytest.raises(ValueError, match="format"):
        load_model(d)


# crf.trans, (NUM_TAGS + 2)^2 binary32 values, ends params.bin
TRANS_BYTES = 4 * (tagging.NUM_TAGS + 2) ** 2


def nan_in_transitions(payload):
    at = len(payload) - TRANS_BYTES + 4
    return payload[:at] + np.float32(np.nan).tobytes() + payload[at + 4:]


def trailing_bytes(payload):
    return payload + bytes(8)


def truncated(payload):
    return payload[:-4]


@pytest.mark.parametrize("edit, named", [
    (nan_in_transitions, "crf.trans"),
    (trailing_bytes, "params.bin"),
    (truncated, "params.bin"),
])
def test_load_rejects_tampered_params(tmp_path, edit, named):
    model, _, _ = toy_model()
    d = os.path.join(tmp_path, "m")
    save_model(model, d)
    rehashed_edit(d, "params.bin", edit)
    with pytest.raises(ValueError, match=re.escape(named)) as info:
        load_model(d)
    assert os.path.join(d, "params.bin") in str(info.value)


def wide_model(rows, emb_dim, bigram_rows=None):
    """An untrained toy-config model with `rows` unigram rows (and
    `bigram_rows` bigram rows) of emb_dim values, built straight from its
    Vocab and param_shapes: the tables are large, the vocab files small."""

    def vocab(size):
        return Vocab(list(RESERVED) + [chr(0x4E00 + i)
                                       for i in range(size - len(RESERVED))])

    cfg = TrainConfig(**{**TOY_CONFIG, "emb_dim": emb_dim,
                         "bigrams": bigram_rows is not None})
    uni = vocab(rows)
    bi = None if bigram_rows is None else vocab(bigram_rows)
    rng = np.random.default_rng(19)
    params = {name: rng.normal(size=shape)
              for name, shape in param_shapes(cfg, uni, bi).items()}
    return Segmenter(cfg, uni, params, bi)


# a fixed allowance for model I/O's scratch and bookkeeping, whatever
# the model's size
MODEL_IO_BOUND = 2 * 2 ** 20


def wide_io_model():
    # 9.8 MiB of parameters, most of them in the unigram table
    model = wide_model(20000, 64)
    assert sum(p.nbytes for p in model.params.values()) >= 8 * 2 ** 20
    return model


def test_save_model_memory_is_bounded(tmp_path):
    # params.bin is streamed through a fixed scratch, not joined in memory
    model = wide_io_model()
    tracemalloc.start()
    try:
        save_model(model, tmp_path / "m")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MODEL_IO_BOUND


def test_load_model_memory_is_bounded(tmp_path, region):
    # loading holds the parameters once, plus a fixed scratch: the
    # encoder's in one block of the shared region, which tracemalloc does
    # not see, and every other tensor in memory of its own on the heap,
    # of 4 bytes per table value and 8 per other value, plus a small
    # slack for each encoder tensor's 64-byte alignment, the shared block
    # rounded up to whole pages; the arrays it keeps on the heap are
    # within that bound too (the vocabularies' Python objects are not
    # arrays and are not counted)
    model = wide_io_model()
    save_model(model, tmp_path / "m")
    tracemalloc.start()
    try:
        loaded = load_model(tmp_path / "m")
        retained, peak = tracemalloc.get_traced_memory()
        arrays = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    finally:
        tracemalloc.stop()
    assert peak - retained < MODEL_IO_BOUND
    values = sum((4 if name in TABLES else 8) * p.size
                 for name, p in model.params.items())
    assert sum(t.size for t in arrays.traces) <= values + 4096
    shared = shared_block(loaded)
    assert shared.base.obj is region.buffer
    encoder_names = encoder.param_shapes(loaded.config)
    for name, p in loaded.params.items():
        assert p.base is (shared if name in encoder_names else None), name
    assert region.used == pages(shared) * mmap.PAGESIZE
    own = sum(p.nbytes for name, p in loaded.params.items()
              if name not in encoder_names)
    assert shared.nbytes + own <= values + 4096
    for name, p in model.params.items():
        assert np.array_equal(loaded.params[name],
                              p.astype("<f4").astype(np.float64)), name


def test_a_wrong_size_params_bin_allocates_nothing(tmp_path, region):
    # the tensors are allocated only once fstat gives params.bin the size
    # the config and vocabularies imply: a short file is hashed through
    # the scratch and refused, with no region block and no table taken.
    # The failed load's frames, which the traceback in `info` holds, keep
    # what it read before params.bin, its vocabularies and the scratch,
    # so `held` counts those, and an array allocated in any of them
    model = wide_io_model()
    d = str(tmp_path / "m")
    save_model(model, d)
    rehashed_edit(d, "params.bin", lambda raw: raw[:-4])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="params.bin: holds") as info:
            load_model(d)
        held, peak = tracemalloc.get_traced_memory()
        arrays = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    finally:
        tracemalloc.stop()
    assert region.used == 0
    assert peak - held < MODEL_IO_BOUND
    assert sum(t.size for t in arrays.traces) < MODEL_IO_BOUND


def shared_block(model):
    """The shared block that holds a model's encoder tensors."""
    return model.params["out.b"].base


def block_address(model):
    """The address of the shared block that holds a model's encoder
    tensors."""
    return shared_block(model).ctypes.data


def pages(array):
    """The whole pages `array` spans, its last one rounded up."""
    return -(-array.nbytes // mmap.PAGESIZE)


def minor_faults(run, times):
    """(the minor page faults of each of `times` calls of run(), the
    last call's result)."""
    faults, result = [], None
    for _ in range(times):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        result = run()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return faults, result


def test_repeated_loads_fault_in_no_fresh_pages(tmp_path, region):
    # each load takes the memory that the load before the last freed, as
    # a program that reloads a model keeps the old one until the new one
    # is in place: after the first two, no load faults in a fresh page
    # for its 7 MB of parameters, the encoder's in a shared block and a
    # table of few, wide rows in memory of its own (few rows, so that the
    # vocabulary's Python objects fault in few pages of their own)
    save_model(wide_model(2000, 640), tmp_path / "m")
    addresses = []

    def load():
        model = load_model(tmp_path / "m")
        addresses.append(block_address(model))
        return model

    faults, model = minor_faults(load, 10)
    shared, table = shared_block(model), model.params["emb.uni"]
    assert table.base is None
    assert pages(shared) + pages(table) > 1000
    assert max(faults[2:]) < (pages(shared) + pages(table)) // 10, faults
    assert len(set(addresses)) == 2
    assert region.used == 2 * pages(shared) * mmap.PAGESIZE


def test_repeated_builds_fault_in_no_fresh_pages(region):
    # as with loads: each build draws its encoder tensors into the shared
    # block that the build before the last freed, a paper-dimension
    # encoder's 5.8 MB, so after the first two no build faults in a
    # fresh page for them (the toy corpus's tables are small)
    corpus = load_toy_corpus()
    cfg = TrainConfig(hidden=150, emb_dim=100, window=3)
    addresses = []

    def build():
        model = Segmenter.build(corpus, cfg)
        addresses.append(block_address(model))
        return model

    faults, model = minor_faults(build, 10)
    shared = model.params["out.b"].base
    assert shared.base.obj is region.buffer
    assert pages(shared) > 1000
    assert max(faults[2:]) < pages(shared) // 10, faults
    assert len(set(addresses)) == 2
    assert region.used == 2 * pages(shared) * mmap.PAGESIZE


def test_a_load_takes_region_bytes_of_its_encoder_tensors_only(tmp_path, region):
    # the tables and crf.trans, which the decode worker never reads, stay
    # out of the region, however large
    model = wide_model(20000, 64, bigram_rows=30000)
    save_model(model, tmp_path / "m")
    loaded = load_model(tmp_path / "m")
    encoder_bytes = sum(-(-8 * math.prod(shape) // 64) * 64
                        for shape in encoder.param_shapes(loaded.config).values())
    assert region.used == -(-encoder_bytes // mmap.PAGESIZE) * mmap.PAGESIZE
    assert region.used < loaded.params["emb.uni"].nbytes // 10


def by_build(tmp_path):
    return toy_model(bigrams=True)[0]


def by_fit(tmp_path):
    model, corpus, cfg = toy_model(bigrams=True, epochs=1)
    return fit(model, corpus, corpus, cfg)[0]


def by_load(tmp_path):
    save_model(by_build(tmp_path), tmp_path / "m")
    return load_model(tmp_path / "m")


def by_gradcheck(tmp_path):
    from attnseg.cli import gradcheck_fixture
    return gradcheck_fixture(1)[0]


@pytest.mark.parametrize("make", [by_build, by_fit, by_load, by_gradcheck],
                         ids=["build", "fit", "load", "gradcheck"])
def test_every_parameter_dict_places_its_tensors_by_one_rule(
        tmp_path, region, make):
    # the encoder's tensors are views of one block of the shared region,
    # and every other tensor is a C-contiguous array that owns its
    # memory, whichever of build, fit, load and the gradient check's
    # fixture made the dict; only a load keeps its tables in float32
    model = make(tmp_path)
    encoder_names = encoder.param_shapes(model.config)
    shared = shared_block(model)
    assert shared.base.obj is region.buffer
    for name, p in model.params.items():
        if name in encoder_names:
            assert p.base is shared, name
        else:
            assert p.base is None and p.flags.c_contiguous, name
            narrow = make is by_load and name in TABLES
            assert p.dtype == (np.float32 if narrow else np.float64), name


def test_a_load_after_a_freed_build_takes_its_block(tmp_path, region):
    # a build and a load of one config take shared blocks of one size
    model, _, _ = toy_model(bigrams=True)
    save_model(model, tmp_path / "m")
    address, used = block_address(model), region.used
    del model
    loaded = load_model(tmp_path / "m")
    assert block_address(loaded) == address
    assert region.used == used


def test_fit_best_takes_a_freed_block_of_its_size(region):
    # fit's copy of the best epoch takes the shared block of a build of
    # the same config, here the one a freed model left
    model, corpus, cfg = toy_model(epochs=1)
    freed, _, _ = toy_model(epochs=1)
    address, used = block_address(freed), region.used
    del freed
    fit(model, corpus, corpus, cfg)
    assert block_address(model) == address
    assert region.used == used


def test_a_freed_block_serves_the_next_load_once_no_view_is_left(tmp_path, region):
    # numpy keeps a block alive while any view of it is, through its own
    # export of the region's buffer: the block is freed after the last
    # view, not before
    model, _, _ = toy_model()
    save_model(model, tmp_path / "m")
    first = load_model(tmp_path / "m")
    address = block_address(first)
    view = memoryview(first.params["enc0.bwd.cell.w"][1:])
    del first
    second = load_model(tmp_path / "m")
    assert block_address(second) != address
    del view
    assert block_address(load_model(tmp_path / "m")) == address


@pytest.mark.skipif(not hasattr(os, "memfd_create"),
                    reason="the shared region needs os.memfd_create")
def test_a_full_region_loads_into_a_private_block(tmp_path, monkeypatch):
    # a region with no room for the block: the load takes a private one
    # for the encoder's tensors, aligned as before, and the model gives
    # the same outputs; the tables and crf.trans are arrays of their own
    # either way
    model, corpus, _ = toy_model(bigrams=True)
    save_model(model, tmp_path / "m")
    shared = load_model(tmp_path / "m")
    small = worker._Region(mmap.PAGESIZE)
    monkeypatch.setattr(worker, "_region", small)
    private = load_model(tmp_path / "m")
    assert small.used == 0
    encoder_names = encoder.param_shapes(private.config)
    for name, p in private.params.items():
        assert p.flags.c_contiguous, name
        if name in encoder_names:
            assert p.ctypes.data % 64 == 0, name
        assert p.tobytes() == shared.params[name].tobytes(), name
    sentences = [sent.tokens for sent in corpus[:5]]
    assert private.decode(sentences) == shared.decode(sentences)


def test_save_model_writes_the_canonical_order_whatever_the_dict_order(tmp_path):
    # params.bin follows model.param_shapes, the order load_model reads
    # it in: a dict in reverse order saves the same bytes and loads the
    # same tensors and decodes
    model, corpus, _ = toy_model()
    save_model(model, tmp_path / "canonical")
    model.params = dict(reversed(model.params.items()))
    save_model(model, tmp_path / "reversed")
    assert (tmp_path / "reversed" / "params.bin").read_bytes() \
        == (tmp_path / "canonical" / "params.bin").read_bytes()
    want, got = (load_model(tmp_path / name) for name in ("canonical", "reversed"))
    assert list(got.params) == list(want.params)
    for name, p in want.params.items():
        assert got.params[name].tobytes() == p.tobytes(), name
    sentences = [sent.tokens for sent in corpus]
    assert got.decode(sentences) == want.decode(sentences)


def test_save_model_refuses_params_the_config_does_not_give(tmp_path):
    # checked before any file is written: a tensor of another shape, and
    # a dict with one tensor missing or one extra; Segmenter's
    # constructor checks the same
    model, _, cfg = toy_model()
    params, h = model.params, cfg.hidden
    for edited, error, message in [
        ({**params, "out.wf": np.ascontiguousarray(params["out.wf"].T)},
         ShapeError, rf"out\.wf \({h}, 4\) does not match \(4, {h}\)"),
        ({name: p for name, p in params.items() if name != "out.b"},
         ValueError, r"\['out\.b'\] are missing or extra"),
        ({**params, "out.c": np.zeros(4)},
         ValueError, r"\['out\.c'\] are missing or extra"),
    ]:
        model.params = edited
        with pytest.raises(ValueError, match=message) as raised:
            save_model(model, tmp_path / "m")
        assert raised.type is error
        assert not (tmp_path / "m").exists()
        with pytest.raises(error, match=message):
            Segmenter(cfg, model.vocab, edited)


def test_streamed_params_bin_is_the_one_shot_bytes(tmp_path):
    # emb.uni and emb.bi span several IO_CHUNKs, each chunk ending inside
    # a row, and emb.bi is stored column-major
    model = wide_model(8000, 24, bigram_rows=9000)
    assert model.params["emb.uni"].size > 2 * IO_CHUNK
    assert IO_CHUNK % 24 != 0
    model.params["emb.bi"] = np.asfortranarray(model.params["emb.bi"])
    assert not model.params["emb.bi"].flags.c_contiguous
    first, second = tmp_path / "first", tmp_path / "second"
    save_model(model, first)
    assert (first / "params.bin").read_bytes() == b"".join(
        np.ascontiguousarray(p, dtype="<f4").tobytes()
        for p in model.params.values()
    )
    save_model(load_model(first), second)
    assert sorted(os.listdir(first)) == sorted(os.listdir(second))
    for name in os.listdir(first):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def nan_at(index):
    """A params.bin edit that writes NaN over value `index`."""
    nan = np.float32(np.nan).tobytes()
    return lambda payload: payload[:4 * index] + nan + payload[4 * index + 4:]


def test_load_error_order_while_streaming(tmp_path):
    model = wide_model(8000, 24, bigram_rows=9000)
    d = str(tmp_path / "m")
    save_model(model, d)
    path = os.path.join(d, "params.bin")
    payload = open(path, "rb").read()
    uni, bi = model.params["emb.uni"].size, model.params["emb.bi"].size
    assert bi > 2 * IO_CHUNK
    # edits checked against the manifest's sha256: the checksum fails
    # before the non-finite value or the size is seen
    for edit in (nan_at(0), truncated):
        with open(path, "wb") as fh:
            fh.write(edit(payload))
        with pytest.raises(ValueError, match="checksum"):
            load_model(d)
    with open(path, "wb") as fh:
        fh.write(payload)
    # re-hashed, a NaN in the last chunk of emb.bi is named
    rehashed_edit(d, "params.bin", nan_at(uni + bi - 3))
    with pytest.raises(ValueError, match=re.escape("parameter emb.bi holds")):
        load_model(d)


def test_loaded_views_train_like_copies(tmp_path):
    # the loaded encoder tensors are views into one block, and the tables
    # and crf.trans arrays of their own, the tables float32 and the rest
    # float64; the tables are refused for training until widened, and
    # then the loaded float64 tensors (views) train like copies
    model, corpus, cfg = toy_model(bigrams=True)
    save_model(model, tmp_path / "m")
    loaded = load_model(tmp_path / "m")
    tensors = list(loaded.params.values())
    encoder_names = encoder.param_shapes(loaded.config)
    for i, (name, p) in enumerate(loaded.params.items()):
        assert p.dtype == (np.float32 if name in TABLES else np.float64)
        assert p.flags.c_contiguous and p.flags.writeable
        if name in encoder_names:
            assert p.ctypes.data % 64 == 0, name
        assert not any(np.shares_memory(p, q) for q in tensors[:i])
    # the float32 tables are refused for training, before any work
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError, match="parameter emb.uni is float32"):
        train_epoch(loaded, corpus, cfg, rng, zero_accum(loaded))
    assert rng.integers(2 ** 62) == np.random.default_rng(7).integers(2 ** 62)
    for name in TABLES:
        loaded.params[name] = loaded.params[name].astype(np.float64)
    before = {name: np.array(p) for name, p in loaded.params.items()}
    copied = Segmenter(
        loaded.config, loaded.vocab,
        {name: p.copy() for name, p in before.items()},
        loaded.bigram_vocab, loaded.lexicon,
    )
    for m in (loaded, copied):
        train_epoch(m, corpus, cfg, np.random.default_rng(7), zero_accum(m))
    for name, p in copied.params.items():
        assert not np.array_equal(p, before[name]), name
        assert loaded.params[name].tobytes() == p.tobytes(), name


def test_loaded_tables_give_the_widened_models_outputs(tmp_path):
    # a loaded model keeps its tables in float32; featurize widens the
    # rows it reads, exactly, so emissions, decodes, segment output and
    # float64 gradients are those of the model with widened tables
    model, corpus, _ = toy_model(bigrams=True, window=5)
    model.lexicon = frozenset({"一举两得", "北京大学"})
    save_model(model, tmp_path / "m")
    loaded = load_model(tmp_path / "m")
    assert loaded.params["emb.bi"].dtype == np.float32
    widened = Segmenter(
        loaded.config, loaded.vocab,
        {name: p.astype(np.float64) for name, p in loaded.params.items()},
        loaded.bigram_vocab, loaded.lexicon,
    )
    tokens = [sent.tokens for sent in corpus]
    for toks in tokens:
        assert loaded.emissions(toks)[0].tobytes() \
            == widened.emissions(toks)[0].tobytes()
    assert loaded.decode(tokens) == widened.decode(tokens)
    rng = np.random.default_rng(27)
    for _ in range(30):
        picks = rng.integers(len(SEGMENT_PIECES), size=int(rng.integers(1, 16)))
        line = "".join(SEGMENT_PIECES[i] for i in picks)
        assert loaded.segment(line) == widened.segment(line), line
    got, grads = loaded.loss_and_grads(corpus[:5])
    want, want_grads = widened.loss_and_grads(corpus[:5])
    assert got == want
    for name, g in grads.items():
        assert g.dtype == np.float64, name
        assert g.tobytes() == want_grads[name].tobytes(), name


def repeated_last_line(raw):
    return raw + raw.splitlines(keepends=True)[-1]


def no_pad_line(raw):
    return raw.split(b"\n", 1)[1]


@pytest.mark.parametrize("name, edit, problem", [
    pytest.param("vocab.txt", repeated_last_line, "duplicate token",
                 id="vocab-duplicate"),
    pytest.param("vocab.txt", no_pad_line, "reserved tokens",
                 id="vocab-no-reserved"),
    pytest.param("bigrams.txt", repeated_last_line, "duplicate token",
                 id="bigrams-duplicate"),
    pytest.param("bigrams.txt", no_pad_line, "reserved tokens",
                 id="bigrams-no-reserved"),
])
def test_load_rejects_tampered_vocab(tmp_path, name, edit, problem):
    model, _, _ = toy_model(bigrams=True)
    d = os.path.join(tmp_path, "m")
    save_model(model, d)
    rehashed_edit(d, name, edit)
    with pytest.raises(ValueError, match=problem) as info:
        load_model(d)
    assert str(info.value).startswith(os.path.join(d, name) + ": ")


def no_config(meta):
    del meta["config"]
    return meta


def no_tags(meta):
    del meta["tags"]
    return meta


def swapped_tags(meta):
    meta["tags"] = {"B": 0, "M": 1, "E": 3, "S": 2}
    return meta


def hidden_as_string(meta):
    meta["config"]["hidden"] = "4"
    return meta


def no_memory_span(meta):
    del meta["config"]["memory_span"]
    return meta


def no_sha256(manifest):
    del manifest["params.bin"]
    return manifest


def params_as_number(manifest):
    manifest["params.bin"] = 5
    return manifest


@pytest.mark.parametrize("name, edit, problem", [
    pytest.param("model.json", no_config, "no 'config'", id="model-no-config"),
    pytest.param("model.json", lambda meta: [meta],
                 "holds a list, not a JSON object", id="model-list"),
    pytest.param("model.json", lambda meta: "attnseg-model/1", "holds a str",
                 id="model-string"),
    pytest.param("model.json", no_tags, "no 'tags'", id="model-no-tags"),
    pytest.param("model.json", swapped_tags, "tag table", id="model-swapped-tags"),
    pytest.param("model.json", hidden_as_string,
                 "config field hidden must be int, got '4'",
                 id="model-config-mistyped"),
    pytest.param("model.json", no_memory_span,
                 "config fields ['memory_span'] are missing or unknown",
                 id="model-config-no-field"),
    pytest.param("manifest.json", lambda manifest: list(manifest),
                 "holds a list", id="manifest-list"),
    pytest.param("manifest.json", lambda manifest: {},
                 "is not an attnseg-model/2 manifest", id="manifest-empty"),
    pytest.param("manifest.json", no_sha256,
                 "is not an attnseg-model/2 manifest", id="manifest-no-sha256"),
    pytest.param("manifest.json", params_as_number, "does not match 5",
                 id="manifest-params-number"),
])
def test_load_rejects_malformed_json(tmp_path, name, edit, problem):
    model, _, _ = toy_model()
    d = os.path.join(tmp_path, "m")
    save_model(model, d)
    path = os.path.join(d, name)
    if name == "model.json":
        rehashed_edit(d, name, json_edit(edit))
    else:
        with open(path, encoding="utf-8") as fh:
            data = edit(json.load(fh))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    with pytest.raises(ValueError, match=re.escape(problem)) as info:
        load_model(d)
    assert path in str(info.value)


@pytest.mark.parametrize("name, edit", [
    pytest.param("model.json", lambda raw: raw + b"}", id="model.json"),
    pytest.param("manifest.json", lambda raw: raw + b"}", id="manifest.json"),
    pytest.param("model.json", lambda raw: b"[" * 200000, id="model.json-nested"),
    pytest.param("manifest.json", lambda raw: b"[" * 200000,
                 id="manifest.json-nested"),
    pytest.param("model.json", lambda raw: b"\xff" + raw, id="model.json-not-utf8"),
    pytest.param("manifest.json", lambda raw: b"\xff" + raw,
                 id="manifest.json-not-utf8"),
])
def test_load_rejects_invalid_json(tmp_path, name, edit):
    model, _, _ = toy_model()
    d = os.path.join(tmp_path, "m")
    save_model(model, d)
    path = os.path.join(d, name)
    if name == "model.json":
        rehashed_edit(d, name, edit)
    else:
        with open(path, "rb") as fh:
            raw = edit(fh.read())
        with open(path, "wb") as fh:
            fh.write(raw)
    with pytest.raises(ValueError, match="is not valid JSON") as info:
        load_model(d)
    assert path in str(info.value)


def test_load_ignores_blank_lexicon_lines(tmp_path):
    model, _, _ = toy_model()
    model.lexicon = frozenset({"我们"})
    d = os.path.join(tmp_path, "m")
    save_model(model, d)
    rehashed_edit(d, "lexicon.txt", lambda raw: raw + b"\n")
    loaded = load_model(d)
    assert loaded.lexicon == model.lexicon
    assert preprocess("我们", loaded.lexicon) == [IDIOM]
    assert loaded.segment("我们") == ["我们"]


def test_load_rejects_a_config_without_a_field(tmp_path):
    # a model.json whose config lacks memory_span would load with its
    # default, None, an unbounded attention span and other emissions
    model, _, _ = toy_model(memory_span=2)
    d = os.path.join(tmp_path, "m")
    save_model(model, d)
    rehashed_edit(d, "model.json", json_edit(no_memory_span))
    with pytest.raises(ValueError, match=re.escape(
            "config fields ['memory_span'] are missing or unknown")):
        load_model(d)


@pytest.mark.parametrize("name, old, new", [
    pytest.param("vocab.txt", "中", "丑", id="vocab-character"),
    pytest.param("lexicon.txt", "一举两得", "一举三得", id="lexicon-idiom"),
    pytest.param("model.json", '"memory_span": null', '"memory_span": 2',
                 id="model-memory-span"),
])
def test_load_rejects_edited_model_file(tmp_path, name, old, new):
    # each edit passes every check behind the checksum: without it the
    # model would load with another vocabulary, lexicon or attention span
    model, _, _ = toy_model()
    model.lexicon = frozenset({"一举两得"})
    d = os.path.join(tmp_path, "m")
    save_model(model, d)
    path = os.path.join(d, name)
    text = open(path, encoding="utf-8").read()
    assert text.count(old) == 1 and new not in text
    open(path, "w", encoding="utf-8").write(text.replace(old, new))
    with pytest.raises(ValueError, match="checksum") as info:
        load_model(d)
    assert path in str(info.value)


def test_load_reads_only_listed_files(tmp_path):
    # a lexicon.txt the manifest does not list is not read
    model, _, _ = toy_model()
    d = os.path.join(tmp_path, "m")
    save_model(model, d)
    with open(os.path.join(d, "lexicon.txt"), "w", encoding="utf-8") as fh:
        fh.write("我们\n")
    assert load_model(d).lexicon is None


@pytest.mark.parametrize("bigrams", [False, True])
def test_load_requires_bigrams_listed_exactly_with_the_bigram_config(
        tmp_path, bigrams):
    model, _, _ = toy_model(bigrams=bigrams)
    d = os.path.join(tmp_path, "m")
    save_model(model, d)

    def flip(meta):
        meta["config"]["bigrams"] = not bigrams
        return meta

    rehashed_edit(d, "model.json", json_edit(flip))
    with pytest.raises(ValueError, match="bigrams.txt"):
        load_model(d)


def test_save_stores_numpy_scalar_config_as_plain_json(tmp_path):
    plain, _, _ = toy_model(learning_rate=0.05, hidden=8, dropout=0.25)
    scalars, _, _ = toy_model(learning_rate=np.float64(0.05),
                              hidden=np.int64(8), dropout=np.float32(0.25))
    save_model(plain, tmp_path / "plain")
    save_model(scalars, tmp_path / "scalars")
    for name in ("model.json", "manifest.json", "params.bin"):
        assert (tmp_path / "plain" / name).read_bytes() == \
            (tmp_path / "scalars" / name).read_bytes(), name


def test_save_is_byte_deterministic(tmp_path):
    bins = []
    for run in ("a", "b"):
        model, corpus, cfg = toy_model(epochs=2)
        fit(model, corpus, corpus, cfg)
        d = os.path.join(tmp_path, run)
        save_model(model, d)
        bins.append(open(os.path.join(d, "params.bin"), "rb").read())
    assert bins[0] == bins[1]


def test_tag_accuracy_bounds():
    model, corpus, _ = toy_model()
    acc = tag_accuracy(model, corpus)
    assert 0.0 <= acc <= 1.0


def test_tag_accuracy_empty_corpus_errors():
    model, _, _ = toy_model()
    with pytest.raises(ValueError, match="empty corpus"):
        tag_accuracy(model, [])


@pytest.mark.parametrize("dims", [{}, dict(hidden=150, emb_dim=100, batch_size=4)])
def test_list_decode_matches_single_sentences(dims):
    # toy and paper dimensions; ragged lengths in no order, ties, one
    # token, and more sentences than batch_size, so chunks have edges
    model, corpus, cfg = toy_model(**dims)
    chars = [tok for sent in corpus for tok in sent.tokens]
    rng = np.random.default_rng(3)
    lengths = [5, 1, 17, 3, 17, 9, 2, 12, 1, 6, 20]
    assert len(lengths) > cfg.batch_size
    sentences = []
    for n in lengths:
        start = int(rng.integers(len(chars) - n))
        sentences.append(chars[start:start + n])
    paths = model.decode(sentences)
    assert paths == [model.decode(tokens) for tokens in sentences]
    assert model.decode([sentences[2], [], sentences[1]]) == [paths[2], [], paths[1]]
    assert model.decode([]) == []


SEGMENT_PIECES = (
    list("我们喜欢学习中文北京他们去学校")      # Han the toy model knows
    + [chr(c) for c in range(0x4E00, 0x4E10)]  # Han it does not
    + list("abXYz09ＡＢｃｘ１２９")             # ASCII and fullwidth forms
    + ["一举两得", "北京大学"]                  # lexicon idioms
    + [" ", "  ", "\u3000", "\u2028"]         # whitespace
)


def test_segment_spells_the_input_text():
    # seeded random lines: the words spell the line without its
    # whitespace, none is empty or holds whitespace, each whitespace-
    # separated part decodes on its own as its tokens do, and the words
    # scan back to the line's tokens, so eval can score them against a
    # gold file of the same text
    model, _, _ = toy_model()
    lexicon = model.lexicon = frozenset({"一举两得", "北京大学"})
    rng = np.random.default_rng(18)
    for _ in range(300):
        picks = rng.integers(len(SEGMENT_PIECES), size=int(rng.integers(0, 16)))
        line = "".join(SEGMENT_PIECES[i] for i in picks)
        words = model.segment(line)
        parts = [preprocess(part, lexicon) for part in line.split()]
        assert "".join(words) == "".join(line.split()), (line, words)
        assert all(word.split() == [word] for word in words), (line, words)
        assert [tok for word in words for tok in preprocess(word, lexicon)] \
            == [tok for tokens in parts for tok in tokens], (line, words)
        assert [len(preprocess(word, lexicon)) for word in words] == [
            n for tokens in parts
            for n in tagging.word_lengths(model.decode(tokens))], (line, words)


@pytest.mark.parametrize("batch_size", [2, 50])
def test_segment_decodes_a_line_in_one_call_as_part_by_part(dispatches,
                                                            batch_size):
    # one list decode of all the line's parts, in chunks of batch_size,
    # writes the bytes that one decode per part writes
    model, _, _ = toy_model(batch_size=batch_size)
    lexicon = model.lexicon = frozenset({"一举两得", "北京大学"})
    calls = []
    decode = model.decode
    model.decode = lambda tokens: calls.append(tokens) or decode(tokens)
    rng = np.random.default_rng(29)
    for _ in range(200):
        picks = rng.integers(len(SEGMENT_PIECES), size=int(rng.integers(0, 24)))
        line = "".join(SEGMENT_PIECES[i] for i in picks)
        want = []
        for part in line.split():
            sources = []
            tokens = preprocess(part, lexicon, sources)
            want += tagging.decode_tags(sources, decode(tokens))
        calls.clear()
        got = model.segment(line)
        assert " ".join(got).encode() == " ".join(want).encode(), line
        assert len(calls) == 1
    assert dispatches


def test_build_starts_from_given_embeddings(tmp_path):
    corpus = load_toy_corpus()
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("2 8\n我 " + " 0.5" * 8 + "\n北 " + " -0.25" * 8 + "\n",
                       encoding="utf-8")
    vocab = Vocab.build(sent.tokens for sent in corpus)
    cfg = TrainConfig(**TOY_CONFIG)
    table = load_embeddings(vectors, vocab, np.random.default_rng(cfg.seed))
    model = Segmenter.build(corpus, cfg, embeddings=vectors)
    assert model.vocab.id_to_token == vocab.id_to_token
    assert np.array_equal(model.params["emb.uni"], table)
    assert np.array_equal(model.params["emb.uni"][vocab.id("我")], [0.5] * 8)
    assert np.array_equal(model.params["emb.uni"][vocab.id("北")], [-0.25] * 8)
    with pytest.raises(ValueError, match=r"\(\d+, 8\) does not match .*\(\d+, 4\)"):
        Segmenter.build(corpus, TrainConfig(**{**TOY_CONFIG, "emb_dim": 4}),
                        embeddings=vectors)


def test_build_from_embeddings_draws_the_rest_as_without_them(tmp_path):
    # the vector file replaces its tokens' rows and nothing else: the rows
    # it lacks, emb.bi and every encoder weight come from the one
    # generator in the order of a build without it, so emb.bi does not
    # repeat the random rows of emb.uni
    corpus = load_toy_corpus()
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("1 8\n我 " + " 0.5" * 8 + "\n", encoding="utf-8")
    cfg = TrainConfig(**{**TOY_CONFIG, "bigrams": True})
    plain = Segmenter.build(corpus, cfg)
    model = Segmenter.build(corpus, cfg, embeddings=vectors)
    assert model.params.keys() == plain.params.keys()
    for name, p in model.params.items():
        if name != "emb.uni":
            assert np.array_equal(p, plain.params[name]), name
    uni, bi = model.params["emb.uni"], model.params["emb.bi"]
    mine = model.vocab.id("我")
    others = np.arange(len(uni)) != mine
    assert np.array_equal(uni[mine], [0.5] * 8)
    assert np.array_equal(uni[others], plain.params["emb.uni"][others])
    rows = min(len(uni), len(bi))
    assert not (uni[:rows] == bi[:rows]).all(axis=1).any()


def test_decode_keeps_the_grammar_when_forbidden_transitions_score_high(
        monkeypatch):
    # +50 on every forbidden transition outweighs any emission of an
    # untrained model, so only the decode's -inf entries keep its paths
    # grammatical: for one sentence, for a list and in segment()
    model, corpus, _ = toy_model()
    model.params["crf.trans"][~tagging.transition_mask()] = 50.0
    paths = []
    viterbi = crf.viterbi

    def recording(emissions, transitions):
        path, score = viterbi(emissions, transitions)
        paths.append(path)
        return path, score

    monkeypatch.setattr(crf, "viterbi", recording)
    sentences = [sent.tokens for sent in corpus][:10]
    singles = [model.decode(tokens) for tokens in sentences]
    assert model.decode(sentences) == singles
    for tokens in sentences:
        model.segment("".join(tokens))
    assert len(paths) == 3 * len(sentences)
    assert all(is_valid(path) for path in paths)


def test_decode_refuses_a_plus_inf_score():
    # +inf on one output bias makes every emission of that tag +inf,
    # which would win every maximum and decode M first; no path is
    # returned in place of an ungrammatical one
    model, corpus, _ = toy_model()
    model.params["out.b"][tagging.M] = np.inf
    with pytest.raises(ValueError, match="finite or -inf"):
        model.decode(corpus[0].tokens)


def test_list_decode_holds_one_chunk_at_a_time():
    # each chunk's arrays go before the next chunk runs: four chunks'
    # worth of sentences peak near one chunk's memory, where one forward
    # pass over the whole list would hold four times its arrays
    model, corpus, cfg = toy_model()
    chars = [tok for sent in corpus for tok in sent.tokens]
    sentence = (chars * (60 // len(chars) + 1))[:60]
    model.decode([sentence] * 2)

    def peak(count):
        sentences = [list(sentence) for _ in range(count)]
        tracemalloc.start()
        try:
            model.decode(sentences)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * cfg.batch_size) < 1.5 * peak(cfg.batch_size)


def test_decode_memory_grows_linearly_with_length(in_process):
    # the tapes grow with n; step caches kept for a backward pass would
    # grow with n^2 and make the doubled line take about 4x the memory.
    # Both directions run in this process, where tracemalloc sees them
    model, corpus, _ = toy_model()
    chars = [tok for sent in corpus for tok in sent.tokens]
    in_process(lambda: model.decode(chars[:8]))

    def peak(n):
        tokens = (chars * (n // len(chars) + 1))[:n]
        tracemalloc.start()
        try:
            model.decode(tokens)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert in_process(lambda: peak(400) < 3 * peak(200))


def test_decode_releases_each_direction_before_the_next(in_process):
    # per token, decoding holds the input row, one direction's whole
    # state row ([h | c], Wh h, h~), the other direction's tape row and
    # the window temporaries of a step; holding the first direction's
    # whole state while the second runs adds (a + h) * 8 bytes per token
    # and breaks the bound.  Both directions run in this process, where
    # tracemalloc sees them
    model, corpus, cfg = toy_model()
    h = a = cfg.hidden
    d = cfg.window * cfg.emb_dim
    chars = [tok for sent in corpus for tok in sent.tokens]
    in_process(lambda: model.decode(chars[:8]))

    def peak(n):
        tokens = (chars * (n // len(chars) + 1))[:n]
        tracemalloc.start()
        try:
            model.decode(tokens)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    state_row = (2 * h + a + h) * 8
    per_token = in_process(lambda: (peak(800) - peak(400)) / 400)
    assert per_token < d * 8 + 2 * state_row


def test_forked_decode_holds_one_direction_in_the_parent(dispatches, in_process):
    # with the backward direction in the decode worker, the parent holds per
    # token the input row and its ids, the forward direction's whole
    # state row, a step's window temporaries and the emissions, but not
    # the forward tape row [h | c] while the backward direction runs:
    # the bound lies between the two paths
    model, corpus, cfg = toy_model()
    h = a = cfg.hidden
    d = cfg.window * cfg.emb_dim
    chars = [tok for sent in corpus for tok in sent.tokens]
    model.decode(chars[:8])
    warm = len(dispatches)

    def per_token():
        peaks = []
        for n in (400, 800):
            tokens = (chars * (n // len(chars) + 1))[:n]
            tracemalloc.start()
            try:
                model.decode(tokens)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return (peaks[1] - peaks[0]) / 400

    forked = per_token()
    assert len(dispatches) == warm + 2
    here = in_process(per_token)
    state_row = (2 * h + a + h) * 8
    bound = d * 8 + state_row + (a + 2 * h) * 8
    assert forked < bound <= here
