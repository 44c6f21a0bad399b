import json
import os
import tracemalloc

import numpy as np
import pytest

from attnseg.corpus import Corpus, Sentence, load_toy_corpus
from attnseg.evaluate import evaluate_corpus
from attnseg.model import Segmenter, TrainConfig, pack_params, unpack_params
from attnseg.numerics import ShapeError
from attnseg.train import (
    AdagradState, adagrad_update, fit, load_model,
    model_gradient_check, save_model, tag_accuracy, train_epoch,
)

TOY_CONFIG = dict(hidden=12, emb_dim=8, window=3, dropout=0.0,
                  batch_size=8, epochs=2, seed=42)


def toy_model(**overrides):
    corpus = load_toy_corpus()
    cfg = TrainConfig(**{**TOY_CONFIG, **overrides})
    return Segmenter.build(corpus, cfg), corpus, cfg


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


def test_config_roundtrip():
    cfg = TrainConfig(hidden=20, bigrams=True, memory_span=4)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError):
        TrainConfig.from_dict({"no_such_field": 1})


def test_pack_unpack_roundtrip():
    model, _, _ = toy_model()
    vec = pack_params(model.params)
    back = unpack_params(vec, model.params)
    for name, p in model.params.items():
        assert np.array_equal(back[name], p)
    with pytest.raises(ValueError):
        unpack_params(vec[:-1], model.params)


def test_train_epoch_returns_finite_stats_and_learns():
    model, corpus, cfg = toy_model()
    rng = np.random.default_rng(cfg.seed)
    state = AdagradState.for_params(model.params)
    s1 = train_epoch(model, corpus, cfg, rng, state)
    acc = tag_accuracy(model, corpus)
    s2 = train_epoch(model, corpus, cfg, rng, state)
    assert np.isfinite(s1.nll) and np.isfinite(s2.nll)
    assert 0.0 <= acc <= 1.0
    assert s2.nll < s1.nll


def test_train_epoch_does_not_decode(monkeypatch):
    # an epoch trains; decoding the training set is tag_accuracy's job
    model, corpus, cfg = toy_model()

    def no_decode(self, tokens, masked=True):
        raise AssertionError("train_epoch decoded a sentence")

    monkeypatch.setattr(Segmenter, "decode", no_decode)
    stats = train_epoch(model, corpus, cfg, np.random.default_rng(cfg.seed))
    assert np.isfinite(stats.nll)


def test_train_epoch_empty_corpus_errors():
    model, _, cfg = toy_model()
    with pytest.raises(ValueError):
        train_epoch(model, Corpus([]), cfg, np.random.default_rng(0))


def test_train_epoch_is_deterministic():
    runs = []
    for _ in range(2):
        model, corpus, cfg = toy_model()
        rng = np.random.default_rng(cfg.seed)
        stats = train_epoch(model, corpus, cfg, rng)
        runs.append((stats, pack_params(model.params)))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])


def test_train_epoch_aborts_on_non_finite_loss():
    model, corpus, cfg = toy_model()
    model.params["out.b"][:] = np.nan
    with pytest.raises(FloatingPointError, match="batch"):
        train_epoch(model, corpus, cfg, np.random.default_rng(0))


def test_gradient_accumulation_is_batch_mean():
    # one batch of the whole corpus: a single update from the mean grad
    model, corpus, cfg = toy_model(batch_size=32, learning_rate=0.5)
    twin, _, _ = toy_model(batch_size=32, learning_rate=0.5)
    rng = np.random.default_rng(cfg.seed)
    train_epoch(model, corpus, cfg, rng)

    order = np.random.default_rng(cfg.seed).permutation(32)
    sums = {k: np.zeros_like(p) for k, p in twin.params.items()}
    for i in order:
        _, grads = twin.loss_and_grads(corpus[int(i)])
        for k in sums:
            sums[k] += grads[k]
    acc = AdagradState.for_params(twin.params)
    for k in twin.params:
        adagrad_update(twin.params[k], sums[k] / 32.0, acc.accum[k],
                       0.5, cfg.adagrad_epsilon)
    for k in model.params:
        assert np.array_equal(model.params[k], twin.params[k]), k


def test_clip_norm_caps_update():
    model, corpus, cfg = toy_model(clip_norm=1e-9)
    before = pack_params(model.params)
    train_epoch(model, corpus, cfg, np.random.default_rng(0))
    after = pack_params(model.params)
    # with the gradient clipped to ~0 the AdaGrad step is ~lr per coord at most;
    # the real check is that it ran and moved far less than unclipped training
    assert np.max(np.abs(after - before)) < 1.0


def test_fit_single_epoch_and_history():
    model, corpus, cfg = toy_model(epochs=1)
    _, history = fit(model, corpus, corpus, cfg)
    assert len(history) == 1
    assert history[0].epoch == 1


def test_fit_history_length_and_best_selection():
    model, corpus, cfg = toy_model(epochs=4)
    model, history = fit(model, corpus, corpus, cfg)
    assert len(history) == 4
    best = max(rec.f1 for rec in history)
    _, _, f1_now = evaluate_corpus(model, corpus)
    assert f1_now == best


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


def test_model_gradient_check_small():
    from attnseg.cli import gradcheck_fixture
    model, sent = gradcheck_fixture(1)
    assert model_gradient_check(model, sent) < 1e-3


def test_model_gradient_check_corrupt_hook_fails():
    from attnseg.cli import gradcheck_fixture
    model, sent = gradcheck_fixture(1)
    assert model_gradient_check(model, sent, corrupt=True) > 1e-2


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
    meta_path = os.path.join(d, "model.json")
    meta = json.load(open(meta_path))
    meta["format"] = "attnseg-model/99"
    json.dump(meta, open(meta_path, "w"))
    with pytest.raises(ValueError, match="format"):
        load_model(d)


def test_load_ignores_blank_lexicon_lines(tmp_path):
    model, _, _ = toy_model()
    model.lexicon = frozenset({"我们"})
    d = os.path.join(tmp_path, "m")
    save_model(model, d)
    with open(os.path.join(d, "lexicon.txt"), "a", encoding="utf-8") as fh:
        fh.write("\n")
    loaded = load_model(d)
    assert loaded.lexicon == model.lexicon
    assert loaded.segment("我们") == ["<IDIOM>"]


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


def test_decode_memory_grows_linearly_with_length():
    # the tapes grow with n; step caches kept for a backward pass would
    # grow with n^2 and make the doubled line take about 4x the memory
    model, corpus, _ = toy_model()
    chars = [tok for sent in corpus for tok in sent.tokens]
    model.decode(chars[:8])

    def peak(n):
        tokens = (chars * (n // len(chars) + 1))[:n]
        tracemalloc.start()
        try:
            model.decode(tokens)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(400) < 3 * peak(200)
