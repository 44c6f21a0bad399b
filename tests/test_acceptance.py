"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line (run with -s to see them alongside the dots).

The headline corpus numbers these components were built toward need
licensed bakeoff data, pretrained vectors and GPU-scale training, so the
gate is property-based plus a scaled-down overfitting run; the final
test reports the optional large-corpus check as skipped unless a corpus
is supplied via ATTNSEG_CORPUS.
"""

import os
import time

import numpy as np
import pytest

from attnseg import tagging
from attnseg.cli import gradcheck_fixture
from attnseg.corpus import load_corpus, load_toy_corpus, split_train_dev
from attnseg.crf import log_partition, nll_and_grads, viterbi
from attnseg.encoder import AttentionParams, CellParams, forward, init_params
from attnseg.evaluate import evaluate_corpus
from attnseg.model import Segmenter, TrainConfig
from attnseg.numerics import grad_check
from attnseg.tagging import decode_tags, encode_tags
from attnseg.train import (
    fit, load_model, model_gradient_check, save_model,
    tag_accuracy, train_epoch,
)
from oracles import (
    brute_log_partition, brute_viterbi, is_valid, lstm_step_reference,
    random_segmentation,
)
from test_encoder import step_after

K = 4


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_crf_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    worst_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        emissions = rng.normal(size=(n, K))
        trans = rng.normal(size=(K + 2, K + 2))
        gap = abs(log_partition(emissions, trans)
                  - brute_log_partition(emissions, trans))
        worst_gap = max(worst_gap, gap)
        assert gap < 1e-8
        path, score = viterbi(emissions, trans)
        bpath, bscore = brute_viterbi(emissions, trans)
        assert score == bscore
        assert path == bpath
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1: CRF log-partition/Viterbi vs brute force, 200 instances",
        elapsed < 10.0,
        f"max |logZ gap| {worst_gap:.2e}, scores exact, {elapsed:.1f}s",
    )


def test_criterion_2_full_model_gradient_fidelity():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in (1, 2, 3):
        model, sentence = gradcheck_fixture(seed)
        worst = max(worst, model_gradient_check(model, sentence))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 2: full-model gradient check, 3 seeds",
        worst < 1e-3 and elapsed < 60.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_crf_only_gradient_check():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(1, 5))
        emissions = rng.normal(size=(n, K))
        trans = rng.normal(size=(K + 2, K + 2))
        gold = [int(rng.integers(K)) for _ in range(n)]
        _, d_e, d_t = nll_and_grads(emissions, trans, gold)

        def f(vec, n=n, gold=gold):
            e = vec[:n * K].reshape(n, K)
            a = vec[n * K:].reshape(K + 2, K + 2)
            loss, _, _ = nll_and_grads(e, a, gold)
            return loss

        point = np.concatenate([emissions.ravel(), trans.ravel()])
        analytic = np.concatenate([d_e.ravel(), d_t.ravel()])
        worst = max(worst, grad_check(f, analytic, point))
    report(
        "criterion 3: CRF-only gradient check, n <= 4",
        worst < 1e-6,
        f"max rel err {worst:.2e}",
    )


def test_criterion_4_lstmn_structural_checks():
    rng = np.random.default_rng(102)
    hid, att, dim = 6, 5, 7
    ok_sum = True
    # the weights do not depend on the gate block
    no_cell = CellParams(w=np.zeros((4 * hid, hid + dim)), b=np.zeros(4 * hid))
    for _ in range(100):
        attn = AttentionParams(
            wh=rng.normal(size=(att, hid)), wx=rng.normal(size=(att, dim)),
            wp=rng.normal(size=(att, hid)), v=rng.normal(size=att),
        )
        t = int(rng.integers(2, 9))
        tape_h = [rng.normal(size=hid) for _ in range(t)]
        tape_c = [rng.normal(size=hid) for _ in range(t)]
        summary = rng.normal(size=hid)
        _, _, step = step_after(rng.normal(size=dim), tape_h, tape_c,
                                summary, attn, no_cell)
        w = step.weights
        ok_sum = ok_sum and abs(w.sum() - 1.0) < 1e-12 and np.all(w >= 0)

    ok_lstm = True
    for _ in range(50):
        attn = AttentionParams(
            wh=rng.normal(size=(att, hid)), wx=rng.normal(size=(att, dim)),
            wp=rng.normal(size=(att, hid)), v=rng.normal(size=att),
        )
        cell = CellParams(
            w=rng.normal(size=(4 * hid, hid + dim)), b=rng.normal(size=4 * hid)
        )
        h1, c1 = rng.normal(size=hid), rng.normal(size=hid)
        x = rng.normal(size=dim)
        h, c, _ = step_after(x, [h1], [c1], rng.normal(size=hid), attn, cell)
        h_ref, c_ref = lstm_step_reference(x, h1, c1, cell.w, cell.b)
        ok_lstm = ok_lstm and np.array_equal(h, h_ref) and np.array_equal(c, c_ref)

    cfg = TrainConfig(emb_dim=dim, window=1, hidden=hid, attn_dim=att)
    params = init_params(cfg, rng)
    a = rng.normal(size=(4, dim))
    b = rng.normal(size=(6, dim))
    (out_alone,), _ = forward(params, cfg, [b])
    forward(params, cfg, [a])
    (out_after,), _ = forward(params, cfg, [b])
    ok_isolation = np.array_equal(out_alone, out_after)

    report(
        "criterion 4: attention normalization, LSTM reduction, isolation",
        ok_sum and ok_lstm and ok_isolation,
        "t=2 step bit-identical to plain LSTM",
    )


def test_criterion_5_bmes_roundtrip_and_valid_decoding():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(1000):
        words = random_segmentation(rng, max_len=30)
        tags = encode_tags(words)
        chars = list("".join(words))
        ok = ok and decode_tags(chars, tags) == words and is_valid(tags)
    mask = tagging.transition_mask()
    for _ in range(200):
        n = int(rng.integers(1, 7))
        emissions = rng.normal(size=(n, K))
        trans = rng.normal(size=(K + 2, K + 2))
        path, _ = viterbi(emissions, np.where(mask, trans, -np.inf))
        ok = ok and is_valid(path)
    report(
        "criterion 5: BMES round-trip x1000 and masked Viterbi validity x200",
        ok,
    )


def test_criterion_6_scorer_fixtures():
    from attnseg.evaluate import score_segmentations

    p, r, f1 = score_segmentations([["ab", "c"]], [["a", "b", "c"]])
    exact = (p == 1 / 3 and r == 1 / 2 and f1 == 0.4)
    identical = score_segmentations([["ab", "c"]], [["ab", "c"]]) \
        == (1.0, 1.0, 1.0)
    report(
        "criterion 6: scorer hand fixtures",
        exact and identical,
        "P=1/3 R=1/2 F1=0.4 exactly; identity gives 1/1/1",
    )


def test_criterion_7_toy_overfit():
    t0 = time.perf_counter()
    corpus = load_toy_corpus()
    config = TrainConfig(
        hidden=32, emb_dim=16, window=3, dropout=0.0,
        batch_size=8, epochs=200, seed=42,
    )
    model = Segmenter.build(corpus, config)
    rng = np.random.default_rng(config.seed)
    accum = {k: np.zeros_like(p) for k, p in model.params.items()}
    reached_at = None
    for epoch in range(1, 201):
        train_epoch(model, corpus, config, rng, accum)
        if tag_accuracy(model, corpus) == 1.0:
            _, _, f1 = evaluate_corpus(model, corpus)
            if f1 == 1.0:
                reached_at = epoch
                break
    elapsed = time.perf_counter() - t0
    report(
        "criterion 7: toy overfit to 100% tag accuracy and F1 1.0",
        reached_at is not None and elapsed < 60.0,
        f"epoch {reached_at}, {elapsed:.1f}s",
    )


def test_criterion_8_determinism_and_roundtrip(tmp_path):
    blobs = []
    models = []
    for name in ("a", "b"):
        corpus = load_toy_corpus()
        config = TrainConfig(hidden=10, emb_dim=6, window=3, dropout=0.2,
                             batch_size=8, epochs=3, seed=7)
        model = Segmenter.build(corpus, config)
        fit(model, corpus, corpus, config)
        out = os.path.join(tmp_path, name)
        save_model(model, out)
        blobs.append(open(os.path.join(out, "params.bin"), "rb").read())
        models.append((model, out))
    identical = blobs[0] == blobs[1]

    model, out = models[0]
    loaded = load_model(out)
    corpus = load_toy_corpus()
    same_decodes = all(
        loaded.decode(s.tokens) == model.decode(s.tokens) for s in corpus
    )
    report(
        "criterion 8: byte-identical training runs, save/load same decodes",
        identical and same_decodes,
        f"params.bin {len(blobs[0])} bytes",
    )


def test_criterion_9_optional_large_corpus():
    path = os.environ.get("ATTNSEG_CORPUS")
    if not path:
        print("[SKIP] criterion 9: large-corpus smoke (informational; set "
              "ATTNSEG_CORPUS to a bakeoff-format training file to run)")
        pytest.skip("no user-supplied corpus")
    corpus = load_corpus(path)
    corpus.sentences = corpus.sentences[:5000]
    train, dev = split_train_dev(corpus, 0.1, seed=42)
    config = TrainConfig(epochs=5, seed=42)
    model = Segmenter.build(train, config)
    _, history = fit(model, train, dev, config)
    f1 = max(rec.f1 for rec in history)
    print(f"[INFO] criterion 9: dev F1 {f1:.4f} after 5 epochs "
          f"(informational target 0.85)")
