import contextlib
import errno
import gc
import mmap
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from attnseg import encoder, model, worker
from attnseg.corpus import load_toy_corpus
from attnseg.encoder import (
    WEIGHTS, DirectionState, attend, backward, dropout_mask, forward,
    init_params, tape_step,
)
from attnseg.model import Segmenter, TrainConfig
from attnseg.numerics import ShapeError, grad_check
from attnseg.train import load_model, save_model
from oracles import (
    direction_weights, lstm_step_reference, lstmn_backward_unrolled,
    lstmn_unrolled, sentence_cache, sentence_rows,
)
from test_tooling import gone_or_zombie

HID, ATT, DIM = 5, 4, 6
# hidden = attention = 150, emb 100, window 3: 300-wide input rows
PAPER_DIMS = dict(emb_dim=100, window=3, hidden=150, attn_dim=150)


def random_direction_params(rng, hidden=HID, attn=ATT, dim=DIM, scale=0.5):
    """One direction's six weights in WEIGHTS order, as
    DirectionState takes them."""
    return [
        rng.normal(scale=scale, size=(attn, hidden)),
        rng.normal(scale=scale, size=(attn, dim)),
        rng.normal(scale=scale, size=(attn, hidden)),
        rng.normal(scale=scale, size=attn),
        rng.normal(scale=scale, size=(4 * hidden, hidden + dim)),
        rng.normal(scale=scale, size=4 * hidden),
    ]


def small_config(**kw):
    """A TrainConfig whose encoder reads DIM-wide rows: one embedding
    of DIM per position, no bigrams."""
    args = dict(emb_dim=DIM, window=1, hidden=HID, attn_dim=ATT)
    args.update(kw)
    return TrainConfig(**args)


def backward_grads(params, cache, d_emissions):
    """(grads, d_inputs) of encoder.backward, its gradients added into
    fresh zeros for every encoder parameter of `params`."""
    grads = {name: np.zeros_like(p) for name, p in params.items()
             if name.startswith(("enc", "out."))}
    return grads, backward(cache, d_emissions, grads)


def step_after(x, hs, cs, summary, weights):
    """tape_step at t = len(hs) over the tape entries (hs, cs), with
    `summary` as the previous step's h~ and the step's rows kept, for
    the direction with these six weights, in WEIGHTS order.  Returns
    (h_t, c_t, step), step holding the attention weights and both
    summaries."""
    t = len(hs)
    hidden = weights[-1].shape[0] // 4
    inputs = np.zeros((t + 1, x.shape[0]))
    inputs[t] = x
    # a batch of one sentence; rows views its arrays
    batch = DirectionState(weights, [inputs], keep_steps=True,
                           memory_span=None)
    rows = sentence_rows(batch, 0)
    for i in range(t):
        rows.tape[i] = np.concatenate((hs[i], cs[i]))
        rows.tape_wh[i] = weights[0] @ hs[i]
    if t:
        rows.gate_in[t - 1, :hidden] = summary
    with np.errstate(over="ignore"):
        tape_step(batch, t)
    rows = sentence_rows(batch, 0, windows=True)
    step = SimpleNamespace(
        weights=rows.weights[t],
        h_summary=rows.gate_in[t, :hidden],
        c_summary=rows.c_summary[t],
    )
    return rows.tape[t, :hidden], rows.tape[t, hidden:], step


def random_tapes(rng, t):
    """Hidden tape, memory tape and previous summary of length-t history."""
    hs = [rng.normal(size=HID) for _ in range(t)]
    cs = [rng.normal(size=HID) for _ in range(t)]
    return hs, cs, rng.normal(size=HID)


def test_attention_weights_empty_at_first_step():
    rng = np.random.default_rng(30)
    weights = random_direction_params(rng)
    x = rng.normal(size=DIM)
    _, _, cache = step_after(x, [], [], np.zeros(HID), weights)
    assert cache.weights.shape == (0,)


def test_attention_weights_singleton_is_one():
    rng = np.random.default_rng(31)
    weights = random_direction_params(rng)
    hs, cs, summary = random_tapes(rng, 1)
    _, _, cache = step_after(rng.normal(size=DIM), hs, cs, summary, weights)
    assert np.array_equal(cache.weights, [1.0])


def test_attention_weights_zero_v_is_uniform():
    rng = np.random.default_rng(32)
    weights = random_direction_params(rng)
    weights[3][:] = 0.0  # v
    hs, cs, summary = random_tapes(rng, 4)
    _, _, cache = step_after(rng.normal(size=DIM), hs, cs, summary, weights)
    assert np.allclose(cache.weights, 0.25, atol=1e-15)


def test_attention_weights_normalized():
    rng = np.random.default_rng(33)
    for _ in range(100):
        weights = random_direction_params(rng)
        t = int(rng.integers(2, 8))
        hs, cs, summary = random_tapes(rng, t)
        _, _, cache = step_after(rng.normal(size=DIM), hs, cs, summary, weights)
        w = cache.weights
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("name", [
    "enc0.bwd.attn.wx", "enc0.fwd.attn.wp", "enc0.bwd.attn.v", "enc0.fwd.cell.b",
    "out.wf",
])
def test_attention_weights_shape_error(name):
    rng = np.random.default_rng(34)
    cfg = small_config()
    params = init_params(cfg, rng)
    # one column (or entry) too many
    shape = params[name].shape
    params[name] = np.zeros(shape[:-1] + (shape[-1] + 1,))
    with pytest.raises(ShapeError, match=re.escape(name)):
        forward(params, cfg, [rng.normal(size=(3, DIM))])


def test_summarize_empty_gives_zeros():
    rng = np.random.default_rng(65)
    weights = random_direction_params(rng)
    _, _, cache = step_after(rng.normal(size=DIM), [], [], np.zeros(HID), weights)
    assert np.array_equal(cache.h_summary, np.zeros(HID))
    assert np.array_equal(cache.c_summary, np.zeros(HID))


def test_summarize_one_hot_selects():
    # a saturated score gap underflows every other weight to exactly 0
    rng = np.random.default_rng(35)
    weights = random_direction_params(rng)
    wh, wx, wp, v, _, _ = weights
    wh[:] = 0.0
    wh[0, 0] = 1.0
    wx[:] = 0.0
    wp[:] = 0.0
    v[:] = 0.0
    v[0] = 1e4
    hs, cs, summary = random_tapes(rng, 3)
    for i, sign in enumerate((-3.0, 3.0, -3.0)):
        hs[i][0] = sign
    _, _, cache = step_after(rng.normal(size=DIM), hs, cs, summary, weights)
    assert np.array_equal(cache.weights, [0.0, 1.0, 0.0])
    assert np.array_equal(cache.h_summary, hs[1])
    assert np.array_equal(cache.c_summary, cs[1])


def test_summarize_uniform_is_mean():
    rng = np.random.default_rng(36)
    weights = random_direction_params(rng)
    weights[3][:] = 0.0  # v
    hs, cs, summary = random_tapes(rng, 2)
    _, _, cache = step_after(rng.normal(size=DIM), hs, cs, summary, weights)
    assert np.allclose(cache.h_summary, (hs[0] + hs[1]) / 2.0, atol=1e-15)
    assert np.allclose(cache.c_summary, (cs[0] + cs[1]) / 2.0, atol=1e-15)


def test_lstmn_step_all_zero_parameters():
    weights = [np.zeros((ATT, HID)), np.zeros((ATT, DIM)), np.zeros((ATT, HID)),
               np.zeros(ATT), np.zeros((4 * HID, HID + DIM)), np.zeros(4 * HID)]
    rng = np.random.default_rng(37)
    hs, cs, summary = random_tapes(rng, 3)
    h, c, _ = step_after(rng.normal(size=DIM), hs, cs, summary, weights)
    c_summary = (cs[0] + cs[1] + cs[2]) / 3.0
    assert np.allclose(c, 0.5 * c_summary, atol=1e-15)
    assert np.allclose(h, 0.5 * np.tanh(c), atol=1e-15)


def test_lstmn_step_singleton_reduces_to_plain_lstm():
    rng = np.random.default_rng(38)
    for _ in range(50):
        weights = random_direction_params(rng)
        h1 = rng.normal(size=HID)
        c1 = rng.normal(size=HID)
        summary = rng.normal(size=HID)
        x = rng.normal(size=DIM)
        h, c, _ = step_after(x, [h1], [c1], summary, weights)
        h_ref, c_ref = lstm_step_reference(x, h1, c1, *weights[4:])
        assert np.array_equal(h, h_ref)
        assert np.array_equal(c, c_ref)


def test_lstmn_step_matches_straight_line_unrolling():
    rng = np.random.default_rng(39)
    for _ in range(30):
        weights = random_direction_params(rng)
        n = int(rng.integers(1, 7))
        inputs = [rng.normal(size=DIM) for _ in range(n)]
        tape_h, tape_c, summary = [], [], np.zeros(HID)
        for x in inputs:
            h, c, cache = step_after(x, tape_h, tape_c, summary, weights)
            tape_h.append(h)
            tape_c.append(c)
            summary = cache.h_summary
        want = lstmn_unrolled(inputs, *weights)
        assert len(tape_h) == len(want)
        for a, b in zip(tape_h, want):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("span", [None, 1, 2])
def test_forward_tapes_match_straight_line_unrolling(span):
    rng = np.random.default_rng(64)
    cfg = small_config(memory_span=span)
    for _ in range(10):
        params = {k: rng.normal(scale=0.5, size=v.shape)
                  for k, v in init_params(cfg, rng).items()}
        x = rng.normal(size=(int(rng.integers(1, 8)), DIM))
        _, cache = forward(params, cfg, [x])
        cache_f, cache_b = sentence_cache(cache, 0).layer_caches[0]
        # the backward direction reads the sentence right to left
        for direction, rows, got in (("fwd", x, cache_f.tape_h),
                                     ("bwd", x[::-1], cache_b.tape_h)):
            want = lstmn_unrolled(
                list(rows), *direction_weights(params, f"enc0.{direction}."),
                memory_span=span)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("n, span, extra_layers", [
    (1, None, 0), (2, None, 0), (5, None, 0), (12, None, 0),
    (1, 2, 0), (2, 2, 0), (5, 2, 0), (12, 2, 0), (7, None, 1),
])
def test_forward_tapes_match_unrolling_at_paper_dimensions(n, span, extra_layers):
    # at 150 rows OpenBLAS runs its full-width kernels, which the toy
    # dimensions above never reach
    rng = np.random.default_rng(67 + n)
    cfg = small_config(**PAPER_DIMS, extra_layers=extra_layers,
                       memory_span=span)
    params = init_params(cfg, rng)
    x = rng.normal(size=(n, 300))
    _, cache = forward(params, cfg, [x])
    rows = x
    for layer, (state_f, state_b) in enumerate(sentence_cache(cache, 0).layer_caches):
        for direction, inputs, got in (("fwd", rows, state_f.tape_h),
                                       ("bwd", rows[::-1], state_b.tape_h)):
            prefix = f"enc{layer}.{direction}."
            want = lstmn_unrolled(list(inputs), *direction_weights(params, prefix),
                                  memory_span=span)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        rows = np.concatenate((state_f.tape_h, state_b.tape_h[::-1]), axis=1)


def test_lstmn_step_tape_growth():
    rng = np.random.default_rng(40)
    cfg = small_config()
    params = init_params(cfg, rng)
    _, cache = forward(params, cfg, [rng.normal(size=(5, DIM))])
    for direction_cache in sentence_cache(cache, 0).layer_caches[0]:
        assert len(direction_cache.tape_h) == 5
        assert len(direction_cache.tape_c) == 5


def test_lstmn_step_memory_span_caps_tape():
    rng = np.random.default_rng(41)
    cfg = small_config(memory_span=2)
    params = init_params(cfg, rng)
    _, cache = forward(params, cfg, [rng.normal(size=(6, DIM))])
    for direction_cache in sentence_cache(cache, 0, windows=True).layer_caches[0]:
        window = [len(w) for w in direction_cache.weights]
        assert window == [0, 1, 2, 2, 2, 2]


def test_lstmn_step_shape_error():
    rng = np.random.default_rng(42)
    cfg = small_config(extra_layers=1)
    params = init_params(cfg, rng)
    params["enc1.fwd.cell.w"] = np.zeros((4 * HID, HID + 2 * HID + 2))
    with pytest.raises(ShapeError):
        forward(params, cfg, [rng.normal(size=(3, DIM))])


def test_init_params_shapes_and_biases():
    rng = np.random.default_rng(43)
    cfg = small_config(extra_layers=1)
    params = init_params(cfg, rng)
    assert params["enc0.fwd.attn.wx"].shape == (ATT, DIM)
    assert params["enc1.fwd.attn.wx"].shape == (ATT, 2 * HID)
    assert params["out.wf"].shape == (4, HID)
    for layer in (0, 1):
        for d in ("fwd", "bwd"):
            b = params[f"enc{layer}.{d}.cell.b"]
            assert np.array_equal(b[HID:2 * HID], np.ones(HID))
            assert np.array_equal(b[:HID], np.zeros(HID))
            assert np.array_equal(b[2 * HID:], np.zeros(2 * HID))


@pytest.mark.parametrize("attn_dim", [None, 7])
@pytest.mark.parametrize("extra_layers", [0, 1, 2])
@pytest.mark.parametrize("bigrams", [False, True])
@pytest.mark.parametrize("window", [1, 3, 5])
def test_encoder_shapes_follow_train_config(window, bigrams, extra_layers,
                                            attn_dim):
    # the encoder reads the model's TrainConfig: its shapes must be the
    # model's, and its input width the featurized rows'
    corpus = load_toy_corpus()
    cfg = TrainConfig(emb_dim=4, hidden=5, window=window, bigrams=bigrams,
                      extra_layers=extra_layers, attn_dim=attn_dim)
    seg = Segmenter.build(corpus, cfg)
    shapes = encoder.param_shapes(cfg)
    whole = model.param_shapes(cfg, seg.vocab, seg.bigram_vocab)
    assert shapes == {name: shape for name, shape in whole.items()
                      if name.startswith(("enc", "out."))}
    assert {name: p.shape for name, p in seg.params.items()} == whole
    assert shapes["enc0.fwd.attn.v"] == (attn_dim or 5,)
    assert [name for name in shapes if name.endswith(".fwd.cell.b")] == [
        f"enc{layer}.fwd.cell.b" for layer in range(1 + extra_layers)]
    tokens = corpus[0].tokens
    x = seg._features(tokens)[0]
    assert cfg.input_dim == x.shape[1] == seg.params["enc0.fwd.attn.wx"].shape[1]
    (out,), cache = forward(seg.params, cfg, [x])
    assert out.shape == (len(tokens), 4)
    grads, (d_x,) = backward_grads(seg.params, cache, [np.ones(out.shape)])
    assert {name: g.shape for name, g in grads.items()} == shapes
    assert d_x.shape == x.shape


def test_config_validation():
    for field, value, message in (
            ("extra_layers", 3, "extra_layers must be 0, 1 or 2, got 3"),
            ("memory_span", 0, "memory_span must be >= 1, got 0")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(**{field: value})
        # a model.json's config is read through from_dict
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainConfig.from_dict({**small_config().to_dict(), field: value})


def test_forward_output_shape():
    rng = np.random.default_rng(44)
    cfg = small_config()
    params = init_params(cfg, rng)
    (out,), _ = forward(params, cfg, [rng.normal(size=(7, DIM))])
    assert out.shape == (7, 4)


def test_forward_single_position_structure():
    rng = np.random.default_rng(45)
    cfg = small_config()
    params = init_params(cfg, rng)
    x = rng.normal(size=(1, DIM))
    (out,), _ = forward(params, cfg, [x])
    # each direction's first step, given its six weights
    hf, hb = [step_after(x[0], [], [], np.zeros(HID),
                         direction_weights(params, prefix))[0]
              for prefix in ("enc0.fwd.", "enc0.bwd.")]
    want = params["out.wf"] @ hf + params["out.wb"] @ hb + params["out.b"]
    assert np.array_equal(out[0], want)


def test_backward_direction_is_forward_on_reversed_input():
    rng = np.random.default_rng(46)
    cfg = small_config()
    params = init_params(cfg, rng)
    x = rng.normal(size=(5, DIM))
    _, cache = forward(params, cfg, [x])
    # the forward direction, given the backward weights and the sentence
    # reversed, must replay the backward tape
    swapped = dict(params)
    for name in params:
        if name.startswith("enc0.bwd."):
            swapped[name.replace(".bwd.", ".fwd.")] = params[name]
    _, rev_cache = forward(swapped, cfg, [x[::-1]])
    got_bwd = sentence_cache(cache, 0).layer_caches[0][1].tape_h
    rev_outs = sentence_cache(rev_cache, 0).layer_caches[0][0].tape_h
    assert len(got_bwd) == len(rev_outs) == 5
    for a, b in zip(got_bwd, rev_outs):
        assert np.array_equal(a, b)


def test_forward_rejects_empty_input():
    rng = np.random.default_rng(47)
    cfg = small_config()
    params = init_params(cfg, rng)
    with pytest.raises(ValueError):
        forward(params, cfg, [np.zeros((0, DIM))])
    with pytest.raises(ValueError, match="at least one sentence"):
        forward(params, cfg, [])
    with pytest.raises(ShapeError, match="input dim"):
        forward(params, cfg, [np.zeros((3, cfg.input_dim + 1))])


def test_forward_takes_a_list_of_sentences():
    # one sentence is a list of one; a bare (n, input_dim) array is not
    rng = np.random.default_rng(76)
    cfg = small_config()
    params = init_params(cfg, rng)
    with pytest.raises(ValueError):
        forward(params, cfg, rng.normal(size=(3, DIM)))


def test_per_sentence_isolation():
    rng = np.random.default_rng(48)
    cfg = small_config()
    params = init_params(cfg, rng)
    a = rng.normal(size=(4, DIM))
    b = rng.normal(size=(6, DIM))
    (out_b_alone,), _ = forward(params, cfg, [b])
    forward(params, cfg, [a])
    (out_b_after,), _ = forward(params, cfg, [b])
    assert np.array_equal(out_b_alone, out_b_after)


def test_hidden_outputs_bounded_by_one():
    rng = np.random.default_rng(49)
    cfg = small_config()
    params = init_params(cfg, rng)
    for _ in range(20):
        x = rng.normal(scale=3.0, size=(int(rng.integers(1, 9)), DIM))
        _, cache = forward(params, cfg, [x])
        for hf in sentence_cache(cache, 0).layer_caches[0][0].tape_h:
            assert np.max(np.abs(hf)) <= 1.0


def test_memory_span_equivalences():
    rng = np.random.default_rng(50)
    x = rng.normal(size=(6, DIM))
    cfg_none = small_config()
    params = init_params(cfg_none, rng)
    (out_none,), _ = forward(params, cfg_none, [x])
    # a cap at least as long as the sentence changes nothing
    (out_big,), _ = forward(params, small_config(memory_span=10), [x])
    assert np.array_equal(out_none, out_big)
    # a tight cap really does change the computation
    (out_one,), _ = forward(params, small_config(memory_span=1), [x])
    assert not np.array_equal(out_none, out_one)
    # the windowed batch pass agrees with the straight-line recurrence
    cfg2 = small_config(memory_span=2)
    _, cache = forward(params, cfg2, [x])
    stepped = lstmn_unrolled([x[t] for t in range(6)],
                             *direction_weights(params, "enc0.fwd."),
                             memory_span=2)
    for a, b in zip(sentence_cache(cache, 0).layer_caches[0][0].tape_h, stepped):
        assert np.array_equal(a, b)


def test_stacked_layers_change_output_shape_only():
    rng = np.random.default_rng(51)
    for extra in (1, 2):
        cfg = small_config(extra_layers=extra)
        params = init_params(cfg, rng)
        (out,), _ = forward(params, cfg, [rng.normal(size=(4, DIM))])
        assert out.shape == (4, 4)


def test_dropout_mask_properties():
    rng = np.random.default_rng(52)
    assert np.array_equal(dropout_mask((3, 2), 0.0, rng), np.ones((3, 2)))
    with pytest.raises(ValueError):
        dropout_mask((2,), 1.0, rng)
    m = dropout_mask(10 ** 6, 0.5, rng)
    assert set(np.unique(m)) <= {0.0, 2.0}
    assert abs(m.mean() - 1.0) < 0.01


def test_dropout_zero_matches_eval_mode():
    rng = np.random.default_rng(53)
    cfg = small_config()
    params = init_params(cfg, rng)
    x = rng.normal(size=(4, DIM))
    (out_eval,), _ = forward(params, cfg, [x])
    (out_train,), _ = forward(params, cfg, [x], dropout=0.0,
                              rng=np.random.default_rng(0))
    assert np.array_equal(out_eval, out_train)


def test_dropout_sites_are_input_and_output_only():
    # replay the mask draws and apply them by hand around a mask-free pass
    rng = np.random.default_rng(54)
    cfg = small_config()
    params = init_params(cfg, rng)
    x = rng.normal(size=(4, DIM))
    p = 0.4
    (out_drop,), _ = forward(params, cfg, [x], dropout=p,
                             rng=np.random.default_rng(99))
    replay = np.random.default_rng(99)
    m_in = dropout_mask(x.shape, p, replay)
    _, cache = forward(params, cfg, [x * m_in])
    m_f = dropout_mask((4, HID), p, replay)
    m_b = dropout_mask((4, HID), p, replay)
    manual = np.empty((4, 4))
    for t in range(4):
        manual[t] = params["out.wf"] @ (cache.top_h[0][0][t] * m_f[t]) \
            + params["out.wb"] @ (cache.top_h[1][0][t] * m_b[t]) + params["out.b"]
    assert np.array_equal(out_drop, manual)


def test_forward_dropout_needs_rng():
    rng = np.random.default_rng(55)
    cfg = small_config()
    params = init_params(cfg, rng)
    with pytest.raises(ValueError):
        forward(params, cfg, [np.zeros((2, DIM))], dropout=0.3)


def test_backward_requires_cache():
    rng = np.random.default_rng(56)
    cfg = small_config()
    params = init_params(cfg, rng)
    with pytest.raises(ValueError):
        backward(None, [np.zeros((2, 4))], {})


def test_backward_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(57)
    cfg = small_config()
    params = init_params(cfg, rng)
    x = rng.normal(size=(3, DIM))
    _, cache = forward(params, cfg, [x])
    grads, (d_x,) = backward_grads(params, cache, [np.zeros((3, 4))])
    for g in grads.values():
        assert np.max(np.abs(g)) == 0.0
    assert np.max(np.abs(d_x)) == 0.0


def encoder_gradcheck(extra_layers=0, memory_span=None, dropout=0.0, seed=58):
    """grad_check over all encoder parameters and the inputs, using a
    fixed random linear functional of the emissions as the loss."""
    rng = np.random.default_rng(seed)
    cfg = small_config(extra_layers=extra_layers, memory_span=memory_span)
    params = {k: rng.normal(scale=0.5, size=v.shape)
              for k, v in init_params(cfg, rng).items()}
    n = 3
    x = rng.normal(size=(n, DIM))
    weight = rng.normal(size=(n, 4))
    mask_rng_seed = 7

    names = list(params)
    sizes = {k: params[k].size for k in names}

    def split(vec):
        ps = {}
        off = 0
        for k in names:
            ps[k] = vec[off:off + sizes[k]].reshape(params[k].shape)
            off += sizes[k]
        xs = vec[off:].reshape(n, DIM)
        return ps, xs

    def f(vec):
        ps, xs = split(vec)
        drop_rng = np.random.default_rng(mask_rng_seed) if dropout else None
        (out,), _ = forward(ps, cfg, [xs], dropout=dropout, rng=drop_rng)
        return float(np.sum(weight * out))

    drop_rng = np.random.default_rng(mask_rng_seed) if dropout else None
    _, cache = forward(params, cfg, [x], dropout=dropout, rng=drop_rng)
    grads, (d_x,) = backward_grads(params, cache, [weight])
    point = np.concatenate([params[k].ravel() for k in names] + [x.ravel()])
    analytic = np.concatenate([grads[k].ravel() for k in names] + [d_x.ravel()])
    return grad_check(f, analytic, point)


def test_backward_matches_finite_differences():
    assert encoder_gradcheck() < 1e-3


def test_backward_matches_finite_differences_stacked():
    assert encoder_gradcheck(extra_layers=1, seed=59) < 1e-3
    assert encoder_gradcheck(extra_layers=2, seed=81) < 1e-3


def test_backward_matches_finite_differences_memory_span():
    assert encoder_gradcheck(memory_span=2, seed=60) < 1e-3


def test_backward_matches_finite_differences_with_dropout():
    # dropout masks replayed from a fixed seed make the loss deterministic
    assert encoder_gradcheck(dropout=0.35, seed=61) < 1e-3


@pytest.mark.parametrize("extra_layers, memory_span, dropout, dims", [
    pytest.param(*case, {}, id="-".join(map(str, case))) for case in [
        (0, None, 0.0), (0, 1, 0.0), (0, 2, 0.0), (1, None, 0.0),
        (0, None, 0.35), (1, 2, 0.35),
    ]
] + [pytest.param(0, None, 0.35, PAPER_DIMS, id="paper-0-None-0.35")])
def test_backward_matches_pairwise_oracle(extra_layers, memory_span, dropout,
                                          dims):
    # accumulation order differs from the pair-by-pair reference, so the
    # bound is relative to the largest entry, far below the gradient checks'
    rng = np.random.default_rng(66)
    cfg = small_config(extra_layers=extra_layers, memory_span=memory_span,
                       **dims)
    for _ in range(5):
        params = {k: rng.normal(scale=0.5, size=v.shape)
                  for k, v in init_params(cfg, rng).items()}
        n = int(rng.integers(1, 10))
        x = rng.normal(size=(n, cfg.input_dim))
        drop_rng = np.random.default_rng(7) if dropout else None
        _, cache = forward(params, cfg, [x], dropout=dropout, rng=drop_rng)
        d_emissions = rng.normal(size=(n, 4))
        # the oracle reads the kept states, which backward releases
        want, want_d_x = lstmn_backward_unrolled(
            params, 1 + cfg.extra_layers, cache, d_emissions
        )
        grads, (d_x,) = backward_grads(params, cache, [d_emissions])
        assert set(grads) == set(want) == set(params)
        for got, ref in [(grads[k], want[k]) for k in want] + [(d_x, want_d_x)]:
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def batch_case(dims, memory_span, extra_layers, lengths, seed):
    cfg = small_config(memory_span=memory_span, extra_layers=extra_layers,
                       **dims)
    rng = np.random.default_rng(seed)
    params = {k: rng.normal(scale=0.5, size=v.shape)
              for k, v in init_params(cfg, rng).items()}
    xs = [rng.normal(size=(n, cfg.input_dim)) for n in lengths]
    return cfg, params, xs


BATCH_CASES = [
    pytest.param({}, span, layers, dropout, id=f"toy-{span}-{layers}-{dropout}")
    for span in (None, 1, 2) for layers in (0, 1) for dropout in (0.0, 0.3)
] + [
    pytest.param({}, 2, 2, 0.3, id="toy-2-2-0.3"),

    pytest.param(PAPER_DIMS, None, 0, 0.0, id="paper-None-0-0.0"),
    pytest.param(PAPER_DIMS, 2, 1, 0.3, id="paper-2-1-0.3"),
]


@pytest.mark.parametrize("dims, memory_span, extra_layers, dropout", BATCH_CASES)
def test_batched_forward_matches_batch_of_one(dims, memory_span, extra_layers,
                                              dropout):
    # mixed lengths, a length-1 sentence and a tie; the shared rng must
    # give each sentence the masks it draws on its own
    lengths = [5, 1, 9, 5, 3] if not dims else [4, 1, 7]
    cfg, params, xs = batch_case(dims, memory_span, extra_layers, lengths, 68)
    out, cache = forward(params, cfg, xs, dropout=dropout,
                         rng=np.random.default_rng(3))
    one_rng = np.random.default_rng(3)
    for s, x in enumerate(xs):
        (want,), want_cache = forward(params, cfg, [x], dropout=dropout,
                                      rng=one_rng)
        assert np.array_equal(out[s], want)
        got_cache = sentence_cache(cache, s, windows=True)
        want_layers = sentence_cache(want_cache, 0, windows=True).layer_caches
        for got_layer, want_layer in zip(got_cache.layer_caches, want_layers):
            for got, ref in zip(got_layer, want_layer):
                # both tapes, [h | c], and every step's attention weights
                assert np.array_equal(got.tape, ref.tape)
                assert len(got.weights) == len(ref.weights) == x.shape[0]
                for a, b in zip(got.weights, ref.weights):
                    assert np.array_equal(a, b)


@pytest.mark.parametrize("dims, memory_span, extra_layers, dropout",
                         [case for case in BATCH_CASES if case.values[3] == 0.0])
def test_decode_pass_matches_training_pass(dims, memory_span, extra_layers,
                                           dropout):
    # without a cache each direction overwrites one scratch row of arrays
    # from np.empty; with one it keeps every row, in arrays from np.zeros
    lengths = [5, 1, 9, 5, 3] if not dims else [4, 1, 7]
    cfg, params, xs = batch_case(dims, memory_span, extra_layers, lengths, 71)
    kept, _ = forward(params, cfg, xs)
    decoded, cache = forward(params, cfg, xs, keep_cache=False)
    assert cache is None
    for got, want in zip(decoded, kept, strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dims, memory_span, extra_layers, dropout", BATCH_CASES)
def test_batched_backward_matches_batch_of_one(dims, memory_span, extra_layers,
                                               dropout):
    lengths = [5, 1, 9, 5, 3] if not dims else [4, 1, 7]
    cfg, params, xs = batch_case(dims, memory_span, extra_layers, lengths, 69)
    rng = np.random.default_rng(70)
    d_emissions = [rng.normal(size=(n, 4)) for n in lengths]
    _, cache = forward(params, cfg, xs, dropout=dropout,
                       rng=np.random.default_rng(4))
    grads, d_inputs = backward_grads(params, cache, d_emissions)
    one_rng = np.random.default_rng(4)
    sums = {k: np.zeros_like(p) for k, p in params.items()}
    for s, x in enumerate(xs):
        _, one_cache = forward(params, cfg, [x], dropout=dropout, rng=one_rng)
        one_grads, (one_d_x,) = backward_grads(params, one_cache, [d_emissions[s]])
        assert np.array_equal(d_inputs[s], one_d_x)
        for k in sums:
            sums[k] += one_grads[k]
    assert set(grads) == set(sums)
    for k in sums:
        assert np.array_equal(grads[k], sums[k]), k


@pytest.mark.parametrize("dims, memory_span, extra_layers, dropout", BATCH_CASES)
def test_backward_recomputes_the_forward_attention(monkeypatch, dims, memory_span,
                                                   extra_layers, dropout):
    # backward keeps no window arrays: it calls attend again on the same
    # state, and must get the forward's activations and weights bit for bit
    calls = {}

    def recording_attend(state, t):
        pre_tanh, weights = attend(state, t)
        calls.setdefault((id(state), t), []).append((pre_tanh.copy(),
                                                     weights.copy()))
        return pre_tanh, weights

    monkeypatch.setattr(encoder, "attend", recording_attend)
    lengths = [5, 1, 9, 5, 3] if not dims else [4, 1, 7]
    cfg, params, xs = batch_case(dims, memory_span, extra_layers, lengths, 77)
    rng = np.random.default_rng(78)
    d_emissions = [rng.normal(size=(n, 4)) for n in lengths]
    _, cache = forward(params, cfg, xs, dropout=dropout,
                       rng=np.random.default_rng(5))
    # every step but the first has a window, in each direction and layer
    assert len(calls) == 2 * (1 + cfg.extra_layers) * (max(lengths) - 1)
    assert all(len(pairs) == 1 for pairs in calls.values())
    backward_grads(params, cache, d_emissions)
    for key, pairs in calls.items():
        assert len(pairs) == 2, key
        (fwd_pre, fwd_weights), (bwd_pre, bwd_weights) = pairs
        assert np.array_equal(fwd_pre, bwd_pre), key
        assert np.array_equal(fwd_weights, bwd_weights), key


def test_training_memory_grows_linearly_with_length():
    # a kept forward holds O(n) rows per direction and backward forms one
    # step's window at a time; windows kept from forward to backward
    # would grow with n^2 and make the doubled sentence take about 3.5x
    # the memory
    cfg = small_config(emb_dim=15, hidden=8, attn_dim=8)
    rng = np.random.default_rng(79)
    params = init_params(cfg, rng)
    x = rng.normal(size=(400, cfg.input_dim))
    d_emissions = rng.normal(size=(400, 4))

    def peak(n):
        tracemalloc.start()
        try:
            _, cache = forward(params, cfg, [x[:n]])
            backward_grads(params, cache, [d_emissions[:n]])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)
    assert peak(400) < 2.5 * peak(200)


@pytest.mark.parametrize("hidden, attn, dim", [(8, 8, 45), (150, 150, 300)])
def test_decode_memory_is_the_state_rows_and_one_step(hidden, attn, dim):
    # a direction run without a cache holds its tapes and inputs, 3h + 2a
    # + d values per token, and one step's arrays: the window's tanh
    # activations and weights, n (a + 1) values, the step's own rows,
    # 16h values, and numpy's iterator buffer, np.getbufsize() values;
    # the active and window_starts lists take 8 pointers per token, a
    # temporary list and over-allocation included.  Kept gate rows (4h
    # values per token) or kept windows exceed it
    rng = np.random.default_rng(83)
    weights = random_direction_params(rng, hidden, attn, dim)
    x = rng.normal(size=(400, dim))

    def peak(n):
        tracemalloc.start()
        try:
            encoder._run_direction(weights, [x[:n]], False, None)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)
    peaks = {}
    for n in (200, 400):
        peaks[n] = peak(n)
        values = (n * (3 * hidden + 2 * attn + dim) + n * (attn + 1)
                  + 16 * hidden + np.getbufsize() + 8 * n)
        assert peaks[n] <= 8 * values, (n, peaks[n], 8 * values)
    assert peaks[400] < 2.1 * peaks[200]


def assert_tapes_match_unrolling(params, cfg, xs):
    """Run the batch `xs` and check every sentence's hidden tapes, per
    layer and direction, bit for bit against lstmn_unrolled over that
    sentence alone."""
    _, cache = forward(params, cfg, xs)
    for s, x in enumerate(xs):
        rows = x
        for layer, (got_f, got_b) in enumerate(sentence_cache(cache, s).layer_caches):
            for direction, inputs, got in (("fwd", rows, got_f.tape_h),
                                           ("bwd", rows[::-1], got_b.tape_h)):
                prefix = f"enc{layer}.{direction}."
                want = lstmn_unrolled(list(inputs), *direction_weights(params, prefix),
                                      memory_span=cfg.memory_span)
                assert len(got) == len(want)
                for t, (a, b) in enumerate(zip(got, want)):
                    assert np.array_equal(a, b), (s, layer, direction, t)
            rows = np.concatenate((got_f.tape_h, got_b.tape_h[::-1]), axis=1)


@pytest.mark.parametrize("lengths", [[40], [37, 23, 23, 12, 2, 1], [1, 31, 9, 33]])
@pytest.mark.parametrize("extra_layers", [0, 1])
@pytest.mark.parametrize("span", [None, 3])
def test_long_window_tapes_match_unrolling(span, extra_layers, lengths):
    # unbounded windows grow to 39 entries, wider than the 2h = 10
    # columns of a [h | c] tape row; ragged batches, in any order
    assert max(lengths) - 1 > 2 * HID
    cfg, params, xs = batch_case({}, span, extra_layers, lengths,
                                 74 + sum(lengths))
    assert_tapes_match_unrolling(params, cfg, xs)


@pytest.mark.parametrize("lengths", [[60], [41, 60, 7]], ids=["alone", "batch"])
def test_long_window_tapes_match_unrolling_at_paper_dimensions(lengths):
    cfg = small_config(**PAPER_DIMS)
    rng = np.random.default_rng(75)
    params = init_params(cfg, rng)
    # the same 60-token sentence alone and inside the batch
    x = rng.normal(size=(60, cfg.input_dim))
    xs = [x if n == 60 else rng.normal(size=(n, cfg.input_dim)) for n in lengths]
    assert_tapes_match_unrolling(params, cfg, xs)


def test_backward_adds_into_given_grads():
    cfg, params, xs = batch_case({}, None, 0, [3, 2], 71)
    _, cache = forward(params, cfg, xs)
    d_emissions = [np.ones((3, 4)), np.ones((2, 4))]
    fresh, _ = backward_grads(params, cache, d_emissions)
    into = {k: np.zeros_like(p) for k, p in params.items()}
    # a cache serves one backward call: each call gets a fresh forward
    _, cache = forward(params, cfg, xs)
    backward(cache, d_emissions, into)
    for k in fresh:
        assert np.array_equal(into[k], fresh[k])
    # one sentence's gradient lands on what the dict already holds
    _, one_cache = forward(params, cfg, [xs[0]])
    one, _ = backward_grads(params, one_cache, [d_emissions[0]])
    _, one_cache = forward(params, cfg, [xs[0]])
    backward(one_cache, [d_emissions[0]], into)
    for k in fresh:
        assert np.array_equal(into[k], fresh[k] + one[k])


def test_second_backward_on_one_cache_raises():
    # backward releases each direction's kept state as it goes, so a
    # second call must not add the gradients again
    cfg, params, xs = batch_case({}, None, 1, [3, 2], 71)
    _, cache = forward(params, cfg, xs)
    d_emissions = [np.ones((3, 4)), np.ones((2, 4))]
    grads, _ = backward_grads(params, cache, d_emissions)
    sums = {k: g.copy() for k, g in grads.items()}
    with pytest.raises(ValueError, match="spent"):
        backward(cache, d_emissions, grads)
    for k in sums:
        assert np.array_equal(grads[k], sums[k]), k
    assert cache.layers == []


@pytest.mark.parametrize("extra_layers", [0, 2])
def test_backward_holds_one_directions_loop_arrays(extra_layers):
    # measured above what the forward left allocated, so kept states
    # released as backward goes count against its own arrays; whole-batch
    # gate factors (1350 more values per padded row), or d z and the
    # d pre sums in arrays of their own (750 more), exceed the bound
    cfg = small_config(extra_layers=extra_layers, **PAPER_DIMS)
    rng = np.random.default_rng(82)
    params = init_params(cfg, rng)
    lengths = [18, 16, 14, 12, 10, 8, 7, 6]
    xs = [rng.normal(size=(n, cfg.input_dim)) for n in lengths]
    d_emissions = [rng.normal(size=(n, 4)) for n in lengths]
    # one direction's loop arrays of _direction_backward (d_tape and
    # d_tape_wh: 2h + a values per padded row) and one cell.w-shaped
    # product (600 x 450 in every layer), in float64, with 15% slack for
    # the small per-step and per-sentence arrays: about 2.9 MiB
    h, a = cfg.hidden, cfg.attn_dim
    loop_values = len(lengths) * max(lengths) * (2 * h + a)
    bound = 1.15 * 8 * (loop_values + params["enc0.fwd.cell.w"].size)
    grads = {name: np.zeros_like(p) for name, p in params.items()}
    tracemalloc.start()
    try:
        _, cache = forward(params, cfg, xs)
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        backward(cache, d_emissions, grads)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak / 2 ** 20, bound / 2 ** 20)


def test_backward_needs_one_gradient_per_sentence():
    cfg, params, xs = batch_case({}, None, 0, [3, 2], 72)
    _, cache = forward(params, cfg, xs)
    with pytest.raises(ValueError):
        backward(cache, [np.zeros((3, 4))], {})


def test_batch_state_rejects_unsorted_lengths():
    rng = np.random.default_rng(73)
    weights = random_direction_params(rng)
    with pytest.raises(ValueError, match="not longest first"):
        DirectionState(weights, [np.zeros((2, DIM)), np.zeros((3, DIM))],
                       keep_steps=True, memory_span=None)


def test_kept_state_pads_with_zero_rows_and_decode_keeps_no_steps():
    # every row of a kept state's arrays past the short sentence's length
    # stays exactly zero; a run without keeping has the same four tapes
    # and input arrays but no gates or c_summary, and neither mode holds
    # a step's scratch (summary, tanh_c), which each step makes itself
    rng = np.random.default_rng(74)
    weights = random_direction_params(rng)
    inputs = [rng.normal(size=(n, DIM)) for n in (5, 2)]
    kept = encoder._run_direction(weights, inputs, True, None)
    arrays = ("tape", "tape_wh", "wx_x", "gate_in", "gates", "c_summary")
    for name in arrays:
        array = getattr(kept, name)
        assert array.shape[:2] == (2, 5), name
        assert np.any(array[0] != 0.0), name
        assert np.all(array[1, 2:] == 0.0), name
    decode = encoder._run_direction(weights, inputs, False, None)
    assert decode.gates is None and decode.c_summary is None
    for name in arrays[:-2]:
        assert getattr(decode, name).shape[:2] == (2, 5), name
    for state in (kept, decode):
        for name in ("summary", "tanh_c"):
            assert not hasattr(state, name), name


def test_direction_state_holds_its_weights():
    # a kept forward's states carry the model's own weight arrays of
    # their direction, so attend() needs the cache alone
    rng = np.random.default_rng(80)
    cfg = small_config(extra_layers=1)
    params = init_params(cfg, rng)
    xs = [rng.normal(size=(n, DIM)) for n in (5, 3, 6)]
    _, cache = forward(params, cfg, xs)
    assert len(cache.layers) == 2
    # the cache holds the output layer's too, so backward() needs it alone
    for got, name in zip(cache.out_w, ("out.wf", "out.wb"), strict=True):
        assert got is params[name]
    for layer, states in enumerate(cache.layers):
        for direction, state in zip(("fwd", "bwd"), states, strict=True):
            prefix = f"enc{layer}.{direction}."
            for name in WEIGHTS:
                assert getattr(state, name.split(".")[1]) is params[prefix + name]
            wh, wx, wp, v, _, _ = direction_weights(params, prefix)
            for p in range(len(xs)):
                rows = sentence_rows(state, p, windows=True)
                for t in range(1, len(rows.tape)):
                    # the straight-line scores over the kept rows
                    x, prev = rows.gate_in[t, HID:], rows.gate_in[t - 1, :HID]
                    scores = np.array([v @ np.tanh(wh @ h + wx @ x + wp @ prev)
                                       for h in rows.tape_h[:t]])
                    e = np.exp(scores - np.max(scores))
                    assert np.array_equal(rows.weights[t], e / np.sum(e))
                    assert np.array_equal(attend(state, t)[1][p], rows.weights[t])


def paper_model(**overrides):
    """A paper-dimension model over the toy corpus, every parameter
    redrawn from normal(0, 0.3), and the corpus's characters."""
    corpus = load_toy_corpus()
    cfg = TrainConfig(**{**PAPER_DIMS, **overrides})
    built = Segmenter.build(corpus, cfg)
    rng = np.random.default_rng(7)
    for p in built.params.values():
        p[...] = rng.normal(0.0, 0.3, size=p.shape)
    return built, [tok for sent in corpus for tok in sent.tokens]


def saved_and_loaded(built, directory):
    """`built` through save_model and load_model: the encoder's tensors
    in one block of the shared region, the tables float32 and private."""
    save_model(built, directory)
    return load_model(directory)


def decode_outputs(built, lines):
    """The bytes of each line's emissions, of one decode of all lines
    and of each line's segment() output."""
    return ([built.emissions(list(line))[0].tobytes() for line in lines],
            [bytes(path) for path in built.decode([list(line) for line in lines])],
            [" ".join(built.segment(line)).encode() for line in lines])


def same_arrays(got, want):
    return all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


@pytest.mark.parametrize("extra_layers, span, loaded", [
    pytest.param(extra_layers, span, loaded,
                 id=f"{extra_layers}-{span}" + ("-loaded" if loaded else ""))
    for loaded in (False, True) for extra_layers, span in ((0, None), (0, 2),
                                                            (1, None), (1, 2))])
def test_forked_decode_is_bit_equal_to_in_process(dispatches, region,
                                                  monkeypatch, in_process,
                                                  tmp_path, extra_layers, span,
                                                  loaded):
    # decode chunks of 4 lines: the first mixes lines below and above
    # the threshold and goes to the worker, the second is all short and
    # does not.  A built and a loaded model's worker reads the weights in
    # the shared region
    built, chars = paper_model(extra_layers=extra_layers, memory_span=span,
                               batch_size=4)
    if loaded:
        built = saved_and_loaded(built, tmp_path / "m")
    m = worker.FORK_MIN_TOKENS
    text = "".join(chars * 3)
    lines = [text[i:i + n] for i, n in enumerate((m + 6, m // 2, m, 1, m - 1, m - 1))]
    want = in_process(lambda: decode_outputs(built, lines))
    assert not dispatches
    # the worker runs each layer's backward direction for each long
    # emissions() and segment() call and for the first decode chunk
    assert decode_outputs(built, lines) == want
    assert len(dispatches) == 5 * (1 + extra_layers)
    assert set(dispatches) == {worker._worker.pid}

    def no_fork():
        raise OSError(11, "Resource temporarily unavailable")

    worker.close_worker()
    monkeypatch.setattr(os, "fork", no_fork)
    assert decode_outputs(built, lines) == want
    assert worker._worker is None


def test_worker_sees_weights_edited_in_place(dispatches, region, in_process,
                                             tmp_path):
    # training and gradient checks write model.params in place between
    # decodes; the worker must run with the weights of each call, read
    # from the parent's own pages for a loaded model
    built, chars = paper_model(extra_layers=1)
    line = "".join(chars)[:worker.FORK_MIN_TOKENS + 3]
    for model in (built, saved_and_loaded(built, tmp_path / "m")):
        before = model.emissions(list(line))[0]
        pid = worker._worker.pid
        for name in ("enc0.bwd.cell.w", "enc1.bwd.attn.wh"):
            model.params[name][...] *= 1.01
            got = model.emissions(list(line))[0]
            want = in_process(lambda: model.emissions(list(line))[0])
            assert np.array_equal(got, want)
            assert not np.array_equal(got, before)
            before = got
        assert worker._worker.pid == pid
    assert len(dispatches) == 12


def counted_writes(monkeypatch):
    """A list that gets (fd, bytes written) for each later worker._write
    call, as a request to the decode worker makes one."""
    writes = []
    write = worker._write

    def counted(fd, *arrays):
        writes.append((fd, sum(np.asarray(a).nbytes for a in arrays)))
        return write(fd, *arrays)

    monkeypatch.setattr(worker, "_write", counted)
    return writes


def test_a_request_carries_no_weight(dispatches, region, monkeypatch,
                                     in_process, tmp_path):
    # a request whose six weights are C-contiguous float64 arrays in the
    # shared region carries their offsets and no weight: the header, six
    # offsets, one length and the line's input rows.  A direction with a
    # weight outside the region runs in this process and sends nothing
    built, chars = paper_model(extra_layers=1)
    loaded = saved_and_loaded(built, tmp_path / "m")
    line = list("".join(chars)[:worker.FORK_MIN_TOKENS + 3])
    writes = counted_writes(monkeypatch)
    head = 8 * (5 + 6 + 1)
    layer0 = head + 8 * len(line) * built.config.input_dim
    layer1 = head + 8 * len(line) * 2 * built.config.hidden

    def sent(model):
        """The bytes of each request of one pass, after checking its
        emissions against an in-process pass."""
        written = len(writes)
        got = model.emissions(line)[0]
        channel = worker._worker.channel
        want = in_process(lambda: model.emissions(line)[0])
        assert np.array_equal(got, want)
        assert {fd for fd, _ in writes[written:]} <= {channel}
        return [nbytes for _, nbytes in writes[written:]]

    assert sent(loaded) == [layer0, layer1]
    assert sent(built) == [layer0, layer1]
    # one weight outside the region: that layer's backward direction
    # runs in this process, the other layer's in the worker
    name = "enc0.bwd.attn.wh"
    loaded.params[name] = loaded.params[name].copy()
    assert sent(loaded) == [layer1]
    assert len(dispatches) == 5


def test_a_non_contiguous_weight_decodes_bit_equal(dispatches, region,
                                                   in_process):
    # a product with a column-major weight rounds otherwise than with a
    # row-major copy of it, so the worker must not run with such a copy
    built, chars = paper_model()
    line = list("".join(chars)[:worker.FORK_MIN_TOKENS + 3])
    name = "enc0.bwd.attn.wh"
    built.params[name] = np.asfortranarray(built.params[name])
    got = built.emissions(line)[0]
    want = in_process(lambda: built.emissions(line)[0])
    assert np.array_equal(got, want)
    assert not dispatches


def test_an_interrupted_request_closes_the_worker(dispatches, region,
                                                  monkeypatch, in_process):
    # a send interrupted after its header leaves half a request on the
    # pipe: the worker goes with it, so that the next decode's request is
    # not read as the rest of that one, and the interrupt goes through
    built, chars = paper_model()
    line = chars[:20]
    want = in_process(lambda: built.decode([line]))
    write = worker._write

    def interrupted(fd, *arrays):
        monkeypatch.setattr(worker, "_write", write)
        write(fd, arrays[0])
        raise KeyboardInterrupt

    monkeypatch.setattr(worker, "_write", interrupted)
    with pytest.raises(KeyboardInterrupt):
        built.decode([line])
    assert worker._worker is None
    assert built.decode([line]) == want
    assert len(dispatches) == 2


def test_heap_weights_without_a_region_fork_no_worker(dispatches, monkeypatch,
                                                      in_process):
    # a process with no shared region, where every weight is a plain
    # heap array, runs both directions itself: no fork and no request
    rng = np.random.default_rng(88)
    cfg = small_config(extra_layers=1)
    params = {name: p.copy() for name, p in init_params(cfg, rng).items()}
    xs = [rng.normal(size=(n, DIM)) for n in (worker.FORK_MIN_TOKENS + 5, 2)]
    want, _ = in_process(lambda: forward(params, cfg, xs, keep_cache=False))
    monkeypatch.setattr(worker, "_region", None)
    writes = counted_writes(monkeypatch)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked a worker"))
    got, _ = forward(params, cfg, xs, keep_cache=False)
    assert same_arrays(got, want)
    assert not dispatches
    assert not writes
    assert worker._worker is None


def test_region_offsets_only_of_contiguous_float64_arrays_in_it(region, tmp_path):
    # the worker reads an offset as a C-contiguous float64 array of the
    # weight's shape, so no other array in the region has one
    built, _ = paper_model()
    loaded = saved_and_loaded(built, tmp_path / "m")
    w = loaded.params["enc0.bwd.attn.wh"]
    offset = region.offset(w)
    assert offset is not None
    assert w.ctypes.data == region.address + offset
    for other in (w.T, w[:, ::2], w[1:, :2], w.copy(), loaded.params["emb.uni"]):
        assert region.offset(other) is None


def test_forked_child_holds_a_snapshot_of_a_loaded_model(dispatches, region,
                                                         in_process, tmp_path):
    # the decode worker reads the parent's pages, but any other forked
    # child gets the model as it was at the fork: neither side's later
    # writes reach the other
    built, chars = paper_model()
    loaded = saved_and_loaded(built, tmp_path / "m")
    line = list("".join(chars)[:worker.FORK_MIN_TOKENS + 3])
    loaded.emissions(line)
    name = "enc0.bwd.cell.w"
    before = loaded.params[name].copy()
    to_child, from_parent = os.pipe()
    to_parent, from_child = os.pipe()
    child = os.fork()
    if child == 0:
        status = 1
        try:
            os.close(from_parent)
            os.close(to_parent)
            loaded.params[name][...] *= 2.0
            os.write(from_child, b"w")
            os.read(to_child, 1)
            snapshot = np.array_equal(loaded.params[name], 2.0 * before)
            # outside the child's own region, the weights run in the child
            got = loaded.emissions(line)[0]
            worker.close_worker()
            worker.FORK_MIN_TOKENS = np.inf
            if snapshot and np.array_equal(got, loaded.emissions(line)[0]):
                status = 0
        finally:
            os._exit(status)
    os.close(to_child)
    os.close(from_child)
    try:
        assert os.read(to_parent, 1) == b"w"
        assert np.array_equal(loaded.params[name], before)
        loaded.params[name][...] *= 3.0
        os.write(from_parent, b"p")
    finally:
        os.close(from_parent)
        os.close(to_parent)
        # a child still waiting after a failed check sees EOF and exits
        status = os.waitpid(child, 0)[1]
    assert status == 0
    got = loaded.emissions(line)[0]
    assert np.array_equal(got, in_process(lambda: loaded.emissions(line)[0]))
    assert len(set(dispatches)) == 1


def mapped_over(start, end):
    """The lines of /proc/self/maps whose ranges overlap the addresses
    [start, end), read a page at a time, so that the read maps nothing
    there itself."""
    fd = os.open("/proc/self/maps", os.O_RDONLY)
    found, rest = [], b""
    try:
        while chunk := os.read(fd, mmap.PAGESIZE):
            *lines, rest = (rest + chunk).split(b"\n")
            for line in lines:
                low, high = (int(x, 16) for x in line.split()[0].split(b"-"))
                if low < end and start < high:
                    found.append(line)
    finally:
        os.close(fd)
    return found


needs_maps = pytest.mark.skipif(
    not (hasattr(os, "memfd_create") and os.path.exists("/proc/self/maps")),
    reason="the shared region needs os.memfd_create, the check /proc/self/maps")


@needs_maps
def test_a_region_is_unmapped_once_nothing_views_it():
    # the region's mmap lives while the region or any view of its blocks
    # does, and the view reads what was written through it until then
    region = worker._Region(2 ** 20)
    start, end = region.address, region.address + len(region.buffer)
    view = region.block(3 * mmap.PAGESIZE)[mmap.PAGESIZE:].view(np.float64)
    view[...] = 1.5
    del region
    gc.collect()
    assert mapped_over(start, end)
    assert (view == 1.5).all()
    del view
    gc.collect()
    assert mapped_over(start, end) == []


@needs_maps
def test_a_forked_child_unmaps_its_snapshot_once_it_drops_the_model(monkeypatch):
    # a child forked, not as the decode worker, from a process that built
    # a model holds the model's private snapshot only through the model's
    # arrays: once it drops the model, the region's addresses are free
    monkeypatch.setattr(worker, "_region", worker._Region(2 ** 25))
    start = worker._region.address
    end = start + len(worker._region.buffer)
    built, _ = paper_model()
    child = os.fork()
    if child == 0:
        status = 1
        try:
            held = bool(mapped_over(start, end))
            del built
            gc.collect()
            if held and not mapped_over(start, end):
                status = 0
        finally:
            os._exit(status)
    assert os.waitpid(child, 0)[1] == 0
    assert mapped_over(start, end)


# a process that decodes a 6000-token line through the worker, each
# direction some 10 s at paper dimensions, after printing the worker's
# pid
LONG_DECODE = """
import os
import numpy as np
from attnseg import encoder, worker
from attnseg.model import TrainConfig
os.sched_getaffinity = lambda pid: {0, 1}
cfg = TrainConfig(emb_dim=4, window=1, hidden=150, attn_dim=150)
rng = np.random.default_rng(86)
params = encoder.init_params(cfg, rng)
for n in (worker.FORK_MIN_TOKENS, 6000):
    encoder.forward(params, cfg, [rng.normal(size=(n, 4))], keep_cache=False)
    if n == worker.FORK_MIN_TOKENS:
        print(worker._worker.pid, flush=True)
"""


@pytest.mark.skipif(not hasattr(os, "memfd_create"),
                    reason="the decode worker needs os.memfd_create")
def test_killed_parent_leaves_its_stdout_to_no_worker():
    # the worker points fds 0-2 at /dev/null and closes every other fd
    # it inherited, so a reader of the parent's stdout sees EOF when the
    # parent dies, not when the worker ends its request
    src = os.path.dirname(os.path.dirname(os.path.abspath(encoder.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen([sys.executable, "-c", LONG_DECODE],
                            stdout=subprocess.PIPE, env=env)
    pid = None
    try:
        pid = int(proc.stdout.readline())
        # well into the long request
        time.sleep(0.5)
        proc.kill()
        proc.communicate(timeout=5)
    finally:
        proc.kill()
        proc.wait()
        if pid is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.skipif(not hasattr(os, "memfd_create") or not os.path.isdir("/proc"),
                    reason="the decode worker and /proc are Linux's")
def test_worker_dies_with_its_parent_mid_request():
    # the kernel kills the worker when its parent dies, so a worker whose
    # parent is killed does not run its request, some 10 s more, to the end
    src = os.path.dirname(os.path.dirname(os.path.abspath(encoder.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen([sys.executable, "-c", LONG_DECODE],
                            stdout=subprocess.PIPE, env=env)
    pid = None
    try:
        pid = int(proc.stdout.readline())
        time.sleep(0.5)
        assert not gone_or_zombie(pid)
        proc.kill()
        proc.communicate(timeout=5)
        deadline = time.monotonic() + 3.0
        while not gone_or_zombie(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert gone_or_zombie(pid)
    finally:
        proc.kill()
        proc.wait()
        if pid is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


def test_killed_worker_falls_back_and_a_fresh_one_follows(dispatches,
                                                          in_process):
    rng = np.random.default_rng(84)
    cfg = small_config(extra_layers=1)
    params = init_params(cfg, rng)
    xs = [rng.normal(size=(n, DIM)) for n in (worker.FORK_MIN_TOKENS + 5, 2)]
    want, _ = in_process(lambda: forward(params, cfg, xs, keep_cache=False))
    got, _ = forward(params, cfg, xs, keep_cache=False)
    assert same_arrays(got, want)
    killed = worker._worker.pid
    os.kill(killed, signal.SIGKILL)
    # the send finds the worker gone or its reply never comes: this
    # process runs the direction, and the next layer forks a new worker
    got, _ = forward(params, cfg, xs, keep_cache=False)
    assert same_arrays(got, want)
    with pytest.raises(ChildProcessError):
        os.waitpid(killed, os.WNOHANG)
    fresh = worker._worker.pid
    assert fresh != killed
    got, _ = forward(params, cfg, xs, keep_cache=False)
    assert same_arrays(got, want)
    assert worker._worker.pid == fresh


def test_a_dead_worker_is_found_by_the_next_request(dispatches, in_process):
    # nothing polls the worker: the send to a dead one fails (no reader
    # is left) or its reply ends early, this process runs the direction
    # and reaps the worker, and only the pass after forks a new one
    rng = np.random.default_rng(86)
    cfg = small_config()
    params = init_params(cfg, rng)
    xs = [rng.normal(size=(worker.FORK_MIN_TOKENS + 5, DIM))]
    want, _ = in_process(lambda: forward(params, cfg, xs, keep_cache=False))
    forward(params, cfg, xs, keep_cache=False)
    dead = worker._worker.pid
    os.kill(dead, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while not gone_or_zombie(dead):
        assert time.monotonic() < deadline
        time.sleep(0.01)
    got, _ = forward(params, cfg, xs, keep_cache=False)
    assert same_arrays(got, want)
    assert worker._worker is None
    with pytest.raises(ChildProcessError):
        os.waitpid(dead, os.WNOHANG)
    got, _ = forward(params, cfg, xs, keep_cache=False)
    assert same_arrays(got, want)
    assert worker._worker.pid != dead


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts this process's fds in /proc")
def test_a_failed_channel_leaves_no_fd_open(dispatches, monkeypatch,
                                            in_process):
    rng = np.random.default_rng(87)
    cfg = small_config()
    params = init_params(cfg, rng)
    xs = [rng.normal(size=(worker.FORK_MIN_TOKENS + 5, DIM))]
    want, _ = in_process(lambda: forward(params, cfg, xs, keep_cache=False))
    calls = []

    def fails(*args):
        calls.append(None)
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    before = len(os.listdir("/proc/self/fd"))
    # the worker's socket pair fails: no fork, and this process runs the
    # direction
    with monkeypatch.context() as mp:
        mp.setattr(socket, "socketpair", fails)
        mp.setattr(os, "fork", lambda: pytest.fail("forked a worker"))
        got, _ = forward(params, cfg, xs, keep_cache=False)
    assert len(os.listdir("/proc/self/fd")) == before
    assert len(calls) == 1
    assert not dispatches
    assert worker._worker is None
    assert same_arrays(got, want)
    # the socket pair is made and the fork fails: both ends are closed
    monkeypatch.setattr(os, "fork", fails)
    got, _ = forward(params, cfg, xs, keep_cache=False)
    assert len(os.listdir("/proc/self/fd")) == before
    assert len(calls) == 2
    assert not dispatches
    assert worker._worker is None
    assert same_arrays(got, want)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="reads the worker's fds in /proc")
def test_the_worker_holds_one_fd_besides_0_to_2(dispatches):
    # requests and replies share the worker's one end of a socket pair
    rng = np.random.default_rng(89)
    cfg = small_config()
    params = init_params(cfg, rng)
    xs = [rng.normal(size=(worker.FORK_MIN_TOKENS + 5, DIM))]
    forward(params, cfg, xs, keep_cache=False)
    assert len(dispatches) == 1
    fds = set(os.listdir(f"/proc/{worker._worker.pid}/fd")) - {"0", "1", "2"}
    assert len(fds) == 1


def test_failed_child_makes_the_parent_run_the_direction(dispatches,
                                                         monkeypatch,
                                                         in_process):
    rng = np.random.default_rng(81)
    cfg = small_config(extra_layers=1)
    params = init_params(cfg, rng)
    xs = [rng.normal(size=(n, DIM)) for n in (worker.FORK_MIN_TOKENS + 5, 9)]
    want, _ = in_process(lambda: forward(params, cfg, xs, keep_cache=False))
    parent = os.getpid()
    step = encoder.tape_step

    def fails_in_child(state, t):
        if os.getpid() != parent:
            raise RuntimeError("child failed")
        step(state, t)

    # a worker keeps the code it was forked with: each layer's worker,
    # forked under the patch, fails mid-call
    with monkeypatch.context() as mp:
        mp.setattr(encoder, "tape_step", fails_in_child)
        got, _ = forward(params, cfg, xs, keep_cache=False)
        assert len(dispatches) == 2
        assert same_arrays(got, want)
        assert worker._worker is None

    def backward_fails(state, t):
        # the worker's weights are views it makes of the region, not the
        # model's own arrays: every direction but layer 0's forward one
        # fails, and the pass stops in layer 0
        if state.wh is not params["enc0.fwd.attn.wh"]:
            raise RuntimeError("backward direction failed")
        step(state, t)

    # the worker fails, the parent runs the direction and meets the error
    with monkeypatch.context() as mp:
        mp.setattr(encoder, "tape_step", backward_fails)
        with pytest.raises(RuntimeError, match="backward direction failed"):
            forward(params, cfg, xs, keep_cache=False)
        assert len(dispatches) == 3
        assert worker._worker is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # a fresh worker, forked with the plain code, runs both layers
    got, _ = forward(params, cfg, xs, keep_cache=False)
    assert same_arrays(got, want)
    assert len(dispatches) == 5
    assert set(dispatches[3:]) == {worker._worker.pid}


def test_error_in_the_parent_direction_leaves_no_child(dispatches, monkeypatch):
    rng = np.random.default_rng(82)
    cfg = small_config()
    params = init_params(cfg, rng)
    xs = [rng.normal(size=(4 * worker.FORK_MIN_TOKENS, DIM))]
    step = encoder.tape_step

    def forward_fails(state, t):
        if state.wh is params["enc0.fwd.attn.wh"] and t == 1:
            raise RuntimeError("forward direction failed")
        step(state, t)

    monkeypatch.setattr(encoder, "tape_step", forward_fails)
    with pytest.raises(RuntimeError, match="forward direction failed"):
        forward(params, cfg, xs, keep_cache=False)
    assert len(dispatches) == 1
    # the worker, busy with a reply no call will read, is gone
    assert worker._worker is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_child_neither_uses_nor_kills_the_parent_worker(dispatches,
                                                               in_process):
    rng = np.random.default_rng(85)
    cfg = small_config()
    params = init_params(cfg, rng)
    xs = [rng.normal(size=(worker.FORK_MIN_TOKENS + 5, DIM))]
    want, _ = in_process(lambda: forward(params, cfg, xs, keep_cache=False))
    forward(params, cfg, xs, keep_cache=False)
    parents = worker._worker.pid
    child = os.fork()
    if child == 0:
        status = 1
        try:
            # the child forgot the parent's worker, forks one of its
            # own for the same weights drawn into its own region, and
            # stops it, as a process's exit would
            forgot = worker._worker is None
            drawn = init_params(cfg, np.random.default_rng(85))
            got, _ = forward(drawn, cfg, xs, keep_cache=False)
            own = worker._worker.pid
            worker.close_worker()
            if forgot and own != parents and same_arrays(got, want):
                status = 0
        finally:
            os._exit(status)
    assert os.waitpid(child, 0)[1] == 0
    assert os.waitpid(parents, os.WNOHANG) == (0, 0)
    got, _ = forward(params, cfg, xs, keep_cache=False)
    assert same_arrays(got, want)
    assert dispatches[-1] == worker._worker.pid == parents


def test_no_fork_while_another_thread_runs(dispatches):
    # a thread could hold a lock at the worker's fork, or send the
    # worker a request of its own
    rng = np.random.default_rng(83)
    cfg = small_config()
    params = init_params(cfg, rng)
    xs = [rng.normal(size=(worker.FORK_MIN_TOKENS + 5, DIM))]
    want, _ = forward(params, cfg, xs, keep_cache=False)
    assert len(dispatches) == 1
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        got, _ = forward(params, cfg, xs, keep_cache=False)
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert len(dispatches) == 1
    assert np.array_equal(got[0], want[0])
    # nor does a second thread's own call while this one waits
    results = []
    second = threading.Thread(
        target=lambda: results.append(forward(params, cfg, xs, keep_cache=False)))
    second.start()
    second.join(timeout=60)
    assert not second.is_alive()
    assert len(dispatches) == 1
    assert np.array_equal(results[0][0][0], want[0])


def test_a_request_carries_no_name(dispatches, monkeypatch, in_process):
    # a request is int64 (a, h, d, memory span, B), the six weights'
    # offsets and the B lengths, then the input rows: it does not name
    # the direction it asks for
    rng = np.random.default_rng(87)
    cfg = small_config()
    params = init_params(cfg, rng)
    xs = [rng.normal(size=(n, DIM)) for n in (worker.FORK_MIN_TOKENS + 5, 3, 1)]
    want, _ = in_process(lambda: forward(params, cfg, xs, keep_cache=False))
    writes = counted_writes(monkeypatch)
    got, _ = forward(params, cfg, xs, keep_cache=False)
    assert same_arrays(got, want)
    assert len(dispatches) == 1
    assert writes == [(worker._worker.channel,
                       8 * (5 + 6 + len(xs)) + 8 * sum(x.size for x in xs))]
