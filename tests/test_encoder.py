import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from attnseg import encoder, model
from attnseg.corpus import load_toy_corpus
from attnseg.encoder import (
    AttentionParams, CellParams, DirectionState, attend, backward,
    direction_view, dropout_mask, forward, init_params, tape_step,
)
from attnseg.model import Segmenter, TrainConfig
from attnseg.numerics import ShapeError, grad_check
from oracles import (
    lstm_step_reference, lstmn_backward_unrolled, lstmn_unrolled, sentence_cache,
    sentence_rows,
)

HID, ATT, DIM = 5, 4, 6
# hidden = attention = 150, emb 100, window 3: 300-wide input rows
PAPER_DIMS = dict(emb_dim=100, window=3, hidden=150, attn_dim=150)


def random_direction_params(rng, hidden=HID, attn=ATT, dim=DIM, scale=0.5):
    a = AttentionParams(
        wh=rng.normal(scale=scale, size=(attn, hidden)),
        wx=rng.normal(scale=scale, size=(attn, dim)),
        wp=rng.normal(scale=scale, size=(attn, hidden)),
        v=rng.normal(scale=scale, size=attn),
    )
    c = CellParams(
        w=rng.normal(scale=scale, size=(4 * hidden, hidden + dim)),
        b=rng.normal(scale=scale, size=4 * hidden),
    )
    return a, c


def small_config(**kw):
    """A TrainConfig whose encoder reads DIM-wide rows: one embedding
    of DIM per position, no bigrams."""
    args = dict(emb_dim=DIM, window=1, hidden=HID, attn_dim=ATT)
    args.update(kw)
    return TrainConfig(**args)


def step_after(x, hs, cs, summary, attn, cell):
    """tape_step at t = len(hs) over the tape entries (hs, cs), with
    `summary` as the previous step's h~ and the step's rows kept.
    Returns (h_t, c_t, step), step holding the attention weights and
    both summaries."""
    t = len(hs)
    hidden = cell.b.shape[0] // 4
    inputs = np.zeros((t + 1, x.shape[0]))
    inputs[t] = x
    # a batch of one sentence; rows views its arrays
    batch = DirectionState.start([inputs], attn, cell, keep_steps=True)
    rows = sentence_rows(batch, 0)
    for i in range(t):
        rows.tape[i] = np.concatenate((hs[i], cs[i]))
        rows.tape_wh[i] = attn.wh @ hs[i]
    if t:
        rows.gate_in[t - 1, :hidden] = summary
    with np.errstate(over="ignore"):
        tape_step(batch, t, attn, cell)
    rows = sentence_rows(batch, 0, attn)
    step = SimpleNamespace(
        weights=rows.weights[t],
        h_summary=rows.gate_in[t, :hidden],
        c_summary=rows.summary[t, hidden:],
    )
    return rows.tape[t, :hidden], rows.tape[t, hidden:], step


def random_tapes(rng, t):
    """Hidden tape, memory tape and previous summary of length-t history."""
    hs = [rng.normal(size=HID) for _ in range(t)]
    cs = [rng.normal(size=HID) for _ in range(t)]
    return hs, cs, rng.normal(size=HID)


def test_attention_weights_empty_at_first_step():
    rng = np.random.default_rng(30)
    attn, cell = random_direction_params(rng)
    x = rng.normal(size=DIM)
    _, _, cache = step_after(x, [], [], np.zeros(HID), attn, cell)
    assert cache.weights.shape == (0,)


def test_attention_weights_singleton_is_one():
    rng = np.random.default_rng(31)
    attn, cell = random_direction_params(rng)
    hs, cs, summary = random_tapes(rng, 1)
    _, _, cache = step_after(rng.normal(size=DIM), hs, cs, summary, attn, cell)
    assert np.array_equal(cache.weights, [1.0])


def test_attention_weights_zero_v_is_uniform():
    rng = np.random.default_rng(32)
    attn, cell = random_direction_params(rng)
    attn.v[:] = 0.0
    hs, cs, summary = random_tapes(rng, 4)
    _, _, cache = step_after(rng.normal(size=DIM), hs, cs, summary, attn, cell)
    assert np.allclose(cache.weights, 0.25, atol=1e-15)


def test_attention_weights_normalized():
    rng = np.random.default_rng(33)
    for _ in range(100):
        attn, cell = random_direction_params(rng)
        t = int(rng.integers(2, 8))
        hs, cs, summary = random_tapes(rng, t)
        _, _, cache = step_after(rng.normal(size=DIM), hs, cs, summary,
                                attn, cell)
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
    attn, cell = random_direction_params(rng)
    _, _, cache = step_after(rng.normal(size=DIM), [], [], np.zeros(HID),
                            attn, cell)
    assert np.array_equal(cache.h_summary, np.zeros(HID))
    assert np.array_equal(cache.c_summary, np.zeros(HID))


def test_summarize_one_hot_selects():
    # a saturated score gap underflows every other weight to exactly 0
    rng = np.random.default_rng(35)
    attn, cell = random_direction_params(rng)
    attn.wh[:] = 0.0
    attn.wh[0, 0] = 1.0
    attn.wx[:] = 0.0
    attn.wp[:] = 0.0
    attn.v[:] = 0.0
    attn.v[0] = 1e4
    hs, cs, summary = random_tapes(rng, 3)
    for i, sign in enumerate((-3.0, 3.0, -3.0)):
        hs[i][0] = sign
    _, _, cache = step_after(rng.normal(size=DIM), hs, cs, summary, attn, cell)
    assert np.array_equal(cache.weights, [0.0, 1.0, 0.0])
    assert np.array_equal(cache.h_summary, hs[1])
    assert np.array_equal(cache.c_summary, cs[1])


def test_summarize_uniform_is_mean():
    rng = np.random.default_rng(36)
    attn, cell = random_direction_params(rng)
    attn.v[:] = 0.0
    hs, cs, summary = random_tapes(rng, 2)
    _, _, cache = step_after(rng.normal(size=DIM), hs, cs, summary, attn, cell)
    assert np.allclose(cache.h_summary, (hs[0] + hs[1]) / 2.0, atol=1e-15)
    assert np.allclose(cache.c_summary, (cs[0] + cs[1]) / 2.0, atol=1e-15)


def test_lstmn_step_all_zero_parameters():
    attn = AttentionParams(wh=np.zeros((ATT, HID)), wx=np.zeros((ATT, DIM)),
                           wp=np.zeros((ATT, HID)), v=np.zeros(ATT))
    cell = CellParams(w=np.zeros((4 * HID, HID + DIM)), b=np.zeros(4 * HID))
    rng = np.random.default_rng(37)
    hs, cs, summary = random_tapes(rng, 3)
    h, c, _ = step_after(rng.normal(size=DIM), hs, cs, summary, attn, cell)
    c_summary = (cs[0] + cs[1] + cs[2]) / 3.0
    assert np.allclose(c, 0.5 * c_summary, atol=1e-15)
    assert np.allclose(h, 0.5 * np.tanh(c), atol=1e-15)


def test_lstmn_step_singleton_reduces_to_plain_lstm():
    rng = np.random.default_rng(38)
    for _ in range(50):
        attn, cell = random_direction_params(rng)
        h1 = rng.normal(size=HID)
        c1 = rng.normal(size=HID)
        summary = rng.normal(size=HID)
        x = rng.normal(size=DIM)
        h, c, _ = step_after(x, [h1], [c1], summary, attn, cell)
        h_ref, c_ref = lstm_step_reference(x, h1, c1, cell.w, cell.b)
        assert np.array_equal(h, h_ref)
        assert np.array_equal(c, c_ref)


def test_lstmn_step_matches_straight_line_unrolling():
    rng = np.random.default_rng(39)
    for _ in range(30):
        attn, cell = random_direction_params(rng)
        n = int(rng.integers(1, 7))
        inputs = [rng.normal(size=DIM) for _ in range(n)]
        tape_h, tape_c, summary = [], [], np.zeros(HID)
        for x in inputs:
            h, c, cache = step_after(x, tape_h, tape_c, summary, attn, cell)
            tape_h.append(h)
            tape_c.append(c)
            summary = cache.h_summary
        want = lstmn_unrolled(inputs, attn.wh, attn.wx, attn.wp, attn.v,
                              cell.w, cell.b)
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
            attn, cell = direction_view(params, 0, direction)
            want = lstmn_unrolled(list(rows), attn.wh, attn.wx, attn.wp,
                                  attn.v, cell.w, cell.b, memory_span=span)
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
            attn, cell = direction_view(params, layer, direction)
            want = lstmn_unrolled(list(inputs), attn.wh, attn.wx, attn.wp,
                                  attn.v, cell.w, cell.b, memory_span=span)
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
    for direction_cache in sentence_cache(cache, 0, params).layer_caches[0]:
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
    whole = model.param_shapes(cfg, len(seg.vocab),
                               len(seg.bigram_vocab) if bigrams else None)
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
    grads, (d_x,) = backward(seg.params, cache, [np.ones(out.shape)])
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
    attn_f, cell_f = direction_view(params, 0, "fwd")
    attn_b, cell_b = direction_view(params, 0, "bwd")
    hf, _, _ = step_after(x[0], [], [], np.zeros(HID), attn_f, cell_f)
    hb, _, _ = step_after(x[0], [], [], np.zeros(HID), attn_b, cell_b)
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
    attn_f, cell_f = direction_view(params, 0, "fwd")
    stepped = lstmn_unrolled([x[t] for t in range(6)], attn_f.wh, attn_f.wx,
                             attn_f.wp, attn_f.v, cell_f.w, cell_f.b,
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
        backward(params, None, [np.zeros((2, 4))])


def test_backward_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(57)
    cfg = small_config()
    params = init_params(cfg, rng)
    x = rng.normal(size=(3, DIM))
    _, cache = forward(params, cfg, [x])
    grads, (d_x,) = backward(params, cache, [np.zeros((3, 4))])
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
    grads, (d_x,) = backward(params, cache, [weight])
    point = np.concatenate([params[k].ravel() for k in names] + [x.ravel()])
    analytic = np.concatenate([grads[k].ravel() for k in names] + [d_x.ravel()])
    return grad_check(f, analytic, point)


def test_backward_matches_finite_differences():
    assert encoder_gradcheck() < 1e-3


def test_backward_matches_finite_differences_stacked():
    assert encoder_gradcheck(extra_layers=1, seed=59) < 1e-3


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
        grads, (d_x,) = backward(params, cache, [d_emissions])
        want, want_d_x = lstmn_backward_unrolled(
            params, 1 + cfg.extra_layers, cache, d_emissions
        )
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
        got_cache = sentence_cache(cache, s, params)
        want_layers = sentence_cache(want_cache, 0, params).layer_caches
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
    grads, d_inputs = backward(params, cache, d_emissions)
    one_rng = np.random.default_rng(4)
    sums = {k: np.zeros_like(p) for k, p in params.items()}
    for s, x in enumerate(xs):
        _, one_cache = forward(params, cfg, [x], dropout=dropout, rng=one_rng)
        one_grads, (one_d_x,) = backward(params, one_cache, [d_emissions[s]])
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

    def recording_attend(state, t, attn):
        pre_tanh, weights = attend(state, t, attn)
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
    backward(params, cache, d_emissions)
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
            backward(params, cache, [d_emissions[:n]])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)
    assert peak(400) < 2.5 * peak(200)


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
                attn, cell = direction_view(params, layer, direction)
                want = lstmn_unrolled(list(inputs), attn.wh, attn.wx, attn.wp,
                                      attn.v, cell.w, cell.b,
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
    fresh, _ = backward(params, cache, d_emissions)
    into = {k: np.zeros_like(p) for k, p in params.items()}
    got, _ = backward(params, cache, d_emissions, into)
    assert got is into
    for k in fresh:
        assert np.array_equal(got[k], fresh[k])
    # one sentence's gradient lands on what the dict already holds
    _, one_cache = forward(params, cfg, [xs[0]])
    one, _ = backward(params, one_cache, [d_emissions[0]])
    backward(params, one_cache, [d_emissions[0]], into)
    for k in fresh:
        assert np.array_equal(into[k], fresh[k] + one[k])


def test_backward_needs_one_gradient_per_sentence():
    cfg, params, xs = batch_case({}, None, 0, [3, 2], 72)
    _, cache = forward(params, cfg, xs)
    with pytest.raises(ValueError):
        backward(params, cache, [np.zeros((3, 4))])


def test_batch_state_rejects_unsorted_lengths():
    rng = np.random.default_rng(73)
    attn, cell = random_direction_params(rng)
    with pytest.raises(ValueError):
        DirectionState.start([np.zeros((2, DIM)), np.zeros((3, DIM))],
                             attn, cell, keep_steps=True)
