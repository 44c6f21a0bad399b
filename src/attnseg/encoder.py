"""Attention-tape LSTM encoder with per-tag output scores.

Instead of a single recurrent cell state, each direction keeps a hidden
tape H = (h_1 .. h_t) and a memory tape C = (c_1 .. c_t), one entry per
token seen so far.  At step t an attention layer scores every previous
tape entry against the current input,

    a_i = v . tanh(Wh h_i + Wx x_t + Wp p_{t-1})        (p = last summary)
    s   = softmax(a)

the weights form adaptive summaries h~ = sum s_i h_i, c~ = sum s_i c_i,
and the usual gate block runs on [h~, x_t]:

    (i, f, o) = sigmoid, chat = tanh  of  W [h~, x_t] + b
    c_t = f * c~ + i * chat
    h_t = o * tanh(c_t)

With exactly one tape entry this collapses to a standard LSTM update.
Both directions are stacked bidirectionally; extra layers consume the
concatenated (forward, backward) hidden vectors of the layer below, and
the top layer projects to per-tag emission scores

    y_t = Wf hf_t + Wb hb_t + b_y.

Tapes reset to empty for every sentence.  The backward pass is written
by hand (gradients flow through the attention weights, the summaries and
the tapes) and is verified against central finite differences.

Cost.  Wh h_i does not depend on t, so it is computed once, when h_i
enters the tape, and Wx x_t + Wp p_{t-1} once per step; a step then
costs O(a·h) of matrix-vector work plus O(w·a) for its window of w
entries, and a sentence of n tokens O(n·a·h + n²·a) per direction
(rather than O(n²·a·h)).  The backward pass sums the tape term of every
later step's attention gradient per entry before multiplying by Wh^T,
for the same bound.  Training keeps each step's (w, a) activations for
backward; decoding runs the same loop with keep_cache=False, keeps no
step caches, and so holds O(n·(h + a)) memory.
"""

from dataclasses import dataclass, field

import numpy as np

from .numerics import ShapeError, sigmoid, softmax


@dataclass
class EncoderConfig:
    input_dim: int
    hidden_dim: int
    attn_dim: int
    num_tags: int = 4
    extra_layers: int = 0
    memory_span: int = None

    def __post_init__(self):
        if self.extra_layers not in (0, 1, 2):
            raise ValueError(f"extra_layers must be 0, 1 or 2, got {self.extra_layers}")
        if self.memory_span is not None and self.memory_span < 1:
            raise ValueError(f"memory_span must be >= 1, got {self.memory_span}")

    @property
    def num_layers(self):
        return 1 + self.extra_layers

    def layer_input_dim(self, layer):
        return self.input_dim if layer == 0 else 2 * self.hidden_dim


@dataclass
class AttentionParams:
    """Weights of the attention layer: tape term, input term, previous-
    summary term, and the scoring vector."""

    wh: np.ndarray
    wx: np.ndarray
    wp: np.ndarray
    v: np.ndarray


@dataclass
class CellParams:
    """Gate block producing (i, f, o, chat) from [summary, input]."""

    w: np.ndarray
    b: np.ndarray


def _glorot(rng, rows, cols):
    r = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-r, r, size=(rows, cols))


def init_params(config, rng):
    """Fresh encoder parameters, uniform in +-sqrt(6/(fan_in+fan_out)).

    Forget-gate biases start at 1.0, all other biases at 0.  Keys follow
    the ``enc{layer}.{fwd|bwd}.`` naming used across training and
    serialization.
    """
    h, a, k = config.hidden_dim, config.attn_dim, config.num_tags
    params = {}
    for layer in range(config.num_layers):
        d = config.layer_input_dim(layer)
        for direction in ("fwd", "bwd"):
            prefix = f"enc{layer}.{direction}."
            params[prefix + "attn.wh"] = _glorot(rng, a, h)
            params[prefix + "attn.wx"] = _glorot(rng, a, d)
            params[prefix + "attn.wp"] = _glorot(rng, a, h)
            params[prefix + "attn.v"] = _glorot(rng, a, 1)[:, 0]
            params[prefix + "cell.w"] = _glorot(rng, 4 * h, h + d)
            bias = np.zeros(4 * h)
            bias[h:2 * h] = 1.0
            params[prefix + "cell.b"] = bias
    params["out.wf"] = _glorot(rng, k, h)
    params["out.wb"] = _glorot(rng, k, h)
    params["out.b"] = np.zeros(k)
    return params


def direction_view(params, layer, direction):
    """(AttentionParams, CellParams) views into the parameter dict."""
    prefix = f"enc{layer}.{direction}."
    attn = AttentionParams(
        wh=params[prefix + "attn.wh"],
        wx=params[prefix + "attn.wx"],
        wp=params[prefix + "attn.wp"],
        v=params[prefix + "attn.v"],
    )
    cell = CellParams(w=params[prefix + "cell.w"], b=params[prefix + "cell.b"])
    return attn, cell


def dropout_mask(shape, p, rng):
    """Inverted-dropout mask: 0 with probability p, else 1/(1-p).

    Scaling at train time keeps the expectation at 1, so evaluation
    applies no mask at all.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return np.ones(shape)
    return (rng.random(shape) >= p) / (1.0 - p)


@dataclass
class _StepCache:
    x: np.ndarray
    window_start: int
    weights: np.ndarray
    pre_tanh: np.ndarray
    prev_summary: np.ndarray
    h_summary: np.ndarray
    c_summary: np.ndarray
    gate_i: np.ndarray
    gate_f: np.ndarray
    gate_o: np.ndarray
    candidate: np.ndarray
    tanh_c: np.ndarray


def tape_step(x_t, tape_h, tape_c, window_start, prev_summary, attn, cell,
              tape_wh=None):
    """One recurrent step over the tape entries from `window_start` on.

    `tape_wh[i]` is `attn.wh @ tape_h[i]`: the sentence loop computes it
    once, when entry i enters the tape, and this step computes it for
    the window when it is not given.  Returns (h_t, c_t, cache);
    cache.weights are the attention weights over the window and
    cache.pre_tanh the (window, attn_dim) attention activations.  The
    caller owns the tapes: it appends h_t and c_t, and passes
    cache.h_summary as the next prev_summary.
    """
    hidden = prev_summary.shape[0]
    window_h = np.asarray(tape_h[window_start:]).reshape(-1, hidden)
    window_c = np.asarray(tape_c[window_start:]).reshape(-1, hidden)
    if tape_wh is None:
        window_wh = np.array([attn.wh @ h for h in window_h]).reshape(
            -1, attn.wh.shape[0])
    else:
        window_wh = tape_wh[window_start:]
    # (Wh h_i + Wx x_t) + Wp p in the oracle's order, so tapes stay bit-equal
    pre_tanh = window_wh + attn.wx @ x_t
    pre_tanh += attn.wp @ prev_summary
    np.tanh(pre_tanh, out=pre_tanh)
    # vecdot takes one dot product per row, like v @ u; pre_tanh @ v
    # (a matrix-vector product) rounds differently
    weights = softmax(np.vecdot(pre_tanh, attn.v))
    h_summary = (weights[:, None] * window_h).sum(axis=0)
    c_summary = (weights[:, None] * window_c).sum(axis=0)
    z = cell.w @ np.concatenate((h_summary, x_t)) + cell.b
    gate_i = sigmoid(z[:hidden])
    gate_f = sigmoid(z[hidden:2 * hidden])
    gate_o = sigmoid(z[2 * hidden:3 * hidden])
    candidate = np.tanh(z[3 * hidden:])
    c_t = gate_f * c_summary + gate_i * candidate
    tanh_c = np.tanh(c_t)
    h_t = gate_o * tanh_c
    cache = _StepCache(
        x=x_t, window_start=window_start, weights=weights, pre_tanh=pre_tanh,
        prev_summary=prev_summary, h_summary=h_summary, c_summary=c_summary,
        gate_i=gate_i, gate_f=gate_f, gate_o=gate_o, candidate=candidate,
        tanh_c=tanh_c,
    )
    return h_t, c_t, cache


@dataclass
class _DirectionCache:
    inputs: np.ndarray
    tape_h: np.ndarray
    tape_c: np.ndarray
    steps: list


def _direction_forward(inputs, attn, cell, memory_span, keep_steps):
    """Run one direction over `inputs` (n, d); the tapes are (n, hidden)
    arrays.  Step caches are kept only when `keep_steps` is true, so a
    pass that needs no gradients holds O(n) memory, not O(n^2)."""
    n = inputs.shape[0]
    hidden = cell.b.shape[0] // 4
    tape_h = np.empty((n, hidden))
    tape_c = np.empty((n, hidden))
    tape_wh = np.empty((n, attn.wh.shape[0]))
    prev_summary = np.zeros(hidden)
    steps = []
    for t in range(n):
        window_start = 0 if memory_span is None else max(0, t - memory_span)
        h_t, c_t, cache = tape_step(
            inputs[t], tape_h[:t], tape_c[:t], window_start, prev_summary,
            attn, cell, tape_wh[:t],
        )
        if keep_steps:
            steps.append(cache)
        tape_h[t] = h_t
        tape_c[t] = c_t
        tape_wh[t] = attn.wh @ h_t
        prev_summary = cache.h_summary
    return _DirectionCache(inputs=inputs, tape_h=tape_h, tape_c=tape_c, steps=steps)


def _direction_backward(cache, attn, cell, d_hidden_out):
    """Gradients of one direction, given d loss / d h_t for every t.

    The tape term of the attention pre-activation is accumulated per
    tape entry, D[i] = sum over later steps t of d pre[t, i], and is
    complete when reverse time reaches step i: then Wh^T D[i] joins
    d h_i, and after the loop g_wh = D^T H is one matrix product.
    Likewise the gate and attention input weights take their gradients
    from per-step rows stacked over the sentence.
    """
    n = len(cache.steps)
    hidden = cell.b.shape[0] // 4
    tape_h, tape_c = cache.tape_h, cache.tape_c
    d_tape_h = np.array(d_hidden_out, dtype=np.float64)
    d_tape_c = np.zeros((n, hidden))
    d_tape_wh = np.zeros((n, attn.wh.shape[0]))
    d_z = np.zeros((n, 4 * hidden))
    d_pre_sums = np.zeros((n, attn.wh.shape[0]))
    g_v = np.zeros_like(attn.v)
    w_summary = cell.w[:, :hidden]
    # d loss / d h_summary[t] through step t + 1's Wp p term
    d_summary = np.zeros(hidden)
    for t in range(n - 1, -1, -1):
        st = cache.steps[t]
        dh = d_tape_h[t] + attn.wh.T @ d_tape_wh[t]
        dc = d_tape_c[t]
        # h = o * tanh(c)
        d_o = dh * st.tanh_c
        dc = dc + dh * st.gate_o * (1.0 - st.tanh_c ** 2)
        # c = f * c_summary + i * candidate
        d_f = dc * st.c_summary
        d_c_summary = dc * st.gate_f
        d_i = dc * st.candidate
        d_candidate = dc * st.gate_i
        dz = d_z[t]
        dz[:hidden] = d_i * st.gate_i * (1.0 - st.gate_i)
        dz[hidden:2 * hidden] = d_f * st.gate_f * (1.0 - st.gate_f)
        dz[2 * hidden:3 * hidden] = d_o * st.gate_o * (1.0 - st.gate_o)
        dz[3 * hidden:] = d_candidate * (1.0 - st.candidate ** 2)
        d_h_summary = w_summary.T @ dz + d_summary
        weights = st.weights
        if weights.shape[0]:
            # summaries -> tape entries and attention weights
            window = slice(st.window_start, t)
            d_weights = tape_h[window] @ d_h_summary + tape_c[window] @ d_c_summary
            d_tape_h[window] += weights[:, None] * d_h_summary
            d_tape_c[window] += weights[:, None] * d_c_summary
            d_scores = weights * (d_weights - weights @ d_weights)
            g_v += d_scores @ st.pre_tanh
            d_pre = (d_scores[:, None] * attn.v) * (1.0 - st.pre_tanh ** 2)
            d_tape_wh[window] += d_pre
            d_pre_sums[t] = d_pre.sum(axis=0)
        # an empty window leaves d_pre_sums[t] zero: both summaries are
        # constant zero vectors
        d_summary = attn.wp.T @ d_pre_sums[t]
    h_summaries = np.array([st.h_summary for st in cache.steps])
    prev_summaries = np.array([st.prev_summary for st in cache.steps])
    d_inputs = d_z @ cell.w[:, hidden:] + d_pre_sums @ attn.wx
    grads = {
        "attn.wh": d_tape_wh.T @ tape_h,
        "attn.wx": d_pre_sums.T @ cache.inputs,
        "attn.wp": d_pre_sums.T @ prev_summaries,
        "attn.v": g_v,
        "cell.w": d_z.T @ np.hstack((h_summaries, cache.inputs)),
        "cell.b": d_z.sum(axis=0),
    }
    return grads, d_inputs


@dataclass
class ForwardCache:
    """Everything backward() needs from one sentence's forward pass."""

    inputs: np.ndarray
    input_mask: np.ndarray
    layer_caches: list = field(default_factory=list)
    out_mask_f: np.ndarray = None
    out_mask_b: np.ndarray = None
    top_h_f: np.ndarray = None
    top_h_b: np.ndarray = None


def forward(params, config, inputs, dropout=0.0, rng=None, keep_cache=True):
    """Emission scores (n, num_tags) for one sentence, plus the cache.

    Tapes start empty: per-sentence state isolation is structural.  With
    dropout > 0, inverted-dropout masks apply to the featurized inputs
    and to the (forward, backward) hidden vectors feeding the output
    projection; evaluation passes use dropout=0.  With keep_cache=False
    no step caches are kept and the returned cache is None: decoding
    needs no gradients, and its memory then grows linearly in n.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] == 0:
        raise ValueError(f"need a non-empty (n, input_dim) array, got {inputs.shape}")
    if inputs.shape[1] != config.input_dim:
        raise ShapeError(
            f"input dim {inputs.shape[1]} != configured {config.input_dim}"
        )
    if dropout and rng is None:
        raise ValueError("dropout needs an rng")
    n = inputs.shape[0]
    h = config.hidden_dim
    for layer in range(config.num_layers):
        d = config.layer_input_dim(layer)
        for direction in ("fwd", "bwd"):
            attn, cell = direction_view(params, layer, direction)
            if attn.wx.shape[1] != d:
                raise ShapeError(
                    f"enc{layer}.{direction}: input of length {d} vs "
                    f"attention expecting {attn.wx.shape[1]}"
                )
            if cell.w.shape != (4 * h, h + d):
                raise ShapeError(
                    f"enc{layer}.{direction}: cell weights {cell.w.shape} do "
                    f"not match hidden {h} and input {d}"
                )

    input_mask = dropout_mask(inputs.shape, dropout, rng) if dropout else None
    current = inputs * input_mask if dropout else inputs

    cache = ForwardCache(inputs=inputs, input_mask=input_mask)
    for layer in range(config.num_layers):
        attn_f, cell_f = direction_view(params, layer, "fwd")
        attn_b, cell_b = direction_view(params, layer, "bwd")
        cache_f = _direction_forward(
            current, attn_f, cell_f, config.memory_span, keep_cache
        )
        cache_b = _direction_forward(
            current[::-1], attn_b, cell_b, config.memory_span, keep_cache
        )
        cache.layer_caches.append((cache_f, cache_b))
        h_f = cache_f.tape_h
        h_b = cache_b.tape_h[::-1]
        if layer + 1 < config.num_layers:
            current = np.concatenate((h_f, h_b), axis=1)

    if dropout:
        cache.out_mask_f = dropout_mask((n, h), dropout, rng)
        cache.out_mask_b = dropout_mask((n, h), dropout, rng)
        h_f = h_f * cache.out_mask_f
        h_b = h_b * cache.out_mask_b
    cache.top_h_f = h_f
    cache.top_h_b = h_b

    wf, wb, b = params["out.wf"], params["out.wb"], params["out.b"]
    emissions = np.empty((n, config.num_tags))
    for t in range(n):
        emissions[t] = wf @ h_f[t] + wb @ h_b[t] + b
    return emissions, (cache if keep_cache else None)


def backward(params, config, cache, d_emissions):
    """Gradients of a scalar loss through the cached forward pass.

    Returns (grads, d_inputs): grads maps every encoder parameter name to
    its gradient; d_inputs is the gradient with respect to the original
    featurized inputs (for the embedding tables).
    """
    if cache is None or not cache.layer_caches:
        raise ValueError("backward called without a cached forward pass")
    d_emissions = np.asarray(d_emissions, dtype=np.float64)
    h = config.hidden_dim
    wf, wb = params["out.wf"], params["out.wb"]

    grads = {
        "out.wf": d_emissions.T @ cache.top_h_f,
        "out.wb": d_emissions.T @ cache.top_h_b,
        "out.b": d_emissions.sum(axis=0),
    }
    d_h_f = d_emissions @ wf
    d_h_b = d_emissions @ wb
    if cache.out_mask_f is not None:
        d_h_f = d_h_f * cache.out_mask_f
        d_h_b = d_h_b * cache.out_mask_b

    for layer in range(config.num_layers - 1, -1, -1):
        attn_f, cell_f = direction_view(params, layer, "fwd")
        attn_b, cell_b = direction_view(params, layer, "bwd")
        cache_f, cache_b = cache.layer_caches[layer]
        grads_f, d_in_f = _direction_backward(cache_f, attn_f, cell_f, d_h_f)
        grads_b, d_in_b_rev = _direction_backward(
            cache_b, attn_b, cell_b, d_h_b[::-1]
        )
        for name, g in grads_f.items():
            grads[f"enc{layer}.fwd.{name}"] = g
        for name, g in grads_b.items():
            grads[f"enc{layer}.bwd.{name}"] = g
        d_layer_in = d_in_f + d_in_b_rev[::-1]
        if layer > 0:
            d_h_f = d_layer_in[:, :h]
            d_h_b = d_layer_in[:, h:]

    d_inputs = d_layer_in
    if cache.input_mask is not None:
        d_inputs = d_inputs * cache.input_mask
    return grads, d_inputs
