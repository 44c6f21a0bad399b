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

State.  Each direction writes one sentence's arrays by row
(DirectionState): the tapes side by side as [h_t | c_t], Wh h_t, the
gate input [h~_t | x_t] and, when kept for backward, the gate
activations, tanh c_t and [h~_t | c~_t].  One tape_step serves training
and decoding alike.

Cost.  Wh h_i does not depend on t, so it is computed once, when h_i
enters the tape; Wx x_t is computed for every t before the first step,
one matrix-vector product per row (bit-equal to the per-step product,
which one matrix product would not be).  A step then costs three
matrix-vector products (Wp p_{t-1}, the gate block and Wh h_t), O(a·h)
work, plus O(w·a) for its window of w entries, and a sentence of n
tokens O(n·a·h + n²·a) per direction (rather than O(n²·a·h)).  At
paper dimensions the three products, the gate block's above all, take
more than half of a step's time (README, Performance); the rest is one
pass over the [h | c] window for both summaries and in-place gates,
sigmoid and softmax.  The backward pass sums the tape term
of every later step's attention gradient per entry before multiplying
by Wh^T, for the same bound.  Training keeps each step's (w, a)
activations and its gate rows for backward.  Decoding runs the same loop
with keep_cache=False: it keeps no window arrays and overwrites one
scratch row of gates, tanh c_t and summaries per step, so it holds
O(n·(h + a + d)) memory.
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


def param_shapes(config):
    """Name -> shape of every encoder parameter, in canonical order.

    Keys follow the ``enc{layer}.{fwd|bwd}.`` naming used across
    training and serialization; init_params draws them in this order and
    model loading checks saved tensors against it.
    """
    h, a, k = config.hidden_dim, config.attn_dim, config.num_tags
    shapes = {}
    for layer in range(config.num_layers):
        d = config.layer_input_dim(layer)
        for direction in ("fwd", "bwd"):
            prefix = f"enc{layer}.{direction}."
            shapes[prefix + "attn.wh"] = (a, h)
            shapes[prefix + "attn.wx"] = (a, d)
            shapes[prefix + "attn.wp"] = (a, h)
            shapes[prefix + "attn.v"] = (a,)
            shapes[prefix + "cell.w"] = (4 * h, h + d)
            shapes[prefix + "cell.b"] = (4 * h,)
    shapes["out.wf"] = (k, h)
    shapes["out.wb"] = (k, h)
    shapes["out.b"] = (k,)
    return shapes


def init_params(config, rng):
    """Fresh encoder parameters, uniform in +-sqrt(6/(fan_in+fan_out))
    (a vector counts as one column).

    Forget-gate biases start at 1.0, all other biases at 0.
    """
    h = config.hidden_dim
    params = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".b"):
            params[name] = np.zeros(shape)
            if name.endswith("cell.b"):
                params[name][h:2 * h] = 1.0
        else:
            cols = shape[1] if len(shape) == 2 else 1
            params[name] = _glorot(rng, shape[0], cols).reshape(shape)
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
class DirectionState:
    """One direction's arrays for one sentence of n tokens; step t
    writes row t of each.

        tape      (n, 2h)    [h_t | c_t]: the hidden and memory tapes
        tape_wh   (n, a)     Wh h_t, stored when h_t enters the tape
        wx_x      (n, a)     Wx x_t, for every t before the first step
        gate_in   (n, h + d) [h~_t | x_t], the gate block's input; h~_t
                             is also step t + 1's previous summary
        summary   (r, 2h)    [h~_t | c~_t]
        gates     (r, 4h)    i, f, o and chat after their activations
        tanh_c    (r, h)     tanh(c_t)

    r is n when the steps are kept for backward and 1 otherwise: a pass
    without gradients overwrites one scratch row per step.  Kept steps
    also hold their window arrays, weights[t] (w,) and pre_tanh[t]
    (w, a); both lists are None otherwise.
    """

    tape: np.ndarray
    tape_wh: np.ndarray
    wx_x: np.ndarray
    gate_in: np.ndarray
    summary: np.ndarray
    gates: np.ndarray
    tanh_c: np.ndarray
    weights: list
    pre_tanh: list

    @property
    def tape_h(self):
        return self.tape[:, :self.tape.shape[1] // 2]

    @property
    def tape_c(self):
        return self.tape[:, self.tape.shape[1] // 2:]

    @classmethod
    def start(cls, inputs, attn, cell, keep_steps):
        """Empty tapes over `inputs` (n, d), with the input rows of
        gate_in and wx_x filled in."""
        n, d = inputs.shape
        hidden = cell.b.shape[0] // 4
        attn_dim = attn.wh.shape[0]
        rows = n if keep_steps else 1
        gate_in = np.empty((n, hidden + d))
        gate_in[:, hidden:] = inputs
        return cls(
            tape=np.empty((n, 2 * hidden)),
            tape_wh=np.empty((n, attn_dim)),
            # one matrix-vector product per row, bit-equal to Wx @ x_t;
            # one matrix product (X @ Wx^T) rounds differently
            wx_x=np.matmul(attn.wx, gate_in[:, hidden:, None])[:, :, 0],
            gate_in=gate_in,
            summary=np.empty((rows, 2 * hidden)),
            gates=np.empty((rows, 4 * hidden)),
            tanh_c=np.empty((rows, hidden)),
            weights=[np.zeros(0)] * n if keep_steps else None,
            pre_tanh=[np.zeros((0, attn_dim))] * n if keep_steps else None,
        )


def tape_step(state, t, window_start, attn, cell):
    """One recurrent step over the tape rows window_start .. t-1.

    Reads x_t and Wx x_t from row t of the state and the previous
    summary from gate_in row t-1 (at t = window_start the window is
    empty and both summaries are zero), and writes h_t, c_t and Wh h_t
    into row t.  The gate sigmoid saturates through exp overflow, so the
    caller holds np.errstate(over="ignore") around its loop of steps.
    """
    hidden = cell.b.shape[0] // 4
    kept = state.weights is not None
    row = t if kept else 0
    summary = state.summary[row]
    if t > window_start:
        # (Wh h_i + Wx x_t) + Wp p in the oracle's order, so tapes stay bit-equal
        pre_tanh = state.tape_wh[window_start:t] + state.wx_x[t]
        pre_tanh += attn.wp @ state.gate_in[t - 1, :hidden]
        np.tanh(pre_tanh, out=pre_tanh)
        # vecdot takes one dot product per row, like v @ u; pre_tanh @ v
        # (a matrix-vector product) rounds differently
        scores = np.vecdot(pre_tanh, attn.v)
        weights = softmax(scores, out=scores)
        # one pass sums [h_i | c_i] rows in tape order into [h~ | c~]
        # (np.sum's reduction, without its per-call Python wrapper)
        np.add.reduce(weights[:, None] * state.tape[window_start:t], axis=0,
                      out=summary)
        if kept:
            state.weights[t] = weights
            state.pre_tanh[t] = pre_tanh
    else:
        summary[:] = 0.0
    gate_in = state.gate_in[t]
    gate_in[:hidden] = summary[:hidden]
    z = np.matmul(cell.w, gate_in, out=state.gates[row])
    z += cell.b
    sigmoid(z[:3 * hidden], out=z[:3 * hidden])
    candidate = np.tanh(z[3 * hidden:], out=z[3 * hidden:])
    # c_t = f * c~ + i * chat
    c_t = np.multiply(z[hidden:2 * hidden], summary[hidden:],
                      out=state.tape[t, hidden:])
    c_t += z[:hidden] * candidate
    tanh_c = np.tanh(c_t, out=state.tanh_c[row])
    h_t = np.multiply(z[2 * hidden:3 * hidden], tanh_c,
                      out=state.tape[t, :hidden])
    np.matmul(attn.wh, h_t, out=state.tape_wh[t])


def _direction_forward(inputs, attn, cell, memory_span, keep_steps):
    """Run one direction over `inputs` (n, d).  Step rows are kept only
    when `keep_steps` is true, so a pass that needs no gradients holds
    O(n) memory, not O(n^2)."""
    state = DirectionState.start(inputs, attn, cell, keep_steps)
    with np.errstate(over="ignore"):
        for t in range(inputs.shape[0]):
            window_start = 0 if memory_span is None else max(0, t - memory_span)
            tape_step(state, t, window_start, attn, cell)
    return state


def _direction_backward(state, attn, cell, d_hidden_out):
    """Gradients of one direction, given d loss / d h_t for every t.

    The tape term of the attention pre-activation is accumulated per
    tape entry, D[i] = sum over later steps t of d pre[t, i], and is
    complete when reverse time reaches step i: then Wh^T D[i] joins
    d h_i, and after the loop g_wh = D^T H is one matrix product.
    Likewise the gate and attention input weights take their gradients
    from per-step rows stacked over the sentence.
    """
    n = state.tape.shape[0]
    hidden = cell.b.shape[0] // 4
    tape_h, tape_c = state.tape_h, state.tape_c
    gates = state.gates
    gate_f = gates[:, hidden:2 * hidden]
    gate_o = gates[:, 2 * hidden:3 * hidden]
    candidate = gates[:, 3 * hidden:]
    # d z[t] = ((e * M[t]) * G[t]) * K[t] with e = [dc, dc, dh, dc]: per
    # gate, d i = ((dc * chat) * i) * (1 - i), d f = ((dc * c~) * f) *
    # (1 - f), d o = ((dh * tanh c) * o) * (1 - o) and d chat =
    # ((dc * i) * 1) * (1 - chat^2), each in the order of the chain rule
    m_rows = np.hstack((candidate, state.summary[:, hidden:], state.tanh_c,
                        gates[:, :hidden]))
    g_rows = gates.copy()
    g_rows[:, 3 * hidden:] = 1.0
    k_rows = 1.0 - gates
    k_rows[:, 3 * hidden:] = 1.0 - candidate ** 2
    d_tanh_c = 1.0 - state.tanh_c ** 2
    d_tape = np.zeros((n, 2 * hidden))
    d_tape[:, :hidden] = d_hidden_out
    d_tape_wh = np.zeros((n, attn.wh.shape[0]))
    d_z = np.zeros((n, 4 * hidden))
    d_pre_sums = np.zeros((n, attn.wh.shape[0]))
    g_v = np.zeros_like(attn.v)
    w_summary = cell.w[:, :hidden]
    # [d h~ | d c~] of the current step
    d_summaries = np.empty(2 * hidden)
    d_h_summary = d_summaries[:hidden]
    d_c_summary = d_summaries[hidden:]
    # d loss / d h_summary[t] through step t + 1's Wp p term
    d_summary = np.zeros(hidden)
    for t in range(n - 1, -1, -1):
        dh = d_tape[t, :hidden] + attn.wh.T @ d_tape_wh[t]
        dc = d_tape[t, hidden:] + dh * gate_o[t] * d_tanh_c[t]
        dz = d_z[t]
        e = dz.reshape(4, hidden)
        e[:2] = dc
        e[2] = dh
        e[3] = dc
        dz *= m_rows[t]
        dz *= g_rows[t]
        dz *= k_rows[t]
        np.matmul(w_summary.T, dz, out=d_h_summary)
        d_h_summary += d_summary
        np.multiply(dc, gate_f[t], out=d_c_summary)
        weights = state.weights[t]
        if weights.shape[0]:
            # summaries -> tape entries and attention weights
            window = slice(t - weights.shape[0], t)
            d_weights = tape_h[window] @ d_h_summary + tape_c[window] @ d_c_summary
            d_tape[window] += weights[:, None] * d_summaries
            d_scores = weights * (d_weights - weights @ d_weights)
            pre_tanh = state.pre_tanh[t]
            g_v += d_scores @ pre_tanh
            d_pre = (d_scores[:, None] * attn.v) * (1.0 - pre_tanh ** 2)
            d_tape_wh[window] += d_pre
            d_pre_sums[t] = d_pre.sum(axis=0)
        # an empty window leaves d_pre_sums[t] zero: both summaries are
        # constant zero vectors
        d_summary = attn.wp.T @ d_pre_sums[t]
    prev_summaries = np.zeros((n, hidden))
    prev_summaries[1:] = state.gate_in[:-1, :hidden]
    d_inputs = d_z @ cell.w[:, hidden:] + d_pre_sums @ attn.wx
    grads = {
        "attn.wh": d_tape_wh.T @ tape_h,
        "attn.wx": d_pre_sums.T @ state.gate_in[:, hidden:],
        "attn.wp": d_pre_sums.T @ prev_summaries,
        "attn.v": g_v,
        "cell.w": d_z.T @ state.gate_in,
        "cell.b": d_z.sum(axis=0),
    }
    return grads, d_inputs


@dataclass
class ForwardCache:
    """Everything backward() needs from one sentence's forward pass."""

    inputs: np.ndarray
    input_mask: np.ndarray
    # (forward, backward) DirectionState per layer
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
    no step rows are kept and the returned cache is None: decoding
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
        state_f = _direction_forward(
            current, attn_f, cell_f, config.memory_span, keep_cache
        )
        state_b = _direction_forward(
            current[::-1], attn_b, cell_b, config.memory_span, keep_cache
        )
        cache.layer_caches.append((state_f, state_b))
        h_f = state_f.tape_h
        h_b = state_b.tape_h[::-1]
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
    # one matrix-vector product per row, bit-equal to wf @ h_f[t] +
    # wb @ h_b[t] + b, like the hoisted Wx x_t
    emissions = (np.matmul(wf, h_f[:, :, None])
                 + np.matmul(wb, h_b[:, :, None]))[:, :, 0] + b
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
        state_f, state_b = cache.layer_caches[layer]
        grads_f, d_in_f = _direction_backward(state_f, attn_f, cell_f, d_h_f)
        grads_b, d_in_b_rev = _direction_backward(
            state_b, attn_b, cell_b, d_h_b[::-1]
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
