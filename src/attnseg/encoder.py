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

State.  forward() and backward() take a batch: a list of sentences,
run in lock-step.  Each layer runs its two directions through one loop
over DIRECTIONS, pairs of a direction name and a read order: "fwd"
reads each sentence as it is, "bwd" reads it reversed, and the same
order maps the direction's rows back to input order.  Sorted longest
first, step t advances the sentences still running, the first k of
them, which all share the window [window_starts[t], t).  Each
direction writes the batch's arrays by
sentence and row (DirectionState): the tapes side by side as
[h_t | c_t], Wh h_t, the gate input [h~_t | x_t] and, when kept for
backward, the gate activations, tanh c_t and [h~_t | c~_t].  No step
keeps its window: attend() forms a step's tanh activations (k, w, a)
and attention weights (k, w) from Wh h_i, Wx x_t and the previous
summary, and backward calls it again on the same slices, with the same
numpy calls on the same operands, so it sees bit-identical values.
tape_step slices the first k sentences of each array and keeps the
batch axis for every k: one sentence is a batch of one, and one layout
serves training and decoding alike.  Every product is a stack of
matrix-vector products, one per sentence (np.matmul over a stack of
vectors), and every reduction runs along each sentence's own axis in
its own order, so a sentence's values do not depend on the batch it
runs in, and stay bit-equal to the straight-line recurrence.

Cost.  Wh h_i does not depend on t, so it is computed once, when h_i
enters the tape; Wx x_t is computed for every t before the first step,
one matrix-vector product per row (bit-equal to the per-step product,
which one matrix product would not be).  A step then costs three
matrix-vector products per sentence (Wp p_{t-1}, the gate block and
Wh h_t), O(a·h) work, plus O(w·(a + h)) for its window of w entries,
and a sentence of n tokens O(n·a·h + n²·(a + h)) per direction (rather
than O(n²·a·h)).  Both summaries are one sum of products per step,
which reads the window's [h_i | c_i] rows once and forms no (w, 2h)
product array.  The backward pass sums the tape term of every later
step's attention gradient per entry before multiplying by Wh^T, for the
same bound.  A batch of B sentences takes one set of numpy calls per
step for all of them, where one sentence at a time takes B sets.  A
step of k > 1 sentences forms the gate block by row blocks of W,
GATE_BLOCK_ROWS (192) at a time, one stacked product per block: at
paper dimensions W is 600 x 450 float64, 2.16 MB, more than a 2 MB
per-core L2, so k products over all of W would each stream it from L3,
while a 690 KB block is read from L3 once and from L2 for the other
k - 1 sentences.  Each row of the result stays bit-equal to W @ x
only if the BLAS forms it from the same kernel group in a block as in
the whole product: OpenBLAS 0.3.31's dgemv_t (Haswell kernels) did so
for blocks of 64, 128 and 192 rows in every case tried, at 1 to 8
threads on a 2-core box, which fits output rows formed 4 at a time;
block starts are kept at multiples of 64 rows so that any power-of-two
row group up to 64 starts at the same row in a block as in W.
Blocks of one gate (150 rows) or of 37 rows rounded differently (24 of
48 random cases each), so W is not split by gate.  Another BLAS build
or core count may group rows otherwise; tests/test_tooling.py checks
the blocks on the installed one.  One sentence reads W once and takes
it whole.
Training keeps each step's gate rows for backward, and no window
arrays: backward recomputes a step's window with attend(), one window
add, one matrix-vector product per sentence, one tanh and one softmax,
the attention half of the forward step.  So a kept forward holds O(n·(h
+ a + d)) memory per sentence and direction, and backward adds O(n·(h +
a)) gradient rows and one step's (k, w, a) window at a time.  Decoding
runs the same loop with keep_cache=False: it overwrites one scratch row
of gates, tanh c_t and summaries per step, and releases each
direction's gate input and attention terms once its tape has been
read, before the next direction runs, so it holds the same O(n·(h + a
+ d)) with one row in place of n.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import ShapeError, sigmoid, softmax
from .tagging import NUM_TAGS

# rows of cell.w per gate product of a stacked step: 690 KB at paper
# dimensions, and a multiple of 64 (module docstring, Cost)
GATE_BLOCK_ROWS = 192


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
    """Name -> shape of every encoder parameter of a model with this
    TrainConfig, in canonical order.

    Layer 0 reads config.input_dim columns and each extra layer the 2 *
    hidden of the layer below; the attention width is attn_dim, or
    hidden when that is None.  Keys follow the ``enc{layer}.{fwd|bwd}.``
    naming used across training and serialization; init_params draws
    them in this order and params.bin stores them in it.
    """
    h = config.hidden
    a = h if config.attn_dim is None else config.attn_dim
    shapes = {}
    for layer in range(1 + config.extra_layers):
        d = config.input_dim if layer == 0 else 2 * h
        for direction in ("fwd", "bwd"):
            prefix = f"enc{layer}.{direction}."
            shapes[prefix + "attn.wh"] = (a, h)
            shapes[prefix + "attn.wx"] = (a, d)
            shapes[prefix + "attn.wp"] = (a, h)
            shapes[prefix + "attn.v"] = (a,)
            shapes[prefix + "cell.w"] = (4 * h, h + d)
            shapes[prefix + "cell.b"] = (4 * h,)
    shapes["out.wf"] = (NUM_TAGS, h)
    shapes["out.wb"] = (NUM_TAGS, h)
    shapes["out.b"] = (NUM_TAGS,)
    return shapes


def init_params(config, rng):
    """Fresh encoder parameters, uniform in +-sqrt(6/(fan_in+fan_out))
    (a vector counts as one column).

    Forget-gate biases start at 1.0, all other biases at 0.
    """
    h = config.hidden
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
    return (rng.random(shape) >= p) / (1.0 - p)


@dataclass
class DirectionState:
    """One direction's arrays for a batch of B sentences, longest first
    and padded to the longest, n tokens; step t writes row t of the
    first active[t] sentences, those longer than t.

        tape      (B, n, 2h)    [h_t | c_t]: the hidden and memory tapes
        tape_wh   (B, n, a)     Wh h_t, stored when h_t enters the tape
        wx_x      (B, n, a)     Wx x_t, for every t before the first step
        gate_in   (B, n, h + d) [h~_t | x_t], the gate block's input; h~_t
                                is also step t + 1's previous summary
        summary   (B, r, 2h)    [h~_t | c~_t]
        gates     (B, r, 4h)    i, f, o and chat after their activations
        tanh_c    (B, r, h)     tanh(c_t)

    r is n when the steps are kept for backward, and 1 otherwise: a pass
    without gradients overwrites one scratch row per step.  Kept arrays
    have zero padding rows.  No array holds a step's attention window:
    attend() recomputes it from tape_wh, wx_x and gate_in.  Step t reads
    and writes the arrays' [:active[t]] slices, batch axis included for
    one sentence too, attends to tape rows window_starts[t] .. t-1, and
    sentence p's rows are their [p, :lengths[p]] slices.
    """

    lengths: list
    active: list
    window_starts: list
    tape: np.ndarray
    tape_wh: np.ndarray
    wx_x: np.ndarray
    gate_in: np.ndarray
    summary: np.ndarray
    gates: np.ndarray
    tanh_c: np.ndarray

    @classmethod
    def start(cls, inputs, attn, cell, keep_steps, memory_span=None):
        """Empty tapes over `inputs`, a list of (n_i, d) arrays with
        non-increasing n_i, with the input rows of gate_in and wx_x
        filled in, and each step's window start: 0, or the last
        `memory_span` tape entries when that is set."""
        lengths = [x.shape[0] for x in inputs]
        if lengths != sorted(lengths, reverse=True):
            raise ValueError(f"batch lengths {lengths} are not longest first")
        batch = len(inputs)
        n, d = inputs[0].shape
        hidden = cell.b.shape[0] // 4
        attn_dim = attn.wh.shape[0]
        rows = n if keep_steps else 1
        # backward reads the kept arrays whole, padding included
        alloc = np.zeros if keep_steps else np.empty
        gate_in = alloc((batch, n, hidden + d))
        wx_x = alloc((batch, n, attn_dim))
        for p, (m, x) in enumerate(zip(lengths, inputs)):
            gate_in[p, :m, hidden:] = x
            # one matrix-vector product per row, bit-equal to Wx @ x_t;
            # one matrix product (X @ Wx^T) rounds differently
            np.matmul(attn.wx, gate_in[p, :m, hidden:, None],
                      out=wx_x[p, :m, :, None])
        # active[t]: the sentences longer than t, a prefix of the batch
        active = []
        for p in range(batch, 0, -1):
            active += [p] * (lengths[p - 1] - len(active))
        if memory_span is None:
            window_starts = [0] * n
        else:
            window_starts = [max(0, t - memory_span) for t in range(n)]
        return cls(
            lengths=lengths,
            active=active,
            window_starts=window_starts,
            tape=alloc((batch, n, 2 * hidden)),
            tape_wh=alloc((batch, n, attn_dim)),
            wx_x=wx_x,
            gate_in=gate_in,
            summary=alloc((batch, rows, 2 * hidden)),
            gates=alloc((batch, rows, 4 * hidden)),
            tanh_c=alloc((batch, rows, hidden)),
        )


def attend(state, t, attn):
    """Step t's attention over a non-empty window, for the first k =
    state.active[t] sentences: (pre_tanh, weights), the window's tanh
    activations (k, w, a) and its softmax weights (k, w).

    Reads only rows that step t does not write, so the forward step and
    backward's recompute get the same bits from the same state.
    """
    k = state.active[t]
    hidden = attn.wp.shape[1]
    # (Wh h_i + Wx x_t) + Wp p in the oracle's order, so tapes stay
    # bit-equal; a stack of row vectors times Wp^T runs one
    # matrix-vector product per sentence, the same one as Wp @ p
    pre_tanh = state.tape_wh[:k, state.window_starts[t]:t] + state.wx_x[:k, t, None]
    pre_tanh += np.matmul(state.gate_in[:k, t - 1, None, :hidden], attn.wp.T)
    np.tanh(pre_tanh, out=pre_tanh)
    # vecdot takes one dot product per row, like v @ u; pre_tanh @ v
    # (a matrix-vector product) rounds differently
    scores = np.vecdot(pre_tanh, attn.v)
    return pre_tanh, softmax(scores, out=scores)


def tape_step(state, t, attn, cell):
    """One recurrent step of the sentences still running at t, the
    first k = state.active[t], over their tape rows window_starts[t] ..
    t-1.

    Reads x_t and Wx x_t from row t of the state and the previous
    summary from gate_in row t-1 (with an empty window both summaries
    are zero), and writes h_t, c_t and Wh h_t into row t, and the gate
    rows into row t of kept arrays or the one scratch row.  Every array
    keeps its batch axis, one sentence's too; only the gate product
    takes a different call for k = 1.  The gate sigmoid saturates
    through exp overflow, so the caller holds np.errstate(over="ignore")
    around its loop of steps.
    """
    k = state.active[t]
    hidden = cell.b.shape[0] // 4
    window_start = state.window_starts[t]
    # kept arrays have a row per step, the others one scratch row
    row = t if state.summary.shape[1] == state.tape.shape[1] else 0
    summary = state.summary[:k, row]
    if t > window_start:
        _, weights = attend(state, t, attn)
        # [h~ | c~] as one sum of products over the window: einsum's C
        # loop (optimize=False, no BLAS) adds s_i * [h_i | c_i] into the
        # row in tape order, multiply then add, like the oracle's
        # h_sum += s_i * h_i, and forms no (w, 2h) product array
        np.einsum("...i,...ij->...j", weights, state.tape[:k, window_start:t],
                  out=summary)
    else:
        summary[...] = 0.0
    gate_in = state.gate_in[:k, t]
    gate_in[:, :hidden] = summary[:, :hidden]
    z = state.gates[:k, row]
    # W [h~ | x_t], one matrix-vector product per sentence like Wp p
    if k == 1:
        np.matmul(gate_in, cell.w.T, out=z)
    else:
        # by row blocks of W that stay in L2 across the stack (module
        # docstring, Cost)
        for r in range(0, z.shape[1], GATE_BLOCK_ROWS):
            block = slice(r, r + GATE_BLOCK_ROWS)
            np.matmul(gate_in[:, None, :], cell.w[block].T, out=z[:, None, block])
    z += cell.b
    gates_ifo, candidate = z[:, :3 * hidden], z[:, 3 * hidden:]
    sigmoid(gates_ifo, out=gates_ifo)
    np.tanh(candidate, out=candidate)
    # c_t = f * c~ + i * chat
    c_t = np.multiply(z[:, hidden:2 * hidden], summary[:, hidden:],
                      out=state.tape[:k, t, hidden:])
    c_t += z[:, :hidden] * candidate
    tanh_c = np.tanh(c_t, out=state.tanh_c[:k, row])
    h_t = np.multiply(z[:, 2 * hidden:3 * hidden], tanh_c,
                      out=state.tape[:k, t, :hidden])
    np.matmul(h_t[:, None, :], attn.wh.T, out=state.tape_wh[:k, t, None, :])


def _direction_backward(state, attn, cell, d_hidden_out, positions, grads,
                        prefix):
    """Gradients of one direction over a batch, given d loss / d h_t for
    every sentence and t, (B, n, h) by position like the state.

    Runs the steps in lock-step in reverse time.  Each sentence's
    parameter gradients are then formed and added to grads[prefix +
    name], sentence by sentence in batch order: positions[s] is the
    position of batch sentence s.  Returns each position's input
    gradient.

    The tape term of the attention pre-activation is accumulated per
    tape entry, D[i] = sum over later steps t of d pre[t, i], and is
    complete when reverse time reaches step i: then Wh^T D[i] joins
    d h_i, and after the loop g_wh = D^T H is one matrix product.
    Likewise the gate and attention input weights take their gradients
    from per-step rows stacked over the sentence.
    """
    batch, n = state.tape.shape[:2]
    hidden = cell.b.shape[0] // 4
    attn_dim = attn.wh.shape[0]
    tape_h, tape_c = state.tape[:, :, :hidden], state.tape[:, :, hidden:]
    gates = state.gates
    gate_f = gates[:, :, hidden:2 * hidden]
    gate_o = gates[:, :, 2 * hidden:3 * hidden]
    candidate = gates[:, :, 3 * hidden:]
    # d z[t] = ((e * M[t]) * G[t]) * K[t] with e = [dc, dc, dh, dc]: per
    # gate, d i = ((dc * chat) * i) * (1 - i), d f = ((dc * c~) * f) *
    # (1 - f), d o = ((dh * tanh c) * o) * (1 - o) and d chat =
    # ((dc * i) * 1) * (1 - chat^2), each in the order of the chain rule
    m_rows = np.concatenate((candidate, state.summary[:, :, hidden:],
                             state.tanh_c, gates[:, :, :hidden]), axis=2)
    g_rows = gates.copy()
    g_rows[:, :, 3 * hidden:] = 1.0
    k_rows = 1.0 - gates
    k_rows[:, :, 3 * hidden:] = 1.0 - candidate ** 2
    d_tanh_c = 1.0 - state.tanh_c ** 2
    d_tape = np.zeros((batch, n, 2 * hidden))
    d_tape[:, :, :hidden] = d_hidden_out
    d_tape_wh = np.zeros((batch, n, attn_dim))
    d_z = np.zeros((batch, n, 4 * hidden))
    d_pre_sums = np.zeros((batch, n, attn_dim))
    g_v = np.zeros((batch, attn_dim))
    # stacks of vectors times these run one matrix-vector product per
    # sentence, the same one as a single sentence's W^T @ u
    wh_t, wp_t, w_summary_t = attn.wh.T, attn.wp.T, cell.w[:, :hidden].T
    # [d h~ | d c~] of the current step
    d_summaries = np.empty((batch, 2 * hidden))
    d_h_summary = d_summaries[:, :hidden]
    d_c_summary = d_summaries[:, hidden:]
    # d loss / d h_summary[t] through step t + 1's Wp p term
    d_summary = np.zeros((batch, hidden))
    for t in range(n - 1, -1, -1):
        k = state.active[t]
        dh = np.matmul(wh_t, d_tape_wh[:k, t, :, None])[:, :, 0]
        dh += d_tape[:k, t, :hidden]
        dc = d_tape[:k, t, hidden:] + dh * gate_o[:k, t] * d_tanh_c[:k, t]
        dz = d_z[:k, t]
        e = dz.reshape(k, 4, hidden)
        e[:, :2] = dc[:, None]
        e[:, 2] = dh
        e[:, 3] = dc
        dz *= m_rows[:k, t]
        dz *= g_rows[:k, t]
        dz *= k_rows[:k, t]
        np.matmul(w_summary_t, dz[:, :, None], out=d_h_summary[:k, :, None])
        d_h_summary[:k] += d_summary[:k]
        np.multiply(dc, gate_f[:k, t], out=d_c_summary[:k])
        if t > state.window_starts[t]:
            # the step's window again, bit-equal to the forward's
            pre_tanh, weights = attend(state, t, attn)
            # summaries -> tape entries and attention weights
            window = slice(state.window_starts[t], t)
            d_weights = np.matmul(tape_h[:k, window], d_h_summary[:k, :, None])
            d_weights += np.matmul(tape_c[:k, window], d_c_summary[:k, :, None])
            d_weights = d_weights[:, :, 0]
            d_tape[:k, window] += weights[:, :, None] * d_summaries[:k, None]
            d_scores = weights * (d_weights - np.vecdot(weights, d_weights)[:, None])
            g_v[:k] += np.matmul(d_scores[:, None], pre_tanh)[:, 0]
            d_pre = (d_scores[:, :, None] * attn.v) * (1.0 - pre_tanh ** 2)
            d_tape_wh[:k, window] += d_pre
            d_pre.sum(axis=1, out=d_pre_sums[:k, t])
        # an empty window leaves d_pre_sums[t] zero: both summaries are
        # constant zero vectors
        np.matmul(wp_t, d_pre_sums[:k, t, :, None], out=d_summary[:k, :, None])
    w_input = cell.w[:, hidden:]
    d_inputs = [None] * batch
    for p in positions:
        m = state.lengths[p]
        gate_in = state.gate_in[p, :m]
        d_z_p, d_pre_p = d_z[p, :m], d_pre_sums[p, :m]
        prev_summaries = np.zeros((m, hidden))
        prev_summaries[1:] = gate_in[:-1, :hidden]
        d_inputs[p] = d_z_p @ w_input + d_pre_p @ attn.wx
        # added as formed: one sentence's dense gradient at a time
        grads[prefix + "attn.wh"] += d_tape_wh[p, :m].T @ tape_h[p, :m]
        grads[prefix + "attn.wx"] += d_pre_p.T @ gate_in[:, hidden:]
        grads[prefix + "attn.wp"] += d_pre_p.T @ prev_summaries
        grads[prefix + "attn.v"] += g_v[p]
        grads[prefix + "cell.w"] += d_z_p.T @ gate_in
        grads[prefix + "cell.b"] += d_z_p.sum(axis=0)
    return d_inputs


# (name, read order) of each direction (module docstring, State)
DIRECTIONS = (("fwd", slice(None)), ("bwd", slice(None, None, -1)))


@dataclass
class ForwardCache:
    """Everything backward() needs from a forward pass over a batch.

    Lists run in batch order, and pairs in DIRECTIONS order (forward,
    backward).  `layers` holds a pair of DirectionStates per layer, and
    positions[s] is the position of batch sentence s in their length
    order.  `top_h` is the pair of lists of the top layer's hidden rows
    (n_i, h) in input order, dropout applied, that fed the output
    projection.  input_masks is None without dropout, and so is
    out_masks, otherwise a pair of lists of the masks on top_h.
    """

    inputs: list
    input_masks: list
    layers: list
    positions: list
    out_masks: tuple
    top_h: tuple


def _check_shapes(params, config, batch):
    for x in batch:
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError(f"need a non-empty (n, input_dim) array, got {x.shape}")
        if x.shape[1] != config.input_dim:
            raise ShapeError(
                f"input dim {x.shape[1]} != configured {config.input_dim}"
            )
    for name, shape in param_shapes(config).items():
        if params[name].shape != shape:
            raise ShapeError(
                f"parameter {name} has shape {params[name].shape}, but the "
                f"config gives {shape}"
            )


# perfbench/spans.py sizes a traced call by len(args[2]): keep `inputs`
# the third positional argument
def forward(params, config, inputs, dropout=0.0, rng=None, keep_cache=True):
    """Emission scores for a batch of sentences, plus the cache.

    `config` is the model's TrainConfig, and `inputs` a list (or tuple)
    of (n_i, config.input_dim) arrays, run in lock-step; one sentence is
    a list of one.  Returns (list of emissions (n_i, num_tags),
    ForwardCache), in batch order.  A sentence's results are bit-equal
    whichever batch it runs in.

    Tapes start empty: per-sentence state isolation is structural.  With
    dropout > 0, inverted-dropout masks apply to the featurized inputs
    and to the (forward, backward) hidden vectors feeding the output
    projection, drawn per sentence in batch order (input, forward,
    backward), the stream one sentence at a time would draw; evaluation
    passes use dropout=0.  With keep_cache=False no step rows are kept
    and the returned cache is None: decoding needs no gradients.  Memory
    grows linearly in n either way.
    """
    batch = [np.asarray(x, dtype=np.float64) for x in inputs]
    if not batch:
        raise ValueError("need at least one sentence")
    _check_shapes(params, config, batch)
    if dropout and rng is None:
        raise ValueError("dropout needs an rng")
    h = config.hidden

    input_masks = out_masks = None
    current = batch
    if dropout:
        input_masks, out_masks = [], ([], [])
        for x in batch:
            input_masks.append(dropout_mask(x.shape, dropout, rng))
            for masks in out_masks:
                masks.append(dropout_mask((x.shape[0], h), dropout, rng))
        current = [x * m for x, m in zip(batch, input_masks)]

    lengths = [x.shape[0] for x in batch]
    # longest first; sorted() is stable, so equal lengths keep batch order
    by_length = sorted(range(len(batch)), key=lambda s: -lengths[s])
    positions = [0] * len(batch)
    for p, s in enumerate(by_length):
        positions[s] = p
    layers = []
    for layer in range(1 + config.extra_layers):
        states, top_h = [], []
        for direction, order in DIRECTIONS:
            attn, cell = direction_view(params, layer, direction)
            state = DirectionState.start([current[s][order] for s in by_length],
                                         attn, cell, keep_cache, config.memory_span)
            with np.errstate(over="ignore"):
                for t in range(state.tape.shape[1]):
                    tape_step(state, t, attn, cell)
            top_h.append([state.tape[p, :m, :h][order]
                          for p, m in zip(positions, lengths)])
            if keep_cache:
                states.append(state)
            # top_h keeps the tape; without a cache the rest of the state
            # goes before the next direction runs
            state = None
        if keep_cache:
            layers.append(tuple(states))
        if layer < config.extra_layers:
            current = [np.concatenate(pair, axis=1) for pair in zip(*top_h)]

    if dropout:
        top_h = [[x * m for x, m in zip(rows, masks)]
                 for rows, masks in zip(top_h, out_masks)]

    wf, wb, b = params["out.wf"], params["out.wb"], params["out.b"]
    # one matrix-vector product per row, bit-equal to wf @ h_f[t] +
    # wb @ h_b[t] + b, like the hoisted Wx x_t
    emissions = [
        (np.matmul(wf, f[:, :, None]) + np.matmul(wb, r[:, :, None]))[:, :, 0] + b
        for f, r in zip(*top_h)
    ]
    cache = None
    if keep_cache:
        cache = ForwardCache(
            inputs=batch, input_masks=input_masks, layers=layers,
            positions=positions, out_masks=out_masks, top_h=tuple(top_h),
        )
    return emissions, cache


def backward(params, cache, d_emissions, grads=None):
    """Gradients of a scalar loss through the cached forward pass.

    `cache` is the ForwardCache forward() returned, and d_emissions a
    list of (n_i, num_tags) arrays in its batch order.  Returns (grads,
    d_inputs).  grads maps every encoder parameter name to its gradient
    summed over the batch, sentence by sentence in batch order; when
    `grads` is given, the sums are added to its arrays in place.  The
    cache and `params` fix the shapes: the layer count is
    len(cache.layers) and the hidden size the width of out.wf.
    d_inputs lists, in batch order, the gradients with respect to the
    original featurized inputs (for the embedding tables).
    """
    if cache is None:
        raise ValueError("backward called without a cached forward pass")
    if len(d_emissions) != len(cache.inputs):
        raise ValueError(f"{len(d_emissions)} emission gradients for a batch "
                         f"of {len(cache.inputs)}")
    if grads is None:
        grads = {name: np.zeros(p.shape) for name, p in params.items()
                 if name.startswith(("enc", "out."))}
    h = params["out.wf"].shape[1]
    lengths = [x.shape[0] for x in cache.inputs]

    # d loss / d top_h, per direction and sentence
    d_top = ([], [])
    for s, d_e in enumerate(d_emissions):
        d_e = np.asarray(d_e, dtype=np.float64)
        grads["out.b"] += d_e.sum(axis=0)
        for i, name in enumerate(("out.wf", "out.wb")):
            grads[name] += d_e.T @ cache.top_h[i][s]
            d = d_e @ params[name]
            if cache.out_masks is not None:
                d = d * cache.out_masks[i][s]
            d_top[i].append(d)

    for layer in range(len(cache.layers) - 1, -1, -1):
        d_in = []
        for (direction, order), state, d_rows in zip(
                DIRECTIONS, cache.layers[layer], d_top):
            attn, cell = direction_view(params, layer, direction)
            d_out = np.zeros(state.tape.shape[:2] + (h,))
            for p, m, d in zip(cache.positions, lengths, d_rows):
                d_out[p, :m] = d[order]
            prefix = f"enc{layer}.{direction}."
            d_in.append([d[order] for d in _direction_backward(
                state, attn, cell, d_out, cache.positions, grads, prefix)])
        d_layer_in = [d_in[0][p] + d_in[1][p] for p in cache.positions]
        if layer > 0:
            d_top = ([d[:, :h] for d in d_layer_in],
                     [d[:, h:] for d in d_layer_in])

    d_inputs = d_layer_in
    if cache.input_masks is not None:
        d_inputs = [d * m for d, m in zip(d_inputs, cache.input_masks)]
    return grads, d_inputs
