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
them, which all share the window [window_starts[t], t).  One
DirectionState is one direction run: it holds the direction's
weights, the model's own arrays params["enc{layer}.{direction}." +
name], so attend(), tape_step and backward need only the state, and
the batch's arrays by sentence and row: the tapes side by side as
[h_t | c_t], Wh h_t, the gate input [h~_t | x_t] and, when kept for
backward, the gate activations, tanh c_t and [h~_t | c~_t].  The
ForwardCache of a kept forward holds the states and, likewise, the
model's own out.wf and out.wb arrays, so backward() reads the cache
alone and adds into the gradient dict its caller passes.  No step
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
step of any k sentences forms the gate block by row blocks of W,
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
the blocks on the installed one.  The blocks run first to last on
even steps and last to first on odd ones, so each step starts on the
block the previous step ended on, still in L2.  In one fixed order a
lone sentence read every block from L3 on every step and took about 6%
longer than one product over all of W; alternating, it takes as long.
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
+ d)) with one row in place of n.  The two directions of a layer share
nothing until the layer above reads them, so a pass without a cache
offers each layer's backward direction to this process's decode
worker, a forked child that runs it while this process runs the
forward one.  worker.py decides when it takes one (its Dispatch), and
has the process, its pipes and the shared region it reads the weights
from.  Every parameter dict the program makes keeps its encoder
weights in that region, so a request carries six offsets and no
weight; a direction whose weights lie elsewhere runs in this process.
Training's kept forward never uses the worker, since backward reads
both directions' states.
"""

from dataclasses import dataclass

import numpy as np

from . import worker
from .numerics import ShapeError, sigmoid, softmax
from .tagging import NUM_TAGS

# rows of cell.w per gate product of a step: 690 KB at paper
# dimensions, and a multiple of 64 (module docstring, Cost)
GATE_BLOCK_ROWS = 192


# the weights of one direction run, read as params[prefix + name], in
# the canonical order of param_shapes
WEIGHTS = ("attn.wh", "attn.wx", "attn.wp", "attn.v", "cell.w", "cell.b")


def _direction_shapes(a, h, d):
    """The shapes of a direction's WEIGHTS, in order, for attention
    width a, hidden size h and input width d."""
    return (a, h), (a, d), (a, h), (a,), (4 * h, h + d), (4 * h,)


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
            for name, shape in zip(WEIGHTS, _direction_shapes(a, h, d)):
                shapes[f"enc{layer}.{direction}.{name}"] = shape
    shapes["out.wf"] = (NUM_TAGS, h)
    shapes["out.wb"] = (NUM_TAGS, h)
    shapes["out.b"] = (NUM_TAGS,)
    return shapes


def init_params(config, rng):
    """Fresh encoder parameters, uniform in +-sqrt(6/(fan_in+fan_out))
    (a vector counts as one column), in one block of the shared region
    (worker.aligned_views).

    Forget-gate biases start at 1.0, all other biases at 0.
    """
    h = config.hidden
    params = worker.aligned_views(param_shapes(config))
    for name, p in params.items():
        if name.endswith(".b"):
            p[...] = 0.0
            if name.endswith("cell.b"):
                p[h:2 * h] = 1.0
        else:
            cols = p.shape[1] if p.ndim == 2 else 1
            r = np.sqrt(6.0 / (p.shape[0] + cols))
            # rng.uniform(-r, r, p.shape) drawn in place, low + (high -
            # low) * u with the same draws and the same roundings
            rng.random(out=p)
            p *= r - (-r)
            p += -r
    return params


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
    """One direction run over a batch of B sentences, longest first and
    padded to the longest, n tokens: its weights and its arrays.  Step t
    writes row t of the first active[t] sentences, those longer than t.

    The weights are the model's own arrays params[prefix + name], one
    field per WEIGHTS name (wh, wx, wp and v of the attention layer, w
    and b of the gate block), and their gradients go to grads[prefix +
    name].  The arrays are

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

    prefix: str
    wh: np.ndarray
    wx: np.ndarray
    wp: np.ndarray
    v: np.ndarray
    w: np.ndarray
    b: np.ndarray
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
    def start(cls, params, prefix, inputs, keep_steps, memory_span=None):
        """Empty tapes over `inputs`, a list of (n_i, d) arrays with
        non-increasing n_i, for the direction whose weights are
        params[prefix + name], with the input rows of gate_in and wx_x
        filled in, and each step's window start: 0, or the last
        `memory_span` tape entries when that is set."""
        lengths = [x.shape[0] for x in inputs]
        if lengths != sorted(lengths, reverse=True):
            raise ValueError(f"batch lengths {lengths} are not longest first")
        wh, wx, wp, v, w, b = (params[prefix + name] for name in WEIGHTS)
        batch = len(inputs)
        n, d = inputs[0].shape
        hidden = b.shape[0] // 4
        attn_dim = wh.shape[0]
        rows = n if keep_steps else 1
        # backward reads the kept arrays whole, padding included
        alloc = np.zeros if keep_steps else np.empty
        gate_in = alloc((batch, n, hidden + d))
        wx_x = alloc((batch, n, attn_dim))
        for p, (m, x) in enumerate(zip(lengths, inputs)):
            gate_in[p, :m, hidden:] = x
            # one matrix-vector product per row, bit-equal to Wx @ x_t;
            # one matrix product (X @ Wx^T) rounds differently
            np.matmul(wx, gate_in[p, :m, hidden:, None],
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
            prefix, wh, wx, wp, v, w, b,
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


def attend(state, t):
    """Step t's attention over a non-empty window, for the first k =
    state.active[t] sentences: (pre_tanh, weights), the window's tanh
    activations (k, w, a) and its softmax weights (k, w).

    Reads only rows that step t does not write, so the forward step and
    backward's recompute get the same bits from the same state.
    """
    k = state.active[t]
    hidden = state.wp.shape[1]
    # (Wh h_i + Wx x_t) + Wp p in the oracle's order, so tapes stay
    # bit-equal; a stack of row vectors times Wp^T runs one
    # matrix-vector product per sentence, the same one as Wp @ p
    pre_tanh = state.tape_wh[:k, state.window_starts[t]:t] + state.wx_x[:k, t, None]
    pre_tanh += np.matmul(state.gate_in[:k, t - 1, None, :hidden], state.wp.T)
    np.tanh(pre_tanh, out=pre_tanh)
    # vecdot takes one dot product per row, like v @ u; pre_tanh @ v
    # (a matrix-vector product) rounds differently
    scores = np.vecdot(pre_tanh, state.v)
    return pre_tanh, softmax(scores, out=scores)


def tape_step(state, t):
    """One recurrent step of the sentences still running at t, the
    first k = state.active[t], over their tape rows window_starts[t] ..
    t-1.

    Reads x_t and Wx x_t from row t of the state and the previous
    summary from gate_in row t-1 (with an empty window both summaries
    are zero), and writes h_t, c_t and Wh h_t into row t, and the gate
    rows into row t of kept arrays or the one scratch row.  Every array
    keeps its batch axis, one sentence's too, and every k takes the
    same calls.  The gate sigmoid saturates through exp overflow, so
    the caller holds np.errstate(over="ignore") around its loop of
    steps.
    """
    k = state.active[t]
    hidden = state.b.shape[0] // 4
    window_start = state.window_starts[t]
    # kept arrays have a row per step, the others one scratch row
    row = t if state.summary.shape[1] == state.tape.shape[1] else 0
    summary = state.summary[:k, row]
    if t > window_start:
        _, weights = attend(state, t)
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
    # W [h~ | x_t], one matrix-vector product per sentence like Wp p,
    # by row blocks of W that stay in L2 across the stack, last to first
    # on odd steps so that each step starts on the block the previous
    # one ended on (module docstring, Cost)
    blocks = range(0, z.shape[1], GATE_BLOCK_ROWS)
    for r in reversed(blocks) if t % 2 else blocks:
        block = slice(r, r + GATE_BLOCK_ROWS)
        np.matmul(gate_in[:, None, :], state.w[block].T, out=z[:, None, block])
    z += state.b
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
    np.matmul(h_t[:, None, :], state.wh.T, out=state.tape_wh[:k, t, None, :])


def _direction_backward(state, d_rows, order, positions, grads):
    """Gradients of one direction over a batch, given d loss / d h_t of
    every sentence: d_rows lists, in batch order, (n_i, h) arrays in
    input order, and `order` is the direction's read order.

    Runs the steps in lock-step in reverse time.  Each sentence's
    parameter gradients are then formed and added to
    grads[state.prefix + name], sentence by sentence in batch order:
    positions[s] is the position of batch sentence s.  Returns the input
    gradients in batch order, each in input order.

    The tape term of the attention pre-activation is accumulated per
    tape entry, D[i] = sum over later steps t of d pre[t, i], and is
    complete when reverse time reaches step i: then Wh^T D[i] joins
    d h_i, and after the loop g_wh = D^T H is one matrix product.
    Likewise the gate and attention input weights take their gradients
    from per-step rows stacked over the sentence.
    """
    batch, n = state.tape.shape[:2]
    hidden = state.b.shape[0] // 4
    attn_dim = state.wh.shape[0]
    tape_h, tape_c = state.tape[:, :, :hidden], state.tape[:, :, hidden:]
    gates = state.gates
    gate_f = gates[:, :, hidden:2 * hidden]
    gate_o = gates[:, :, 2 * hidden:3 * hidden]
    candidate = gates[:, :, 3 * hidden:]
    # d z[t] = ((e * M[t]) * G[t]) * K[t] with e = [dc, dc, dh, dc] and
    # G[t] the (i, f, o) gates: per gate, d i = ((dc * chat) * i) * (1 -
    # i), d f = ((dc * c~) * f) * (1 - f), d o = ((dh * tanh c) * o) *
    # (1 - o) and d chat = (dc * i) * (1 - chat^2), each in the order of
    # the chain rule
    m_rows = np.concatenate((candidate, state.summary[:, :, hidden:],
                             state.tanh_c, gates[:, :, :hidden]), axis=2)
    k_rows = 1.0 - gates
    k_rows[:, :, 3 * hidden:] = 1.0 - candidate ** 2
    d_tanh_c = 1.0 - state.tanh_c ** 2
    d_tape = np.zeros((batch, n, 2 * hidden))
    for p, d in zip(positions, d_rows):
        d_tape[p, :state.lengths[p], :hidden] = d[order]
    d_tape_wh = np.zeros((batch, n, attn_dim))
    d_z = np.zeros((batch, n, 4 * hidden))
    d_pre_sums = np.zeros((batch, n, attn_dim))
    g_v = np.zeros((batch, attn_dim))
    # stacks of vectors times these run one matrix-vector product per
    # sentence, the same one as a single sentence's W^T @ u
    wh_t, wp_t, w_summary_t = state.wh.T, state.wp.T, state.w[:, :hidden].T
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
        dz[:, :3 * hidden] *= gates[:k, t, :3 * hidden]
        dz *= k_rows[:k, t]
        np.matmul(w_summary_t, dz[:, :, None], out=d_h_summary[:k, :, None])
        d_h_summary[:k] += d_summary[:k]
        np.multiply(dc, gate_f[:k, t], out=d_c_summary[:k])
        if t > state.window_starts[t]:
            # the step's window again, bit-equal to the forward's
            pre_tanh, weights = attend(state, t)
            # summaries -> tape entries and attention weights
            window = slice(state.window_starts[t], t)
            d_weights = np.matmul(tape_h[:k, window], d_h_summary[:k, :, None])
            d_weights += np.matmul(tape_c[:k, window], d_c_summary[:k, :, None])
            d_weights = d_weights[:, :, 0]
            d_tape[:k, window] += weights[:, :, None] * d_summaries[:k, None]
            d_scores = weights * (d_weights - np.vecdot(weights, d_weights)[:, None])
            g_v[:k] += np.matmul(d_scores[:, None], pre_tanh)[:, 0]
            d_pre = (d_scores[:, :, None] * state.v) * (1.0 - pre_tanh ** 2)
            d_tape_wh[:k, window] += d_pre
            d_pre.sum(axis=1, out=d_pre_sums[:k, t])
        # an empty window leaves d_pre_sums[t] zero: both summaries are
        # constant zero vectors
        np.matmul(wp_t, d_pre_sums[:k, t, :, None], out=d_summary[:k, :, None])
    w_input = state.w[:, hidden:]
    d_inputs = []
    for p in positions:
        m = state.lengths[p]
        gate_in = state.gate_in[p, :m]
        d_z_p, d_pre_p = d_z[p, :m], d_pre_sums[p, :m]
        prev_summaries = np.zeros((m, hidden))
        prev_summaries[1:] = gate_in[:-1, :hidden]
        d_inputs.append((d_z_p @ w_input + d_pre_p @ state.wx)[order])
        # added as formed: one sentence's dense gradient at a time
        grads[state.prefix + "attn.wh"] += d_tape_wh[p, :m].T @ tape_h[p, :m]
        grads[state.prefix + "attn.wx"] += d_pre_p.T @ gate_in[:, hidden:]
        grads[state.prefix + "attn.wp"] += d_pre_p.T @ prev_summaries
        grads[state.prefix + "attn.v"] += g_v[p]
        grads[state.prefix + "cell.w"] += d_z_p.T @ gate_in
        grads[state.prefix + "cell.b"] += d_z_p.sum(axis=0)
    return d_inputs


# (name, read order) of each direction (module docstring, State)
DIRECTIONS = (("fwd", slice(None)), ("bwd", slice(None, None, -1)))


@dataclass
class ForwardCache:
    """A forward pass over a batch, all that backward() reads: the
    weights it ran with and the rows it kept.

    Lists run in batch order, and pairs in DIRECTIONS order (forward,
    backward).  `layers` holds a pair of DirectionStates per layer, each
    with its own weights, and positions[s] is the position of batch
    sentence s in their length order.  `top_h` is the pair of lists of
    the top layer's hidden rows (n_i, h) in input order, dropout
    applied, that fed the output projection, and `out_w` the pair of
    its weights, the model's own params["out.wf"] and params["out.wb"].
    `inputs` are the featurized inputs.  input_masks is None without
    dropout, and so is out_masks, otherwise a pair of lists of the
    masks on top_h.
    """

    inputs: list
    input_masks: list
    layers: list
    positions: list
    out_masks: tuple
    top_h: tuple
    out_w: tuple


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


def _run_direction(params, prefix, inputs, keep_steps, memory_span):
    """The DirectionState of one direction run over `inputs`, after all
    its steps."""
    state = DirectionState.start(params, prefix, inputs, keep_steps, memory_span)
    with np.errstate(over="ignore"):
        for t in range(state.tape.shape[1]):
            tape_step(state, t)
    return state


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
    and the returned cache is None: decoding needs no gradients.  Such a
    pass offers each layer's backward direction to this process's decode
    worker (worker.run_both), which runs it, where worker.py's rules let
    it, while this process runs the forward one (module docstring,
    Cost), with bit-equal results: the worker reads the weights in the
    parent's own pages of the shared region, as they are at the call,
    and a direction whose weights lie outside it runs in this process.
    Memory grows linearly in n either way.
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

    def rows_without_cache(prefix, inputs):
        # the direction's state goes as soon as its tape is read
        return _run_direction(params, prefix, inputs, False,
                              config.memory_span).tape[:, :, :h]

    layers = []
    for layer in range(1 + config.extra_layers):
        runs = [(f"enc{layer}.{direction}.", [current[s][order] for s in by_length])
                for direction, order in DIRECTIONS]
        if keep_cache:
            states = tuple(_run_direction(params, prefix, inputs, True,
                                          config.memory_span)
                           for prefix, inputs in runs)
            layers.append(states)
            rows = [state.tape[:, :, :h] for state in states]
        else:
            # the decode worker may run the backward direction meanwhile
            bwd_weights = [params[runs[1][0] + name] for name in WEIGHTS]
            rows = worker.run_both(rows_without_cache, runs, bwd_weights,
                                   config.memory_span)
        top_h = [[r[p, :m][order] for p, m in zip(positions, lengths)]
                 for r, (_, order) in zip(rows, DIRECTIONS)]
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
            out_w=(wf, wb),
        )
    return emissions, cache


def backward(cache, d_emissions, grads):
    """Gradients of a scalar loss through the cached forward pass.

    `cache` is the ForwardCache forward() returned, and d_emissions a
    list of (n_i, num_tags) arrays in its batch order.  The gradient of
    every encoder parameter, summed over the batch sentence by sentence
    in batch order, is added in place to its array in `grads`, a dict
    keyed by parameter name.  All weights come from the cache.  Returns
    d_inputs, the gradients with respect to the original featurized
    inputs (for the embedding tables), in batch order.
    """
    if cache is None:
        raise ValueError("backward called without a cached forward pass")
    if len(d_emissions) != len(cache.inputs):
        raise ValueError(f"{len(d_emissions)} emission gradients for a batch "
                         f"of {len(cache.inputs)}")
    h = cache.out_w[0].shape[1]

    # d loss / d top_h, per direction and sentence
    d_top = ([], [])
    for s, d_e in enumerate(d_emissions):
        d_e = np.asarray(d_e, dtype=np.float64)
        grads["out.b"] += d_e.sum(axis=0)
        for i, name in enumerate(("out.wf", "out.wb")):
            grads[name] += d_e.T @ cache.top_h[i][s]
            d = d_e @ cache.out_w[i]
            if cache.out_masks is not None:
                d = d * cache.out_masks[i][s]
            d_top[i].append(d)

    for states in reversed(cache.layers):
        d_fwd, d_bwd = (
            _direction_backward(state, d_rows, order, cache.positions, grads)
            for (_, order), state, d_rows in zip(DIRECTIONS, states, d_top))
        d_layer_in = [f + b for f, b in zip(d_fwd, d_bwd)]
        # the layer below's (forward, backward) halves, as views
        d_top = ([d[:, :h] for d in d_layer_in], [d[:, h:] for d in d_layer_in])

    if cache.input_masks is not None:
        return [d * m for d, m in zip(d_layer_in, cache.input_masks)]
    return d_layer_in
