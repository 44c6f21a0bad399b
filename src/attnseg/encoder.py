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
DirectionState is one direction run: it holds the direction's six
weights, the arrays it was made with in WEIGHTS order (the model's
own, named by direction_names(layer, direction), in forward()), so
attend(), tape_step and backward need only the state, the input rows
it was made with, and the batch's arrays by sentence and row: the tapes
side by side as [h_t | c_t], Wh h_t, h~_t, W_x x_t + b and Wx x_t of
the input rows, which each step turns into its gates, and, when kept
for backward, c~_t.  It holds only rows that outlive a step: the
summaries and tanh c_t are arrays the step makes for itself.  The
ForwardCache of a kept forward holds the
states and, likewise, the model's own out.wf and out.wb arrays, so
backward() reads the cache alone and adds into the gradient dict its
caller passes.  No step keeps its window: attend()
forms a step's tanh activations (k, w, a) and attention weights (k, w)
from Wh h_i, Wx x_t and the previous summary, and backward calls it
again on the same slices, with the same numpy calls on the same
operands, so it sees bit-identical values.  tape_step slices the first
k sentences of each array and keeps the batch axis for every k: one
sentence is a batch of one, and one layout serves training and
decoding alike.  Every forward product is a stack of matrix-vector
products, one per sentence (np.matmul over a stack of vectors), and
every reduction runs along each sentence's own axis in its own order,
so a sentence's forward values do not depend on the batch it runs in,
and stay bit-equal to the straight-line recurrence.  Backward forms
its products over the batch instead: a batch's weight gradients are one
matrix product over all of its rows, not a sum of per-sentence
gradients, so they round as the batch does; a batch of one gets the
bits of its own sentence's products.

Cost.  Neither Wh h_i nor the input half of the gate product depends
on the recurrence.  Wh h_i is computed once, when h_i enters the tape.
With W = [W_h | W_x] split at column h, W_x x_t + b and Wx x_t are
computed before the steps that read them, one matrix-vector product per
row (bit-equal to the per-step product, which one matrix product would
not be), and each step adds W_h h~_t, so z = (W_x x_t + b) + W_h h~_t,
the split form of tests/oracles.py.  A step then costs three
matrix-vector products per sentence (Wp p_{t-1}, W_h h~_t and Wh h_t),
O(a·h + h²) work, plus O(w·(a + h)) for its window of w entries, and a
sentence of n tokens O(n·(a + h)·(h + d) + n²·(a + h)) per direction
(rather than O(n²·a·h)).  A step reads W_h, 600 x 150 float64 (720 KB)
at paper dimensions, which stays in a 2 MB per-core L2 from step to
step, where all of W (2.16 MB) did not.  Each row's product is the
same call however many rows are stacked, so it gets the same bits in
any block, at any BLAS thread count; tests/test_tooling.py checks that
on the installed BLAS.  Both summaries are one sum of products per
step, which reads the window's [h_i | c_i] rows once and forms no (w,
2h) product array.  The backward pass sums the tape term of every later
step's attention gradient per entry before multiplying by Wh^T, for the
same bound.  A batch of B sentences takes one set of numpy calls per
step for all of them, where one sentence at a time takes B sets, and
backward's d h~, d h and d p of a step are one matrix product each over
the step's k sentences.
Training keeps each step's gate rows and c~_t for backward, and no
window arrays: its state forms W_x x_t + b into the gate rows of every
token before the first step, and each step adds W_h h~_t into its row in
place.  Backward recomputes a step's window with attend(), one window
add, one matrix-vector product per sentence, one tanh and one softmax,
the attention half of the forward step, and tanh c_t with one tanh of
the tape row.  A kept state holds h~_t and not x_t: the gradient of W
reads both, from an array backward fills from the state's h~_t rows and
inputs.  So a kept forward holds O(n·(h + a)) memory per sentence and
direction, 1500 values per padded row at paper dimensions, beside the
inputs.  Backward runs one direction at a time and adds two gradient
arrays, 2h + a values per padded row (450 at paper dimensions), one
step's gate factors, formed from that step's kept rows, and one step's
(k, w, a) window at a time; it writes its other two over kept rows it
has read for the last time, d z over the gates and the window sums of d
pre over Wx x_t.  After the loop it moves each sentence's rows of those
arrays, of the tape and of d_tape_wh to the front of their memory, in
place, fills the gate input [h~_t | x_t] of the batch's M = sum n_i
rows, (M, h + d), and forms each weight gradient as one matrix product
over those rows, where one product per sentence would form and add a
dense gradient (600 x 450 for W) per sentence; a batch of several forms
W's in four blocks of h rows, so its temporary is a quarter of W.  It
releases each direction's kept state once that direction is done, so the
cache of a kept forward serves one backward call.  Decoding runs the
same loop with keep_cache=False: its state has the kept state's layout,
but keeps no c~_t and forms W_x x_t + b and Wx x_t from the caller's
input rows one block of DECODE_BLOCK_ROWS (64) rows at a time, when the
loop reaches it; each step adds W_h h~_t into its row of the block,
which becomes the step's gates.  It releases each direction's h~_t rows
and attention terms once its tape has been read, before the next
direction runs, so it holds 3h + a values per padded row (600 at paper
dimensions), plus one block, 64 (4h + a) values per sentence, and one
step's arrays.  The two directions of a layer share nothing until the
layer above reads them, so a pass without a cache hands each layer's two
(weights, inputs) pairs to worker.run_both, which runs the forward one
in this process and offers the backward one to this process's decode
worker, a forked child that runs it meanwhile.  worker.py decides when
the worker takes one (its Dispatch), and has the process, the one socket
pair that carries its requests and replies, and the shared region it
reads the weights from.  Every parameter dict the program makes keeps
its encoder weights in that region, so a request carries six offsets and
no weight; a direction whose weights lie elsewhere runs in this process.
Training's kept forward never uses the worker, since backward reads both
directions' states.
"""

from dataclasses import dataclass

import numpy as np

from . import worker
from .numerics import ShapeError, sigmoid, softmax
from .tagging import NUM_TAGS

# input rows per block of a decode state's W_x x_t + b and Wx x_t rows
# (module docstring, Cost)
DECODE_BLOCK_ROWS = 64


# the weights of one direction run, in the order a run takes them and
# param_shapes names them
WEIGHTS = ("attn.wh", "attn.wx", "attn.wp", "attn.v", "cell.w", "cell.b")


def direction_names(layer, direction):
    """The parameter names of the WEIGHTS of one direction ("fwd" or
    "bwd") of encoder layer `layer`, in order."""
    return [f"enc{layer}.{direction}.{name}" for name in WEIGHTS]


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
            shapes.update(zip(direction_names(layer, direction),
                              _direction_shapes(a, h, d)))
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


class DirectionState:
    """One direction run over a batch of B sentences, longest first and
    padded to the longest, n tokens: its weights and its arrays.  Step t
    writes row t of the first active[t] sentences, those longer than t.

    DirectionState(weights, inputs, keep_steps, memory_span) makes the
    run's empty tapes over `inputs`, a list of (n_i, d) arrays with
    non-increasing n_i, for the direction with these six weights, in
    WEIGHTS order, with the first block of input rows of gates and wx_x
    filled in (input_block).  The weights and `inputs` stay as given,
    one attribute per WEIGHTS name (wh, wx, wp and v of the attention
    layer, w and b of the gate block) and `inputs`; in forward() the
    weights are the model's own arrays.  lengths holds the n_i,
    active[t] the number of sentences longer than t, and
    window_starts[t] step t's window start: 0, or the start of the last
    `memory_span` tape entries when that is set.  The arrays are

        tape      (B, n, 2h)    [h_t | c_t]: the hidden and memory tapes
        tape_wh   (B, n, a)     Wh h_t, stored when h_t enters the tape
        h_summary (B, n, h)     h~_t, also step t + 1's previous summary
        c_summary (B, n, h)     c~_t, kept for backward, else None
        gates     (B, r, 4h)    W_x x_t + b of input rows block_start ..
                                block_start + r - 1, W_x = w[:, h:];
                                step t adds W_h h~_t into row t -
                                block_start and turns it into i, f, o
                                and chat after their activations
        wx_x      (B, r, a)     Wx x_t of the same rows

    A kept state (keep_steps set) has r = n and block_start 0, its
    input rows all formed before the first step, so gates keeps every
    step's gates for backward; a decode state, whose c_summary is None,
    holds r = min(n, DECODE_BLOCK_ROWS) rows, and its run's loop
    refills them at each block start, so it keeps its tapes and h~_t
    rows alone for every token.  Both keep the same arrays in the same
    layout otherwise.  Kept arrays have zero padding rows.  No array
    holds a value that lives for one step: attend() recomputes a step's
    attention window from tape_wh, wx_x and h_summary, and backward
    recomputes tanh(c_t) from the tape.
    Step t reads and writes the arrays' [:active[t]] slices, batch axis
    included for one sentence too, attends to tape rows
    window_starts[t] .. t-1, and sentence p's rows are their [p,
    :lengths[p]] slices.  Once backward has run on a kept state, its
    gates rows hold d z, the gradient of the gate pre-activations, and
    its wx_x rows the gradient of the attention pre-activations summed
    over each step's window, and the rows of gates, wx_x and tape are
    rearranged: each sentence's rows lie one after another at the front
    of the array's memory.
    """

    def __init__(self, weights, inputs, keep_steps, memory_span):
        self.lengths = lengths = [x.shape[0] for x in inputs]
        if lengths != sorted(lengths, reverse=True):
            raise ValueError(f"batch lengths {lengths} are not longest first")
        self.wh, self.wx, self.wp, self.v, self.w, self.b = weights
        self.inputs = inputs
        batch, n = len(inputs), lengths[0]
        hidden = self.b.shape[0] // 4
        # no step and no backward reads a padding row; a kept state, which
        # callers read too, zeroes them rather than hold stale memory
        alloc = np.zeros if keep_steps else np.empty
        # active[t]: the sentences longer than t, a prefix of the batch
        self.active = []
        for p in range(batch, 0, -1):
            self.active += [p] * (lengths[p - 1] - len(self.active))
        self.window_starts = [0 if memory_span is None else max(0, t - memory_span)
                              for t in range(n)]
        self.tape = alloc((batch, n, 2 * hidden))
        self.tape_wh = alloc((batch, n, self.wh.shape[0]))
        self.h_summary = alloc((batch, n, hidden))
        self.c_summary = alloc((batch, n, hidden)) if keep_steps else None
        rows = n if keep_steps else min(n, DECODE_BLOCK_ROWS)
        self.gates = alloc((batch, rows, 4 * hidden))
        self.wx_x = alloc((batch, rows, self.wh.shape[0]))
        self.input_block(0)

    def input_block(self, start):
        """Write rows start .. start + r - 1 of every sentence's W_x x_t
        + b into gates and of its Wx x_t into wx_x, r being their row
        count, from the state's inputs, and make start the block_start."""
        self.block_start = start
        w_x = self.w[:, self.b.shape[0] // 4:]
        for p, x in enumerate(self.inputs):
            x = x[start:start + self.wx_x.shape[1], :, None]
            # one matrix-vector product per row, bit-equal to W_x @ x_t;
            # one matrix product (X @ W_x^T) rounds differently
            np.matmul(w_x, x, out=self.gates[p, :len(x), :, None])
            self.gates[p, :len(x)] += self.b
            np.matmul(self.wx, x, out=self.wx_x[p, :len(x), :, None])


def attend(state, t):
    """Step t's attention over a non-empty window, for the first k =
    state.active[t] sentences: (pre_tanh, weights), the window's tanh
    activations (k, w, a) and its softmax weights (k, w).

    Reads only rows that step t does not write, so the forward step and
    backward's recompute get the same bits from the same state; Wx x_t
    is row t - block_start of wx_x, and the previous summary row t - 1
    of h_summary, in a kept state and a decode state alike.
    """
    k = state.active[t]
    # (Wh h_i + Wx x_t) + Wp p in the oracle's order, so tapes stay
    # bit-equal; a stack of row vectors times Wp^T runs one
    # matrix-vector product per sentence, the same one as Wp @ p
    pre_tanh = (state.tape_wh[:k, state.window_starts[t]:t]
                + state.wx_x[:k, t - state.block_start, None])
    pre_tanh += np.matmul(state.h_summary[:k, t - 1, None], state.wp.T)
    np.tanh(pre_tanh, out=pre_tanh)
    # vecdot takes one dot product per row, like v @ u; pre_tanh @ v
    # (a matrix-vector product) rounds differently
    scores = np.vecdot(pre_tanh, state.v)
    return pre_tanh, softmax(scores, out=scores)


def tape_step(state, t):
    """One recurrent step of the sentences still running at t, the
    first k = state.active[t], over their tape rows window_starts[t] ..
    t-1.

    Reads Wx x_t and W_x x_t + b from row t - block_start of the
    state's input block and the previous summary from h_summary row t-1
    (with an empty window both summaries are zero), writes h_t, c_t, Wh
    h_t and h~_t into row t, and turns the input block's row of gates
    into the step's gates, in place; in a kept state c~_t goes into row
    t of c_summary.  The summaries and tanh c_t are
    arrays of the step's own.  Every array keeps its batch axis, one
    sentence's too, and every k takes the same calls.  The gate
    sigmoid saturates through exp overflow, so the caller holds
    np.errstate(over="ignore") around its loop of steps.
    """
    k = state.active[t]
    hidden = state.b.shape[0] // 4
    window_start = state.window_starts[t]
    if t > window_start:
        _, weights = attend(state, t)
        # [h~ | c~] as one sum of products over the window: einsum's C
        # loop (optimize=False, no BLAS) adds s_i * [h_i | c_i] into its
        # result in tape order, multiply then add, like the oracle's
        # h_sum += s_i * h_i, and forms no (w, 2h) product array
        summary = np.einsum("...i,...ij->...j", weights,
                            state.tape[:k, window_start:t])
    else:
        summary = np.zeros((k, 2 * hidden))
    state.h_summary[:k, t] = summary[:, :hidden]
    if state.c_summary is not None:
        state.c_summary[:k, t] = summary[:, hidden:]
    # (W_x x_t + b) + W_h h~ in the oracle's split form, one
    # matrix-vector product per sentence, added into the step's input
    # row, which becomes its gates
    z = state.gates[:k, t - state.block_start]
    z += np.matmul(state.w[:, :hidden], summary[:, :hidden, None])[:, :, 0]
    gates_ifo, candidate = z[:, :3 * hidden], z[:, 3 * hidden:]
    sigmoid(gates_ifo, out=gates_ifo)
    np.tanh(candidate, out=candidate)
    # c_t = f * c~ + i * chat
    c_t = np.multiply(z[:, hidden:2 * hidden], summary[:, hidden:],
                      out=state.tape[:k, t, hidden:])
    c_t += z[:, :hidden] * candidate
    h_t = np.multiply(z[:, 2 * hidden:3 * hidden], np.tanh(c_t),
                      out=state.tape[:k, t, :hidden])
    np.matmul(h_t[:, None, :], state.wh.T, out=state.tape_wh[:k, t, None, :])


def _packed(rows, lengths):
    """Move each sentence's rows of a C-contiguous (B, n, c) state
    array, rows[p, :lengths[p]], to the front of its memory in batch
    position order, and return them as one (M, c) view, M =
    sum(lengths).  The rows past the view keep stale values."""
    flat = rows.reshape(-1, rows.shape[2])
    at = 0
    for p, m in enumerate(lengths):
        # numpy copies a source that overlaps its destination first
        flat[at:at + m] = rows[p, :m]
        at += m
    return flat[:at]


def _direction_backward(state, d_rows, order, positions, grads):
    """Gradients of one direction over a batch, given d loss / d h_t of
    every sentence: d_rows lists, in batch order, (n_i, h) arrays in
    input order, and `order` is the direction's read order.

    Runs the steps in lock-step in reverse time, one matrix product per
    step over the k sentences still running for each of d h~, d h and
    d p.  The batch's parameter gradients are then formed as one matrix
    product each over all of its rows (W's, for more than one sentence,
    in blocks of h rows) and added in place to `grads`, the six
    gradient arrays of the state's weights in WEIGHTS order.
    Returns the input gradients in batch order, each in input order:
    positions[s] is the position of batch sentence s.

    The tape term of the attention pre-activation is accumulated per
    tape entry, D[i] = sum over later steps t of d pre[t, i], and is
    complete when reverse time reaches step i: then Wh^T D[i] joins
    d h_i, and after the loop g_wh = D^T H is one matrix product.
    Likewise the gate and attention input weights take their gradients
    from per-step rows stacked over the batch.  Each step forms its
    gate factors from the state's kept rows of that step alone, with
    tanh c_t recomputed from the tape by the forward's own call on the
    same rows; these and [d h~ | d c~] are arrays of the step's own.
    The loop adds two arrays, d_tape ([d h_t | d c_t]) and d_tape_wh,
    450 values per padded row at paper dimensions, and writes its other
    two over kept rows it has read for the last time: d z[t] over gates
    row t, once the step has copied that row to read in its place, and
    the window's summed d pre[t] over wx_x row t, once the step's
    attend() has run.  d_tape goes before the products.  Then each
    sentence's rows of gates (d z), wx_x (d pre), d_tape_wh and tape
    move to the front of their arrays, in place (_packed), so a product
    reads them as one (M, .) view, and the (M, h + d) gate input [h~ |
    x] that the W, Wx and Wp gradients read is filled in the same row
    order, sentence by sentence from h_summary and the state's inputs.
    So a spent state holds gradients and rearranged rows; the caller
    drops it once this returns.
    """
    batch, n = state.tape.shape[:2]
    hidden = state.b.shape[0] // 4
    tape_h, tape_c = state.tape[:, :, :hidden], state.tape[:, :, hidden:]
    # d z over the gates and the window sums of d pre over Wx x_t, row t
    # of each written once step t has read it (above)
    d_z, d_pre_sums = state.gates, state.wx_x
    d_tape = np.zeros((batch, n, 2 * hidden))
    for p, d in zip(positions, d_rows):
        d_tape[p, :state.lengths[p], :hidden] = d[order]
    d_tape_wh = np.zeros(state.tape_wh.shape)
    g_v = np.zeros(state.wh.shape[0])
    w_summary = state.w[:, :hidden]
    # d loss / d h_summary[t] through step t + 1's Wp p term
    d_summary = np.zeros((batch, hidden))
    for t in range(n - 1, -1, -1):
        k = state.active[t]
        # step t's gates, copied before d z[t] overwrites their row, as
        # four (k, h) views
        gates = state.gates[:k, t].copy()
        gate_i, gate_f, gate_o, candidate = gates.reshape(
            k, 4, hidden).swapaxes(0, 1)
        # the forward's tanh call on the same rows, so the same bits
        tanh_c = np.tanh(tape_c[:k, t])
        dh = d_tape_wh[:k, t] @ state.wh
        dh += d_tape[:k, t, :hidden]
        dc = d_tape[:k, t, hidden:] + dh * gate_o * (1.0 - tanh_c ** 2)
        # d z[t] = ((e * M[t]) * G[t]) * K[t], formed from step t's kept
        # rows, with e = [dc, dc, dh, dc], M[t] the factors and G[t] the
        # (i, f, o) gates: per gate, d i = ((dc * chat) * i) * (1 - i), d
        # f = ((dc * c~) * f) * (1 - f), d o = ((dh * tanh c) * o) * (1 -
        # o) and d chat = (dc * i) * (1 - chat^2), each in the order of
        # the chain rule
        dz = d_z[:k, t]
        e = dz.reshape(k, 4, hidden)
        e[:, :2] = dc[:, None]
        e[:, 2] = dh
        e[:, 3] = dc
        for g, factor in enumerate((candidate, state.c_summary[:k, t],
                                    tanh_c, gate_i)):
            e[:, g] *= factor
        dz[:, :3 * hidden] *= gates[:, :3 * hidden]
        dz[:, :3 * hidden] *= 1.0 - gates[:, :3 * hidden]
        dz[:, 3 * hidden:] *= 1.0 - candidate ** 2
        # [d h~ | d c~] of step t
        d_summaries = np.empty((k, 2 * hidden))
        d_h_summary, d_c_summary = d_summaries[:, :hidden], d_summaries[:, hidden:]
        np.matmul(dz, w_summary, out=d_h_summary)
        d_h_summary += d_summary[:k]
        np.multiply(dc, gate_f, out=d_c_summary)
        if t > state.window_starts[t]:
            # the step's window again, bit-equal to the forward's
            pre_tanh, weights = attend(state, t)
            # summaries -> tape entries and attention weights
            window = slice(state.window_starts[t], t)
            d_weights = np.matmul(tape_h[:k, window], d_h_summary[:, :, None])[:, :, 0]
            d_weights += np.matmul(tape_c[:k, window], d_c_summary[:, :, None])[:, :, 0]
            d_tape[:k, window] += weights[:, :, None] * d_summaries[:, None]
            d_scores = weights * (d_weights - np.vecdot(weights, d_weights)[:, None])
            # one product over the step's k * w window rows
            g_v += d_scores.reshape(-1) @ pre_tanh.reshape(-1, pre_tanh.shape[2])
            d_pre = (d_scores[:, :, None] * state.v) * (1.0 - pre_tanh ** 2)
            d_tape_wh[:k, window] += d_pre
            d_pre.sum(axis=1, out=d_pre_sums[:k, t])
        else:
            # an empty window (t = 0): both summaries are constant zero
            # vectors
            d_pre_sums[:k, t] = 0.0
        np.matmul(d_pre_sums[:k, t], state.wp, out=d_summary[:k])
    # freed before the products below, which never read it
    del d_tape
    lengths = state.lengths
    d_z, d_pre_sums = _packed(d_z, lengths), _packed(d_pre_sums, lengths)
    # the gate input [h~ | x] of the batch's rows in the packed order,
    # filled sentence by sentence, so no (M, d) copy of x is formed
    starts = np.cumsum([0] + lengths)
    gate_in = np.empty((starts[-1], hidden + state.inputs[0].shape[1]))
    for x, h_rows, at in zip(state.inputs, state.h_summary, starts):
        gate_in[at:at + len(x), :hidden] = h_rows[:len(x)]
        gate_in[at:at + len(x), hidden:] = x
    g_wh, g_wx, g_wp, g_v_sum, g_w, g_b = grads
    g_wh += _packed(d_tape_wh, lengths).T @ _packed(state.tape, lengths)[:, :hidden]
    g_wx += d_pre_sums.T @ gate_in[:, hidden:]
    # d pre[t] pairs with step t's previous summary h~[t - 1]; every
    # sentence's first row of d pre is +0.0 (an empty window), so the
    # pairs across a sentence boundary add exact zeros
    g_wp += d_pre_sums[1:].T @ gate_in[:-1, :hidden]
    g_v_sum += g_v
    # a batch forms g_w in blocks of h rows, so its product's temporary
    # is (h, h + d), not (4h, h + d); a batch of one forms it whole, as
    # a lone sentence's product, since every split rounds apart from it
    block = hidden if batch > 1 else 4 * hidden
    for r in range(0, 4 * hidden, block):
        g_w[r:r + block] += d_z[:, r:r + block].T @ gate_in
    g_b += d_z.sum(axis=0)
    # per sentence, from its packed rows: one (M, d) product pair would
    # hold an (M, d) temporary for its second product
    return [(d_z[starts[p]:starts[p + 1]] @ state.w[:, hidden:]
             + d_pre_sums[starts[p]:starts[p + 1]] @ state.wx)[order]
            for p in positions]


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

    A cache serves one backward() call, which takes each layer's pair
    out of `layers` as it reaches it and releases each state when its
    direction is done; read attention weights or any other kept row from
    the states before calling backward(), since a state held past it
    has its tape, gates and wx_x rows rearranged, and gradients in its
    gates and wx_x rows.
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
        if name not in params:
            raise ValueError(f"parameter {name} is missing")
        if params[name].shape != shape:
            raise ShapeError(
                f"parameter {name} has shape {params[name].shape}, but the "
                f"config gives {shape}"
            )


def _run_direction(weights, inputs, keep_steps, memory_span):
    """The DirectionState of one direction run with these six weights
    over `inputs`, after all its steps."""
    state = DirectionState(weights, inputs, keep_steps, memory_span)
    with np.errstate(over="ignore"):
        for t in range(state.tape.shape[1]):
            if t == state.block_start + state.wx_x.shape[1]:
                state.input_block(t)
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
    pass hands each layer's two directions, as (weights, inputs) pairs,
    to worker.run_both, which runs both: the backward one in this
    process's decode worker, where worker.py's rules let it, while this
    process runs the forward one (module docstring, Cost), with
    bit-equal results.  The worker reads the weights in the parent's
    own pages of the shared region, as they are at the call, and a
    direction whose weights lie outside it runs in this process.
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
    # positions[s] = p where by_length[p] = s, the inverse permutation
    positions = sorted(range(len(batch)), key=by_length.__getitem__)

    layers = []
    for layer in range(1 + config.extra_layers):
        runs = [([params[name] for name in direction_names(layer, direction)],
                 [current[s][order] for s in by_length])
                for direction, order in DIRECTIONS]
        if keep_cache:
            states = tuple(_run_direction(weights, inputs, True, config.memory_span)
                           for weights, inputs in runs)
            layers.append(states)
            rows = [state.tape[:, :, :h] for state in states]
        else:
            # the decode worker may run the backward direction meanwhile
            rows = worker.run_both(runs, config.memory_span)
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
    list of (n_i, num_tags) arrays in its batch order; a ShapeError
    naming the first misshapen one is raised before any gradient is
    added.  The gradient of every encoder parameter over the batch is
    added in place to its array in `grads`, a dict keyed by parameter
    name: the output layer's summed sentence by sentence in batch order,
    each direction's weights as one matrix product over all of the
    batch's rows (_direction_backward).  All weights come from the
    cache.  Returns d_inputs, the gradients with respect to the original
    featurized inputs (for the embedding tables), in batch order.

    It takes each layer's pair of states out of cache.layers, top layer
    first, and drops each direction's state once its gradients are
    formed, so the cache serves this one call: a second call raises
    ValueError rather than add the gradients again.  Read attention
    weights from a kept state before calling it.
    """
    if cache is None:
        raise ValueError("backward called without a cached forward pass")
    if not cache.layers:
        raise ValueError("backward called on a spent cache")
    if len(d_emissions) != len(cache.inputs):
        raise ValueError(f"{len(d_emissions)} emission gradients for a batch "
                         f"of {len(cache.inputs)}")
    d_emissions = [np.asarray(d_e, dtype=np.float64) for d_e in d_emissions]
    # every shape before the first gradient is added
    for s, (d_e, x) in enumerate(zip(d_emissions, cache.inputs)):
        if d_e.shape != (x.shape[0], NUM_TAGS):
            raise ShapeError(
                f"emission gradient {s} has shape {d_e.shape}, but sentence "
                f"{s} needs ({x.shape[0]}, {NUM_TAGS})"
            )
    h = cache.out_w[0].shape[1]

    # d loss / d top_h, per direction and sentence
    d_top = ([], [])
    for s, d_e in enumerate(d_emissions):
        grads["out.b"] += d_e.sum(axis=0)
        for i, name in enumerate(("out.wf", "out.wb")):
            grads[name] += d_e.T @ cache.top_h[i][s]
            d = d_e @ cache.out_w[i]
            if cache.out_masks is not None:
                d = d * cache.out_masks[i][s]
            d_top[i].append(d)

    for layer in reversed(range(len(cache.layers))):
        states = list(cache.layers.pop())
        d_fwd, d_bwd = [
            _direction_backward(
                states.pop(0), d_rows, order, cache.positions,
                [grads[name] for name in direction_names(layer, direction)])
            for (direction, order), d_rows in zip(DIRECTIONS, d_top)]
        d_layer_in = [f + b for f, b in zip(d_fwd, d_bwd)]
        # the layer below's (forward, backward) halves, as views
        d_top = ([d[:, :h] for d in d_layer_in], [d[:, h:] for d in d_layer_in])

    if cache.input_masks is not None:
        return [d * m for d, m in zip(d_layer_in, cache.input_masks)]
    return d_layer_in
