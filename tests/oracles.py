"""Independent reference implementations used as test oracles.

Everything here is deliberately written the dumb way: brute-force
enumeration over all tag sequences, straight-line transcriptions of the
recurrence arithmetic, per-tag loops for the CRF tables, a textbook
LSTM step, an idiom scan that tries every lexicon entry.  None of it
imports the production code paths it checks (shared constants, shapes,
the CRF's gold-path score and the encoder's attention window, read back
from a forward pass, excepted), so
agreement between the two routes is evidence, not tautology.

Score accumulation order matters in a few places: the dynamic programs
under test build path scores strictly left to right, so oracles that
claim *exact* equality accumulate in the same order (IEEE addition is
commutative, and identical association gives identical bits).
"""

import itertools
import re
from types import SimpleNamespace

import numpy as np

from attnseg.corpus import ENG, IDIOM, NUM
from attnseg.crf import _sequence_score
from attnseg.encoder import attend
from attnseg.numerics import ShapeError
from attnseg.tagging import TAG_NAMES

START = 4
END = 5


def logsumexp(v):
    """log(sum(exp(v))) of a 1-d array, max-subtracted for stability.

    Entries may be -inf (they drop out of the sum); an all -inf input
    returns -inf.  An empty vector is an error (log of a zero sum).
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"logsumexp needs a vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("logsumexp of an empty vector")
    m = np.max(v)
    if m == -np.inf:
        return -np.inf
    return m + np.log(np.sum(np.exp(v - m)))


def enumerate_scores(emissions, trans):
    """(sequences, scores): every tag sequence over K tags and its score.

    Scores accumulate left to right exactly like a chain sum:
    trans[START,y1] + P[1,y1] + trans[y1,y2] + P[2,y2] + ... +
    trans[yn,END], with one rounding per addition, vectorized across
    sequences (elementwise, so per-sequence order is unchanged).
    """
    emissions = np.asarray(emissions, dtype=np.float64)
    n, k = emissions.shape
    seqs = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.intp)
    scores = trans[START, seqs[:, 0]] + emissions[0, seqs[:, 0]]
    for t in range(1, n):
        scores = scores + trans[seqs[:, t - 1], seqs[:, t]]
        scores = scores + emissions[t, seqs[:, t]]
    scores = scores + trans[seqs[:, -1], END]
    return seqs, scores


def brute_log_partition(emissions, trans):
    seqs, scores = enumerate_scores(emissions, trans)
    m = np.max(scores)
    if m == -np.inf:
        raise ValueError("all sequences masked")
    return float(m + np.log(np.sum(np.exp(scores - m))))


def brute_viterbi(emissions, trans):
    """(best path, best score); ties pick the path whose reversed tuple
    is lexicographically smallest (lowest tag id from the end inward),
    which is what backtracking with first-index argmax selects."""
    seqs, scores = enumerate_scores(emissions, trans)
    best = np.max(scores)
    if best == -np.inf:
        raise ValueError("all sequences masked")
    candidates = [tuple(seqs[i]) for i in np.flatnonzero(scores == best)]
    path = min(candidates, key=lambda s: tuple(reversed(s)))
    return list(path), float(best)


def brute_marginals(emissions, trans):
    """Per-position tag marginals and per-step pairwise marginals by
    enumeration; returns (unary (n,k), pairwise (n-1,k,k), start (k,),
    end (k,))."""
    emissions = np.asarray(emissions, dtype=np.float64)
    n, k = emissions.shape
    seqs, scores = enumerate_scores(emissions, trans)
    m = np.max(scores)
    probs = np.exp(scores - m)
    probs /= probs.sum()
    unary = np.zeros((n, k))
    pairwise = np.zeros((n - 1, k, k))
    start = np.zeros(k)
    end = np.zeros(k)
    for seq, p in zip(seqs, probs):
        start[seq[0]] += p
        end[seq[-1]] += p
        for t in range(n):
            unary[t, seq[t]] += p
        for t in range(n - 1):
            pairwise[t, seq[t], seq[t + 1]] += p
    return unary, pairwise, start, end


def crf_forward_table_loops(emissions, trans, k):
    """Reference for crf._forward_table: one logsumexp per tag and
    position.  alpha[t, j]: log-sum score of prefixes ending in tag j at
    t (emissions included through t, start transition included)."""
    n = emissions.shape[0]
    start = k
    alpha = np.empty((n, k))
    alpha[0] = trans[start, :k] + emissions[0]
    for t in range(1, n):
        for j in range(k):
            alpha[t, j] = emissions[t, j] + logsumexp(alpha[t - 1] + trans[:k, j])
    return alpha


def crf_backward_table_loops(emissions, trans, k):
    """Reference for crf._backward_table, per tag and position.
    beta[t, j]: log-sum score of completing the sequence from tag j at
    position t (emissions after t and the end transition included)."""
    n = emissions.shape[0]
    end = k + 1
    beta = np.empty((n, k))
    beta[n - 1] = trans[:k, end]
    for t in range(n - 2, -1, -1):
        for j in range(k):
            beta[t, j] = logsumexp(trans[j, :k] + emissions[t + 1] + beta[t + 1])
    return beta


def crf_nll_and_grads_loops(emissions, trans, gold):
    """Reference for crf.nll_and_grads, forbidden transitions (-inf
    entries) included: the tables above, then one pairwise marginal per
    step.  Returns (loss, d_emissions, d_transitions, alpha,
    beta): the gradients, then the two tables they came from."""
    n, k = emissions.shape
    start, end = k, k + 1

    alpha = crf_forward_table_loops(emissions, trans, k)
    beta = crf_backward_table_loops(emissions, trans, k)
    log_z = logsumexp(alpha[-1] + trans[:k, end])
    if log_z == -np.inf:
        raise ValueError("all tag sequences are masked out")

    gold_score = _sequence_score(emissions, trans, gold, k)
    loss = log_z - gold_score

    unary = np.exp(alpha + beta - log_z)

    d_emissions = unary.copy()
    d_emissions[np.arange(n), gold] -= 1.0

    d_trans = np.zeros_like(trans)
    d_trans[start, :k] = unary[0]
    d_trans[start, gold[0]] -= 1.0
    d_trans[:k, end] = unary[-1]
    d_trans[gold[-1], end] -= 1.0
    for t in range(n - 1):
        pair = np.exp(
            alpha[t][:, None] + trans[:k, :k] + emissions[t + 1][None, :]
            + beta[t + 1][None, :] - log_z
        )
        d_trans[:k, :k] += pair
        d_trans[gold[t], gold[t + 1]] -= 1.0
    return float(loss), d_emissions, d_trans, alpha, beta


def viterbi_numpy(emissions, trans):
    """Reference for crf.viterbi at any length: the recursion on numpy
    arrays, one np.argmax (first maximum, a NaN counting as the maximum)
    per position, candidate scores delta[i] + trans[i, j], then the
    emission plus the best of them.  Returns (path, score), the score
    -inf when every path takes a -inf transition."""
    n, k = emissions.shape
    delta = trans[START, :k] + emissions[0]
    back = np.zeros((n, k), dtype=np.intp)
    for t in range(1, n):
        cand = delta[:, None] + trans[:k, :k]
        back[t] = np.argmax(cand, axis=0)
        delta = emissions[t] + cand[back[t], np.arange(k)]
    final = delta + trans[:k, END]
    best_last = int(np.argmax(final))
    path = [best_last]
    for t in range(n - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    return path, float(final[best_last])


def lstm_step_reference(x, h_prev, c_prev, w, b):
    """Plain LSTM update, gate order (i, f, o, candidate)."""
    hidden = h_prev.shape[0]
    z = w[:, :hidden] @ h_prev + (w[:, hidden:] @ x + b)
    i = 1.0 / (1.0 + np.exp(-z[:hidden]))
    f = 1.0 / (1.0 + np.exp(-z[hidden:2 * hidden]))
    o = 1.0 / (1.0 + np.exp(-z[2 * hidden:3 * hidden]))
    cand = np.tanh(z[3 * hidden:])
    c = f * c_prev + i * cand
    h = o * np.tanh(c)
    return h, c


def _softmax_maxsub(a):
    e = np.exp(a - np.max(a))
    return e / np.sum(e)


def lstmn_unrolled(inputs, wh, wx, wp, v, w, b, memory_span=None):
    """Straight-line transcription of the attention-tape recurrence.

    Processes the whole input list with explicit Python loops and no
    helper reuse: per step, score each tape entry (only the last
    `memory_span` entries when a span is given), softmax (max-
    subtracted, like the implementation under test, so results can be
    compared for bit equality), form both summaries in tape order, run
    the gate block.  Returns the list of hidden vectors.
    """
    hidden = b.shape[0] // 4
    tape_h, tape_c = [], []
    prev_summary = np.zeros(hidden)
    outputs = []
    for x in inputs:
        t = len(tape_h)
        first = 0 if memory_span is None else max(0, t - memory_span)
        if t == 0:
            h_sum = np.zeros(hidden)
            c_sum = np.zeros(hidden)
        else:
            scores = np.empty(t - first)
            for i in range(first, t):
                scores[i - first] = v @ np.tanh(
                    wh @ tape_h[i] + wx @ x + wp @ prev_summary
                )
            s = _softmax_maxsub(scores)
            h_sum = np.zeros(hidden)
            c_sum = np.zeros(hidden)
            for i in range(first, t):
                h_sum += s[i - first] * tape_h[i]
                c_sum += s[i - first] * tape_c[i]
        z = w[:, :hidden] @ h_sum + (w[:, hidden:] @ x + b)
        gi = 1.0 / (1.0 + np.exp(-z[:hidden]))
        gf = 1.0 / (1.0 + np.exp(-z[hidden:2 * hidden]))
        go = 1.0 / (1.0 + np.exp(-z[2 * hidden:3 * hidden]))
        cand = np.tanh(z[3 * hidden:])
        c = gf * c_sum + gi * cand
        h = go * np.tanh(c)
        tape_h.append(h)
        tape_c.append(c)
        prev_summary = h_sum
        outputs.append(h)
    return outputs


def direction_weights(params, prefix):
    """[wh, wx, wp, v, w, b], the weights params[prefix + name] of one
    encoder direction, in the argument order of lstmn_unrolled and
    _direction_backward_unrolled."""
    return [params[prefix + name] for name in (
        "attn.wh", "attn.wx", "attn.wp", "attn.v", "cell.w", "cell.b")]


def sentence_rows(state, p, windows=False):
    """The rows of the sentence at position p of an encoder.DirectionState
    whose steps were kept, as views without the batch axis: every kept
    array's rows, its input rows x, the tape also split into tape_h and
    tape_c, tanh_c recomputed from tape_c, and each step's window
    start.  With
    `windows`, also the window arrays of each step, weights[t] (w,) and
    pre_tanh[t] (w, a), formed by encoder.attend from the state alone,
    as forward and backward form them."""
    m = state.lengths[p]
    hidden = state.b.shape[0] // 4
    weights = pre_tanh = None
    if windows:
        weights, pre_tanh = [np.zeros(0)] * m, [np.zeros((0, state.v.shape[0]))] * m
        for t in range(m):
            if t > state.window_starts[t]:
                u, w = attend(state, t)
                pre_tanh[t], weights[t] = u[p], w[p]
    return SimpleNamespace(
        tape=state.tape[p, :m],
        tape_h=state.tape[p, :m, :hidden],
        tape_c=state.tape[p, :m, hidden:],
        tape_wh=state.tape_wh[p, :m],
        wx_x=state.wx_x[p, :m],
        x=state.inputs[p],
        h_summary=state.h_summary[p, :m],
        c_summary=state.c_summary[p, :m],
        gates=state.gates[p, :m],
        # recomputed from the tape, as encoder backward does
        tanh_c=np.tanh(state.tape[p, :m, hidden:]),
        window_starts=state.window_starts[:m],
        weights=weights,
        pre_tanh=pre_tanh,
    )


def sentence_cache(cache, s, windows=False):
    """Batch sentence s of an encoder.ForwardCache, as views: its inputs
    and dropout masks (None without dropout), its (forward, backward)
    sentence_rows per layer, with the window arrays when `windows` is
    set, and the top hidden rows that fed the output projection."""
    p = cache.positions[s]
    masks = (cache.input_masks, *(cache.out_masks or (None, None)))
    input_mask, out_mask_f, out_mask_b = (None if m is None else m[s] for m in masks)
    layer_caches = [tuple(sentence_rows(state, p, windows) for state in states)
                    for states in cache.layers]
    return SimpleNamespace(
        inputs=cache.inputs[s], input_mask=input_mask,
        layer_caches=layer_caches,
        out_mask_f=out_mask_f, out_mask_b=out_mask_b,
        top_h_f=cache.top_h[0][s], top_h_b=cache.top_h[1][s],
    )


def _step_fields(state, t):
    """Step t's values, read by name from one sentence's rows of a
    forward pass (sentence_rows)."""
    hidden = state.tanh_c.shape[1]
    gates = state.gates[t]
    return SimpleNamespace(
        x=state.x[t],
        window_start=state.window_starts[t],
        weights=state.weights[t],
        pre_tanh=state.pre_tanh[t],
        prev_summary=state.h_summary[t - 1] if t else np.zeros(hidden),
        h_summary=state.h_summary[t],
        c_summary=state.c_summary[t],
        gate_i=gates[:hidden],
        gate_f=gates[hidden:2 * hidden],
        gate_o=gates[2 * hidden:3 * hidden],
        candidate=gates[3 * hidden:],
        tanh_c=state.tanh_c[t],
    )


def _direction_backward_unrolled(state, wh, wx, wp, v, w, b, d_hidden_out):
    """One direction's gradients, pair by pair: for every step t and
    every tape entry i it attends to, an outer product into the Wh
    gradient and a Wh^T product into d h_i."""
    n = state.tape.shape[0]
    hidden = b.shape[0] // 4
    d_in = w.shape[1] - hidden
    tape_h, tape_c = state.tape_h, state.tape_c
    d_tape_h = [g.copy() for g in d_hidden_out]
    d_tape_c = [np.zeros(hidden) for _ in range(n)]
    d_summary = [np.zeros(hidden) for _ in range(n)]
    g_wh = np.zeros_like(wh)
    g_wx = np.zeros_like(wx)
    g_wp = np.zeros_like(wp)
    g_v = np.zeros_like(v)
    g_w = np.zeros_like(w)
    g_b = np.zeros_like(b)
    d_inputs = np.zeros((n, d_in))
    for t in range(n - 1, -1, -1):
        st = _step_fields(state, t)
        dh = d_tape_h[t]
        dc = d_tape_c[t]
        # h = o * tanh(c)
        d_o = dh * st.tanh_c
        dc = dc + dh * st.gate_o * (1.0 - st.tanh_c ** 2)
        # c = f * c_summary + i * candidate
        d_f = dc * st.c_summary
        d_c_summary = dc * st.gate_f
        d_i = dc * st.candidate
        d_candidate = dc * st.gate_i
        dz = np.concatenate((
            d_i * st.gate_i * (1.0 - st.gate_i),
            d_f * st.gate_f * (1.0 - st.gate_f),
            d_o * st.gate_o * (1.0 - st.gate_o),
            d_candidate * (1.0 - st.candidate ** 2),
        ))
        g_w += np.outer(dz, np.concatenate((st.h_summary, st.x)))
        g_b += dz
        d_cat = w.T @ dz
        d_h_summary = d_cat[:hidden] + d_summary[t]
        dx = d_cat[hidden:].copy()
        weights = st.weights
        count = weights.shape[0]
        if count:
            # summaries -> tape entries and attention weights
            d_weights = np.empty(count)
            for i in range(count):
                gi = st.window_start + i
                d_weights[i] = d_h_summary @ tape_h[gi] \
                    + d_c_summary @ tape_c[gi]
                d_tape_h[gi] += weights[i] * d_h_summary
                d_tape_c[gi] += weights[i] * d_c_summary
            d_scores = weights * (d_weights - weights @ d_weights)
            d_pre_sum = np.zeros_like(v)
            for i in range(count):
                gi = st.window_start + i
                g_v += d_scores[i] * st.pre_tanh[i]
                d_pre = (d_scores[i] * v) * (1.0 - st.pre_tanh[i] ** 2)
                g_wh += np.outer(d_pre, tape_h[gi])
                d_tape_h[gi] += wh.T @ d_pre
                d_pre_sum += d_pre
            g_wx += np.outer(d_pre_sum, st.x)
            dx += wx.T @ d_pre_sum
            g_wp += np.outer(d_pre_sum, st.prev_summary)
            if t > 0:
                d_summary[t - 1] += wp.T @ d_pre_sum
        # empty window: both summaries are constant zero vectors
        d_inputs[t] = dx
    grads = {
        "attn.wh": g_wh, "attn.wx": g_wx, "attn.wp": g_wp, "attn.v": g_v,
        "cell.w": g_w, "cell.b": g_b,
    }
    return grads, d_inputs


def lstmn_backward_unrolled(params, num_layers, cache, d_emissions):
    """Reference encoder backward pass, one time step and one tape entry
    at a time, over the kept step rows of a forward pass over one
    sentence (a ForwardCache of a batch of one), given its d_emissions.

    Returns (grads, d_inputs) like the encoder's own backward, with
    d_inputs one array; it reads the cache's fields through
    sentence_cache, each step's attention window included as
    encoder.attend forms it from the forward's rows, and runs no other
    production arithmetic.
    """
    cache = sentence_cache(cache, 0, windows=True)
    d_emissions = np.asarray(d_emissions, dtype=np.float64)
    n = d_emissions.shape[0]
    wf, wb = params["out.wf"], params["out.wb"]
    h = wf.shape[1]
    grads = {
        "out.wf": np.zeros_like(wf),
        "out.wb": np.zeros_like(wb),
        "out.b": np.zeros_like(params["out.b"]),
    }
    d_h_f = []
    d_h_b = []
    for t in range(n):
        dy = d_emissions[t]
        grads["out.wf"] += np.outer(dy, cache.top_h_f[t])
        grads["out.wb"] += np.outer(dy, cache.top_h_b[t])
        grads["out.b"] += dy
        df = wf.T @ dy
        db = wb.T @ dy
        if cache.out_mask_f is not None:
            df = df * cache.out_mask_f[t]
            db = db * cache.out_mask_b[t]
        d_h_f.append(df)
        d_h_b.append(db)

    for layer in range(num_layers - 1, -1, -1):
        layer_grads = []
        for direction, d_out, dir_cache in (
                ("fwd", d_h_f, cache.layer_caches[layer][0]),
                ("bwd", d_h_b[::-1], cache.layer_caches[layer][1])):
            prefix = f"enc{layer}.{direction}."
            g, d_in = _direction_backward_unrolled(
                dir_cache, *direction_weights(params, prefix), d_out)
            for name, value in g.items():
                grads[prefix + name] = value
            layer_grads.append(d_in)
        d_layer_in = layer_grads[0] + layer_grads[1][::-1]
        if layer > 0:
            d_h_f = [d_layer_in[t, :h] for t in range(n)]
            d_h_b = [d_layer_in[t, h:] for t in range(n)]

    d_inputs = d_layer_in
    if cache.input_mask is not None:
        d_inputs = d_inputs * cache.input_mask
    return grads, d_inputs


CHAR_POOL = "的一是在不了有大这中人上为个国我以要他时来用们生到作地于出就分"


def random_segmentation(rng, max_len=30, pool=CHAR_POOL):
    """A random sentence as a list of words, word lengths 1-4."""
    n = int(rng.integers(1, max_len + 1))
    chars = [pool[int(rng.integers(len(pool)))] for _ in range(n)]
    words = []
    pos = 0
    while pos < n:
        step = int(rng.integers(1, min(4, n - pos) + 1))
        words.append("".join(chars[pos:pos + step]))
        pos += step
    return words


def is_valid(tags):
    """True when the tag ids, spelled as their letters, match
    (B M* E | S)*: the grammar read as a regular expression, not through
    the production's table of allowed transitions."""
    letters = "".join(TAG_NAMES[t] for t in tags)
    return re.fullmatch("(BM*E|S)*", letters) is not None


def _char_class(c):
    """"latin" for an ASCII or fullwidth Latin letter, "digit" for an
    ASCII or fullwidth digit, else None."""
    code = ord(c)
    for lo, hi, name in ((0x41, 0x5A, "latin"), (0x61, 0x7A, "latin"),
                         (0xFF21, 0xFF3A, "latin"), (0xFF41, 0xFF5A, "latin"),
                         (0x30, 0x39, "digit"), (0xFF10, 0xFF19, "digit")):
        if lo <= code <= hi:
            return name
    return None


def preprocess_scan(text, lexicon=None):
    """Reference for corpus.preprocess: every call sorts the lexicon and
    tries each idiom at each position, longest first.  Scans a string
    into a token list.

    Maximal runs of Latin letters collapse to one <ENG> token and maximal
    runs of digits to one <NUM> token (fullwidth forms included).  With a
    lexicon, exact idiom matches collapse to <IDIOM>, longest match first.
    """
    idioms = sorted(lexicon, key=len, reverse=True) if lexicon else ()
    out = []
    i = 0
    n = len(text)
    while i < n:
        matched = False
        for idiom in idioms:
            if idiom and text.startswith(idiom, i):
                out.append(IDIOM)
                i += len(idiom)
                matched = True
                break
        if matched:
            continue
        kind = _char_class(text[i])
        if kind is None:
            out.append(text[i])
            i += 1
            continue
        while i < n and _char_class(text[i]) == kind:
            i += 1
        out.append(ENG if kind == "latin" else NUM)
    return out


def train_epoch_sequential(model, corpus, config, rng, accum):
    """Reference for train.train_epoch with dense gradients and plain
    numpy formulas.  Per batch one loss_and_grads call over the batch's
    sentences in shuffled order gives a fresh dict of dense gradients
    (its dropout masks are drawn per sentence in batch order); then the
    mean, the optional clip to config.clip_norm and the AdaGrad formula
    with numpy temporaries, over every row of every parameter, update
    model.params and `accum` (a dict like it) in place.  Returns the
    mean NLL, summed sentence by sentence in shuffled order."""
    n = len(corpus)
    order = rng.permutation(n)
    total_nll = 0.0
    for start in range(0, n, config.batch_size):
        batch = order[start:start + config.batch_size]
        losses, sums = model.loss_and_grads(
            [corpus[int(idx)] for idx in batch], dropout=config.dropout,
            rng=rng,
        )
        for loss in losses:
            total_nll += loss
        inv = 1.0 / len(batch)
        for g in sums.values():
            g *= inv
        if config.clip_norm is not None:
            total = 0.0
            for g in sums.values():
                total += float(np.sum(g * g))
            norm = np.sqrt(total)
            if norm > config.clip_norm:
                for g in sums.values():
                    g *= config.clip_norm / norm
        for name, p in model.params.items():
            g = sums[name]
            accum[name] += g * g
            p -= config.learning_rate * g / (
                np.sqrt(accum[name]) + config.adagrad_epsilon
            )
    return total_nll / n


def _word_edges(line):
    """Two flags per non-space character of a whitespace-separated line:
    whether it starts a word and whether it ends one."""
    starts, ends = [], []
    for i, c in enumerate(line):
        if not c.isspace():
            starts.append(i == 0 or line[i - 1].isspace())
            ends.append(i == len(line) - 1 or line[i + 1].isspace())
    return starts, ends


def bakeoff_scores(gold_lines, pred_lines):
    """Reference for evaluate.score_segmentations: micro-averaged
    (P, R, F1) of whitespace-separated lines of the same texts, 0/0
    read as 0.

    Each line is walked a character at a time, marking the character
    offsets where words start and end.  A predicted word over offsets
    a..b is correct when a gold word starts at a, a gold word ends at b,
    and no gold word starts in between."""
    correct = n_pred = n_gold = 0
    for gold, pred in zip(gold_lines, pred_lines):
        gold_starts, gold_ends = _word_edges(gold)
        pred_starts, pred_ends = _word_edges(pred)
        n_gold += sum(gold_starts)
        n_pred += sum(pred_starts)
        for a, starts in enumerate(pred_starts):
            if starts:
                b = pred_ends.index(True, a)
                inside = gold_starts[a + 1:b + 1]
                if gold_starts[a] and gold_ends[b] and not any(inside):
                    correct += 1
    precision = correct / n_pred if n_pred else 0.0
    recall = correct / n_gold if n_gold else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)
