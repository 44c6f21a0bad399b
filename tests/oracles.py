"""Independent reference implementations used as test oracles.

Everything here is deliberately written the dumb way: brute-force
enumeration over all tag sequences, straight-line transcriptions of the
recurrence arithmetic, per-tag loops for the CRF tables, a textbook
LSTM step, an idiom scan that tries every lexicon entry.  None of it
imports the production code paths it checks (shared constants, shapes,
character classes, numerics.logsumexp and the CRF's gold-path score
excepted), so agreement between the two routes is evidence, not
tautology.

Score accumulation order matters in a few places: the dynamic programs
under test build path scores strictly left to right, so oracles that
claim *exact* equality accumulate in the same order (IEEE addition is
commutative, and identical association gives identical bits).
"""

import itertools

import numpy as np

from attnseg.corpus import ENG, IDIOM, NUM, SPECIALS, _is_digit, _is_latin
from attnseg.crf import _masked_sequence_score, end_index, start_index
from attnseg.numerics import logsumexp

START = 4
END = 5


def enumerate_scores(emissions, trans, mask=None):
    """(sequences, scores): every tag sequence over K tags and its score.

    Scores accumulate left to right exactly like a chain sum:
    trans[START,y1] + P[1,y1] + trans[y1,y2] + P[2,y2] + ... +
    trans[yn,END], with one rounding per addition, vectorized across
    sequences (elementwise, so per-sequence order is unchanged).
    """
    emissions = np.asarray(emissions, dtype=np.float64)
    n, k = emissions.shape
    if mask is not None:
        trans = np.where(mask, trans, -np.inf)
    seqs = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.intp)
    scores = trans[START, seqs[:, 0]] + emissions[0, seqs[:, 0]]
    for t in range(1, n):
        scores = scores + trans[seqs[:, t - 1], seqs[:, t]]
        scores = scores + emissions[t, seqs[:, t]]
    scores = scores + trans[seqs[:, -1], END]
    return seqs, scores


def brute_log_partition(emissions, trans, mask=None):
    seqs, scores = enumerate_scores(emissions, trans, mask)
    m = np.max(scores)
    if m == -np.inf:
        raise ValueError("all sequences masked")
    return float(m + np.log(np.sum(np.exp(scores - m))))


def brute_viterbi(emissions, trans, mask=None):
    """(best path, best score); ties pick the path whose reversed tuple
    is lexicographically smallest (lowest tag id from the end inward),
    which is what backtracking with first-index argmax selects."""
    seqs, scores = enumerate_scores(emissions, trans, mask)
    best = np.max(scores)
    if best == -np.inf:
        raise ValueError("all sequences masked")
    candidates = [tuple(seqs[i]) for i in np.flatnonzero(scores == best)]
    path = min(candidates, key=lambda s: tuple(reversed(s)))
    return list(path), float(best)


def brute_marginals(emissions, trans, mask=None):
    """Per-position tag marginals and per-step pairwise marginals by
    enumeration; returns (unary (n,k), pairwise (n-1,k,k), start (k,),
    end (k,))."""
    emissions = np.asarray(emissions, dtype=np.float64)
    n, k = emissions.shape
    seqs, scores = enumerate_scores(emissions, trans, mask)
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
    start = start_index(k)
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
    end = end_index(k)
    beta = np.empty((n, k))
    beta[n - 1] = trans[:k, end]
    for t in range(n - 2, -1, -1):
        for j in range(k):
            beta[t, j] = logsumexp(trans[j, :k] + emissions[t + 1] + beta[t + 1])
    return beta


def crf_nll_and_grads_loops(emissions, trans, gold):
    """Reference for crf.nll_and_grads on an already masked transition
    matrix (excluded entries -inf): the tables above, then one pairwise
    marginal per step.  Returns (loss, d_emissions, d_transitions, alpha,
    beta): the gradients, then the two tables they came from."""
    n, k = emissions.shape
    start, end = start_index(k), end_index(k)

    alpha = crf_forward_table_loops(emissions, trans, k)
    beta = crf_backward_table_loops(emissions, trans, k)
    log_z = logsumexp(alpha[-1] + trans[:k, end])
    if log_z == -np.inf:
        raise ValueError("all tag sequences are masked out")

    gold_score = _masked_sequence_score(emissions, trans, gold, k)
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


def lstm_step_reference(x, h_prev, c_prev, w, b):
    """Plain LSTM update, gate order (i, f, o, candidate)."""
    hidden = h_prev.shape[0]
    z = w @ np.concatenate((h_prev, x)) + b
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
        z = w @ np.concatenate((h_sum, x)) + b
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


def _direction_backward_unrolled(cache, wh, wx, wp, v, w, b, d_hidden_out):
    """One direction's gradients, pair by pair: for every step t and
    every tape entry i it attends to, an outer product into the Wh
    gradient and a Wh^T product into d h_i."""
    n = len(cache.steps)
    hidden = b.shape[0] // 4
    d_in = cache.inputs[0].shape[0]
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
        st = cache.steps[t]
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
                d_weights[i] = d_h_summary @ cache.tape_h[gi] \
                    + d_c_summary @ cache.tape_c[gi]
                d_tape_h[gi] += weights[i] * d_h_summary
                d_tape_c[gi] += weights[i] * d_c_summary
            d_scores = weights * (d_weights - weights @ d_weights)
            d_pre_sum = np.zeros_like(v)
            for i in range(count):
                gi = st.window_start + i
                g_v += d_scores[i] * st.pre_tanh[i]
                d_pre = (d_scores[i] * v) * (1.0 - st.pre_tanh[i] ** 2)
                g_wh += np.outer(d_pre, cache.tape_h[gi])
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
    at a time, over the step caches of a forward pass.

    Returns (grads, d_inputs) like the encoder's own backward; it reads
    the cache's fields but calls no production code.
    """
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
                dir_cache, *(params[prefix + k] for k in (
                    "attn.wh", "attn.wx", "attn.wp", "attn.v", "cell.w", "cell.b")),
                d_out,
            )
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


def preprocess_scan(sentence, lexicon=None):
    """Reference for corpus.preprocess: every call sorts the lexicon and
    tries each idiom at each position, longest first.  Normalizes a
    sentence (a string, or a list of tokens) to a token list.

    Maximal runs of Latin letters collapse to one <ENG> token and maximal
    runs of digits to one <NUM> token (fullwidth forms included).  With a
    lexicon, exact idiom matches collapse to <IDIOM>, longest match first.
    Flag tokens already present pass through untouched, which makes the
    function idempotent.
    """
    toks = list(sentence)
    idioms = sorted(lexicon, key=len, reverse=True) if lexicon else ()
    out = []
    i = 0
    n = len(toks)
    while i < n:
        tok = toks[i]
        if tok in SPECIALS:
            out.append(tok)
            i += 1
            continue
        matched = False
        for idiom in idioms:
            k = len(idiom)
            if i + k <= n and toks[i:i + k] == list(idiom):
                out.append(IDIOM)
                i += k
                matched = True
                break
        if matched:
            continue
        if _is_latin(tok):
            while i < n and _is_latin(toks[i]):
                i += 1
            out.append(ENG)
        elif _is_digit(tok):
            while i < n and _is_digit(toks[i]):
                i += 1
            out.append(NUM)
        else:
            out.append(tok)
            i += 1
    return out
