"""Linear-chain CRF over per-position emission scores.

The transition matrix A is (K+2, K+2) for K tags plus two pseudo-tags,
START at index K and END at index K+1.  A sequence y over n positions
scores

    A[START, y_1] + sum_t A[y_t, y_{t+1}] + A[y_n, END] + sum_t P[t, y_t]

emissions contributing at real positions only.  All dynamic programming
runs in log space.  An entry of A that is -inf forbids its transition
outright: no path through it has any probability or can be decoded.
Setting every transition the BMES grammar forbids to -inf
(``np.where(tagging.transition_mask(), A, -np.inf)``) is how decoding
keeps to the grammar.
"""

import numpy as np

from .numerics import ShapeError


def _check(emissions, transitions):
    emissions = np.asarray(emissions, dtype=np.float64)
    transitions = np.asarray(transitions, dtype=np.float64)
    if emissions.ndim != 2 or emissions.shape[0] < 1:
        raise ShapeError(f"emissions must be (n >= 1, K), got {emissions.shape}")
    k = emissions.shape[1]
    if transitions.shape != (k + 2, k + 2):
        raise ShapeError(
            f"transitions must be {(k + 2, k + 2)} for {k} tags, "
            f"got {transitions.shape}"
        )
    return emissions, transitions, k


def sequence_score(emissions, transitions, tags):
    """Score of one tag sequence.

    Accumulated strictly left to right (start transition, then per
    position the incoming transition followed by the emission, then the
    end transition) so that degenerate single-path instances agree
    bit-for-bit with the forward recursion.
    """
    emissions, trans, k = _check(emissions, transitions)
    if len(tags) != emissions.shape[0]:
        raise ValueError(f"{len(tags)} tags for {emissions.shape[0]} positions")
    return float(_sequence_score(emissions, trans, tags, k))


def _logsumexp_along(scores, axis):
    """log(sum(exp(v))) of every vector v of `scores` along `axis`, one
    reduction for all of them: the maximum m, then
    m + log(sum(exp(v - m))).  numpy sums fewer than 8 terms in index
    order along any axis, so for the four BMES tags each result is
    bit-equal to that of v alone (the per-tag loops of
    tests/oracles.py).  A vector that is entirely -inf gives -inf, with
    no NaN and no warning; an empty one is a ValueError."""
    m = scores.max(axis=axis, keepdims=True)
    shift = np.where(m == -np.inf, 0.0, m)
    with np.errstate(divide="ignore"):
        sums = np.log(np.exp(scores - shift).sum(axis=axis))
    return m.squeeze(axis) + sums


def _forward_table(emissions, trans, k):
    """alpha[t, j]: log-sum score of prefixes ending in tag j at t
    (emissions included through t, start transition included)."""
    n = emissions.shape[0]
    alpha = np.empty((n, k))
    alpha[0] = trans[k, :k] + emissions[0]
    for t in range(1, n):
        # column j holds alpha[t-1] + trans[:k, j]
        alpha[t] = emissions[t] + _logsumexp_along(
            alpha[t - 1][:, None] + trans[:k, :k], axis=0)
    return alpha


def _backward_table(emissions, trans, k):
    """beta[t, j]: log-sum score of completing the sequence from tag j at
    position t (emissions after t and the end transition included)."""
    n = emissions.shape[0]
    beta = np.empty((n, k))
    beta[n - 1] = trans[:k, k + 1]
    for t in range(n - 2, -1, -1):
        # row j holds (trans[j, :k] + emissions[t+1]) + beta[t+1]
        beta[t] = _logsumexp_along(
            (trans[:k, :k] + emissions[t + 1]) + beta[t + 1], axis=1)
    return beta


def log_partition(emissions, transitions):
    """log of the summed exponentiated scores over all tag sequences.

    A path through a -inf transition contributes nothing; if every path
    does, the partition is empty, which is an error.
    """
    emissions, trans, k = _check(emissions, transitions)
    return float(_log_z(_forward_table(emissions, trans, k), trans, k))


def _log_z(alpha, trans, k):
    log_z = _logsumexp_along(alpha[-1] + trans[:k, k + 1], axis=-1)
    if log_z == -np.inf:
        raise ValueError("every tag sequence has a forbidden transition")
    return log_z


def _posteriors(emissions, trans, k):
    """(unary, alpha, beta, log_z) by forward-backward, where
    unary[t, j] = p(y_t = j | x)."""
    alpha = _forward_table(emissions, trans, k)
    beta = _backward_table(emissions, trans, k)
    log_z = _log_z(alpha, trans, k)
    return np.exp(alpha + beta - log_z), alpha, beta, log_z


def marginals(emissions, transitions):
    """Per-position tag posteriors, an (n, K) array whose rows sum to 1.

    Paths through a -inf transition get probability 0; if every path
    does, raises.
    """
    emissions, trans, k = _check(emissions, transitions)
    return _posteriors(emissions, trans, k)[0]


def nll_and_grads(emissions, transitions, gold):
    """Negative log-likelihood of the gold sequence and its gradients.

    Returns (loss, d_emissions, d_transitions):
      loss = log_partition - sequence_score(gold), always >= 0;
      d_emissions[t, j] = p(y_t = j | x) - 1{gold_t = j};
      d_transitions holds pairwise marginals minus gold counts, including
      the START row and END column.
    A gold sequence through a -inf transition is a ValueError.
    """
    emissions, trans, k = _check(emissions, transitions)
    n = emissions.shape[0]
    if len(gold) != n:
        raise ValueError(f"{len(gold)} gold tags for {n} positions")
    gold_score = _sequence_score(emissions, trans, gold, k)
    if gold_score == -np.inf:
        raise ValueError("the gold tag sequence has a forbidden transition")
    unary, alpha, beta, log_z = _posteriors(emissions, trans, k)
    loss = log_z - gold_score

    d_emissions = unary.copy()
    d_emissions[np.arange(n), gold] -= 1.0

    d_trans = np.zeros_like(trans)
    d_trans[k, :k] = unary[0]
    d_trans[k, gold[0]] -= 1.0
    d_trans[:k, k + 1] = unary[-1]
    d_trans[gold[-1], k + 1] -= 1.0
    # pair[t, i, j] = p(y_t = i, y_{t+1} = j | x), all t at once
    pairs = np.exp(
        alpha[:-1, :, None] + trans[:k, :k] + emissions[1:, None, :]
        + beta[1:, None, :] - log_z
    )
    for t in range(n - 1):
        d_trans[:k, :k] += pairs[t]
        d_trans[gold[t], gold[t + 1]] -= 1.0
    return float(loss), d_emissions, d_trans


def _sequence_score(emissions, trans, tags, k):
    n = emissions.shape[0]
    score = trans[k, tags[0]] + emissions[0, tags[0]]
    for t in range(1, n):
        score = score + trans[tags[t - 1], tags[t]]
        score = score + emissions[t, tags[t]]
    return score + trans[tags[n - 1], k + 1]


def viterbi(emissions, transitions):
    """Highest-scoring tag sequence and its score.

    A -inf score is legal in either array: in A it forbids a
    transition, in the emissions it rules a tag out at one position.
    The path takes no -inf score, so with the grammar's forbidden
    transitions at -inf it is always grammar-valid.  Raises ValueError
    on any NaN or +inf score, and when the best path's score is not
    finite: every path takes a -inf score, or a sum overflowed.  Each
    maximum is the first one, so ties break toward the lowest tag id at
    each backtracking step.  The recursion runs on Python floats, whose
    + rounds as float64 addition does, in the order delta[i] + A[i, j],
    then the emission plus that sum.
    """
    emissions, trans, k = _check(emissions, transitions)
    # np.max propagates NaN, and NaN < inf is False
    if not (emissions.max() < np.inf and trans.max() < np.inf):
        raise ValueError("viterbi scores must be finite or -inf")
    trans = trans.tolist()
    # columns[j][i] = A[i, j], the transitions into tag j
    columns = list(zip(*trans[:k]))[:k]
    delta = [a + e for a, e in zip(trans[k], emissions[0].tolist())]
    back = []
    for row in emissions[1:].tolist():
        cands = [[d + a for d, a in zip(delta, column)] for column in columns]
        back.append([cand.index(max(cand)) for cand in cands])
        delta = [e + cand[i] for e, cand, i in zip(row, cands, back[-1])]
    final = [d + row[k + 1] for d, row in zip(delta, trans)]
    path = [final.index(max(final))]
    # -inf when every path takes a -inf score, +inf or NaN when a sum of
    # finite scores overflowed
    if not -np.inf < final[path[0]] < np.inf:
        raise ValueError("the best tag sequence has no finite score")
    for steps in reversed(back):
        path.append(steps[path[-1]])
    return path[::-1], final[path[0]]
