"""Output checks computed apart from the program under test.

Nothing here calls into attnseg: the span matcher, the grammar and the
Viterbi search are written out again from their definitions, so an
agreement between the two is evidence and not a tautology.  Only the
tag ids are shared, because they are part of the saved model format.
"""

import numpy as np

B, M, E, S = 0, 1, 2, 3
K = 4
START, END = 4, 5
# (B M* E | S)*, with START and END as the sentence boundaries.
ALLOWED = {
    START: (B, S), B: (M, E), M: (M, E), E: (B, S, END), S: (B, S, END),
}


def spans_of_lengths(lengths):
    """Half-open character intervals of consecutive words."""
    spans, pos = set(), 0
    for n in lengths:
        spans.add((pos, pos + n))
        pos += n
    return spans


def spans_of_tags(tags):
    """Word intervals of a grammar-valid BMES path: a word ends at E or S."""
    spans, begin = set(), 0
    for i, t in enumerate(tags):
        if t in (E, S):
            spans.add((begin, i + 1))
            begin = i + 1
    if begin != len(tags):
        raise ValueError(f"path {tags} leaves a word open")
    return spans


def tags_of_lengths(lengths):
    tags = []
    for n in lengths:
        tags.extend([S] if n == 1 else [B] + [M] * (n - 2) + [E])
    return tags


def micro_f1(pairs):
    """Word F1 micro-averaged over (gold spans, predicted spans) pairs."""
    correct = predicted = gold = 0
    for g, p in pairs:
        correct += len(g & p)
        predicted += len(p)
        gold += len(g)
    if correct == 0:
        return 0.0
    precision, recall = correct / predicted, correct / gold
    return 2 * precision * recall / (precision + recall)


def path_score(emissions, trans, tags):
    score = trans[START, tags[0]] + emissions[0, tags[0]]
    for t in range(1, len(tags)):
        score += trans[tags[t - 1], tags[t]] + emissions[t, tags[t]]
    return score + trans[tags[-1], END]


def best_masked_score(emissions, trans):
    """Best path score under the BMES grammar, by max-plus recursion over
    the allowed transitions only."""
    best = np.full(K, -np.inf)
    for tag in ALLOWED[START]:
        best[tag] = trans[START, tag] + emissions[0, tag]
    for t in range(1, emissions.shape[0]):
        step = np.full(K, -np.inf)
        for prev in range(K):
            for tag in ALLOWED[prev]:
                if tag != END:
                    step[tag] = max(step[tag], best[prev] + trans[prev, tag])
        best = step + emissions[t]
    return max(best[prev] + trans[prev, END] for prev in (E, S))


def gradient_mismatches(f, analytic, point, coords, step=1e-5,
                        rtol=1e-4, atol=1e-6):
    """Coordinates where `analytic` disagrees with the central difference
    of `f` at `point`; `point` is restored after each probe."""
    bad = []
    for i in coords:
        saved = point[i]
        point[i] = saved + step
        up = f()
        point[i] = saved - step
        down = f()
        point[i] = saved
        numeric = (up - down) / (2 * step)
        if abs(numeric - analytic[i]) > atol + rtol * max(abs(numeric), abs(analytic[i])):
            bad.append((i, analytic[i], numeric))
    return bad
