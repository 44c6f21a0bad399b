"""Word-level precision/recall/F1 via exact span matching.

A segmentation is a set of half-open (start, end) character intervals.
A predicted word counts as correct only when the identical interval is
in the gold set.  Corpus scores are micro-averaged: correct/predicted/
gold counts are summed over sentences before the ratios, matching how
segmentation bakeoffs score whole test sets.  0/0 is defined as 0.
"""

from .tagging import word_lengths


def tags_to_spans(tags):
    """Word intervals of a tag sequence; invalid sequences get the same
    repair the decoder applies, so this never raises."""
    spans = set()
    pos = 0
    for length in word_lengths(tags):
        spans.add((pos, pos + length))
        pos += length
    return spans


def _covered(spans):
    return max((end for _, end in spans), default=0)


def prf1(gold, pred):
    """Precision, recall and F1 of one sentence's span sets."""
    gold = set(gold)
    pred = set(pred)
    n_gold = _covered(gold)
    n_pred = _covered(pred)
    if n_gold != n_pred:
        raise ValueError(
            f"span sets cover different lengths: gold {n_gold}, pred {n_pred}"
        )
    return _ratios(*score_counts(gold, pred))


def score_counts(gold, pred):
    """(correct, predicted, gold) word counts for micro-averaging."""
    gold = set(gold)
    pred = set(pred)
    return len(gold & pred), len(pred), len(gold)


def _ratios(correct, n_pred, n_gold):
    precision = correct / n_pred if n_pred else 0.0
    recall = correct / n_gold if n_gold else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def _micro_average(pairs):
    """(P, R, F1) from counts summed over (gold tags, predicted tags)."""
    correct = 0
    n_pred = 0
    n_gold = 0
    for gold_tags, pred_tags in pairs:
        c, p, g = score_counts(tags_to_spans(gold_tags), tags_to_spans(pred_tags))
        correct += c
        n_pred += p
        n_gold += g
    return _ratios(correct, n_pred, n_gold)


def evaluate_corpus(model, corpus):
    """Micro-averaged (P, R, F1) of masked decoding against gold tags.

    `model.decode` must take a list of token sequences and return their
    paths in that order: the corpus is decoded with one such call.
    """
    if len(corpus) == 0:
        raise ValueError("cannot evaluate an empty corpus")
    paths = model.decode([sent.tokens for sent in corpus])
    return _micro_average(zip((sent.tags for sent in corpus), paths))


def _token_at(tokens, j):
    return repr(tokens[j]) if j < len(tokens) else "end of sentence"


def score_segmentations(gold_corpus, pred_corpus):
    """Micro-averaged (P, R, F1) of one corpus's segmentation against
    another's, sentence by sentence.  Both must segment the same text:
    a ValueError names the first sentence whose preprocessed tokens
    differ, and the first position where they do."""
    if len(gold_corpus) != len(pred_corpus):
        raise ValueError(
            f"corpora differ in size: gold {len(gold_corpus)} sentences, "
            f"predicted {len(pred_corpus)}"
        )
    for i, (gold, pred) in enumerate(zip(gold_corpus, pred_corpus)):
        if gold.tokens != pred.tokens:
            pairs = enumerate(zip(gold.tokens, pred.tokens))
            j = next((j for j, (g, p) in pairs if g != p),
                     min(len(gold.tokens), len(pred.tokens)))
            raise ValueError(
                f"sentence {i + 1}: texts differ at token {j + 1}: gold "
                f"{_token_at(gold.tokens, j)}, prediction {_token_at(pred.tokens, j)}"
            )
    return _micro_average((gold.tags, pred.tags)
                          for gold, pred in zip(gold_corpus, pred_corpus))
