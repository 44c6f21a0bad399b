"""Word-level precision/recall/F1 via exact span matching.

A segmentation is a set of half-open (start, end) character intervals,
one per word, as the SIGHAN bakeoff scorer matches words (Emerson 2005).
A predicted word counts as correct only when the identical interval is
in the gold set.  Corpus scores are micro-averaged: correct/predicted/
gold counts are summed over sentences before the ratios, matching how
segmentation bakeoffs score whole test sets.  0/0 is defined as 0.

Both scorers count spans on one path.  evaluate_corpus scores decoded
tag sequences over a corpus's tokens, so there a replacement token
(<ENG>, <NUM>, <IDIOM>) is one position; score_segmentations scores two
word lists of one text by the words' characters.
"""

from .tagging import word_lengths


def _spans(lengths):
    spans = set()
    pos = 0
    for length in lengths:
        spans.add((pos, pos + length))
        pos += length
    return spans


def tags_to_spans(tags):
    """Word intervals of a tag sequence; invalid sequences get the same
    repair the decoder applies, so this never raises."""
    return _spans(word_lengths(tags))


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
    """(P, R, F1) from counts summed over (gold spans, predicted spans)."""
    correct = 0
    n_pred = 0
    n_gold = 0
    for gold, pred in pairs:
        c, p, g = score_counts(gold, pred)
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
    return _micro_average((tags_to_spans(sent.tags), tags_to_spans(path))
                          for sent, path in zip(corpus, paths))


def _char_at(text, j):
    return repr(text[j]) if j < len(text) else "end of sentence"


def score_segmentations(gold, pred):
    """Micro-averaged (P, R, F1) of one segmentation against another,
    sentence by sentence; each is a list of sentences, each sentence a
    list of word strings.  Both must segment the same text: a ValueError
    names the first sentence whose characters differ, and the first
    character where they do."""
    if len(gold) != len(pred):
        raise ValueError(
            f"corpora differ in size: gold {len(gold)} sentences, "
            f"predicted {len(pred)}"
        )
    for i, (gold_words, pred_words) in enumerate(zip(gold, pred)):
        gold_text, pred_text = "".join(gold_words), "".join(pred_words)
        if gold_text != pred_text:
            pairs = enumerate(zip(gold_text, pred_text))
            j = next((j for j, (g, p) in pairs if g != p),
                     min(len(gold_text), len(pred_text)))
            raise ValueError(
                f"sentence {i + 1}: texts differ at character {j + 1}: gold "
                f"{_char_at(gold_text, j)}, prediction {_char_at(pred_text, j)}"
            )
    return _micro_average((_spans(map(len, g)), _spans(map(len, p)))
                          for g, p in zip(gold, pred))
