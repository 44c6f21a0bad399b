"""BMES tag scheme: segmentation <-> tag conversion and the tag grammar.

Every character of a sentence carries one of four tags: B(egin), M(iddle)
and E(nd) mark multi-character words, S marks a single-character word.
Valid whole-sentence sequences match (B M* E | S)*.  Tag ids are fixed
(B=0, M=1, E=2, S=3) and baked into serialized models.
"""

import numpy as np

B, M, E, S = 0, 1, 2, 3
START, END = 4, 5

NUM_TAGS = 4
TAG_NAMES = ("B", "M", "E", "S")
TAG_IDS = {name: i for i, name in enumerate(TAG_NAMES)}

# Bigrams that can occur in a grammar-valid sequence, with START/END as
# virtual sentence-boundary tags.
_ALLOWED = frozenset(
    [
        (START, B), (START, S),
        (B, M), (B, E),
        (M, M), (M, E),
        (E, B), (E, S), (E, END),
        (S, B), (S, S), (S, END),
    ]
)


def encode_tags(words):
    """Tag sequence of a segmentation (a list of non-empty words).

    A word may be a string or any sized sequence of tokens; a length-1
    word becomes S, longer words become B M...M E.
    """
    tags = []
    for w in words:
        n = len(w)
        if n == 0:
            raise ValueError("empty word in segmentation")
        if n == 1:
            tags.append(S)
        else:
            tags.append(B)
            tags.extend([M] * (n - 2))
            tags.append(E)
    return tags


def word_lengths(tags):
    """Word lengths implied by a tag sequence, total on any input.

    Invalid sequences are repaired rather than rejected: every B or S
    starts a new word, every E or S closes one, and a dangling open word
    is closed at the end of the sequence.  The lengths always sum to
    len(tags).
    """
    lengths = []
    run = 0
    for t in tags:
        if t in (B, S) and run > 0:
            lengths.append(run)
            run = 0
        run += 1
        if t in (E, S):
            lengths.append(run)
            run = 0
    if run > 0:
        lengths.append(run)
    return lengths


def decode_tags(chars, tags):
    """Segmentation implied by a tag sequence over the given characters.

    Inverse of encode_tags on valid sequences; invalid sequences go
    through the word_lengths repair policy, so decoding never fails and
    never drops or duplicates a character.
    """
    if len(chars) != len(tags):
        raise ValueError(
            f"length mismatch: {len(chars)} characters vs {len(tags)} tags"
        )
    words = []
    pos = 0
    for n in word_lengths(tags):
        words.append("".join(chars[pos:pos + n]))
        pos += n
    return words


def transition_mask():
    """(NUM_TAGS+2, NUM_TAGS+2) boolean matrix of allowed transitions.

    Row/column order is B, M, E, S, START, END; entry [i, j] is True when
    i -> j is grammatical.  ``np.where(transition_mask(), A, -np.inf)``
    turns a CRF transition matrix A into one that only decodes
    grammatical paths.
    """
    size = NUM_TAGS + 2
    mask = np.zeros((size, size), dtype=bool)
    for i in range(size):
        for j in range(size):
            mask[i, j] = (i, j) in _ALLOWED
    return mask
