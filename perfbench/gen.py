"""Seeded input generators for the benchmark workloads.

Text is drawn from a generated lexicon of Han words whose frequencies
follow Zipf's law, so frequent words repeat and a segmenter can learn
them.  Sentence and line lengths are fixed per index and never drawn:
the seed changes which characters appear, not how much work a run does
(the attention tape makes cost grow with the square of length).
"""

import numpy as np

HAN = 0x4E00
# Word lengths in lexicon rank order, repeating; every pattern position
# is a valid word length, and rank 2 is a one-character word, so a
# sentence of any length can always be filled exactly.
WORD_LENGTHS = (2, 1, 2, 3, 2, 4, 2, 1, 2, 3, 2, 2, 1, 2, 3, 4)
LATIN = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
DIGITS = "0123456789"


def han(start, count):
    """`count` consecutive CJK unified ideographs from offset `start`."""
    return [chr(HAN + start + i) for i in range(count)]


class WordSource:
    """A generated lexicon with Zipfian word frequencies (exponent 1)."""

    def __init__(self, rng, chars, size):
        seen = set()
        self.words = []
        while len(self.words) < size:
            k = WORD_LENGTHS[len(self.words) % len(WORD_LENGTHS)]
            word = "".join(chars[int(i)] for i in rng.integers(0, len(chars), k))
            if word not in seen:
                seen.add(word)
                self.words.append(word)
        weights = 1.0 / np.arange(1, size + 1)
        self._cum = np.cumsum(weights / weights.sum())

    def sentence(self, rng, length):
        """Words drawn by frequency until they fill exactly `length`
        characters; a word longer than the space left is redrawn."""
        words = []
        left = length
        while left:
            rank = int(np.searchsorted(self._cum, rng.random()))
            word = self.words[min(rank, len(self.words) - 1)]
            if len(word) <= left:
                words.append(word)
                left -= len(word)
        return words


def idiom_lexicon(rng, chars, count):
    """`count` distinct four-character idioms over `chars`."""
    idioms = set()
    while len(idioms) < count:
        idioms.add("".join(chars[int(i)] for i in rng.integers(0, len(chars), 4)))
    return sorted(idioms)


def mixed_insert(rng, kind, idioms):
    """A Latin run, a digit run or a lexicon idiom (kind 0, 1, 2); each
    preprocesses to a single flag token."""
    if kind == 0:
        return "".join(LATIN[int(i)] for i in rng.integers(0, len(LATIN), 3))
    if kind == 1:
        return "".join(DIGITS[int(i)] for i in rng.integers(0, len(DIGITS), 4))
    return idioms[int(rng.integers(len(idioms)))]


def segment_lines(rng, source, lengths, mixed_every=0, idioms=()):
    """Unsegmented lines of the given character lengths.

    Every `mixed_every`-th line (1-based) has a slice replaced by a Latin
    run, a digit run or an idiom, in turn.  Returns (lines, token counts,
    mixed flags); a token count is the length after preprocessing.
    """
    lines, tokens, mixed = [], [], []
    for i, length in enumerate(lengths):
        text = "".join(source.sentence(rng, length))
        count = length
        is_mixed = mixed_every > 0 and (i + 1) % mixed_every == 0
        if is_mixed:
            insert = mixed_insert(rng, (i // mixed_every) % 3, idioms)
            at = int(rng.integers(0, length - len(insert) + 1))
            text = text[:at] + insert + text[at + len(insert):]
            count = length - len(insert) + 1
        lines.append(text)
        tokens.append(count)
        mixed.append(is_mixed)
    return lines, tokens, mixed
