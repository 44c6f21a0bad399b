"""Corpus ingestion: preprocessing, vocabularies, embeddings, features.

Corpus files follow the bakeoff convention: UTF-8 text, one sentence per
line, words separated by whitespace.  Preprocessing scans text into
tokens: it collapses runs of Latin letters and of digits into the <ENG>
/ <NUM> flag tokens and can replace idioms from a user-supplied lexicon
with <IDIOM>; the flag tokens then count as single characters everywhere
downstream, and each token can report the text it stands for.
"""

import string
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tagging

PAD, UNK, ENG, NUM = "<PAD>", "<UNK>", "<ENG>", "<NUM>"
IDIOM = "<IDIOM>"
RESERVED = (PAD, UNK, ENG, NUM)


def _with_fullwidth(ascii_chars):
    """The ASCII characters and their fullwidth forms (U+FF01-FF5E
    mirror U+0021-007E)."""
    fullwidth = "".join(chr(ord(c) + 0xFEE0) for c in ascii_chars)
    return frozenset(ascii_chars + fullwidth)


_LATIN = _with_fullwidth(string.ascii_letters)
_DIGITS = _with_fullwidth(string.digits)


def read_lines(path):
    """The lines of a UTF-8 text file, as decode_lines gives them."""
    with open(path, "rb") as fh:
        return decode_lines(fh.read(), path)


def decode_lines(raw, path):
    """The lines of the UTF-8 bytes `raw` of the file at `path`, as a
    list, without their "\n".

    Lines end at "\n" only: str.splitlines would also break inside a
    line at U+2028, U+0085 and other separators, and a text-mode file at
    a lone "\r".  A final "\n" ends the last line, and a leading UTF-8
    byte order mark (U+FEFF) is dropped.  Bytes that are not valid UTF-8
    are a ValueError naming the path and the first bad line.  The bytes
    are decoded whole, in one call, not line by line.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {lineno}: not valid UTF-8") from exc
    lines = text.removeprefix("\ufeff").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def load_lexicon(path):
    """Idiom lexicon: UTF-8, one idiom per line; blank lines ignored."""
    return lexicon_from_lines(read_lines(path))


def lexicon_from_lines(lines):
    """The idioms of a lexicon file's lines, stripped, blank ones dropped."""
    idioms = [line.strip() for line in lines]
    return frozenset(i for i in idioms if i)


@lru_cache(maxsize=8)
def _idiom_lengths(lexicon):
    """Distinct lengths of a frozenset's non-empty idioms, longest first:
    computed once per lexicon, not once per call."""
    return tuple(sorted({len(idiom) for idiom in lexicon if idiom}, reverse=True))


def preprocess(text, lexicon=None, sources=None):
    """Scan a string into its token list.

    Maximal runs of Latin letters collapse to one <ENG> token and maximal
    runs of digits to one <NUM> token (fullwidth forms included).  With a
    lexicon, exact idiom matches collapse to <IDIOM>, longest match first;
    empty idioms are ignored.  Every other character is its own token.
    With `sources` (a list), the text each token stands for is appended
    to it, one string per token, so "".join(sources) == text.
    """
    # frozenset() of a frozenset is the set itself, so the cache hits
    lengths = _idiom_lengths(frozenset(lexicon)) if lexicon else ()
    out = []
    i = 0
    n = len(text)
    while i < n:
        start = i
        for k in lengths:
            if i + k <= n and text[i:i + k] in lexicon:
                out.append(IDIOM)
                i += k
                break
        else:
            char = text[i]
            if char in _LATIN:
                while i < n and text[i] in _LATIN:
                    i += 1
                out.append(ENG)
            elif char in _DIGITS:
                while i < n and text[i] in _DIGITS:
                    i += 1
                out.append(NUM)
            else:
                out.append(char)
                i += 1
        if sources is not None:
            sources.append(text[start:i])
    return out


class Vocab:
    """Token <-> id map with fixed reserved slots 0..3 (PAD, UNK, ENG, NUM)."""

    def __init__(self, tokens):
        tokens = list(tokens)
        if tuple(tokens[:4]) != RESERVED:
            raise ValueError(f"vocab must start with the reserved tokens {RESERVED}")
        self.id_to_token = tokens
        self.token_to_id = {tok: i for i, tok in enumerate(tokens)}
        if len(self.token_to_id) != len(tokens):
            raise ValueError("duplicate token in vocab")

    @classmethod
    def build(cls, sentences):
        """Vocab over all tokens of an iterable of token sequences, in
        first-seen order after the reserved slots."""
        tokens = list(RESERVED)
        seen = set(RESERVED)
        for sent in sentences:
            for tok in sent:
                if tok not in seen:
                    seen.add(tok)
                    tokens.append(tok)
        return cls(tokens)

    def __len__(self):
        return len(self.id_to_token)

    def __contains__(self, token):
        return token in self.token_to_id

    def id(self, token):
        return self.token_to_id.get(token, 1)

    def encode(self, tokens):
        t2i = self.token_to_id
        return [t2i.get(tok, 1) for tok in tokens]


def bigram_key(first, second):
    """Vocab token for a character bigram (tab never occurs in tokens)."""
    return first + "\t" + second


def sentence_bigrams(tokens):
    """Bigram tokens (c_t, c_{t+1}) per position, <PAD> past the end."""
    keys = []
    for t in range(len(tokens)):
        nxt = tokens[t + 1] if t + 1 < len(tokens) else PAD
        keys.append(bigram_key(tokens[t], nxt))
    return keys


def build_bigram_vocab(corpus):
    return Vocab.build(sentence_bigrams(sent.tokens) for sent in corpus)


@dataclass
class Sentence:
    """One preprocessed sentence with its gold tags."""

    tokens: list
    tags: list

    def __post_init__(self):
        if len(self.tokens) != len(self.tags):
            raise ValueError(
                f"{len(self.tokens)} tokens vs {len(self.tags)} tags"
            )
        if not self.tokens:
            raise ValueError("empty sentence")


# A corpus is a plain list of Sentence.  The name stays only for
# perfbench/workloads.py:249, its last caller, until that call passes a
# plain list (ROADMAP item 1).
Corpus = list


def read_sentences(path):
    """The words of each non-blank line of a bakeoff-format file, split
    on whitespace.  A file yielding zero sentences is an error naming
    it, and one that is not valid UTF-8 an error naming its line."""
    sentences = [words for words in map(str.split, read_lines(path)) if words]
    if not sentences:
        raise ValueError(f"{path}: no sentences found")
    return sentences


def load_corpus(path, lexicon=None):
    """Parse a bakeoff-format file into a list of Sentence.

    Each sentence of read_sentences has each word preprocessed (so a
    replacement token counts as one character), and the resulting
    segmentation is encoded to BMES tags.
    """
    sentences = []
    for words in read_sentences(path):
        token_words = [preprocess(w, lexicon) for w in words]
        tags = tagging.encode_tags(token_words)
        tokens = [tok for w in token_words for tok in w]
        sentences.append(Sentence(tokens=tokens, tags=tags))
    return sentences


def load_toy_corpus():
    """The bundled 32-sentence corpus used by the overfitting smoke test."""
    from importlib.resources import as_file, files

    ref = files("attnseg").joinpath("data/toy.txt")
    with as_file(ref) as path:
        return load_corpus(path)


def split_train_dev(corpus, dev_fraction, seed):
    """Deterministic shuffled split of a list of Sentence into (train,
    dev) lists; dev gets round(dev_fraction * N).

    Rounding is half-up.  Raises when either side would be empty.
    """
    if not 0.0 < dev_fraction < 1.0:
        raise ValueError(f"dev_fraction must be in (0, 1), got {dev_fraction}")
    n = len(corpus)
    n_dev = int(np.floor(dev_fraction * n + 0.5))
    if n_dev == 0 or n_dev == n:
        raise ValueError(
            f"corpus of {n} sentences is too small for a {dev_fraction} split"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    return [corpus[i] for i in order[n_dev:]], [corpus[i] for i in order[:n_dev]]


def random_embeddings(count, dim, rng):
    """Uniform rows in [-0.05, 0.05], the init used for untrained tables."""
    return rng.uniform(-0.05, 0.05, size=(count, dim))


def load_embeddings(path, vocab, seed):
    """Load pretrained vectors in the textual "count dim" header format.

    Rows align to vocab ids.  Vocab tokens absent from the file keep a
    uniform random row in [-0.05, 0.05] drawn under `seed`; file tokens
    absent from the vocab are ignored.  Malformed lines, non-finite
    values included, are errors naming the line number.
    """
    lines = iter(read_lines(path))
    header = next(lines, "")
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"{path}: line 1: malformed header {header!r}")
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"{path}: line 1: malformed header {header!r}") from exc
    if count < 0 or dim <= 0:
        raise ValueError(f"{path}: line 1: malformed header {header!r}")
    rng = np.random.default_rng(seed)
    table = random_embeddings(len(vocab), dim, rng)
    seen = 0
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != dim + 1:
            raise ValueError(
                f"{path}: line {lineno}: expected {dim + 1} fields, "
                f"got {len(fields)}"
            )
        token = fields[0]
        try:
            values = [float(v) for v in fields[1:]]
        except ValueError as exc:
            raise ValueError(
                f"{path}: line {lineno}: non-numeric value"
            ) from exc
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: line {lineno}: non-finite value")
        seen += 1
        if token in vocab:
            table[vocab.id(token)] = values
    if seen != count:
        raise ValueError(
            f"{path}: header promised {count} vectors, file has {seen}"
        )
    return table


def featurize(ids, table, window, bigram_ids=None, bigram_table=None):
    """Per-character input vectors: a window of embeddings, centered.

    Row t is the concatenation of the embeddings of the `window`
    characters centered at t (the <PAD> row beyond sentence edges),
    optionally followed by the bigram embedding of (c_t, c_{t+1}).
    Returns an (n, window*dim [+ bigram_dim]) array.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 1, got {window}")
    if (bigram_ids is None) != (bigram_table is None):
        raise ValueError("bigram_ids and bigram_table go together")
    wids = window_ids(ids, window)
    n = wids.shape[0]
    x = table[wids].reshape(n, window * table.shape[1])
    if bigram_ids is not None:
        bigram_ids = np.asarray(bigram_ids, dtype=np.intp)
        if bigram_ids.shape[0] != n:
            raise ValueError(
                f"{bigram_ids.shape[0]} bigram ids for {n} characters"
            )
        x = np.concatenate([x, bigram_table[bigram_ids]], axis=1)
    return x


def window_ids(ids, window):
    """(n, window) matrix of the padded character ids each row of
    featurize() reads, used to scatter gradients back into the table."""
    ids = np.asarray(ids, dtype=np.intp)
    padded = np.pad(ids, window // 2)
    return np.stack([padded[j:j + len(ids)] for j in range(window)], axis=1)
