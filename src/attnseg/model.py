"""Model assembly: hyperparameters, the parameter dict, and a segmenter
facade tying embeddings, encoder and CRF together.

Parameters live in one ordered dict mapping name -> ndarray, all
float64, except that a loaded model (train.load_model) keeps its
embedding tables in float32, the type params.bin stores (empty_params);
featurize widens the rows it looks up, exactly, so the encoder always
reads float64:

    emb.uni                      character embedding table
    emb.bi                       bigram table (only with bigrams on)
    enc{L}.{fwd|bwd}.attn.*      attention weights per layer/direction
    enc{L}.{fwd|bwd}.cell.*      gate block per layer/direction
    out.wf, out.wb, out.b        per-tag output projection
    crf.trans                    (K+2, K+2) transition scores

param_shapes gives the canonical order, the order build() makes the
tensors in and save_model writes them in, whatever a dict's own order.
empty_params states where every parameter dict keeps its tensors.
"""

import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import crf, encoder, tagging
from .corpus import (
    Vocab, build_bigram_vocab, featurize, load_embeddings, naming, preprocess,
    random_embeddings, sentence_bigrams, window_ids,
)
from .numerics import ShapeError
from .tagging import NUM_TAGS, decode_tags
from .worker import aligned_views

# The embedding tables, the only parameters read by row lookup: emb.uni,
# and emb.bi with bigrams on.  load_model keeps these in float32.
TABLES = ("emb.uni", "emb.bi")


@dataclass
class TrainConfig:
    batch_size: int = 50
    learning_rate: float = 0.1
    adagrad_epsilon: float = 1e-6
    dropout: float = 0.2
    epochs: int = 30
    seed: int = 42
    hidden: int = 150
    emb_dim: int = 100
    attn_dim: int = None
    extra_layers: int = 0
    window: int = 3
    bigrams: bool = False
    memory_span: int = None
    clip_norm: float = None
    dev_fraction: float = 0.1

    def __post_init__(self):
        # a bool (np.bool_ too) is not an int; numpy integer and real
        # scalars become plain ints and floats, and an integer given for
        # a float becomes a float if it is in a float's range, so a config
        # saves as plain JSON and a loaded one saves as it was saved; None
        # only where the default is None
        for f in fields(self):
            value = getattr(self, f.name)
            integral = isinstance(value, (int, np.integer)) \
                and not isinstance(value, bool)
            if f.type is int and integral:
                value = int(value)
            elif f.type is float and (
                    isinstance(value, (float, np.floating))
                    or integral and abs(value) <= sys.float_info.max):
                value = float(value)
            elif not (value is None and f.default is None
                      or type(value) is f.type):
                raise ValueError(
                    f"config field {f.name} must be {f.type.__name__}"
                    f"{' or null' if f.default is None else ''}, got {value!r}"
                )
            setattr(self, f.name, value)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        # nan fails both comparisons, inf the second
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if not 0.0 < self.adagrad_epsilon < np.inf:
            raise ValueError(
                f"adagrad_epsilon must be finite and > 0, got {self.adagrad_epsilon}"
            )
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.hidden < 1 or self.emb_dim < 1:
            raise ValueError("hidden and emb_dim must be >= 1")
        if self.attn_dim is not None and self.attn_dim < 1:
            raise ValueError(f"attn_dim must be >= 1, got {self.attn_dim}")
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and >= 1, got {self.window}")
        if self.clip_norm is not None and not 0.0 < self.clip_norm < np.inf:
            raise ValueError(f"clip_norm must be finite and > 0, got {self.clip_norm}")
        if not 0.0 < self.dev_fraction < 1.0:
            raise ValueError(
                f"dev_fraction must be in (0, 1), got {self.dev_fraction}"
            )
        if self.extra_layers not in (0, 1, 2):
            raise ValueError(f"extra_layers must be 0, 1 or 2, got {self.extra_layers}")
        if self.memory_span is not None and self.memory_span < 1:
            raise ValueError(f"memory_span must be >= 1, got {self.memory_span}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def input_dim(self):
        """Width of a featurized row, the encoder's input: `window`
        unigram embeddings per position, plus one bigram embedding when
        bigrams are on."""
        return (self.window + self.bigrams) * self.emb_dim

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """The config a dict (say, a parsed model.json) describes.

        The dict must name every field and no other, since a missing
        field would take its default, and every value must have its
        field's declared type, as the constructor checks.  A ValueError
        names the missing and unknown fields, or else the first field
        that breaks a rule.
        """
        if not isinstance(d, dict):
            raise ValueError(f"config must be a mapping, got {type(d).__name__}")
        if odd := sorted(d.keys() ^ {f.name for f in fields(cls)}):
            raise ValueError(f"config fields {odd} are missing or unknown")
        return cls(**d)


def param_shapes(config, vocab, bigram_vocab=None):
    """Name -> shape of every parameter of a model with this config and
    these vocabularies, in canonical order: the order build() makes
    them in and save_model writes them in."""
    uni, bi = TABLES
    shapes = {uni: (len(vocab), config.emb_dim)}
    if config.bigrams:
        shapes[bi] = (len(bigram_vocab), config.emb_dim)
    shapes.update(encoder.param_shapes(config))
    shapes["crf.trans"] = (NUM_TAGS + 2, NUM_TAGS + 2)
    return shapes


def empty_params(config, shapes, tables=np.float64):
    """Name -> an uninitialised, C-contiguous array of shapes[name], in
    the order of `shapes`, the param_shapes of a model with this config.

    This is the placement rule of every parameter dict the program makes.
    The encoder's tensors (encoder.param_shapes) are views into one block
    of the decode worker's shared region (worker.aligned_views), of one
    size for a given config, where the worker reads them in place and
    whose pages serve the next block of that size once no view of it is
    left.  The embedding tables (TABLES), of dtype `tables` (float32 for
    load_model, as params.bin stores them), and crf.trans, float64, are
    plain arrays that own their memory, since the worker never reads
    them.  encoder.init_params draws a build's encoder tensors into a
    block of the same size.
    """
    shared = aligned_views(encoder.param_shapes(config))
    return {name: shared[name] if name in shared else
            np.empty(shape, tables if name in TABLES else np.float64)
            for name, shape in shapes.items()}


def _add_rows(grad, ids, d_rows):
    """Add one sentence's embedding gradient to the table `grad` and
    return the sorted ids of the rows it changed.

    ids[t, j] is the row that input slot j of position t read, and
    d_rows[t, j] its gradient.  The sentence's own table covers only its
    unique rows and starts at +0.0; np.add.at adds slot j = 0, 1, ... and
    within each slot the positions in order, and then the table is added
    to those rows of `grad`.  That is the order and rounding of a table
    the size of the vocabulary (np.add.at straight into `grad` would
    round differently), whose other rows would add +0.0.
    """
    rows, slots = np.unique(ids.ravel(), return_inverse=True)
    slots = slots.reshape(ids.shape)
    table = np.zeros((len(rows), grad.shape[1]))
    for j in range(ids.shape[1]):
        np.add.at(table, slots[:, j], d_rows[:, j])
    grad[rows] += table
    return rows


class Segmenter:
    """A trained (or trainable) segmentation model.

    Holds the vocabularies, the parameter dict and the configuration;
    exposes loss/gradients of a sentence or a batch for training and
    masked Viterbi decoding for inference.
    """

    def __init__(self, config, vocab, params, bigram_vocab=None, lexicon=None):
        if config.bigrams != (bigram_vocab is not None):
            raise ValueError("bigram vocab must be present iff config.bigrams")
        self.config = config
        self.vocab = vocab
        self.bigram_vocab = bigram_vocab
        self.params = params
        self.lexicon = lexicon
        self.check_params()

    def check_params(self):
        """The param_shapes of the model's config and vocabularies, once
        self.params holds a tensor of each of those shapes and no other:
        a ValueError names the tensors it lacks or has beyond them, and a
        ShapeError those of another shape."""
        shapes = param_shapes(self.config, self.vocab, self.bigram_vocab)
        got = {name: p.shape for name, p in self.params.items()}
        if odd := sorted(got.keys() ^ shapes.keys()):
            raise ValueError(f"parameters {odd} are missing or extra for the config")
        if wrong := [f"{name} {got[name]} does not match {shape}"
                     for name, shape in shapes.items() if got[name] != shape]:
            raise ShapeError("parameters of other shapes than the config and "
                             f"vocabularies give: {', '.join(wrong)}")
        return shapes

    @classmethod
    def build(cls, train_corpus, config, embeddings=None, lexicon=None):
        """Fresh model over the training corpus's vocabulary.

        All random draws come from one generator seeded with config.seed,
        in a fixed order (embeddings, bigram embeddings, encoder), so a
        (corpus, config) pair always yields identical initial parameters.
        `embeddings`, the path of a pretrained vector file, gives the
        character table: load_embeddings reads it over this vocabulary
        and takes the first draw from the same generator, so the rows of
        tokens the file lacks, emb.bi and the encoder get the draws of
        the same build without the file.  Its width must be
        config.emb_dim; a file of another width is refused by name.
        """
        vocab = Vocab.build(sent.tokens for sent in train_corpus)
        rng = np.random.default_rng(config.seed)
        if embeddings is None:
            emb = random_embeddings(len(vocab), config.emb_dim, rng)
        else:
            emb = load_embeddings(embeddings, vocab, rng)
            with naming(embeddings):
                if emb.shape[1] != config.emb_dim:
                    raise ValueError(f"emb.uni {emb.shape} does not match ({len(vocab)}, "
                                     f"{config.emb_dim}): the vectors are {emb.shape[1]} "
                                     f"wide, emb_dim is {config.emb_dim}")
        params = {"emb.uni": emb}
        bigram_vocab = None
        if config.bigrams:
            bigram_vocab = build_bigram_vocab(train_corpus)
            params["emb.bi"] = random_embeddings(
                len(bigram_vocab), config.emb_dim, rng
            )
        params.update(encoder.init_params(config, rng))
        params["crf.trans"] = np.zeros((NUM_TAGS + 2, NUM_TAGS + 2))
        return cls(config, vocab, params, bigram_vocab, lexicon)

    def _features(self, tokens):
        """(featurized inputs, lookups) for one token sequence.  The
        lookups lay out an input row: (table name, (n, slots) ids)
        pairs in row order, a window of unigram ids and then, with
        bigrams on, one bigram id per position."""
        uni, bi = TABLES
        ids = self.vocab.encode(tokens)
        lookups = [(uni, window_ids(ids, self.config.window))]
        if self.bigram_vocab is not None:
            bigram_ids = np.array(
                self.bigram_vocab.encode(sentence_bigrams(tokens)), dtype=np.intp)
            lookups.append((bi, bigram_ids[:, None]))
        x = featurize([(self.params[name], ids) for name, ids in lookups])
        return x, lookups

    def emissions(self, tokens):
        """Per-tag scores (n, 4) for one token sequence, from an encoder
        pass without a cache or dropout (memory linear in n), plus the
        lookups it read, as _features gives them."""
        x, lookups = self._features(tokens)
        (scores,), _ = encoder.forward(self.params, self.config, [x],
                                       keep_cache=False)
        return scores, lookups

    def loss_and_grads(self, sentences, dropout=0.0, rng=None, into=None,
                       rows=None):
        """NLL of the gold tags and gradients for every parameter, for one
        Sentence or for a batch (a list of them) run in lock-step through
        one encoder forward and one backward call.

        One sentence gives (loss, grads); a batch gives (losses, grads),
        the per-sentence losses in batch order and the batch's
        gradients: the encoder's weights take theirs as one matrix
        product over all of the batch's rows (encoder.backward), the
        output layer and crf.trans the sum of each sentence's gradient
        in batch order, ((0 + g_1) + g_2) + ..., and the embedding
        tables each sentence's input gradient rows in batch order.  The
        forward pass, and so each loss, is bit-equal to the sentence's
        own.  The grads dict has exactly the keys of self.params.  Embedding
        gradients are tables with nonzero rows only where looked up: each
        sentence's gradient is summed over its own rows and added to
        those rows alone, so the work follows the rows looked up, not the
        size of the table.  With `into` (such a dict) the sums are added
        to its arrays in place and it is returned.  With `rows` (a dict)
        the call sets rows["emb.uni"], and rows["emb.bi"] with bigrams
        on, to the sorted ids of the rows the batch looked up: the only
        rows of those tables whose gradient it changed.  Without `into`
        every gradient is float64, a loaded model's float32 tables
        included.
        """
        single = not isinstance(sentences, (list, tuple))
        batch = [sentences] if single else sentences
        grads = into if into is not None else {
            name: np.zeros(p.shape) for name, p in self.params.items()
        }
        features = [self._features(sent.tokens) for sent in batch]
        scores, cache = encoder.forward(
            self.params, self.config, [x for x, _ in features],
            dropout=dropout, rng=rng,
        )
        trans = self.params["crf.trans"]
        losses, d_scores = [], []
        for sent, sent_scores in zip(batch, scores):
            loss, d_sent, d_trans = crf.nll_and_grads(sent_scores, trans, sent.tags)
            losses.append(loss)
            d_scores.append(d_sent)
            grads["crf.trans"] += d_trans
        d_inputs = encoder.backward(cache, d_scores, grads)
        looked_up = {}
        for (_, lookups), d_in in zip(features, d_inputs):
            at = 0
            for name, ids in lookups:
                d = grads[name].shape[1]
                width = ids.shape[1] * d
                looked_up.setdefault(name, []).append(_add_rows(
                    grads[name], ids,
                    d_in[:, at:at + width].reshape(ids.shape + (d,)),
                ))
                at += width
        if rows is not None:
            for name, ids in looked_up.items():
                rows[name] = np.unique(np.concatenate(ids))
        return (losses[0] if single else losses), grads

    def nll(self, sentence):
        """Loss only, skipping all gradient work (finite-difference
        probes call this thousands of times)."""
        scores, _ = self.emissions(sentence.tokens)
        trans = self.params["crf.trans"]
        return crf.log_partition(scores, trans) \
            - crf.sequence_score(scores, trans, sentence.tags)

    def decode(self, tokens):
        """Most likely tag sequence for a token sequence, or the list of
        them for a list of token sequences, in input order.  Every
        transition the BMES grammar forbids scores -inf, so each path is
        a valid BMES string.

        A list is decoded in lock-step chunks of config.batch_size
        sentences, in list order: one encoder pass without a cache per
        chunk, so memory holds one chunk's arrays at a time.  A path
        does not depend on the chunk it runs in, and an empty sequence
        decodes to [].
        """
        if not tokens:
            return []
        single = isinstance(tokens[0], str)
        sentences = [tokens] if single else tokens
        trans = np.where(tagging.transition_mask(), self.params["crf.trans"], -np.inf)
        size = self.config.batch_size
        paths = [[] for _ in sentences]
        nonempty = [s for s in range(len(sentences)) if sentences[s]]
        for start in range(0, len(nonempty), size):
            chunk = nonempty[start:start + size]
            scores, _ = encoder.forward(
                self.params, self.config,
                [self._features(sentences[s])[0] for s in chunk], keep_cache=False,
            )
            for s, sent_scores in zip(chunk, scores):
                paths[s], _ = crf.viterbi(sent_scores, trans)
        return paths[0] if single else paths

    def segment(self, line):
        """Raw text line -> list of words, spelled as in the line.

        Whitespace is a forced word boundary and belongs to no word, as
        in a corpus file: each whitespace-separated part of the line is
        preprocessed and decoded as a sentence of its own, all of them
        in one list decode, and its words are read off its own text, so
        "".join(words) == "".join(line.split()).
        """
        parts = []
        for part in line.split():
            sources = []
            parts.append((preprocess(part, self.lexicon, sources), sources))
        paths = self.decode([tokens for tokens, _ in parts])
        words = []
        for (_, sources), path in zip(parts, paths):
            words += decode_tags(sources, path)
        return words
