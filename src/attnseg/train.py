"""Mini-batched AdaGrad training, model selection, and serialization.

One epoch shuffles the corpus, walks it in batches (last partial batch
kept), and for each batch averages per-sentence gradients before a
single AdaGrad step over every parameter, transition scores included.
Every parameter takes that step on one path, through one selection: an
embedding table's rows that the batch looked up, since every other
row's gradient is zero and its step a no-op, and any other parameter
whole, through Ellipsis, as a view that costs no copy.  Only the norm
of clip_norm still reads each table whole.  AdaGrad's temporaries are
the size of the array it gets: a table's looked-up rows, or one other
parameter, the largest of which is cell.w (2.16 MB at paper
dimensions).  So training holds the parameters, their accumulators and
batch gradient sums, and fit's copy of the best epoch's parameters; a
batch's work and temporaries follow its rows, not the vocabulary.  An
epoch reports the mean training NLL and decodes
nothing.  fit() repeats this, scores the dev set after each epoch with
masked Viterbi decoding (one list decode, in lock-step chunks of
batch_size), and keeps the parameters of the best dev-F1 epoch; each
EpochRecord holds the epoch number, the training NLL and the dev P/R/F1.
tag_accuracy() decodes a corpus for its tag accuracy when a caller
wants that figure.

Saved models are directories, format attnseg-model/2:

    model.json     format version, config, tag table
    vocab.txt      one token per line, id order
    bigrams.txt    same, only when the bigram channel is on
    lexicon.txt    idiom list, only when one was used
    params.bin     all tensors as binary32 little-endian, row-major,
                   concatenated in the canonical order and shapes of
                   model.param_shapes(config, vocabularies)
    manifest.json  file name -> sha256 of each file above that is present

params.bin is written and read in chunks, through one float32 scratch
of IO_CHUNK values: saving holds no copy of the parameters, and loading
holds them once, the encoder's tensors as views into one block of the
decode worker's shared region, where the worker reads them without a
copy, and every other tensor as a plain array that owns its memory, the
rule of every parameter dict (worker.py, Weights).  A build's encoder
tensors and fit's copy of the best epoch's take the same shared block,
of one size per config, so each reuses the pages of a freed one.

Weights are stored in 32-bit but all arithmetic runs in 64-bit, so a
round-trip costs one quantization, not a behavioural change (decodes are
identical in practice because score gaps dwarf float32 resolution... and
the round-trip test enforces it).  A loaded model keeps its embedding
tables (model.TABLES) in float32, as stored, and every other tensor in
float64; featurize widens the rows it looks up, exactly, so a loaded
model's outputs are those of the same model with its tables widened.
Training needs float64 throughout: widen a loaded model's tables first
with `params[name] = params[name].astype(np.float64)` (exact), or
train_epoch refuses it.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import encoder
from .corpus import Vocab, decode_lines, lexicon_from_lines
from .evaluate import evaluate_corpus
from .model import TABLES, Segmenter, TrainConfig, param_shapes
from .numerics import ShapeError, grad_check
from .tagging import TAG_IDS
from .worker import aligned_views

FORMAT_VERSION = "attnseg-model/2"
_REQUIRED_FILES = {"model.json", "vocab.txt", "params.bin"}
_MODEL_FILES = _REQUIRED_FILES | {"bigrams.txt", "lexicon.txt"}

__all__ = [
    "EpochRecord", "adagrad_update",
    "train_epoch", "fit", "tag_accuracy",
    "save_model", "load_model", "model_gradient_check", "TrainConfig",
]


# values per params.bin chunk; one float32 scratch of IO_CHUNK values
# (256 KB) carries every tensor through save_model and load_model
IO_CHUNK = 2 ** 16


def adagrad_update(param, grad, accum, lr, eps):
    """One AdaGrad step, in place: G += g*g; p -= lr*g/(sqrt(G)+eps).

    param, grad and accum must be of one shape; any of them may be a
    strided view, whose parent the step writes through.  `grad` is not
    changed.  The temporaries are the size of `param`: train_epoch
    passes a table's looked-up rows or one other parameter.
    """
    if not (param.shape == grad.shape == accum.shape):
        raise ShapeError(
            f"param {param.shape}, grad {grad.shape} and accumulator "
            f"{accum.shape} must all match"
        )
    accum += grad * grad
    param -= lr * grad / (np.sqrt(accum) + eps)
    return param, accum


@dataclass
class EpochRecord:
    epoch: int
    nll: float
    precision: float
    recall: float
    f1: float


def tag_accuracy(model, corpus):
    """Fraction of positions where masked decoding returns the gold tag;
    the corpus is decoded with one list call to model.decode."""
    if len(corpus) == 0:
        raise ValueError("cannot score an empty corpus")
    paths = model.decode([sent.tokens for sent in corpus])
    correct = sum(p == g for path, sent in zip(paths, corpus)
                  for p, g in zip(path, sent.tags))
    return correct / sum(len(sent.tags) for sent in corpus)


def _scale(grads, rows, factor):
    """grads *= factor, over the selection of train_epoch's update: the
    listed rows of each table in `rows` (name -> row ids), and the whole
    of every other gradient through Ellipsis."""
    for name, g in grads.items():
        g[rows.get(name, ...)] *= factor


def _clip(grads, rows, max_norm):
    """Scale the gradients to a global norm of at most max_norm.

    The norm sums each whole dense gradient, embedding tables included:
    skipping their zero rows would change the grouping of np.sum's
    pairwise summation.  This is the only per-batch work of train_epoch
    that grows with the vocabulary; the scaling itself touches only the
    looked-up rows.
    """
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm > max_norm:
        _scale(grads, rows, max_norm / norm)


def train_epoch(model, corpus, config, rng, accum):
    """One pass over the corpus; returns the mean training NLL.

    The epoch computes only what training needs: per batch one
    loss_and_grads call, which runs the batch's sentences in lock-step
    through a cached forward pass, the CRF loss and its gradients and the
    backward pass, then one AdaGrad step.  Nothing is decoded; call
    tag_accuracy for the training-set accuracy.

    `accum` maps each parameter name to its AdaGrad sum of squared
    gradients, an array of the parameter's shape (zeros before the first
    epoch), and is updated in place: fit passes one dict to every
    epoch.

    Per batch every parameter runs one sequence over one selection,
    `rows.get(name, ...)`: the 1/B scaling, the AdaGrad step on the
    selection, gathered and written back, with temporaries of the
    selection's size, and the re-zeroing of the sums.  An embedding
    table's selection is the rows the batch looked up; every other
    row's gradient is exactly +0.0, for which the AdaGrad step is a
    bitwise no-op, so skipping it changes no parameter bit.  Any other
    parameter's selection is Ellipsis, the whole array: `param[...]` is
    a view, so the step runs in place, and numpy skips the write-back
    of an array onto its own memory, so a whole parameter costs no
    copy.  With clip_norm set, the norm still sums each whole table
    (see _clip).

    The rng drives the shuffle and every dropout mask, so a fixed
    (corpus, config, seed) triple replays bit-identically, and the batch
    sums and losses add up sentence by sentence in shuffled order, as a
    loop over single sentences would.  Training NLL is unmasked;
    decoding stays masked.

    Every parameter must be float64: a ValueError names the first that
    is not (a loaded model's float32 tables, until widened) before any
    work is done.
    """
    for name, p in model.params.items():
        if p.dtype != np.float64:
            raise ValueError(
                f"parameter {name} is {p.dtype}, not float64: widen a loaded "
                f"model's tables with astype(np.float64) before training"
            )
    n = len(corpus)
    if n == 0:
        raise ValueError("cannot train on an empty corpus")
    order = rng.permutation(n)
    total_nll = 0.0
    # reused by every batch: the gradient sums, zero outside the rows
    # being summed
    sums = {name: np.zeros_like(p) for name, p in model.params.items()}
    for start in range(0, n, config.batch_size):
        batch = order[start:start + config.batch_size]
        rows = {}
        losses, grads = model.loss_and_grads(
            [corpus[int(idx)] for idx in batch], dropout=config.dropout,
            rng=rng, into=sums, rows=rows,
        )
        for loss in losses:
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite loss {loss!r} in the batch starting at "
                    f"shuffled position {start}"
                )
            total_nll += loss
        _scale(grads, rows, 1.0 / len(batch))
        if config.clip_norm is not None:
            _clip(grads, rows, config.clip_norm)
        for name, param in model.params.items():
            grad, acc = grads[name], accum[name]
            # a table's looked-up rows, gathered; any other parameter
            # whole, as views that the write-back assigns onto themselves
            ids = rows.get(name, ...)
            p, a = param[ids], acc[ids]
            adagrad_update(p, grad[ids], a, config.learning_rate,
                           config.adagrad_epsilon)
            param[ids], acc[ids] = p, a
            grad[ids] = 0.0
    return total_nll / n


def fit(model, train_corpus, dev_corpus, config, on_epoch=None):
    """Train for config.epochs epochs, keep the best dev-F1 parameters.

    Returns (model, history); the model is updated in place to the best
    epoch's parameters.  Ties keep the earlier epoch.  on_epoch, if
    given, is called with each EpochRecord as it is produced.
    """
    if len(train_corpus) == 0 or len(dev_corpus) == 0:
        raise ValueError("need non-empty train and dev corpora")
    rng = np.random.default_rng(config.seed)
    accum = {name: np.zeros_like(p) for name, p in model.params.items()}
    history = []
    # F1 is at least 0, so epoch 1 always fills `best`
    best_f1 = -1.0
    # the encoder's tensors in a shared block of the size a build or a
    # load of this config takes, so that a freed one serves it
    shared = aligned_views(encoder.param_shapes(model.config))
    best = {name: shared[name] if name in shared else np.empty_like(p)
            for name, p in model.params.items()}
    for epoch in range(1, config.epochs + 1):
        nll = train_epoch(model, train_corpus, config, rng, accum)
        precision, recall, f1 = evaluate_corpus(model, dev_corpus)
        record = EpochRecord(
            epoch=epoch, nll=nll,
            precision=precision, recall=recall, f1=f1,
        )
        history.append(record)
        if on_epoch is not None:
            on_epoch(record)
        if f1 > best_f1:
            best_f1 = f1
            for name, p in model.params.items():
                np.copyto(best[name], p)
    model.params = best
    return model, history


def _token_lines(tokens):
    # one join over the tokens themselves, not a "tok\n" string per token
    return "\n".join([*tokens, ""]).encode("utf-8")


def save_model(model, directory):
    """Write the model directory format described in the module docstring.

    params.bin takes the tensors in the order of model.param_shapes,
    whatever the order of model.params, which must hold them all in
    their shapes and no other (Segmenter.check_params) before any file
    is written.
    """
    shapes = model.check_params()
    os.makedirs(directory, exist_ok=True)
    meta = {"format": FORMAT_VERSION, "config": model.config.to_dict(),
            "tags": TAG_IDS}
    files = {
        "model.json": (json.dumps(meta, ensure_ascii=False, indent=2,
                                  sort_keys=True) + "\n").encode("utf-8"),
        "vocab.txt": _token_lines(model.vocab.id_to_token),
    }
    if model.bigram_vocab is not None:
        files["bigrams.txt"] = _token_lines(model.bigram_vocab.id_to_token)
    if model.lexicon:
        files["lexicon.txt"] = _token_lines(sorted(model.lexicon))
    digests = {}
    for name, raw in files.items():
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(raw)
        digests[name] = hashlib.sha256(raw).hexdigest()
    scratch = np.empty(IO_CHUNK, dtype="<f4")
    digest = hashlib.sha256()
    with open(os.path.join(directory, "params.bin"), "wb") as fh:
        for p in map(model.params.get, shapes):
            # a non-contiguous tensor goes through its flatiter, whose
            # slices copy one chunk in C order
            flat = p.reshape(-1) if p.flags.c_contiguous else p.flat
            for start in range(0, p.size, IO_CHUNK):
                chunk = scratch[:min(IO_CHUNK, p.size - start)]
                np.copyto(chunk, flat[start:start + IO_CHUNK])
                fh.write(chunk)
                digest.update(chunk)
    digests["params.bin"] = digest.hexdigest()
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(digests, indent=2) + "\n")


def _parse_json_object(raw, path, keys):
    """The JSON object in `raw`, the bytes of the file at `path`, which
    must hold `keys`; a ValueError names the file and what is wrong with
    it."""
    try:
        data = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path} holds a {type(data).__name__}, not a JSON object")
    for key in keys:
        if key not in data:
            raise ValueError(f"{path} has no {key!r} field")
    return data


def _check_digest(path, digest, want, manifest_path):
    if digest != want:
        raise ValueError(
            f"{path}: checksum {digest} does not match {want!r} in "
            f"{manifest_path}"
        )


def _read_params(path, shapes, shared, want, manifest_path):
    """The tensors of params.bin at `path`, name -> array of shapes[name]
    (shapes in file order), streamed through one float32 scratch of
    IO_CHUNK values: the embedding tables (model.TABLES) as float32, the
    type the file stores, and every other tensor as float64.

    The whole file is hashed whatever its size; then it must match the
    sha256 `want` that manifest_path gives, hold exactly 4 bytes per
    value and hold only finite values, checked in that order.  The
    tensors are filled only when fstat gives that size.  The tensors
    named in `shared`, the encoder's, are 64-byte-aligned views into one
    block of the shared region (worker.aligned_views), which the decode
    worker reads in place, so a decode sends it no weight; every other
    tensor is a plain array that owns its memory.  Once no view of a
    shared block is left, its pages serve the next block of the same
    size, a build's or a load's, so a repeated load faults in no fresh
    page there.
    """
    counts = [math.prod(shape) for shape in shapes.values()]
    size = 4 * sum(counts)
    scratch = np.empty(IO_CHUNK, dtype="<f4")
    raw = scratch.view(np.uint8)
    digest = hashlib.sha256()
    got = 0
    params, nonfinite = None, None
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == size:
            views = aligned_views({name: shapes[name] for name in shared})
            params = {name: views[name] if name in views else np.empty(
                shape, scratch.dtype if name in TABLES else np.float64)
                for name, shape in shapes.items()}
            for (name, p), count in zip(params.items(), counts):
                dest = p.reshape(-1)
                for at in range(0, count, IO_CHUNK):
                    n = min(IO_CHUNK, count - at)
                    nbytes = fh.readinto(raw[:4 * n])
                    digest.update(raw[:nbytes])
                    got += nbytes
                    if nonfinite is None and not np.isfinite(scratch[:n]).all():
                        nonfinite = name
                    np.copyto(dest[at:at + n], scratch[:n])
        while nbytes := fh.readinto(raw):
            digest.update(raw[:nbytes])
            got += nbytes
    _check_digest(path, digest.hexdigest(), want, manifest_path)
    if got != size or params is None:
        raise ValueError(
            f"{path} holds {got} bytes, the config and vocabularies "
            f"give {size}"
        )
    if nonfinite is not None:
        raise ValueError(f"{path}: parameter {nonfinite} holds a non-finite value")
    return params


def load_model(directory):
    """Load a saved model directory.

    manifest.json must give the sha256 of model.json, vocab.txt and
    params.bin, of bigrams.txt exactly when the config turns bigrams on,
    and of no other file than lexicon.txt.  Each listed file is read
    once and must match its sha256; no other file is read.  model.json
    must name this format and tag table, and params.bin must hold the
    tensors the config and vocabularies imply, every value finite.

    params.bin is streamed through a fixed scratch and hashed to its
    end before any of its checks fails, so a corrupted file reports its
    checksum first.  The loaded tensors are C-contiguous, writable
    arrays that share no memory with one another: the embedding tables
    (model.TABLES) are float32, as stored, and every other tensor is
    float64.  The encoder's tensors lie in one block of the decode
    worker's shared region, where the worker reads them without a copy;
    its pages serve the next build or load of the same config once the
    model is gone, and a fork other than the worker's copies them.  The
    tables and crf.trans are plain arrays that own their memory (see
    _read_params).  Outputs are those of the model with its tables
    widened, since featurize widens the rows it reads and float32 to
    float64 is exact; to train the model, widen its tables first with
    astype(np.float64), or train_epoch refuses it.
    """
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path, "rb") as fh:
        digests = _parse_json_object(fh.read(), manifest_path, ())
    if not _REQUIRED_FILES <= digests.keys() <= _MODEL_FILES:
        raise ValueError(
            f"{manifest_path} is not an {FORMAT_VERSION} manifest (the sha256 "
            f"of model.json, vocab.txt, params.bin and of no other file than "
            f"bigrams.txt and lexicon.txt); retrain models of older formats"
        )

    def read(name):
        """(bytes, path) of a listed file whose bytes match its sha256."""
        path = os.path.join(directory, name)
        with open(path, "rb") as fh:
            raw = fh.read()
        _check_digest(path, hashlib.sha256(raw).hexdigest(), digests[name],
                      manifest_path)
        return raw, path

    raw, meta_path = read("model.json")
    meta = _parse_json_object(raw, meta_path, ("format", "config", "tags"))
    if meta["format"] != FORMAT_VERSION:
        raise ValueError(
            f"{meta_path}: unknown model format {meta['format']!r}, "
            f"expected {FORMAT_VERSION!r}"
        )
    if meta["tags"] != TAG_IDS:
        raise ValueError(
            f"{meta_path}: tag table {meta['tags']!r} is not {TAG_IDS!r}"
        )
    config = TrainConfig.from_dict(meta["config"])
    if config.bigrams != ("bigrams.txt" in digests):
        raise ValueError(
            f"{meta_path} has bigrams {config.bigrams}, but {manifest_path} "
            f"{'does not list' if config.bigrams else 'lists'} bigrams.txt"
        )

    def read_vocab(name):
        """The Vocab of a listed token file; its errors name the file."""
        raw, path = read(name)
        lines = decode_lines(raw, path)
        try:
            return Vocab(lines)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    vocab = read_vocab("vocab.txt")
    bigram_vocab = read_vocab("bigrams.txt") if config.bigrams else None
    lexicon = None
    if "lexicon.txt" in digests:
        lexicon = lexicon_from_lines(decode_lines(*read("lexicon.txt")))
    shapes = param_shapes(config, vocab, bigram_vocab)
    params = _read_params(os.path.join(directory, "params.bin"), shapes,
                          encoder.param_shapes(config), digests["params.bin"],
                          manifest_path)
    return Segmenter(config, vocab, params, bigram_vocab, lexicon)


def _pack_params(params):
    """All parameters as one float64 vector, in the dict's order."""
    return np.concatenate([p.ravel() for p in params.values()])


def _unpack_params(vector, template):
    """The parameter dict of a _pack_params vector, with the shapes and
    order of `template`; its arrays are views into `vector`."""
    ends = np.cumsum([p.size for p in template.values()])
    return {name: part.reshape(p.shape) for (name, p), part
            in zip(template.items(), np.split(vector, ends[:-1]))}


def model_gradient_check(model, sentence):
    """Max relative error of the full-model analytic gradient against
    central differences, on one sentence with dropout off."""
    template = model.params
    point = _pack_params(template)
    _, grads = model.loss_and_grads(sentence)
    analytic = _pack_params({name: grads[name] for name in template})

    def f(vec):
        saved = model.params
        model.params = _unpack_params(vec, template)
        try:
            return model.nll(sentence)
        finally:
            model.params = saved

    return grad_check(f, analytic, point)
