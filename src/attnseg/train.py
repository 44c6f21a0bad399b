"""Mini-batched AdaGrad training, model selection, and serialization.

One epoch shuffles the corpus, walks it in batches (last partial batch
kept), and for each batch averages per-sentence gradients before a
single AdaGrad step over every parameter, transition scores included.
It reports the mean training NLL and decodes nothing.  fit() repeats
this, scores the dev set after each epoch with masked Viterbi decoding,
and keeps the parameters of the best dev-F1 epoch; each EpochRecord
holds the epoch number, the training NLL and the dev P/R/F1.
tag_accuracy() decodes a corpus for its tag accuracy when a caller
wants that figure.

Saved models are directories:

    model.json     format version, config, tag table
    vocab.txt      one token per line, id order
    bigrams.txt    same, only when the bigram channel is on
    lexicon.txt    idiom list, only when one was used
    params.bin     all tensors as binary32 little-endian, row-major,
                   concatenated in canonical parameter order
    manifest.json  per-tensor name/shape/byte-offset + sha256 of params.bin

Weights are stored in 32-bit but all arithmetic runs in 64-bit, so a
round-trip costs one quantization, not a behavioural change (decodes are
identical in practice because score gaps dwarf float32 resolution... and
the round-trip test enforces it).
"""

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .corpus import Vocab, load_lexicon
from .evaluate import evaluate_corpus
from .model import Segmenter, TrainConfig, pack_params, unpack_params
from .numerics import ShapeError, grad_check

FORMAT_VERSION = "attnseg-model/1"

__all__ = [
    "AdagradState", "EpochStats", "EpochRecord", "adagrad_update",
    "train_epoch", "fit", "tag_accuracy",
    "save_model", "load_model", "model_gradient_check", "TrainConfig",
]


@dataclass
class AdagradState:
    """Per-parameter sums of squared gradients."""

    accum: dict

    @classmethod
    def for_params(cls, params):
        return cls({name: np.zeros_like(p) for name, p in params.items()})


def adagrad_update(param, grad, accum, lr, eps):
    """One AdaGrad step, in place: G += g*g; p -= lr*g/(sqrt(G)+eps)."""
    if not (param.shape == grad.shape == accum.shape):
        raise ShapeError(
            f"param {param.shape}, grad {grad.shape} and accumulator "
            f"{accum.shape} must all match"
        )
    accum += grad * grad
    param -= lr * grad / (np.sqrt(accum) + eps)
    return param, accum


@dataclass
class EpochStats:
    nll: float


@dataclass
class EpochRecord:
    epoch: int
    nll: float
    precision: float
    recall: float
    f1: float


def tag_accuracy(model, corpus):
    """Fraction of positions where masked decoding returns the gold tag."""
    correct = 0
    total = 0
    for sent in corpus:
        path = model.decode(sent.tokens)
        correct += sum(1 for p, g in zip(path, sent.tags) if p == g)
        total += len(sent.tags)
    return correct / total


def _clip(grads, max_norm):
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return grads


def train_epoch(model, corpus, config, rng, state=None):
    """One pass over the corpus; returns EpochStats(mean NLL).

    The epoch computes only what training needs: per sentence a cached
    forward pass, the CRF loss and its gradients, and the backward pass;
    per batch one AdaGrad step.  Nothing is decoded; call tag_accuracy
    for the training-set accuracy.

    The rng drives the shuffle and every dropout mask, so a fixed
    (corpus, config, seed) triple replays bit-identically.  Training
    NLL is unmasked; decoding stays masked.
    """
    n = len(corpus)
    if n == 0:
        raise ValueError("cannot train on an empty corpus")
    if state is None:
        state = AdagradState.for_params(model.params)
    order = rng.permutation(n)
    total_nll = 0.0
    for start in range(0, n, config.batch_size):
        batch = order[start:start + config.batch_size]
        sums = {name: np.zeros_like(p) for name, p in model.params.items()}
        for idx in batch:
            sent = corpus[int(idx)]
            loss, grads = model.loss_and_grads(
                sent, dropout=config.dropout, rng=rng
            )
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite loss {loss!r} in the batch starting at "
                    f"shuffled position {start}"
                )
            total_nll += loss
            for name in sums:
                sums[name] += grads[name]
        inv = 1.0 / len(batch)
        for name in sums:
            sums[name] *= inv
        if config.clip_norm is not None:
            _clip(sums, config.clip_norm)
        for name in model.params:
            adagrad_update(
                model.params[name], sums[name], state.accum[name],
                config.learning_rate, config.adagrad_epsilon,
            )
    return EpochStats(nll=total_nll / n)


def fit(model, train_corpus, dev_corpus, config, on_epoch=None):
    """Train for config.epochs epochs, keep the best dev-F1 parameters.

    Returns (model, history); the model is updated in place to the best
    epoch's parameters.  Ties keep the earlier epoch.  on_epoch, if
    given, is called with each EpochRecord as it is produced.
    """
    if len(train_corpus) == 0 or len(dev_corpus) == 0:
        raise ValueError("need non-empty train and dev corpora")
    rng = np.random.default_rng(config.seed)
    state = AdagradState.for_params(model.params)
    history = []
    best_f1 = -1.0
    best_params = None
    for epoch in range(1, config.epochs + 1):
        stats = train_epoch(model, train_corpus, config, rng, state)
        precision, recall, f1 = evaluate_corpus(model, dev_corpus)
        record = EpochRecord(
            epoch=epoch, nll=stats.nll,
            precision=precision, recall=recall, f1=f1,
        )
        history.append(record)
        if on_epoch is not None:
            on_epoch(record)
        if f1 > best_f1:
            best_f1 = f1
            best_params = {name: p.copy() for name, p in model.params.items()}
    model.params = best_params
    return model, history


def _write_tokens(path, tokens):
    with open(path, "w", encoding="utf-8") as fh:
        for tok in tokens:
            fh.write(tok + "\n")


def save_model(model, directory):
    """Write the model directory format described in the module docstring."""
    os.makedirs(directory, exist_ok=True)
    meta = {
        "format": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "tags": {name: i for i, name in enumerate(("B", "M", "E", "S"))},
    }
    with open(os.path.join(directory, "model.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")
    _write_tokens(os.path.join(directory, "vocab.txt"), model.vocab.id_to_token)
    if model.bigram_vocab is not None:
        _write_tokens(
            os.path.join(directory, "bigrams.txt"),
            model.bigram_vocab.id_to_token,
        )
    if model.lexicon:
        _write_tokens(
            os.path.join(directory, "lexicon.txt"), sorted(model.lexicon)
        )
    entries = []
    blobs = []
    offset = 0
    for name, p in model.params.items():
        raw = np.ascontiguousarray(p, dtype="<f4").tobytes()
        entries.append({"name": name, "shape": list(p.shape), "offset": offset})
        blobs.append(raw)
        offset += len(raw)
    payload = b"".join(blobs)
    with open(os.path.join(directory, "params.bin"), "wb") as fh:
        fh.write(payload)
    manifest = {
        "params": entries,
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _read_tokens(path):
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


def load_model(directory):
    """Load a saved model directory, verifying format and checksum."""
    with open(os.path.join(directory, "model.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    version = meta.get("format")
    if version != FORMAT_VERSION:
        raise ValueError(f"unknown model format {version!r}")
    config = TrainConfig.from_dict(meta["config"])
    vocab = Vocab(_read_tokens(os.path.join(directory, "vocab.txt")))
    bigram_vocab = None
    if config.bigrams:
        bigram_vocab = Vocab(_read_tokens(os.path.join(directory, "bigrams.txt")))
    lexicon = None
    lex_path = os.path.join(directory, "lexicon.txt")
    if os.path.exists(lex_path):
        lexicon = load_lexicon(lex_path)
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(os.path.join(directory, "params.bin"), "rb") as fh:
        payload = fh.read()
    digest = hashlib.sha256(payload).hexdigest()
    if digest != manifest["sha256"]:
        raise ValueError(
            f"params.bin checksum {digest} does not match manifest "
            f"{manifest['sha256']}"
        )
    params = {}
    for entry in manifest["params"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        start = entry["offset"]
        end = start + 4 * count
        if end > len(payload):
            raise ValueError(f"parameter {entry['name']} overruns params.bin")
        flat = np.frombuffer(payload[start:end], dtype="<f4")
        params[entry["name"]] = flat.astype(np.float64).reshape(shape)
    return Segmenter(config, vocab, params, bigram_vocab, lexicon)


def model_gradient_check(model, sentence, step=1e-4, corrupt=False):
    """Max relative error of the full-model analytic gradient against
    central differences, on one sentence with dropout off.

    corrupt=True deliberately damages one gradient coordinate; callers
    use it to prove the harness can fail.
    """
    template = model.params
    point = pack_params(template)
    _, grads = model.loss_and_grads(sentence)
    analytic = pack_params({name: grads[name] for name in template})
    if corrupt:
        analytic = analytic.copy()
        analytic[0] += 0.5

    def f(vec):
        saved = model.params
        model.params = unpack_params(vec, template)
        try:
            return model.nll(sentence)
        finally:
            model.params = saved

    return grad_check(f, analytic, point, step=step)
