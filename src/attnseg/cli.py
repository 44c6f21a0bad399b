"""Command-line interface: train, segment, eval, gradcheck.

Data outputs (epoch lines, segmented text, scores) go to stdout or the
requested file; progress notes go to stderr, so piping stdout stays
clean.  `train` and `gradcheck` take --seed (default 42); every
subcommand is deterministic given identical arguments and inputs.
"""

import argparse
import contextlib
import sys
from dataclasses import fields

import numpy as np

from . import tagging
from .corpus import (
    Sentence, load_corpus, load_lexicon, read_lines, read_sentences,
    split_train_dev,
)
from .evaluate import score_segmentations
from .model import Segmenter, TrainConfig
from .train import fit, load_model, model_gradient_check, save_model

GRADCHECK_THRESHOLD = 1e-3

# argparse settings beyond name, type and default for the `train` flags
# built from TrainConfig's fields
_TRAIN_FLAG_EXTRAS = {
    "attn_dim": {"help": "attention dimension (default: same as --hidden)"},
    "extra_layers": {"choices": (0, 1, 2)},
    "bigrams": {"help": "add character-bigram embeddings"},
    "memory_span": {"help": "cap attention to the last N tape entries"},
}


def _log(msg):
    print(msg, file=sys.stderr)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="attnseg",
        description="Chinese word segmentation with an attention-tape "
        "LSTM encoder and a CRF decoder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model")
    p_train.add_argument("--train", required=True, help="training corpus "
                         "(one sentence per line, words space-separated)")
    p_train.add_argument("--dev", help="development corpus; with no dev "
                         "file 10%% of the training sentences are held out")
    p_train.add_argument("--out", required=True, help="model directory to write")
    p_train.add_argument("--embeddings", help="pretrained embeddings, text "
                         "format ('count dim' header, token + values per line)")
    p_train.add_argument("--lexicon", help="idiom list, one per line")
    for f in fields(TrainConfig):
        flag = "--" + f.name.replace("_", "-")
        extra = _TRAIN_FLAG_EXTRAS.get(f.name, {})
        if f.type is bool:
            p_train.add_argument(flag, action="store_true", **extra)
        else:
            p_train.add_argument(flag, type=f.type, default=f.default, **extra)

    p_seg = sub.add_parser("segment", help="segment raw text")
    p_seg.add_argument("--model", required=True, help="model directory")
    p_seg.add_argument("--input", required=True, help="raw sentences, one per line")
    p_seg.add_argument("--output", help="output file (default: stdout)")

    p_eval = sub.add_parser("eval", help="score a segmentation against gold")
    p_eval.add_argument("--gold", required=True)
    p_eval.add_argument("--pred", required=True)

    p_gc = sub.add_parser(
        "gradcheck",
        help="verify analytic gradients of the full model numerically",
    )
    p_gc.add_argument("--seed", type=int, default=42)
    return parser


def _run_train(args):
    lexicon = load_lexicon(args.lexicon) if args.lexicon else None
    config = TrainConfig(**{f.name: getattr(args, f.name)
                            for f in fields(TrainConfig)})
    train_corpus = load_corpus(args.train, lexicon)
    if args.dev:
        dev_corpus = load_corpus(args.dev, lexicon)
    else:
        train_corpus, dev_corpus = split_train_dev(
            train_corpus, config.dev_fraction, config.seed
        )
        held = 100.0 * config.dev_fraction
        _log(
            f"no dev file; holding out {len(dev_corpus)} of "
            f"{len(train_corpus) + len(dev_corpus)} sentences "
            f"({100.0 - held:.0f}/{held:.0f} split)"
        )
    model = Segmenter.build(
        train_corpus, config, embeddings=args.embeddings, lexicon=lexicon
    )
    _log(
        f"training: {len(train_corpus)} sentences, vocab {len(model.vocab)}, "
        f"batch={config.batch_size} hidden={config.hidden} "
        f"emb={config.emb_dim} window={config.window}"
    )

    def on_epoch(rec):
        print(
            f"epoch={rec.epoch} nll={rec.nll:.6f} p={rec.precision:.4f} "
            f"r={rec.recall:.4f} f1={rec.f1:.4f}",
            flush=True,
        )

    fit(model, train_corpus, dev_corpus, config, on_epoch=on_epoch)
    save_model(model, args.out)
    _log(f"model written to {args.out}")
    return 0


def _run_segment(args):
    model = load_model(args.model)
    # read whole before the output opens, so --output may name the input
    lines = read_lines(args.input)
    with (contextlib.nullcontext(sys.stdout) if args.output is None
          else open(args.output, "w", encoding="utf-8")) as out:
        for line in lines:
            out.write(" ".join(model.segment(line)) + "\n")
    return 0


def _run_eval(args):
    precision, recall, f1 = score_segmentations(read_sentences(args.gold),
                                                read_sentences(args.pred))
    print(f"p={precision:.4f} r={recall:.4f} f1={f1:.4f}")
    return 0


def gradcheck_fixture(seed):
    """Small random model and sentence for the gradient harness:
    hidden 5, attention 4, embeddings 6, window 1."""
    # the config first: it checks the seed before the generator takes it
    config = TrainConfig(
        hidden=5, emb_dim=6, attn_dim=4, window=1,
        dropout=0.0, batch_size=1, epochs=1, seed=seed,
    )
    rng = np.random.default_rng(seed)
    alphabet = list("abcdef")
    length = int(rng.integers(3, 6))
    chars = [alphabet[int(rng.integers(len(alphabet)))] for _ in range(length)]
    words = []
    pos = 0
    while pos < length:
        step = int(rng.integers(1, min(3, length - pos) + 1))
        words.append("".join(chars[pos:pos + step]))
        pos += step
    sentence = Sentence(tokens=chars, tags=tagging.encode_tags(words))
    model = Segmenter.build([sentence], config)
    # redraw every parameter at scale 0.5: training-time init is tiny,
    # which leaves some attention gradients at the finite-difference
    # noise floor and makes the check indecisive either way; in place, so
    # the encoder's tensors stay in their region block (worker.py, Weights)
    for p in model.params.values():
        p[...] = rng.normal(0.0, 0.5, size=p.shape)
    return model, sentence


def _run_gradcheck(args):
    model, sentence = gradcheck_fixture(args.seed)
    err = model_gradient_check(model, sentence)
    print(f"max_rel_err={err:.6e}")
    return 0 if err < GRADCHECK_THRESHOLD else 1


def main(argv=None):
    args = _build_parser().parse_args(argv)
    runners = {
        "train": _run_train,
        "segment": _run_segment,
        "eval": _run_eval,
        "gradcheck": _run_gradcheck,
    }
    try:
        return runners[args.command](args)
    except (OSError, ValueError, FloatingPointError) as exc:
        _log(f"error: {exc}")
        return 1
    except MemoryError as exc:
        # numpy's names the array it could not allocate; a bare one is empty
        _log(f"error: {str(exc) or 'out of memory'}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
