"""Chinese word segmentation with an attention-tape LSTM encoder and a
linear-chain CRF decoder, implemented from scratch on numpy."""

from .corpus import (
    Sentence, Vocab, load_corpus, load_embeddings, load_lexicon,
    load_toy_corpus, preprocess, split_train_dev,
)
from .evaluate import evaluate_corpus, tags_to_spans
from .model import Segmenter, TrainConfig
from .train import fit, load_model, save_model, train_epoch

__version__ = "0.1.0"

__all__ = [
    "Sentence", "Vocab", "load_corpus", "load_embeddings",
    "load_lexicon", "load_toy_corpus", "preprocess", "split_train_dev",
    "evaluate_corpus", "tags_to_spans",
    "Segmenter", "TrainConfig",
    "fit", "load_model", "save_model", "train_epoch",
    "__version__",
]
