import random
import re
import string

import numpy as np
import pytest

from attnseg.corpus import Sentence
from attnseg.evaluate import (
    _micro_average, evaluate_corpus, score_counts, score_segmentations,
    tags_to_spans,
)
from attnseg.tagging import TAG_IDS, encode_tags
from oracles import CHAR_POOL, bakeoff_scores, random_segmentation


def tags_of(s):
    return [TAG_IDS[c] for c in s]


def test_tags_to_spans_reference_sentence():
    got = tags_to_spans(tags_of("BESBMEBEBE"))
    assert got == {(0, 2), (2, 3), (3, 6), (6, 8), (8, 10)}


def test_tags_to_spans_single():
    assert tags_to_spans(tags_of("S")) == {(0, 1)}


def test_tags_to_spans_empty():
    assert tags_to_spans([]) == set()


def test_tags_to_spans_repairs_invalid():
    assert tags_to_spans(tags_of("MME")) == {(0, 3)}


def test_tags_to_spans_matches_encoded_segmentations():
    rng = np.random.default_rng(64)
    for _ in range(500):
        words = random_segmentation(rng, max_len=20)
        spans = tags_to_spans(encode_tags(words))
        pos = 0
        want = set()
        for w in words:
            want.add((pos, pos + len(w)))
            pos += len(w)
        assert spans == want


def test_score_segmentations_hand_case_is_exact():
    p, r, f1 = score_segmentations([["ab", "c"]], [["a", "b", "c"]])
    assert p == 1 / 3
    assert r == 1 / 2
    assert f1 == 0.4


def test_micro_average_identity():
    spans = {(0, 2), (2, 3)}
    assert _micro_average([(spans, spans)]) == (1.0, 1.0, 1.0)


def test_micro_average_disjoint():
    assert _micro_average([({(0, 2)}, {(0, 1), (1, 2)})]) == (0.0, 0.0, 0.0)


def test_micro_average_empty_sets_use_zero_convention():
    assert _micro_average([(set(), set())]) == (0.0, 0.0, 0.0)
    assert _micro_average([]) == (0.0, 0.0, 0.0)


def test_micro_average_f1_between_p_and_r():
    rng = np.random.default_rng(65)
    for _ in range(300):
        n = int(rng.integers(1, 15))
        gold = tags_to_spans(encode_tags(random_segmentation(rng, max_len=n)))
        pred = tags_to_spans(encode_tags(random_segmentation(rng, max_len=n)))
        p, r, f1 = _micro_average([(gold, pred)])
        assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f1 <= 1.0
        if p > 0 and r > 0:
            assert min(p, r) - 1e-15 <= f1 <= max(p, r) + 1e-15


class FakeModel:
    """Decodes a list of token sequences to a canned tag sequence per
    sentence text, as evaluate_corpus calls it."""

    def __init__(self, answers):
        self.answers = answers

    def decode(self, sentences):
        return [self.answers["".join(tokens)] for tokens in sentences]


def sentence(words):
    return Sentence(tokens=list("".join(words)), tags=encode_tags(words))


def test_evaluate_corpus_perfect_model():
    corpus = [sentence(["你好", "吗"]), sentence(["去", "北京"])]
    model = FakeModel({
        "你好吗": encode_tags(["你好", "吗"]),
        "去北京": encode_tags(["去", "北京"]),
    })
    assert evaluate_corpus(model, corpus) == (1.0, 1.0, 1.0)


def test_micro_average_hand_arithmetic():
    # per-sentence counts (correct, pred, gold) = (1,2,2) and (1,1,2)
    # pool to 2/3/4 before the ratios
    from attnseg.evaluate import _ratios

    p, r, f1 = _ratios(1 + 1, 2 + 1, 2 + 2)
    assert p == 2 / 3
    assert r == 2 / 4
    assert abs(f1 - 4 / 7) < 1e-15


def test_evaluate_corpus_micro_average_end_to_end():
    # sentence A: gold 你|好吗, predicted 你|好|吗 -> counts (1, 3, 2)
    # sentence B: gold 北京, predicted 北京 -> counts (1, 1, 1)
    # pooled: P = 2/4, R = 2/3, F1 = 4/7
    corpus = [sentence(["你", "好吗"]), sentence(["北京"])]
    model = FakeModel({
        "你好吗": encode_tags(["你", "好", "吗"]),
        "北京": encode_tags(["北京"]),
    })
    p, r, f1 = evaluate_corpus(model, corpus)
    assert p == 2 / 4
    assert r == 2 / 3
    assert abs(f1 - 4 / 7) < 1e-15


def test_evaluate_corpus_single_sentence_equals_character_score():
    gold_words, pred_words = ["你好", "吗"], ["你", "好吗"]
    model = FakeModel({"你好吗": encode_tags(pred_words)})
    assert evaluate_corpus(model, [sentence(gold_words)]) \
        == score_segmentations([gold_words], [pred_words])


def test_evaluate_corpus_identical_sentences_equal_single():
    gold_words = ["你好", "吗"]
    pred_tags = encode_tags(["你", "好吗"])
    model = FakeModel({"你好吗": pred_tags})
    one = evaluate_corpus(model, [sentence(gold_words)])
    many = evaluate_corpus(model, [sentence(gold_words)] * 7)
    assert one == many


def test_evaluate_corpus_empty_errors():
    with pytest.raises(ValueError):
        evaluate_corpus(FakeModel({}), [])


def test_score_segmentations_perfect():
    a = [["你好", "吗"]]
    b = [["你好", "吗"]]
    assert score_segmentations(a, b) == (1.0, 1.0, 1.0)


def test_score_segmentations_size_mismatch():
    a = [["你好"]]
    b = [["你好"], ["吗"]]
    with pytest.raises(ValueError, match="size"):
        score_segmentations(a, b)


def test_score_segmentations_rejects_different_text():
    # as many characters, but not the same text
    a = [["你好", "吗"], ["我们", "是"]]
    b = [["你好", "吗"], ["你们", "去"]]
    with pytest.raises(ValueError, match="sentence 2: texts differ at character 1: "
                                         "gold '我', prediction '你'"):
        score_segmentations(a, b)
    c = [["你好", "吗"], ["我们", "去"]]
    with pytest.raises(ValueError, match="sentence 2: .* character 3: "):
        score_segmentations(a, c)


def test_score_segmentations_char_mismatch_names_sentence():
    a = [["你好", "吗"]]
    b = [["你好"]]
    with pytest.raises(ValueError, match="sentence 1"):
        score_segmentations(a, b)


# Han, ASCII and fullwidth letters and digits: preprocess would collapse
# the Latin and digit runs, the character score does not
FUZZ_POOL = CHAR_POOL + string.ascii_letters + string.digits + "".join(
    chr(ord(c) + 0xFEE0) for c in string.ascii_letters + string.digits)


def split_at_random(rng, text):
    return "".join(ch + rng.choice(("", " ")) for ch in text)


def test_score_segmentations_matches_character_span_oracle():
    rng = random.Random(2005)
    texts, gold_lines, pred_lines = [], [], []
    for _ in range(300):
        length = rng.randrange(1, 16)
        text = "".join(rng.choice(FUZZ_POOL) for _ in range(length))
        gold_line, pred_line = (split_at_random(rng, text) for _ in range(2))
        assert score_segmentations([gold_line.split()], [pred_line.split()]) \
            == bakeoff_scores([gold_line], [pred_line]), (gold_line, pred_line)
        texts.append(text)
        gold_lines.append(gold_line)
        pred_lines.append(pred_line)
    gold = [line.split() for line in gold_lines]
    pred = [line.split() for line in pred_lines]
    assert score_segmentations(gold, pred) == bakeoff_scores(gold_lines, pred_lines)
    # one character changed in sentence i is refused, by sentence and position
    for i, text in enumerate(texts):
        j = rng.randrange(len(text))
        other = rng.choice(FUZZ_POOL.replace(text[j], ""))
        changed = split_at_random(rng, text[:j] + other + text[j + 1:]).split()
        want = (f"sentence {i + 1}: texts differ at character {j + 1}: "
                f"gold {text[j]!r}, prediction {other!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            score_segmentations(gold, pred[:i] + [changed] + pred[i + 1:])
