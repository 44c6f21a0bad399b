import itertools

import numpy as np
import pytest

from attnseg.tagging import (
    B, E, END, M, NUM_TAGS, S, START, TAG_IDS, TAG_NAMES, decode_tags,
    encode_tags, transition_mask, word_lengths,
)
from oracles import is_valid, random_segmentation


def tags_of(s):
    return [TAG_IDS[c] for c in s]


def test_tag_ids_are_fixed():
    assert (B, M, E, S) == (0, 1, 2, 3)
    assert (START, END) == (4, 5)
    assert TAG_NAMES == ("B", "M", "E", "S")


def test_encode_reference_sentence():
    words = ["中国", "向", "全世界", "发出", "倡议"]
    assert encode_tags(words) == tags_of("BESBMEBEBE")


def test_encode_single_char_word():
    assert encode_tags(["向"]) == [S]


def test_encode_long_word():
    assert encode_tags(["abcde"]) == tags_of("BMMME")


def test_encode_rejects_empty_word():
    with pytest.raises(ValueError):
        encode_tags(["中国", ""])


def test_decode_inverts_encode():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        words = random_segmentation(rng)
        tags = encode_tags(words)
        chars = list("".join(words))
        assert decode_tags(chars, tags) == words
        assert is_valid(tags)


def test_decode_length_mismatch():
    with pytest.raises(ValueError):
        decode_tags(["a", "b"], [S])


def test_decode_empty():
    assert decode_tags([], []) == []


def test_word_lengths_repairs_invalid_sequences():
    # dangling B closed at the end
    assert word_lengths(tags_of("SB")) == [1, 1]
    # B directly followed by B starts a fresh word
    assert word_lengths(tags_of("BB")) == [1, 1]
    # bare M runs joined until something closes them
    assert word_lengths(tags_of("MME")) == [3]
    # S always a word of its own
    assert word_lengths(tags_of("MSM")) == [1, 1, 1]


def test_word_lengths_total_always_matches():
    rng = np.random.default_rng(4)
    for _ in range(500):
        n = int(rng.integers(0, 12))
        tags = [int(rng.integers(NUM_TAGS)) for _ in range(n)]
        assert sum(word_lengths(tags)) == n


def test_is_valid():
    assert is_valid([])
    assert is_valid(tags_of("BESBMEBEBE"))
    assert is_valid(tags_of("S"))
    assert not is_valid(tags_of("B"))
    assert not is_valid(tags_of("SM"))
    assert not is_valid(tags_of("BSE"))
    assert not is_valid(tags_of("ME"))
    # the regular expression agrees with the mask's chain of transitions,
    # START to END, on every sequence of 1 to 6 tags
    mask = transition_mask()
    for n in range(1, 7):
        for seq in itertools.product(range(NUM_TAGS), repeat=n):
            chain = (START, *seq, END)
            assert is_valid(seq) == all(mask[a, b] for a, b in zip(chain, chain[1:]))


def test_transition_allowed_table():
    allowed = {
        (START, B), (START, S), (B, M), (B, E), (M, M), (M, E),
        (E, B), (E, S), (E, END), (S, B), (S, S), (S, END),
    }
    mask = transition_mask()
    for i in range(NUM_TAGS + 2):
        for j in range(NUM_TAGS + 2):
            assert mask[i, j] == ((i, j) in allowed)


def test_transition_mask_matches_predicate():
    mask = transition_mask()
    assert mask.shape == (NUM_TAGS + 2, NUM_TAGS + 2)
    assert mask.dtype == bool
    # virtual tags never receive/emit the impossible directions
    assert not mask[:, START].any()
    assert not mask[END, :].any()
