import numpy as np
import pytest

from attnseg.corpus import (
    ENG, IDIOM, NUM, PAD, UNK, Sentence, Vocab, bigram_key,
    build_bigram_vocab, featurize, load_corpus, load_embeddings, load_lexicon,
    load_toy_corpus, preprocess, random_embeddings, read_lines,
    sentence_bigrams, split_train_dev, window_ids,
)
from attnseg.tagging import TAG_IDS, decode_tags
from oracles import preprocess_scan, random_segmentation


def tags_of(s):
    return [TAG_IDS[c] for c in s]


def test_preprocess_collapses_latin_and_digit_runs():
    assert preprocess("WTO2001年") == [ENG, NUM, "年"]


def test_preprocess_passthrough():
    assert preprocess("你好") == ["你", "好"]


def test_preprocess_runs_are_maximal_not_global():
    assert preprocess("a1a") == [ENG, NUM, ENG]


def test_preprocess_fullwidth_forms():
    assert preprocess("ＷＴＯ２００１年") == [ENG, NUM, "年"]


def test_preprocess_idiom_lexicon(tmp_path):
    lex_file = tmp_path / "idioms.txt"
    lex_file.write_text("一帆风顺\n风顺\n", encoding="utf-8")
    lexicon = load_lexicon(lex_file)
    # longest match wins over its suffix entry
    assert preprocess("祝你一帆风顺啊", lexicon) == ["祝", "你", IDIOM, "啊"]
    assert preprocess("风顺", lexicon) == [IDIOM]
    assert preprocess("一帆风顺", None) == ["一", "帆", "风", "顺"]


def test_preprocess_ignores_empty_idiom():
    assert preprocess("ab", frozenset({""})) == [ENG]
    assert preprocess("甲乙丙", frozenset({"", "乙丙"})) == ["甲", IDIOM]


HAN = "甲乙丙丁戊"
TEXT_POOL = HAN + "abXY09ＡＢ２３ "


def _random_lexicon(rng):
    """Idioms of 1-5 characters that overlap, prefix one another and mix
    in Latin letters and digits."""
    def chars(k, pool):
        return "".join(pool[int(rng.integers(len(pool)))] for _ in range(k))

    idioms = set()
    for _ in range(int(rng.integers(1, 8))):
        idiom = chars(int(rng.integers(1, 6)),
                      HAN if rng.random() < 0.7 else TEXT_POOL)
        idioms.add(idiom)
        if len(idiom) > 1 and rng.random() < 0.5:
            idioms.add(idiom[:int(rng.integers(1, len(idiom)))])
        if rng.random() < 0.5:
            idioms.add(idiom[1:] + chars(int(rng.integers(0, 3)), HAN))
    idioms.discard("")
    return frozenset(idioms)


def _random_text(rng, lexicon):
    """A string of idioms and pool characters."""
    idioms = sorted(lexicon)
    parts = []
    for _ in range(int(rng.integers(0, 8))):
        if rng.random() < 0.4:
            parts.append(idioms[int(rng.integers(len(idioms)))])
        else:
            parts.append(TEXT_POOL[int(rng.integers(len(TEXT_POOL)))])
    return "".join(parts)


def test_preprocess_matches_scan_oracle():
    rng = np.random.default_rng(20)
    matched = 0
    for _ in range(3000):
        lexicon = _random_lexicon(rng)
        text = _random_text(rng, lexicon)
        sources = []
        tokens = preprocess(text, lexicon, sources)
        assert tokens == preprocess_scan(text, lexicon), (text, lexicon)
        # each token's source text is a piece of the text that scans
        # back to that token alone
        assert "".join(sources) == text, (text, lexicon)
        assert [preprocess(s, lexicon) for s in sources] == \
            [[tok] for tok in tokens], (text, lexicon)
        matched += IDIOM in tokens
    assert matched > 500  # the lexicon path is exercised, not bypassed


def test_preprocess_alternating_lexicons_match_scan_oracle():
    # the idiom lengths are kept per lexicon: calls that alternate
    # lexicons of different lengths, more of them than the cache holds,
    # must each use their own lexicon's lengths
    short = frozenset({"甲乙", "丙"})
    long = frozenset({"甲乙丙丁", "乙丙丁戊"})
    sentence = "甲乙丙丁戊甲乙丙"
    for _ in range(3):
        for lexicon in (short, long, set(short), None):
            assert preprocess(sentence, lexicon) == preprocess_scan(sentence, lexicon)
    assert preprocess(sentence, short) == [IDIOM, IDIOM, "丁", "戊", IDIOM, IDIOM]
    assert preprocess(sentence, long) == [IDIOM, "戊", "甲", "乙", "丙"]
    rng = np.random.default_rng(21)
    lexicons = [_random_lexicon(rng) for _ in range(12)]
    assert len({max(map(len, lexicon)) for lexicon in lexicons}) > 1
    for _ in range(2):
        for lexicon in lexicons:
            for _ in range(5):
                text = _random_text(rng, lexicon)
                assert preprocess(text, lexicon) == \
                    preprocess_scan(text, lexicon), (text, lexicon)


def test_vocab_reserved_slots():
    v = Vocab.build([["你", "好"]])
    assert v.id_to_token[:4] == [PAD, UNK, ENG, NUM]
    assert len(v) == 6
    assert v.id(PAD) == 0 and v.id(UNK) == 1 and v.id(ENG) == 2 and v.id(NUM) == 3


def test_vocab_unknown_maps_to_unk():
    v = Vocab.build([["你"]])
    assert v.id("好") == 1
    assert v.encode(["你", "好"]) == [4, 1]


def test_vocab_rejects_missing_reserved_prefix():
    with pytest.raises(ValueError):
        Vocab(["你", "好"])


def test_load_corpus_reference_line(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("中国 向 全世界 发出 倡议\n", encoding="utf-8")
    corpus = load_corpus(p)
    assert len(corpus) == 1
    assert corpus[0].tokens == list("中国向全世界发出倡议")
    assert corpus[0].tags == tags_of("BESBMEBEBE")


def test_load_corpus_flag_token_is_one_character(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("a\n", encoding="utf-8")
    corpus = load_corpus(p)
    assert corpus[0].tokens == [ENG]
    assert corpus[0].tags == [TAG_IDS["S"]]


def test_load_corpus_skips_blank_lines(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("你 好\n\n  \n再 见\n", encoding="utf-8")
    assert len(load_corpus(p)) == 2


def test_load_corpus_empty_file_errors(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("\n\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_corpus(p)


def test_load_corpus_bad_utf8_names_line(tmp_path):
    p = tmp_path / "c.txt"
    p.write_bytes("你 好\n".encode("utf-8") + b"\xff\xfe\n")
    with pytest.raises(ValueError, match="line 2"):
        load_corpus(p)


def test_read_lines_drops_only_a_leading_byte_order_mark(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("\ufeff中国\n\ufeff人\n", encoding="utf-8")
    assert read_lines(p) == ["中国", "\ufeff人"]
    # the bad line is counted in the file's bytes, mark included
    p.write_bytes("\ufeffa\n".encode("utf-8") + b"\xff\n")
    with pytest.raises(ValueError, match="line 2"):
        read_lines(p)


def test_load_corpus_drops_leading_byte_order_mark(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("\ufeff中国 人\n", encoding="utf-8")
    sent = load_corpus(p)[0]
    assert sent.tokens == ["中", "国", "人"]
    assert sent.tags == tags_of("BES")


def test_load_lexicon_drops_leading_byte_order_mark(tmp_path):
    p = tmp_path / "lex.txt"
    p.write_text("\ufeff一举两得\n", encoding="utf-8")
    assert load_lexicon(p) == frozenset(["一举两得"])


def test_load_embeddings_drops_leading_byte_order_mark(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("\ufeff2 3\n你 0.1 0.2 0.3\n好 0.4 0.5 0.6\n", encoding="utf-8")
    vocab = Vocab.build([["你", "好"]])
    table = load_embeddings(p, vocab, seed=42)
    assert np.array_equal(table[vocab.id("你")], [0.1, 0.2, 0.3])


def test_loaded_sentences_roundtrip_their_segmentation(tmp_path):
    rng = np.random.default_rng(6)
    lines = [" ".join(random_segmentation(rng, max_len=12)) for _ in range(40)]
    p = tmp_path / "c.txt"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus = load_corpus(p)
    for sent, line in zip(corpus, lines):
        assert len(sent.tokens) == len(sent.tags)
        assert decode_tags(sent.tokens, sent.tags) == line.split()


def test_sentence_validation():
    with pytest.raises(ValueError):
        Sentence(tokens=["a"], tags=[])
    with pytest.raises(ValueError):
        Sentence(tokens=[], tags=[])


def test_split_train_dev_sizes():
    sents = [Sentence(tokens=[str(i)], tags=[3]) for i in range(10)]
    train, dev = split_train_dev(sents, 0.1, seed=42)
    assert (len(train), len(dev)) == (9, 1)
    train, dev = split_train_dev(sents[:2], 0.5, seed=42)
    assert (len(train), len(dev)) == (1, 1)


def test_split_train_dev_rounds_half_up():
    sents = [Sentence(tokens=[str(i)], tags=[3]) for i in range(5)]
    train, dev = split_train_dev(sents, 0.1, seed=0)
    # 0.5 rounds up to 1, not banker's-rounded to 0
    assert (len(train), len(dev)) == (4, 1)


def test_split_train_dev_partition_and_determinism():
    sents = [Sentence(tokens=[str(i)], tags=[3]) for i in range(23)]
    t1, d1 = split_train_dev(sents, 0.3, seed=7)
    t2, d2 = split_train_dev(sents, 0.3, seed=7)
    assert [s.tokens for s in t1] == [s.tokens for s in t2]
    assert [s.tokens for s in d1] == [s.tokens for s in d2]
    seen = sorted(s.tokens[0] for s in t1 + d1)
    assert seen == sorted(s.tokens[0] for s in sents)


def test_split_train_dev_rejects_degenerate():
    one = [Sentence(tokens=["a"], tags=[3])]
    with pytest.raises(ValueError):
        split_train_dev(one, 0.5, seed=0)
    with pytest.raises(ValueError):
        split_train_dev(one, 0.0, seed=0)


def test_load_embeddings_reads_rows(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("2 3\n你 0.1 0.2 0.3\n好 0.4 0.5 0.6\n", encoding="utf-8")
    vocab = Vocab.build([["你", "好"]])
    table = load_embeddings(p, vocab, seed=42)
    assert table.shape == (6, 3)
    assert np.allclose(table[vocab.id("你")], [0.1, 0.2, 0.3])
    assert np.allclose(table[vocab.id("好")], [0.4, 0.5, 0.6])


def test_load_embeddings_missing_token_gets_small_random_row(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("1 2\n你 0.5 0.5\n", encoding="utf-8")
    vocab = Vocab.build([["你", "未"]])
    t1 = load_embeddings(p, vocab, seed=1)
    t2 = load_embeddings(p, vocab, seed=1)
    row = t1[vocab.id("未")]
    assert np.all(np.abs(row) <= 0.05)
    assert np.array_equal(t1, t2)


def test_load_embeddings_ignores_tokens_outside_vocab(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("2 2\n你 0.5 0.5\n卡 0.9 0.9\n", encoding="utf-8")
    vocab = Vocab.build([["你"]])
    table = load_embeddings(p, vocab, seed=1)
    assert not (np.abs(table) > 0.5).any()


def test_load_embeddings_wrong_field_count_names_line(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("1 3\n你 0.1 0.2 0.3 0.4\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_embeddings(p, Vocab.build([["你"]]), seed=0)


@pytest.mark.parametrize("value", ["oops", "nan", "inf", "-inf"])
def test_load_embeddings_non_numeric_names_line(tmp_path, value):
    p = tmp_path / "emb.txt"
    p.write_text(f"1 2\n你 0.1 {value}\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_embeddings(p, Vocab.build([["你"]]), seed=0)


def test_load_embeddings_bad_header(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_embeddings(p, Vocab.build([["你"]]), seed=0)


def test_featurize_window1_is_plain_lookup():
    rng = np.random.default_rng(8)
    table = random_embeddings(6, 4, rng)
    x = featurize([4, 5], table, window=1)
    assert np.array_equal(x, table[[4, 5]])


def test_featurize_window3_pads_edges():
    rng = np.random.default_rng(9)
    table = random_embeddings(6, 4, rng)
    x = featurize([5], table, window=3)
    assert x.shape == (1, 12)
    assert np.array_equal(x[0], np.concatenate([table[0], table[5], table[0]]))


def test_featurize_bigram_channel_shape():
    rng = np.random.default_rng(10)
    table = random_embeddings(6, 4, rng)
    btable = random_embeddings(9, 5, rng)
    x = featurize([4, 5], table, window=3, bigram_ids=[7, 8], bigram_table=btable)
    assert x.shape == (2, 3 * 4 + 5)
    assert np.array_equal(x[0, 12:], btable[7])


def test_featurize_rejects_even_window():
    table = np.zeros((5, 2))
    with pytest.raises(ValueError):
        featurize([4], table, window=2)


def test_window_ids_matches_featurize_reads():
    rng = np.random.default_rng(11)
    table = random_embeddings(8, 3, rng)
    ids = [4, 6, 7]
    x = featurize(ids, table, window=3)
    w = window_ids(ids, window=3)
    for t in range(3):
        manual = np.concatenate([table[w[t, j]] for j in range(3)])
        assert np.array_equal(x[t], manual)


def test_sentence_bigrams_last_pairs_with_pad():
    keys = sentence_bigrams(["你", "好"])
    assert keys == [bigram_key("你", "好"), bigram_key("好", PAD)]


def test_bigram_vocab_contains_corpus_bigrams():
    sents = [Sentence(tokens=["你", "好"], tags=[0, 2])]
    bv = build_bigram_vocab(sents)
    assert bigram_key("你", "好") in bv
    assert bv.id(bigram_key("好", PAD)) > 3


def test_toy_corpus_loads():
    corpus = load_toy_corpus()
    assert len(corpus) == 32
    for sent in corpus:
        assert len(sent.tokens) == len(sent.tags)
