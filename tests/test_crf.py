import numpy as np
import pytest

from attnseg import crf, tagging
from attnseg.crf import (
    log_partition, marginals, nll_and_grads, sequence_score, viterbi,
)
from attnseg.numerics import grad_check
from oracles import (
    brute_log_partition, brute_marginals, brute_viterbi,
    crf_nll_and_grads_loops, enumerate_scores, is_valid, logsumexp,
    random_segmentation, viterbi_numpy,
)

K = 4
START = K
END = K + 1


def random_instance(rng, n=None, scale=1.0):
    if n is None:
        n = int(rng.integers(1, 7))
    emissions = rng.normal(scale=scale, size=(n, K))
    trans = rng.normal(scale=scale, size=(K + 2, K + 2))
    return emissions, trans


def test_sequence_score_single_position_zero_transitions():
    emissions = np.array([[0.3, -0.7, 2.0, 0.1]])
    trans = np.zeros((6, 6))
    for y in range(K):
        assert sequence_score(emissions, trans, [y]) == emissions[0, y]


def test_sequence_score_two_positions_zero_emissions():
    rng = np.random.default_rng(12)
    trans = rng.normal(size=(6, 6))
    emissions = np.zeros((2, K))
    got = sequence_score(emissions, trans, [tagging.B, tagging.E])
    want = trans[START, tagging.B] + trans[tagging.B, tagging.E] \
        + trans[tagging.E, END]
    assert got == want


def test_sequence_score_matches_term_by_term_sum():
    rng = np.random.default_rng(13)
    for _ in range(200):
        emissions, trans = random_instance(rng, n=int(rng.integers(1, 6)))
        n = emissions.shape[0]
        tags = [int(rng.integers(K)) for _ in range(n)]
        seqs, scores = enumerate_scores(emissions, trans)
        idx = 0
        for t in tags:
            idx = idx * K + t
        assert sequence_score(emissions, trans, tags) == scores[idx]


def test_sequence_score_length_mismatch():
    with pytest.raises(ValueError):
        sequence_score(np.zeros((2, K)), np.zeros((6, 6)), [0])


def test_log_partition_zero_transitions_factorizes():
    rng = np.random.default_rng(14)
    emissions = rng.normal(size=(5, K))
    got = log_partition(emissions, np.zeros((6, 6)))
    want = sum(logsumexp(emissions[t]) for t in range(5))
    assert abs(got - want) < 1e-10


def test_log_partition_single_path():
    # one position, every tag but one masked away leaves a single path
    emissions = np.array([[1.3, 0.0, 0.0, 0.0]])
    trans = np.random.default_rng(15).normal(size=(6, 6))
    mask = np.zeros((6, 6), dtype=bool)
    mask[START, 0] = True
    mask[0, END] = True
    got = log_partition(emissions, np.where(mask, trans, -np.inf))
    want = trans[START, 0] + emissions[0, 0] + trans[0, END]
    assert abs(got - want) < 1e-12


def test_log_partition_matches_brute_force():
    rng = np.random.default_rng(16)
    for _ in range(200):
        emissions, trans = random_instance(rng)
        assert abs(
            log_partition(emissions, trans)
            - brute_log_partition(emissions, trans)
        ) < 1e-8


def test_log_partition_masked_matches_brute_force():
    rng = np.random.default_rng(17)
    mask = tagging.transition_mask()
    for _ in range(100):
        emissions, trans = random_instance(rng)
        trans = np.where(mask, trans, -np.inf)
        assert abs(
            log_partition(emissions, trans)
            - brute_log_partition(emissions, trans)
        ) < 1e-8


@pytest.mark.filterwarnings("error")
def test_log_partition_all_masked_errors():
    with pytest.raises(ValueError):
        log_partition(np.zeros((2, K)), np.full((6, 6), -np.inf))


def test_log_partition_dominates_every_sequence_score():
    rng = np.random.default_rng(18)
    for _ in range(50):
        emissions, trans = random_instance(rng, n=4)
        _, scores = enumerate_scores(emissions, trans)
        assert log_partition(emissions, trans) >= np.max(scores)


def test_normalization_sums_to_one():
    rng = np.random.default_rng(19)
    for _ in range(50):
        emissions, trans = random_instance(rng)
        logz = log_partition(emissions, trans)
        _, scores = enumerate_scores(emissions, trans)
        assert abs(np.sum(np.exp(scores - logz)) - 1.0) < 1e-9


def test_emission_row_shift_invariance():
    rng = np.random.default_rng(20)
    for _ in range(50):
        emissions, trans = random_instance(rng, n=4)
        c = float(rng.normal())
        t = int(rng.integers(4))
        shifted = emissions.copy()
        shifted[t] += c
        assert abs(
            log_partition(shifted, trans) - log_partition(emissions, trans) - c
        ) < 1e-9
        path, _ = viterbi(emissions, trans)
        path2, _ = viterbi(shifted, trans)
        assert path == path2


@pytest.mark.filterwarnings("error")
def test_tables_and_nll_match_per_tag_loops_bitwise():
    # the tables reduce a (K, K) array per step; the reference takes one
    # logsumexp per tag.  Same additions in the same order give the same
    # bits, masked columns included, and no warning on the way.
    rng = np.random.default_rng(31)
    grammar = tagging.transition_mask()
    scales = (0.01, 1.0, 5.0, 50.0)
    for _ in range(2000):
        words = random_segmentation(rng, max_len=30)
        n = sum(len(w) for w in words)
        scale = scales[int(rng.integers(len(scales)))]
        emissions, trans = random_instance(rng, n=n, scale=scale)
        for mask in (None, grammar):
            if mask is None:
                gold = [int(g) for g in rng.integers(K, size=n)]
                eff = trans
            else:
                gold = tagging.encode_tags(words)
                eff = np.where(mask, trans, -np.inf)
            want_loss, want_e, want_t, alpha, beta = crf_nll_and_grads_loops(
                emissions, eff, gold)
            assert np.array_equal(crf._forward_table(emissions, eff, K), alpha)
            assert np.array_equal(crf._backward_table(emissions, eff, K), beta)
            loss, d_e, d_t = nll_and_grads(emissions, eff, gold)
            assert loss == want_loss
            assert np.array_equal(d_e, want_e)
            assert np.array_equal(d_t, want_t)


def test_marginals_match_brute_force():
    rng = np.random.default_rng(32)
    grammar = tagging.transition_mask()
    for _ in range(100):
        emissions, trans = random_instance(rng, n=int(rng.integers(1, 6)))
        for eff in (trans, np.where(grammar, trans, -np.inf)):
            unary, _, _, _ = brute_marginals(emissions, eff)
            assert np.max(np.abs(marginals(emissions, eff) - unary)) < 1e-9
    with pytest.raises(ValueError):
        marginals(np.zeros((2, K)), np.full((6, 6), -np.inf))


def test_nll_single_tag_problem_is_zero():
    # K=1: only one sequence exists, so the loss must be exactly 0
    emissions = np.array([[0.7], [-0.2], [1.1]])
    trans = np.random.default_rng(21).normal(size=(3, 3))
    loss, d_e, d_t = nll_and_grads(emissions, trans, [0, 0, 0])
    assert loss == 0.0
    assert np.max(np.abs(d_e)) < 1e-12
    assert np.max(np.abs(d_t)) < 1e-12


def test_nll_is_nonnegative_and_marginals_normalize():
    rng = np.random.default_rng(22)
    for _ in range(100):
        emissions, trans = random_instance(rng)
        n = emissions.shape[0]
        seqs, _ = enumerate_scores(emissions, trans)
        gold = list(seqs[int(rng.integers(len(seqs)))])
        loss, d_e, d_t = nll_and_grads(emissions, trans, gold)
        assert loss >= -1e-12
        onehot = np.zeros((n, K))
        onehot[np.arange(n), gold] = 1.0
        marg = d_e + onehot
        assert np.all(marg >= -1e-12)
        assert np.max(np.abs(marg.sum(axis=1) - 1.0)) < 1e-9


def test_nll_gradients_match_enumerated_marginals():
    rng = np.random.default_rng(23)
    for _ in range(60):
        emissions, trans = random_instance(rng, n=int(rng.integers(1, 5)))
        n = emissions.shape[0]
        gold = [int(rng.integers(K)) for _ in range(n)]
        loss, d_e, d_t = nll_and_grads(emissions, trans, gold)
        unary, pairwise, start_m, end_m = brute_marginals(emissions, trans)
        onehot = np.zeros((n, K))
        onehot[np.arange(n), gold] = 1.0
        assert np.max(np.abs(d_e - (unary - onehot))) < 1e-9
        want_t = np.zeros((K + 2, K + 2))
        want_t[START, :K] = start_m
        want_t[:K, END] = end_m
        for t in range(n - 1):
            want_t[:K, :K] += pairwise[t]
        want_t[START, gold[0]] -= 1.0
        want_t[gold[-1], END] -= 1.0
        for t in range(n - 1):
            want_t[gold[t], gold[t + 1]] -= 1.0
        assert np.max(np.abs(d_t - want_t)) < 1e-9


def test_nll_gradients_match_finite_differences():
    rng = np.random.default_rng(24)
    for _ in range(10):
        emissions, trans = random_instance(rng, n=int(rng.integers(1, 5)))
        n = emissions.shape[0]
        gold = [int(rng.integers(K)) for _ in range(n)]
        _, d_e, d_t = nll_and_grads(emissions, trans, gold)
        shapes = (emissions.shape, trans.shape)

        def f(vec):
            e = vec[:emissions.size].reshape(shapes[0])
            a = vec[emissions.size:].reshape(shapes[1])
            loss, _, _ = nll_and_grads(e, a, gold)
            return loss

        point = np.concatenate([emissions.ravel(), trans.ravel()])
        analytic = np.concatenate([d_e.ravel(), d_t.ravel()])
        assert grad_check(f, analytic, point) < 1e-6


def test_nll_masked_gold_errors():
    mask = tagging.transition_mask()
    emissions = np.zeros((2, K))
    trans = np.where(mask, np.zeros((6, 6)), -np.inf)
    with pytest.raises(ValueError):
        nll_and_grads(emissions, trans, [tagging.B, tagging.S])


def test_nll_gold_length_mismatch_errors():
    emissions, trans = random_instance(np.random.default_rng(26), n=3)
    with pytest.raises(ValueError, match="2 gold tags for 3 positions"):
        nll_and_grads(emissions, trans, [tagging.B, tagging.E])


def test_nll_decreases_after_one_small_transition_step():
    rng = np.random.default_rng(25)
    emissions, trans = random_instance(rng, n=5)
    gold = [tagging.B, tagging.E, tagging.S, tagging.B, tagging.E]
    loss0, _, d_t = nll_and_grads(emissions, trans, gold)
    loss1, _, _ = nll_and_grads(emissions, trans - 1e-3 * d_t, gold)
    assert loss1 < loss0


def test_viterbi_zero_transitions_is_argmax():
    rng = np.random.default_rng(26)
    emissions = rng.normal(size=(6, K))
    path, score = viterbi(emissions, np.zeros((6, 6)))
    assert path == list(np.argmax(emissions, axis=1))
    assert score == float(np.sum(np.max(emissions, axis=1)))


def test_viterbi_masked_single_char_forces_s():
    path, _ = viterbi(np.zeros((1, K)),
                      np.where(tagging.transition_mask(), 0.0, -np.inf))
    assert path == [tagging.S]


def test_viterbi_matches_brute_force():
    rng = np.random.default_rng(27)
    for _ in range(200):
        emissions, trans = random_instance(rng)
        path, score = viterbi(emissions, trans)
        bpath, bscore = brute_viterbi(emissions, trans)
        assert score == bscore
        assert path == bpath


def test_viterbi_tie_breaking_on_quantized_scores():
    # integer-quantized scores force many exact ties; the tie rule
    # (lowest id outward from the sentence end) must match enumeration
    rng = np.random.default_rng(28)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        emissions = rng.integers(0, 2, size=(n, K)).astype(np.float64)
        trans = rng.integers(0, 2, size=(K + 2, K + 2)).astype(np.float64)
        path, score = viterbi(emissions, trans)
        bpath, bscore = brute_viterbi(emissions, trans)
        assert score == bscore
        assert path == bpath


@pytest.mark.parametrize("n", [40, 250])
def test_viterbi_matches_numpy_recursion_past_brute_force(n):
    # integer-quantized scores force many exact ties, and every fourth
    # case adds real noise to check the order of additions; half the
    # cases forbid the grammar's transitions with -inf, and a third rule
    # a tag out at one position with a -inf emission
    rng = np.random.default_rng(30 + n)
    mask = tagging.transition_mask()
    for case in range(60):
        emissions = rng.integers(-2, 3, size=(n, K)).astype(np.float64)
        trans = rng.integers(-2, 3, size=(K + 2, K + 2)).astype(np.float64)
        if case % 4 == 3:
            emissions += rng.normal(size=(n, K))
        if case % 2:
            trans = np.where(mask, trans, -np.inf)
        if case % 3 == 0:
            emissions[rng.integers(n), rng.integers(K)] = -np.inf
        path, score = viterbi(emissions, trans)
        want_path, want_score = viterbi_numpy(emissions, trans)
        assert path == want_path
        assert score == want_score
        assert {type(tag) for tag in path} == {int} and type(score) is float


def test_viterbi_masked_output_is_always_grammatical():
    # also when -inf emissions rule tags out, as long as a path is left
    rng = np.random.default_rng(29)
    mask = tagging.transition_mask()
    for case in range(400):
        emissions, trans = random_instance(rng)
        trans = np.where(mask, trans, -np.inf)
        if case % 2:
            emissions[rng.random(emissions.shape) < 0.2] = -np.inf
        if np.max(enumerate_scores(emissions, trans)[1]) == -np.inf:
            with pytest.raises(ValueError, match="no finite score"):
                viterbi(emissions, trans)
            continue
        path, _ = viterbi(emissions, trans)
        assert is_valid(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["emissions", "transitions"])
def test_viterbi_rejects_nan_and_plus_inf_scores(bad, where):
    # either would decode an ungrammatical path: the first NaN or +inf
    # wins every maximum it enters, forbidden transitions or not
    emissions = np.zeros((4, K))
    trans = np.where(tagging.transition_mask(), 0.0, -np.inf)
    if where == "emissions":
        emissions[1, tagging.B] = bad
    else:
        trans[tagging.B, tagging.E] = bad
    with pytest.raises(ValueError, match="finite or -inf"):
        viterbi(emissions, trans)


def test_viterbi_refuses_a_best_score_that_overflows():
    # finite emissions whose sum overflows to +inf, and then to NaN
    # through a -inf transition, would decode B M M E B
    emissions = np.zeros((5, K))
    emissions[1:4, tagging.M] = 1.5e308
    trans = np.where(tagging.transition_mask(), 0.0, -np.inf)
    with pytest.raises(ValueError, match="no finite score"):
        viterbi(emissions, trans)


def test_viterbi_all_masked_errors():
    with pytest.raises(ValueError):
        viterbi(np.zeros((1, K)), np.full((6, 6), -np.inf))


def test_shape_validation():
    with pytest.raises(Exception):
        sequence_score(np.zeros((2, 3)), np.zeros((6, 6)), [0, 0])
    with pytest.raises(Exception):
        log_partition(np.zeros((0, K)), np.zeros((6, 6)))
