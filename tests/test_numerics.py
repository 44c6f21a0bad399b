import numpy as np
import pytest

from attnseg.crf import _logsumexp_along
from attnseg.numerics import ShapeError, grad_check, sigmoid, softmax


def test_softmax_symmetry():
    v = np.array([0.0, 0.0])
    assert np.allclose(softmax(v, out=np.empty(v.shape)), [0.5, 0.5], atol=0, rtol=0)


def test_softmax_singleton():
    for x in (-1000.0, -3.2, 0.0, 7.5, 1000.0):
        v = np.array([x])
        out = softmax(v, out=np.empty(v.shape))
        assert np.array_equal(out, [1.0])


def test_softmax_large_values_no_overflow():
    v = np.array([1000.0, 1000.0])
    out = softmax(v, out=np.empty(v.shape))
    assert np.all(np.isfinite(out))
    assert np.array_equal(out, [0.5, 0.5])


def test_softmax_random_sums_to_one():
    rng = np.random.default_rng(1)
    for _ in range(200):
        v = rng.uniform(-1e6, 1e6, size=rng.integers(1, 12))
        out = softmax(v, out=np.empty(v.shape))
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) < 1e-12


def test_logsumexp_singleton():
    assert _logsumexp_along(np.array([3.7]), axis=-1) == 3.7


def test_logsumexp_pair():
    out = _logsumexp_along(np.array([0.0, 0.0]), axis=-1)
    assert abs(out - np.log(2.0)) < 1e-15


def test_logsumexp_large_values():
    out = _logsumexp_along(np.array([1000.0, 1000.0]), axis=-1)
    assert np.isfinite(out)
    assert abs(out - (1000.0 + np.log(2.0))) < 1e-12


def test_logsumexp_empty_errors():
    with pytest.raises(ValueError):
        _logsumexp_along(np.array([]), axis=-1)


def test_logsumexp_bounds():
    rng = np.random.default_rng(2)
    for _ in range(200):
        v = rng.normal(scale=10.0, size=rng.integers(1, 9))
        out = _logsumexp_along(v, axis=-1)
        assert out >= np.max(v)
        assert out <= np.max(v) + np.log(v.size) + 1e-15


def test_logsumexp_all_minus_inf():
    assert _logsumexp_along(np.array([-np.inf, -np.inf]), axis=-1) == -np.inf


def test_logsumexp_ignores_minus_inf_entries():
    v = np.array([-np.inf, 1.0, 2.0])
    expected = _logsumexp_along(np.array([1.0, 2.0]), axis=-1)
    assert _logsumexp_along(v, axis=-1) == expected


def test_sigmoid_saturates_cleanly():
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            sigmoid(np.array([-800.0]), out=np.empty(1))
    with np.errstate(over="ignore"):
        out = sigmoid(np.array([-800.0, 0.0, 800.0]), out=np.empty(3))
    assert out[0] == 0.0
    assert out[1] == 0.5
    assert out[2] == 1.0


def test_out_forms_match_and_write_in_place():
    rng = np.random.default_rng(5)
    x = rng.normal(scale=30.0, size=50)
    x[0] = -800.0
    want_sig, want_soft = np.empty(x.shape), np.empty(x.shape)
    assert softmax(x, out=want_soft) is want_soft
    buf = x.copy()
    with np.errstate(over="ignore"):
        assert sigmoid(x, out=want_sig) is want_sig
        assert sigmoid(buf, out=buf) is buf
    assert np.array_equal(buf, want_sig)
    buf = x.copy()
    assert softmax(buf, out=buf) is buf
    assert np.array_equal(buf, want_soft)


def test_grad_check_quadratic():
    f = lambda x: float(x[0] ** 2)
    err = grad_check(f, np.array([6.0]), np.array([3.0]))
    assert err < 1e-8


def test_grad_check_linear():
    f = lambda x: float(np.sum(x))
    point = np.array([0.3, -1.2, 4.0])
    err = grad_check(f, np.ones(3), point)
    assert err < 1e-10


def test_grad_check_detects_wrong_gradient():
    f = lambda x: float(x[0] ** 2)
    err = grad_check(f, np.array([5.0]), np.array([3.0]))
    assert err > 1e-2


def test_grad_check_non_finite_names_coordinate():
    def f(x):
        return float("nan") if x[1] != 0.0 else 0.0

    with pytest.raises(ValueError, match="coordinate 1"):
        grad_check(f, np.zeros(2), np.zeros(2))


def test_grad_check_probes_the_point_in_place_and_restores_it():
    # f gets the caller's array itself, of any shape, with one coordinate
    # moved, and that coordinate is restored, also when f raises
    point = np.arange(6.0).reshape(2, 3)
    seen = []

    def f(x):
        seen.append(x is point)
        if x[1, 2] != 5.0:
            raise RuntimeError("probe failed")
        return float(np.sum(x))

    with pytest.raises(RuntimeError, match="probe failed"):
        grad_check(f, np.ones((2, 3)), point)
    assert seen == [True] * 11
    assert np.array_equal(point, np.arange(6.0).reshape(2, 3))
    assert grad_check(lambda x: float(x.sum()), np.ones((2, 3)), point) < 1e-10


def test_grad_check_shape_mismatch():
    with pytest.raises(ShapeError):
        grad_check(lambda x: 0.0, np.zeros(2), np.zeros(3))
