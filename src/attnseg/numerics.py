"""Small dense-numerics kernel used by every other module.

Conventions: matrices are 2-d float64 arrays in row-major (C) order and
vectors are 1-d float64 arrays.  The helpers here check the shapes they
are given and raise :class:`ShapeError` on a mismatch, as do the entry
points of the CRF, the encoder and the AdaGrad update, so that wiring
bugs surface immediately instead of silently producing garbage
gradients.  Inside those entry points numpy broadcasting is used where
it is the natural spelling (e.g. ``encoder.tape_step`` and
``crf.nll_and_grads``).
"""

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def sigmoid(x):
    """Elementwise logistic function 1 / (1 + exp(-x)).

    Deliberately the plain formula: exp overflow for very negative inputs
    saturates to exactly 0.0, which is the correct limit, so the warning
    is suppressed rather than the formula rearranged.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def softmax(v):
    """Stable softmax of a 1-d array via max subtraction.

    An empty vector maps to an empty vector: the attention layer
    legitimately sees zero previous tokens at the first time step.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"softmax needs a vector, got shape {v.shape}")
    if v.size == 0:
        return np.zeros(0)
    e = np.exp(v - v.max())
    e /= e.sum()
    return e


def logsumexp(v):
    """log(sum(exp(v))) of a 1-d array, max-subtracted for stability.

    Entries may be -inf (they drop out of the sum); an all -inf input
    returns -inf.  An empty vector is an error (log of a zero sum).
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"logsumexp needs a vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("logsumexp of an empty vector")
    m = np.max(v)
    if m == -np.inf:
        return -np.inf
    return m + np.log(np.sum(np.exp(v - m)))


def grad_check(f, analytic_grad, point, step=1e-4):
    """Compare an analytic gradient against central finite differences.

    f is a scalar function of a flat 1-d parameter vector; the numeric
    gradient per coordinate is (f(x + h e_i) - f(x - h e_i)) / (2 h).
    Returns the maximum over coordinates of

        |analytic - numeric| / max(1e-8, |analytic| + |numeric|)

    which is ~1 when a gradient is wrong and ~machine-epsilon-ish when
    it is right.  Raises if f evaluates to a non-finite value, naming
    the offending coordinate.
    """
    point = np.asarray(point, dtype=np.float64)
    analytic = np.asarray(analytic_grad, dtype=np.float64)
    if point.ndim != 1 or analytic.shape != point.shape:
        raise ShapeError(
            f"grad_check needs matching flat vectors, got point {point.shape} "
            f"and gradient {analytic.shape}"
        )
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    x = point.copy()
    worst = 0.0
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + step
        f_plus = float(f(x))
        x[i] = orig - step
        f_minus = float(f(x))
        x[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(f"non-finite function value while probing coordinate {i}")
        numeric = (f_plus - f_minus) / (2.0 * step)
        denom = max(1e-8, abs(analytic[i]) + abs(numeric))
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst
