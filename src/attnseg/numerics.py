"""Small dense-numerics kernel used by every other module.

Conventions: matrices are 2-d float64 arrays in row-major (C) order and
vectors are 1-d float64 arrays.  ``grad_check`` checks the shapes it is
given and raises :class:`ShapeError` on a mismatch, as do the entry
points of the CRF, the encoder and the AdaGrad update, so that wiring
bugs surface immediately instead of silently producing garbage
gradients.  Inside those entry points numpy broadcasting is used where
it is the natural spelling (e.g. ``encoder.tape_step`` and
``crf.nll_and_grads``).  The CRF's log-sum-exp lives in ``crf``, beside
the tables that reduce with it.
"""

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def sigmoid(x, out):
    """Elementwise logistic function 1 / (1 + exp(-x)), computed in
    place in `out` (which may be `x` itself).

    Deliberately the plain formula: exp overflow for very negative inputs
    saturates to exactly 0.0, which is the correct limit, so the warning
    is suppressed rather than the formula rearranged.  The suppression
    is left to the caller's ``np.errstate(over="ignore")``, so that a
    loop of many small calls enters that context once.
    """
    np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def softmax(v, out):
    """Stable softmax of each row of `v` (a vector is one row), via max
    subtraction, computed in `out` (which may be `v` itself).  Each row
    gets exactly the values it would get as a vector on its own.
    """
    # the reductions of v.max() and out.sum(), called directly
    out = np.subtract(v, np.maximum.reduce(v, axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out


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
