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


def grad_check(f, analytic_grad, point):
    """Compare an analytic gradient against central finite differences.

    f is a scalar function of the float64 array `point`, of any shape,
    and analytic_grad has that shape; the numeric gradient per
    coordinate is (f(x + h e_i) - f(x - h e_i)) / (2 h), h = 1e-4.  The
    point is probed in place: f gets `point` itself with one coordinate
    moved, which is restored, also when f raises.  Returns the maximum
    over coordinates of

        |analytic - numeric| / max(1e-8, |analytic| + |numeric|)

    which is ~1 when a gradient is wrong and ~machine-epsilon-ish when
    it is right.  Raises if f evaluates to a non-finite value, naming
    the offending coordinate.
    """
    point = np.asarray(point, dtype=np.float64)
    analytic = np.asarray(analytic_grad, dtype=np.float64)
    if analytic.shape != point.shape:
        raise ShapeError(f"grad_check needs a gradient of the point's "
                         f"shape, got {analytic.shape} for {point.shape}")
    worst = 0.0
    for i in np.ndindex(point.shape):
        orig = point[i]
        try:
            point[i] = orig + 1e-4
            f_plus = float(f(point))
            point[i] = orig - 1e-4
            f_minus = float(f(point))
        finally:
            point[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError("non-finite function value while probing "
                             f"coordinate {', '.join(map(str, i))}")
        numeric = (f_plus - f_minus) / 2e-4
        denom = max(1e-8, abs(analytic[i]) + abs(numeric))
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst
