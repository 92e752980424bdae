"""Difference operators, the BDF2 energy norm, and constraint-recursion algebra.

Everything here is pure sequence-level arithmetic: elements are scalars or
numpy arrays from a common inner-product space, and the inner product is
supplied by the caller where it matters.  No mesh or solver knowledge.

The driver and the audits take ``extrapolate``, ``backward_difference``,
``second_difference``, ``g_form`` and ``gamma`` from here.
``bdf2_derivative`` and ``constraint_recursion_closed_form`` (the explicit
sum behind the driver's running closed-form update) are test oracles.
"""

from __future__ import annotations

import numpy as np

# Entries of the 2x2 matrix defining the BDF2-adapted quadratic form on
# state pairs (x, y).  Eigenvalues are (3 +/- 2*sqrt(2))/4, both positive.
G11 = 5.0 / 4.0
G12 = -1.0 / 2.0
G22 = 1.0 / 4.0


def _dot(x, y, inner=None):
    if inner is not None:
        return inner(x, y)
    return float(np.sum(np.asarray(x, dtype=float) * np.asarray(y, dtype=float)))


def backward_difference(u_n, u_prev, tau):
    """First backward difference (u_n - u_prev) / tau."""
    if tau <= 0:
        raise ValueError(f"step size must be positive, got {tau}")
    return (np.asarray(u_n, dtype=float) - np.asarray(u_prev, dtype=float)) / tau


def second_difference(u_n, u_prev, u_prev2, tau):
    """Second backward difference (u_n - 2 u_prev + u_prev2) / tau**2."""
    if tau <= 0:
        raise ValueError(f"step size must be positive, got {tau}")
    u_n = np.asarray(u_n, dtype=float)
    u_prev = np.asarray(u_prev, dtype=float)
    u_prev2 = np.asarray(u_prev2, dtype=float)
    return (u_n - 2.0 * u_prev + u_prev2) / tau**2


def bdf2_derivative(u_n, u_prev, u_prev2, tau):
    """Two-step derivative (3 u_n - 4 u_prev + u_prev2) / (2 tau).

    Exact for quadratic sequences; satisfies the exact relations
    2*bdf2_derivative = 3*d_t u_n - d_t u_prev and
    2*(bdf2_derivative - d_t u_n) = tau * second_difference.
    """
    if tau <= 0:
        raise ValueError(f"step size must be positive, got {tau}")
    u_n = np.asarray(u_n, dtype=float)
    u_prev = np.asarray(u_prev, dtype=float)
    u_prev2 = np.asarray(u_prev2, dtype=float)
    return (3.0 * u_n - 4.0 * u_prev + u_prev2) / (2.0 * tau)


def extrapolate(u_prev, u_prev2):
    """Second-order predictor 2 u_prev - u_prev2."""
    return 2.0 * np.asarray(u_prev, dtype=float) - np.asarray(u_prev2, dtype=float)


def g_form(xx, xy, yy):
    """The form of :func:`g_norm_sq` from the pairings (x, x), (x, y) and (y, y)."""
    return G11 * xx + 2.0 * G12 * xy + G22 * yy


def g_norm_sq(x, y, inner=None):
    """Quadratic form (5/4)|x|^2 - x.y + (1/4)|y|^2 on a state pair.

    ``inner`` is an optional bilinear form; the default is the Euclidean
    dot product over all array entries.  The form is positive definite and
    satisfies g_norm_sq(x, y) - 0.5*|x-y|^2 = 0.75*|x|^2 - 0.25*|y|^2.
    """
    return g_form(_dot(x, x, inner), _dot(x, y, inner), _dot(y, y, inner))


def gamma(n):
    """Coefficient 1 - 3**-(n+1) of the inverse generating polynomial.

    gamma(0) = 2/3, gamma(1) = 8/9, and the sequence solves the recursion
    (3/2) g_n - 2 g_{n-1} + (1/2) g_{n-2} = 0, increasing toward 1.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    return 1.0 - 3.0 ** -(n + 1)


def constraint_recursion_closed_form(sq0, sq1, d2sq, n, tau):
    """Closed-form solution of the squared-length difference equation.

    Solves (3/2) s_n - 2 s_{n-1} + (1/2) s_{n-2} = (3/2) tau**4 * d2sq[n]
    for the terminal value s_n, given s_0 = ``sq0``, s_1 = ``sq1`` and the
    inhomogeneities ``d2sq`` = [a_2, ..., a_n] (squared second differences).
    Inputs may be scalars or per-node arrays.

    Returns
    -------
    -1/2 (1 - 3**-(n-1)) sq0 + 3/2 (1 - 3**-n) sq1
        + 3/2 tau**4 * sum_i (1 - 3**-(n+1-i)) d2sq[i],  i = 2..n
    """
    if n < 2:
        raise ValueError(f"closed form needs n >= 2, got {n}")
    if len(d2sq) != n - 1:
        raise ValueError(f"expected {n - 1} second-difference terms, got {len(d2sq)}")
    sq0 = np.asarray(sq0, dtype=float)
    sq1 = np.asarray(sq1, dtype=float)
    out = -0.5 * (1.0 - 3.0 ** -(n - 1)) * sq0 + 1.5 * (1.0 - 3.0**-n) * sq1
    for offset, a_i in enumerate(d2sq):
        i = 2 + offset
        out = out + 1.5 * tau**4 * (1.0 - 3.0 ** -(n + 1 - i)) * np.asarray(a_i, dtype=float)
    return out if out.ndim else float(out)
