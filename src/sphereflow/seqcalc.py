"""Difference operators, the BDF2 energy form, and constraint-recursion coefficients.

Everything here is pure sequence-level arithmetic: elements are scalars or
numpy arrays, and the BDF2 form takes the pairings the caller formed in
its own inner product.  No mesh or solver knowledge.  The driver and the
audits take every function here.
"""

from __future__ import annotations

import numpy as np

# Entries of the 2x2 matrix defining the BDF2-adapted quadratic form on
# state pairs (x, y).  Eigenvalues are (3 +/- 2*sqrt(2))/4, both positive.
G11 = 5.0 / 4.0
G12 = -1.0 / 2.0
G22 = 1.0 / 4.0


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


def extrapolate(u_prev, u_prev2):
    """Second-order predictor 2 u_prev - u_prev2."""
    return 2.0 * np.asarray(u_prev, dtype=float) - np.asarray(u_prev2, dtype=float)


def g_form(xx, xy, yy):
    """BDF2 form (5/4)|x|^2 - x.y + (1/4)|y|^2 of a pair, from its pairings (x, x), (x, y), (y, y).

    Positive definite; g(x, y) - 0.5*|x-y|^2 = 0.75*|x|^2 - 0.25*|y|^2.
    """
    return G11 * xx + 2.0 * G12 * xy + G22 * yy


def gamma(n):
    """Coefficient 1 - 3**-(n+1) of the inverse generating polynomial.

    gamma(0) = 2/3, gamma(1) = 8/9, and the sequence solves the recursion
    (3/2) g_n - 2 g_{n-1} + (1/2) g_{n-2} = 0, increasing toward 1.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    return 1.0 - 3.0 ** -(n + 1)
