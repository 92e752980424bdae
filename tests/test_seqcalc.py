"""Difference-operator algebra: exact relations, norm equivalence, recursions."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import bdf2_derivative, constraint_recursion_closed_form
from sphereflow.seqcalc import backward_difference, extrapolate, g_form, gamma, second_difference

RNG = np.random.default_rng(20240817)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def iterate_squared_length(sq0, sq1, d2sq, tau):
    """Forward iteration of (3/2) s_n - 2 s_{n-1} + (1/2) s_{n-2} = (3/2) tau^4 a_n."""
    prev2, prev = sq0, sq1
    for a_n in d2sq:
        cur = (2.0 * prev - 0.5 * prev2 + 1.5 * tau**4 * a_n) / 1.5
        prev2, prev = prev, cur
    return prev


def test_backward_difference_examples():
    assert backward_difference(5.0, 5.0, 0.25) == 0.0
    assert backward_difference(3.0, 1.0, 1.0) == 2.0
    for tau in (0.5, 0.125):
        seq = [n * tau for n in range(6)]
        for n in range(1, 6):
            assert backward_difference(seq[n], seq[n - 1], tau) == pytest.approx(1.0, rel=1e-14)


def test_backward_difference_rejects_bad_tau():
    with pytest.raises(ValueError):
        backward_difference(1.0, 0.0, 0.0)


def test_second_difference_examples():
    # affine sequences are annihilated
    tau = 0.3
    seq = [2.0 + 5.0 * n * tau for n in range(4)]
    assert second_difference(seq[3], seq[2], seq[1], tau) == pytest.approx(0.0, abs=1e-13)
    # quadratic: n^2 - 2(n-1)^2 + (n-2)^2 = 2
    assert second_difference(4.0, 1.0, 0.0, 1.0) == 2.0
    out = second_difference(np.array([1.0, 0, 0]), np.zeros(3), np.array([1.0, 0, 0]), 1.0)
    assert np.allclose(out, [2.0, 0.0, 0.0])


def test_bdf2_derivative_examples():
    assert bdf2_derivative(7.0, 7.0, 7.0, 0.5) == 0.0
    tau = 0.25
    assert bdf2_derivative(3 * tau, 2 * tau, tau, tau) == pytest.approx(1.0, rel=1e-14)
    # exact on quadratics: states 4, 1, 0 of n^2 at n=2 give derivative 4
    assert bdf2_derivative(4.0, 1.0, 0.0, 1.0) == 4.0


@given(st.lists(finite, min_size=5, max_size=9))
def test_bdf2_is_weighted_first_differences(seq):
    # round-off scales with the operand size |u|/tau, not the (possibly
    # cancelled) output, so the tolerance carries that factor
    scale = max(abs(v) for v in seq)
    for tau in (1.0, 0.1):
        for n in range(2, len(seq)):
            lhs = 2.0 * bdf2_derivative(seq[n], seq[n - 1], seq[n - 2], tau)
            rhs = 3.0 * backward_difference(seq[n], seq[n - 1], tau) - backward_difference(
                seq[n - 1], seq[n - 2], tau
            )
            assert abs(lhs - rhs) <= 1e-14 * (1.0 + abs(lhs) + abs(rhs) + scale / tau)


def test_bdf2_weighted_difference_relation_random():
    # the spec form: random sequences, tau in {1, 0.1}, 1e-14 relative
    for _ in range(200):
        seq = RNG.standard_normal(RNG.integers(5, 12))
        for tau in (1.0, 0.1):
            for n in range(2, len(seq)):
                lhs = 2.0 * bdf2_derivative(seq[n], seq[n - 1], seq[n - 2], tau)
                rhs = 3.0 * backward_difference(seq[n], seq[n - 1], tau) - backward_difference(
                    seq[n - 1], seq[n - 2], tau
                )
                assert abs(lhs - rhs) <= 1e-14 * (1.0 + abs(lhs) + abs(rhs))


def test_bdf2_correction_is_scaled_second_difference():
    seq = RNG.standard_normal((100, 3))
    tau = 0.1
    for n in range(2, len(seq)):
        lhs = 2.0 * (
            bdf2_derivative(seq[n], seq[n - 1], seq[n - 2], tau)
            - backward_difference(seq[n], seq[n - 1], tau)
        )
        rhs = tau * second_difference(seq[n], seq[n - 1], seq[n - 2], tau)
        assert np.all(np.abs(lhs - rhs) <= 1e-14 * (1.0 + np.abs(lhs)))


def test_extrapolate_examples():
    assert extrapolate(3.0, 3.0) == 3.0
    tau = 0.2
    assert extrapolate(4 * tau, 3 * tau) == pytest.approx(5 * tau, rel=1e-14)
    assert np.allclose(extrapolate([2.0, 0, 0], [0.0, 2, 0]), [4.0, -2.0, 0.0])


def test_g_norm_sq_examples():
    # (x, y) = (0, 0), (1, 1) and (1, 0) through their pairings
    assert g_form(0.0, 0.0, 0.0) == 0.0
    assert g_form(1.0, 1.0, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert g_form(1.0, 0.0, 0.0) == pytest.approx(1.25, rel=1e-15)


def test_g_norm_custom_inner_product():
    w = np.array([2.0, 3.0])
    inner = lambda a, b: float(np.sum(w * a * b))
    x = np.array([1.0, -1.0])
    y = np.array([0.5, 2.0])
    expected = 1.25 * inner(x, x) - inner(x, y) + 0.25 * inner(y, y)
    assert g_form(inner(x, x), inner(x, y), inner(y, y)) == pytest.approx(expected, rel=1e-14)


def test_quadratic_relation_identity():
    # g(x,y) - |x-y|^2/2 = 3|x|^2/4 - |y|^2/4 on 1000 random pairs
    x = RNG.standard_normal(1000)
    y = RNG.standard_normal(1000)
    lhs = 1.25 * x * x - x * y + 0.25 * y * y - 0.5 * (x - y) ** 2
    rhs = 0.75 * x * x - 0.25 * y * y
    assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs) + np.abs(rhs))) <= 1e-14


def _g_pair_identity_residual(seq, tau):
    """Worst residual of udot.u = d_t g(u_n, u_prev) + (tau^3/4)|d2 u|^2."""
    worst = 0.0
    for n in range(2, len(seq)):
        u, v, w = seq[n], seq[n - 1], seq[n - 2]
        udot = bdf2_derivative(u, v, w, tau)
        lhs = float(np.sum(udot * u))
        g_n = g_form(np.sum(u * u), np.sum(u * v), np.sum(v * v))
        g_p = g_form(np.sum(v * v), np.sum(v * w), np.sum(w * w))
        d2 = second_difference(u, v, w, tau)
        rhs = (g_n - g_p) / tau + 0.25 * tau**3 * float(np.sum(d2 * d2))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)))
    return worst


def test_derivative_pairing_identity_scalar_and_vector():
    for shape in ((8,), (8, 3)):
        seq = RNG.standard_normal(shape)
        for tau in (1.0, 0.05):
            assert _g_pair_identity_residual(seq, tau) <= 1e-13


def test_discrete_chain_rule_identity():
    # 2 udot.uhat = (3|u|^2 - 4|v|^2 + |w|^2)/(2 tau) - (3/2) tau^3 |d2|^2
    for shape in ((10,), (10, 3)):
        seq = RNG.standard_normal(shape)
        for tau in (1.0, 0.1):
            for n in range(2, len(seq)):
                u, v, w = seq[n], seq[n - 1], seq[n - 2]
                udot = bdf2_derivative(u, v, w, tau)
                uhat = extrapolate(v, w)
                d2 = second_difference(u, v, w, tau)
                lhs = 2.0 * float(np.sum(udot * uhat))
                rhs = (
                    3.0 * np.sum(u * u) - 4.0 * np.sum(v * v) + np.sum(w * w)
                ) / (2.0 * tau) - 1.5 * tau**3 * float(np.sum(d2 * d2))
                assert abs(lhs - rhs) <= 1e-13 * (1.0 + abs(lhs) + abs(rhs))


def test_gamma_values():
    assert gamma(0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert gamma(1) == pytest.approx(8.0 / 9.0, rel=1e-15)
    assert gamma(3) == pytest.approx(80.0 / 81.0, rel=1e-15)
    assert 1.5 * gamma(3) - 2.0 * gamma(2) + 0.5 * gamma(1) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        gamma(-1)


def test_gamma_recursion_exact_in_rationals():
    # closed form satisfies the recursion exactly; floats agree with rationals
    exact = [Fraction(1) - Fraction(1, 3 ** (n + 1)) for n in range(31)]
    for n in range(2, 31):
        assert Fraction(3, 2) * exact[n] - 2 * exact[n - 1] + Fraction(1, 2) * exact[n - 2] == 0
    for n in range(31):
        assert gamma(n) == pytest.approx(float(exact[n]), rel=1e-15)


def test_gamma_monotone_to_one():
    values = [gamma(n) for n in range(200)]
    assert all(2.0 / 3.0 <= v < 1.0 + 1e-15 for v in values)
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0, abs=1e-15)


def _seminorms(seq, tau):
    dts = [
        np.linalg.norm(backward_difference(seq[n], seq[n - 1], tau)) for n in range(1, len(seq))
    ]
    dots = [
        np.linalg.norm(bdf2_derivative(seq[n], seq[n - 1], seq[n - 2], tau))
        for n in range(2, len(seq))
    ]
    d2s = [
        np.linalg.norm(second_difference(seq[n], seq[n - 1], seq[n - 2], tau))
        for n in range(2, len(seq))
    ]
    sq1 = tau * sum(d * d for d in dots) + tau * dts[0] ** 2
    sq2 = tau * sum(d * d for d in dts)
    sq_inv = tau * sum(d * d for d in d2s)
    return sq1, sq2, sq_inv


def test_seminorm_equivalence_constants():
    # |.|_{tau,1}^2 <= 5 |.|_{tau,2}^2 and |.|_{tau,2}^2 <= (9/7) |.|_{tau,1}^2
    for _ in range(50):
        seq = RNG.standard_normal((RNG.integers(5, 15), 3))
        tau = float(RNG.uniform(0.05, 1.0))
        sq1, sq2, _ = _seminorms(seq, tau)
        assert sq1 <= 5.0 * sq2 * (1.0 + 1e-12)
        assert sq2 <= (9.0 / 7.0) * sq1 * (1.0 + 1e-12)


def test_inverse_estimate_constant():
    # tau^2 sum tau |d2|^2 <= (128/7) (tau sum |udot|^2 + tau |d_t u^1|^2)
    for _ in range(50):
        seq = RNG.standard_normal((RNG.integers(5, 15), 3))
        tau = float(RNG.uniform(0.05, 1.0))
        sq1, _, sq_inv = _seminorms(seq, tau)
        assert tau**2 * sq_inv <= (128.0 / 7.0) * sq1 * (1.0 + 1e-12)


def test_closed_form_constant_sequence():
    for n in (2, 5, 9):
        d2sq = [0.0] * (n - 1)
        assert constraint_recursion_closed_form(1.0, 1.0, d2sq, n, 0.125) == pytest.approx(
            1.0, rel=1e-14
        )


def test_closed_form_single_step():
    tau, a = 0.25, 1.7
    got = constraint_recursion_closed_form(1.0, 1.0 + tau**2 * a**2, [0.0], 2, tau)
    assert got == pytest.approx(1.0 + (4.0 / 3.0) * tau**2 * a**2, rel=1e-14)


def test_closed_form_matches_forward_iteration():
    for _ in range(200):
        tau = float(RNG.uniform(0.05, 1.0))
        sq0, sq1 = RNG.uniform(0.5, 2.0, size=2)
        d2sq = RNG.uniform(0.0, 3.0, size=8)
        got = constraint_recursion_closed_form(sq0, sq1, list(d2sq), 9, tau)
        want = iterate_squared_length(sq0, sq1, d2sq, tau)
        assert abs(got - want) <= 1e-13 * (1.0 + abs(want))


def test_closed_form_nodal_fields():
    sq0 = RNG.uniform(0.5, 2.0, size=11)
    sq1 = RNG.uniform(0.5, 2.0, size=11)
    d2sq = [RNG.uniform(0.0, 1.0, size=11) for _ in range(4)]
    tau = 0.2
    got = constraint_recursion_closed_form(sq0, sq1, d2sq, 5, tau)
    want = iterate_squared_length(sq0, sq1, d2sq, tau)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_closed_form_rejects_bad_input():
    with pytest.raises(ValueError):
        constraint_recursion_closed_form(1.0, 1.0, [], 1, 0.1)
    with pytest.raises(ValueError):
        constraint_recursion_closed_form(1.0, 1.0, [0.0, 0.0], 2, 0.1)
