from fractions import Fraction
from math import comb, factorial

import pytest

from nlie import counting
from nlie.counting import (
    count_via_lie,
    count_weight2,
    divisors,
    ladder,
    ladder_recursive,
    lcs_quotient_dim,
    lie_expansion,
    moebius,
    necklace_bound,
    nonbasic_breakdown,
    weight3_closed_form,
    weight4_closed_form,
    weightw_closed_form,
    witt,
)
from nlie.terms import commutator_length


def test_moebius():
    assert [moebius(k) for k in range(1, 13)] == [
        1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0,
    ]
    with pytest.raises(ValueError):
        moebius(0)


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(13) == [1, 13]


def test_witt_small_values():
    assert [witt(2, w) for w in range(1, 11)] == [2, 1, 2, 3, 6, 9, 18, 30, 56, 99]
    assert [witt(3, w) for w in range(1, 6)] == [3, 3, 8, 18, 48]


def test_witt_generating_identity():
    # sum over w of w * l_d(w) * (number of necklaces) consistency:
    # d^m = sum_{w|m} w * l_d(w) ... checked via the classical identity
    for d in (2, 3, 4):
        for m in (1, 2, 3, 4, 6):
            assert d**m == sum(w * witt(d, w) for w in divisors(m))


def test_commutator_length():
    assert commutator_length(2, 5) == 5
    assert commutator_length(3, 4) == 7
    for n in range(2, 9):
        assert commutator_length(n, 1) == 1
        assert commutator_length(n, 2) == n


def test_necklace_bound_matches_witt_at_n2():
    for d in (2, 3, 4):
        for w in range(1, 8):
            assert necklace_bound(2, d, w) == witt(d, w)


def test_count_weight2():
    assert count_weight2(3, 5) == 10
    assert count_weight2(4, 3) == 0


def test_ladder_closed_form():
    for n in range(3, 11):
        assert ladder(n, 1) == n
        assert ladder(n, 2) == 1
        for w in range(3, 13):
            assert ladder(n, w) == comb(n + w - 3, w - 2)
            # the literal expansion over C(n, i) (table 3) sums to the same
            literal = sum(a * comb(n, i) for a, i in counting._ladder_coeffs(w))
            assert literal == comb(n + w - 3, w - 2)


def test_ladder_routes_n2_to_witt():
    for w in range(1, 11):
        assert ladder(2, w) == witt(2, w)


def test_ladder_recursive_agrees():
    for n in range(3, 7):
        for w in range(1, 9):
            assert ladder_recursive(n, w) == ladder(n, w)
    # bottom-up, so a large cell is instant
    assert ladder_recursive(12, 40) == ladder(12, 40) == 29135916264


def _weight3_double_sum(n, d):
    """The weight-3 closed form's double sum, evaluated term by term."""
    return sum(
        (d - j) * (comb(d - i + 1, n - 1) - j + i + 1)
        for i in range(1, d - n + 2)
        for j in range(i + 1, d)
    )


def test_weight3_closed_form_values():
    assert weight3_closed_form(4, 4) == 11
    assert weight3_closed_form(2, 2) == 0
    for n in range(2, 9):
        for d in range(n, 40):
            assert weight3_closed_form(n, d) == _weight3_double_sum(n, d)
    assert weight3_closed_form(2, 100000) == 8333333327500050000
    # O(1) in d
    assert weight3_closed_form(2, 10**8) == 8333333333333327500000050000000
    with pytest.raises(ValueError):
        weight3_closed_form(3, 2)


def test_weight4_agrees_with_general_form():
    for n, d in [(2, 2), (2, 4), (3, 3), (3, 5), (4, 6)]:
        assert weight4_closed_form(n, d) == weightw_closed_form(n, d, 4)


def _beta_sum_by_j(n, d):
    """The beta sum of the weight-4 and weight-w closed forms, evaluated
    j by j: find the k whose range C(k-1, n-1) < j <= C(k, n-1) holds j,
    then add beta_{j*} = d - n - j* + 2 with j* = C(k-1, n-1) + 1."""
    total = 0
    for j in range(1, comb(d - 1, n - 1) + 1):
        (k,) = [k for k in range(n - 1, d) if comb(k - 1, n - 1) < j <= comb(k, n - 1)]
        total += d - n - (comb(k - 1, n - 1) + 1) + 2
    return total


def test_closed_forms_match_j_by_j_beta_sum():
    for n in range(2, 9):
        for d in range(n, 16):
            beta = _beta_sum_by_j(n, d)
            assert counting._beta_sum(n, d) == beta
            dd = comb(d, n - 1)
            assert weight4_closed_form(n, d) == beta * (comb(dd, 2) + dd)
            for w in range(3, 7):
                inner = sum(comb(w - 3, i - 2) * comb(dd, w - i) for i in range(2, w))
                assert weightw_closed_form(n, d, w) == beta * inner


def test_beta_sum_is_o_of_n_in_d():
    assert weight4_closed_form(2, 10**8) == 24999999999999997500000000000000
    assert count_via_lie(2, 10**8, 5) == 833333349999999916666665000000000000000
    with pytest.raises(ValueError):
        weight4_closed_form(3, 2)


def test_via_lie_agrees_with_general_form():
    for n, d in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]:
        for w in (3, 4, 5):
            v = count_via_lie(n, d, w)
            assert v == weightw_closed_form(n, d, w)


def test_lie_expansion_known_rows():
    assert lie_expansion(2).coefficients == {1: 0, 2: 1}
    e7 = lie_expansion(7).coefficients
    assert e7[5] == Fraction(25, 144)
    assert e7[3] == Fraction(229, 240)
    assert e7[7] == Fraction(1, 720)


def test_lie_expansion_identity_numerically():
    # C(d, n) = sum_s c_s * l_d(s) for many integer d
    for n in range(1, 9):
        exp = lie_expansion(n)
        for d in range(1, 12):
            total = sum(c * witt(d, s) for s, c in exp.coefficients.items() if c)
            assert total == comb(d, n)


def _solved_lie_expansion(n):
    """The expansion by a triangular solve in the indeterminate d, as
    lie_expansion computed it before its closed form: l_d(s) has degree s,
    so the leading coefficient of what is left fixes c_s, s = n..1."""

    def witt_poly(s):  # l_d(s) as coefficients by degree
        coeffs = [Fraction(0)] * (s + 1)
        for r in divisors(s):
            coeffs[s // r] += Fraction(moebius(r), s)
        return coeffs

    residual = [Fraction(1)]  # C(d, n) = d(d-1)...(d-n+1)/n!
    for i in range(n):
        residual = [a - i * b for a, b in zip([0] + residual, residual + [0])]
    residual = [c / factorial(n) for c in residual]
    coeffs = {}
    for s in range(n, 0, -1):
        wp = witt_poly(s)
        coeffs[s] = residual[s] / wp[s]
        for deg, a in enumerate(wp):
            residual[deg] -= coeffs[s] * a
    assert not any(residual)
    return coeffs


def test_lie_expansion_equals_the_triangular_solve():
    for n in range(1, 31):
        got = lie_expansion(n).coefficients
        want = _solved_lie_expansion(n)
        assert list(got.items()) == list(want.items())  # key order s = n..1
        assert all(type(c) is Fraction for c in got.values())


def test_nonbasic_breakdown_identity():
    src = lambda n, d, w: ladder(n, w) if n == d else witt(d, w)
    b = nonbasic_breakdown(3, 3, 4, src)
    assert b.total == 3 ** commutator_length(3, 4)
    assert b.total == b.l_prime + b.l_second + b.l_star + b.kappa
    assert b.l_star == 0  # n == d
    b2 = nonbasic_breakdown(2, 3, 4, src)
    assert b2.total == b2.l_prime + b2.l_second + b2.l_star + b2.kappa


def test_lcs_quotient_dim():
    src = lambda n, d, w: witt(d, w)
    assert lcs_quotient_dim(2, 3, 2, 0, src) == 0
    assert lcs_quotient_dim(2, 3, 2, 2, src) == witt(3, 2) + witt(3, 3)
    with pytest.raises(ValueError):
        lcs_quotient_dim(2, 3, 2, 3, src)


def test_count_by_method_dispatch():
    assert counting.count_by_method(counting.WITT, 2, 3, 4) == witt(3, 4)
    assert counting.count_by_method(counting.WITT, 3, 3, 4) is None
    assert counting.count_by_method(counting.WEIGHT2, 3, 5, 2) == 10
    assert counting.count_by_method(counting.WEIGHT2, 3, 5, 3) is None
    assert counting.count_by_method(counting.LADDER, 3, 3, 4) == 6
    assert counting.count_by_method(counting.LADDER, 3, 4, 4) is None
    assert counting.count_by_method(counting.EQ14, 4, 4, 3) == 11
    assert counting.count_by_method(counting.EQ16, 3, 3, 4) == weightw_closed_form(3, 3, 4)
    with pytest.raises(ValueError):
        counting.count_by_method("NOPE", 2, 2, 2)
