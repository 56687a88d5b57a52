"""Counting formulas for basic commutators: the Witt formula, the
necklace-style upper bound, closed forms for weight 2/3/4/w, the n=d
ladder (closed and recursive), the nonbasic-count decomposition, and the
expansion of binomial coefficients into free-Lie graded dimensions.

Everything is exact: integers and `fractions.Fraction` throughout.
`fractions` and `nlie.terms` are imported by the functions that use
them, so a closed-form count from a cold `nlie` loads neither.

The closed forms are evaluated literally, even where they disagree with
each other (the weight-3 double sum gives 11 at n=d=4 where the ladder
gives 4, and 0 at n=2, d=2 where the Witt formula gives 2).  Disagreements
are surfaced by the comparison report, never reconciled silently.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, factorial
from typing import NamedTuple, Optional

# Method tags, in the column order of the comparison report.  METHODS is
# the one list of them: the CLI derives its `count --method` names (lower
# case, "-" for "_"), its report columns and its flags from it.
WITT = "WITT"
NECKLACE_BOUND = "NECKLACE_BOUND"
WEIGHT2 = "WEIGHT2"
LADDER = "LADDER"
LADDER_RECURSIVE = "LADDER_RECURSIVE"
EQ14 = "EQ14"
EQ15 = "EQ15"
EQ16 = "EQ16"
VIA_LIE = "VIA_LIE"
ENUM_FULL = "ENUM_FULL"
ENUM_LEFT = "ENUM_LEFT"
ORACLE = "ORACLE"

METHODS = (
    WITT,
    NECKLACE_BOUND,
    WEIGHT2,
    LADDER,
    LADDER_RECURSIVE,
    EQ14,
    EQ15,
    EQ16,
    VIA_LIE,
    ENUM_FULL,
    ENUM_LEFT,
    ORACLE,
)


def moebius(k: int) -> int:
    if k < 1:
        raise ValueError("moebius is defined for positive integers")
    result = 1
    p = 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            result = -result
        else:
            p += 1
    if k > 1:
        result = -result
    return result


def divisors(k: int) -> list[int]:
    small, large = [], []
    i = 1
    while i * i <= k:
        if k % i == 0:
            small.append(i)
            if i != k // i:
                large.append(k // i)
        i += 1
    return small + large[::-1]


def witt(d: int, w: int) -> int:
    """Graded dimension of the free Lie algebra on d generators:
    (1/w) * sum_{r|w} mu(r) d^(w/r)."""
    if d < 1 or w < 1:
        raise ValueError("witt requires d >= 1, w >= 1")
    s = sum(moebius(r) * d ** (w // r) for r in divisors(w))
    q, rem = divmod(s, w)
    assert rem == 0, f"Witt sum {s} not divisible by {w}"
    return q


def necklace_bound(n: int, d: int, w: int) -> int:
    """Upper bound (1/m) sum_{r|m} mu(r) d^(m/r) with m the length; equals
    the Witt formula exactly when n = 2."""
    from .terms import commutator_length

    if n < 2 or d < 1 or w < 1:
        raise ValueError("necklace_bound requires n >= 2, d >= 1, w >= 1")
    return witt(d, commutator_length(n, w))


def count_weight2(n: int, d: int) -> int:
    """Number of weight-2 basic commutators: C(d, n) (0 when d < n)."""
    if n < 2 or d < 0:
        raise ValueError("count_weight2 requires n >= 2, d >= 0")
    return comb(d, n)


def _ladder_coeffs(w: int) -> list[tuple[int, int]]:
    """(coefficient, lower index) pairs of the literal weight-w expansion
    over C(n, i): coefficient of C(n, i) is C(w-3, i-1) for i = 1..w-2."""
    return [(comb(w - 3, i - 1), i) for i in range(1, w - 1)]


def ladder(n: int, w: int) -> int:
    """Number of basic commutators at n = d.  Closed form C(n+w-3, w-2)
    for w >= 2, which the literal expansion sum_i C(w-3, i-1) C(n, i)
    equals by Vandermonde's identity; w = 1 gives n.  n = 2 is routed to
    the Witt formula (the ladder expansions fail there from weight 5 on)."""
    if n < 2 or w < 1:
        raise ValueError("ladder requires n >= 2, w >= 1")
    if n == 2:
        return witt(2, w)
    if w == 1:
        return n
    return comb(n + w - 3, w - 2)


def ladder_recursive(n: int, w: int) -> int:
    """The n = d counts via the recursions: l(3,3,w) = l(3,3,w-1) + (w-1)
    with bases l(3,3,1) = 3, l(3,3,2) = 1, and for n > 3
    l(n,n,w) = sum_{w'=2..w} l(n-1,n-1,w'), bottom-up: the n = 3 row over
    w' = 2..w, then n - 3 rounds of prefix sums."""
    if n < 3 or w < 1:
        raise ValueError("ladder_recursive requires n >= 3, w >= 1")
    if w == 1:
        return n
    row = list(accumulate(range(2, w), initial=1))
    for _ in range(n - 3):
        row = list(accumulate(row))
    return row[-1]


def weight3_closed_form(n: int, d: int) -> int:
    """The double-sum closed form for weight 3:
    sum_{i=1}^{d-n+1} sum_{j=i+1}^{d-1} (d-j)[C(d-i+1, n-1) - j + i + 1],
    both sums taken in closed form (hockey-stick identities), so O(1)."""
    if n < 2 or d < n:
        raise ValueError("weight3_closed_form requires n >= 2, d >= n")
    return (
        comb(n + 1, 2) * comb(d + 1, n + 2) + n * (n - 2) * comb(d + 1, n + 1)
        + comb(n - 2, 2) * (comb(d + 1, n) - 1) - comb(d, 4) + comb(n - 1, 4)
    )


def _beta_sum(n: int, d: int) -> int:
    """sum_{j=1}^{alpha_0} beta_{j*} with alpha_0 = C(d-1, n-1).  Each j
    lies in the range C(k-1, n-1) + 1 <= j <= C(k, n-1) of exactly one k in
    {n-1,...,d-1} (the ranges tile 1..alpha_0), and there
    j* = C(k-1, n-1) + 1 and beta_{j*} = d - n - j* + 2.  So each range
    adds its C(k-1, n-2) members times d - n - C(k-1, n-1) + 1.  That sum
    over k is taken by the hockey stick after C(m, a) C(m, b) =
    sum_i C(i, a) C(a, i-b) C(m, i), so O(n)."""
    return (d - n + 1) * comb(d - 1, n - 1) - sum(
        comb(i, n - 2) * comb(n - 2, i - n + 1) * comb(d - 1, i + 1)
        for i in range(n - 1, 2 * n - 2)
    )


def weight4_closed_form(n: int, d: int) -> int:
    """Closed form for weight 4:
    sum_j beta_{j*} (C(C(d, n-1), 2) + C(d, n-1)), which is
    `weightw_closed_form` at w = 4."""
    if n < 2 or d < n:
        raise ValueError("weight4_closed_form requires n >= 2, d >= n")
    return weightw_closed_form(n, d, 4)


def weightw_closed_form(n: int, d: int, w: int) -> int:
    """General closed form:
    sum_j beta_{j*} sum_{i=2}^{w-1} alpha_i C(C(d, n-1), w-i) with
    alpha_i = C(w-3, i-2)."""
    if n < 2 or d < n or w < 3:
        raise ValueError("weightw_closed_form requires n >= 2, d >= n, w >= 3")
    dd = comb(d, n - 1)
    inner = sum(comb(w - 3, i - 2) * comb(dd, w - i) for i in range(2, w))
    return _beta_sum(n, d) * inner


class NonbasicBreakdown(NamedTuple):
    """Decomposition of the d^(m_w) raw commutators of weight w."""

    n: int
    d: int
    w: int
    total: int  # d^(m_w)
    basic: int  # the selected count l(w)
    nonbasic: int  # total - basic
    l_prime: int  # nonbasic weight-(w-1) cores times free exteriors
    l_second: int  # basic cores arranged with nonbasic exteriors
    l_star: int  # remaining rule-3 failures (0 when n = d)
    kappa: int  # total - l_prime - l_second - l_star


def nonbasic_breakdown(n: int, d: int, w: int, l_source) -> NonbasicBreakdown:
    """Populate the nonbasic-count identities.  `l_source` is a callable
    (n, d, w) -> int selecting which count feeds them.  The identity
    total = L' + L'' + L* + kappa holds by construction and is asserted."""
    from .terms import commutator_length

    if n < 2 or d < 1 or w < 2:
        raise ValueError("nonbasic_breakdown requires n >= 2, d >= 1, w >= 2")
    m_w = commutator_length(n, w)
    m_prev = commutator_length(n, w - 1)
    total = d**m_w
    l_w = l_source(n, d, w)
    l_prev = l_source(n, d, w - 1)
    nonbasic = total - l_w
    l_prime = (d**m_prev - l_prev) * d ** (n - 1)
    l_second = l_prev * (d ** (n - 1) - comb(d, n - 1))
    if n == d:
        l_star = 0
    else:
        l_star = l_prev * comb(d, n - 1) - l_w
    kappa = total - l_prime - l_second - l_star
    assert total == l_prime + l_second + l_star + kappa
    return NonbasicBreakdown(
        n, d, w, total, l_w, nonbasic, l_prime, l_second, l_star, kappa
    )


# ---------------------------------------------------------------------------
# Expansion of C(d, n) into free-Lie graded dimensions


class LieExpansion(NamedTuple):
    """Exact rationals c_s with C(d, n) = sum_{s=1}^n c_s * l_d(s) as a
    polynomial identity in d."""

    n: int
    coefficients: dict  # s -> Fraction


def _witt_poly(s: int) -> list[Fraction]:
    """Coefficient list (index = degree) of l_d(s) as a polynomial in d."""
    from fractions import Fraction

    coeffs = [Fraction(0)] * (s + 1)
    for r in divisors(s):
        coeffs[s // r] += Fraction(moebius(r), s)
    return coeffs


def _binomial_poly(n: int) -> list[Fraction]:
    """Coefficient list of C(d, n) = d(d-1)...(d-n+1)/n! in d."""
    from fractions import Fraction

    poly = [Fraction(1)]
    for i in range(n):
        # multiply by (d - i)
        new = [Fraction(0)] * (len(poly) + 1)
        for deg, c in enumerate(poly):
            new[deg + 1] += c
            new[deg] -= i * c
        poly = new
    return [c / factorial(n) for c in poly]


def lie_expansion(n: int) -> LieExpansion:
    """Triangular solve of C(d, n) = sum_s c_s l_d(s) in the indeterminate
    d (l_d(s) has degree s, so the system is triangular)."""
    from fractions import Fraction

    if n < 1:
        raise ValueError("lie_expansion requires n >= 1")
    target = _binomial_poly(n)
    coeffs: dict[int, Fraction] = {}
    residual = list(target)
    for s in range(n, 0, -1):
        lead = residual[s] if s < len(residual) else Fraction(0)
        wp = _witt_poly(s)
        c = lead / wp[s]
        coeffs[s] = c
        for deg, a in enumerate(wp):
            residual[deg] -= c * a
    assert all(a == 0 for a in residual), "expansion residual nonzero"
    return LieExpansion(n, coeffs)


def count_via_lie(n: int, d: int, w: int) -> Fraction:
    """The general closed form with every inner binomial C(C(d,n-1), k)
    replaced by its expansion into free-Lie graded dimensions evaluated at
    C(d, n-1) generators.  Must agree with weightw_closed_form."""
    from fractions import Fraction

    if n < 2 or d < n or w < 3:
        raise ValueError("count_via_lie requires n >= 2, d >= n, w >= 3")
    dstar = comb(d, n - 1)
    inner = Fraction(0)
    for i in range(2, w):
        k = w - i
        exp = lie_expansion(k)
        val = Fraction(0)
        for s, c in exp.coefficients.items():
            if c != 0:
                val += c * witt(dstar, s)
        inner += comb(w - 3, i - 2) * val
    return _beta_sum(n, d) * inner


def lcs_quotient_dim(n: int, d: int, i: int, c: int, l_source) -> int:
    """Dimension of the abelian quotient of lower-central-series terms
    F^i / F^(i+c): sum_{k=i}^{i+c-1} l(k); c = 0 gives 0.  `l_source` is a
    callable (n, d, w) -> int."""
    if not (0 <= c <= i):
        raise ValueError("lcs_quotient_dim requires 0 <= c <= i")
    return sum(l_source(n, d, k) for k in range(i, i + c))


def count_by_method(method: str, n: int, d: int, w: int) -> Optional[int]:
    """Dispatch a method tag to its formula; None when the method does not
    apply to the cell.  Oracle and enumeration methods are not handled
    here (they live in their own modules)."""
    if method == WITT:
        return witt(d, w) if n == 2 else None
    if method == NECKLACE_BOUND:
        return necklace_bound(n, d, w)
    if method == WEIGHT2:
        return count_weight2(n, d) if w == 2 else None
    if method == LADDER:
        return ladder(n, w) if n == d else None
    if method == LADDER_RECURSIVE:
        return ladder_recursive(n, w) if n == d and n >= 3 else None
    if method == EQ14:
        return weight3_closed_form(n, d) if w == 3 and d >= n else None
    if method == EQ15:
        return weight4_closed_form(n, d) if w == 4 and d >= n else None
    if method == EQ16:
        return weightw_closed_form(n, d, w) if w >= 3 and d >= n else None
    if method == VIA_LIE:
        if w >= 3 and d >= n:
            v = count_via_lie(n, d, w)
            return int(v) if v.denominator == 1 else v
        return None
    raise ValueError(f"unknown method {method!r}")
