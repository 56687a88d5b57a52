"""Property tests of the term core on generated terms of arity 2..4, and of
the oracle on small cells against dense Fraction elimination."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import dense_member, dense_rank, dense_span  # noqa: E402
from nlie.basis import _chain_rule, _descent_rule, _nonbasic_path, is_basic  # noqa: E402
from nlie.oracle import graded_dimension, membership, relation_rows  # noqa: E402
from nlie.rewrite import collect  # noqa: E402
from nlie.terms import (  # noqa: E402
    bracket_counts,
    canonicalize,
    format_term,
    lc_from_term,
    lc_merge,
    parse,
    term_key,
)
from test_rewrite import _deepest_nonbasic_path  # noqa: E402
from test_terms import _basic_key  # noqa: E402

# bounded so the tier-1 suite stays fast; failing examples are not saved
fuzz = settings(max_examples=60, deadline=None, database=None)


def _terms(n):
    return st.recursive(
        st.integers(1, 8),
        lambda kids: st.tuples(*[kids] * n),
        max_leaves=12,
    )


arity_and_term = st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n), _terms(n))
)


@fuzz
@given(arity_and_term)
def test_parse_inverts_format(nt):
    n, t = nt
    assert parse(format_term(t), n) == t


@fuzz
@given(arity_and_term)
def test_canonicalize_is_idempotent(nt):
    n, t = nt
    s, ct = canonicalize(t, n)
    if s != 0:
        assert canonicalize(ct, n) == (1, ct)


def _canonical_brackets(n):
    """Canonical brackets built bottom-up: n distinct canonical children,
    sorted descending in the term order."""

    def bracket(kids):
        return st.lists(kids, min_size=n, max_size=n, unique=True).map(
            lambda cs: tuple(sorted(cs, key=lambda c: term_key(c, n), reverse=True))
        )

    return bracket(st.recursive(st.integers(1, 8), bracket, max_leaves=12))


arity_and_bracket = st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n), _canonical_brackets(n))
)


@fuzz
@given(arity_and_bracket, st.data())
def test_swapping_two_children_of_a_canonical_bracket_flips_the_sign(nt, data):
    n, ct = nt
    i, j = data.draw(
        st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    )
    swapped = list(ct)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert canonicalize(ct, n) == (1, ct)
    assert canonicalize(tuple(swapped), n) == (-1, ct)


arity_and_canonical_term = st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.one_of(st.integers(1, 8), _canonical_brackets(n)))
)


@fuzz
@given(arity_and_canonical_term)
def test_the_path_read_off_the_key_is_the_searched_one(nt):
    # canonical terms, basic or not; asked again, the path is read from
    # the memo the first walk filled
    n, t = nt
    want = _deepest_nonbasic_path(t, n)
    memo: dict = {}
    k = term_key(t, n)
    assert _nonbasic_path(k, memo) == want
    assert _nonbasic_path(k, memo) == want


@fuzz
@given(arity_and_canonical_term)
def test_the_one_walk_decides_as_the_recursive_definition(nt):
    # canonical terms, basic or not, under each rule: no path exactly
    # when the recursive statement of the definition finds the term basic
    n, t = nt
    k = term_key(t, n)
    for rule in [_descent_rule, _chain_rule]:
        assert (_nonbasic_path(k, {}, rule) is None) == _basic_key(k, rule)


def _left_normed(n, d, w_max):
    """Nonzero left-normed terms [..[[x_1,...,x_n], y_2,...,y_n], ...] of
    weight 2..w_max on letters 1..d, as (n, d, term): the letters of each
    bracket are distinct."""

    def letters(k):
        return st.lists(st.integers(1, d), min_size=k, max_size=k, unique=True)

    def build(core_and_tails):
        t, tails = core_and_tails
        for tail in tails:
            t = (t,) + tail
        return n, d, t

    tails = st.lists(letters(n - 1).map(tuple), max_size=w_max - 2)
    return st.tuples(letters(n).map(tuple), tails).map(build)


@st.composite
def _shaped(draw, n, d, w):
    """A bracket of any shape and exact weight w >= 2 on letters 1..d: its n
    child weights lie in 1..w-1 and sum to w + n - 2, and its leaf children
    are distinct letters, so no bracket has two equal leaves."""
    left, kids, leaves = w + n - 2, [], []
    for k in range(n - 1, -1, -1):  # k children still to come after this one
        cw = draw(st.integers(max(1, left - k * (w - 1)), min(w - 1, left - k)))
        if cw == 1:
            free = [x for x in range(1, d + 1) if x not in leaves]
            leaves.append(draw(st.sampled_from(free)))
            kids.append(leaves[-1])
        else:
            kids.append(draw(_shaped(n, d, cw)))
        left -= cw
    return tuple(kids)


def _any_shape(n, d, w_max):
    """Terms of weight 2..w_max and arbitrary shape, as (n, d, term)."""
    return st.sampled_from(range(2, w_max + 1)).flatmap(
        lambda w: _shaped(n, d, w).map(lambda t: (n, d, t))
    )


@fuzz
@given(
    st.one_of(
        _left_normed(2, 2, 7),
        _left_normed(3, 3, 5),
        _any_shape(2, 3, 6),
        _any_shape(3, 4, 5),
        _any_shape(4, 5, 4),
    )
)
def test_collect_stays_in_the_relation_span_and_ends_in_basics(ndt):
    n, d, t = ndt
    lc, trace = collect(t, n)
    assert not trace.capped
    diff = lc_from_term(t, n)
    lc_merge(diff, lc, -1)
    assert membership(diff, n, d)
    assert all(is_basic(u, n) for u in lc)


# every cell of arity 2..4 on at most 6 letters, weight at most 8, whose
# slice has at most 300 monomials
SMALL_CELLS = [
    (n, d, w)
    for n in range(2, 5)
    for d in range(1, 7)
    for w in range(1, 9)
    if bracket_counts(n, d, w)[w] <= 300
]


@fuzz
@given(st.sampled_from(SMALL_CELLS))
def test_graded_dimension_is_the_slice_size_minus_the_dense_rank(cell):
    rm = relation_rows(*cell)
    size = len(rm.basis.monomials)
    assert graded_dimension(*cell) == size - dense_rank(rm.rows, size)


_SPANS: dict = {}  # cell -> the dense span of its relation rows


@fuzz
@given(st.sampled_from([c for c in SMALL_CELLS if bracket_counts(*c)[c[2]]]), st.data())
def test_membership_agrees_with_a_dense_span_test(cell, data):
    # a combination of relation rows, members, plus at times a few
    # monomials, which may leave the span; fractions throughout
    n, d, _ = cell
    rm = relation_rows(*cell)
    monomials = rm.basis.monomials
    if cell not in _SPANS:
        _SPANS[cell] = dense_span(rm.rows, len(monomials))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    vec = [Fraction(0)] * len(monomials)
    rows = data.draw(st.lists(st.sampled_from(rm.rows), max_size=3)) if rm.rows else []
    for row in rows:
        f = data.draw(coeff)
        for j, c in row.items():
            vec[j] += f * c
    for j, c in data.draw(st.lists(st.tuples(st.integers(0, len(monomials) - 1), coeff), max_size=2)):
        vec[j] += c
    lc = {monomials[j]: c for j, c in enumerate(vec) if c}
    assert membership(lc, n, d) == dense_member(_SPANS[cell], vec)
