"""Property tests of the term core on generated terms of arity 2..4."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nlie.terms import canonicalize, format_term, parse, term_key  # noqa: E402

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
