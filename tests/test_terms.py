import random
from fractions import Fraction

import pytest

from conftest import random_term
from nlie import terms
from nlie.oracle import graded_monomials
from nlie.terms import (
    ArityError,
    TermSyntaxError,
    bracket_counts,
    canonical_brackets,
    canonicalize,
    compare,
    format_term,
    is_canonical,
    lc_add,
    lc_format,
    lc_from_term,
    lc_merge,
    length,
    parse,
    term_key,
    weight,
)


def test_parse_leaf():
    assert parse("x1", 2) == 1
    assert parse("x42", 3) == 42


def test_parse_bracket():
    assert parse("[x1,x2]", 2) == (1, 2)
    assert parse("[[x3,x2,x1],x2,x1]", 3) == ((3, 2, 1), 2, 1)


def test_parse_roundtrip_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        t = random_term(rng, n, 5, rng.randint(1, 4))
        assert parse(format_term(t), n) == t


def test_parse_errors_report_position():
    with pytest.raises(TermSyntaxError, match="position 0"):
        parse("y1", 2)
    with pytest.raises(TermSyntaxError, match="position 1"):
        parse("x", 2)
    with pytest.raises(TermSyntaxError, match="trailing"):
        parse("x1x2", 2)
    with pytest.raises(TermSyntaxError):
        parse("[x1,x2", 2)


def test_parse_arity_mismatch():
    with pytest.raises(ArityError):
        parse("[x1,x2,x3]", 2)
    with pytest.raises(ArityError):
        parse("[x1,x2]", 3)


def test_weight_and_length():
    assert weight(5, 3) == 1
    assert weight((3, 2, 1), 3) == 2
    assert weight(((3, 2, 1), 2, 1), 3) == 3
    assert length(((3, 2, 1), 2, 1)) == 5


def test_length_matches_weight_formula():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.choice([2, 3, 4, 5])
        w = rng.randint(1, 5)
        t = random_term(rng, n, 4, w)
        assert weight(t, n) == w
        expect = 1 if w == 1 else n + (w - 2) * (n - 1)
        assert length(t) == expect


def test_order_is_total_and_weight_graded():
    rng = random.Random(13)
    n = 3
    sample = [random_term(rng, n, 3, rng.randint(1, 4)) for _ in range(60)]
    sample += list(range(1, 4))
    for a in sample:
        assert compare(a, a, n) == terms.EQ
        for b in sample:
            c1, c2 = compare(a, b, n), compare(b, a, n)
            assert c1 == -c2
            if weight(a, n) < weight(b, n):
                assert c1 == terms.LT
    # transitivity via the sort key being a plain tuple
    keys = sorted(term_key(t, n) for t in sample)
    assert keys == sorted(keys)


def test_leaves_ordered_by_index():
    assert compare(1, 2, 2) == terms.LT
    assert compare(7, 3, 2) == terms.GT


def test_equal_weight_brackets_compared_right_to_left():
    # same last child -> decided further left
    a = ((3, 2, 1), 2, 1)
    b = ((3, 3, 1), 2, 1)  # not canonical but orderable
    assert compare(a, b, 3) == terms.LT
    # different last child decides regardless of the rest
    c = ((9, 5, 1), 3, 2)
    d = ((3, 2, 1), 9, 3)
    assert compare(c, d, 3) == terms.LT


def test_canonicalize_sorts_descending_with_sign():
    s, ct = canonicalize((1, 2), 2)
    assert (s, ct) == (-1, (2, 1))
    s, ct = canonicalize((1, 2, 3), 3)
    assert (s, ct) == (-1, (3, 2, 1))
    s, ct = canonicalize((1, 3, 2), 3)  # 3-cycle, even
    assert (s, ct) == (1, (3, 2, 1))


def test_canonicalize_kills_duplicates():
    assert canonicalize((1, 1), 2).sign == 0
    assert canonicalize((2, 1, 1), 3).sign == 0
    # duplicate appearing only after canonicalizing children
    t = (((1, 2, 3), 2, 1), (3, 2, 1), 4)
    s, ct = canonicalize(t, 3)
    assert s == -1 and ct is not None
    dup = ((3, 2, 1), (1, 2, 3), 4)
    assert canonicalize(dup, 3).sign == 0


def test_canonicalize_idempotent_and_parity():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.choice([2, 3, 4])
        t = random_term(rng, n, 4, rng.randint(1, 4))
        s, ct = canonicalize(t, n)
        if s == 0:
            assert ct is None
            continue
        assert is_canonical(ct, n)
        assert canonicalize(ct, n) == (1, ct)
        # swapping two children of the root flips the sign
        if not isinstance(t, int):
            swapped = (t[1], t[0]) + t[2:]
            s2, ct2 = canonicalize(swapped, n)
            assert (s2, ct2) == (-s, ct)


def test_lc_helpers_drop_zeros():
    lc = {}
    lc_add(lc, (2, 1), Fraction(1, 2))
    lc_add(lc, (2, 1), Fraction(-1, 2))
    assert lc == {}
    lc_merge(lc, {(2, 1): Fraction(3)}, scale=2)
    assert lc == {(2, 1): Fraction(6)}


def test_lc_from_term_canonicalizes():
    assert lc_from_term((1, 2), 2) == {(2, 1): Fraction(-1)}
    assert lc_from_term((1, 1), 2) == {}


def test_lc_format():
    assert lc_format({}, 3) == "0"
    assert lc_format({(3, 2, 1): Fraction(-1)}, 3) == "-1*[x3,x2,x1]"
    out = lc_format({(2, 1): Fraction(1, 2), (3, 1): Fraction(-2)}, 2)
    assert out == "+1/2*[x2,x1] -2*[x3,x1]"


@pytest.mark.parametrize("cell", [(2, 3, 6), (3, 4, 4), (4, 5, 4), (5, 6, 3)])
def test_canonical_brackets_ids_follow_term_order(cell):
    n, d, w = cell
    terms_by_id, base, bracket = canonical_brackets(n, d, w)
    assert terms_by_id[:d] == list(range(1, d + 1))
    assert base[1] == 0 and base[w + 1] == len(terms_by_id)
    assert all(is_canonical(t, n) for t in terms_by_id)
    keys = [term_key(t, n) for t in terms_by_id]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    index = {t: i for i, t in enumerate(terms_by_id)}
    for v in range(1, w + 1):
        for i in range(base[v], base[v + 1]):
            assert weight(terms_by_id[i], n) == v
    assert len(bracket) == len(terms_by_id) - d
    for ids, i in bracket.items():
        assert terms_by_id[i] == tuple(terms_by_id[c] for c in ids)
        assert bracket[tuple(index[c] for c in terms_by_id[i])] == i


def test_bracket_counts_size_each_weight_of_a_build():
    for n in range(2, 6):
        for d in range(1, 6):
            for w in range(1, 7 if n < 4 else 6):
                _, base, _ = canonical_brackets(n, d, w)
                sizes = [base[v + 1] - base[v] for v in range(1, w + 1)]
                assert bracket_counts(n, d, w) == [0] + sizes


def test_deep_terms_print_parse_weigh_and_key():
    # depth 900, which parse accepts: format_term keeps its own stack, and
    # weight and term_key take one frame per level
    t = (2, 1)
    for k in range(899):
        t = (t, 1 + k % 3)
    text = format_term(t)
    assert text.count("[") == 900
    assert parse(text, 2) == t
    assert weight(t, 2) == term_key(t, 2)[0] == 901
