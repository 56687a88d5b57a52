import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from conftest import random_term
from nlie import basis, terms
from nlie.basis import EnumerationMode, is_basic
from nlie.oracle import graded_monomials
from nlie.rewrite import collect, expand_jacobi
from nlie.terms import (
    ArityError,
    _int_text,
    _key_children,
    TermSyntaxError,
    bracket_counts,
    bracket_layers,
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
    weight_multisets,
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
    with pytest.raises(TermSyntaxError, match="end of input at position 4"):
        parse("[x1,", 2)
    with pytest.raises(TermSyntaxError, match=">= 1 at position 2"):
        parse("x0", 2)
    # INT is ASCII 0-9: a fullwidth 1, an Arabic-Indic 3 or 1 and a
    # superscript 2 are not digits of an index
    for text, pos in [("[x\uff11,x2]", 2), ("x\u0663", 1), ("[x\u00b2,x1]", 2),
                      ("[x\u0661,x2]", 2)]:
        with pytest.raises(TermSyntaxError) as err:
            parse(text, 2)
        assert str(err.value) == f"expected generator index after 'x' at position {pos}"
    with pytest.raises(TermSyntaxError, match="trailing"):
        parse("x1\uff12", 2)


def _digits(v):
    """The digit count of v > 0, printing only numbers below the limit."""
    k = 0
    while v >= 10**1000:
        v //= 10**1000
        k += 1000
    return k + len(str(v))


def test_int_text_names_an_unprintable_number_by_its_digit_count():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("no int-to-str limit in this interpreter")
    for v in (0, 7, -12, 10 ** (limit - 1), 10**limit - 1):
        assert _int_text(v) == str(v)  # as before: byte-identical
    for v in (10**limit, 10**limit + 1, 2 * 10**limit, -(10**limit), 2**20000, 10**12000 - 1):
        assert _int_text(v) == f"<a {_digits(abs(v))}-digit number>"
    assert _int_text(10**limit) == f"<a {limit + 1}-digit number>"


def test_parse_arity_mismatch():
    with pytest.raises(ArityError):
        parse("[x1,x2,x3]", 2)
    with pytest.raises(ArityError):
        parse("[x1,x2]", 3)


def test_canonicalize_and_collect_reject_malformed_terms():
    for f in (canonicalize, collect):
        with pytest.raises(ValueError, match=">= 1, got 0"):
            f((2, 0), 2)
        with pytest.raises(TypeError, match="not a term"):
            f((2, [1, 2]), 2)
        with pytest.raises(ArityError):
            f((2, (1, 2, 3)), 2)
        f(((2, 1), 1), 2)


# (n, a malformed term, the exception and text every entry raises on it).
# The last three have a malformed child after a vanishing sibling, so the
# walk must go on past a zero.
MALFORMED = [
    (2, (2, 0), ValueError, "generator index must be >= 1, got 0"),
    (2, ((2, 1), -1), ValueError, "generator index must be >= 1, got -1"),
    (3, 0, ValueError, "generator index must be >= 1, got 0"),
    (2, (2,), ArityError, "bracket with 1 children, expected 2"),
    (2, ((2, 1), (3, 2, 1)), ArityError, "bracket with 3 children, expected 2"),
    (3, (3, 2, 1, 4), ArityError, "bracket with 4 children, expected 3"),
    (3, ((3, 2), 2, 1), ArityError, "bracket with 2 children, expected 3"),
    (2, [2, 1], TypeError, "not a term: [2, 1]"),
    (2, ((2, 1), [2, 1]), TypeError, "not a term: [2, 1]"),
    (2, "x1", TypeError, "not a term: 'x1'"),
    (2, ((1, 1), (2, 0)), ValueError, "generator index must be >= 1, got 0"),
    (2, ((1, 1), [2, 1]), TypeError, "not a term: [2, 1]"),
    (2, ((1, 1), (2, 1, 3)), ArityError, "bracket with 3 children, expected 2"),
]


@pytest.mark.parametrize("n, t, exc, text", MALFORMED)
def test_every_entry_raises_the_one_term_check(n, t, exc, text):
    calls = [
        lambda: canonicalize(t, n),
        lambda: lc_from_term(t, n),
        lambda: collect(t, n),
        lambda: expand_jacobi(t, (), n),
    ]
    for call in calls:
        with pytest.raises(exc) as info:
            call()
        assert type(info.value) is exc and str(info.value) == text


def test_a_str_where_a_term_belongs_is_not_a_term():
    # a one-letter str iterates to itself, so a walk must refuse it rather
    # than recurse until RecursionError
    for t in ["x1", "1", ((2, 1), "x1"), (2, (1, "2"))]:
        for f in (term_key, weight, is_canonical, canonicalize, is_basic):
            with pytest.raises(TypeError, match="not a term"):
                f(t, 2)
    # a list bracket is a malformed bracket, not a non-term
    assert not is_canonical([2, 1], 2)
    assert not is_canonical(((2, 1), [2, 1]), 2)
    with pytest.raises(ValueError, match="not a canonical term"):
        is_basic([2, 1], 2)
    with pytest.raises(TypeError, match="not a term"):
        canonicalize([1, 2], 2)


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


def test_is_canonical_rejects_malformed_terms():
    assert is_canonical(4, 3) and is_canonical(((3, 2, 1), 2, 1), 3)
    for t, n in [
        ((2, 1), 3),  # two children at arity 3
        ((4, 3, 2, 1), 3),
        (0, 2),
        (-1, 2),
        (((2, 1), 0), 2),
        ([2, 1], 2),  # a bracket that is not a tuple
        ((3, [2, 1]), 2),
        ((1, 2), 2),
        ((2, 2), 2),
        (((1, 2), 3), 2),
    ]:
        assert not is_canonical(t, n), t


# The term core as it was before one walk built every key, the reference
# for that walk.
def _old_term_key(t, n):
    if isinstance(t, int):
        return (1, 0, t)
    keys = tuple(_old_term_key(c, n) for c in reversed(t))
    return (sum(k[0] for k in keys) - (n - 2), 1, keys)


def _old_weight(t, n):
    return 1 if isinstance(t, int) else sum(_old_weight(c, n) for c in t) - (n - 2)


def _basic_key(k, rule) -> bool:
    """Whether the canonical term with key k is basic under `rule`."""
    hs = _key_children(k)
    for h in hs:
        if not _basic_key(h, rule):
            return False
    return not hs or rule(hs, [h[0] for h in hs], _key_children)


def _old_is_basic(t, n, mode):
    sign, ct, key = terms._canonical(t, n)
    if sign != 1 or ct != t:
        raise ValueError(f"not a canonical term: {t!r}")
    return _basic_key(key, basis._RULES[mode][0])


def _rough_term(rng, n, d, depth):
    """A random term of at most `depth` levels, mostly canonical, with now
    and then a defect: a bracket of n - 1 or n + 1 children, a leaf of 0
    or below, equal or unsorted children, or a list for a bracket."""
    if depth == 0 or rng.random() < 0.3:
        return rng.randint(1, d) if rng.random() < 0.97 else rng.randint(-1, 0)
    arity = n if rng.random() < 0.95 else rng.choice([n - 1, n + 1])
    kids = [_rough_term(rng, n, d, depth - 1) for _ in range(arity)]
    defect = rng.random()
    if defect < 0.04 and arity > 1:
        kids[1] = kids[0]
    elif defect > 0.08:  # else unsorted, as drawn
        kids.sort(key=lambda c: _old_term_key(c, n), reverse=True)
    return kids if rng.random() < 0.03 else tuple(kids)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_one_walk_keys_weighs_and_checks_as_the_old_definitions():
    rng = random.Random(20)
    seen = Counter()
    for _ in range(3000):
        n = rng.choice([2, 3, 4])
        t = _rough_term(rng, n, 4, rng.randint(0, 4))
        assert term_key(t, n) == _old_term_key(t, n)
        assert weight(t, n) == _old_weight(t, n)
        try:
            canonicalize(t, n)
        except (TypeError, ValueError) as exc:
            seen[type(exc)] += 1  # a list bracket, a wrong arity, a bad leaf
            assert not is_canonical(t, n)
            for mode in EnumerationMode:
                with pytest.raises(ValueError, match="not a canonical term"):
                    is_basic(t, n, mode)
            continue
        canonical = canonicalize(t, n) == (1, t)
        assert is_canonical(t, n) == canonical
        for mode in EnumerationMode:
            got = _outcome(is_basic, t, n, mode)
            assert got == _outcome(_old_is_basic, t, n, mode)
            seen[got if canonical else "not canonical"] += 1
    assert min(seen[k] for k in (TypeError, ArityError, ValueError)) >= 20, seen
    assert min(seen[k] for k in (True, False, "not canonical")) >= 50, seen


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
def test_bracket_layers_ids_follow_term_order(cell):
    # generator k has id k - 1, and each weight's brackets take the next ids
    # in their order: comparing ids compares the terms they stand for
    n, d, w = cell
    terms_by_id = list(range(1, d + 1))
    for v, found in enumerate(bracket_layers(n, d, w), 2):
        assert len(set(found)) == len(found)
        layer = [tuple(terms_by_id[c] for c in ids) for ids in found]
        assert all(weight(t, n) == v for t in layer)
        terms_by_id += layer
    assert all(is_canonical(t, n) for t in terms_by_id)
    keys = [term_key(t, n) for t in terms_by_id]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def _weight_multisets_by_recursion(total, parts, cap):
    """The compositions, recursing once per part."""
    if parts == 1:
        if 1 <= total <= cap:
            yield (total,)
        return
    for first in range(min(cap, total - (parts - 1)), 0, -1):
        for rest in _weight_multisets_by_recursion(total - first, parts - 1, first):
            yield (first,) + rest


def test_weight_multisets_order_matches_recursion():
    # relation_rows' row order follows this order
    for total in range(16):
        for parts in range(1, 9):
            for cap in range(16):
                assert list(weight_multisets(total, parts, cap)) == list(
                    _weight_multisets_by_recursion(total, parts, cap)
                ), (total, parts, cap)


def test_weight_multisets_take_any_number_of_parts():
    assert list(weight_multisets(2001, 2000, 2)) == [(2,) + (1,) * 1999]
    assert list(weight_multisets(2000, 2000, 2)) == [(1,) * 2000]
    assert list(weight_multisets(2002, 2000, 1)) == []


def test_bracket_counts_size_each_weight_of_a_build():
    for n in range(2, 6):
        for d in range(1, 6):
            for w in range(1, 7 if n < 4 else 6):
                sizes = [len(found) for found in bracket_layers(n, d, w)]
                assert bracket_counts(n, d, w) == [0, d] + sizes


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
