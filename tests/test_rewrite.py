import random
from fractions import Fraction

import pytest

from conftest import random_term
from nlie import oracle, rewrite
from nlie.basis import EnumerationMode, enumerate_basic, is_basic
from nlie.rewrite import JACOBI, collect, collect_lc, expand_jacobi
from nlie.terms import canonicalize, lc_merge, weight


def _difference(t, lc, n):
    """t - lc as a combination (t canonicalized first)."""
    diff = {}
    s, ct = canonicalize(t, n)
    if s != 0:
        diff[ct] = Fraction(s)
    lc_merge(diff, lc, scale=-1)
    return diff


def test_collect_fixes_basics():
    for t in enumerate_basic(3, 3, 4, EnumerationMode.FULL_RULE3):
        lc, trace = collect(t, 3)
        assert lc == {t: Fraction(1)}
        assert not trace.capped
        assert all(rule != JACOBI for rule, *_ in trace.steps)


def test_collect_walks_a_deep_left_nested_term():
    # depth 900, which parse accepts; basic, so collect keys it and stops
    t = (2, 1)
    for _ in range(899):
        t = (t, 1)
    lc, trace = collect(t, 2, cap=1)
    assert lc == {t: Fraction(1)}
    assert not trace.capped


def test_collect_simple_cases():
    lc, trace = collect((1, 2, 3), 3)
    assert lc == {(3, 2, 1): Fraction(-1)}
    assert not trace.capped
    lc, _ = collect((2, 1, 1), 3)
    assert lc == {}


def test_collect_outputs_basic_terms():
    rng = random.Random(23)
    for _ in range(50):
        t = random_term(rng, 3, 3, rng.randint(2, 4))
        lc, trace = collect(t, 3)
        assert not trace.capped
        for u in lc:
            assert is_basic(u, 3, EnumerationMode.FULL_RULE3)


def test_collect_preserves_class_modulo_relations():
    rng = random.Random(29)
    for _ in range(40):
        t = random_term(rng, 3, 3, rng.randint(2, 4))
        lc, trace = collect(t, 3)
        assert not trace.capped
        diff = _difference(t, lc, 3)
        assert oracle.membership(diff, 3, 3)


def test_expand_jacobi_preserves_class():
    t = (((3, 2, 1), 3, 2), 2, 1)  # weight 4, bracket-headed at the root
    lc = expand_jacobi(t, (), 3)
    assert lc
    assert oracle.membership(_difference(t, lc, 3), 3, 3)
    # and at a nested path
    u = ((((3, 2, 1), 2, 1), 2, 1), 2, 1)
    lc = expand_jacobi(u, (0,), 3)
    assert oracle.membership(_difference(u, lc, 3), 3, 3)


def test_expand_jacobi_rejects_leaf_headed_nodes():
    with pytest.raises(ValueError):
        expand_jacobi((3, 2, 1), (), 3)
    with pytest.raises(ValueError):
        expand_jacobi(((3, 2, 1), 2, 1), (1,), 3)


def test_collect_linear_in_input():
    rng = random.Random(31)
    for _ in range(20):
        a = random_term(rng, 3, 3, 3)
        b = random_term(rng, 3, 3, 3)
        la, _ = collect(a, 3)
        lb, _ = collect(b, 3)
        combined = {}
        sa, ca = canonicalize(a, 3)
        sb, cb = canonicalize(b, 3)
        inp = {}
        if sa:
            lc_merge(inp, {ca: Fraction(2 * sa)})
        if sb:
            lc_merge(inp, {cb: Fraction(-3 * sb)})
        out, trace = collect_lc(inp, 3)
        assert not trace.capped
        lc_merge(combined, la, scale=Fraction(2))
        lc_merge(combined, lb, scale=Fraction(-3))
        assert out == combined


def test_step_budget_caps_and_flags():
    t = (((3, 2, 1), 3, 2), 2, 1)  # canonical but not basic
    lc, trace = collect(t, 3, cap=0)
    assert trace.capped
    assert lc  # residual terms are surfaced, not dropped
    lc2, trace2 = collect(t, 3)
    assert not trace2.capped
    assert any(not is_basic(u, 3, EnumerationMode.FULL_RULE3) for u in lc)
    assert all(is_basic(u, 3, EnumerationMode.FULL_RULE3) for u in lc2)


def test_trace_records_jacobi_steps():
    t = (((3, 2, 1), 3, 2), 2, 1)
    _, trace = collect(t, 3)
    assert any(rule == JACOBI for rule, *_ in trace.steps)


def test_collect_weight_homogeneous():
    rng = random.Random(37)
    for _ in range(30):
        w = rng.randint(2, 4)
        t = random_term(rng, 3, 3, w)
        lc, _ = collect(t, 3)
        assert all(weight(u, 3) == w for u in lc)
