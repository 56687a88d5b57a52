import random
from fractions import Fraction

import pytest

from conftest import random_term
from nlie import basis, oracle, rewrite, terms
from nlie.basis import EnumerationMode, enumerate_basic, is_basic
from nlie.rewrite import JACOBI, SKEW, ZERO, RewriteTrace, collect, collect_lc, expand_jacobi
from nlie.terms import _canonical, canonicalize, is_leaf, lc_add, lc_merge, term_key, weight


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
    with pytest.raises(ValueError, match="invalid path step 5"):
        expand_jacobi((3, 2, 1), (5,), 3)  # past the bracket's arity
    with pytest.raises(ValueError, match="invalid path step 0"):
        expand_jacobi(((3, 2, 1), 2, 1), (1, 0), 3)  # a step into a leaf


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
    # at cap=5 the budget runs out on a non-basic term while one more term
    # is still waiting in the work combination; both reach the output
    u = ((((((1, 2), 2), 1), 1), 1), 2)
    lc, trace = collect(u, 2, cap=5)
    assert trace.capped
    assert [rule for rule, *_ in trace.steps] == ["SKEW"] + [JACOBI] * 5
    assert lc == {
        ((((2, 1), 1), 1), ((2, 1), 2)): Fraction(-1),
        (((((2, 1), 1), 1), 2), (2, 1)): Fraction(-1),
        ((((((2, 1), 1), 1), 1), 2), 2): Fraction(-1),
        (((((2, 1), 1), 1), (2, 1)), 2): Fraction(-1),
    }
    assert oracle.membership(_difference(u, lc, 2), 2, 2)


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


def _expandable_paths(t, path=()):
    """Every path in t to a bracket whose first child is a bracket."""
    if isinstance(t, tuple):
        if isinstance(t[0], tuple):
            yield path
        for i, c in enumerate(t):
            yield from _expandable_paths(c, path + (i,))


def _root_vanishing(n):
    """A term whose root vanishes when its first child is expanded: the
    root holds a bracket a beside the first summand of a's expansion."""
    head, ys = tuple(range(2 * n - 1, n - 1, -1)), tuple(range(n - 1, 0, -1))
    a = (head,) + ys
    return (a, ((head[0],) + ys,) + head[1:]) + tuple(range(2 * n, 3 * n - 2))


@pytest.mark.parametrize("n,d,w_max", [(2, 3, 7), (3, 5, 6), (4, 6, 5)])
def test_keyed_summands_match_canonicalizing_each_summand(n, d, w_max):
    rng = random.Random(31 + n)
    seeded = [_canonical(_root_vanishing(n), n)]
    while len(seeded) < 40:
        r = _canonical(random_term(rng, n, d, rng.randint(3, w_max)), n)
        if r[0]:
            seeded.append(r)
    checked = dropped = 0
    for _, u, k in seeded:
        for path in _expandable_paths(u):
            want = [_canonical(s, n) for s in rewrite._summands(u, path, n)]
            want = [r for r in want if r[0]]
            got = list(rewrite._keyed_summands(u, k, path, n))
            assert got == want, (u, path)
            checked += 1
            dropped += n - len(want)
    assert checked >= 40 and dropped > 0


def _deepest_nonbasic_path(t, n):
    """Path to a deepest subterm that is not basic although all of its
    children are; None if t itself is basic."""
    if is_leaf(t):
        return None
    for i, c in enumerate(t):
        sub = _deepest_nonbasic_path(c, n)
        if sub is not None:
            return (i,) + sub
    if is_basic(t, n, EnumerationMode.FULL_RULE3):
        return None
    return ()


def _collect_rekeying(t, n, cap=rewrite.DEFAULT_STEP_BUDGET):
    """The reference collecting loop, which re-keys every term of the work
    combination with term_key on every step and searches each term for
    its path with is_basic at every node."""
    trace = RewriteTrace()
    s, ct = canonicalize(t, n)
    if s == 0:
        trace.record(ZERO, (), 1, 0)
        return {}, trace
    if ct != t or s != 1:
        trace.record(SKEW, (), 1, 1)
    work = {ct: Fraction(s)}
    out = {}
    steps = 0
    while work:
        u = max(work, key=lambda v: term_key(v, n))
        c = work.pop(u)
        path = _deepest_nonbasic_path(u, n)
        if path is None:
            lc_add(out, u, c)
            continue
        if steps >= cap:
            trace.capped = True
            work[u] = c
            break
        steps += 1
        before = len(work) + 1
        for summand in rewrite._summands(u, path, n):
            ss, cs = canonicalize(summand, n)
            if ss != 0:
                lc_add(work, cs, c * ss)
        trace.record(JACOBI, path, before, len(work))
    lc_merge(out, work)
    return out, trace


def _left_normed(letters):
    t = letters[0]
    for g in letters[1:]:
        t = (t, g)
    return t


def _same_run(t, n, cap=rewrite.DEFAULT_STEP_BUDGET):
    """collect and the reference give the same combination, in the same
    order, and the same trace; returns collect's."""
    lc, trace = collect(t, n, cap=cap)
    ref, ref_trace = _collect_rekeying(t, n, cap=cap)
    assert list(lc.items()) == list(ref.items()), t
    assert trace.steps == ref_trace.steps, t
    assert trace.capped == ref_trace.capped, t
    return lc, trace


def _random_left_normed(rng, n, d, w):
    """A left-normed term of weight w whose core and tails each have
    distinct letters, as in the bench corpus."""
    t = tuple(rng.sample(range(1, d + 1), n))
    for _ in range(w - 2):
        t = (t,) + tuple(rng.sample(range(1, d + 1), n - 1))
    return t


@pytest.mark.parametrize("n,d,w_max", [(2, 3, 7), (3, 4, 6), (4, 5, 5)])
def test_collect_matches_the_rekeying_reference(n, d, w_max):
    rng = random.Random(21 + n)
    capped = 0
    for _ in range(40):
        t = _random_left_normed(rng, n, d, rng.randint(2, w_max))
        _same_run(t, n)
        _, trace = _same_run(t, n, cap=1)  # the capped residual matches too
        capped += trace.capped
    assert capped >= 2


def test_collect_matches_the_rekeying_reference_on_a_long_run():
    t = _left_normed([1, 2, 3] * 3)
    lc, trace = _same_run(t, 2)
    assert len(lc) == 109
    assert len(trace.steps) == 377
    assert not trace.capped


def _subterms(lc):
    """Every bracket occurring in the terms of lc, each occurrence once."""
    stack = list(lc)
    while stack:
        u = stack.pop()
        if isinstance(u, tuple):
            yield u
            stack += u


def test_collect_shares_equal_subterms():
    # within a result, and across calls on different inputs while the
    # table keeps its entries
    rewrite._SHARED.clear()
    n3 = (((((4, 3, 2), 4, 2), 4, 1), 3, 1), 1, 4)
    runs = [
        [(_left_normed([1, 2, 3] * 3), 2), (_left_normed([2, 1, 3] * 3), 2)],
        [(n3, 3), ((((((4, 3, 2), 4, 2), 4, 1), 4, 1), 1, 3), 3)],
    ]
    for inputs in runs:
        results = [collect(t, n)[0] for t, n in inputs]
        for lc in results:
            occurrences = list(_subterms(lc))
            assert len(set(occurrences)) < len(occurrences)  # some subterm recurs
            assert len({id(u) for u in occurrences}) == len(set(occurrences))
        first, second = ({u: id(u) for u in _subterms(lc)} for lc in results)
        both = first.keys() & second.keys()
        assert set(results[0]) & set(results[1])  # an output term recurs
        assert [first[u] for u in both] == [second[u] for u in both]


# the cells of the collect fuzz test in tests/test_fuzz.py
FUZZ_CELLS = [(2, 2, 7), (3, 3, 5), (2, 3, 6), (3, 4, 5), (4, 5, 4)]


class _CountingDict(dict):
    """A dict that counts how often it is emptied."""

    clears = 0

    def clear(self):
        self.clears += 1
        super().clear()


@pytest.mark.parametrize("bound", [0, 8, 64])
def test_the_shared_table_keeps_its_bound_and_changes_no_result(monkeypatch, bound):
    # seeded left-normed terms on the collect fuzz cells: each result
    # equals a run with no table and shares its own equal subterms, and
    # the table never passes the bound
    rng = random.Random(bound)
    inputs = []
    for _ in range(120):
        n, d, w = rng.choice(FUZZ_CELLS)
        inputs.append((_random_left_normed(rng, n, d, rng.randint(2, w)), n))
    with monkeypatch.context() as m:
        m.setattr(rewrite, "_shared", lambda lc, room: lc)
        plain = [list(collect(t, n)[0].items()) for t, n in inputs]
    monkeypatch.setattr(terms, "_TABLE_ENTRIES", bound)
    monkeypatch.setattr(rewrite, "_SHARED", _CountingDict())
    kept = 0
    for (t, n), want in zip(inputs, plain):
        lc, _ = collect(t, n)
        assert list(lc.items()) == want, t
        occurrences = list(_subterms(lc))
        assert len({id(u) for u in occurrences}) == len(set(occurrences))
        assert len(rewrite._SHARED) <= bound
        kept += len(rewrite._SHARED) > 0
    # from 8 on the table keeps brackets across calls, fills up and is
    # emptied
    assert (kept > 0, rewrite._SHARED.clears > 0) == (bound > 0, bound > 0)


def _deep_key(depth, inner):
    """The term_key of the left-nested n = 2 term [..[inner, x1].., x1]
    with `depth` brackets, built in a loop: inner has the key (2, 1, ...)."""
    k = (2, 1, ((1, 0, inner[1]), (1, 0, inner[0])))
    for w in range(3, depth + 2):
        k = (w, 1, ((1, 0, 1), k))
    return k


def test_the_path_of_a_depth_5000_key_is_read_without_recursion():
    # [x2,x1] is basic, [[x2,x1],x1] too, and so on up; [[x3,x2],x1] is
    # not: the same under either rule at n = 2
    for rule in [basis._descent_rule, basis._chain_rule]:
        assert basis._nonbasic_path(_deep_key(5000, (2, 1)), {}, rule) is None
        assert basis._nonbasic_path(_deep_key(5000, (3, 2)), {}, rule) == (0,) * 4998
