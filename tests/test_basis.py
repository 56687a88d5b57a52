import pytest

from nlie import basis
from nlie.basis import (
    BasicCommutator,
    EnumerationCapExceeded,
    EnumerationMode,
    count_by_enumeration,
    enumerate_basic,
    is_basic,
)
from nlie.oracle import graded_monomials
from nlie.terms import canonical_brackets, is_canonical, term_key

FULL = EnumerationMode.FULL_RULE3
LEFT = EnumerationMode.LEFT_NORMED


def test_is_basic_rejects_noncanonical():
    with pytest.raises(ValueError):
        is_basic((1, 2), 2)
    with pytest.raises(ValueError):
        is_basic((1, 2, 3), 3)


def test_leaves_and_cores_are_basic():
    for mode in (FULL, LEFT):
        assert is_basic(5, 3, mode)
        assert is_basic((3, 2, 1), 3, mode)
        assert is_basic((2, 1), 2, mode)


def test_weight1_and_weight2_counts():
    for mode in (FULL, LEFT):
        assert count_by_enumeration(3, 5, 1, mode) == 5
        assert count_by_enumeration(3, 5, 2, mode) == 10
        assert count_by_enumeration(4, 3, 2, mode) == 0


def test_full_rule3_weight3_example():
    # [[x3,x2,x1],x2,x1] is basic; last component of the inner bracket
    # must not exceed the outer last child
    assert is_basic(((3, 2, 1), 2, 1), 3, FULL)
    assert is_basic(((4, 3, 2), 3, 2), 3, FULL)
    assert not is_basic(((4, 3, 2), 3, 1), 3, FULL)


def test_equal_weight_children_allowed_when_descending():
    t = ((3, 2), (2, 1))  # n=2, weight 4, strictly descending pair
    assert is_basic(t, 2, FULL)


def test_counts_full_vs_left_small():
    assert [count_by_enumeration(3, 3, w, FULL) for w in range(1, 7)] == [
        3, 1, 3, 7, 23, 67,
    ]
    assert [count_by_enumeration(3, 3, w, LEFT) for w in range(1, 7)] == [
        3, 1, 3, 6, 10, 15,
    ]


def test_modes_agree_on_small_slices():
    # weights 1-2 everywhere; weight 3 as well when d == n
    for n in (2, 3, 4):
        for d in range(n, n + 3):
            for w in (1, 2):
                assert count_by_enumeration(n, d, w, FULL) == count_by_enumeration(
                    n, d, w, LEFT
                )
        assert count_by_enumeration(n, n, 3, FULL) == count_by_enumeration(
            n, n, 3, LEFT
        )
    # n=2 keeps them aligned at weight 3 for any d (the tail conditions
    # coincide when tails are single generators)
    for d in (2, 3, 4, 5):
        assert count_by_enumeration(2, d, 3, FULL) == count_by_enumeration(
            2, d, 3, LEFT
        )


def test_enumerate_sorted_canonical_and_basic():
    for mode in (FULL, LEFT):
        for n in range(2, 5):
            for d in range(n, n + 3):
                for w in range(2, 6):
                    if (n, d, w, mode) == (4, 6, 5, FULL):
                        continue  # 88511 basics
                    _check_enumeration(n, d, w, mode)


def _check_enumeration(n, d, w, mode):
    items = enumerate_basic(n, d, w, mode)
    assert len(items) == count_by_enumeration(n, d, w, mode)
    keys = [term_key(bc.term, n) for bc in items]
    assert keys == sorted(keys)
    for bc in items:
        assert isinstance(bc, BasicCommutator)
        assert is_canonical(bc.term, n)
        assert is_basic(bc.term, n, mode)
        assert bc.weight == w
        assert bc.length == n + (w - 2) * (n - 1)


def test_is_basic_walks_deep_terms():
    # left-nested n = 2 terms of depth 600, basic in both readings
    t = (2, 1)
    for _ in range(599):
        t = (t, 2)
    # the same with the descent broken at the second level only
    u = ((2, 1), 2), 1
    for _ in range(598):
        u = (u, 2)
    for mode in (FULL, LEFT):
        assert is_basic(t, 2, mode)
        assert not is_basic(u, 2, mode)


def _count_builds(monkeypatch):
    builds = []

    def counted(n, d, w, keep=None):
        builds.append((n, d, w))
        return canonical_brackets(n, d, w, keep=keep)

    monkeypatch.setattr(basis, "canonical_brackets", counted)
    return builds


def test_enumerate_builds_a_full_rule3_cell_once(monkeypatch):
    builds = _count_builds(monkeypatch)
    assert len(enumerate_basic(3, 4, 4, FULL)) == 106
    assert builds == [(3, 4, 4)]


def test_enumerate_refuses_a_closed_count_above_the_cap_unbuilt(monkeypatch):
    builds = _count_builds(monkeypatch)
    with pytest.raises(EnumerationCapExceeded) as exc:
        enumerate_basic(3, 3, 6, LEFT, cap=10)
    assert str(exc.value) == "15 basic commutators at (n=3, d=3, w=6) exceeds cap 10"
    with pytest.raises(EnumerationCapExceeded):
        enumerate_basic(3, 5, 2, FULL, cap=9)
    assert builds == []


@pytest.mark.parametrize("mode", [FULL, LEFT])
@pytest.mark.parametrize("cell", [(2, 3, 5), (3, 3, 5), (3, 4, 4), (4, 5, 4)])
def test_every_basic_monomial_is_enumerated(cell, mode):
    n = cell[0]
    basic = [t for t in graded_monomials(*cell).monomials if is_basic(t, n, mode)]
    assert basic == [bc.term for bc in enumerate_basic(*cell, mode)]


# The rules as they were written on terms and term_key, the reference for
# the rules on handles.
def _ref_descent_rule(t, kws, n):
    last_key = term_key(t[-1], n)
    for s in range(n - 1):
        if kws[s] > kws[s + 1] and term_key(t[s][-1], n) > last_key:
            return False
    return True


def _ref_chain_rule(t, kws, n):
    if kws[1] > 1:
        return False
    return isinstance(t[0], int) or tuple(reversed(t[1:])) >= tuple(reversed(t[0][1:]))


def _ref_basic_weight(t, n, rule):
    if isinstance(t, int):
        return 1
    kws = []
    for c in t:
        kw = _ref_basic_weight(c, n, rule)
        if kw is None:
            return None
        kws.append(kw)
    return sum(kws) - (n - 2) if rule(t, kws, n) else None


@pytest.mark.parametrize(
    "cell",
    [(2, 3, 6), (2, 2, 9), (3, 3, 6), (3, 4, 5), (3, 5, 4), (4, 5, 4), (4, 4, 5), (5, 5, 4)],
)
def test_is_basic_matches_the_term_walk(cell):
    n = cell[0]
    for t in graded_monomials(*cell).monomials:
        for mode, rule in [(FULL, _ref_descent_rule), (LEFT, _ref_chain_rule)]:
            assert is_basic(t, n, mode) == (_ref_basic_weight(t, n, rule) is not None)


@pytest.mark.parametrize("mode", [FULL, LEFT])
def test_keep_gets_child_ids(monkeypatch, mode):
    calls, builds = [], []

    def spied(n, d, w, keep=None):
        def spy(ids, ws, sub):
            calls.append((ids, [sub(i) for i in ids]))
            return keep(ids, ws, sub)

        builds.append(canonical_brackets(n, d, w, keep=spy))
        return builds[-1]

    monkeypatch.setattr(basis, "canonical_brackets", spied)
    enumerate_basic(3, 4, 5, mode)
    children = {i: ids for ids, i in builds[0][2].items()}
    assert calls
    for ids, subs in calls:
        assert all(type(i) is int for i in ids)
        # sub(i) is the child ids of kept bracket i, () for a generator
        assert subs == [children.get(i, ()) for i in ids]


def test_left_normed_chain_condition():
    # core [x3,x2,x1] has tail (2,1); tail (2,1) repeats fine
    t = (((3, 2, 1), 2, 1), 2, 1)
    assert is_basic(t, 3, LEFT)
    # a decreasing tail chain is rejected: (3,1) then (2,1)
    u = (((3, 2, 1), 3, 1), 2, 1)
    assert not is_basic(u, 3, LEFT)
    # but the reverse chain (2,1) then (3,1) is fine
    v = (((3, 2, 1), 2, 1), 3, 1)
    assert is_basic(v, 3, LEFT)


def test_left_normed_rejects_non_left_shapes():
    # bracket in a non-first slot
    t = ((4, 3, 2), (3, 2, 1), 1)
    assert not is_basic(t, 3, LEFT)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_basic(3, 3, 6, FULL, cap=10)
    # counting itself respects closed forms and does not raise
    assert count_by_enumeration(3, 3, 6, LEFT, cap=10) == 15


def test_full_rule3_count_stops_at_the_cap(monkeypatch):
    # (3, 5, 6) has 62440 FULL_RULE3 basics; the build must stop at the 11th
    examined, finished = [], []

    def spied(n, d, w, keep=None):
        def spy(ids, ws, *rest):
            examined.append(sum(ws) == w + n - 2)
            return keep(ids, ws, *rest)

        out = canonical_brackets(n, d, w, keep=spy)
        finished.append(True)
        return out

    monkeypatch.setattr(basis, "canonical_brackets", spied)
    with pytest.raises(EnumerationCapExceeded):
        count_by_enumeration(3, 5, 6, FULL, cap=10)
    assert not finished
    assert 10 < sum(examined) < 100


def test_bad_instance_rejected():
    with pytest.raises(ValueError):
        enumerate_basic(1, 3, 2)
    with pytest.raises(ValueError):
        enumerate_basic(3, 0, 2)
