import pytest

from nlie import basis
from nlie.basis import (
    EnumerationCapExceeded,
    EnumerationMode,
    count_by_enumeration,
    enumerate_basic,
    is_basic,
)
from nlie.oracle import graded_monomials
from nlie.terms import (
    bracket_layers,
    commutator_length,
    distinct_descending,
    format_term,
    is_canonical,
    length,
    term_key,
    weight,
)

FULL = EnumerationMode.FULL_RULE3
LEFT = EnumerationMode.LEFT_NORMED


def test_is_basic_rejects_noncanonical():
    for t, n in [
        ((1, 2), 2),
        ((1, 2, 3), 3),
        ((2, 1), 3),  # two children at arity 3
        ((4, 3, 2, 1), 3),
        (0, 2),
        (((2, 1), -1), 2),
        ([2, 1], 2),  # a bracket that is not a tuple
        ((3, [2, 1]), 2),
        (((2, 1), (2, 1)), 2),
    ]:
        for mode in (FULL, LEFT):
            with pytest.raises(ValueError, match="not a canonical term"):
                is_basic(t, n, mode)


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


@pytest.mark.parametrize(
    "cell", [(3, 5, 1), (3, 2, 1), (3, 2, 2), (3, 2, 3), (2, 1, 1), (2, 1, 3), (4, 3, 4)]
)
@pytest.mark.parametrize("mode", [FULL, LEFT])
def test_enumerate_at_weight_one_and_below_n_letters(cell, mode):
    # the generators at w = 1, and the empty lists of d < n
    _check_enumeration(*cell, mode)
    n, d, w = cell
    if w == 1:
        assert enumerate_basic(n, d, w, mode) == list(range(1, d + 1))


def _check_enumeration(n, d, w, mode):
    items = enumerate_basic(n, d, w, mode)
    assert len(items) == count_by_enumeration(n, d, w, mode)
    keys = [term_key(t, n) for t in items]
    assert keys == sorted(keys)
    for t in items:
        assert is_canonical(t, n)
        assert is_basic(t, n, mode)
        assert weight(t, n) == w
        assert length(t) == commutator_length(n, w)
    assert enumerate_basic(n, d, w, mode, text=True) == list(map(format_term, items))


def test_is_basic_walks_deep_terms():
    # left-nested n = 2 terms of depth 600, basic in both readings
    t = (2, 1)
    for _ in range(599):
        t = (t, 2)
    # the same with the descent broken at the second level only
    u = ((2, 1), 2), 1
    for _ in range(598):
        u = (u, 2)
    # the same with the innermost bracket out of order
    v = (1, 2)
    for _ in range(599):
        v = (v, 2)
    for mode in (FULL, LEFT):
        assert is_basic(t, 2, mode)
        assert not is_basic(u, 2, mode)
        with pytest.raises(ValueError, match="not a canonical term"):
            is_basic(v, 2, mode)
    # the rest of the term core walks them too, one frame per level
    terms = (t, u, v)
    assert [weight(x, 2) for x in terms] == [term_key(x, 2)[0] for x in terms] == [601, 602, 601]
    assert list(map(length, terms)) == [601, 602, 601]  # at n = 2 the weight
    assert is_canonical(t, 2) and is_canonical(u, 2) and not is_canonical(v, 2)


def _count_builds(monkeypatch):
    builds = []

    def counted(n, d, w, children):
        builds.append((n, d, w))
        return bracket_layers(n, d, w, children)

    monkeypatch.setattr(basis, "bracket_layers", counted)
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
@pytest.mark.parametrize(
    "cell", [(2, 3, 5), (3, 3, 5), (3, 4, 4), (4, 5, 4), (3, 5, 5), (5, 6, 4), (2, 3, 8)]
)
def test_every_basic_monomial_is_enumerated(cell, mode):
    n = cell[0]
    basic = [t for t in graded_monomials(*cell).monomials if is_basic(t, n, mode)]
    assert basic == enumerate_basic(*cell, mode)


def test_every_left_normed_basic_monomial_is_enumerated_at_4_6_5():
    # 221730 monomials, 11896 of them basic
    monomials = graded_monomials(4, 6, 5, ceiling=300_000).monomials
    basic = [t for t in monomials if is_basic(t, 4, LEFT)]
    assert basic == enumerate_basic(4, 6, 5, LEFT)


@pytest.mark.parametrize("mode", [FULL, LEFT])
@pytest.mark.parametrize(
    "cell", [(2, 2, 10), (2, 3, 8), (3, 3, 7), (3, 4, 6), (3, 5, 5), (4, 4, 6), (4, 5, 5), (5, 6, 4)]
)
def test_children_sources_yield_what_their_rule_keeps(cell, mode):
    # the statement of each rule (_descent_rule, _chain_rule) filtering
    # every candidate is the reference for its rule-first source
    n, d, w = cell
    (rule, source), memo = basis._RULES[mode], {}

    def checked(ws, pools, sub):
        got = [ids for chunk in source(ws, pools, sub, memo) for ids in chunk]
        kept = [ids for ids in distinct_descending(ws, pools) if rule(ids, ws, sub)]
        assert sorted(got) == sorted(kept) and len(set(got)) == len(got)
        return got

    *_, top = bracket_layers(n, d, w, checked)
    assert len(top) == count_by_enumeration(n, d, w, mode)


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
def test_children_source_gets_child_ids(monkeypatch, mode):
    calls, builds = [], []

    def spied(n, d, w, children):
        def spy(ws, pools, sub):
            got = children(ws, pools, sub)
            calls.extend((ids, ws, dict(pools), [sub(i) for i in ids]) for ids in got)
            return got

        builds.append(list(bracket_layers(n, d, w, spy)))
        return builds[-1]

    monkeypatch.setattr(basis, "bracket_layers", spied)
    enumerate_basic(3, 4, 5, mode)
    assert len(builds) == 1
    # the ids of the build: the 4 generators, then each weight's list
    children, pool_of = [()] * 4, {1: range(4)}
    for v, layer in enumerate(builds[0], 2):
        pool_of[v] = range(len(children), len(children) + len(layer))
        children += layer
    assert calls
    for ids, ws, pools, subs in calls:
        assert all(type(i) is int for i in ids)
        # child j is drawn from the ids kept at weight ws[j]; sub(i) is
        # the child ids of kept bracket i, () for a generator
        assert all(pools[u] == pool_of[u] and i in pool_of[u] for i, u in zip(ids, ws))
        assert subs == [children[i] for i in ids]


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


def test_left_normed_closed_count_is_the_length_of_its_build():
    cap = basis.DEFAULT_ENUMERATION_CAP
    for n in range(2, 5):
        for d in range(1, 7):
            for w in range(3, 7):
                built = list(basis._basics(n, d, w, LEFT, cap))[-1]
                assert basis._closed_count(n, d, w, LEFT, cap) == len(built), (n, d, w)


def test_left_normed_count_refuses_more_tails_than_the_cap_unsummed():
    # the core 1..n alone has C(N + w - 3, w - 2) >= N basics, N = C(d, n-1)
    with pytest.raises(EnumerationCapExceeded, match="^at least 100000000 basic"):
        count_by_enumeration(2, 10**8, 3, LEFT)
    with pytest.raises(EnumerationCapExceeded, match="^at least 100000000 basic"):
        enumerate_basic(2, 10**8, 3, LEFT)
    # with fewer letters than n there are no cores, whatever the cap
    assert count_by_enumeration(3, 2, 4, LEFT, cap=0) == 0


def _count_kept(monkeypatch, mode):
    """Spy on the build: per weight, the brackets the mode's source has
    yielded, and whether the build finished."""
    kept, finished = {}, []
    (rule, real_source), real_layers = basis._RULES[mode], basis.bracket_layers

    def source(ws, pools, sub, memo):
        for chunk in real_source(ws, pools, sub, memo):
            v = sum(ws) - len(ws) + 2
            kept[v] = kept.get(v, 0) + len(chunk)
            yield chunk

    def layers(*args):
        yield from real_layers(*args)
        finished.append(True)

    monkeypatch.setitem(basis._RULES, mode, (rule, source))
    monkeypatch.setattr(basis, "bracket_layers", layers)
    return kept, finished


def test_full_rule3_count_stops_at_the_cap(monkeypatch):
    # (3, 5, 6) has 6278 FULL_RULE3 basics at weight 5 and 62440 at weight
    # 6; with the cap at 6278 the build must stop shortly after it
    kept, finished = _count_kept(monkeypatch, FULL)
    with pytest.raises(EnumerationCapExceeded, match="of weight 6 at"):
        count_by_enumeration(3, 5, 6, FULL, cap=6278)
    assert not finished
    assert kept[5] == 6278
    assert 6278 < kept[6] < 6378


def test_full_rule3_cap_bounds_every_weight(monkeypatch):
    # a lower weight over the cap stops the build there, unfinished
    kept, finished = _count_kept(monkeypatch, FULL)
    with pytest.raises(EnumerationCapExceeded) as exc:
        count_by_enumeration(3, 5, 6, FULL, cap=10)
    assert str(exc.value) == (
        "basic commutators of weight 3 at (n=3, d=5, w=6) exceed cap 10"
    )
    assert not finished
    assert 10 < kept[3] < 110 and max(kept) == 3


def test_full_rule3_cap_refuses_weight_2_before_the_build(monkeypatch):
    # all C(d, n) cores are basic at weight 2, so a count or an enumeration
    # whose weight 2 is over the cap builds nothing; C(5, 3) = 10 at cap 10
    # is built (test_full_rule3_cap_bounds_every_weight)
    kept, finished = _count_kept(monkeypatch, FULL)
    message = "basic commutators of weight 2 at (n=3, d=5, w=6) exceed cap 9"
    for entry in (count_by_enumeration, enumerate_basic):
        with pytest.raises(EnumerationCapExceeded) as exc:
            entry(3, 5, 6, FULL, cap=9)
        assert str(exc.value) == message
    with pytest.raises(EnumerationCapExceeded, match="of weight 2 at"):
        count_by_enumeration(2, 10**5, 5, FULL)
    assert kept == {} and not finished


def test_full_rule3_counts_never_fall_from_weight_2():
    # so capping every weight refuses no cell that capping the top weight
    # alone accepts: one build per (n, d) up to w = 8, to the default cap
    for n in range(2, 6):
        for d in range(1, 8):
            counts = []
            try:
                for layer in basis._basics(n, d, 8, FULL, basis.DEFAULT_ENUMERATION_CAP):
                    counts.append(len(layer))
            except EnumerationCapExceeded:
                pass  # the weight over the cap outnumbers every weight before it
            assert counts == sorted(counts), (n, d)


def test_bad_instance_rejected():
    with pytest.raises(ValueError):
        enumerate_basic(1, 3, 2)
    with pytest.raises(ValueError):
        enumerate_basic(3, 0, 2)
    for mode in (FULL, LEFT):
        for cell in [(1, 2, 3), (2, 2, 0), (0, 3, 3), (1, 3, 2), (3, 0, 2)]:
            for f in (enumerate_basic, count_by_enumeration):
                with pytest.raises(ValueError, match="^bad instance"):
                    f(*cell, mode)
