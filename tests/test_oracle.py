import functools
import gc
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb, factorial, gcd, lcm

import pytest

from conftest import dense_member, dense_rank, dense_span, random_term, relabel
from nlie import oracle
from nlie.oracle import (
    InstanceCeilingExceeded,
    graded_dimension,
    graded_monomials,
    membership,
    relation_rows,
)
from nlie.rewrite import collect
from nlie.terms import (
    bracket_counts,
    bracket_layers,
    canonicalize,
    distinct_descending,
    is_canonical,
    lc_merge,
    term_key,
    weight,
    weight_multisets,
)


def test_monomials_weight1_and_2():
    b = graded_monomials(3, 5, 1)
    assert b.monomials == [1, 2, 3, 4, 5]
    b = graded_monomials(3, 4, 2)
    assert len(b.monomials) == comb(4, 3)
    for t in b.monomials:
        assert is_canonical(t, 3)
        assert weight(t, 3) == 2


def test_monomials_sorted():
    b = graded_monomials(2, 3, 4)
    keys = [term_key(t, 2) for t in b.monomials]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "cell",
    [(3, 5, 1), (3, 2, 3), (2, 1, 3), (2, 1, 1), (2, 2, 7), (2, 4, 5), (3, 3, 5),
     (3, 5, 4), (4, 4, 4), (4, 6, 3), (5, 5, 3)],
)
def test_monomials_are_the_whole_slice_in_term_order(cell):
    # canonical, distinct, ascending in term_key and as many as
    # bracket_counts: at w = 1, and where d < n leaves the slice empty
    n, d, w = cell
    monomials = graded_monomials(*cell).monomials
    assert len(monomials) == bracket_counts(n, d, w)[w]
    keys = [term_key(t, n) for t in monomials]
    assert keys == sorted(set(keys))
    for t in monomials:
        assert canonicalize(t, n) == (1, t) and weight(t, n) == w


def test_monomials_are_all_canonical_nonzero():
    b = graded_monomials(3, 3, 4)
    seen = set(b.monomials)
    assert len(seen) == len(b.monomials)
    for t in b.monomials:
        s, ct = canonicalize(t, 3)
        assert (s, ct) == (1, t)


def test_free_lie_dimensions():
    # n = 2 reduces to the free Lie algebra
    assert [graded_dimension(2, 2, w) for w in range(1, 6)] == [2, 1, 2, 3, 6]
    assert [graded_dimension(2, 3, w) for w in range(1, 5)] == [3, 3, 8, 18]


def test_ternary_dimensions():
    assert [graded_dimension(3, 3, w) for w in range(1, 5)] == [3, 1, 3, 6]


def test_weight2_dimension_is_binomial():
    for n in (2, 3, 4):
        for d in range(1, 6):
            assert graded_dimension(n, d, 2) == comb(d, n)


def test_relation_rows_are_integer_and_in_range():
    rm = relation_rows(3, 3, 4)
    ncols = len(rm.basis.monomials)
    assert rm.rows
    for row in rm.rows:
        assert row
        for col, coeff in row.items():
            assert 0 <= col < ncols
            assert isinstance(coeff, int) and coeff != 0


_HOLE = "hole"


def _plug(ctx, filling):
    if ctx == _HOLE:
        return filling
    if isinstance(ctx, int):
        return ctx
    return tuple(_plug(c, filling) for c in ctx)


def _reference_rows(n, d, w):
    """Relation rows by the whole-tree path: plug every raw generalized-
    Jacobi term into every context tree, canonicalize the whole result,
    and accumulate it by column."""
    index = {t: i for i, t in enumerate(graded_monomials(n, d, w).monomials)}

    def choices(total, parts):
        out = []
        for ws in weight_multisets(total, parts, total):
            pools = {wc: graded_monomials(n, d, wc).monomials for wc in set(ws)}
            out.extend(distinct_descending(ws, pools))
        return out

    def contexts(cw, v):
        """Weight-cw trees with the hole, standing for a weight-v subterm,
        as the first child of every bracket above it."""
        if cw == v:
            return [_HOLE]
        out = []
        for sub_w in range(v, cw):
            sib_total = cw + n - 2 - sub_w
            if sib_total < n - 1:
                continue
            subs = contexts(sub_w, v)
            for sibs in choices(sib_total, n - 1):
                out.extend((sub,) + sibs for sub in subs)
        return out

    rows = []
    for v in range(2, w + 1):
        trees = contexts(w, v)
        for wb in range(2, v):
            for mt in choices(wb + n - 2, n):
                for yt in choices(v - wb + n - 2, n - 1):
                    element = [(1, (mt,) + yt)] + [
                        (-1, mt[:i] + ((mt[i],) + yt,) + mt[i + 1 :])
                        for i in range(n)
                    ]
                    for ctx in trees:
                        row = {}
                        for sgn, raw in element:
                            s, ct = canonicalize(_plug(ctx, raw), n)
                            if s == 0:
                                continue
                            col = index[ct]
                            coeff = row.get(col, 0) + sgn * s
                            if coeff == 0:
                                row.pop(col, None)
                            else:
                                row[col] = coeff
                        if row:
                            rows.append(row)
    return rows


@pytest.mark.parametrize(
    "cell",
    [(2, 2, 6), (2, 3, 5), (3, 3, 5), (3, 4, 4), (4, 5, 4), (2, 2, 8), (3, 3, 6)],
)
def test_relation_rows_match_whole_tree_reference(cell):
    assert relation_rows(*cell).rows == _reference_rows(*cell)


@pytest.mark.parametrize(
    "cell, count",
    [((2, 2, 8), 633), ((2, 3, 6), 1326), ((3, 3, 6), 363), ((4, 5, 4), 1000)],
)
def test_relation_row_counts_frozen(cell, count):
    assert len(relation_rows(*cell).rows) == count


def _content(t, d):
    """The letter content of a term: occurrences of generators 1..d."""
    counts = [0] * d
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, int):
            counts[u - 1] += 1
        else:
            stack.extend(u)
    return tuple(counts)


def _rows_by_content(cell):
    """relation_rows(cell) grouped by the content of their monomials, as
    content -> (the content's columns ascending, its rows)."""
    rm = relation_rows(*cell)
    d = cell[1]
    columns = {}
    for col, t in enumerate(rm.basis.monomials):
        columns.setdefault(_content(t, d), []).append(col)
    rows = {c: [] for c in columns}
    for row in rm.rows:
        contents = {_content(rm.basis.monomials[col], d) for col in row}
        assert len(contents) == 1  # no relation crosses a content block
        rows[contents.pop()].append(row)
    return {c: (columns[c], rows[c]) for c in columns}


def _top_contents(tower) -> Counter:
    """The sorted contents of the tower's standard ids of the top weight,
    with multiplicity."""
    return Counter(tower.counts[tower.content[i]] for i in tower.standard[tower.w])


@pytest.mark.parametrize("cell", [(2, 2, 6), (2, 3, 5), (3, 3, 5), (3, 4, 4), (4, 5, 4)])
def test_echelon_rank_matches_dense_fraction_rank(cell):
    n, d, w = cell
    rm = relation_rows(*cell)
    tower = oracle._tower(*cell)
    assert tower.dim == len(rm.basis.monomials) - dense_rank(rm.rows, len(rm.basis.monomials))
    # the lower weights keep every content: their standard ids are a basis
    assert [len(tower.standard[v]) for v in range(1, w)] == [
        graded_dimension(n, d, v) for v in range(1, w)
    ]
    # each content's rows leave as many dimensions as the tower has
    # standard ids of its sorted content
    top = _top_contents(tower)
    assert all(top) and top
    for content, (columns, rows) in _rows_by_content(cell).items():
        local = [{columns.index(col): c for col, c in row.items()} for row in rows]
        lam = tuple(sorted(content, reverse=True))
        assert top[lam] == len(columns) - dense_rank(local, len(columns))


def _echelons(monkeypatch) -> list:
    """The list that every `_Echelon` fed from now on is appended to, with
    the rows it is fed, as (echelon, rows)."""
    fed = []
    insert = oracle._Echelon.insert

    def recorded(self, row):
        if not fed or fed[-1][0] is not self:
            fed.append((self, []))
        fed[-1][1].append(row)
        return insert(self, row)

    monkeypatch.setattr(oracle._Echelon, "insert", recorded)
    return fed


@pytest.mark.parametrize("cell", [(2, 2, 8), (2, 3, 6), (3, 3, 6), (4, 5, 4)])
def test_echelon_pivots_sit_on_their_largest_column(cell, monkeypatch):
    # a fully reduced echelon: each pivot holds no other pivot's column,
    # and holders indexes exactly the pivots that hold each column
    fed = _echelons(monkeypatch)
    tower = oracle._Tower(*cell)  # a fresh build, outside the cache
    assert any(ech.pivots for ech, _ in fed)
    for ech, _ in fed:
        for col, row in ech.pivots.items():
            assert col == max(row) and row[col] > 0
            assert gcd(*row.values()) == 1
            assert row.keys() & ech.pivots.keys() == {col}
            # the column's form is minus the rest of the row over row[col]
            den, ids, coeffs = tower.forms[col]
            assert {col: den, **{k: -c for k, c in zip(ids, coeffs)}} == row
        held = {}
        for col, row in ech.pivots.items():
            for k in row.keys() - {col}:
                held.setdefault(k, set()).add(col)
        assert {k: h for k, h in ech.holders.items() if h} == held
    # every other column stands for itself
    pivots = set().union(*(ech.pivots for ech, _ in fed))
    assert all(
        tower.forms[i] == (1, (i,), (1,)) for i in range(len(tower.content)) if i not in pivots
    )


@pytest.mark.parametrize("cell", [(2, 2, 8), (3, 3, 6)])
def test_repeated_rows_leave_the_rank_unchanged(cell, monkeypatch):
    rm = relation_rows(*cell)
    ech = oracle._Echelon()
    for row in rm.rows:
        ech.insert(row)
        assert not ech.insert(row)
    cached = oracle._tower(*cell)
    assert len(ech.pivots) == len(rm.basis.monomials) - cached.dim

    # every tower row generated again, negated and doubled: each weight
    # feeds every row, copies included, in ascending order of the largest
    # column, and the tower keeps the standard ids and forms of the cached
    # build
    generated = []
    tower_rows = oracle._Tower.rows

    def doubled(tower, v):
        for row in tower_rows(tower, v):
            generated.append(row)
            yield row
            yield {k: -2 * c for k, c in row.items()}

    monkeypatch.setattr(oracle._Tower, "rows", doubled)
    fed = _echelons(monkeypatch)
    tower = oracle._Tower(*cell)  # a fresh build, outside the cache
    assert tower.dim == cached.dim
    assert tower.standard == cached.standard and tower.forms == cached.forms
    for _, rows in fed:
        leads = [max(row) for row in rows]
        assert leads == sorted(leads)
    assert sum(len(rows) for _, rows in fed) == 2 * len(generated) > 0


# (n, d, w): (dim, monomials, rows, rank), as frozen for the benchmark ladder
LADDER = {
    (2, 2, 8): (30, 187, 633, 157),
    (2, 2, 10): (99, 1532, 7311, 1433),
    (2, 3, 6): (116, 477, 1326, 361),
    (2, 3, 7): (312, 2052, 7335, 1740),
    (3, 3, 6): (36, 144, 363, 108),
    (3, 4, 5): (380, 1396, 3336, 1016),
    (3, 5, 4): (490, 1225, 2100, 735),
    (4, 5, 4): (250, 600, 1000, 350),
}


@pytest.mark.parametrize("cell", sorted(LADDER))
def test_blocks_sum_to_the_ladder_cells(cell):
    # the standard ids of the top weight, each counted once per
    # arrangement of its sorted content, give the ladder's dimension
    dim, monomials, _, rank = LADDER[cell]
    top = _top_contents(oracle._tower(*cell))
    assert all(lam == tuple(sorted(lam, reverse=True)) for lam in top)
    assert sum(k * oracle._arrangements(lam) for lam, k in top.items()) == dim
    assert len(graded_monomials(*cell).monomials) - rank == dim
    assert graded_dimension(*cell) == dim


def _moebius(r):
    out, p = 1, 2
    while p * p <= r:
        if r % p == 0:
            r //= p
            if r % p == 0:
                return 0
            out = -out
        p += 1
    return -out if r > 1 else out


def _multigraded_witt(k):
    """The dimension of the free Lie algebra in multidegree k:
    (1/N) sum over r | gcd(k) of mu(r) (N/r)! / prod((k_i/r)!), N = sum(k)."""
    k = [x for x in k if x]
    total = sum(k)
    g = 0
    for x in k:
        g = gcd(g, x)
    acc = 0
    for r in range(1, g + 1):
        if g % r == 0:
            term = factorial(total // r)
            for x in k:
                term //= factorial(x // r)
            acc += _moebius(r) * term
    assert acc % total == 0
    return acc // total


@pytest.mark.parametrize("cell", [(2, 2, 10), (2, 3, 7), (2, 4, 6)])
def test_n2_blocks_follow_the_multigraded_witt_formula(cell):
    # every sorted content of the top weight, those with no standard id
    # included
    _, d, w = cell
    top = _top_contents(oracle._tower(*cell))
    assert top
    for k in range(1, d + 1):
        for parts in weight_multisets(w, k, w):
            lam = parts + (0,) * (d - k)
            assert top.pop(lam, 0) == _multigraded_witt(lam)
    assert not top


@pytest.mark.parametrize("cell", [(2, 2, 8), (2, 3, 6)])
def test_n2_restricted_instances_give_each_blocks_distinct_rows(cell):
    # only y < m_2 < m_1 is generated at n = 2; at every weight the rows it
    # gives are the distinct normalized rows of all root instances on
    # standard ids, and fewer than half of them
    _, _, w = cell
    tower = oracle._tower(*cell)
    form = tower.forms.__getitem__
    restricted = every = 0
    for v in range(3, w + 1):
        rows = []
        for wb in range(2, v):
            for ms in oracle._choices(wb, 2, tower.standard):
                for ys in oracle._choices(v - wb, 1, tower.standard):
                    if v < w or tower.counts[sum(tower.content[i] for i in ms + ys)]:
                        rows.append(oracle._instance(tower.bracket, ms, ys, form))
        rows = [row for row in rows if row]
        cut = list(tower.rows(v))
        normalized = {frozenset(oracle._normalize(row).items()) for row in cut}
        assert normalized == {frozenset(oracle._normalize(row).items()) for row in rows}
        restricted += len(cut)
        every += len(rows)
    assert restricted < every / 2


@pytest.mark.parametrize("cell", [(2, 3, 5), (3, 3, 4)])
def test_membership_agrees_with_a_dense_reference(cell):
    n, d, _ = cell
    rm = relation_rows(*cell)
    monomials = rm.basis.monomials
    ncols = len(monomials)
    basis = dense_span(rm.rows, ncols)
    assert ncols - len(basis) == graded_dimension(*cell)
    contents = {_content(t, d) for t in monomials}
    assert any(c != tuple(sorted(c, reverse=True)) for c in contents)

    def check(vec):
        lc = {monomials[j]: x for j, x in enumerate(vec) if x}
        assert membership(lc, n, d) == dense_member(basis, vec)

    unit = [[Fraction(int(j == i)) for j in range(ncols)] for i in range(ncols)]
    for vec in unit:
        check(vec)
    for row in rm.rows:
        check([Fraction(row.get(j, 0)) for j in range(ncols)])
    # combinations across contents, members or not, with fractions
    rng = random.Random(7)
    for _ in range(60):
        vec = [Fraction(0)] * ncols
        for row in rng.sample(rm.rows, 3):
            f = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for j, c in row.items():
                vec[j] += f * c
        if rng.random() < 0.5:
            vec[rng.randrange(ncols)] += Fraction(1, 2)
        check(vec)


def test_large_cells_frozen():
    assert graded_dimension(2, 3, 8) == 810  # the Witt value
    assert graded_dimension(3, 4, 6) == 1620


def test_membership_of_jacobi_instances():
    # every relation row is (by construction) a member; spot-check via the
    # public membership predicate on the raw element
    rm = relation_rows(3, 3, 4)
    for row in rm.rows[:20]:
        lc = {rm.basis.monomials[c]: Fraction(v) for c, v in row.items()}
        assert membership(lc, 3, 3)


def test_membership_rejects_nonmembers():
    # with positive graded dimension, some monomial must lie outside the
    # relation span
    b = graded_monomials(3, 3, 4)
    assert graded_dimension(3, 3, 4) > 0
    assert any(
        not membership({t: Fraction(1)}, 3, 3) for t in b.monomials
    )


def test_membership_mixed_weight_rejected():
    with pytest.raises(ValueError):
        membership({(2, 1): Fraction(1), 1: Fraction(1)}, 2, 2)
    with pytest.raises(ValueError, match="outside the monomial slice"):
        membership({(3, 1): Fraction(1)}, 2, 2)  # x3 is not a letter at d=2
    with pytest.raises(ValueError, match="outside the monomial slice"):
        membership({(1, 2): 1}, 2, 2)  # not canonical: [x2,x1] is


@pytest.mark.parametrize(
    "t", [(0, 1), (-1, 1), (3, 1), (2, 1, 3), (1, 1), (1, 2), ((2, 1), (2, 1))]
)
def test_membership_rejects_every_term_outside_the_slice(t):
    # a bad letter, a bad arity, a vanishing or an unsorted bracket: a
    # ValueError naming the slice, never IndexError, KeyError or ArityError
    with pytest.raises(ValueError, match="outside the monomial slice") as info:
        membership({t: Fraction(1)}, 2, 2)
    assert type(info.value) is ValueError


def test_membership_empty_is_trivial():
    assert membership({}, 3, 3)


def _membership_by_three_walks(lc, n, d, ceiling=oracle.DEFAULT_CEILING):
    """membership as it checked its terms before one walk did: the
    weights, then per term `canonicalize`, a count of its letters and
    `is_canonical`; then the same normal forms in the tower."""
    if not lc:
        return True
    weights = {weight(t, n) for t in lc}
    if len(weights) != 1:
        raise ValueError(f"mixed-weight combination: weights {sorted(weights)}")
    w = weights.pop()
    oracle._slice_size(n, d, w, ceiling)
    denom = lcm(*(Fraction(c).denominator for c in lc.values()))
    parts = {}
    for t, c in lc.items():
        try:
            canonicalize(t, n)
            counts = [0] * d
            for letter in _letters(t):
                counts[letter - 1] += 1  # IndexError: a letter above d
            content = tuple(counts)
        except (ValueError, IndexError):
            content = None
        if content is None or not is_canonical(t, n):
            raise ValueError(f"term outside the monomial slice: {t!r}")
        val = int(Fraction(c) * denom)
        if val:
            parts.setdefault(content, {})[t] = val
    tower = oracle._tower(n, d, w)
    for counts, part in parts.items():
        order = sorted(range(1, d + 1), key=lambda g: -counts[g - 1])
        letters = {g: k for k, g in enumerate(order)}
        memo = {}
        forms = [(tower.normal_form(t, letters, memo), val) for t, val in part.items()]
        sums = [(den, [(val * c, k) for k, c in row.items()]) for (den, row), val in forms]
        if oracle._combine(sums)[1]:
            return False
    return True


def _letters(t):
    return [t] if isinstance(t, int) else [g for c in t for g in _letters(c)]


def _defect(rng, t, n, d):
    """t, or t with a defect somewhere: a letter outside 1..d, a child
    dropped or repeated at the end, two children swapped or made equal,
    or only the first child kept."""
    if isinstance(t, int):
        return rng.choice([t, t, 0, -1, d + 1])
    kids = list(t)
    i = rng.randrange(len(kids))
    roll = rng.randrange(6)
    if roll == 0:
        kids[i] = _defect(rng, kids[i], n, d)
    elif roll == 1:
        del kids[i]
    elif roll == 2:
        kids.append(kids[i])
    elif roll == 3:
        kids[i], kids[-1] = kids[-1], kids[i]
    elif roll == 4:
        kids[i - 1] = kids[i]
    else:
        del kids[1:]
    return tuple(kids)


def _outcome(check, lc, n, d, ceiling):
    try:
        return "verdict", check(lc, n, d, ceiling)
    except (ValueError, InstanceCeilingExceeded) as exc:
        return type(exc).__name__, str(exc)


def test_membership_checks_terms_as_three_walks_did():
    # seeded random combinations of slice monomials, random terms and
    # terms with a defect: the one-walk check gives the same verdict, or
    # the same exception and text, as weight, canonicalize, the letter
    # count and is_canonical did
    rng = random.Random(19)
    cells = [(2, 2, 5), (2, 3, 4), (3, 3, 4), (3, 4, 3), (4, 4, 3)]
    slices = {cell: graded_monomials(*cell).monomials for cell in cells}
    seen = Counter()
    for _ in range(1500):
        n, d, w = rng.choice(cells)
        terms = []
        for _ in range(rng.choice([1, 1, 2, 4])):
            roll = rng.random()
            if roll < 0.5:
                t = rng.choice(slices[n, d, w])
            elif roll < 0.7:
                t = random_term(rng, n, d, rng.choice([w, w, w - 1]))
            else:
                t = rng.choice(slices[n, d, w])
            terms.append(_defect(rng, t, n, d) if roll >= 0.7 else t)
        lc = {t: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for t in terms}
        ceiling = rng.choice([oracle.DEFAULT_CEILING] * 9 + [3])
        got = _outcome(membership, lc, n, d, ceiling)
        assert got == _outcome(_membership_by_three_walks, lc, n, d, ceiling), lc
        seen[got[0], str(got[1])[:12]] += 1
    # every outcome occurs: both verdicts, a term outside the slice, mixed
    # weights, a bad instance and the ceiling
    assert seen.keys() >= {
        ("verdict", "True"), ("verdict", "False"), ("ValueError", "term outside"),
        ("ValueError", "mixed-weight"), ("ValueError", "bad instance"),
    }
    assert any(kind == "InstanceCeilingExceeded" for kind, _ in seen)


def test_membership_refuses_a_str_where_a_term_belongs():
    # a one-letter str iterates to itself; the walk raises at once
    for lc in [{"x1": 1}, {((2, 1), "x1"): 1}, {(2, 1): 1, "x1": -1}]:
        with pytest.raises(TypeError, match="not a term"):
            membership(lc, 2, 2)


def test_relabeling_invariance():
    # collecting identities survive any permutation of the generators
    rng = random.Random(41)
    perm = {1: 3, 2: 1, 3: 2}
    for _ in range(15):
        t = random_term(rng, 3, 3, rng.randint(2, 4))
        lc, trace = collect(t, 3)
        assert not trace.capped
        diff = {}
        s, ct = canonicalize(relabel(t, perm), 3)
        if s != 0:
            diff[ct] = Fraction(s)
        for u, c in lc.items():
            su, cu = canonicalize(relabel(u, perm), 3)
            if su != 0:
                lc_merge(diff, {cu: Fraction(-c * su)})
        assert membership(diff, 3, 3)


def test_dimension_invariant_under_ceiling_when_small():
    assert graded_dimension(2, 2, 3, ceiling=50) == 2


def test_ceiling_enforced():
    with pytest.raises(InstanceCeilingExceeded):
        graded_dimension(2, 3, 6, ceiling=5)


def _counted_builds(monkeypatch) -> list:
    """A cold oracle with no tower cached and no cache file, whose slice
    builds and tower builds (calls of bracket_layers, with the default
    children source and with the tower's) are appended to the returned
    list, as ("slice", cell) and ("tower", cell)."""
    builds = []

    def counted(n, d, w, *children):
        builds.append(("tower" if children else "slice", (n, d, w)))
        return bracket_layers(n, d, w, *children)

    monkeypatch.delenv(oracle.CACHE_ENV_VAR, raising=False)
    monkeypatch.setattr(oracle, "bracket_layers", counted)
    monkeypatch.setattr(oracle, "_tower", functools.cache(oracle._Tower))
    return builds


def test_relation_space_built_once_per_cell_whatever_the_ceiling(monkeypatch):
    builds = _counted_builds(monkeypatch)
    graded_dimension(2, 2, 6, ceiling=2000)
    t = graded_monomials(2, 2, 6).monomials[0]
    membership({t: Fraction(1)}, 2, 2)
    assert graded_dimension(2, 2, 6) == 9
    # exactly one tower cached, built once
    assert [b for b in builds if b[0] == "tower"] == [("tower", (2, 2, 6))]
    assert oracle._tower.cache_info().currsize == 1
    # a cached tower is still refused under a smaller ceiling
    with pytest.raises(InstanceCeilingExceeded):
        graded_dimension(2, 2, 6, ceiling=5)
    with pytest.raises(InstanceCeilingExceeded):
        membership({t: Fraction(1)}, 2, 2, ceiling=5)


def test_cold_cell_builds_brackets_once(monkeypatch):
    # a cold graded_dimension lists the slice once, then builds the tower
    builds = _counted_builds(monkeypatch)
    assert graded_dimension(2, 2, 10) == 99
    assert builds == [("slice", (2, 2, 10)), ("tower", (2, 2, 10))]
    assert oracle._tower(2, 2, 10).dim == 99
    # each listing is built afresh, a kept tower is not
    assert len(graded_monomials(2, 2, 10).monomials) == LADDER[2, 2, 10][1]
    assert graded_dimension(2, 2, 10) == 99
    assert builds[2:] == [("slice", (2, 2, 10))] * 2
    # a cold membership builds only the tower, relation_rows one listing,
    # for its rows and its monomials
    assert membership({(2, 1): Fraction(1)}, 2, 2) is False
    assert builds[4:] == [("tower", (2, 2, 2))]
    assert len(relation_rows(2, 2, 5).rows) > 0
    assert builds[5:] == [("slice", (2, 2, 5))]


def test_cold_oracle_generates_no_whole_slice_rows(monkeypatch):
    # only relation_rows generates the rows of the whole slice, and a cold
    # membership builds no slice at all
    def never(*args):
        raise AssertionError("generated the rows of the whole slice")

    t = graded_monomials(2, 3, 6).monomials[-1]
    builds = _counted_builds(monkeypatch)
    monkeypatch.setattr(oracle, "_slice_rows", never)
    assert graded_dimension(3, 4, 5) == 380
    assert builds == [("slice", (3, 4, 5)), ("tower", (3, 4, 5))]
    assert membership({t: Fraction(1)}, 2, 3) is False
    jacobi = {((3, 2), 1): 1, ((2, 1), 3): 1, ((3, 1), 2): -1}  # the cyclic sum
    assert membership(jacobi, 2, 3) is True
    assert builds[2:] == [("tower", (2, 3, 6)), ("tower", (2, 3, 3))]
    with pytest.raises(AssertionError, match="whole slice"):
        relation_rows(2, 2, 4)


def test_cold_graded_dimension_keeps_only_its_tower(monkeypatch):
    # the listing is freed before the tower is built: a cold (2,3,9), of
    # 41 184 monomials, keeps its tower, about 2 MB, and nothing else
    monkeypatch.delenv(oracle.CACHE_ENV_VAR, raising=False)
    monkeypatch.setattr(oracle, "_tower", functools.cache(oracle._Tower))
    gc.collect()
    tracemalloc.start()
    try:
        assert graded_dimension(2, 3, 9) == 2184  # the Witt value
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 4 * 2**20
    # the tower cache holds that cell and no other
    before = oracle._tower.cache_info()
    oracle._tower(2, 3, 9)
    after = oracle._tower.cache_info()
    assert before.currsize == after.currsize == 1 and after.hits == before.hits + 1


def test_cold_graded_dimension_lists_only_the_slice_terms(monkeypatch):
    # the listing holds the terms of weights 1..9 and the bracket build's
    # child ids, and no child-ids -> id table or position map beside them:
    # a cold (2,3,9) peaks at about 7.7 MiB
    monkeypatch.delenv(oracle.CACHE_ENV_VAR, raising=False)
    monkeypatch.setattr(oracle, "_tower", functools.cache(oracle._Tower))
    gc.collect()
    tracemalloc.start()
    try:
        assert graded_dimension(2, 3, 9) == 2184
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2**20


def test_refused_cell_is_never_built(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("built a cell above the ceiling")

    monkeypatch.delenv(oracle.CACHE_ENV_VAR, raising=False)
    monkeypatch.setattr(oracle, "bracket_layers", never)
    with pytest.raises(InstanceCeilingExceeded, match="^4629138 monomials"):
        graded_dimension(2, 4, 10, ceiling=2000)
    with pytest.raises(InstanceCeilingExceeded, match="^29804208 monomials"):
        graded_monomials(2, 4, 11, ceiling=2000)
    with pytest.raises(InstanceCeilingExceeded):
        membership({(2, 1): Fraction(1)}, 2, 4, ceiling=0)


def test_bad_instance_rejected():
    with pytest.raises(ValueError):
        graded_monomials(1, 2, 2)
    with pytest.raises(ValueError):
        graded_monomials(2, 0, 2)


@pytest.fixture
def oracle_cache(tmp_path, monkeypatch):
    """The oracle cache directory, NLIE_ORACLE_CACHE, set to tmp_path."""
    monkeypatch.setenv(oracle.CACHE_ENV_VAR, str(tmp_path))


def test_json_cell_cache_roundtrip(tmp_path, oracle_cache):
    val = graded_dimension(2, 2, 4)
    files = list(tmp_path.glob("cell_*.json"))
    assert len(files) == 1
    rec = json.loads(files[0].read_text())
    assert rec == {
        "n": 2,
        "d": 2,
        "w": 4,
        "basis_size": rec["basis_size"],
        "rank": rec["rank"],
        "dim": val,
    }
    assert rec["basis_size"] - rec["rank"] == val
    # the cached record is authoritative on re-read
    rec["dim"] = 999
    files[0].write_text(json.dumps(rec))
    assert graded_dimension(2, 2, 4) == 999


def test_truncated_cache_record_is_recomputed(tmp_path, oracle_cache):
    path = tmp_path / "cell_n2_d2_w5.json"
    assert graded_dimension(2, 2, 5) == 6
    path.write_text(path.read_text()[:10])
    with pytest.warns(RuntimeWarning, match="is unreadable"):
        assert graded_dimension(2, 2, 5) == 6
    assert json.loads(path.read_text())["dim"] == 6
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_cache_record_of_another_cell_is_recomputed(tmp_path, oracle_cache):
    path = tmp_path / "cell_n2_d2_w5.json"
    rec = {"n": 2, "d": 2, "w": 4, "basis_size": 4, "rank": 1, "dim": 3}
    path.write_text(json.dumps(rec))
    with pytest.warns(RuntimeWarning, match="not a record of"):
        assert graded_dimension(2, 2, 5) == 6
    rec = json.loads(path.read_text())
    assert (rec["n"], rec["d"], rec["w"], rec["dim"]) == (2, 2, 5, 6)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


@pytest.mark.parametrize("dim", [True, -4])
def test_cache_record_without_a_dimension_is_recomputed(tmp_path, dim, oracle_cache):
    path = tmp_path / "cell_n2_d2_w5.json"
    rec = {"n": 2, "d": 2, "w": 5, "basis_size": 14, "rank": 8, "dim": dim}
    path.write_text(json.dumps(rec))
    with pytest.warns(RuntimeWarning, match="holds no dimension"):
        assert graded_dimension(2, 2, 5) == 6
    rec = json.loads(path.read_text())
    assert (rec["n"], rec["d"], rec["w"], rec["dim"]) == (2, 2, 5, 6)


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(oracle.CACHE_ENV_VAR, str(tmp_path))
    graded_dimension(2, 2, 3)
    assert (tmp_path / "cell_n2_d2_w3.json").exists()


def test_cache_record_is_read_only_within_the_ceiling(tmp_path, oracle_cache):
    assert graded_dimension(2, 3, 7, ceiling=5000) == 312
    assert (tmp_path / "cell_n2_d3_w7.json").exists()
    with pytest.raises(InstanceCeilingExceeded, match="^2052 monomials"):
        graded_dimension(2, 3, 7, ceiling=2000)
    assert graded_dimension(2, 3, 7, ceiling=2052) == 312


def test_cache_record_of_a_bad_instance_is_not_read(tmp_path, oracle_cache):
    rec = {"n": 1, "d": 2, "w": 3, "basis_size": 2, "rank": 0, "dim": 2}
    (tmp_path / "cell_n1_d2_w3.json").write_text(json.dumps(rec))
    with pytest.raises(ValueError, match="bad instance"):
        graded_dimension(1, 2, 3)
