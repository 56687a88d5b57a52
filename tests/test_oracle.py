import json
import random
from fractions import Fraction
from math import comb, factorial, gcd

import pytest

from conftest import random_term, relabel
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
    canonical_brackets,
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


def test_monomials_sorted_and_indexed():
    b = graded_monomials(2, 3, 4)
    keys = [term_key(t, 2) for t in b.monomials]
    assert keys == sorted(keys)
    for i, t in enumerate(b.monomials):
        assert b.index[t] == i


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
    index = graded_monomials(n, d, w).index

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


def _dense_rank(rows, ncols):
    """Rank over Q by textbook Gaussian elimination on dense Fraction rows,
    pivoting on the leftmost column, with no normalization and no
    deduplication."""
    m = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]
    rank = 0
    for j in range(ncols):
        below = [i for i in range(rank, len(m)) if m[i][j]]
        if not below:
            continue
        m[rank], m[below[0]] = m[below[0]], m[rank]
        p = m[rank]
        nonzero = [k for k in range(j, ncols) if p[k]]
        for r in m[rank + 1 :]:
            if r[j]:
                f = r[j] / p[j]
                for k in nonzero:
                    r[k] -= f * p[k]
        rank += 1
    return rank


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


@pytest.mark.parametrize("cell", [(2, 2, 6), (2, 3, 5), (3, 3, 5), (3, 4, 4), (4, 5, 4)])
def test_echelon_rank_matches_dense_fraction_rank(cell):
    rm = relation_rows(*cell)
    space = oracle._cell(*cell)
    total = sum(
        block.echelon.rank * oracle._arrangements(lam) for lam, block in space.blocks.items()
    )
    assert total == space.rank == _dense_rank(rm.rows, len(rm.basis.monomials))
    # each content's rows have the dense rank of the block of its sorted
    # content, and that block has the content's monomials
    for content, (columns, rows) in _rows_by_content(cell).items():
        block = space.blocks[tuple(sorted(content, reverse=True))]
        assert len(block.ids) == len(columns)
        local = [{columns.index(col): c for col, c in row.items()} for row in rows]
        assert block.echelon.rank == _dense_rank(local, len(columns))


@pytest.mark.parametrize("cell", [(2, 2, 8), (2, 3, 6), (3, 3, 6), (4, 5, 4)])
def test_echelon_pivots_sit_on_their_largest_column(cell):
    space = oracle._cell(*cell)
    first = space.base[cell[2]]
    assert any(block.echelon.pivots for block in space.blocks.values())
    for block in space.blocks.values():
        # every column of a pivot is a slice column of the block's content
        columns = {i - first for i in block.ids}
        for col, row in block.echelon.pivots.items():
            assert col == max(row) and row.keys() <= columns
            assert row[col] > 0
            assert gcd(*row.values()) == 1


@pytest.mark.parametrize("cell", [(2, 2, 8), (3, 3, 6)])
def test_repeated_rows_leave_the_rank_unchanged(cell, monkeypatch):
    rows = relation_rows(*cell).rows
    ech = oracle._Echelon()
    for row in rows:
        ech.insert(row)
        assert not ech.insert(row)
    cached = oracle._cell(*cell)
    rank = cached.rank
    assert ech.rank == rank

    # every block row generated again, negated and doubled: the build
    # feeds every row, copies included, in ascending order of the largest
    # column, and each block keeps the rank and pivots of the cached build
    generated = {}
    fed = {}
    block_rows = oracle._Cell.rows
    insert = oracle._Echelon.insert

    def doubled(cell, spines, lam):
        for row in block_rows(cell, spines, lam):
            generated.setdefault(lam, []).append(row)
            yield row
            yield {k: -2 * c for k, c in row.items()}

    def counted(self, row):
        fed.setdefault(id(self), []).append(row)
        return insert(self, row)

    monkeypatch.setattr(oracle._Cell, "rows", doubled)
    monkeypatch.setattr(oracle._Echelon, "insert", counted)
    space = oracle._Cell(*cell)  # a fresh build, outside the cache
    assert space.rank == rank
    assert space.blocks.keys() == cached.blocks.keys()
    for lam, block in space.blocks.items():
        assert block.echelon.rank == cached.blocks[lam].echelon.rank
        assert block.echelon.pivots == cached.blocks[lam].echelon.pivots
        leads = [max(row) for row in fed.get(id(block.echelon), [])]
        assert leads == sorted(leads)
    assert sum(map(len, fed.values())) == 2 * sum(map(len, generated.values())) > 0


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
    dim, monomials, _, rank = LADDER[cell]
    blocks = oracle._cell(*cell).blocks
    assert all(lam == tuple(sorted(lam, reverse=True)) for lam in blocks)
    arrangements = {lam: oracle._arrangements(lam) for lam in blocks}
    assert sum(len(b.ids) * arrangements[lam] for lam, b in blocks.items()) == monomials
    assert sum(b.echelon.rank * arrangements[lam] for lam, b in blocks.items()) == rank
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
    blocks = oracle._cell(*cell).blocks
    assert blocks
    for lam, block in blocks.items():
        assert len(block.ids) - block.echelon.rank == _multigraded_witt(lam)


@pytest.mark.parametrize("cell", [(2, 2, 8), (2, 3, 6)])
def test_n2_restricted_instances_give_each_blocks_distinct_rows(cell, monkeypatch):
    # only y < m_2 < m_1 is generated at n = 2; the rows it gives are the
    # distinct normalized rows of all instances of the block
    norm = oracle._Echelon._normalize
    by_content = _rows_by_content(cell)
    generated = {}  # block content -> the block's rows, as generated
    block_rows = oracle._Cell.rows

    def recorded(built, spines, lam):
        for row in block_rows(built, spines, lam):
            generated.setdefault(tuple(built.unpack(lam)), []).append(norm(row))
            yield row

    monkeypatch.setattr(oracle._Cell, "rows", recorded)
    built = oracle._Cell(*cell)  # a fresh build, outside the cache
    restricted_rows = all_rows = 0
    for lam, block in built.blocks.items():
        _, rows = by_content[lam]  # on slice columns, as the block's rows
        every = {frozenset(norm(row).items()) for row in rows}
        restricted = generated.get(lam, [])
        assert {frozenset(row.items()) for row in restricted} == every
        restricted_rows += len(restricted)
        all_rows += len(rows)
    assert restricted_rows < all_rows / 2


def _dense_span(rows, ncols):
    """The reduced row echelon form over Q of the rows, by textbook
    Gauss-Jordan elimination on dense Fraction rows: (pivot column, row)
    pairs, each row 1 at its pivot and 0 at every other pivot."""
    m = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]
    basis = []
    for j in range(ncols):
        hit = next((r for r in m if r[j]), None)
        if hit is None:
            continue
        m.remove(hit)
        hit = [x / hit[j] for x in hit]
        for r in m + [b for _, b in basis]:
            if r[j]:
                f = r[j]
                for k in range(ncols):
                    r[k] -= f * hit[k]
        basis.append((j, hit))
    return basis


def _dense_member(basis, vec):
    vec = list(vec)
    for j, row in basis:
        if vec[j]:
            f = vec[j]
            vec = [a - f * b for a, b in zip(vec, row)]
    return not any(vec)


@pytest.mark.parametrize("cell", [(2, 3, 5), (3, 3, 4)])
def test_membership_agrees_with_a_dense_reference(cell):
    n, d, _ = cell
    rm = relation_rows(*cell)
    monomials = rm.basis.monomials
    ncols = len(monomials)
    basis = _dense_span(rm.rows, ncols)
    assert ncols - len(basis) == graded_dimension(*cell)
    contents = {_content(t, d) for t in monomials}
    assert any(c != tuple(sorted(c, reverse=True)) for c in contents)

    def check(vec):
        lc = {monomials[j]: x for j, x in enumerate(vec) if x}
        assert membership(lc, n, d) == _dense_member(basis, vec)

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


def test_membership_empty_is_trivial():
    assert membership({}, 3, 3)


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
    """A cold oracle with no cell cached and no cache file, whose calls of
    canonical_brackets are appended to the returned list."""
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return canonical_brackets(*args, **kwargs)

    monkeypatch.delenv(oracle.CACHE_ENV_VAR, raising=False)
    monkeypatch.setattr(oracle, "_CELLS", {})
    monkeypatch.setattr(oracle, "canonical_brackets", counted)
    return builds


def test_relation_space_built_once_per_cell_whatever_the_ceiling(monkeypatch):
    builds = _counted_builds(monkeypatch)
    graded_dimension(2, 2, 6, ceiling=2000)
    t = graded_monomials(2, 2, 6).monomials[0]
    membership({t: Fraction(1)}, 2, 2)
    # exactly one cell cached, built once
    assert list(oracle._CELLS) == [(2, 2, 6)] and builds == [(2, 2, 6)]
    # a cached cell is still refused under a smaller ceiling
    with pytest.raises(InstanceCeilingExceeded):
        graded_dimension(2, 2, 6, ceiling=5)
    with pytest.raises(InstanceCeilingExceeded):
        membership({t: Fraction(1)}, 2, 2, ceiling=5)


def test_cold_cell_builds_brackets_once(monkeypatch):
    # the slice is sized by bracket_counts; the one build serves the rows,
    # their contexts and the monomial list
    builds = _counted_builds(monkeypatch)
    assert graded_dimension(2, 2, 10) == 99
    assert len(graded_monomials(2, 2, 10).monomials) == 99 + oracle._cell(2, 2, 10).rank
    assert builds == [(2, 2, 10)]
    # and so do a cold membership and relation_rows
    oracle._CELLS.clear()
    assert membership({(2, 1): Fraction(1)}, 2, 2) is False
    assert builds == [(2, 2, 10), (2, 2, 2)]
    oracle._CELLS.clear()
    assert len(relation_rows(2, 2, 5).rows) > 0
    assert builds == [(2, 2, 10), (2, 2, 2), (2, 2, 5)]
    # the four entry points, in the order of the bench's layers, share
    # one build of a cold cell
    t = graded_monomials(3, 4, 5).monomials[0]
    assert len(relation_rows(3, 4, 5).rows) == 3336
    assert graded_dimension(3, 4, 5) == 380
    assert membership({t: Fraction(1)}, 3, 4) is False
    assert builds[3:] == [(3, 4, 5)]

    # a cached cell is neither built nor counted again
    def never(*args, **kwargs):
        raise AssertionError("a cached cell built or counted again")

    monkeypatch.setattr(oracle, "canonical_brackets", never)
    monkeypatch.setattr(oracle, "bracket_counts", never)
    assert membership({t: Fraction(1)}, 3, 4) is False


def test_refused_cell_is_never_built(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("built a cell above the ceiling")

    monkeypatch.delenv(oracle.CACHE_ENV_VAR, raising=False)
    monkeypatch.setattr(oracle, "canonical_brackets", never)
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
