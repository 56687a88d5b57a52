import json
import random
from fractions import Fraction
from math import comb, gcd

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


@pytest.mark.parametrize("cell", [(2, 2, 6), (2, 3, 5), (3, 3, 5), (3, 4, 4), (4, 5, 4)])
def test_echelon_rank_matches_dense_fraction_rank(cell):
    rm = relation_rows(*cell)
    assert oracle._relation_space(*cell).rank == _dense_rank(
        rm.rows, len(rm.basis.monomials)
    )


@pytest.mark.parametrize("cell", [(2, 2, 8), (2, 3, 6), (3, 3, 6), (4, 5, 4)])
def test_echelon_pivots_sit_on_their_largest_column(cell):
    pivots = oracle._relation_space(*cell).pivots
    assert pivots
    for col, row in pivots.items():
        assert col == max(row)
        assert row[col] > 0
        assert gcd(*row.values()) == 1


@pytest.mark.parametrize("cell", [(2, 2, 8), (3, 3, 6)])
def test_repeated_rows_leave_the_rank_unchanged(cell, monkeypatch):
    rows = relation_rows(*cell).rows
    ech = oracle._Echelon()
    for row in rows:
        ech.insert(row)
        assert not ech.insert(row)
    rank = oracle._relation_space(*cell).rank
    assert ech.rank == rank

    # every row fed again, negated and doubled: the build skips the copies
    fed = []
    insert = oracle._Echelon.insert

    def doubled(*args):
        for row in rows:
            yield row
            yield {k: -2 * c for k, c in row.items()}

    def counted(self, row):
        fed.append(row)
        return insert(self, row)

    monkeypatch.setattr(oracle, "_instance_rows", doubled)
    monkeypatch.setattr(oracle._Echelon, "insert", counted)
    assert oracle._relation_space.__wrapped__(*cell).rank == rank
    distinct = {frozenset(oracle._Echelon._normalize(row).items()) for row in rows}
    assert len(fed) == len(distinct) < len(rows)


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


def test_relation_space_built_once_per_cell_whatever_the_ceiling():
    oracle._relation_space.cache_clear()
    graded_dimension(2, 2, 6, ceiling=2000)
    t = graded_monomials(2, 2, 6).monomials[0]
    membership({t: Fraction(1)}, 2, 2)
    info = oracle._relation_space.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    # a cached cell is still refused under a smaller ceiling
    with pytest.raises(InstanceCeilingExceeded):
        graded_dimension(2, 2, 6, ceiling=5)
    with pytest.raises(InstanceCeilingExceeded):
        membership({t: Fraction(1)}, 2, 2, ceiling=5)


def test_cold_cell_builds_brackets_once(monkeypatch):
    # the slice is sized by bracket_counts; the one build serves the rows,
    # their contexts and the monomial list
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return canonical_brackets(*args, **kwargs)

    monkeypatch.delenv(oracle.CACHE_ENV_VAR, raising=False)
    monkeypatch.setattr(oracle, "canonical_brackets", counted)
    oracle._MONOMIALS.clear()
    oracle._relation_space.cache_clear()
    assert graded_dimension(2, 2, 10) == 99
    assert len(graded_monomials(2, 2, 10).monomials) == 99 + oracle._relation_space(2, 2, 10).rank
    assert builds == [(2, 2, 10)]
    # and so do a cold membership and relation_rows
    oracle._MONOMIALS.clear()
    oracle._relation_space.cache_clear()
    assert membership({(2, 1): Fraction(1)}, 2, 2) is False
    assert builds == [(2, 2, 10), (2, 2, 2)]
    oracle._MONOMIALS.clear()
    assert len(relation_rows(2, 2, 5).rows) > 0
    assert builds == [(2, 2, 10), (2, 2, 2), (2, 2, 5)]


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


def test_json_cell_cache_roundtrip(tmp_path):
    d = str(tmp_path)
    val = graded_dimension(2, 2, 4, cache_dir=d)
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
    assert graded_dimension(2, 2, 4, cache_dir=d) == 999


def test_truncated_cache_record_is_recomputed(tmp_path):
    path = tmp_path / "cell_n2_d2_w5.json"
    assert graded_dimension(2, 2, 5, cache_dir=str(tmp_path)) == 6
    path.write_text(path.read_text()[:10])
    with pytest.warns(RuntimeWarning, match="is unreadable"):
        assert graded_dimension(2, 2, 5, cache_dir=str(tmp_path)) == 6
    assert json.loads(path.read_text())["dim"] == 6
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_cache_record_of_another_cell_is_recomputed(tmp_path):
    path = tmp_path / "cell_n2_d2_w5.json"
    rec = {"n": 2, "d": 2, "w": 4, "basis_size": 4, "rank": 1, "dim": 3}
    path.write_text(json.dumps(rec))
    with pytest.warns(RuntimeWarning, match="not a record of"):
        assert graded_dimension(2, 2, 5, cache_dir=str(tmp_path)) == 6
    rec = json.loads(path.read_text())
    assert (rec["n"], rec["d"], rec["w"], rec["dim"]) == (2, 2, 5, 6)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


@pytest.mark.parametrize("dim", [True, -4])
def test_cache_record_without_a_dimension_is_recomputed(tmp_path, dim):
    path = tmp_path / "cell_n2_d2_w5.json"
    rec = {"n": 2, "d": 2, "w": 5, "basis_size": 14, "rank": 8, "dim": dim}
    path.write_text(json.dumps(rec))
    with pytest.warns(RuntimeWarning, match="holds no dimension"):
        assert graded_dimension(2, 2, 5, cache_dir=str(tmp_path)) == 6
    rec = json.loads(path.read_text())
    assert (rec["n"], rec["d"], rec["w"], rec["dim"]) == (2, 2, 5, 6)


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(oracle.CACHE_ENV_VAR, str(tmp_path))
    graded_dimension(2, 2, 3)
    assert (tmp_path / "cell_n2_d2_w3.json").exists()
