"""Ground-truth graded dimensions of the free n-Lie algebra.

The weight-w slice is realized as the span of canonical nonzero bracket
monomials (skew-symmetry is folded into canonicalization) modulo the span
of all generalized-Jacobi instances landing in the slice.  An instance is
a context monomial with one hole, filled with the element

    [[m_1,...,m_n], y_2,...,y_n] - sum_i [m_1,...,[m_i, y_2,...,y_n],...,m_n]

for distinct canonical monomials m_1 > ... > m_n and y_2 > ... > y_n
(instances with a repeated argument vanish modulo skew-symmetry, so the
distinct, ordered choices span everything).  Instances are generated at
every hole position, not only the root.

Rows are generated on the integer ids of one `terms.canonical_brackets`
build, which compare as terms do; the same build lists the slice, after
`terms.bracket_counts` has sized it against the ceiling.  Contexts come from the same build: each
is the tuple of sibling-id tuples on the path from the hole to the root.
The Jacobi element of each (M, Y) is canonicalized once; plugging it into
a context re-sorts only the brackets on that path, each by inserting one
id among siblings that are already sorted.  Terms appear only at the API
boundary: `graded_monomials` lists the slice, and `membership` maps a
combination of terms onto its columns.

The graded dimension is |monomials| - rank(instances), with rank computed
by exact integer fraction-free elimination.  No floating point, no
modular shortcuts.  Each row is normalized (divided by the gcd of its
entries, positive at its largest column) and skipped if the same row was
already fed in: at n = 2 only about a third of the rows are distinct.  The
echelon pivots on each row's largest column, which limits fill-in in the
spirit of Markowitz (1957) and of the structured Gaussian elimination of
LaMacchia and Odlyzko (1990), and updates the row being reduced in place.
"""

from __future__ import annotations

import json
import os
import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from typing import NamedTuple, Optional

from .terms import (
    bracket_counts,
    canonical_brackets,
    distinct_descending,
    weight,
    weight_multisets,
)

DEFAULT_CEILING = 200_000

CACHE_ENV_VAR = "NLIE_ORACLE_CACHE"

class InstanceCeilingExceeded(RuntimeError):
    """The monomial slice is larger than the configured ceiling."""


class MonomialBasis(NamedTuple):
    n: int
    d: int
    w: int
    monomials: list  # ascending in the term order
    index: dict  # Term -> position


class RelationMatrix(NamedTuple):
    basis: MonomialBasis
    rows: list  # sparse integer rows: dict column -> coefficient


def _choices(total: int, parts: int, pools) -> list:
    """Strictly descending tuples of `parts` monomials drawn from
    pools[weight], with weights summing to `total`."""
    out = []
    for ws in weight_multisets(total, parts, total):
        out.extend(distinct_descending(ws, pools))
    return out


_MONOMIALS: dict = {}  # (n, d, w) -> the cell's `_monomials`


def _monomials(n: int, d: int, w: int, build=None) -> dict:
    """All canonical nonzero monomials of weight w on d letters, ascending,
    each mapped to its position.  Listed once per cell, from `build` (the
    cell's canonical_brackets result) when the caller has one."""
    ms = _MONOMIALS.get((n, d, w))
    if ms is None:
        terms, base, _ = build or canonical_brackets(n, d, w)
        ms = _MONOMIALS[n, d, w] = {t: i for i, t in enumerate(terms[base[w] :])}
    return ms


def _slice_size(n: int, d: int, w: int, ceiling: int) -> int:
    """The number of weight-w monomials, counted without building them
    unless the cell is already listed; raises InstanceCeilingExceeded when
    it is above `ceiling`."""
    if n < 2 or d < 1 or w < 1:
        raise ValueError(f"bad instance (n={n}, d={d}, w={w})")
    ms = _MONOMIALS.get((n, d, w))
    size = bracket_counts(n, d, w)[w] if ms is None else len(ms)
    if size > ceiling:
        raise InstanceCeilingExceeded(
            f"{size} monomials at (n={n}, d={d}, w={w}) exceeds ceiling {ceiling}"
        )
    return size


def graded_monomials(
    n: int, d: int, w: int, ceiling: int = DEFAULT_CEILING
) -> MonomialBasis:
    _slice_size(n, d, w, ceiling)
    ms = _monomials(n, d, w)
    return MonomialBasis(n, d, w, list(ms), dict(ms))


def _contexts(n: int, w: int, v: int, pools) -> list:
    """Monomials of weight w with one hole standing for a weight-v
    subterm, each as the strictly descending sibling-id tuples of the
    brackets on its path, from the hole to the root; the hole is the first
    child of each.  Sibling ids are drawn from `pools` (weight -> ids)."""
    if w == v:
        return [()]
    out = []
    for sub_w in range(v, w):
        sib_total = w + n - 2 - sub_w  # >= n - 1, as sub_w < w
        subs = _contexts(n, sub_w, v, pools)
        for sibs in _choices(sib_total, n - 1, pools):
            for sub in subs:
                out.append(sub + (sibs,))
    return out


def _put(bracket: dict, coeff: int, pos: int, x: int, sibs: tuple):
    """Canonicalize coeff times the bracket of the strictly descending ids
    `sibs` with id x in raw slot `pos`: (coeff, id), coeff negated once per
    slot x moves, or None when x equals a sibling (the bracket vanishes)."""
    q = 0
    for s in sibs:
        if s <= x:
            if s == x:
                return None
            break
        q += 1
    return (-coeff if (pos - q) & 1 else coeff), bracket[sibs[:q] + (x,) + sibs[q:]]


def _instance_rows(n: int, d: int, w: int):
    """Yield every nonzero relation row, in order."""
    build = canonical_brackets(n, d, w)
    _monomials(n, d, w, build)  # the same build lists the slice
    _, base, bracket = build
    pools = {v: range(base[v], base[v + 1]) for v in range(1, w + 1)}
    # one shared int per column (as in basis.index), not one per row entry
    column = {i: i - base[w] for i in pools[w]}
    for v in range(2, w + 1):
        spines = _contexts(n, w, v, pools)
        # all (M, Y) with weight([[M], Y]) == v
        for wb in range(2, v):
            y_choices = _choices(v - wb + n - 2, n - 1, pools)
            for ms in _choices(wb + n - 2, n, pools):
                for ys in y_choices:
                    # [[M], Y] - sum_i [m_1,..,[m_i, Y],..,m_n] as {id: coeff}
                    parts = [_put(bracket, 1, 0, bracket[ms], ys)]
                    for i, m in enumerate(ms):
                        inner = _put(bracket, -1, 0, m, ys)
                        if inner is not None:
                            rest = ms[:i] + ms[i + 1 :]
                            parts.append(_put(bracket, inner[0], i, inner[1], rest))
                    element: dict[int, int] = {}
                    for part in filter(None, parts):
                        coeff = element.get(part[1], 0) + part[0]
                        if coeff:
                            element[part[1]] = coeff
                        else:
                            del element[part[1]]
                    for spine in spines:
                        row: dict[int, int] = {}
                        for tid, coeff in element.items():
                            for sibs in spine:
                                hit = _put(bracket, coeff, 0, tid, sibs)
                                if hit is None:
                                    break
                                coeff, tid = hit
                            else:
                                row[column[tid]] = coeff
                        if row:
                            yield row


def relation_rows(
    n: int, d: int, w: int, ceiling: int = DEFAULT_CEILING
) -> RelationMatrix:
    _slice_size(n, d, w, ceiling)  # refuse the cell before any build
    rows = list(_instance_rows(n, d, w))  # a cold cell's one build
    return RelationMatrix(graded_monomials(n, d, w, ceiling=ceiling), rows)


class _Echelon:
    """Incremental exact integer row reduction.  pivots[col] is a row whose
    largest column is col, with a positive coefficient there and entries of
    gcd 1.  Keying pivots on the largest column rather than the smallest
    keeps fill-in low on relation rows."""

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    @staticmethod
    def _normalize(row: dict[int, int]) -> dict[int, int]:
        """row divided by the gcd of its entries, signed so that the entry
        at its largest column is positive."""
        g = 0
        for c in row.values():
            g = gcd(g, c)
        if row[max(row)] < 0:
            g = -g
        return row if g == 1 else {k: c // g for k, c in row.items()}

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        """row reduced until its largest column has no pivot, normalized;
        {} when it lies in the span of the pivots."""
        row = dict(row)
        pivots = self.pivots
        while row:
            lead = max(row)
            piv = pivots.get(lead)
            if piv is None:
                return self._normalize(row)
            b = row.pop(lead)
            a = piv[lead]
            if a > 1:
                # row := (a / g) * row - (b / g) * piv, g = gcd(a, b)
                g = gcd(a, b)
                if g != a:
                    row = {k: a // g * c for k, c in row.items()}
                b //= g
            for k, c in piv.items():
                if k != lead:
                    c = row.get(k, 0) - b * c
                    if c:
                        row[k] = c
                    else:
                        del row[k]
        return {}

    def insert(self, row: dict[int, int]) -> bool:
        """Reduce and insert; True if the rank grew."""
        res = self.reduce(row)
        if not res:
            return False
        self.pivots[max(res)] = res
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


@lru_cache(maxsize=None)
def _relation_space(n: int, d: int, w: int) -> _Echelon:
    """The echelon of a cell's relations.  Keyed on the cell alone, so a
    cell is built once whatever ceilings ask for it: callers check their
    ceiling first, with _slice_size or graded_monomials.

    A row whose normalized form was already fed in is skipped.  The key
    is the normalized row itself, as a flat tuple of its sorted (column,
    coefficient) pairs, so no two distinct rows can collide; the keys are
    dropped once the cell is built."""
    ech = _Echelon()
    seen = set()
    # rows stream in from the generator; no row list is built
    for row in _instance_rows(n, d, w):
        row = ech._normalize(row)
        key = tuple(chain.from_iterable(sorted(row.items())))
        if key not in seen:
            seen.add(key)
            ech.insert(row)
    return ech


def graded_dimension(
    n: int,
    d: int,
    w: int,
    ceiling: int = DEFAULT_CEILING,
    cache_dir: Optional[str] = None,
) -> int:
    """dim F^w / F^(w+1) on d generators: |monomials| - rank(relations).

    If `cache_dir` (or the environment variable NLIE_ORACLE_CACHE) names a
    directory, computed cells are stored there as one JSON record per
    cell: {n, d, w, basis_size, rank, dim}.  A readable record of the same
    cell is authoritative; an unreadable one, or one naming another cell,
    is reported with a warning, recomputed and rewritten."""
    cache_dir = cache_dir or os.environ.get(CACHE_ENV_VAR)
    cache_path = None
    if cache_dir:
        cache_path = os.path.join(cache_dir, f"cell_n{n}_d{d}_w{w}.json")
        dim = _read_cell(cache_path, n, d, w)
        if dim is not None:
            return dim
    _slice_size(n, d, w, ceiling)  # refuse the cell before any build
    ech = _relation_space(n, d, w)  # a cold cell's one build
    size = len(graded_monomials(n, d, w, ceiling=ceiling).monomials)
    dim = size - ech.rank
    if cache_path:
        os.makedirs(cache_dir, exist_ok=True)
        rec = {
            "n": n,
            "d": d,
            "w": w,
            "basis_size": size,
            "rank": ech.rank,
            "dim": dim,
        }
        _write_cell(cache_path, rec)
    return dim


def _read_cell(path: str, n: int, d: int, w: int) -> Optional[int]:
    """The dim of a cell record, or None when there is no usable record
    (with a warning when a bad one is there)."""
    try:
        with open(path) as fh:
            rec = json.load(fh)
        if [rec["n"], rec["d"], rec["w"]] != [n, d, w]:
            problem = f"is not a record of (n={n}, d={d}, w={w})"
        elif type(rec["dim"]) is not int or rec["dim"] < 0:  # a bool is an int
            problem = f"holds no dimension (dim={rec['dim']!r})"
        else:
            return rec["dim"]
    except FileNotFoundError:
        return None
    except (OSError, ValueError, TypeError, KeyError) as exc:
        problem = f"is unreadable ({exc!r})"
    warnings.warn(f"oracle cache file {path} {problem}; recomputing", RuntimeWarning)
    return None


def _write_cell(path: str, rec: dict) -> None:
    """Write a record to a temp file in the same directory, flushed to
    disk, then rename it over `path`: readers see the old record or the
    whole new one, never a truncated file."""
    import tempfile  # only a cache write needs it; it slows a cold import

    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(rec, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # left behind only if a step above failed
            os.unlink(tmp)


def membership(
    lc: dict, n: int, d: int, ceiling: int = DEFAULT_CEILING
) -> bool:
    """Whether the combination lies in the relation span of its graded
    component.  All terms must share one weight; the empty combination is
    trivially a member."""
    if not lc:
        return True
    weights = {weight(t, n) for t in lc}
    if len(weights) != 1:
        raise ValueError(f"mixed-weight combination: weights {sorted(weights)}")
    w = weights.pop()
    _slice_size(n, d, w, ceiling)  # refuse the cell before any build
    ech = _relation_space(n, d, w)  # a cold cell's one build
    basis = graded_monomials(n, d, w, ceiling=ceiling)
    # clear denominators to an integer vector
    denom = lcm(*(Fraction(c).denominator for c in lc.values()))
    row: dict[int, int] = {}
    for t, c in lc.items():
        if t not in basis.index:
            raise ValueError(f"term outside the monomial slice: {t!r}")
        val = int(Fraction(c) * denom)
        if val:
            row[basis.index[t]] = val
    if not row:
        return True
    return not ech.reduce(row)
