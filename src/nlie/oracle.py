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

Every cell (n, d, w) is one `_Cell`, kept in a module-level dict behind
`_cell`: its one `terms.canonical_brackets` build and the slice index
(term -> column), with the content blocks that give its rank built on
first use.  Each entry point sizes the slice against the ceiling first,
by `terms.bracket_counts` for a cell not yet built and from the index of
a cached one, so a refused cell is never built, and a cached one is
still refused under a smaller ceiling.

Rows are generated on the integer ids of the cell's build, which compare
as terms do.  Contexts come from the same build: each is the tuple of
sibling-id tuples on the path from the hole to the root.  The Jacobi
element of each (M, Y) is canonicalized once; plugging it into a context
re-sorts only the brackets on that path, each by inserting one id among
siblings that are already sorted.  Terms appear only at the API boundary:
`graded_monomials` lists the slice, and `membership` maps a combination
of terms onto its columns.

Content blocks.  Every term of an instance has the same letter content
(the number of occurrences of each generator), so the relations split
into one block per content, the fine grading of the free Lie algebra
(Reutenauer, Free Lie Algebras, 1993).  Permuting the letters maps a
block onto the block of the permuted content, relations onto relations,
so only one block per partition lam of the commutator length into at
most d parts is built: the one whose content is lam itself, sorted
non-increasing.  Its rows come from pools cut to the ids of content
<= lam, with the contexts of the cell built once and indexed by the
content of their siblings.  Then

    dim = sum over lam of (|block lam| - rank lam) * d! / prod(mult!),

where mult counts the equal parts of lam, zeros included.  At n = 2 a
block generates only the instances with y < m_2 < m_1: after
skew-symmetry J(a, b, c) = [[a,b],c] - [[a,c],b] - [a,[b,c]] is the cyclic
sum [[a,b],c] + [[b,c],a] + [[c,a],b], which is alternating, so a
permuted triple gives plus or minus the same element and a triple with a
repeat gives 0.  For n >= 3 every instance is kept.  `relation_rows`
uses the same generator with no content budget: every row of the slice,
in the order generated.

The graded dimension is |monomials| - rank(instances), with rank computed
by exact integer fraction-free elimination.  No floating point, no modular
shortcuts.  The echelon pivots on each row's largest column, which limits
fill-in in the spirit of Markowitz (1957) and of the structured Gaussian
elimination of LaMacchia and Odlyzko (1990), and updates the row being
reduced in place; a reduced row is normalized (divided by the gcd of its
entries, positive at its largest column).  A block's rows are fed in
ascending order of their largest column, so most rows meet few pivots.
"""

from __future__ import annotations

import os
import warnings
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import factorial, gcd, lcm
from typing import NamedTuple, Optional

from .terms import (
    bracket_counts,
    canonical_brackets,
    canonicalize,
    commutator_length,
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


_CELLS: dict = {}  # (n, d, w) -> its _Cell, for every cell built


def _cell(n: int, d: int, w: int) -> _Cell:
    """The cell's `_Cell`, built on first use and kept."""
    cell = _CELLS.get((n, d, w))
    if cell is None:
        cell = _CELLS[n, d, w] = _Cell(n, d, w)
    return cell


def _slice_size(n: int, d: int, w: int, ceiling: int) -> int:
    """The number of weight-w monomials, from the index of a cached cell,
    else counted without a build.  Raises ValueError on a bad instance and
    InstanceCeilingExceeded when the size is above `ceiling`."""
    if n < 2 or d < 1 or w < 1:
        raise ValueError(f"bad instance (n={n}, d={d}, w={w})")
    cell = _CELLS.get((n, d, w))
    size = bracket_counts(n, d, w)[w] if cell is None else len(cell.index)
    if size > ceiling:
        raise InstanceCeilingExceeded(
            f"{size} monomials at (n={n}, d={d}, w={w}) exceeds ceiling {ceiling}"
        )
    return size


def graded_monomials(
    n: int, d: int, w: int, ceiling: int = DEFAULT_CEILING
) -> MonomialBasis:
    _slice_size(n, d, w, ceiling)
    index = _cell(n, d, w).index
    return MonomialBasis(n, d, w, list(index), dict(index))


def _contexts(n: int, w: int, v: int, pools, content) -> list:
    """Monomials of weight w with one hole standing for a weight-v
    subterm, as (sibling content, spine) pairs.  A spine is the strictly
    descending sibling-id tuples of the brackets on the hole's path, from
    the hole to the root; the hole is the first child of each.  Sibling
    ids are drawn from `pools` (weight -> ids), and the sibling content is
    the packed letter content of all of them (`content`: id -> content)."""
    if w == v:
        return [(0, ())]
    out = []
    for sub_w in range(v, w):
        sib_total = w + n - 2 - sub_w  # >= n - 1, as sub_w < w
        subs = _contexts(n, sub_w, v, pools, content)
        for sibs in _choices(sib_total, n - 1, pools):
            c = sum(map(content.__getitem__, sibs))
            for sub_c, sub in subs:
                out.append((sub_c + c, sub + (sibs,)))
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


class _Cell:
    """All the oracle keeps of one cell: the tables of its one
    `canonical_brackets` build, which its relation rows are generated
    from; the slice index, each weight-w term mapped to its column
    (ascending); and, built on first use, the content blocks that give its
    rank.

    A letter content (occurrences of each generator) is packed into one
    int, `width` bits per letter with letter 1 lowest, so the content of
    a bracket is the sum of its children's.  The top bit of each field is
    a guard: a field holds at most the commutator length L < 2**(width-1),
    so c <= lam letter by letter iff ((lam | guard) - c) & guard == guard,
    and lam - c is a content only when c <= lam."""

    def __init__(self, n: int, d: int, w: int):
        terms, self.base, self.bracket = canonical_brackets(n, d, w)
        self.n, self.d, self.w = n, d, w
        self.columns = list(range(len(terms) - self.base[w]))  # one int per column, shared
        self.index = dict(zip(terms[self.base[w] :], self.columns))
        self.width = commutator_length(n, w).bit_length() + 1
        self.guard = sum(1 << (self.width * k + self.width - 1) for k in range(d))
        content = [1 << (self.width * k) for k in range(d)]
        shared: dict = {}  # one int object per distinct content
        for ids in self.bracket:  # in id order, children first
            c = sum(map(content.__getitem__, ids))
            content.append(shared.setdefault(c, c))
        self.content = content
        self.pools = {v: range(self.base[v], self.base[v + 1]) for v in range(1, w + 1)}

    def unpack(self, c: int) -> list:
        mask = (1 << self.width) - 1
        return [c >> (self.width * k) & mask for k in range(self.d)]

    def rows(self, spines: dict, lam: Optional[int] = None):
        """Yield the nonzero relation rows, in order, on slice columns (id
        minus base[w]).  With no content budget (lam None), every row of the
        slice, spines[v] listing the spines of hole weight v.  With a packed
        content lam, the rows of that block, drawn from pools cut to ids of
        content <= lam, spines[v] mapping each sibling content to its
        spines, and at n = 2 only from the instances with y < m_2 (see the
        module docstring)."""
        n, w, bracket, content, guard = self.n, self.w, self.bracket, self.content, self.guard
        first, columns = self.base[w], self.columns
        if lam is None:
            pools = self.pools
        else:
            top = lam | guard
            pools = {
                v: [i for i in self.pools[v] if (top - content[i]) & guard == guard]
                for v in range(1, w)
            }
        pairwise = lam is not None and n == 2
        for v in range(2, w + 1):
            ctx = by = spines[v]  # with lam, by sibling content
            # all (M, Y) with weight([[M], Y]) == v
            for wb in range(2, v):
                y_choices = [
                    (ys, sum(map(content.__getitem__, ys)))
                    for ys in _choices(v - wb + n - 2, n - 1, pools)
                ]
                for ms in _choices(wb + n - 2, n, pools):
                    if lam is not None:
                        cm = sum(map(content.__getitem__, ms))
                        if (top - cm) & guard != guard:
                            continue
                    for ys, cy in y_choices:
                        if lam is not None:
                            if pairwise and ys[0] >= ms[1]:
                                break  # ids ascend in y_choices at n = 2
                            ctx = by.get(lam - cm - cy)
                            if ctx is None:
                                continue
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
                        for spine in ctx:
                            row: dict[int, int] = {}
                            for tid, coeff in element.items():
                                for sibs in spine:
                                    hit = _put(bracket, coeff, 0, tid, sibs)
                                    if hit is None:
                                        break
                                    coeff, tid = hit
                                else:
                                    row[columns[tid - first]] = coeff
                            if row:
                                yield row

    @cached_property
    def blocks(self) -> dict:
        """The cell's relations: a `_Block` per nonempty content block of
        the slice, keyed by its content lam where lam is sorted (a
        non-increasing d-tuple).  Built on first use, so once whatever
        ceilings ask for the cell: callers check their ceiling first, with
        _slice_size.  A block's rows are fed in ascending order of their
        largest column; the sort is stable, so a repeated or scaled row
        follows its first copy and reduces to 0."""
        n, w = self.n, self.w
        spines: dict = {}  # v -> sibling content -> spines, once for all the blocks
        for v in range(2, w + 1):
            spines[v] = by = {}
            for c, spine in _contexts(n, w, v, self.pools, self.content):
                by.setdefault(c, []).append(spine)
        slice_ids: dict = {}  # packed content -> its slice ids, ascending
        for i in self.pools[w]:
            slice_ids.setdefault(self.content[i], []).append(i)
        blocks = {}
        for packed, ids in slice_ids.items():
            lam = self.unpack(packed)
            if lam == sorted(lam, reverse=True):
                ech = _Echelon()
                for row in sorted(self.rows(spines, packed), key=max):
                    ech.insert(row)
                blocks[tuple(lam)] = _Block(ids, ech)
        return blocks

    @property
    def rank(self) -> int:
        """The rank of the slice's relations: sum of rank x arrangements."""
        return sum(b.echelon.rank * _arrangements(lam) for lam, b in self.blocks.items())


def relation_rows(
    n: int, d: int, w: int, ceiling: int = DEFAULT_CEILING
) -> RelationMatrix:
    _slice_size(n, d, w, ceiling)  # refuse the cell before any build
    cell = _cell(n, d, w)
    spines = {
        v: [spine for _, spine in _contexts(n, w, v, cell.pools, cell.content)]
        for v in range(2, w + 1)
    }
    rows = list(cell.rows(spines))
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


class _Block(NamedTuple):
    ids: list  # the block's slice ids, ascending: id i is column i - base[w]
    echelon: _Echelon


def _arrangements(lam: tuple) -> int:
    """The number of distinct contents that permute the letters of lam
    (zeros included): d! / prod(mult!)."""
    out = factorial(len(lam))
    for mult in Counter(lam).values():
        out //= factorial(mult)
    return out


def graded_dimension(
    n: int,
    d: int,
    w: int,
    ceiling: int = DEFAULT_CEILING,
) -> int:
    """dim F^w / F^(w+1) on d generators: |monomials| - rank(relations).

    If the environment variable NLIE_ORACLE_CACHE names a directory,
    computed cells are stored there as one JSON record per cell: {n, d, w,
    basis_size, rank, dim}.  A readable record of the same cell is
    authoritative; an unreadable one, or one naming another cell, is
    reported with a warning, recomputed and rewritten.  A record is read
    only once the cell has passed the instance check and the ceiling."""
    _slice_size(n, d, w, ceiling)  # refuse the cell before any build or read
    cache_dir = os.environ.get(CACHE_ENV_VAR)
    cache_path = None
    if cache_dir:
        cache_path = os.path.join(cache_dir, f"cell_n{n}_d{d}_w{w}.json")
        dim = _read_cell(cache_path, n, d, w)
        if dim is not None:
            return dim
    rank = _cell(n, d, w).rank
    size = len(graded_monomials(n, d, w, ceiling=ceiling).monomials)
    dim = size - rank
    if cache_path:
        os.makedirs(cache_dir, exist_ok=True)
        rec = {
            "n": n,
            "d": d,
            "w": w,
            "basis_size": size,
            "rank": rank,
            "dim": dim,
        }
        _write_cell(cache_path, rec)
    return dim


def _read_cell(path: str, n: int, d: int, w: int) -> Optional[int]:
    """The dim of a cell record, or None when there is no usable record
    (with a warning when a bad one is there)."""
    import json  # only the cell cache needs it; it slows a cold import
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
    import json
    import tempfile  # only a cache write needs them; they slow a cold import

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


def _relabel(t, letters: dict):
    """t with each generator k replaced by letters[k]."""
    if isinstance(t, int):
        return letters[t]
    return tuple(map(_relabel, t, repeat(letters)))  # one frame per level


def membership(
    lc: dict, n: int, d: int, ceiling: int = DEFAULT_CEILING
) -> bool:
    """Whether the combination lies in the relation span of its graded
    component.  All terms must share one weight; the empty combination is
    trivially a member.

    Each content part of the combination is reduced in the echelon of its
    block, on slice columns.  A part whose content is not sorted first has
    the letters of its terms relabeled so that it is, each term then
    canonicalized by `terms.canonicalize`, whose sign scales its
    coefficient: relabeling is an automorphism of the free algebra, so it
    maps the relations of one block onto those of the other."""
    if not lc:
        return True
    weights = {weight(t, n) for t in lc}
    if len(weights) != 1:
        raise ValueError(f"mixed-weight combination: weights {sorted(weights)}")
    w = weights.pop()
    _slice_size(n, d, w, ceiling)  # refuse the cell before any build
    cell = _cell(n, d, w)
    # clear denominators to an integer vector
    denom = lcm(*(Fraction(c).denominator for c in lc.values()))
    parts: dict = {}  # packed content -> {term: integer coefficient}
    for t, c in lc.items():
        col = cell.index.get(t)
        if col is None:
            raise ValueError(f"term outside the monomial slice: {t!r}")
        val = int(Fraction(c) * denom)
        if val:
            parts.setdefault(cell.content[cell.base[w] + col], {})[t] = val
    for content, part in parts.items():
        counts = cell.unpack(content)
        order = sorted(range(1, d + 1), key=lambda g: -counts[g - 1])  # by falling count
        block = cell.blocks[tuple(counts[g - 1] for g in order)]
        letters = {g: k for k, g in enumerate(order, 1)}  # generator order[k - 1] becomes k
        row = {}
        for t, val in part.items():
            s, t = canonicalize(_relabel(t, letters), n)
            row[cell.index[t]] = s * val
        if block.echelon.reduce(row):
            return False
    return True
