"""Ground-truth graded dimensions of the free n-Lie algebra.

The free n-Lie algebra is F = A/I: A is spanned by the canonical nonzero
bracket monomials (skew-symmetry is folded into canonicalization), and I
by the generalized-Jacobi instances, in every context,

    J(M; Y) = [[m_1,...,m_n], y_2,...,y_n] - sum_i [m_1,...,[m_i, y_2,...,y_n],...,m_n].

`_Tower` builds F_1..F_w of a cell one weight at a time, as
nilpotent-quotient algorithms build a graded Lie algebra (de Graaf, Lie
Algebras: Theory and Algorithms, 2000).  F_1 is spanned by the
generators.  The weight-v columns are the canonical brackets of lower
*standard* ids, the non-pivot columns of their weight's echelon, which
are a basis of their F_u.  The rows are the root instances J(M; Y) on
standard m_i and y_j, each inner bracket [M] and [m_i, Y] replaced by its
normal form.  A fully reduced echelon of the rows gives the standard ids
of weight v and the normal form of each pivot column: minus the rest of
its row over its entry.  That suffices: modulo I below weight v, a
weight-v monomial is a bracket of elements of F_{<v}, a combination of
columns; an instance in a deeper context lies in that lower part; and J
is multilinear, and alternating in M and in Y, so its instances on
standard ids, M and Y strictly descending, span the rest.  At n = 2 only
y < m_2 < m_1 is generated: after skew-symmetry J(a, b, c) is the cyclic
sum [[a,b],c] + [[b,c],a] + [[c,a],b], which is alternating.

Every term of an instance has the same letter content, and permuting the
letters is an automorphism.  So the top weight w builds only columns and
rows of sorted (non-increasing) content, and dim F_w sums d! / prod(mult!)
over its standard ids, mult counting the equal parts of the id's content,
zeros included.  Everything is exact: a normal form is an integer row over
a denominator, and a row clears its parts' denominators with their lcm.
Rows are fed in ascending order of their largest column, where each pivot
sits, which limits fill-in.

The tower is the only state the oracle keeps: one per cell (n, d, w),
built on first use by `graded_dimension` or `membership`.  Each entry
point sizes the slice against the ceiling first, by
`terms.bracket_counts`, so a refused cell is never built.
`graded_monomials` and `relation_rows` run `terms.bracket_layers` once
per call, name its slice with `terms.layer_items` and keep nothing;
`relation_rows` lists every instance of the slice, at every hole
position: the reference the tower is tested on.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import cache
from itertools import product
from math import factorial, gcd, lcm, prod
from typing import NamedTuple, Optional

from .terms import (
    _walk,
    bracket_counts,
    bracket_layers,
    commutator_length,
    distinct_descending,
    layer_items,
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


def _slice_size(n: int, d: int, w: int, ceiling: int) -> int:
    """The number of weight-w monomials, counted without a build.  Raises
    ValueError on a bad instance and InstanceCeilingExceeded when the size
    is above `ceiling`."""
    if n < 2 or d < 1 or w < 1:
        raise ValueError(f"bad instance (n={n}, d={d}, w={w})")
    size = bracket_counts(n, d, w)[w]
    if size > ceiling:
        raise InstanceCeilingExceeded(
            f"{size} monomials at (n={n}, d={d}, w={w}) exceeds ceiling {ceiling}"
        )
    return size


def graded_monomials(
    n: int, d: int, w: int, ceiling: int = DEFAULT_CEILING
) -> MonomialBasis:
    _slice_size(n, d, w, ceiling)  # refuse the cell before any build
    return MonomialBasis(n, d, w, list(layer_items(d, bracket_layers(n, d, w))))


def _contexts(n: int, w: int, v: int, pools) -> list:
    """Monomials of weight w with one hole, the first child of each bracket
    on its path, standing for a weight-v subterm, as spines: the sibling-id
    tuples on that path from the hole up, each drawn from `pools`."""
    if w == v:
        return [()]
    out = []
    for sub_w in range(v, w):
        subs = _contexts(n, sub_w, v, pools)
        for sibs in _choices(w + n - 2 - sub_w, n - 1, pools):  # >= n - 1, as sub_w < w
            out += [sub + (sibs,) for sub in subs]
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


def _combine(parts) -> tuple:
    """(scale, {id: coeff}): scale, the lcm of the parts' denominators, times
    the sum of the parts (den, hits), each the sum of its (coeff, id) hits,
    None skipped, over den.  No zero is kept."""
    scale = lcm(*(den for den, _ in parts))
    out: dict[int, int] = {}
    for den, hits in parts:
        f = scale // den
        for hit in filter(None, hits):
            out[hit[1]] = out.get(hit[1], 0) + f * hit[0]
    return scale, {k: c for k, c in out.items() if c}


def _instance(bracket: dict, ms: tuple, ys: tuple, form) -> dict:
    """J(M; Y) = [[M], Y] - sum_i [m_1,..,[m_i, Y],..,m_n], times a
    denominator, as {id: integer coeff}, for strictly descending ids ms and
    ys, each inner bracket replaced by form(its id): (den, ids, coeffs)."""
    den, ids, coeffs = form(bracket[ms])
    parts = [(den, [_put(bracket, c, 0, k, ys) for k, c in zip(ids, coeffs)])]
    for i, m in enumerate(ms):
        inner = _put(bracket, -1, 0, m, ys)
        if inner is not None:
            den, ids, coeffs = form(inner[1])
            rest = ms[:i] + ms[i + 1 :]
            hits = [_put(bracket, inner[0] * c, i, k, rest) for k, c in zip(ids, coeffs)]
            parts.append((den, hits))
    return _combine(parts)[1]


def _unit(i: int) -> tuple:
    """The form of a column that stands for itself."""
    return 1, (i,), (1,)


def _slice_rows(n: int, d: int, w: int, layers: list):
    """Yield every nonzero relation row of the weight-w slice, in order, on
    slice columns: the ids of `layers`, the `bracket_layers(n, d, w)`
    build, minus the first weight-w id."""
    pools = {1: range(d)}
    bracket: dict = {}  # child ids -> the bracket's id
    for v, found in enumerate(layers, 2):
        pools[v] = range(d + len(bracket), d + len(bracket) + len(found))
        bracket.update(zip(found, pools[v]))
    first = pools[w].start
    for v in range(2, w + 1):
        spines = _contexts(n, w, v, pools)
        for wb in range(2, v):  # all (M, Y) with weight([[M], Y]) == v
            y_choices = _choices(v - wb + n - 2, n - 1, pools)
            for ms in _choices(wb + n - 2, n, pools):
                for ys in y_choices:
                    element = _instance(bracket, ms, ys, _unit)
                    for spine in spines:
                        row: dict[int, int] = {}
                        for tid, coeff in element.items():
                            for sibs in spine:
                                hit = _put(bracket, coeff, 0, tid, sibs)
                                if hit is None:
                                    break
                                coeff, tid = hit
                            else:
                                row[tid - first] = coeff
                        if row:
                            yield row


def relation_rows(
    n: int, d: int, w: int, ceiling: int = DEFAULT_CEILING
) -> RelationMatrix:
    _slice_size(n, d, w, ceiling)  # refuse the cell before any build
    layers = list(bracket_layers(n, d, w))
    rows = list(_slice_rows(n, d, w, layers))
    return RelationMatrix(MonomialBasis(n, d, w, list(layer_items(d, layers))), rows)


def _normalize(row: dict[int, int]) -> dict[int, int]:
    """row divided by the gcd of its entries, signed so that the entry at
    its largest column is positive."""
    g = gcd(*row.values())
    if row[max(row)] < 0:
        g = -g
    return row if g == 1 else {k: c // g for k, c in row.items()}


def _eliminate(row: dict[int, int], piv: dict[int, int], k: int) -> dict[int, int]:
    """a * row - b * piv, where a and b are piv[k] > 0 and row[k] over their
    gcd: row with column k cleared, as a new row."""
    g = gcd(piv[k], row[k])
    a, b = piv[k] // g, row[k] // g
    out = dict(row) if a == 1 else {c: a * x for c, x in row.items()}
    for c, x in piv.items():
        x = out.get(c, 0) - b * x
        if x:
            out[c] = x
        else:
            del out[c]
    return out


class _Echelon:
    """Incremental exact integer row reduction, kept fully reduced.
    pivots[col] is a row whose largest column is col, positive there, with
    entries of gcd 1 and no other pivot's column; holders[col] is the set
    of the pivots whose rows hold the non-pivot column col."""

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}
        self.holders: dict[int, set] = {}

    def insert(self, row: dict[int, int]) -> bool:
        """Reduce row; unless it reduces to 0, make it the pivot of its largest
        column, cleared from the other pivots.  True if the rank grew."""
        pivots, holders = self.pivots, self.holders
        for k in [k for k in row if k in pivots]:
            row = _eliminate(row, pivots[k], k)  # adds only non-pivot columns
        if not row:
            return False
        row = _normalize(row)
        lead = max(row)
        for h in holders.pop(lead, ()):
            old = pivots[h]
            new = pivots[h] = _normalize(_eliminate(old, row, lead))
            for k in old.keys() - new.keys() - {lead}:
                holders[k].discard(h)
            for k in new.keys() - old.keys():
                holders.setdefault(k, set()).add(h)
        pivots[lead] = row
        for k in row.keys() - {lead}:
            holders.setdefault(k, set()).add(lead)
        return True


class _Counts(dict):
    """Packed content -> its letter counts if non-increasing, else (), on
    first lookup.  A content packs `width` bits per letter, letter 1
    lowest, so a bracket's content is the sum of its children's."""

    def __init__(self, d: int, width: int):
        self.d, self.width = d, width

    def __missing__(self, c: int) -> tuple:
        mask = (1 << self.width) - 1
        lam = [c >> (self.width * k) & mask for k in range(self.d)]
        self[c] = out = tuple(lam) if lam == sorted(lam, reverse=True) else ()
        return out


class _Tower:
    """F_1..F_w of one cell (see the module docstring), on the ids of
    `bracket_layers`: bracket maps child ids to a column's id, content[id]
    is its packed content, standard[v] lists the standard ids of weight v,
    and forms[id] is each column's normal form (den, ids, coeffs), the sum
    of coeffs times standard ids over den."""

    def __init__(self, n: int, d: int, w: int):
        self.n, self.w = n, w
        self.counts = _Counts(d, commutator_length(n, w).bit_length())
        self.content = [1 << (self.counts.width * k) for k in range(d)]
        self.standard: dict = {1: range(d)}
        self.bracket: dict = {}
        self.forms = {i: _unit(i) for i in range(d)}
        for v, found in enumerate(bracket_layers(n, d, w, self._children), 2):
            ids = range(len(self.content), len(self.content) + len(found))
            self.bracket.update(zip(found, ids))
            self.content += [sum(map(self.content.__getitem__, kids)) for kids in found]
            ech = _Echelon()
            for row in sorted(self.rows(v), key=max):
                ech.insert(row)
            self.standard[v] = [i for i in ids if i not in ech.pivots]
            self.forms.update((i, _unit(i)) for i in self.standard[v])
            for i, piv in ech.pivots.items():  # minus the rest of its row over its entry
                rest = [k for k in piv if k != i]
                self.forms[i] = piv[i], tuple(rest), tuple(-piv[k] for k in rest)
        lams = [self.counts[self.content[i]] for i in self.standard[w]]
        self.dim = sum(_arrangements(lam) for lam in lams if lam)  # () when not sorted

    def _children(self, ws: tuple, pools, sub):
        """`bracket_layers`' children source: strictly descending tuples of
        standard ids, at the top weight only those of sorted content."""
        picks = distinct_descending(ws, self.standard)
        if sum(ws) - (self.n - 2) < self.w:
            return picks
        return [ids for ids in picks if self.counts[sum(map(self.content.__getitem__, ids))]]

    def rows(self, v: int):
        """Yield the nonzero rows of weight v: the root instances J(M; Y) on
        standard ids with weight([[M], Y]) == v, at the top weight only those
        of sorted content, and at n = 2 only those with y < m_2."""
        n, content, standard, bracket = self.n, self.content, self.standard, self.bracket
        counts = self.counts if v == self.w else None
        for wb in range(2, v):
            y_choices = [
                (ys, sum(map(content.__getitem__, ys)))
                for ys in _choices(v - wb + n - 2, n - 1, standard)
            ]
            for ms in _choices(wb + n - 2, n, standard):
                cm = sum(map(content.__getitem__, ms))
                for ys, cy in y_choices:
                    if n == 2 and ys[0] >= ms[1]:
                        break  # ids ascend in y_choices at n = 2
                    if counts is None or counts[cm + cy]:
                        row = _instance(bracket, ms, ys, self.forms.__getitem__)
                        if row:
                            yield row

    def normal_form(self, t, letters: dict, memo: dict) -> tuple:
        """(den, row): term t, generator g read as id letters[g], is row over
        den, on standard ids.  Every pick of one id from each child's row is
        multiplied out: a pick of distinct ids is sorted, with the sign of
        the sort, into its bracket's form.  memo keeps forms under this
        letter map."""
        if isinstance(t, int):
            return 1, {letters[t]: 1}
        out = memo.get(t)
        if out is None:
            kids = [self.normal_form(c, letters, memo) for c in t]
            parts = []
            for pick in product(*(row.items() for _, row in kids)):
                ids = [k for k, _ in pick]
                if len(set(ids)) == len(ids):  # else the bracket vanishes
                    flips = sum(a < b for i, a in enumerate(ids) for b in ids[i + 1 :])
                    f = (-1) ** flips * prod(c for _, c in pick)
                    den, cols, xs = self.forms[self.bracket[tuple(sorted(ids, reverse=True))]]
                    parts.append((den, [(f * x, k) for k, x in zip(cols, xs)]))
            den, row = _combine(parts)
            den *= prod(den for den, _ in kids)
            g = gcd(den, *row.values())
            out = memo[t] = den // g, {k: c // g for k, c in row.items()}
        return out


# (n, d, w) -> its tower, built once whatever ceilings ask for the cell:
# callers check theirs first, with _slice_size
_tower = cache(_Tower)


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
    """dim F^w / F^(w+1) on d generators: the arrangements of the sorted
    contents of the tower's standard ids of weight w, summed.  The tower is
    kept; the slice is listed first, for basis_size and rank = basis_size -
    dim, and freed before the tower is built.

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
    size = len(graded_monomials(n, d, w, ceiling=ceiling).monomials)
    dim = _tower(n, d, w).dim
    if cache_path:
        os.makedirs(cache_dir, exist_ok=True)
        rec = {
            "n": n,
            "d": d,
            "w": w,
            "basis_size": size,
            "rank": size - dim,
            "dim": dim,
        }
        _write_cell(cache_path, rec)
    return dim


def _read_cell(path: str, n: int, d: int, w: int) -> Optional[int]:
    """The dim of a cell record, or None when there is no usable record
    (with a warning when a bad one is there)."""
    import json  # only the cell cache needs json and warnings
    import warnings

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


def membership(
    lc: dict, n: int, d: int, ceiling: int = DEFAULT_CEILING
) -> bool:
    """Whether the combination lies in the relation span of its graded
    component, that is, whether its normal form is 0.  Its terms must be
    monomials of one slice; the empty combination is trivially a member.
    Each content part is taken to its sorted content by relabeling its
    letters, an automorphism: each term's normal form in the tower reads
    the letters mapped at its leaves."""
    from fractions import Fraction

    if not lc:
        return True
    walked = []  # (term, coefficient, the letters _walk lists)
    weights = set()
    for t, c in lc.items():
        leaves: list = []
        weights.add(_walk(t, n, leaves)[0])
        walked.append((t, c, leaves))
    if len(weights) != 1:
        raise ValueError(f"mixed-weight combination: weights {sorted(weights)}")
    w = weights.pop()
    _slice_size(n, d, w, ceiling)  # refuse the cell before any build
    # clear denominators to an integer vector
    denom = lcm(*(Fraction(c).denominator for c in lc.values()))
    parts: dict = {}  # sorted letters -> {term: integer coefficient}
    for t, c, leaves in walked:
        if min(leaves) < 1 or max(leaves) > d:
            raise ValueError(f"term outside the monomial slice: {t!r}")
        val = int(Fraction(c) * denom)
        if val:
            parts.setdefault(tuple(sorted(leaves)), {})[t] = val
    tower = _tower(n, d, w)
    for content, part in parts.items():
        counts = Counter(content)
        order = sorted(range(1, d + 1), key=lambda g: -counts[g])  # by falling count
        letters = {g: k for k, g in enumerate(order)}  # generator order[k] becomes id k
        memo: dict = {}
        forms = [(tower.normal_form(t, letters, memo), val) for t, val in part.items()]
        sums = [(den, [(val * c, k) for k, c in row.items()]) for (den, row), val in forms]
        if _combine(sums)[1]:
            return False
    return True
