"""n-ary bracket terms: parsing, ordering, weight/length arithmetic, and
sign canonicalization.

A term is either a generator x_k, represented by the positive int k, or a
bracket, represented by a tuple of exactly n terms.  Everything here is an
immutable value and every function is pure, so terms can be shared freely
and used as dict keys.

The grammar accepted by `parse` (and emitted by `format_term`) is

    term := "x" INT | "[" term ("," term)* "]"

with no whitespace.

Weights follow the grading of the lower central series: a generator has
weight 1 and a bracket of children with weights w_1..w_n has weight
sum(w_i) - (n - 2).  With this rule the length (number of generator
occurrences) of any weight-w term is `commutator_length(n, w)`.
"""

from __future__ import annotations

import itertools
from math import comb, log10, prod
from operator import gt, itemgetter
from typing import NamedTuple, Optional, Union

Term = Union[int, tuple]

LT, EQ, GT = -1, 0, 1

# The deepest term nlie takes: `parse` refuses a bracket opened inside
# MAX_DEPTH others.  Checking and keying a term (`_canonical`, `_walk`)
# still take one Python frame per level, so the bound sits below CPython's
# default recursion limit of 1000, with room for the caller's frames, and
# every supported Python answers alike.  That room is small: called from a
# stack already about 35 frames deep, `term_key`, `canonicalize` and
# `rewrite.collect` raise RecursionError on a 960-deep term that `parse`
# accepts (the CLI calls them from a shallow stack).
MAX_DEPTH = 960


class TermSyntaxError(ValueError):
    """Raised by `parse` with the offending position in the message."""


class ArityError(ValueError):
    """A bracket does not have exactly n children."""


def is_leaf(t: Term) -> bool:
    return isinstance(t, int)


def parse(text: str, n: int) -> Term:
    """Parse `text` into a term of arity n.  Round-trips with format_term.
    One loop over a stack of the open brackets' children, not recursion;
    a bracket opened inside MAX_DEPTH open ones is refused."""
    pos = 0
    end = len(text)
    stack: list = []  # the children read so far of each open bracket

    def err(msg):
        raise TermSyntaxError(f"{msg} at position {pos}")

    while True:
        if pos >= end:
            err("unexpected end of input")
        ch = text[pos]
        if ch == "[":
            if len(stack) == MAX_DEPTH:
                raise TermSyntaxError("term nested too deeply")
            stack.append([])
            pos += 1
            continue
        if ch != "x":
            err(f"unexpected character {ch!r}")
        pos += 1
        start = pos
        while pos < end and text[pos] in "0123456789":  # INT: ASCII digits only
            pos += 1
        if start == pos:
            err("expected generator index after 'x'")
        t = int(text[start:pos])
        if t < 1:
            err("generator index must be >= 1")
        # t is a whole term: close each bracket it completes
        while stack:
            stack[-1].append(t)
            if pos < end and text[pos] == ",":
                pos += 1
                break  # on to the next child
            if pos >= end or text[pos] != "]":
                err("expected ',' or ']'")
            pos += 1
            children = stack.pop()
            if len(children) != n:
                raise ArityError(f"bracket with {len(children)} children, expected {n}")
            t = tuple(children)
        else:
            if pos != end:
                err("trailing input")
            return t


def format_term(t: Term) -> str:
    """The text of t in the grammar above.  An explicit stack of subterms
    and punctuation, not recursion, so any term `parse` accepts prints."""
    out = []
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, tuple):
            out.append("[")
            # "]", then the children last to first with "," between them
            pending = [","] * (2 * len(u))
            pending[0] = "]"
            pending[1::2] = u[::-1]
            stack += pending
        elif isinstance(u, str):
            out.append(u)
        else:
            out.append(f"x{u}")
    return "".join(out)


def weight(t: Term, n: int) -> int:
    return term_key(t, n)[0]


def length(t: Term) -> int:
    if is_leaf(t):
        return 1
    total = 0
    for c in t:  # a loop, not map: one frame per level, no C call between levels
        total += length(c)
    return total


def commutator_length(n: int, w: int) -> int:
    """Length of every weight-w term in arity n: n + (w-2)(n-1), which is
    1 at w = 1."""
    return n + (w - 2) * (n - 1)


def _walk(t: Term, n: int, letters: list) -> tuple:
    """term_key(t, n), in the one walk of t that appends each letter of t
    to letters, and a 0 for each bracket that is not a tuple of n children
    whose keys strictly descend.  So t is a canonical term exactly when
    letters holds nothing below 1, and on d letters when nothing above d:
    what `is_canonical` checks, with no sort."""
    if isinstance(t, int):
        letters.append(t)
        return 1, 0, t
    if not isinstance(t, (tuple, list)):  # a one-letter str iterates to itself
        raise TypeError(f"not a term: {t!r}")
    keys = []
    for c in t:  # a loop, not map: one frame per level, no C call between levels
        keys.append(_walk(c, n, letters))
    if len(keys) != n or not isinstance(t, tuple) or not all(map(gt, keys, keys[1:])):
        letters.append(0)
    keys.reverse()
    return sum([k[0] for k in keys]) - (n - 2), 1, tuple(keys)


def _key_children(k) -> tuple:
    # a bracket's key holds its children's keys in reverse; a leaf's, none
    return k[2][::-1] if k[1] else ()


def term_key(t: Term, n: int):
    """A sort key realizing the term order: weight first, then generator
    index for leaves, then children compared right-to-left (recursively)
    for equal-weight brackets.  A key's first entry is the term's weight,
    so one pass over the tree computes both."""
    return _walk(t, n, [])


def compare(a: Term, b: Term, n: int) -> int:
    """Return LT/EQ/GT for the total term order."""
    ka, kb = term_key(a, n), term_key(b, n)
    if ka < kb:
        return LT
    if ka > kb:
        return GT
    return EQ


class SignedTerm(NamedTuple):
    sign: int  # -1, 0, +1
    term: Optional[Term]  # None iff sign == 0


def _slot(sibs, x) -> Optional[int]:
    """The place of x among the strictly descending `sibs`, how many of
    them are greater than x, or None if x equals one of them: the one step
    that orders a bracket's children, on term keys or on ids.  Put into a
    bracket's slot `pos`, x moves pos - place slots, and each move negates
    the bracket (skew-symmetry)."""
    for s in sibs:
        if s <= x:  # the first sibling not above x: its index counts those above
            return None if s == x else sibs.index(s)
    return len(sibs)


def _descending(xs):
    """(sign, descending, order) for the items xs, ints or term keys:
    `descending` holds them strictly descending, `order` lists their
    indices in that order, and the sign is that of the sort; (0, None,
    None) if two are equal.  Each item is put by `_slot` among those put
    before it, so the sign is that of the number of places items move."""
    descending, order, moves = [], [], 0
    for i, x in enumerate(xs):
        q = _slot(descending, x)
        if q is None:
            return 0, None, None
        descending.insert(q, x)
        order.insert(q, i)
        moves += i - q
    return (-1 if moves & 1 else 1), descending, order


def _bracket(keys, n: int):
    """The canonical bracket of canonical children whose term_keys are
    `keys`: (sign, order, term_key), or (0, None, None) if two keys are
    equal.  `order` lists the children's indices strictly descending, the
    sign is that of the sort, and the key holds the children's keys
    ascending, built from theirs with no walk of any child: the n keys
    put one at a time by `_descending`."""
    sign, keys, order = _descending(keys)
    if not sign:
        return 0, None, None
    keys.reverse()  # ascending, as a bracket's key holds them
    return sign, order, (sum([k[0] for k in keys]) - (n - 2), 1, tuple(keys))


def _canonical(t: Term, n: int):
    """(sign, canonical term, its term_key), or (0, None, None) if t
    vanishes.  Children's keys are reused for the parent's key.  Raises
    on a malformed term: ValueError on a leaf below 1, TypeError on a
    bracket that is not a tuple, ArityError on one of other than n
    children.  Every child is walked, also after one has vanished."""
    if is_leaf(t):
        if t < 1:
            raise ValueError(f"generator index must be >= 1, got {t}")
        return 1, t, (1, 0, t)
    if not isinstance(t, tuple):
        raise TypeError(f"not a term: {t!r}")
    if len(t) != n:
        raise ArityError(f"bracket with {len(t)} children, expected {n}")
    sign = 1
    kids = []
    keys = []
    for c in t:
        s, cc, k = _canonical(c, n)
        sign *= s
        kids.append(cc)
        keys.append(k)
    s, order, key = _bracket(keys, n) if sign else (0, None, None)
    if s == 0:
        return 0, None, None
    ordered = tuple([kids[i] for i in order])
    # a canonical t is returned itself, so results share canonical subterms
    return sign * s, (t if ordered == t else ordered), key


def canonicalize(t: Term, n: int) -> SignedTerm:
    """Sort the children of every bracket strictly descending, tracking the
    sign of the permutation; sign 0 means the term vanished (two equal
    children somewhere).  A malformed term raises, as in `_canonical`."""
    s, ct, _ = _canonical(t, n)
    return SignedTerm(s, ct)


def is_canonical(t: Term, n: int) -> bool:
    """Whether t is a well-formed term of arity n that `canonicalize`
    returns unchanged with sign 1; False on a malformed bracket, and
    TypeError on what is no term at all (a str, say)."""
    letters: list = []
    _walk(t, n, letters)
    return min(letters) >= 1


# ---------------------------------------------------------------------------
# Child tuples of canonical brackets, by weight profile.


def weight_multisets(total: int, parts: int, cap: int):
    """Non-increasing compositions of `total` into `parts` parts, each in
    [1, cap], in descending lexicographic order.  An explicit stack, not
    recursion, so any number of parts works.  A next part starts at
    ceil(rest / k), the least that can still be the largest of the k parts
    left, so no prefix is walked that ends nowhere, and a tail of k ones
    comes at once, not one part at a time."""
    stack = [((), total, parts, cap)]  # (prefix, rest of total, parts left, next cap)
    while stack:
        prefix, rest, k, top = stack.pop()
        if 0 < k == rest and top >= 1:
            yield prefix + (1,) * k
        elif k == 1:
            if 1 <= rest <= top:
                yield prefix + (rest,)
        elif k > 1:  # the smallest next part is pushed first, so popped last
            stack += [
                (prefix + (first,), rest - first, k - 1, first)
                for first in range(-(-rest // k), min(top, rest - (k - 1)) + 1)
            ]


def _child_profiles(n: int, v: int, kept):
    """The child weights of a weight-v bracket: non-increasing n-tuples of
    weights below v that sum to v + n - 2.  None above weight 2 when
    kept[2], the brackets a build keeps at weight 2 or their number, is
    empty: every bracket holds one of weight 2 (with d < n, from weight 2
    on a cell is empty)."""
    return weight_multisets(v + n - 2, n, v - 1) if v == 2 or kept[2] else ()


def _runs(ws: tuple) -> list:
    """(w, count) for each run of `count` equal weights w in ws."""
    return [(w, len(list(group))) for w, group in itertools.groupby(ws)]


def distinct_descending(ws: tuple, pools, sub=None):
    """All strictly descending child tuples whose weights are exactly `ws`
    (non-increasing), children drawn from pools[w] (each pool ascending in
    the term order).  Within a run of equal weights children are chosen as
    a strictly descending combination; across different weights descent
    is automatic.  `sub` is unused: this is `bracket_layers`' default."""
    per_run = []
    for w, count in _runs(ws):
        pool = pools[w]
        if len(pool) < count:
            return
        per_run.append(
            [tuple(reversed(c)) for c in itertools.combinations(pool, count)]
        )
    for pick in itertools.product(*per_run):
        yield tuple(itertools.chain.from_iterable(pick))


def bracket_layers(n: int, d: int, w: int, children=distinct_descending):
    """The canonical nonzero brackets of weights 2..w on d letters: per
    weight, the list of their strictly descending child-id tuples, sorted
    by child ids read right to left (the term order on equal weights).
    Generator k has id k-1; each list takes the next ids in its order.
    A weight is ordered by n stable sorts of its list in place, on child
    0, then child 1, and last on child n-1, so child n-1 leads and each
    earlier child breaks the ties left by the later ones; no key tuple is
    made per bracket.

    Weight v keeps what children(ws, pools, sub) yields for each child
    weight profile ws: strictly descending tuples, each once, child j from
    pools[ws[j]] (the ids kept at that weight), where sub(i) is the child
    ids of id i, () for a generator.  The default yields them all; a
    source that yields fewer builds only those (`nlie.basis`)."""
    kids = [()] * d
    sub = kids.__getitem__
    pools = {1: range(d)}
    for v in range(2, w + 1):
        found = []
        for ws in _child_profiles(n, v, pools):
            found += children(ws, pools, sub)
        for j in range(n):
            found.sort(key=itemgetter(j))
        pools[v] = range(len(kids), len(kids) + len(found))
        kids += found
        yield found


def layer_items(d: int, layers, text: bool = False):
    """The terms, or with `text` their `format_term` texts, of the top
    weight of `layers`, a `bracket_layers` build on d letters: the lower
    weights are made and kept as the build is read, each item once from
    its children's, and the top weight's are made as they are read.  With
    no layer, the generators."""
    out = [f"x{k}" for k in range(1, d + 1)] if text else list(range(1, d + 1))
    get = out.__getitem__  # out[i]: the term or text of id i

    def items(found):
        return (f"[{','.join(map(get, i))}]" if text else tuple(map(get, i)) for i in found)

    top = None
    for found in layers:
        if top is not None:
            out += items(top)
        top = found
    return iter(out) if top is None else items(top)


def bracket_counts(n: int, d: int, w: int) -> list:
    """counts[v] = the number of brackets `bracket_layers(n, d, w)`
    builds at weight v, for v = 1..w (counts[0] is 0), without building
    them.  It walks the build's `_child_profiles`: a run of k equal child
    weights u contributes the C(counts[u], k) strictly descending picks."""
    counts = [0, d]
    for v in range(2, w + 1):
        counts.append(
            sum(
                prod(comb(counts[u], k) for u, k in _runs(ws))
                for ws in _child_profiles(n, v, counts)
            )
        )
    return counts


def _int_text(v: int) -> str:
    """str(v) for a bound message, or v's digit count where v has more
    digits than Python's int-to-str limit lets str print."""
    try:
        return str(v)
    except ValueError:
        digits = int(abs(v).bit_length() * log10(2)) + 1  # this or one more
        digits -= 10 ** (digits - 1) > abs(v)
        return f"<a {digits}-digit number>"


def _cell_text(n: int, d: int, w: int) -> str:
    """The cell as a bound message names it, "(n=.., d=.., w=..)", each
    number by `_int_text`."""
    return f"(n={_int_text(n)}, d={_int_text(d)}, w={_int_text(w)})"


def _check_cell(n: int, d: int, w: int) -> None:
    """The one check of a cell that the oracle and the enumerator count:
    ValueError unless n >= 2, d >= 1 and w >= 1."""
    if n < 2 or d < 1 or w < 1:
        raise ValueError(f"bad instance {_cell_text(n, d, w)}")


# ---------------------------------------------------------------------------
# Linear combinations: plain dicts mapping canonical terms to exact rationals.
# No zero coefficients are ever stored.


def lc_add(lc: dict, t: Term, coeff) -> None:
    """Accumulate coeff * t into lc in place, dropping zeros."""
    c = lc.get(t, 0) + coeff
    if c == 0:
        lc.pop(t, None)
    else:
        lc[t] = c


def lc_merge(lc: dict, other: dict, scale=1) -> None:
    for t, c in other.items():
        lc_add(lc, t, c * scale)


def lc_from_term(t: Term, n: int, coeff=1) -> dict:
    """Canonicalize t and return it as a one-term combination (or {}).
    Raises what `canonicalize` raises on a malformed term."""
    from fractions import Fraction  # here, so an enumeration never loads it

    s, ct = canonicalize(t, n)
    if s == 0 or coeff == 0:
        return {}
    return {ct: Fraction(coeff) * s}


def lc_format(lc: dict, n: int) -> str:
    """Render a combination as e.g. '-1*[x3,x2,x1] +1/2*[x2,x1,...]'.
    The empty combination renders as '0'."""
    from fractions import Fraction

    if not lc:
        return "0"
    parts = []
    for t in sorted(lc, key=lambda u: term_key(u, n)):
        c = lc[t]
        sign = "+" if c > 0 else "-"
        parts.append(f"{sign}{abs(Fraction(c))}*{format_term(t)}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# The one bound of the tables kept across calls: `oracle.membership`'s memos
# of normal forms and `rewrite._shared_terms`' brackets (a rewrite-corpus pass
# needs about 780).

_TABLE_ENTRIES = 1 << 13


def _room(table: dict, used: int, room: int) -> bool:
    """Whether a kept table, which holds `used` entries, may take up to
    `room` more: False when `room` alone could pass _TABLE_ENTRIES, and
    the caller takes a fresh dict; else True, with the table emptied
    first if `used + room` could pass the bound."""
    fits = room <= _TABLE_ENTRIES
    if fits and used + room > _TABLE_ENTRIES:
        table.clear()  # full
    return fits
