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
from fractions import Fraction
from math import comb, prod
from operator import itemgetter
from typing import NamedTuple, Optional, Union

Term = Union[int, tuple]

LT, EQ, GT = -1, 0, 1


class TermSyntaxError(ValueError):
    """Raised by `parse` with the offending position in the message."""


class ArityError(ValueError):
    """A bracket does not have exactly n children."""


def is_leaf(t: Term) -> bool:
    return isinstance(t, int)


def check_term(t: Term, n: int) -> None:
    """Raise if t is not a well-formed term of arity n."""
    if is_leaf(t):
        if t < 1:
            raise ValueError(f"generator index must be >= 1, got {t}")
        return
    if not isinstance(t, tuple):
        raise TypeError(f"not a term: {t!r}")
    if len(t) != n:
        raise ArityError(f"bracket with {len(t)} children, expected {n}")
    for c in t:
        check_term(c, n)


def parse(text: str, n: int) -> Term:
    """Parse `text` into a term of arity n.  Round-trips with format_term."""
    pos = 0

    def err(msg):
        raise TermSyntaxError(f"{msg} at position {pos}")

    def term():
        nonlocal pos
        if pos >= len(text):
            err("unexpected end of input")
        ch = text[pos]
        if ch == "x":
            pos += 1
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            if start == pos:
                err("expected generator index after 'x'")
            idx = int(text[start:pos])
            if idx < 1:
                err("generator index must be >= 1")
            return idx
        if ch == "[":
            pos += 1
            children = [term()]
            while pos < len(text) and text[pos] == ",":
                pos += 1
                children.append(term())
            if pos >= len(text) or text[pos] != "]":
                err("expected ',' or ']'")
            pos += 1
            if len(children) != n:
                raise ArityError(
                    f"bracket with {len(children)} children, expected {n}"
                )
            return tuple(children)
        err(f"unexpected character {ch!r}")

    t = term()
    if pos != len(text):
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
    if is_leaf(t):
        return 1
    # map, not a generator expression: one frame per level of t
    return sum(map(weight, t, itertools.repeat(n))) - (n - 2)


def length(t: Term) -> int:
    if is_leaf(t):
        return 1
    return sum(length(c) for c in t)


def commutator_length(n: int, w: int) -> int:
    """Length of every weight-w term in arity n: n + (w-2)(n-1), which is
    1 at w = 1."""
    return n + (w - 2) * (n - 1)


def term_key(t: Term, n: int):
    """A sort key realizing the term order: weight first, then generator
    index for leaves, then children compared right-to-left (recursively)
    for equal-weight brackets.  A key's first entry is the term's weight,
    so one pass over the tree computes both."""
    if is_leaf(t):
        return (1, 0, t)
    keys = tuple(map(term_key, reversed(t), itertools.repeat(n)))  # one frame per level
    return (sum([k[0] for k in keys]) - (n - 2), 1, keys)


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


def _canonical(t: Term, n: int):
    """(sign, canonical term, its term_key), or (0, None, None) if t
    vanishes.  Children's keys are reused for the parent's key."""
    if is_leaf(t):
        return 1, t, (1, 0, t)
    sign = 1
    kids = []
    keys = []
    for c in t:
        s, cc, k = _canonical(c, n)
        if s == 0:
            return 0, None, None
        sign *= s
        kids.append(cc)
        keys.append(k)
    # each pair out of descending order flips the sign of the sort
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            if a == b:
                return 0, None, None
            if a < b:
                sign = -sign
    order = sorted(range(len(kids)), key=keys.__getitem__, reverse=True)
    ascending = tuple(keys[i] for i in reversed(order))
    key = (sum(k[0] for k in keys) - (n - 2), 1, ascending)
    ordered = tuple(kids[i] for i in order)
    # a canonical t is returned itself, so results share canonical subterms
    return sign, (t if ordered == t else ordered), key


def canonicalize(t: Term, n: int) -> SignedTerm:
    """Sort the children of every bracket strictly descending, tracking the
    sign of the permutation; sign 0 means the term vanished (two equal
    children somewhere)."""
    s, ct, _ = _canonical(t, n)
    return SignedTerm(s, ct)


def is_canonical(t: Term, n: int) -> bool:
    s, ct = canonicalize(t, n)
    return s == 1 and ct == t


# ---------------------------------------------------------------------------
# Child tuples of canonical brackets, by weight profile.


def weight_multisets(total: int, parts: int, cap: int):
    """Non-increasing compositions of `total` into `parts` parts, each in
    [1, cap]."""
    if parts == 1:
        if 1 <= total <= cap:
            yield (total,)
        return
    for first in range(min(cap, total - (parts - 1)), 0, -1):
        for rest in weight_multisets(total - first, parts - 1, first):
            yield (first,) + rest


def _child_profiles(n: int, v: int):
    """The child weights of a weight-v bracket: non-increasing n-tuples of
    weights below v that sum to v + n - 2."""
    return weight_multisets(v + n - 2, n, v - 1)


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
        for ws in _child_profiles(n, v):
            found += children(ws, pools, sub)
        found.sort(key=itemgetter(slice(None, None, -1)))
        pools[v] = range(len(kids), len(kids) + len(found))
        kids += found
        yield found


def canonical_brackets(n: int, d: int, w: int):
    """The canonical nonzero brackets of weights 1..w on d letters, interned
    as the ids of `bracket_layers`: (terms, base, bracket).  terms[i] is the
    term with id i, so comparing ids compares terms; weight v has the ids
    range(base[v], base[v + 1]); bracket maps child ids to the bracket's."""
    terms = list(range(1, d + 1))
    base = [0] * (w + 2)
    bracket: dict = {}
    for v, found in enumerate(bracket_layers(n, d, w), 2):
        base[v] = len(terms)
        bracket.update(zip(found, range(len(terms), len(terms) + len(found))))
        terms += [tuple(map(terms.__getitem__, ids)) for ids in found]  # children first
    base[w + 1] = len(terms)
    return terms, base, bracket


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
                for ws in _child_profiles(n, v)
            )
        )
    return counts


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
    """Canonicalize t and return it as a one-term combination (or {})."""
    s, ct = canonicalize(t, n)
    if s == 0 or coeff == 0:
        return {}
    return {ct: Fraction(coeff) * s}


def lc_format(lc: dict, n: int) -> str:
    """Render a combination as e.g. '-1*[x3,x2,x1] +1/2*[x2,x1,...]'.
    The empty combination renders as '0'."""
    if not lc:
        return "0"
    parts = []
    for t in sorted(lc, key=lambda u: term_key(u, n)):
        c = lc[t]
        sign = "+" if c > 0 else "-"
        parts.append(f"{sign}{abs(Fraction(c))}*{format_term(t)}")
    return " ".join(parts)
