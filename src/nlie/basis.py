"""The basic-commutator predicate and exhaustive enumeration.

One recursive definition serves both: a generator is basic, and a
canonical bracket is basic when all its children are basic and it passes
the local rule of the chosen reading.  `is_basic` checks this top-down;
the enumerator builds exactly these brackets weight by weight with
`terms.canonical_brackets`, keeping a candidate when its rule holds.  The
canonical order already gives non-increasing child weights, strict
descent among equal weights, and children lighter than the bracket.

Two rules are implemented:

* FULL_RULE3 -- the literal rule: at every weight descent where the
  heavier child is a bracket, its last component is <= the last child of
  the outer bracket.

* LEFT_NORMED -- only left-normed shapes: a core of n strictly descending
  generators, or a bracket head followed by a tail of n-1 generators that
  is >= the head's own tail under the tuple order (compare at the first
  difference moving right-to-left).  Successive tails thus form a
  non-decreasing chain starting at the core's own tail.  This is the
  reading whose n=d counts match the closed-form ladder (weight-3
  commutators on n letters number n, weight-w number C(n+w-3, w-2)); the
  literal FULL_RULE3 reading over-counts from weight 4 on (7 vs 6 at
  n=d=3, w=4).

For n=2 and weight <= 3 the two readings coincide.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .terms import (
    Term,
    canonical_brackets,
    is_canonical,
    is_leaf,
    term_key,
    weight,
)

DEFAULT_ENUMERATION_CAP = 200_000


class EnumerationCapExceeded(RuntimeError):
    """The requested basic-commutator list would exceed the size ceiling."""


class EnumerationMode(Enum):
    FULL_RULE3 = "full_rule3"
    LEFT_NORMED = "left_normed"


class BasicCommutator(NamedTuple):
    term: Term
    weight: int
    length: int


def _tuple_key(leaves: tuple) -> tuple:
    # right-to-left first-difference order on descending leaf tuples
    return tuple(reversed(leaves))


def _descent_rule(t: tuple, kws, n: int) -> bool:
    """At every weight descent where the heavier child (weights `kws`) is
    a bracket, its last component is <= the last child of t."""
    last_key = term_key(t[-1], n)
    for s in range(n - 1):
        if kws[s] > kws[s + 1] and not is_leaf(t[s]):
            if term_key(t[s][-1], n) > last_key:
                return False
    return True


def _chain_rule(t: tuple, kws, n: int) -> bool:
    """A core of generators, or a bracket head followed by n-1 generators
    whose tail is >= the head's own tail in the right-to-left tuple
    order."""
    if kws[1] > 1:  # weights are non-increasing: a bracket past the head
        return False
    return is_leaf(t[0]) or _tuple_key(t[1:]) >= _tuple_key(t[0][1:])


_RULES = {
    EnumerationMode.FULL_RULE3: _descent_rule,
    EnumerationMode.LEFT_NORMED: _chain_rule,
}


def _is_basic(t: Term, n: int, rule) -> bool:
    if is_leaf(t):
        return True
    if not all(_is_basic(c, n, rule) for c in t):
        return False
    return rule(t, [weight(c, n) for c in t], n)


def is_basic(t: Term, n: int, mode: EnumerationMode = EnumerationMode.FULL_RULE3) -> bool:
    """Whether the canonical term t is a basic commutator under `mode`.

    Raises ValueError on non-canonical input."""
    if not is_canonical(t, n):
        raise ValueError(f"not a canonical term: {t!r}")
    return _is_basic(t, n, _RULES[mode])


# ---------------------------------------------------------------------------
# Enumeration


@lru_cache(maxsize=None)
def _basics(n: int, d: int, w: int, mode: EnumerationMode, cap: int) -> tuple:
    """Ascending tuple of the basic terms of weight w on d letters.

    Raises EnumerationCapExceeded as soon as more than `cap` are kept at
    weight w, before the rest of the weight is built."""
    rule = _RULES[mode]
    top = w + n - 2  # the child weights of a weight-w bracket sum to this
    kept = 0

    def keep(t, ws):
        nonlocal kept
        if not rule(t, ws, n):
            return False
        if sum(ws) == top:
            kept += 1
            if kept > cap:
                raise EnumerationCapExceeded(
                    f"basic commutators at (n={n}, d={d}, w={w}) exceed cap {cap}"
                )
        return True

    terms, base, _ = canonical_brackets(n, d, w, keep=keep)
    return tuple(terms[base[w] :])


def _cores_and_tails(n: int, d: int):
    """Each left-normed core (a descending n-tuple of generators) with the
    tails (descending (n-1)-tuples) allowed to follow it: those >= the
    core's own tail in the right-to-left tuple order."""
    tails = sorted(
        (tuple(reversed(c)) for c in itertools.combinations(range(1, d + 1), n - 1)),
        key=_tuple_key,
    )
    for c in itertools.combinations(range(1, d + 1), n):
        core = tuple(reversed(c))
        start = _tuple_key(core[1:])
        yield core, [s for s in tails if _tuple_key(s) >= start]


def enumerate_basic(
    n: int,
    d: int,
    w: int,
    mode: EnumerationMode = EnumerationMode.FULL_RULE3,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[BasicCommutator]:
    """All basic commutators of weight w on d letters, ascending in the
    term order."""
    if n < 2 or d < 1 or w < 1:
        raise ValueError(f"bad instance (n={n}, d={d}, w={w})")
    count = count_by_enumeration(n, d, w, mode, cap=cap)
    if count > cap:
        raise EnumerationCapExceeded(
            f"{count} basic commutators at (n={n}, d={d}, w={w}) exceeds cap {cap}"
        )
    m = n + (w - 2) * (n - 1) if w >= 2 else 1
    return [BasicCommutator(t, w, m) for t in _basics(n, d, w, mode, cap)]


def count_by_enumeration(
    n: int,
    d: int,
    w: int,
    mode: EnumerationMode = EnumerationMode.FULL_RULE3,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> int:
    """|enumerate_basic(n, d, w, mode)|, with closed forms where the answer
    does not require materializing terms.  Where it does (FULL_RULE3 from
    weight 3 on), raises EnumerationCapExceeded once more than `cap`
    basics are found, without building the rest."""
    if w == 1:
        return d
    if d < n:
        return 0
    if w == 2:
        return comb(d, n)
    if mode is EnumerationMode.LEFT_NORMED:
        # combinatorial count: per core, a multiset of w-2 allowed tails
        cores = _cores_and_tails(n, d)
        return sum(comb(len(allowed) + w - 3, w - 2) for _, allowed in cores)
    return len(_basics(n, d, w, mode, cap))
