"""The basic-commutator predicate, its counts and exhaustive enumeration.

One recursive definition serves all three: a generator is basic, and a
canonical bracket is basic when all its children are basic and it passes
the local rule of the chosen reading.  A rule sees a bracket's child
handles, their weights, and sub(h), the child handles of h (() for a
generator); handles compare as the terms they stand for.  `is_basic`
walks the term keys that its canonicity check computes; the enumerator
builds exactly the basic brackets weight by weight with
`terms.canonical_brackets`, whose ids are the handles, keeping a
candidate when its rule holds.  The canonical order already gives
non-increasing child weights, strict descent among equal weights, and
children lighter than the bracket.

Counts are closed forms at weights 1 and 2 and at every LEFT_NORMED
weight; FULL_RULE3 from weight 3 on is counted by its one build, which
stops itself at the cap.  Nothing is cached.

Two rules are implemented:

* FULL_RULE3 -- the literal rule: at every weight descent the heavier
  child (a bracket, being heavier than 1) has its last component <= the
  last child of the outer bracket.

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
from math import comb
from typing import NamedTuple

from .terms import Term, _canonical, canonical_brackets, commutator_length

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


def _descent_rule(hs, ws, sub) -> bool:
    """At every weight descent (child weights `ws`) the heavier child, a
    bracket, has its last child <= the last child of the bracket."""
    last = hs[-1]
    for s in range(len(hs) - 1):
        if ws[s] > ws[s + 1] and sub(hs[s])[-1] > last:
            return False
    return True


def _chain_rule(hs, ws, sub) -> bool:
    """A core of generators, or a bracket head followed by n-1 generators
    whose tail is >= the head's own tail in the right-to-left tuple
    order."""
    if ws[1] > 1:  # weights are non-increasing: a bracket past the head
        return False
    head = sub(hs[0])
    return not head or hs[:0:-1] >= head[:0:-1]


_RULES = {
    EnumerationMode.FULL_RULE3: _descent_rule,
    EnumerationMode.LEFT_NORMED: _chain_rule,
}


def _key_children(k) -> tuple:
    # a bracket's key holds its children's keys in reverse; a leaf's, none
    return k[2][::-1] if k[1] else ()


def _basic_key(k, rule) -> bool:
    """Whether the canonical term with key k is basic under `rule`."""
    hs = _key_children(k)
    for h in hs:
        if not _basic_key(h, rule):
            return False
    return not hs or rule(hs, [h[0] for h in hs], _key_children)


def is_basic(t: Term, n: int, mode: EnumerationMode = EnumerationMode.FULL_RULE3) -> bool:
    """Whether the canonical term t is a basic commutator under `mode`.

    Raises ValueError on non-canonical input."""
    sign, ct, key = _canonical(t, n)
    if sign != 1 or ct != t:
        raise ValueError(f"not a canonical term: {t!r}")
    return _basic_key(key, _RULES[mode])


# ---------------------------------------------------------------------------
# Counting and enumeration


def _closed_count(n: int, d: int, w: int, mode: EnumerationMode):
    """|basics| where a closed form gives it (weights 1 and 2, every
    LEFT_NORMED weight), else None.  A LEFT_NORMED basic is a core c (an
    ascending n-combination of 1..d) and a multiset of w-2 tails (ascending
    (n-1)-combinations), each at or after c[:-1] in lexicographic order,
    which is the right-to-left tuple order."""
    if w == 1:
        return d
    if w == 2:
        return comb(d, n)
    if mode is not EnumerationMode.LEFT_NORMED:
        return None
    letters = range(1, d + 1)
    pos = {s: i for i, s in enumerate(itertools.combinations(letters, n - 1))}
    return sum(
        comb(len(pos) - pos[c[:-1]] + w - 3, w - 2)
        for c in itertools.combinations(letters, n)
    )


def _basics(n: int, d: int, w: int, mode: EnumerationMode, cap: int) -> list:
    """The basic terms of weight w on d letters, ascending.

    Raises EnumerationCapExceeded as soon as more than `cap` are kept at
    weight w, before the rest of the weight is built."""
    rule = _RULES[mode]
    top = w + n - 2  # the child weights of a weight-w bracket sum to this
    kept = 0

    def keep(ids, ws, sub):
        nonlocal kept
        if not rule(ids, ws, sub):
            return False
        if sum(ws) == top:
            kept += 1
            if kept > cap:
                raise EnumerationCapExceeded(
                    f"basic commutators at (n={n}, d={d}, w={w}) exceed cap {cap}"
                )
        return True

    terms, base, _ = canonical_brackets(n, d, w, keep=keep)
    return terms[base[w] :]


def enumerate_basic(
    n: int,
    d: int,
    w: int,
    mode: EnumerationMode = EnumerationMode.FULL_RULE3,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[BasicCommutator]:
    """All basic commutators of weight w on d letters, ascending in the
    term order.  A closed count above `cap` is refused before any build."""
    if n < 2 or d < 1 or w < 1:
        raise ValueError(f"bad instance (n={n}, d={d}, w={w})")
    count = _closed_count(n, d, w, mode)
    if count is not None and count > cap:
        raise EnumerationCapExceeded(
            f"{count} basic commutators at (n={n}, d={d}, w={w}) exceeds cap {cap}"
        )
    m = commutator_length(n, w)
    return [BasicCommutator(t, w, m) for t in _basics(n, d, w, mode, cap)]


def count_by_enumeration(
    n: int,
    d: int,
    w: int,
    mode: EnumerationMode = EnumerationMode.FULL_RULE3,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> int:
    """|enumerate_basic(n, d, w, mode)|, from the closed count where there
    is one.  Elsewhere (FULL_RULE3 from weight 3 on) the basics are built,
    and EnumerationCapExceeded is raised once more than `cap` are found,
    without building the rest."""
    count = _closed_count(n, d, w, mode)
    return len(_basics(n, d, w, mode, cap)) if count is None else count
