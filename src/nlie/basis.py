"""The basic-commutator predicate and exhaustive enumeration.

Two readings of the rules are implemented:

* FULL_RULE3 -- the literal recursive predicate: a bracket is basic if all
  children are basic, child weights are non-increasing and all smaller
  than the total weight, equal-weight children are strictly descending,
  and at every weight descent where the heavier child is a bracket, its
  last component is <= the last child of the outer bracket.

* LEFT_NORMED -- only left-normed shapes are basic: a weight-2 core
  bracket of strictly descending generators, repeatedly bracketed with
  tails of n-1 strictly descending generators.  Successive tails must
  form a non-decreasing chain under the tuple order (compare at the first
  difference moving right-to-left), starting at the core's own tail.
  This is the reading whose n=d counts match the closed-form ladder
  (weight-3 commutators on n letters number n, weight-w number
  C(n+w-3, w-2)); the literal FULL_RULE3 reading over-counts from
  weight 4 on (7 vs 6 at n=d=3, w=4).

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
    distinct_descending,
    is_canonical,
    is_leaf,
    term_key,
    weight,
    weight_multisets,
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


def _is_left_normed_basic(t: Term, n: int) -> bool:
    if is_leaf(t):
        return True
    if all(is_leaf(c) for c in t):
        # weight-2 core; canonical form already gives strict descent
        return True
    head, tail = t[0], t[1:]
    if is_leaf(head) or not all(is_leaf(c) for c in tail):
        return False
    if not _is_left_normed_basic(head, n):
        return False
    # chain condition: this tail must be >= the previous tail (for the
    # core, its last n-1 generators) under the right-to-left tuple order
    return _tuple_key(tail) >= _tuple_key(head[1:])


def _is_full_rule3_basic(t: Term, n: int) -> bool:
    if is_leaf(t):
        return True
    if all(is_leaf(c) for c in t):
        return True
    kws = [weight(c, n) for c in t]
    if max(kws) >= sum(kws) - (n - 2):  # a child as heavy as t itself
        return False
    # canonical order already gives non-increasing weights and strict
    # descent among equal weights; children must be recursively basic
    if not all(_is_full_rule3_basic(c, n) for c in t):
        return False
    return _descent_rule(t, kws, n)


def _descent_rule(t: tuple, kws, n: int) -> bool:
    """At every weight descent where the heavier child (weights `kws`) is
    a bracket, its last component is <= the last child of t."""
    last_key = term_key(t[-1], n)
    for s in range(n - 1):
        if kws[s] > kws[s + 1] and not is_leaf(t[s]):
            if term_key(t[s][-1], n) > last_key:
                return False
    return True


def is_basic(t: Term, n: int, mode: EnumerationMode = EnumerationMode.FULL_RULE3) -> bool:
    """Whether the canonical term t is a basic commutator under `mode`.

    Raises ValueError on non-canonical input."""
    if not is_canonical(t, n):
        raise ValueError(f"not a canonical term: {t!r}")
    if mode is EnumerationMode.LEFT_NORMED:
        return _is_left_normed_basic(t, n)
    return _is_full_rule3_basic(t, n)


# ---------------------------------------------------------------------------
# Enumeration


@lru_cache(maxsize=None)
def _full_basics(n: int, d: int, w: int) -> tuple:
    """Ascending tuple of FULL_RULE3 basic terms of weight w on d letters."""
    if w == 1:
        return tuple(range(1, d + 1))
    if d < n:
        return ()
    out = []
    needed = {}
    for ws in weight_multisets(w + n - 2, n, w - 1):
        for wc in set(ws):
            if wc not in needed:
                needed[wc] = _full_basics(n, d, wc)
        for t in distinct_descending(ws, needed):
            if _descent_rule(t, ws, n):
                out.append(t)
    out.sort(key=lambda t: term_key(t, n))
    return tuple(out)


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


@lru_cache(maxsize=None)
def _left_normed_basics(n: int, d: int, w: int) -> tuple:
    if w == 1:
        return tuple(range(1, d + 1))
    out = []
    for core, allowed in _cores_and_tails(n, d):
        for chain in itertools.combinations_with_replacement(allowed, w - 2):
            t: Term = core
            for tail in chain:
                t = (t,) + tail
            out.append(t)
    out.sort(key=lambda t: term_key(t, n))
    return tuple(out)


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
    if mode is EnumerationMode.LEFT_NORMED:
        ts = _left_normed_basics(n, d, w)
    else:
        ts = _full_basics(n, d, w)
    m = n + (w - 2) * (n - 1) if w >= 2 else 1
    return [BasicCommutator(t, w, m) for t in ts]


def count_by_enumeration(
    n: int,
    d: int,
    w: int,
    mode: EnumerationMode = EnumerationMode.FULL_RULE3,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> int:
    """|enumerate_basic(n, d, w, mode)|, with closed forms where the answer
    does not require materializing terms."""
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
    return len(_full_basics(n, d, w))
