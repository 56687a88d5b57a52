"""The basic-commutator predicate, its counts and exhaustive enumeration.

One recursive definition serves all three: a generator is basic, and a
canonical bracket is basic when all its children are basic and it passes
the local rule of the chosen reading.  A rule sees a bracket's child
handles, their weights, and sub(h), the child handles of h (() for a
generator); handles compare as the terms they stand for.  `_descent_rule`
and `_chain_rule` state the rules: `is_basic` applies them to the term
keys of its canonicity check, and the tests hold the rule-first children
sources (`_descent_children`, `_chain_children`) to them.  The enumerator
builds exactly the basic brackets with `terms.bracket_layers` on ids (the
handles), each weight from what its rule's source generates.  The
canonical order already gives non-increasing child weights, strict
descent among equal weights, and lighter children.

Counts are closed forms at weights 1 and 2 and at every LEFT_NORMED
weight; FULL_RULE3 from weight 3 on is counted by its one build, which
stops as soon as any weight keeps more than the cap, and does not start
when weight 2, all C(d, n) cores, would.  Nothing is cached.

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
from bisect import bisect_left
from enum import Enum
from math import comb
from operator import itemgetter

from .terms import Term, _key_children, _runs, _walk, bracket_layers, layer_items

DEFAULT_ENUMERATION_CAP = 200_000


class EnumerationCapExceeded(RuntimeError):
    """The requested basic-commutator list would exceed the size ceiling."""


class EnumerationMode(Enum):
    FULL_RULE3 = "full_rule3"
    LEFT_NORMED = "left_normed"


def _descent_rule(hs, ws, sub) -> bool:
    """At every weight descent (child weights `ws`) the heavier child, a
    bracket, has its last child <= the last child of the bracket."""
    last = hs[-1]
    for s in range(len(hs) - 1):
        if ws[s] > ws[s + 1] and sub(hs[s])[-1] > last:
            return False
    return True


def _descent_children(ws, pools, sub, memo):
    """The FULL_RULE3 children source, in chunks.  `_descent_rule` holds
    when the last e of each run of equal weights but the last has sub(e)[-1]
    <= m, the smallest child: so the last run, which fixes m, is chosen
    first, then each earlier run among its tuples allowed at m (memoized)."""

    def allowed(u, k, m):
        if (u, k, m) not in memo:
            cs = itertools.combinations(pools[u], k)  # ascending
            memo[u, k, m] = [c[::-1] for c in cs if sub(c[0])[-1] <= m]
        return memo[u, k, m]

    *runs, (u, k) = _runs(ws)
    for m, last in itertools.groupby(itertools.combinations(pools[u], k), itemgetter(0)):
        tails = [c[::-1] for c in last]
        for ru, rk in reversed(runs[1:]):
            tails = [a + t for a in allowed(ru, rk, m) for t in tails]
        for a in allowed(*runs[0], m) if runs else [()]:
            yield [a + t for t in tails]


def _chain_rule(hs, ws, sub) -> bool:
    """A core of generators, or a bracket head followed by n-1 generators
    whose tail is >= the head's own tail in the right-to-left tuple
    order."""
    if ws[1] > 1:  # weights are non-increasing: a bracket past the head
        return False
    head = sub(hs[0])
    return not head or hs[:0:-1] >= head[:0:-1]


def _chain_children(ws, pools, sub, memo):
    """The LEFT_NORMED children source, in chunks.  By `_chain_rule` any
    core is basic, and from weight 3 on only the profile (v-1, 1, ..., 1),
    where each head takes the tails at or after its own tail read right to
    left: a bisection in the tails sorted that way."""
    if ws[0] == 1:
        yield [c[::-1] for c in itertools.combinations(pools[1], len(ws))]
    elif ws[1] == 1:
        ascending = list(itertools.combinations(pools[1], len(ws) - 1))
        for h in pools[ws[0]]:
            i = bisect_left(ascending, sub(h)[:0:-1])
            yield [(h,) + t[::-1] for t in ascending[i:]]


# per mode: the rule, and the children source that generates what it keeps
_RULES = {
    EnumerationMode.FULL_RULE3: (_descent_rule, _descent_children),
    EnumerationMode.LEFT_NORMED: (_chain_rule, _chain_children),
}


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
    letters: list = []
    key = _walk(t, n, letters)
    if min(letters) < 1:
        raise ValueError(f"not a canonical term: {t!r}")
    return _basic_key(key, _RULES[mode][0])


# ---------------------------------------------------------------------------
# Counting and enumeration


def _closed_count(n: int, d: int, w: int, mode: EnumerationMode, cap: int):
    """|basics| where a closed form gives it (weights 1 and 2, every
    LEFT_NORMED weight), else None.  A LEFT_NORMED basic is a core c (an
    ascending n-combination of 1..d) and a multiset of w-2 tails (ascending
    (n-1)-combinations), each at or after c[:-1] in lexicographic order,
    which is the right-to-left tuple order: the d - p[-1] cores of prefix p,
    at rank r of N tails, take C(N - r + w - 3, w - 2) each.  The core
    1..n alone takes >= N (w >= 3, d >= n), so N > cap raises
    EnumerationCapExceeded before the sum.  A FULL_RULE3 build keeps all
    C(d, n) cores at weight 2, so C(d, n) > cap raises its message unbuilt.
    Raises ValueError on a bad instance, so each entry point checks it
    before any other work."""
    if n < 2 or d < 1 or w < 1:
        raise ValueError(f"bad instance (n={n}, d={d}, w={w})")
    if w == 1:
        return d
    if w == 2:
        return comb(d, n)
    if mode is not EnumerationMode.LEFT_NORMED:
        if comb(d, n) > cap:  # the build's weight 2: every core is basic
            raise EnumerationCapExceeded(
                f"basic commutators of weight 2 at (n={n}, d={d}, w={w}) exceed cap {cap}"
            )
        return None
    tails = comb(d, n - 1)
    if tails > cap and d >= n:
        raise EnumerationCapExceeded(
            f"at least {tails} basic commutators at (n={n}, d={d}, w={w}) exceeds cap {cap}"
        )
    return sum(
        (d - p[-1]) * comb(tails - r + w - 3, w - 2)
        for r, p in enumerate(itertools.combinations(range(1, d + 1), n - 1))
    )


def _basics(n: int, d: int, w: int, mode: EnumerationMode, cap: int):
    """The `bracket_layers` of the basic brackets of weights 2..w on d
    letters, from the mode's source.  Raises EnumerationCapExceeded as
    soon as more than `cap` are kept at any weight."""
    source, memo, kept = _RULES[mode][1], {}, [0] * (w + 1)

    def children(ws, pools, sub):
        v, out = sum(ws) - (n - 2), []
        for chunk in source(ws, pools, sub, memo):
            out += chunk
            kept[v] += len(chunk)
            if kept[v] > cap:
                raise EnumerationCapExceeded(
                    f"basic commutators of weight {v} at (n={n}, d={d}, w={w}) "
                    f"exceed cap {cap}"
                )
        return out

    return bracket_layers(n, d, w, children)


def iter_basic(
    n: int,
    d: int,
    w: int,
    mode: EnumerationMode = EnumerationMode.FULL_RULE3,
    cap: int = DEFAULT_ENUMERATION_CAP,
    text: bool = False,
):
    """An iterator over what `enumerate_basic` lists, by `terms.layer_items`
    once the whole id build has run and any cap is refused."""
    count = _closed_count(n, d, w, mode, cap)
    if count is not None and count > cap:
        raise EnumerationCapExceeded(
            f"{count} basic commutators at (n={n}, d={d}, w={w}) exceeds cap {cap}"
        )
    return layer_items(d, list(_basics(n, d, w, mode, cap)), text)


def enumerate_basic(
    n: int,
    d: int,
    w: int,
    mode: EnumerationMode = EnumerationMode.FULL_RULE3,
    cap: int = DEFAULT_ENUMERATION_CAP,
    text: bool = False,
) -> list:
    """All basic commutators of weight w on d letters, ascending in the
    term order: their terms, or with `text` their `format_term` texts
    (each made once from its children's).  A closed count above `cap` is
    refused before any build."""
    return list(iter_basic(n, d, w, mode, cap, text))


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
    without building the rest, and for LEFT_NORMED above `cap` tails."""
    count = _closed_count(n, d, w, mode, cap)
    return len(list(_basics(n, d, w, mode, cap))[-1]) if count is None else count
