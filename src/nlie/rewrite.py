"""The collecting process: rewriting arbitrary bracket terms into linear
combinations of basic commutators.

Two moves are used.  Sign swaps (skew-symmetry) are folded into
canonicalization.  The generalized Jacobi identity

    [[a_1,...,a_n], y_2,...,y_n] = sum_i [a_1,...,[a_i,y_2,...,y_n],...,a_n]

expands a bracket whose first child is itself a bracket.  A canonical term
with basic children that fails the basic predicate always has a bracket in
its first slot (the first child carries the maximal weight), so the
identity applies at the deepest offending node until only basic terms
remain.  It runs on term keys alone, a canonical term being a function
of its key: `basis._nonbasic_path` finds the node to expand on a key,
under the FULL_RULE3 rule, and a step re-keys only the path from the
expanded bracket up to the root, putting each node's one new child among
its other children, still in order, with `terms._slot`: no node is
sorted.  The result's terms are made once from
its keys, and equal subterms of all results, across calls, are one
object, through one table that `terms._room` bounds.

Termination of the process is not guaranteed a priori; a configurable
step budget caps the work, and exhaustion is surfaced via the `capped`
flag on the trace, never silently.  All coefficients are exact rationals.
"""

from __future__ import annotations

from fractions import Fraction

from .basis import _nonbasic_path
from .terms import (
    MAX_DEPTH,
    Term,
    _canonical,
    _key_children,
    _room,
    _slot,
    canonicalize,
    is_leaf,
    lc_add,
    lc_from_term,
    lc_merge,
)

DEFAULT_STEP_BUDGET = 10_000

SKEW = "SKEW"
JACOBI = "JACOBI"
ZERO = "ZERO"


class RewriteTrace:
    """Audit log of a collecting run: (rule, node path, size before,
    size after) per step, where sizes count terms in the working
    combination."""

    def __init__(self):
        self.steps: list = []
        self.capped = False

    def record(self, rule: str, path: tuple, before: int, after: int) -> None:
        self.steps.append((rule, path, before, after))


def _summands(t: Term, path: tuple, n: int) -> list:
    """The n raw summands of t with the node at `path` (a bracket whose
    first child is a bracket) replaced by the RHS of the generalized
    Jacobi identity, built in one recursion down the path."""
    if path:
        i = path[0]
        if is_leaf(t) or i >= len(t):
            raise ValueError(f"invalid path step {i} in {t!r}")
        pre, post = t[:i], t[i + 1 :]
        return [pre + (s,) + post for s in _summands(t[i], path[1:], n)]
    if is_leaf(t) or is_leaf(t[0]):
        raise ValueError(f"{t!r} is not a bracket with a bracket in its first slot")
    head, ys = t[0], t[1:]
    return [head[:i] + ((head[i],) + ys,) + head[i + 1 :] for i in range(n)]


def _keyed_summands(k: tuple, path: tuple, n: int):
    """The nonzero results of `_canonical` on `_summands(u, path, n)`, in
    that order, for the canonical u with term_key k: (sign, key), read off
    k alone.  Only the path from the expanded bracket up to the root is
    re-keyed, and each node on it has one new child among siblings that
    are still strictly descending: the head's child among the ys, the new
    inner bracket among the head's other children, and each re-keyed node
    among its parent's other children, each put in place by `_slot`.  The
    sign flips once per slot a child moves, and a child put beside an equal
    one drops the summand.  A Jacobi step keeps weights: the head has the
    expanded bracket's, and each ancestor its own."""
    spine = []  # (a node's weight, its other children's keys, the slot), the root last
    for p in path:
        ks = _key_children(k)
        spine.insert(0, (k[0], ks[:p] + ks[p + 1 :], p))
        k = ks[p]
    ks = _key_children(k)
    hs, ys = _key_children(ks[0]), ks[1:]
    added = k[0] - ks[0][0]  # the inner bracket's weight less its head child's
    for i, h in enumerate(hs):
        tk, s = h, 1
        # h put in slot 0 of the new inner bracket, that in slot i of the
        # head, and the head and each re-keyed node in turn in its parent
        for v, sibs, p in [(added + h[0], ys, 0), (k[0], hs[:i] + hs[i + 1 :], i)] + spine:
            q = _slot(sibs, tk)
            if q is None:
                break
            if (p - q) & 1:
                s = -s
            tk = (v, 1, (sibs[:q] + (tk,) + sibs[q:])[::-1])
        else:
            yield s, tk


def expand_jacobi(t: Term, path: tuple, n: int) -> dict:
    """Replace the node at `path` by its Jacobi expansion; the result is a
    combination (each term canonicalized) congruent to t modulo the
    defining relations."""
    canonicalize(t, n)  # raises on a malformed t
    lc: dict = {}
    for summand in _summands(t, path, n):
        lc_merge(lc, lc_from_term(summand, n))
    return lc


_SHARED: dict = {}  # each bracket kept, as key and value: the one object that is it


def _shared_terms(lc: dict, room: int) -> dict:
    """lc, keyed by term_keys, keyed by their terms instead: each made once
    a call per key object, bottom-up from its children's through one
    table, so equal subterms are one object, also across calls: the table
    is kept, and what it holds changes no result, only which object stands
    for a term.  A result that could add `room` entries takes the table as
    `terms._room` leaves it, emptied if it could overfill, or a table of
    its own, dropped after, if it alone could pass the bound.  A kept
    bracket is a tuple of n references to kept brackets or leaves, so the
    full table takes about 1 MB at n = 4.  An explicit stack, not
    recursion, so any term `collect` accepts is made."""
    table = _SHARED if _room(_SHARED, len(_SHARED), room) else {}
    made: dict = {}  # id(key) -> its term; lc holds the keys
    stack = [(k, False) for k in lc]
    while stack:
        k, ready = stack.pop()
        if not k[1]:
            made[id(k)] = k[2]  # a leaf's key holds its letter
        elif ready:  # its children's terms are made
            v = tuple([made[id(c)] for c in _key_children(k)])
            made[id(k)] = table.setdefault(v, v)
        elif id(k) not in made:
            stack += [(k, True)] + [(c, False) for c in k[2]]
    return {made[id(k)]: c for k, c in lc.items()}


def collect(t: Term, n: int, cap: int = DEFAULT_STEP_BUDGET):
    """Rewrite t into a combination of FULL_RULE3 basic commutators.

    Returns (combination, trace).  If the step budget runs out,
    trace.capped is True and the residual non-basic terms are left in the
    combination.  The loop holds term keys alone: t is keyed once, and a
    Jacobi step re-keys only the path from the expanded bracket up to the
    root.  The node to expand is read off the key, and a key shared by
    several terms is searched once.  The result's terms are made once from
    its keys: equal subterms of the result, and of earlier results while
    the shared table keeps them, are one object.  A node to expand deeper
    than `terms.MAX_DEPTH // 2` raises RecursionError, also with cap 0."""
    trace = RewriteTrace()
    s, ct, k = _canonical(t, n)
    if s == 0:
        trace.record(ZERO, (), 1, 0)
        return {}, trace
    if ct != t or s != 1:
        trace.record(SKEW, (), 1, 1)
    w = k[0]  # the weight of t and of every term of the result
    work = {k: Fraction(s)}  # the combination, keyed by term_key
    out: dict = {}
    paths: dict = {}  # id(key) -> (key, its _nonbasic_path)
    steps = 0
    while work:
        # largest term first: expansions feed cancellations deterministically
        k = max(work)
        c = work.pop(k)
        path = _nonbasic_path(k, paths)
        if path is None:
            lc_add(out, k, c)
            continue
        # comparing two keys recurses two tuple levels per term level, so a
        # deeper node is refused here, not by the interpreter's limit
        if len(path) > MAX_DEPTH // 2:
            raise RecursionError(f"a node {len(path)} brackets deep, past {MAX_DEPTH // 2}")
        if steps >= cap:
            trace.capped = True
            work[k] = c
            break
        steps += 1
        before = len(work) + 1
        for ss, ks in _keyed_summands(k, path, n):
            cc = work.get(ks, 0) + c * ss
            if cc:
                work[ks] = cc
            else:  # cancelled
                del work[ks]
        trace.record(JACOBI, path, before, len(work))
    lc_merge(out, work)  # the residual, if the budget ran out
    return _shared_terms(out, len(out) * (w - 1)), trace  # w - 1 brackets a term


def collect_lc(lc: dict, n: int, cap: int = DEFAULT_STEP_BUDGET):
    """Termwise collect with exact merging of coefficients."""
    out: dict = {}
    trace = RewriteTrace()
    for t, c in lc.items():
        part, tr = collect(t, n, cap=cap)
        trace.steps.extend(tr.steps)
        trace.capped = trace.capped or tr.capped
        lc_merge(out, part, c)
    return out, trace
