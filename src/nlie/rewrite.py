"""The collecting process: rewriting arbitrary bracket terms into linear
combinations of basic commutators.

Two moves are used.  Sign swaps (skew-symmetry) are folded into
canonicalization.  The generalized Jacobi identity

    [[a_1,...,a_n], y_2,...,y_n] = sum_i [a_1,...,[a_i,y_2,...,y_n],...,a_n]

expands a bracket whose first child is itself a bracket.  A canonical term
with basic children that fails the basic predicate always has a bracket in
its first slot (the first child carries the maximal weight), so the
identity applies at the deepest offending node until only basic terms
remain.  That node is found on the term's key by `basis._nonbasic_path`,
the walk behind `is_basic`, under the FULL_RULE3 rule, and each key
object is searched once a call.  A step keys its summands from the
expanded term's key: only the path from the expanded bracket up to the
root is re-sorted and re-keyed.  Equal subterms of all results, across
calls, are one object, through one table that `terms._room` bounds.

Termination of the process is not guaranteed a priori; a configurable
step budget caps the work, and exhaustion is surfaced via the `capped`
flag on the trace, never silently.  All coefficients are exact rationals.
"""

from __future__ import annotations

from fractions import Fraction

from .basis import _nonbasic_path
from .terms import (
    Term,
    _bracket,
    _canonical,
    _key_children,
    _room,
    canonicalize,
    is_leaf,
    lc_add,
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


def _keyed_summands(u: Term, k: tuple, path: tuple, n: int):
    """The nonzero results of `_canonical` on `_summands(u, path, n)`, in
    that order, for a canonical u with term_key k: (sign, term, key).
    Only the path from the expanded bracket up to the root is re-keyed.
    The new inner bracket, the head it lands in and each ancestor are
    sorted by `_bracket` from their children's keys, which off the path
    are read from k as they are."""
    spine = []  # (node, its children's keys, slot on the path), root first
    for p in path:
        ks = _key_children(k)
        spine.append((u, ks, p))
        u, k = u[p], ks[p]
    ks = _key_children(k)
    head, head_keys = u[0], _key_children(ks[0])
    ys, ys_keys = u[1:], ks[1:]
    spine.reverse()  # the expanded bracket's parent first, the root last
    for i in range(n):
        s, t, tk = _bracket((head[i],) + ys, (head_keys[i],) + ys_keys, n)
        if s == 0:
            continue
        # head with the new bracket in slot i, then each ancestor in turn
        for node, node_keys, p in [(head, head_keys, i)] + spine:
            kids, keys = list(node), list(node_keys)
            kids[p], keys[p] = t, tk
            sp, t, tk = _bracket(kids, keys, n)
            if sp == 0:
                break
            s *= sp
        else:
            yield s, t, tk


def expand_jacobi(t: Term, path: tuple, n: int) -> dict:
    """Replace the node at `path` by its Jacobi expansion; the result is a
    combination (each term canonicalized) congruent to t modulo the
    defining relations."""
    canonicalize(t, n)  # raises on a malformed t
    lc: dict = {}
    for summand in _summands(t, path, n):
        s, ct = canonicalize(summand, n)
        if s != 0:
            lc_add(lc, ct, Fraction(s))
    return lc


_SHARED: dict = {}  # each bracket kept, as key and value: the one object that is it


def _shared(lc: dict, room: int) -> dict:
    """lc with its terms rebuilt bottom-up through one table, so equal
    subterms are one object, also across calls: the table is kept, and
    what it holds changes no result, only which object stands for a term.
    A result that could add `room` entries takes the table as
    `terms._room` leaves it, emptied if it could overfill, or a table of
    its own, dropped after, if it alone could pass the bound.  A kept
    bracket is a tuple of n references to kept brackets or leaves, so the
    full table takes about 1 MB at n = 4.  An explicit stack, not
    recursion, so any term `collect` accepts is walked."""
    table = _SHARED if _room(_SHARED, len(_SHARED), room) else {}
    stack = [(t, False) for t in lc]
    while stack:
        u, built = stack.pop()
        if built:  # its bracket children are in the table
            v = tuple([table.get(c, c) for c in u])
            table.setdefault(v, v)
        elif not is_leaf(u) and u not in table:
            stack.append((u, True))
            stack += [(c, False) for c in u]
    return {table.get(t, t): c for t, c in lc.items()}


def collect(t: Term, n: int, cap: int = DEFAULT_STEP_BUDGET):
    """Rewrite t into a combination of FULL_RULE3 basic commutators.

    Returns (combination, trace).  If the step budget runs out,
    trace.capped is True and the residual non-basic terms are left in the
    combination.  Each term is keyed once, when it is canonicalized: a
    Jacobi step re-keys only the path from the expanded bracket up to the
    root and reuses the keys of u off it.  The node to expand is read off
    the key, and a key shared by several terms is searched once.  Equal
    subterms of the result, and of earlier results while the shared table
    keeps them, are one object."""
    trace = RewriteTrace()
    s, ct, k = _canonical(t, n)
    if s == 0:
        trace.record(ZERO, (), 1, 0)
        return {}, trace
    if ct != t or s != 1:
        trace.record(SKEW, (), 1, 1)
    w = k[0]  # the weight of t and of every term of the result
    work = {ct: Fraction(s)}
    keys = {ct: k}  # the term_key of each term in work
    out: dict = {}
    paths: dict = {}  # id(key) -> (key, its _nonbasic_path)
    steps = 0
    while work:
        # largest term first: expansions feed cancellations deterministically
        u = max(work, key=keys.__getitem__)
        c = work.pop(u)
        k = keys.pop(u)
        path = _nonbasic_path(k, paths)
        if path is None:
            lc_add(out, u, c)
            continue
        if steps >= cap:
            trace.capped = True
            work[u] = c
            break
        steps += 1
        before = len(work) + 1
        for ss, cs, ks in _keyed_summands(u, k, path, n):
            cc = work.get(cs, 0) + c * ss
            if cc:
                work[cs] = cc
                keys[cs] = ks
            else:  # cancelled
                del work[cs], keys[cs]
        trace.record(JACOBI, path, before, len(work))
    lc_merge(out, work)  # the residual, if the budget ran out
    return _shared(out, len(out) * (w - 1)), trace  # w - 1 brackets a term


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
