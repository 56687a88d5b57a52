"""Shared helpers for the test suite."""

import random
from fractions import Fraction


def random_term(rng: random.Random, n: int, d: int, w: int):
    """A random (not necessarily canonical) term of exact weight w."""
    if w == 1:
        return rng.randint(1, d)
    # split w + n - 2 into n child weights, each in [1, w - 1]
    while True:
        cuts = [rng.randint(1, w - 1) for _ in range(n - 1)]
        last = w + n - 2 - sum(cuts)
        if 1 <= last <= w - 1:
            cuts.append(last)
            break
    rng.shuffle(cuts)
    return tuple(random_term(rng, n, d, wc) for wc in cuts)


def relabel(t, perm: dict):
    """Apply a generator-index permutation to a term."""
    if isinstance(t, int):
        return perm[t]
    return tuple(relabel(c, perm) for c in t)


def dense_rank(rows, ncols):
    """Rank over Q by textbook Gaussian elimination on dense Fraction rows,
    pivoting on the leftmost column, with no normalization and no
    deduplication."""
    m = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]
    rank = 0
    for j in range(ncols):
        below = [i for i in range(rank, len(m)) if m[i][j]]
        if not below:
            continue
        m[rank], m[below[0]] = m[below[0]], m[rank]
        p = m[rank]
        nonzero = [k for k in range(j, ncols) if p[k]]
        for r in m[rank + 1 :]:
            if r[j]:
                f = r[j] / p[j]
                for k in nonzero:
                    r[k] -= f * p[k]
        rank += 1
    return rank


def dense_span(rows, ncols):
    """The reduced row echelon form over Q of the rows, by textbook
    Gauss-Jordan elimination on dense Fraction rows: (pivot column, row)
    pairs, each row 1 at its pivot and 0 at every other pivot."""
    m = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]
    basis = []
    for j in range(ncols):
        hit = next((r for r in m if r[j]), None)
        if hit is None:
            continue
        m.remove(hit)
        hit = [x / hit[j] for x in hit]
        for r in m + [b for _, b in basis]:
            if r[j]:
                f = r[j]
                for k in range(ncols):
                    r[k] -= f * hit[k]
        basis.append((j, hit))
    return basis


def dense_member(basis, vec):
    vec = list(vec)
    for j, row in basis:
        if vec[j]:
            f = vec[j]
            vec = [a - f * b for a, b in zip(vec, row)]
    return not any(vec)
