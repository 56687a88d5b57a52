"""Seeded inputs of the benchmark.

Everything a workload feeds to nlie comes from here and from the seed:
the order of the oracle ladder, the rewrite corpus, the CLI script and the
terms the layer probes time.  Terms are plain nested tuples, so this module
needs nothing from nlie.

The rewrite corpus is a stratified sample.  For each corpus cell the file
data/strata.json lists every left-normed class of the cell (core of n
distinct letters, tails of n-1 distinct letters), ordered by the number of
collecting steps it took at commit 35ec16f (see calibrate.py).  The seed
picks one class from each of k equal slices of that list, so every seed
gets the same spread of easy and heavy terms: the heavy tail is always in
the corpus, and its share does not move with the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

import expected

STRATA_FILE = Path(__file__).resolve().parent / "data" / "strata.json"

# Rewrite-corpus cells and how many terms each contributes per pass.  The
# relation spaces of these cells are built during set-up, so each must
# build in a few seconds.
CORPUS_PICKS = {
    (2, 2, 7): 16,
    (2, 2, 8): 32,
    (2, 2, 9): 24,
    (2, 3, 7): 48,
    (3, 4, 5): 64,
    (4, 5, 4): 64,
}

# Cells the `rewrite` commands of cli-session draw their expressions from.
CLI_REWRITE_CELLS = [(2, 2, 8), (2, 3, 6), (3, 4, 5), (4, 5, 4)]

# The fixed part of cli-session: argv lists of `python -m nlie.cli`.
CLI_SCRIPT = [
    ["--help"],
    ["table", "--which", "2"],
    ["table", "--which", "3"],
    ["table", "--which", "4"],
    ["table", "--which", "5"],
    ["count", "--n", "2", "--d", "3", "--w", "7", "--method", "witt"],
    ["count", "--n", "3", "--d", "4", "--w", "5", "--method", "necklace-bound"],
    ["count", "--n", "3", "--d", "5", "--w", "2", "--method", "weight2"],
    ["count", "--n", "3", "--d", "3", "--w", "6", "--method", "ladder"],
    ["count", "--n", "4", "--d", "4", "--w", "5", "--method", "ladder-recursive"],
    ["count", "--n", "3", "--d", "5", "--w", "3", "--method", "eq14"],
    ["count", "--n", "3", "--d", "4", "--w", "4", "--method", "eq15"],
    ["count", "--n", "4", "--d", "5", "--w", "6", "--method", "eq16"],
    ["count", "--n", "3", "--d", "4", "--w", "5", "--method", "via-lie"],
    ["enumerate", "--n", "4", "--d", "6", "--w", "5"],
    ["enumerate", "--n", "4", "--d", "6", "--w", "5", "--mode", "left"],
    ["enumerate", "--n", "3", "--d", "4", "--w", "5", "--format", "json"],
    ["compare", "--n", "3", "--d", "3", "--w-max", "7"],
    ["compare", "--n", "2", "--d", "2", "--w-max", "9"],
    ["compare", "--n", "3", "--d", "5", "--w-max", "4"],
]


def cell_name(n: int, d: int, w: int) -> str:
    return f"n{n}_d{d}_w{w}"


def left_normed(letters, n: int):
    """The left-normed bracket on a flat letter sequence: a core of n
    letters, then tails of n-1 letters each."""
    t = tuple(letters[:n])
    for i in range(n, len(letters), n - 1):
        t = (t,) + tuple(letters[i : i + n - 1])
    return t


def format_term(t) -> str:
    if isinstance(t, int):
        return f"x{t}"
    return "[" + ",".join(format_term(c) for c in t) + "]"


def _descending_choices(d: int, k: int):
    return [tuple(reversed(c)) for c in combinations(range(1, d + 1), k)]


def left_normed_classes(n: int, d: int, w: int) -> list[str]:
    """Every left-normed class of weight w: core of n distinct letters and
    w-2 tails of n-1 distinct letters, each block descending, written as
    its letter string (letters are single digits)."""
    cores = _descending_choices(d, n)
    tails = _descending_choices(d, n - 1)
    out = list(cores)
    for _ in range(w - 2):
        out = [prefix + tail for prefix in out for tail in tails]
    return ["".join(map(str, letters)) for letters in out]


def _scramble_blocks(letters: tuple, n: int, rng: random.Random) -> tuple:
    """Permute the letters inside the core and inside each tail, which keeps
    the class and changes at most the sign."""
    blocks = [list(letters[:n])] + [
        list(letters[i : i + n - 1]) for i in range(n, len(letters), n - 1)
    ]
    for b in blocks:
        rng.shuffle(b)
    return tuple(x for b in blocks for x in b)


def scramble(t, rng: random.Random):
    """A raw term equal to t up to sign: children permuted at every node."""
    if isinstance(t, int):
        return t
    kids = [scramble(c, rng) for c in t]
    rng.shuffle(kids)
    return tuple(kids)


def stratified(population: list, k: int, rng: random.Random) -> list:
    """One element from each of k contiguous, near-equal slices."""
    m = len(population)
    if not 1 <= k <= m:
        raise ValueError(f"cannot take {k} strata from {m} elements")
    return [rng.choice(population[i * m // k : (i + 1) * m // k]) for i in range(k)]


def load_strata() -> dict:
    with open(STRATA_FILE) as fh:
        return json.load(fh)


def rewrite_corpus(seed: int, strata: dict) -> list[dict]:
    """Items {cell: (n, d, w), term: raw tuple}, in seeded order."""
    rng = random.Random(f"rewrite-corpus/{seed}")
    items = []
    for (n, d, w), k in CORPUS_PICKS.items():
        for word in stratified(strata[cell_name(n, d, w)], k, rng):
            letters = _scramble_blocks(tuple(map(int, word)), n, rng)
            items.append({"cell": (n, d, w), "term": left_normed(letters, n)})
    rng.shuffle(items)
    return items


def cli_script(seed: int, strata: dict) -> list[list[str]]:
    """The fixed commands plus one seeded `rewrite` per rewrite cell, in
    seeded order."""
    rng = random.Random(f"cli-session/{seed}")
    script = [list(argv) for argv in CLI_SCRIPT]
    for n, d, w in CLI_REWRITE_CELLS:
        word = rng.choice(strata[cell_name(n, d, w)])
        letters = _scramble_blocks(tuple(map(int, word)), n, rng)
        expr = format_term(left_normed(letters, n))
        script.append(["rewrite", "--n", str(n), expr])
    rng.shuffle(script)
    return script


def ladder_order(seed: int) -> list[tuple]:
    """The ROADMAP ladder cells, those with frozen values, in seeded order."""
    cells = list(expected.LADDER)
    random.Random(f"oracle-ladder/{seed}").shuffle(cells)
    return cells


def probe_sample(terms: list, count: int, seed: int, tag: str) -> list:
    """A seeded sample (with repeats if needed) of `count` terms."""
    rng = random.Random(f"probe/{tag}/{seed}")
    return [rng.choice(terms) for _ in range(count)]


def digest(obj) -> str:
    """Short sha256 of a JSON rendering, to show two runs used the same
    inputs."""
    blob = json.dumps(obj, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
