"""Regenerate data/strata.json: every left-normed class of each corpus cell,
ordered by the number of collecting steps nlie needs for it.

    python3 perfbench/calibrate.py

The committed file was made at commit 35ec16f.  The order only decides
how the seeded sample is stratified (see inputs.py); the benchmark never
checks a step count against it, so a later change to `collect` does not
make the file wrong, only less evenly stratified.
"""

from __future__ import annotations

import json
import statistics
import time

import guard
import inputs


def main() -> int:
    guard.install()
    from nlie import rewrite

    cells = sorted(set(inputs.CORPUS_PICKS) | set(inputs.CLI_REWRITE_CELLS))
    strata = {}
    for n, d, w in cells:
        start = time.perf_counter()
        costs = []
        for word in inputs.left_normed_classes(n, d, w):
            _, trace = rewrite.collect(inputs.left_normed(tuple(map(int, word)), n), n)
            costs.append((len(trace.steps), word))
        costs.sort()
        strata[inputs.cell_name(n, d, w)] = [word for _, word in costs]
        steps = [s for s, _ in costs]
        print(
            f"{inputs.cell_name(n, d, w)}: {len(costs)} classes, steps "
            f"min {steps[0]} median {statistics.median(steps)} max {steps[-1]}, "
            f"{time.perf_counter() - start:.1f} s"
        )
    with open(inputs.STRATA_FILE, "w") as fh:
        json.dump(strata, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
