"""Child processes of the benchmark; each prints one JSON line.

    child.py cell N D W [--layers] [--trace] [--probe SEED] [--ceiling C]
    child.py setup WORKLOAD SEED
    child.py cli-pass SEED [--trace]

`cell` computes one oracle cell cold.  By default it makes the one
`graded_dimension` call a user of `nlie count --method oracle` makes.
With --layers it runs graded_monomials, relation_rows and graded_dimension
in turn, so the traced run can split the cell into monomials, rows and
elimination; --probe adds the terms/basis probes on the cell's monomials.
`setup` times one set-up of a workload.  `cli-pass` runs the cli-session
script in this process through `cli.main`.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import nullcontext
from time import perf_counter

import guard
import inputs
import tracing
import workloads


def cell(args) -> dict:
    from nlie import oracle

    n, d, w = args.n, args.d, args.w
    ceiling = args.ceiling or oracle.DEFAULT_CEILING
    if not args.layers:
        dim = oracle.graded_dimension(n, d, w, ceiling=ceiling)
        monomials = len(oracle.graded_monomials(n, d, w, ceiling=ceiling).monomials)
        return {"cell": [n, d, w], "dim": dim, "monomials": monomials}
    tracer = tracing.Tracer()
    with tracer.wrapped(["oracle"]) if args.trace else nullcontext():
        with tracer.root("cell", inputs.cell_name(n, d, w)):
            try:
                basis = oracle.graded_monomials(n, d, w, ceiling=ceiling)
            except oracle.InstanceCeilingExceeded:
                return {"cell": [n, d, w], "skipped": True}
            rows = len(oracle.relation_rows(n, d, w, ceiling=ceiling).rows)
            dim = oracle.graded_dimension(n, d, w, ceiling=ceiling)
    _, start, end, *_ = tracer.spans[0]
    out = {
        "cell": [n, d, w],
        "dim": dim,
        "monomials": len(basis.monomials),
        "rows": rows,
        "seconds": end - start,
    }
    if args.trace:
        out["spans"] = tracer.spans
    if args.probe is not None:
        name = inputs.cell_name(n, d, w)
        raw = inputs.probe_sample(basis.monomials, workloads.PROBE_TERMS, args.probe, name)
        rng = random.Random(args.probe)
        out["probe"] = workloads.probe_layers([inputs.scramble(t, rng) for t in raw], n)
    return out


def setup(args) -> dict:
    start = perf_counter()
    workloads.WORKLOADS[args.workload]["setup"](args.seed)
    return {"setup_s": perf_counter() - start}


def cli_pass(args) -> dict:
    script = inputs.cli_script(args.seed, inputs.load_strata())
    tracer = tracing.Tracer()
    if args.trace:
        with tracer.wrapped():
            commands = workloads.cli_inprocess(script, tracer)
        return {"commands": commands, "spans": tracer.spans}
    return {"commands": workloads.cli_inprocess(script, tracer)}


def main() -> int:
    p = argparse.ArgumentParser()
    sub = p.add_subparsers(dest="what", required=True)
    c = sub.add_parser("cell")
    for name in ("n", "d", "w"):
        c.add_argument(name, type=int)
    c.add_argument("--layers", action="store_true")
    c.add_argument("--trace", action="store_true")
    c.add_argument("--probe", type=int)
    c.add_argument("--ceiling", type=int)
    c.set_defaults(func=cell)
    s = sub.add_parser("setup")
    s.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    s.add_argument("seed", type=int)
    s.set_defaults(func=setup)
    q = sub.add_parser("cli-pass")
    q.add_argument("seed", type=int)
    q.add_argument("--trace", action="store_true")
    q.set_defaults(func=cli_pass)
    args = p.parse_args()
    if args.what != "setup":
        guard.install()
    print(json.dumps(args.func(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
