"""Batch-verification command line front end.

Commands: build (family constructors to graph6), check (conjecture
checkers with witnesses), enumerate (exhaustive desk-scale sweeps),
certify (clique-cover certificates), screen (counterexample profile).

``check`` and ``enumerate`` share one decision per conjecture
(``_decide``): the same search and the same target, whether the answer
is printed for one graph or counted over a sweep.  ``check`` first tests
that its input meets the conjecture's hypotheses (``_admit``); the hosts
of ``enumerate`` are connected with alpha <= 2 by construction and are
not tested again.  Every witness and certificate is verified by the
library function that returns it; this module only reports them.

Exit codes: 0 holds/found, 1 fails/not found, 2 usage or input error
(every input error is a ``ValueError`` and prints one ``error:`` line),
3 undecided (a budget ran out before any violation: ``holds=unknown``
or ``budget_exhausted=true``).  Reports are line-oriented ``key=value``
plus a human-readable summary; every run prints a reproducibility header
with the version, seed and arguments.  The seed drives ``build --family
triangle-free-process`` and defaults to the HADWIGER2_SEED environment
variable, then 0.

``main(argv)`` may be called many times in one process: the argument
parser is built on the first call and reused, and each call reads its
own argv and HADWIGER2_SEED.  A shell run builds it once, as before.
"""

from __future__ import annotations

import argparse
import os
import sys as _sys
from contextlib import nullcontext
from fractions import Fraction
from functools import cache, partial

from . import __version__
from .certificates import (
    clebsch_certificate,
    format_certificate,
    format_cover4,
    four_cover_check,
    kneser_certificate,
    mesner_certificate,
)
from .conjectures import (
    NODE_BUDGET,
    KModel,
    _cdm,
    _check_cdm_host,
    connected_matching_max,
    dominating_edge,
    format_model,
    half_order_model_search,
)
from .constructions import (
    ConstructionError,
    andrasfai,
    cayley_abelian,
    clebsch,
    complete,
    cycle,
    eberhard,
    generalized_kneser_geq,
    generalized_kneser_leq,
    group_elements,
    hoffman_singleton,
    hypercube,
    kneser,
    kneser_labels,
    petersen,
    triangle_free_process,
)
from .graph6 import read_graph6, write_graph6
from .graphs import Graph, alpha_at_most_2, complement
from .generation import MAX_DESK_N, connected_alpha2_graphs, triangle_free_graphs
from .screening import BLOCKS, PROPERTIES, table1_screen
from .steiner import gewirtz, higman_sims, mesner, steiner_3_6_22

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# A search's status as printed after holds= or found=, and as an exit code.
WORD = {"found": "true", "refuted": "false", "unknown": "unknown"}
EXIT_CODE = {"found": EXIT_OK, "refuted": EXIT_FAIL, "unknown": EXIT_BUDGET}


def _read_input_graph(args) -> Graph:
    if args.infile:
        with open(args.infile, "r", encoding="ascii") as fh:
            text = fh.read().strip().splitlines()
    else:
        text = _sys.stdin.read().strip().splitlines()
    lines = [ln for ln in text if ln.strip()]
    if len(lines) != 1:
        raise ValueError("expected exactly one graph6 line on input")
    return read_graph6(lines[0])


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _require(args, names: str, what: str) -> None:
    """Raise unless every flag in the space-separated ``names`` was given."""
    for name in names.split():
        if getattr(args, name) is None:
            raise ValueError(f"--{name} is required for {what}")


def _joined(items) -> list[str]:
    return [" ".join(map(str, x)) for x in items]


# ---------------------------------------------------------------------------
# build


def _steiner(make):
    """A builder for ``make(sys_, point)`` on the Steiner system S(3,6,22)."""
    return lambda args, seed: make(steiner_3_6_22(), args.point)


def _cayley(args, seed):
    orders = tuple(int(x) for x in args.orders.split(","))
    conn = [tuple(int(x) for x in part.split(",")) for part in args.connection.split(";")]
    return cayley_abelian(orders, conn), _joined(group_elements(orders))


def _kneser(args) -> list[str]:
    return _joined(kneser_labels(args.n, args.k))


# Each family: the flags it needs, checked in this order, and a builder
# ``(args, seed) -> (graph, labels)``; labels None numbers the vertices.
_FAMILIES = {
    "cycle": ("n", lambda a, seed: (cycle(a.n), None)),
    "complete": ("n", lambda a, seed: (complete(a.n), None)),
    "petersen": ("", lambda a, seed: (petersen(), None)),
    "hypercube": ("d", lambda a, seed: (hypercube(a.d), [format(v, f"0{a.d}b") for v in range(1 << a.d)])),
    "clebsch": ("", lambda a, seed: (clebsch(), None)),
    "kneser": ("n k", lambda a, seed: (kneser(a.n, a.k), _kneser(a))),
    "generalized-kneser-geq": ("n k t", lambda a, seed: (generalized_kneser_geq(a.n, a.k, a.t), _kneser(a))),
    "generalized-kneser-leq": ("n k t", lambda a, seed: (generalized_kneser_leq(a.n, a.k, a.t), _kneser(a))),
    "andrasfai": ("d", lambda a, seed: (andrasfai(a.d), None)),
    "hoffman-singleton": ("", lambda a, seed: (hoffman_singleton(), None)),
    "mesner": ("", _steiner(lambda s, p: (mesner(s), _joined(s.blocks)))),
    "gewirtz": ("", _steiner(lambda s, p: (gewirtz(s, p), _joined(b for b in s.blocks if p not in b)))),
    "higman-sims": ("", _steiner(
        lambda s, p: (higman_sims(s), _joined(s.blocks) + [f"point {x}" for x in range(22)] + ["apex"])
    )),
    "eberhard": ("p", lambda a, seed: (eberhard(a.p), _joined(group_elements((a.p, a.p))))),
    "cayley": ("orders connection", _cayley),
    "triangle-free-process": ("n", lambda a, seed: (triangle_free_process(a.n, seed), None)),
}


def cmd_build(args, seed: int) -> int:
    flags, make = _FAMILIES[args.family]
    _require(args, flags, f"family {args.family}")
    g, labels = make(args, seed)
    if args.complement:
        g = complement(g)
    _emit(write_graph6(g) + "\n", args.out)
    if args.labels_out:
        if labels is None:
            labels = [str(v) for v in range(g.n)]
        with open(args.labels_out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(labels) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check and enumerate


def _admit(name: str, g: Graph) -> None:
    """Raise ``ValueError`` unless g meets what ``_decide`` assumes of the
    hosts of conjecture ``name``: connected with alpha <= 2 for cdm, alpha
    <= 2 for 4cm.  The half-order search tests its own hosts."""
    if name == "cdm":
        _check_cdm_host(g)
    elif name == "4cm" and not alpha_at_most_2(g):
        raise ValueError("4cm check requires independence number at most 2")


def _decide(name: str, g: Graph, budget: int | None) -> tuple[str, str, KModel | None]:
    """Decide conjecture ``name`` on g, a host that ``_admit`` accepts,
    within ``budget`` search nodes (None, for cdm and 4cm: no limit): the
    status, the report line, and the witness as a model when the status
    is "found" (None for the empty 4cm target)."""
    if name == "cdm":
        got = _cdm(g, budget)
        exhausted = " budget_exhausted=true" if got.status == "unknown" else ""
        line = f"conjecture=cdm n={g.n} holds={WORD[got.status]}{exhausted}"
        if got.status != "found":
            return got.status, line, None
        return "found", line, KModel(got.witness.edges, got.witness.size)
    if name == "shc-half":
        got = half_order_model_search(g, budget=budget)
        line = f"conjecture=shc-half n={g.n} target={(g.n + 1) // 2} holds={WORD[got.status]}"
        return got.status, line, got.witness
    if name == "4cm":
        t = (g.n + 1) // 4
        if t == 0:
            return "found", f"conjecture=4cm n={g.n} target=0 holds=true", None
        got = connected_matching_max(g, budget=budget)
        cm, exact = got.witness, got.status == "found"
        # An exact maximum below t refutes; a budgeted one decides nothing.
        status = "found" if cm.size >= t else "refuted" if exact else "unknown"
        line = (
            f"conjecture=4cm n={g.n} target={t} cm={cm.size} "
            f"exact={str(exact).lower()} holds={WORD[status]}"
        )
        return status, line, KModel(cm.edges, cm.size) if status == "found" else None
    e = dominating_edge(g)
    status = "refuted" if e is None else "found"
    line = f"conjecture=dominating-edge n={g.n} holds={WORD[status]}"
    return status, line, None if e is None else KModel((e,), 1)


def _holds(name: str, g: Graph) -> bool:
    # Below two vertices the conjectures' hypotheses fail; nothing to check.
    return g.n < 2 or _decide(name, g, None)[0] == "found"


def cmd_check(args, seed: int) -> int:
    g = _read_input_graph(args)
    _admit(args.conjecture, g)
    status, line, model = _decide(args.conjecture, g, args.budget)
    print(line)
    if model is not None:
        _emit(format_model(model), args.witness_out)
    return EXIT_CODE[status]


def cmd_enumerate(args, seed: int) -> int:
    if args.max_n > MAX_DESK_N:
        raise ValueError(f"enumeration is desk-scale only (max_n <= {MAX_DESK_N})")
    check = partial(_holds, args.check)
    levels = triangle_free_graphs(args.max_n)
    budget = args.budget
    total = 0
    bad_total = 0
    pool = None
    if args.workers > 1:
        import multiprocessing

        pool = multiprocessing.Pool(args.workers)
    # Pool.__exit__ terminates and joins the workers; map has returned by then.
    with pool or nullcontext():
        for n in range(1, args.max_n + 1):
            batch = connected_alpha2_graphs(n, levels)
            cut = budget is not None and total + len(batch) > budget
            if cut:
                batch = batch[: max(budget - total, 0)]
            results = pool.map(check, batch) if pool else [check(g) for g in batch]
            violations = sum(1 for r in results if not r)
            total += len(batch)
            bad_total += violations
            print(f"n={n} checked={len(batch)} violations={violations}" + (" partial=true" if cut else ""))
            if cut:
                print(f"total={total} violations_total={bad_total} budget_exhausted=true")
                # A violation found before the cut fails the sweep outright.
                return EXIT_FAIL if bad_total else EXIT_BUDGET
    print(f"total={total} violations_total={bad_total}")
    return EXIT_OK if bad_total == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# certify


def cmd_certify(args, seed: int) -> int:
    kind = args.kind
    if kind == "cover4":
        g = _read_input_graph(args)
        got = four_cover_check(g)
        if got.status != "found":
            print(f"kind=cover4 found={WORD[got.status]}")
            return EXIT_CODE[got.status]
        print(f"kind=cover4 found=true total={sum(map(len, got.witness))} floor={g.n + 2}")
        _emit(format_cover4(got.witness), args.out)
        return EXIT_OK
    if kind == "clebsch":
        g = _read_input_graph(args) if args.infile else complement(clebsch())
        cert = clebsch_certificate(g)
    elif kind == "mesner":
        sys_ = steiner_3_6_22()
        g = _read_input_graph(args) if args.infile else complement(mesner(sys_))
        cert = mesner_certificate(g, sys_)
    else:
        _require(args, "n k t", "kneser certificates")
        cert = kneser_certificate(args.n, args.k, args.t, args.r)
    b = Fraction(cert.bound)
    print(f"kind={kind} verified=true bound={b.numerator}/{b.denominator} cliques={cert.size}")
    _emit(format_certificate(cert), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# screen


def cmd_screen(args, seed: int) -> int:
    report = table1_screen(_read_input_graph(args))
    for p in PROPERTIES:
        v = report.verdicts[p]
        detail = f" detail={v.detail!r}" if v.detail else ""
        print(f"{p}={v.status}{detail}")
    for block in BLOCKS:
        print(f"survives_{block}={str(report.survives(block)).lower()}")
    if report.survives("minimal-hc"):
        print("summary=candidate (survives the minimal-hc block)")
    else:
        first = report.failed()[0]
        print(f"summary=not a candidate (fails {first})")
    return EXIT_OK


# ---------------------------------------------------------------------------


# Built on the first ``main`` call, not at import, and then reused:
# ``parse_args`` returns a new namespace and leaves the parser as it
# was, and every default is a constant.
@cache
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hadwiger2",
        description="Constructions, certificates and conjecture checkers "
        "for graphs with independence number two.",
    )
    ap.add_argument("--seed", type=int, default=None, help="RNG seed (default: HADWIGER2_SEED or 0)")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a named graph family as graph6")
    b.set_defaults(run=cmd_build)
    b.add_argument("--family", required=True, choices=_FAMILIES)
    b.add_argument("--n", type=int)
    b.add_argument("--k", type=int)
    b.add_argument("--t", type=int)
    b.add_argument("--d", type=int)
    b.add_argument("--p", type=int)
    b.add_argument("--point", type=int, default=21)
    b.add_argument("--orders")
    b.add_argument("--connection", help="semicolon-separated group elements, e.g. '1;4'")
    b.add_argument("--complement", action="store_true", help="emit the complement")
    b.add_argument("--out")
    b.add_argument("--labels-out", dest="labels_out")

    c = sub.add_parser("check", help="run a conjecture checker on a graph6 input")
    c.set_defaults(run=cmd_check)
    c.add_argument("--conjecture", required=True, choices=["cdm", "shc-half", "4cm", "dominating-edge"])
    c.add_argument("--in", dest="infile")
    c.add_argument("--budget", type=int, default=NODE_BUDGET, help="search nodes before the answer is unknown")
    c.add_argument("--witness-out", dest="witness_out")

    e = sub.add_parser("enumerate", help="exhaustive check over connected alpha<=2 graphs")
    e.set_defaults(run=cmd_enumerate)
    e.add_argument("--max-n", dest="max_n", type=int, required=True)
    e.add_argument("--check", required=True, choices=["cdm", "4cm"])
    e.add_argument("--budget", type=int, default=None, help="cap on graphs checked")
    e.add_argument("--workers", type=int, default=1, help="parallel workers for the per-graph checks")

    f = sub.add_parser("certify", help="emit a verified clique-cover certificate")
    f.set_defaults(run=cmd_certify)
    f.add_argument("--kind", required=True, choices=["clebsch", "mesner", "kneser", "cover4"])
    f.add_argument("--in", dest="infile")
    f.add_argument("--n", type=int)
    f.add_argument("--k", type=int)
    f.add_argument("--t", type=int)
    f.add_argument("--r", type=int, default=0)
    f.add_argument("--out")

    s = sub.add_parser("screen", help="counterexample-profile screen of a graph6 input")
    s.set_defaults(run=cmd_screen)
    s.add_argument("--in", dest="infile")
    return ap


def _env_seed() -> int:
    text = os.environ.get("HADWIGER2_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"HADWIGER2_SEED must be an integer, not {text!r}") from None


def main(argv: list[str] | None = None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        seed = args.seed
        if seed is None:
            seed = _env_seed()
        flags = " ".join(_sys.argv[1:] if argv is None else argv)
        print(f"# hadwiger2 version={__version__} seed={seed} args={flags!r}", file=_sys.stderr)
        if getattr(args, "budget", None) is not None and args.budget < 0:
            raise ValueError(f"--budget must be non-negative, not {args.budget}")
        if getattr(args, "workers", 1) < 1:
            raise ValueError(f"--workers must be at least 1, not {args.workers}")
        return args.run(args, seed)
    except (ValueError, ConstructionError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
