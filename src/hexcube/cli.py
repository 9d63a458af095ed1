"""Command-line front end.

Exit codes: 0 success, 1 input error, 2 usage error, 3 budget truncation,
4 verification mismatch.  Data goes to stdout (or -o), progress to stderr;
all commands are deterministic for a fixed configuration, including under
--threads variation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import BinaryIO

from .embedding import search_halfcube_embedding
from .generator import FILTER_NAMES, FILTERS, GenSpec, generate_q6
from .goldberg import goldberg_coxeter_cube
from .named import make_named, named_graph_names
from .planar_code import (
    PlanarCodeError,
    graph_to_planar_code,
    read_planar_code,
    to_dot,
    write_planar_code,
)
from .plane_graph import MapError, PlaneGraph
from .reports import (
    check_many,
    code_digest,
    generation_summary,
    reports_to_jsonl,
    reproduce_zone_computation,
    verify_theorem,
)
from .zones import zone_report
from .canonical import canonical_code

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_USAGE = 2
EXIT_TRUNCATED = 3
EXIT_MISMATCH = 4


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get("HEXCUBE_THREADS", "1")))
    except ValueError:
        return 1


def _load_graphs(args) -> list[PlaneGraph]:
    if getattr(args, "named", None):
        return [make_named(args.named)]
    with open(args.input, "rb") as fp:
        return read_planar_code(fp)


def _emit_graphs(graphs: list[PlaneGraph], fmt: str, out: BinaryIO) -> None:
    if fmt == "plc":
        write_planar_code(graphs, out)
    elif fmt == "dot":
        for g in graphs:
            out.write(to_dot(g).encode())
    else:
        for g in graphs:
            row = {
                "n": g.n_vertices,
                "code": code_digest(canonical_code(g)),
                "rotations": [list(nb) for nb in g.neighbors],
            }
            out.write((json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n").encode())


def _open_out(path: str | None) -> BinaryIO:
    if path in (None, "-"):
        return sys.stdout.buffer
    return open(path, "wb")


def cmd_generate(args) -> int:
    spec = GenSpec(q=args.q, n_max=args.nmax, filters=tuple(args.filter))
    result = generate_q6(spec, budget_seconds=args.budget)
    graphs = result.graphs
    for name in spec.filters:
        graphs = [g for g in graphs if FILTERS[name](g)]
    out = _open_out(args.output)
    try:
        _emit_graphs(graphs, args.format, out)
    finally:
        if out is not sys.stdout.buffer:
            out.close()
    summary = generation_summary(result)
    summary["emitted"] = len(graphs)
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return EXIT_TRUNCATED if result.truncated else EXIT_OK


def cmd_check(args) -> int:
    try:
        graphs = _load_graphs(args)
    except (PlanarCodeError, MapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    reports = check_many(graphs, threads=args.threads, five_gonal=args.five_gonal)
    sys.stdout.write(reports_to_jsonl(reports))
    return EXIT_OK


def cmd_verify_theorem(args) -> int:
    report = verify_theorem(
        n_max=args.nmax, threads=args.threads, budget_seconds=args.budget
    )
    for line in report.lines():
        print(line)
    if report.truncated:
        return EXIT_TRUNCATED
    return EXIT_OK if report.ok else EXIT_MISMATCH


def cmd_zone_survey(args) -> int:
    report = reproduce_zone_computation(
        n_max=args.nmax, threads=args.threads, budget_seconds=args.budget
    )
    for line in report.lines():
        print(line)
    if report.truncated:
        return EXIT_TRUNCATED
    return EXIT_OK if report.embeddable_subset_ok else EXIT_MISMATCH


def cmd_zones(args) -> int:
    try:
        graphs = _load_graphs(args)
    except (PlanarCodeError, MapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    for g in graphs:
        print(json.dumps(zone_report(g), sort_keys=True, separators=(",", ":")))
    return EXIT_OK


def cmd_gc(args) -> int:
    try:
        g = goldberg_coxeter_cube(args.k, args.l)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = _open_out(args.output)
    try:
        _emit_graphs([g], args.format, out)
    finally:
        if out is not sys.stdout.buffer:
            out.close()
    return EXIT_OK


def cmd_embed_halfcube(args) -> int:
    try:
        graphs = _load_graphs(args)
    except (PlanarCodeError, MapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    status = EXIT_OK
    for g in graphs:
        try:
            outcome = search_halfcube_embedding(g, args.m, node_budget=args.budget_nodes)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        row = {"n": g.n_vertices, "m": args.m, "status": outcome.status}
        if outcome.embedding is not None:
            row.update(outcome.embedding.to_json())
        print(json.dumps(row, sort_keys=True, separators=(",", ":")))
        if outcome.status == "inconclusive":
            status = EXIT_TRUNCATED
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexcube",
        description=(
            "Exhaustive generation and hypercube-embedding analysis of 3-valent "
            "plane graphs with q-gonal and hexagonal faces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--threads", type=int, default=_default_threads())
        p.add_argument("--budget", type=float, default=None, help="wall-clock seconds")

    p = sub.add_parser("generate", help="enumerate all graphs up to --nmax")
    p.add_argument("-q", type=int, required=True, choices=(3, 4, 5))
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("plc", "json", "dot"), default="json")
    p.add_argument(
        "--filter", action="append", default=[], choices=FILTER_NAMES,
        help="drop graphs failing the predicate (repeatable, applied in order)",
    )
    add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("check", help="full predicate report per graph (JSON lines)")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--named", help=f"one of: {', '.join(named_graph_names())}")
    src.add_argument("-i", "--input", help="planar_code file")
    p.add_argument("--five-gonal", choices=("full", "first", "skip"), default="full")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "verify-theorem",
        help="exhaustively confirm the classification of hypercube-embeddable graphs",
    )
    p.add_argument("--nmax", type=int, default=32)
    add_common(p)
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser(
        "reproduce-zone-computation",
        help="zone-cleanliness filter sweep with embeddability cross-check",
    )
    p.add_argument("--nmax", type=int, default=40)
    add_common(p)
    p.set_defaults(func=cmd_zone_survey)

    p = sub.add_parser("zones", help="zone report per graph")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--named")
    src.add_argument("-i", "--input")
    add_common(p)
    p.set_defaults(func=cmd_zones)

    p = sub.add_parser("gc", help="Goldberg-Coxeter subdivision of the cube")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-l", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--format", choices=("plc", "json", "dot"), default="json")
    add_common(p)
    p.set_defaults(func=cmd_gc)

    p = sub.add_parser("embed-halfcube", help="search a scale-2 embedding into H_m")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--named")
    src.add_argument("-i", "--input")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--budget-nodes", type=int, default=10**8)
    add_common(p)
    p.set_defaults(func=cmd_embed_halfcube)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
