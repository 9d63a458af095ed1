"""Command-line front end.

Exit codes: 0 success, 1 input or output error (an unreadable input or an
unwritable -o path), 2 usage error, 3 budget truncation, 4 verification
mismatch.  Data goes to stdout (or -o), progress to stderr; all commands
are deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import os
import sys
from typing import Iterable

from .embedding import search_halfcube_embedding
from .generator import GenSpec, generate_q6, replace_file
from .goldberg import goldberg_coxeter_cube
from .named import make_named, named_graph_names
from .planar_code import read_planar_code, to_dot, write_planar_code
from .plane_graph import PlaneGraph
from .reports import (
    FILTER_NAMES,
    FILTERS,
    FIVE_GONAL_MODES,
    check_many,
    code_digest,
    generation_summary,
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


def _reads_graphs(cmd):
    """Run cmd(args, graphs) on the graphs of --named or -i.  An unknown
    name, an unreadable file or a malformed stream is an input error: it
    exits 1, and a malformed stream's message gives the byte offset."""

    def run(args) -> int:
        try:
            if args.named:
                graphs = [make_named(args.named)]
            else:
                with open(args.input, "rb") as fp:
                    graphs = read_planar_code(fp)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        return cmd(args, graphs)

    return run


def _json_line(row: dict) -> str:
    """One compact JSON line with sorted keys, the form of every JSON-lines
    output."""
    return json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"


def _refuse_unwritable(path: str | None) -> None:
    """Raise OSError when path is a directory or its directory is missing,
    so that a run learns it before doing its work and creates no file."""
    if path in (None, "-"):
        return
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _write_graphs(
    graphs: list[PlaneGraph], codes: Iterable[bytes], fmt: str, path: str | None
) -> None:
    """Encode every graph, then write them to path (stdout for None or '-').
    codes gives the canonical code of each graph; only json reads it, so it
    may be lazy.  A graph that cannot be encoded (planar_code holds n < 256)
    raises before anything is written, so it leaves no partial output and
    no file; a file is replaced whole or not at all."""
    if fmt == "plc":
        buf = io.BytesIO()
        write_planar_code(graphs, buf)
        data = buf.getvalue()
    elif fmt == "dot":
        data = "".join(map(to_dot, graphs)).encode()
    else:
        rows = (
            {
                "n": g.n_vertices,
                "code": code_digest(code),
                "rotations": [list(nb) for nb in g.neighbors],
            }
            for g, code in zip(graphs, codes)
        )
        data = "".join(map(_json_line, rows)).encode()
    if path in (None, "-"):
        sys.stdout.buffer.write(data)
        return
    replace_file(path, data)


def cmd_generate(args) -> int:
    _refuse_unwritable(args.output)
    result = generate_q6(GenSpec(q=args.q, n_max=args.nmax), budget_seconds=args.budget)
    kept = list(zip(result.graphs, result.codes))
    for name in args.filter:
        kept = [(g, code) for g, code in kept if FILTERS[name](g)]
    graphs = [g for g, _ in kept]
    _write_graphs(graphs, [code for _, code in kept], args.format, args.output)
    summary = generation_summary(result)
    summary["emitted"] = len(graphs)
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return EXIT_TRUNCATED if result.truncated else EXIT_OK


@_reads_graphs
def cmd_check(args, graphs) -> int:
    for report in check_many(graphs, five_gonal=args.five_gonal):
        sys.stdout.write(_json_line(report.to_json()))
    return EXIT_OK


def cmd_verify_theorem(args) -> int:
    report = verify_theorem(n_max=args.nmax, budget_seconds=args.budget)
    for line in report.lines():
        print(line)
    if report.truncated:
        return EXIT_TRUNCATED
    return EXIT_OK if report.ok else EXIT_MISMATCH


def cmd_zone_survey(args) -> int:
    report = reproduce_zone_computation(n_max=args.nmax, budget_seconds=args.budget)
    for line in report.lines():
        print(line)
    if report.truncated:
        return EXIT_TRUNCATED
    return EXIT_OK if report.embeddable_subset_ok else EXIT_MISMATCH


@_reads_graphs
def cmd_zones(args, graphs) -> int:
    for g in graphs:
        sys.stdout.write(_json_line(zone_report(g)))
    return EXIT_OK


def cmd_gc(args) -> int:
    g = goldberg_coxeter_cube(args.k, args.l)
    _write_graphs([g], map(canonical_code, [g]), args.format, args.output)
    return EXIT_OK


@_reads_graphs
def cmd_embed_halfcube(args, graphs) -> int:
    status = EXIT_OK
    for g in graphs:
        outcome = search_halfcube_embedding(g, args.m, node_budget=args.budget_nodes)
        row = {"n": g.n_vertices, "m": args.m, "status": outcome.status}
        if outcome.embedding is not None:
            row.update(outcome.embedding.to_json())
        sys.stdout.write(_json_line(row))
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

    def add_budget(p):
        p.add_argument(
            "--budget", type=float, default=None,
            help=(
                "wall-clock seconds; the search reads the clock every few thousand"
                " states, so a run overruns it by a fraction of a second"
            ),
        )

    def add_source(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument(
            "--named",
            help=f"one of: {', '.join(named_graph_names())}, or prism(K) with K >= 3",
        )
        src.add_argument("-i", "--input", help="planar_code file")

    p = sub.add_parser("generate", help="enumerate all graphs up to --nmax")
    p.add_argument("-q", type=int, required=True, choices=(3, 4, 5))
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("plc", "json", "dot"), default="json")
    p.add_argument(
        "--filter", action="append", default=[], choices=FILTER_NAMES,
        help="drop graphs failing the predicate (repeatable, applied in order)",
    )
    add_budget(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("check", help="full predicate report per graph (JSON lines)")
    add_source(p)
    p.add_argument(
        "--five-gonal", choices=FIVE_GONAL_MODES, default="full",
        help=(
            "full counts the witnesses over all C(n,5) vertex subsets, which can"
            " take minutes or more past n of about 100; first stops at the first"
            " witness and leaves the count and the t-obstruction null"
        ),
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "verify-theorem",
        help="exhaustively confirm the classification of hypercube-embeddable graphs",
    )
    p.add_argument("--nmax", type=int, default=32)
    add_budget(p)
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser(
        "reproduce-zone-computation",
        help="zone-cleanliness filter sweep with embeddability cross-check",
    )
    p.add_argument("--nmax", type=int, default=40)
    add_budget(p)
    p.set_defaults(func=cmd_zone_survey)

    p = sub.add_parser("zones", help="zone report per graph")
    add_source(p)
    p.set_defaults(func=cmd_zones)

    p = sub.add_parser("gc", help="Goldberg-Coxeter subdivision of the cube")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-l", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--format", choices=("plc", "json", "dot"), default="json")
    p.set_defaults(func=cmd_gc)

    # no abbreviations, so that --budget is not taken for --budget-nodes
    p = sub.add_parser(
        "embed-halfcube", help="search a scale-2 embedding into H_m", allow_abbrev=False
    )
    add_source(p)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--budget-nodes", type=int, default=10**8)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT if isinstance(exc, OSError) else EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
