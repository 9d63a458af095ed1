"""Per-graph check reports and the end-to-end verification pipelines."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from .canonical import canonical_code, canonical_form
from .embedding import (
    InvariantError,
    five_gonal_scan,
    is_five_gonal,
    recognize_partial_cube,
)
from .generator import GenSpec, GenerationResult, generate_q6
from .goldberg import goldberg_coxeter_cube
from .named import make_named
from .plane_graph import (
    PlaneGraph,
    all_pairs_distances,
    bipartition,
    face_vector,
    is_three_connected,
    is_three_valent,
)
from .zones import trace_zones, zone_clean

# The paper's five hypercube-embeddable 4_n, by name, with the dimension m
# of their hypercubes.
THEOREM_GRAPHS = {
    "cube": 3,
    "prism(6)": 4,
    "truncated_octahedron": 6,
    "chamfered_cube": 7,
    "twisted_chamfered_cube": 7,
}


# Predicates that `hexcube generate --filter NAME` keeps graphs by, in order.
FILTERS: dict[str, Callable[[PlaneGraph], bool]] = {
    "bipartite": lambda g: bool(bipartition(g)),
    "zone_clean": zone_clean,
    "partial_cube": lambda g: bool(recognize_partial_cube(g)),
    "five_gonal": lambda g: is_five_gonal(all_pairs_distances(g)),
}
FILTER_NAMES = tuple(FILTERS)

FIVE_GONAL_MODES = ("full", "first")


def code_digest(code: bytes) -> str:
    return hashlib.sha256(code).hexdigest()[:16]


def theorem_graph_codes() -> dict[bytes, str]:
    return {canonical_code(make_named(n)): n for n in THEOREM_GRAPHS}


@dataclass(frozen=True)
class CheckReport:
    """Everything the pipelines need to know about one graph.

    t_obstruction is the smallest diameter t0 of a 5-gonal witness, that is
    the least t0 such that some violated pentagonal inequality has all its
    pairwise distances <= t0; None when the metric is 5-gonal or only the
    first witness was sought.  A map that preserves distances up to t >= t0
    sends that five-point configuration isometrically into a hypercube,
    whose metric satisfies every pentagonal inequality, so no t-embedding
    exists for any t >= t0.
    """

    n: int
    code: str
    three_valent: bool
    three_connected: bool
    face_vector: dict[int, int]
    bipartite: bool
    zone_count: int | None
    zone_clean: bool | None
    embeddable: bool
    dimension: int | None
    five_gonal_witnesses: int | None
    five_gonal_clean: bool
    t_obstruction: int | None
    chiral: bool
    aut_order: int

    def to_json(self) -> dict:
        out = dict(self.__dict__)
        out["face_vector"] = {str(k): v for k, v in sorted(self.face_vector.items())}
        return out


def check_graph(g: PlaneGraph, five_gonal: str = "full") -> CheckReport:
    """Aggregate all predicates; five_gonal is 'full' (count every witness)
    or 'first' (stop at the first)."""
    if five_gonal not in FIVE_GONAL_MODES:
        raise ValueError(f"five_gonal must be one of {FIVE_GONAL_MODES}, not {five_gonal!r}")
    fv = dict(face_vector(g))
    all_even = all(s % 2 == 0 for s in fv)
    zones = trace_zones(g) if all_even else None
    dist = all_pairs_distances(g)
    rec = recognize_partial_cube(g, dist)
    if five_gonal == "first":
        witnesses = t_obs = None
        clean = is_five_gonal(dist)
    else:
        all_w = five_gonal_scan(dist)
        witnesses = len(all_w)
        clean = witnesses == 0
        t_obs = min(w.diameter for w in all_w) if all_w else None
    form = canonical_form(g)
    report = CheckReport(
        n=g.n_vertices,
        code=code_digest(form.code),
        three_valent=is_three_valent(g),
        three_connected=is_three_connected(g),
        face_vector=fv,
        bipartite=rec.failure is None or rec.failure.kind != "odd_cycle",
        zone_count=len(zones) if zones is not None else None,
        zone_clean=(
            not any(z.self_intersecting for z in zones) if zones is not None else None
        ),
        embeddable=bool(rec),
        dimension=rec.embedding.m if rec else None,
        five_gonal_witnesses=witnesses,
        five_gonal_clean=clean,
        t_obstruction=t_obs,
        chiral=form.chiral,
        aut_order=form.aut_order,
    )
    # internal consistency: an embedding forces clean zones and no witnesses
    if report.embeddable:
        if report.zone_clean is False:
            raise InvariantError("embeddable graph with a self-intersecting zone")
        if not report.five_gonal_clean:
            raise InvariantError("embeddable graph violates a pentagonal inequality")
    return report


def check_many(
    graphs: list[PlaneGraph], threads: int = 1, five_gonal: str = "full"
) -> list[CheckReport]:
    """check_graph on each graph, in order.  hexcube runs serially; threads
    is accepted only as 1, for callers that still pass it."""
    if threads != 1:
        raise ValueError("hexcube runs serially")
    return [check_graph(g, five_gonal) for g in graphs]


# -- pipelines --------------------------------------------------------------


@dataclass
class TheoremReport:
    """Outcome of the exhaustive embeddability sweep."""

    n_max: int
    total_generated: int
    survivors: list[dict] = field(default_factory=list)
    ok: bool = False
    truncated: bool = False
    complete_bound: bool = True  # n_max covers all five graphs

    def lines(self) -> list[str]:
        out = []
        for s in self.survivors:
            name = s["name"] or "unlisted"
            out.append(f"n={s['n']} m={s['m']} code={s['code']} {name}")
        verdict = "ok" if self.ok else "MISMATCH"
        if self.truncated:
            verdict = "TRUNCATED"
        out.append(
            f"survivors={len(self.survivors)} generated={self.total_generated} "
            f"n_max={self.n_max} verdict={verdict}"
        )
        return out


def verify_theorem(n_max: int = 32, budget_seconds: float | None = None) -> TheoremReport:
    """Generate every 4_n with n <= n_max and keep the hypercube-embeddable
    ones; they must be exactly the five known graphs (with dimensions
    3, 4, 6, 7, 7) once n_max >= 32."""
    gen = generate_q6(GenSpec(q=4, n_max=n_max), budget_seconds=budget_seconds)
    names = theorem_graph_codes()
    report = TheoremReport(
        n_max=n_max,
        total_generated=len(gen.graphs),
        truncated=gen.truncated,
        complete_bound=n_max >= 32,
    )
    for g, code in zip(gen.graphs, gen.codes):
        rec = recognize_partial_cube(g)
        if rec:
            report.survivors.append(
                {
                    "n": g.n_vertices,
                    "m": rec.embedding.m,
                    "code": code_digest(code),
                    "name": names.get(code),
                }
            )
    expected = {
        (THEOREM_GRAPHS[name], code_digest(code)) for code, name in names.items()
    }
    got = {(s["m"], s["code"]) for s in report.survivors}
    report.ok = not gen.truncated and report.complete_bound and got == expected
    return report


@dataclass
class ZoneSurveyReport:
    """Outcome of the zone-cleanliness sweep (the fast necessary filter)."""

    n_max: int
    total_generated: int
    survivors: list[dict] = field(default_factory=list)
    truncated: bool = False
    embeddable_subset_ok: bool = True
    gc_status: list[dict] = field(default_factory=list)

    def lines(self) -> list[str]:
        out = []
        for s in self.survivors:
            name = s["name"] or "unlisted"
            out.append(
                f"n={s['n']} code={s['code']} aut={s['aut_order']} "
                f"chiral={s['chiral']} embeddable={s['embeddable']} "
                f"three_connected={s['three_connected']} {name}"
            )
        for s in self.gc_status:
            out.append(
                f"gc k={s['k']} l={s['l']} n={s['n']} zone_clean={s['zone_clean']} "
                f"{'survivor' if s['survivor'] else 'filtered'}"
            )
        out.append(
            f"survivors={len(self.survivors)} generated={self.total_generated} "
            f"n_max={self.n_max} embeddable_subset_ok={self.embeddable_subset_ok} "
            f"truncated={self.truncated}"
        )
        return out


def reproduce_zone_computation(
    n_max: int = 40, threads: int = 1, budget_seconds: float | None = None
) -> ZoneSurveyReport:
    """Filter all 4_n with n <= n_max by zone cleanliness and cross-check
    that every hypercube-embeddable graph survives.  The subdivided-cube
    family members within range are reported with their zone status.
    hexcube runs serially; threads is accepted only as 1, for callers that
    still pass it."""
    if threads != 1:
        raise ValueError("hexcube runs serially")
    gen = generate_q6(GenSpec(q=4, n_max=n_max), budget_seconds=budget_seconds)
    names = theorem_graph_codes()
    report = ZoneSurveyReport(
        n_max=n_max, total_generated=len(gen.graphs), truncated=gen.truncated
    )
    survivor_codes = set()
    for g, code in zip(gen.graphs, gen.codes):
        clean = zone_clean(g)
        emb = bool(recognize_partial_cube(g))
        if emb and not clean:
            report.embeddable_subset_ok = False
        if clean:
            survivor_codes.add(code)
            form = canonical_form(g)
            report.survivors.append(
                {
                    "n": g.n_vertices,
                    "code": code_digest(code),
                    "name": names.get(code),
                    "aut_order": form.aut_order,
                    "chiral": form.chiral,
                    "embeddable": emb,
                    "three_connected": is_three_connected(g),
                }
            )
    k = 1
    while 8 * k * k <= n_max:
        for l in range(0, k + 1):
            t = k * k + k * l + l * l
            if 8 * t <= n_max:
                gc = goldberg_coxeter_cube(k, l)
                code = canonical_code(gc)
                report.gc_status.append(
                    {
                        "k": k,
                        "l": l,
                        "n": gc.n_vertices,
                        "zone_clean": zone_clean(gc),
                        "survivor": code in survivor_codes,
                    }
                )
        k += 1
    return report


def generation_summary(result: GenerationResult) -> dict:
    return {
        "counts": {str(n): c for n, c in sorted(result.counts.items())},
        "total": len(result.graphs),
        "complete": not result.truncated,
    }
