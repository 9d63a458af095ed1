"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

The heavy exhaustive sweeps (the n<=32 embeddability run and the n<=40 zone
run) are executed through the CLI exactly as a user would, once each, and
shared across criteria.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from hexcube import (
    GenSpec,
    all_pairs_distances,
    canonical_code,
    check_graph,
    five_gonal_scan,
    generate_q6,
    goldberg_coxeter_cube,
    make_named,
    recognize_partial_cube,
    search_halfcube_embedding,
    search_scale_embedding,
    theta_classes,
    verify_theorem,
)
from hexcube.cli import main
from hexcube.plane_graph import PlaneGraph
from oracles import enumerate_rotation_maps

FIVE = {
    "cube": 3,
    "prism(6)": 4,
    "truncated_octahedron": 6,
    "chamfered_cube": 7,
    "twisted_chamfered_cube": 7,
}


def _capture_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def theorem_run():
    return _capture_cli("verify-theorem", "--nmax", "32")


@pytest.fixture(scope="module")
def zone_run():
    return _capture_cli("reproduce-zone-computation", "--nmax", "40")


@pytest.fixture(scope="module")
def gen_q4_24():
    return generate_q6(GenSpec(q=4, n_max=24))


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_theorem_reproduction(theorem_run):
    exit_code, out = theorem_run
    report = verify_theorem(n_max=32)
    names = {s["name"] for s in report.survivors}
    dims = sorted(s["m"] for s in report.survivors)
    ok = (
        exit_code == 0
        and report.ok
        and len(report.survivors) == 5
        and names == set(FIVE)
        and dims == [3, 4, 6, 7, 7]
        and all(s["m"] == FIVE[s["name"]] for s in report.survivors)
        and "verdict=ok" in out
    )
    _report(
        "1 (exhaustive embeddability classification at n<=32)",
        ok,
        f"survivors={sorted(names)} dims={dims}",
    )


def test_theorem_survivors_to_48():
    """The paper proves the classification for every n; up to n = 48 the
    embeddable 4_n are still exactly the five named graphs."""
    report = verify_theorem(n_max=48)
    assert report.ok and not report.truncated
    assert report.total_generated == 89
    assert len(report.survivors) == 5
    assert {s["name"]: s["m"] for s in report.survivors} == FIVE


def test_criterion_2_oracle_equivalence(gen_q4_24):
    gen16 = generate_q6(GenSpec(q=4, n_max=16))
    oracle = {canonical_code(g) for g in enumerate_rotation_maps(4, 16)}
    gen_ok = oracle == set(gen16.codes)

    corpus: list[PlaneGraph] = [g for g in gen16.graphs if g.n_vertices <= 12]
    corpus += [
        make_named("cube"),
        make_named("prism(4)"),
        make_named("prism(6)"),
        PlaneGraph.from_faces([(0, 2, 1, 3), (0, 3, 1, 4), (0, 4, 1, 2)]),  # K_{2,3}
        PlaneGraph.from_faces(  # K_4 with each edge subdivided once
            [(0, 4, 1, 5, 2, 6), (0, 7, 3, 8, 1, 4), (1, 8, 3, 9, 2, 5), (2, 9, 3, 7, 0, 6)]
        ),
        PlaneGraph.from_faces([(0, 1, 2, 3), (1, 0, 4, 5), (3, 2, 1, 5, 4, 0)]),  # domino
        PlaneGraph.from_rotations([[1], [0, 2], [1, 3], [2]]),  # path
        PlaneGraph.from_rotations([[1, 2, 3], [0], [0], [0]]),  # star
        PlaneGraph.from_rotations([[5, 1], [0, 2], [1, 3], [2, 4], [3, 5], [4, 0]]),
        PlaneGraph(sigma=(0, 1), vertex_of=(0, 1)),  # single edge
    ]
    rec_ok = True
    for g in corpus:
        assert g.n_vertices <= 12
        res = recognize_partial_cube(g)
        m = theta_classes(g).m
        search = search_scale_embedding(g, m, scale=1)
        assert search.status in ("found", "none")
        if bool(res) != (search.status == "found"):
            rec_ok = False
    _report(
        "2 (generator vs brute force at n<=16; recognition vs search at n<=12)",
        gen_ok and rec_ok,
        f"classes={len(oracle)} corpus={len(corpus)}",
    )


def test_criterion_3_label_properties():
    checked = 0
    ok = True
    for name in FIVE:
        g = make_named(name)
        theta = theta_classes(g)
        cls = theta.class_of
        # adjacent edges never share a class
        edge_at = [[] for _ in range(g.n_vertices)]
        for e in range(g.n_edges):
            u, v = g.edge_endpoints(e)
            edge_at[u].append(e)
            edge_at[v].append(e)
        for edges in edge_at:
            labels = [cls[e] for e in edges]
            ok &= len(set(labels)) == len(labels)
        # opposite edges share a class; 2 classes per square, 3 per hexagon
        for f in g.faces:
            edges = [d >> 1 for d in f]
            s = len(edges)
            half = s // 2
            for i in range(half):
                ok &= cls[edges[i]] == cls[edges[i + half]]
            ok &= len({cls[e] for e in edges}) == half
        # every cycle crosses each class an even number of times:
        # faces plus a fundamental cycle basis span the cycle space
        for cycle_edges in _cycle_basis(g):
            from collections import Counter

            counts = Counter(cls[e] for e in cycle_edges)
            ok &= all(c % 2 == 0 for c in counts.values())
        for f in g.faces:
            from collections import Counter

            counts = Counter(cls[d >> 1] for d in f)
            ok &= all(c % 2 == 0 for c in counts.values())
        checked += 1
    _report("3 (label properties on the five embedded graphs)", ok, f"graphs={checked}")


def _cycle_basis(g: PlaneGraph):
    parent_edge = {0: None}
    order = [0]
    tree_edges = set()
    for v in order:
        for d in g.darts_at[v]:
            w = g.vertex_of[d ^ 1]
            if w not in parent_edge:
                parent_edge[w] = (v, d >> 1)
                tree_edges.add(d >> 1)
                order.append(w)
    def path_edges(v):
        out = set()
        while parent_edge[v] is not None:
            v, e = parent_edge[v]
            out.add(e)
        return out
    for e in range(g.n_edges):
        if e not in tree_edges:
            u, v = g.edge_endpoints(e)
            yield (path_edges(u) ^ path_edges(v)) | {e}


def test_criterion_4_equivalence_chain(gen_q4_24):
    ok = True
    for g in gen_q4_24.graphs:
        embeddable = bool(recognize_partial_cube(g))
        five_gonal = not five_gonal_scan(all_pairs_distances(g), stop_at_first=True)
        if embeddable != five_gonal:
            ok = False
    _report(
        "4 (partial cube <=> 5-gonal on every generated graph, n<=24)",
        ok,
        f"graphs={len(gen_q4_24.graphs)}",
    )


def test_criterion_5_zone_pipeline(zone_run):
    exit_code, out = zone_run
    survivor_lines = [l for l in out.splitlines() if l.startswith("n=")]
    expected_names = set(FIVE)
    got_names = {l.rsplit(" ", 1)[-1] for l in survivor_lines}
    ok = exit_code == 0 and len(survivor_lines) == 5 and got_names == expected_names
    gc_ok = True
    for k, l in ((1, 0), (1, 1), (2, 0), (3, 0)):
        g = goldberg_coxeter_cube(k, l)
        assert 8 * (k * k + k * l + l * l) <= 72
        from hexcube import zone_clean

        if not zone_clean(g):
            gc_ok = False
    _report(
        "5 (zone filter survivors at n<=40; subdivided cubes clean to n<=72)",
        ok and gc_ok,
        f"survivors={sorted(got_names)}",
    )


def test_criterion_6_spot_checks():
    tt = make_named("truncated_tetrahedron")
    dist = all_pairs_distances(tt)
    witnesses = five_gonal_scan(dist, stop_at_first=True)
    tt_ok = bool(witnesses) and check_graph(tt).t_obstruction == 3

    tetra = make_named("tetrahedron")
    h3 = search_halfcube_embedding(tetra, 3).status == "found"
    h4 = search_halfcube_embedding(tetra, 4).status == "found"

    icosa = make_named("icosahedron")
    h6 = search_halfcube_embedding(icosa, 6).status == "found"
    _report(
        "6 (non-5-gonality and half-cube spot checks)",
        tt_ok and h3 and h4 and h6,
        f"tt_obstruction=3:{tt_ok} tetra_h3:{h3} tetra_h4:{h4} icosa_h6:{h6}",
    )


def test_criterion_7_determinism(theorem_run):
    rerun = _capture_cli("verify-theorem", "--nmax", "32")
    _report("7 (byte-identical reports across repeats)", rerun == theorem_run)
