from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexcube import (
    PlaneGraph,
    automorphism_count,
    canonical_code,
    canonical_form,
    goldberg_coxeter_cube,
    is_chiral,
    mirror,
)
import hexcube.canonical
from hexcube.canonical import canonical_root_code
from hexcube.plane_graph import sigma_inverse
from oracles import _try_dart_map, are_isomorphic, canonical_form_oracle, enumerate_rotation_maps

# GC(k,l) of the cube with k^2 + kl + l^2 <= 7; GC(2,1) is chiral
SMALL_GC = [(1, 0), (1, 1), (2, 0), (2, 1)]


@pytest.fixture(scope="module")
def symmetry_cases(named_graphs):
    cases = dict(named_graphs)
    for k, l in SMALL_GC:
        cases[f"GC({k},{l})"] = goldberg_coxeter_cube(k, l)
    return cases


def relabelled(g: PlaneGraph, perm, shifts) -> PlaneGraph:
    """Vertex v becomes perm[v] and its neighbor list is rotated by
    shifts[v]: the same map under new labels."""
    rotations = [None] * g.n_vertices
    for v, nbrs in enumerate(g.neighbors):
        k = shifts[v] % len(nbrs)
        rotations[perm[v]] = [perm[w] for w in nbrs[k:] + nbrs[:k]]
    return PlaneGraph.from_rotations(rotations)


def shuffled_copy(g: PlaneGraph, rng: random.Random) -> PlaneGraph:
    """Relabel vertices and rotate each neighbor list: same map, new labels."""
    perm = list(range(g.n_vertices))
    rng.shuffle(perm)
    return relabelled(g, perm, [rng.randrange(len(nbrs)) for nbrs in g.neighbors])


@pytest.mark.parametrize("name", ["cube", "prism(6)", "truncated_octahedron", "tetrahedron"])
def test_code_invariant_under_relabeling(name, named_graphs):
    g = named_graphs[name]
    code = canonical_code(g)
    rng = random.Random(7)
    for _ in range(5):
        assert canonical_code(shuffled_copy(g, rng)) == code


def test_chamfered_and_twist_differ(named_graphs):
    assert canonical_code(named_graphs["chamfered_cube"]) != canonical_code(
        named_graphs["twisted_chamfered_cube"]
    )


def test_mirror_cube_same_code(named_graphs):
    g = named_graphs["cube"]
    assert canonical_code(mirror(g)) == canonical_code(g)
    # the cube even has an orientation-reversing automorphism
    assert are_isomorphic(mirror(g), g, include_reflection=False)
    assert not is_chiral(g)


def test_explicit_isomorphism_search_agrees(named_graphs):
    rng = random.Random(21)
    graphs = [named_graphs[n] for n in ("cube", "prism(6)", "tetrahedron", "octahedron")]
    for g in graphs:
        assert are_isomorphic(g, shuffled_copy(g, rng))
    for g in graphs:
        for h in graphs:
            same_code = canonical_code(g) == canonical_code(h)
            assert are_isomorphic(g, h) == same_code


def test_automorphism_orders(named_graphs):
    expected = {
        "cube": 48,
        "tetrahedron": 24,
        "prism(6)": 24,
        "truncated_octahedron": 48,
        "chamfered_cube": 48,
        "twisted_chamfered_cube": 12,
        "icosahedron": 120,
        "octahedron": 48,
    }
    for name, order in expected.items():
        assert automorphism_count(named_graphs[name]) == order, name


def test_named_graphs_achiral(named_graphs):
    for name, g in named_graphs.items():
        assert not is_chiral(g), name


def test_partition_matches_explicit_isomorphism():
    """Equal codes exactly for isomorphic maps, against the propagation
    search, over every rooted 4_n with n <= 16 plus relabelled and mirrored
    copies."""
    rng = random.Random(5)
    maps = []
    for g in enumerate_rotation_maps(4, 16):
        maps += [g, shuffled_copy(g, rng), mirror(shuffled_copy(g, rng))]
    codes = [canonical_code(g) for g in maps]
    for (g, cg), (h, ch) in itertools.combinations(zip(maps, codes), 2):
        assert (cg == ch) == are_isomorphic(g, h)


def test_symmetry_matches_dart_maps(symmetry_cases):
    """|Aut| is the number of darts that dart 0 extends to an automorphism
    from, over both orientations; chiral means none lands in the mirror."""
    for name, g0 in symmetry_cases.items():
        for g in (g0, mirror(g0)):
            darts = range(g.dart_count)
            same = sum(_try_dart_map(g.sigma, g.sigma, r) for r in darts)
            flipped = sum(_try_dart_map(g.sigma, mirror(g).sigma, r) for r in darts)
            assert automorphism_count(g) == same + flipped, name
            assert is_chiral(g) == (flipped == 0), name
            rotation_mirror = are_isomorphic(g, mirror(g), include_reflection=False)
            assert is_chiral(g) == (not rotation_mirror), name
    assert is_chiral(symmetry_cases["GC(2,1)"])


def test_canonical_root_code_accepts_exactly_the_minimal_roots(symmetry_cases, rerooted):
    """Rooted at each dart of the map and of its mirror, the map passes the
    canonical-root test |Aut| times, always with the canonical code."""
    for name, g in symmetry_cases.items():
        accepted = [
            code
            for h in (g, mirror(g))
            for d in range(h.dart_count)
            if (code := canonical_root_code(rerooted(h, d))) is not None
        ]
        assert set(accepted) == {canonical_code(g)}, name
        assert len(accepted) == automorphism_count(g), name


def test_chirality_matches_the_oracle(gen4_48, gen5_36, gc_cubes):
    """A map is chiral exactly when no orientation-preserving isomorphism
    carries it to its mirror."""
    for g in gen4_48.graphs + gen5_36.graphs + gc_cubes:
        chiral = canonical_form(g).chiral
        assert type(chiral) is bool
        assert chiral == (not are_isomorphic(g, mirror(g), include_reflection=False))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_form_invariant_under_relabeling_and_mirror(symmetry_cases, data):
    name = data.draw(st.sampled_from(sorted(symmetry_cases)), label="graph")
    g = symmetry_cases[name]
    n = g.n_vertices
    perm = data.draw(st.permutations(range(n)), label="perm")
    shifts = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n), label="shifts")
    h = relabelled(g, perm, shifts)
    form = canonical_form(g)
    assert canonical_form(h) == form
    assert canonical_form(mirror(h)) == form


def test_orbit_walk_matches_the_oracle(
    named_graphs, symmetry_cases, gc_cubes, gen3_20, gen4_48, gen5_36
):
    """The walk that skips roots by orbit gives the code, |Aut| and chirality
    of the walk that runs every tying root, on relabelled and mirrored
    copies too."""
    rng = random.Random(11)
    graphs = [
        *named_graphs.values(),
        *symmetry_cases.values(),
        *gc_cubes,
        *gen3_20.graphs,
        *gen4_48.graphs,
        *gen5_36.graphs,
    ]
    for g in graphs:
        form = canonical_form_oracle(g)
        for h in (g, shuffled_copy(g, rng), mirror(shuffled_copy(g, rng))):
            assert canonical_form(h) == form


def test_orbit_walk_walks_few_roots_of_a_gc_cube(monkeypatch):
    """Every walked root that ties the best adds an automorphism outside the
    group found so far, so the group at least doubles: a GC cube, whose 48
    roots are all minimal or fall in two orbits, walks at most
    2 + log2 |Aut| of them.  A root that beats the best is walked twice,
    by partial_compare and partial_prefix, and counted once."""
    walks = set()  # (rotation table, root)

    def counted(walk):
        def call(sigma, alpha, root, *rest):
            walks.add((id(sigma), root))
            return walk(sigma, alpha, root, *rest)

        return call

    for name in ("partial_prefix", "partial_compare"):
        monkeypatch.setattr(hexcube.canonical, name, counted(getattr(hexcube.canonical, name)))
    for k in range(1, 6):
        for l in range(k + 1):
            if 8 * (k * k + k * l + l * l) > 224:
                continue
            walks.clear()
            form = canonical_form(goldberg_coxeter_cube(k, l))
            assert len(walks) <= 2 + math.ceil(math.log2(form.aut_order)), (k, l)


def test_partial_compare_orders_the_codes_of_a_complete_map(symmetry_cases):
    """On a complete map, read with alpha = d ^ 1, partial_compare of one
    root against another root's partial_prefix code gives the sign of the
    comparison of the two codes, and on a tie its BFS order and the other
    root's, matched position by position, give an automorphism."""
    for name, g in symmetry_cases.items():
        nd = g.dart_count
        alpha = [d ^ 1 for d in range(nd)]
        for sigma in (list(g.sigma), sigma_inverse(g.sigma)):
            walks = [hexcube.canonical.partial_prefix(sigma, alpha, r) for r in range(nd)]
            assert all(stop == -1 and len(code) == 2 * nd for code, stop, _, _ in walks)
            for best, _, _, best_order in walks:
                for root, (code, _, _, order) in enumerate(walks):
                    sign, blocker, walk = hexcube.canonical.partial_compare(
                        sigma, alpha, root, best, -1
                    )
                    assert sign == (code > best) - (code < best), (name, root)
                    assert blocker == -1
                    if sign:
                        continue
                    assert walk[1] == order
                    image = [0] * nd
                    for a, b in zip(best_order, order):
                        image[a] = b
                    assert all(image[sigma[d]] == sigma[image[d]] for d in range(nd)), name
                    assert all(image[d ^ 1] == image[d] ^ 1 for d in range(nd)), name
