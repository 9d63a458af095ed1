from __future__ import annotations

import random

import pytest

from hexcube import GenSpec, PlaneGraph, generate_q6, goldberg_coxeter_cube, make_named
from oracles import relabel

FIVE_EMBEDDABLE = (
    "cube",
    "prism(6)",
    "truncated_octahedron",
    "chamfered_cube",
    "twisted_chamfered_cube",
)


@pytest.fixture(scope="session")
def named_graphs():
    names = FIVE_EMBEDDABLE + (
        "tetrahedron",
        "truncated_tetrahedron",
        "octahedron",
        "icosahedron",
    )
    return {n: make_named(n) for n in names}


@pytest.fixture(scope="session")
def gen4_16():
    return generate_q6(GenSpec(q=4, n_max=16))


@pytest.fixture(scope="session")
def gen4_24():
    return generate_q6(GenSpec(q=4, n_max=24))


@pytest.fixture(scope="session")
def gen4_48():
    return generate_q6(GenSpec(q=4, n_max=48))


@pytest.fixture(scope="session")
def gen5_36():
    return generate_q6(GenSpec(q=5, n_max=36))


@pytest.fixture(scope="session")
def gen3_20():
    return generate_q6(GenSpec(q=3, n_max=20))


@pytest.fixture(scope="session")
def gc_cubes():
    """The Goldberg-Coxeter cubes GC(k,l) with n <= 104, both embeddable
    and not."""
    return [
        goldberg_coxeter_cube(k, l)
        for k in range(1, 4)
        for l in range(k + 1)
        if 8 * (k * k + k * l + l * l) <= 104
    ]


@pytest.fixture(scope="session")
def large_gc_cubes():
    """GC(3,3) (n=216) and GC(4,2) (n=224), relabelled by a fixed seed:
    breadth-first searches twelve levels deep, and a Theta relation on
    about 330 edges that is not transitive."""
    rng = random.Random(7)
    return [relabel(goldberg_coxeter_cube(k, l), rng) for k, l in ((3, 3), (4, 2))]


@pytest.fixture(scope="session")
def rerooted():
    """Renumbers a map's darts so that a given dart d becomes dart 0: edge 0
    and the edge of d swap numbers, and the map is unchanged."""

    def make(g: PlaneGraph, d: int) -> PlaneGraph:
        perm = list(range(g.dart_count))  # old dart -> new dart
        perm[0], perm[1], perm[d], perm[d ^ 1] = d, d ^ 1, 0, 1
        sigma = [0] * g.dart_count
        vertex_of = [0] * g.dart_count
        for x in range(g.dart_count):
            sigma[perm[x]] = perm[g.sigma[x]]
            vertex_of[perm[x]] = g.vertex_of[x]
        return PlaneGraph(sigma=tuple(sigma), vertex_of=tuple(vertex_of))

    return make
