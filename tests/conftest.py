from __future__ import annotations

import pytest

from hexcube import GenSpec, generate_q6, goldberg_coxeter_cube, make_named

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
