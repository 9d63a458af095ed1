from __future__ import annotations

import pytest

import hexcube.goldberg
from hexcube import (
    InvariantError,
    all_pairs_distances,
    automorphism_count,
    canonical_code,
    face_vector,
    five_gonal_scan,
    goldberg_coxeter_cube,
    is_chiral,
    is_q6,
    recognize_partial_cube,
    zone_clean,
)
from oracles import are_isomorphic

CASES = [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1)]


@pytest.mark.parametrize("k,l", CASES)
def test_subdivision_is_square_hex_cubic(k, l):
    g = goldberg_coxeter_cube(k, l)
    t = k * k + k * l + l * l
    assert g.n_vertices == 8 * t
    assert is_q6(g, 4)
    assert face_vector(g)[4] == 6


def test_invariant_error_on_wrong_subdivision(monkeypatch):
    """The dual of the subdivided octahedron is always a square/hexagon map
    on 8t vertices, so a failed check can only come from a fault."""
    monkeypatch.setattr(hexcube.goldberg, "is_q6", lambda g, q: False)
    with pytest.raises(InvariantError, match=r"GC\(2,1\)"):
        goldberg_coxeter_cube(2, 1)


def test_identity_case_is_cube(named_graphs):
    assert canonical_code(goldberg_coxeter_cube(1, 0)) == canonical_code(
        named_graphs["cube"]
    )


def test_one_one_is_truncated_octahedron(named_graphs):
    assert canonical_code(goldberg_coxeter_cube(1, 1)) == canonical_code(
        named_graphs["truncated_octahedron"]
    )


def test_two_zero_is_chamfered_cube(named_graphs):
    assert canonical_code(goldberg_coxeter_cube(2, 0)) == canonical_code(
        named_graphs["chamfered_cube"]
    )


def test_achiral_members_have_full_symmetry_and_clean_zones():
    for k, l in ((1, 0), (1, 1), (2, 0), (2, 2), (3, 0)):
        g = goldberg_coxeter_cube(k, l)
        assert automorphism_count(g) == 48
        assert not is_chiral(g)
        assert zone_clean(g)


def test_chiral_members_have_rotation_group_only():
    # k > l > 0 is the chiral regime: 24 rotations, no reflections
    for k, l in ((2, 1), (3, 1)):
        g = goldberg_coxeter_cube(k, l)
        assert automorphism_count(g) == 24
        assert is_chiral(g)


def test_mirror_pair_same_class():
    # (l, k) parameters are rejected as input; the mirror of (2,1) is
    # reflection-equivalent to it under the default canonical code
    from hexcube.plane_graph import mirror

    g = goldberg_coxeter_cube(2, 1)
    assert canonical_code(mirror(g)) == canonical_code(g)
    # but no orientation-preserving isomorphism joins the two
    assert not are_isomorphic(mirror(g), g, include_reflection=False)


def test_larger_achiral_member_not_embeddable_but_clean():
    g = goldberg_coxeter_cube(3, 0)
    assert g.n_vertices == 72
    assert zone_clean(g)
    assert not recognize_partial_cube(g)
    # bipartite equivalence: failure must come with a 5-gonal violation
    assert five_gonal_scan(all_pairs_distances(g), stop_at_first=True)


def test_invalid_parameters():
    for k, l in ((0, 0), (1, 2), (-1, 0), (2, -1), (True, False), (2.0, 1), (2, "1")):
        with pytest.raises(ValueError):
            goldberg_coxeter_cube(k, l)
