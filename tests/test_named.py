from __future__ import annotations

import pytest

from hexcube import PlaneGraph, canonical_code, face_vector, is_q6, make_named, named_graph_names
from hexcube.named import _twisted_faces, prism


def test_vertex_counts(named_graphs):
    expected = {
        "cube": 8,
        "tetrahedron": 4,
        "octahedron": 6,
        "icosahedron": 12,
        "truncated_tetrahedron": 12,
        "truncated_octahedron": 24,
        "chamfered_cube": 32,
        "twisted_chamfered_cube": 32,
        "prism(6)": 12,
    }
    for name, n in expected.items():
        assert named_graphs[name].n_vertices == n


def test_face_vectors(named_graphs):
    assert face_vector(named_graphs["truncated_octahedron"]) == {4: 6, 6: 8}
    assert face_vector(named_graphs["chamfered_cube"]) == {4: 6, 6: 12}
    assert face_vector(named_graphs["twisted_chamfered_cube"]) == {4: 6, 6: 12}
    assert face_vector(named_graphs["icosahedron"]) == {3: 20}
    assert is_q6(named_graphs["twisted_chamfered_cube"], 4)
    assert is_q6(named_graphs["truncated_tetrahedron"], 3)


def test_prism_counts():
    for k in (3, 4, 5, 8):
        g = prism(k)
        assert g.n_vertices == 2 * k
        fv = face_vector(g)
        if k == 4:
            assert fv == {4: 6}
        else:
            assert fv[4] == k and fv[k] == 2
    with pytest.raises(ValueError):
        prism(2)


def test_prism4_is_cube(named_graphs):
    assert canonical_code(prism(4)) == canonical_code(named_graphs["cube"])


def test_belt_reglue_shift_parity(named_graphs):
    cc = canonical_code(named_graphs["chamfered_cube"])
    tcc = canonical_code(named_graphs["twisted_chamfered_cube"])
    assert cc != tcc
    for shift in range(6):
        code = canonical_code(PlaneGraph.from_faces(_twisted_faces(shift)))
        assert code == (cc if shift % 2 == 0 else tcc)


def test_make_named_parsing():
    assert make_named("prism(6)").n_vertices == 12
    assert make_named("Cube").n_vertices == 8
    with pytest.raises(ValueError):
        make_named("dodecahedron")


def test_every_listed_name_is_accepted():
    for name in named_graph_names():
        assert make_named(name).n_vertices >= 4
    # the prism family is named by its literal K, which the error text gives
    with pytest.raises(ValueError, match=r"or prism\(K\) with K >= 3"):
        make_named("prism(k)")
