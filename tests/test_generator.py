from __future__ import annotations

import pickle

import pytest

from hexcube import (
    CheckpointError,
    GenSpec,
    all_pairs_distances,
    canonical_code,
    enumerate_rotation_maps,
    five_gonal_scan,
    generate_q6,
    is_q6,
    is_three_connected,
    make_named,
    recognize_partial_cube,
    zone_clean,
)

# class counts cross-checked against the independent matching enumerator
EXPECTED_COUNTS_Q4 = {8: 1, 12: 1, 14: 1, 16: 1, 18: 1, 20: 3, 22: 1, 24: 3}
EXPECTED_COUNTS_Q3 = {4: 1, 8: 1, 12: 2, 16: 3, 20: 2}


def test_counts_q4(gen4_24):
    assert gen4_24.counts == EXPECTED_COUNTS_Q4
    assert not gen4_24.truncated


def test_counts_q3(gen3_20):
    assert gen3_20.counts == EXPECTED_COUNTS_Q3


def test_unique_smallest_is_cube(gen4_16):
    smallest = [g for g in gen4_16.graphs if g.n_vertices == 8]
    assert len(smallest) == 1
    assert canonical_code(smallest[0]) == canonical_code(make_named("cube"))


def test_prism_and_twist_members(gen4_24, named_graphs):
    codes = set(gen4_24.codes)
    assert canonical_code(named_graphs["prism(6)"]) in codes
    assert canonical_code(named_graphs["truncated_octahedron"]) in codes


def test_twisted_pair_generated_distinct():
    res = generate_q6(GenSpec(q=4, n_max=32))
    codes = set(res.codes)
    cc = canonical_code(make_named("chamfered_cube"))
    tcc = canonical_code(make_named("twisted_chamfered_cube"))
    assert cc in codes and tcc in codes and cc != tcc
    assert res.counts[32] == 8


def test_all_outputs_valid(gen4_24):
    for g in gen4_24.graphs:
        assert is_q6(g, 4)


def test_oracle_equivalence_small_q4(gen4_16):
    oracle = {canonical_code(g) for g in enumerate_rotation_maps(4, 16)}
    assert oracle == set(gen4_16.codes)


def test_oracle_equivalence_small_q3(gen3_20):
    oracle = {canonical_code(g) for g in enumerate_rotation_maps(3, 12)}
    mine = {c for c, g in zip(gen3_20.codes, gen3_20.graphs) if g.n_vertices <= 12}
    assert oracle == mine


def test_fullerene_sanity_counts():
    res = generate_q6(GenSpec(q=5, n_max=24))
    assert res.counts == {20: 1, 24: 1}


def test_triangle_family_facts(gen3_20, named_graphs):
    assert gen3_20.codes[0] == canonical_code(named_graphs["tetrahedron"])
    # the single graph with eight vertices: diameter 3, a cut pair, not 5-gonal
    g38 = [g for g in gen3_20.graphs if g.n_vertices == 8]
    assert len(g38) == 1
    dist = all_pairs_distances(g38[0])
    assert dist.max() == 3
    assert not is_three_connected(g38[0])
    assert five_gonal_scan(dist, stop_at_first=True)
    assert canonical_code(named_graphs["truncated_tetrahedron"]) in set(gen3_20.codes)


def test_no_triangle_graph_embeds_beyond_tetrahedron(gen3_20):
    for g in gen3_20.graphs:
        if g.n_vertices > 4:
            assert not recognize_partial_cube(g)


def test_monotone_filter_soundness(gen4_24):
    for g in gen4_24.graphs:
        if recognize_partial_cube(g):
            assert zone_clean(g)
            assert not five_gonal_scan(all_pairs_distances(g), stop_at_first=True)


def test_determinism(gen4_16):
    again = generate_q6(GenSpec(q=4, n_max=16))
    assert again.codes == gen4_16.codes


def test_budget_truncation():
    res = generate_q6(GenSpec(q=4, n_max=40), budget_seconds=0.0)
    assert res.truncated


def test_checkpoint_resume(tmp_path):
    path = str(tmp_path / "ckpt.pickle")
    generate_q6(GenSpec(q=4, n_max=14), checkpoint_path=path)
    resumed = generate_q6(GenSpec(q=4, n_max=14), checkpoint_path=path)
    fresh = generate_q6(GenSpec(q=4, n_max=14))
    assert resumed.codes == fresh.codes


def test_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "ckpt.pickle"
    generate_q6(GenSpec(q=4, n_max=12), checkpoint_path=str(path))
    payload = pickle.loads(path.read_bytes())
    del payload["version"]  # the layout written before versioning
    path.write_bytes(pickle.dumps(payload))
    with pytest.raises(CheckpointError, match="format"):
        generate_q6(GenSpec(q=4, n_max=12), checkpoint_path=str(path))


def test_checkpoint_spec_mismatch(tmp_path):
    path = str(tmp_path / "ckpt.pickle")
    generate_q6(GenSpec(q=4, n_max=12), checkpoint_path=path)
    with pytest.raises(CheckpointError, match="n_max"):
        generate_q6(GenSpec(q=4, n_max=14), checkpoint_path=path)


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(q=7, n_max=10)
    with pytest.raises(ValueError):
        GenSpec(q=4, n_max=10, filters=("no_such",))
