from __future__ import annotations

import io
import itertools
import json
import pickle
from types import SimpleNamespace

import pytest

from hexcube import generator
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
    write_planar_code,
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


def _plc(graphs) -> bytes:
    buf = io.BytesIO()
    write_planar_code(graphs, buf)
    return buf.getvalue()


def _graph_row(g) -> dict:
    return {"sigma": list(g.sigma), "vertex_of": list(g.vertex_of)}


@pytest.mark.parametrize("q, n_max", [(3, 20), (4, 28), (5, 24)])
def test_growth_states_are_distinct_patches(q, n_max):
    """No two incomplete states of the growth tree are the same rooted
    patch, so a dedup of the states could never drop one."""
    growth = generator._Growth(q, n_max)
    keys = set()
    states = 0
    stack = [growth.initial()]
    while stack:
        state = stack.pop()
        if state[5] >= 3 * state[1]:
            continue
        keys.add(growth.rooted_key(state))
        states += 1
        stack.extend(growth.children(state))
    assert states > 1000
    assert len(keys) == states


@pytest.mark.parametrize("q", [4, 5])
def test_split_depth_does_not_change_output(q, monkeypatch):
    spec = GenSpec(q=q, n_max=24)
    runs = []
    for depth in (8, generator.SPLIT_DEPTH, 30):
        monkeypatch.setattr(generator, "SPLIT_DEPTH", depth)
        res = generate_q6(spec)
        runs.append((res.codes, _plc(res.graphs)))
    assert runs[0] == runs[1] == runs[2]


def test_checkpoint_resume(tmp_path):
    path = tmp_path / "ckpt.json"
    spec = GenSpec(q=4, n_max=16)
    generate_q6(spec, checkpoint_path=str(path))
    assert json.loads(path.read_text())["done"] > 0
    # every subtree is finished, so even a zero budget does not truncate
    resumed = generate_q6(spec, budget_seconds=0.0, checkpoint_path=str(path))
    assert not resumed.truncated
    fresh = generate_q6(spec)
    assert resumed.codes == fresh.codes
    assert _plc(resumed.graphs) == _plc(fresh.graphs)


def test_checkpoint_resume_mid_run(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.json"
    spec = GenSpec(q=4, n_max=24)
    fresh = generate_q6(spec)
    # a clock that advances one second per reading: the budget check before
    # subtree i reads i + 1 seconds, so a 5 s budget stops after 5 subtrees
    ticks = itertools.count()
    monkeypatch.setattr(generator, "time", SimpleNamespace(monotonic=lambda: float(next(ticks))))
    cut = generate_q6(spec, budget_seconds=5.0, checkpoint_path=str(path))
    monkeypatch.undo()
    assert cut.truncated
    assert json.loads(path.read_text())["done"] == 5
    assert len(cut.codes) < len(fresh.codes)
    resumed = generate_q6(spec, checkpoint_path=str(path))
    assert not resumed.truncated
    assert resumed.codes == fresh.codes
    assert _plc(resumed.graphs) == _plc(fresh.graphs)


@pytest.fixture
def checkpoint(tmp_path):
    """A finished q=4, n_max=14 run's checkpoint file."""
    path = tmp_path / "ckpt.json"
    generate_q6(GenSpec(q=4, n_max=14), checkpoint_path=str(path))
    return path


def _resume(path):
    return generate_q6(GenSpec(q=4, n_max=14), checkpoint_path=str(path))


def test_checkpoint_truncated_file(checkpoint):
    data = checkpoint.read_bytes()
    checkpoint.write_bytes(data[: len(data) // 2])
    with pytest.raises(CheckpointError, match="not a JSON checkpoint"):
        _resume(checkpoint)


def test_checkpoint_pickle_refused(checkpoint):
    payload = json.loads(checkpoint.read_text())
    checkpoint.write_bytes(pickle.dumps(payload))  # the layout before format 3
    with pytest.raises(CheckpointError, match="not a JSON checkpoint"):
        _resume(checkpoint)


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: p.update(done="1"),
        lambda p: p.update(done=10**6),  # more subtrees than the run has
        lambda p: p.update(graphs={}),
        lambda p: p["graphs"].__setitem__(0, "cube"),
        lambda p: p["graphs"][0].update(sigma=[str(d) for d in p["graphs"][0]["sigma"]]),
        lambda p: p["graphs"][0].update(vertex_of=None),
        # sigma no longer keeps each dart at its vertex
        lambda p: p["graphs"][0]["sigma"].reverse(),
        # a valid map that is not a 4/6 graph
        lambda p: p["graphs"].append(_graph_row(make_named("tetrahedron"))),
    ],
    ids=["done-str", "done-range", "graphs-dict", "graph-str", "sigma-str",
         "vertex_of-null", "not-a-map", "not-q6"],
)
def test_checkpoint_malformed(checkpoint, edit):
    payload = json.loads(checkpoint.read_text())
    edit(payload)
    checkpoint.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError):
        _resume(checkpoint)


def test_checkpoint_version_mismatch(checkpoint):
    payload = json.loads(checkpoint.read_text())
    for version in (None, 2):
        payload["version"] = version
        checkpoint.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="format"):
            _resume(checkpoint)


def test_checkpoint_spec_mismatch(checkpoint):
    with pytest.raises(CheckpointError, match="n_max"):
        generate_q6(GenSpec(q=4, n_max=18), checkpoint_path=str(checkpoint))


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(q=7, n_max=10)
    with pytest.raises(ValueError):
        GenSpec(q=4, n_max=10, filters=("no_such",))
