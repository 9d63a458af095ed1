from __future__ import annotations

import io
import itertools
import json
import pickle
import time
from types import SimpleNamespace

import pytest

from hexcube import generator
from hexcube import (
    CheckpointError,
    GenSpec,
    InvariantError,
    PlaneGraph,
    all_pairs_distances,
    canonical_code,
    five_gonal_scan,
    generate_q6,
    is_q6,
    is_three_connected,
    make_named,
    recognize_partial_cube,
    write_planar_code,
    zone_clean,
)
from hexcube.canonical import canonical_root_code
from oracles import enumerate_rotation_maps

# class counts cross-checked against the independent matching enumerator
EXPECTED_COUNTS_Q4 = {8: 1, 12: 1, 14: 1, 16: 1, 18: 1, 20: 3, 22: 1, 24: 3}
EXPECTED_COUNTS_Q3 = {4: 1, 8: 1, 12: 2, 16: 3, 20: 2}
# per-n counts of the 4_n with n <= 48 as the generator gave them before it
# grew from canonical roots: regression anchors, not independent ones
REGRESSION_COUNTS_Q4_48 = {
    8: 1, 12: 1, 14: 1, 16: 1, 18: 1, 20: 3, 22: 1, 24: 3, 26: 3, 28: 3,
    30: 2, 32: 8, 34: 3, 36: 7, 38: 7, 40: 7, 42: 5, 44: 14, 46: 6, 48: 12,
}
# isomer counts of the fullerenes C20..C36 (Fowler and Manolopoulos, An
# Atlas of Fullerenes); there is no C22
FULLERENE_COUNTS = {20: 1, 22: 0, 24: 1, 26: 1, 28: 2, 30: 3, 32: 6, 34: 6, 36: 15}


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


def test_fullerene_counts_to_36(gen5_36):
    assert gen5_36.counts == {n: c for n, c in FULLERENE_COUNTS.items() if c}
    assert not gen5_36.truncated


def test_counts_q4_to_48(gen4_48):
    assert gen4_48.counts == REGRESSION_COUNTS_Q4_48
    assert not gen4_48.truncated


@pytest.mark.parametrize("gen, n_max", [("gen4_48", 32), ("gen5_36", 28)])
def test_outputs_match_networkx(gen, n_max, request):
    """Whitney: a 3-connected planar graph has one embedding up to
    reflection, so distinct classes of 3-connected maps are distinct graphs."""
    nx = pytest.importorskip("networkx")
    by_n: dict[int, list] = {}
    for g in request.getfixturevalue(gen).graphs:
        if g.n_vertices <= n_max and is_three_connected(g):
            nxg = nx.Graph(g.edge_endpoints(e) for e in range(g.n_edges))
            assert nx.check_planarity(nxg)[0]
            by_n.setdefault(g.n_vertices, []).append(nxg)
    assert any(len(graphs) > 1 for graphs in by_n.values())  # a pair to compare
    for graphs in by_n.values():
        for a, b in itertools.combinations(graphs, 2):
            assert not nx.is_isomorphic(a, b)


class _Uncut(generator._Growth):
    """The growth without the prefix cut: the oracle walk of the tests.
    Its completions are every rooted map, so canonical_root_code picks the
    representatives among them."""

    def _judge(self, alpha, watch, prefix, d, e, roots):
        return watch, prefix


def _completions(growth):
    """The completed maps of growth's tree, in the walk's order."""
    return [growth.finish(s) for s in _growth_tree(growth) if generator._is_complete(s)]


@pytest.mark.parametrize("q, n_max", [(3, 20), (4, 32), (5, 28)])
def test_one_accepted_completion_per_class(q, n_max):
    """Every class the growth completes has exactly one completion that the
    canonical-root test accepts, with the prefix cut and without it, and
    the classes are the output's."""
    codes = set(generate_q6(GenSpec(q=q, n_max=n_max)).codes)
    for growth in (generator._Growth(q, n_max), _Uncut(q, n_max)):
        accepted: dict[bytes, int] = {}
        completions = _completions(growth)
        for g in completions:
            key = canonical_code(g)
            accepted[key] = accepted.get(key, 0) + (canonical_root_code(g) is not None)
        assert set(accepted.values()) == {1}
        assert set(accepted) == codes
    assert len(completions) > len(codes)  # the uncut walk turned some completions away


@pytest.mark.parametrize("q, n_max", [(3, 32), (4, 40), (5, 32)])
def test_cut_keeps_the_classes(q, n_max):
    """The output codes, in order, are those that the canonical-root test
    accepts on the uncut walk."""
    res = generate_q6(GenSpec(q=q, n_max=n_max))
    accepted = [(g.n_vertices, canonical_root_code(g)) for g in _completions(_Uncut(q, n_max))]
    assert [code for _, code in sorted(row for row in accepted if row[1])] == res.codes


@pytest.mark.parametrize("q, n_max", [(3, 32), (4, 40), (5, 32)])
def test_every_completion_is_kept_with_its_canonical_code(q, n_max, monkeypatch):
    """Every completion of the cut tree is kept: no root waits in its watch,
    and the code the growth reads from dart 0's prefix is the one the
    canonical-root test gives the finished map."""
    finish = generator._Growth.finish
    states = {}

    def recording(self, state):
        g = finish(self, state)
        states[id(g)] = state
        return g

    monkeypatch.setattr(generator._Growth, "finish", recording)
    res = generate_q6(GenSpec(q=q, n_max=n_max))
    assert len(states) == len(res.graphs)
    for g, code in zip(res.graphs, res.codes):
        assert states[id(g)][6] == {}
        assert code == canonical_root_code(g)


def test_a_root_left_waiting_raises(monkeypatch):
    """A completion that reaches _walk_subtree with a root still waiting for
    its comparison with dart 0 is an error, not a kept map."""
    children = generator._Growth.children

    def waiting(self, state):
        out = children(self, state)
        return [c[:6] + ({0: ((1, None),)},) + c[7:] if generator._is_complete(c) else c
                for c in out]

    monkeypatch.setattr(generator._Growth, "children", waiting)
    with pytest.raises(InvariantError, match="waiting"):
        generate_q6(GenSpec(q=4, n_max=16))


class _RecordingCuts(generator._Growth):
    """The growth, keeping every state that its own judgement cuts."""

    def __init__(self, q, n_max):
        super().__init__(q, n_max)
        self.cut = []

    def settle(self, state):
        settled = super().settle(state)
        if settled is None:
            self.cut.append(state)
        return settled


@pytest.mark.parametrize("q, n_max, every", [(3, 32, 1), (4, 28, 1), (5, 24, 1), (4, 40, 7)])
def test_no_completion_below_a_cut_state_is_canonical(q, n_max, every):
    """Every state that its own judgement cuts (every one at the smaller
    sizes, each 7th at (4, 40)), whether it is judged when it is expanded or,
    being a completion, when it is made, roots an uncut subtree none of whose
    completions passes the canonical-root test: each cut is certified."""
    growth = _RecordingCuts(q, n_max)
    uncut = _Uncut(q, n_max)
    for _ in _growth_tree(growth):
        pass
    assert any(not generator._is_complete(state) for state in growth.cut)
    for state in growth.cut[::every]:
        for below in _growth_tree(uncut, state):
            if generator._is_complete(below):
                assert canonical_root_code(uncut.finish(below)) is None


def test_a_dead_end_is_never_judged(monkeypatch):
    """A state with no legal extension has no completion below it, so its
    judgement could not change the output: in a run at (5, 32), no state
    whose partner loop finds no legal extension is passed to _judge, save
    the roots of units, which are judged before they are expanded so that
    the unit list does not depend on when states are judged."""
    uncut = _Uncut(5, 32)
    judge, children = generator._Growth._judge, generator._Growth.children
    judged, dead_ends = set(), set()

    def judging(self, alpha, watch, prefix, d, e, roots):
        judged.add(tuple(alpha))
        return judge(self, alpha, watch, prefix, d, e, roots)

    def expanding(self, state):
        alpha = state[0]
        edges = (len(alpha) - alpha.count(-1)) // 2
        if edges != generator.SPLIT_DEPTH and not children(uncut, state):
            dead_ends.add(tuple(alpha))
        return children(self, state)

    monkeypatch.setattr(generator._Growth, "_judge", judging)
    monkeypatch.setattr(generator._Growth, "children", expanding)
    generate_q6(GenSpec(q=5, n_max=32))
    assert len(dead_ends) > 1000 and len(judged) > 1000
    assert not dead_ends & judged


@pytest.mark.parametrize("gen", ["gen3_20", "gen4_48", "gen5_36"])
def test_outputs_are_canonical_root_representatives(gen, request):
    for g in request.getfixturevalue(gen).graphs:
        assert canonical_root_code(g) == canonical_code(g)


def test_repeated_code_raises(monkeypatch):
    """A growth that completed one rooted map twice would keep its class
    twice; the repeated code is caught."""
    children = generator._Growth.children

    def twice(self, state):
        out = children(self, state)
        return [c for c in out for _ in range(1 + generator._is_complete(c))]

    monkeypatch.setattr(generator._Growth, "children", twice)
    with pytest.raises(InvariantError, match="canonical code"):
        generate_q6(GenSpec(q=4, n_max=16))


def test_walk_resumes_dart_0s_prefix():
    """A completion whose dart-0 prefix stops at a dart matched since is kept
    with that prefix walked on to the end.  Unit 7 of q=4, n_max=88 holds
    one such completion (n=82) among its 306, and every row's code is the
    one the canonical-root test gives the finished map."""
    finished = []

    class Recording(generator._Growth):
        def finish(self, state):
            finished.append(state)
            return super().finish(state)

    growth = Recording(4, 88)
    units = generator._descend(growth, growth.initial(), generator.SPLIT_DEPTH - 1)
    unit = [state for state in units if state is not None][7]
    rows, cut = generator._walk_subtree(growth, unit, lambda: False)
    assert not cut and len(rows) == 306
    assert any(state[7][1] >= 0 for state in finished)
    for _, code, g in rows:
        assert code == canonical_root_code(g)


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


def _clock_of_expanded_states(monkeypatch):
    """Make the generator's clock read the number of states expanded so far,
    in seconds; returns a one-item list holding that number."""
    expanded = [0]
    children = generator._Growth.children

    def counting(self, state):
        expanded[0] += 1
        return children(self, state)

    monkeypatch.setattr(generator._Growth, "children", counting)
    monkeypatch.setattr(generator, "time", SimpleNamespace(monotonic=lambda: float(expanded[0])))
    return expanded


def test_budget_is_read_inside_a_subtree(monkeypatch):
    """The first subtree of q=4, n_max=140 runs for seconds; the clock is
    read every CLOCK_EVERY states inside it, so the run stops at most that
    many states past its budget."""
    expanded = _clock_of_expanded_states(monkeypatch)
    res = generate_q6(GenSpec(q=4, n_max=140), budget_seconds=5000.0)
    assert res.truncated
    assert 5000 < expanded[0] <= 5000 + generator.CLOCK_EVERY


def test_budget_bounds_a_real_run():
    start = time.monotonic()
    res = generate_q6(GenSpec(q=4, n_max=140), budget_seconds=0.2)
    assert res.truncated
    assert time.monotonic() - start < 5.0  # a whole subtree took seconds


def test_checkpoint_after_a_cut_inside_a_subtree(tmp_path, monkeypatch):
    """A subtree cut by the budget does not count as done: the checkpoint
    keeps the subtrees finished before it, and resuming from it gives the
    full run."""
    spec = GenSpec(q=4, n_max=28)
    fresh = generate_q6(spec)
    every = 16
    monkeypatch.setattr(generator, "CLOCK_EVERY", every)
    expanded = _clock_of_expanded_states(monkeypatch)
    # the clock reading at the end of each subtree of an uncut run
    ends = []
    save = generator._save_checkpoint

    def recording(path, spec, done, rows):
        ends.append(expanded[0])
        save(path, spec, done, rows)

    monkeypatch.setattr(generator, "_save_checkpoint", recording)
    generate_q6(spec, checkpoint_path=str(tmp_path / "uncut.json"))
    # a subtree of more than CLOCK_EVERY states; its first clock reading
    # inside it is past a budget that ends where it starts
    cut = next(i for i in range(1, len(ends)) if ends[i] - ends[i - 1] > every)
    path = tmp_path / "ckpt.json"
    expanded[0] = 0
    res = generate_q6(spec, budget_seconds=float(ends[cut - 1]), checkpoint_path=str(path))
    assert res.truncated
    assert expanded[0] <= ends[cut - 1] + every < ends[cut]
    assert json.loads(path.read_text())["done"] == cut
    monkeypatch.undo()
    resumed = generate_q6(spec, checkpoint_path=str(path))
    assert not resumed.truncated
    assert resumed.codes == fresh.codes
    assert _plc(resumed.graphs) == _plc(fresh.graphs)


def _plc(graphs) -> bytes:
    buf = io.BytesIO()
    write_planar_code(graphs, buf)
    return buf.getvalue()


def _graph_row(g, subtree: int = 0) -> dict:
    return {"subtree": subtree, "sigma": list(g.sigma), "vertex_of": list(g.vertex_of)}


def _row_graph(row: dict) -> PlaneGraph:
    return PlaneGraph(sigma=tuple(row["sigma"]), vertex_of=tuple(row["vertex_of"]))


def _growth_tree(growth, root=None):
    """Every state of the growth tree below root (the initial state by
    default), parents before their children."""
    stack = [growth.initial() if root is None else root]
    while stack:
        state = stack.pop()
        yield state
        if not generator._is_complete(state):
            stack.extend(growth.children(state))


@pytest.mark.parametrize("q, n_max", [(3, 32), (4, 28), (5, 24)])
def test_growth_states_are_distinct_patches(q, n_max):
    """No two incomplete states of the growth tree are the same rooted
    patch, so a dedup of the states could never drop one.  The uncut tree
    is checked, and the cut tree is a part of it."""
    uncut, cut = (
        [growth.rooted_key(s) for s in _growth_tree(growth) if not generator._is_complete(s)]
        for growth in (_Uncut(q, n_max), generator._Growth(q, n_max))
    )
    assert len(uncut) > 1000
    assert len(set(uncut)) == len(uncut)
    assert set(cut) < set(uncut) and len(set(cut)) == len(cut)


def _face_walks(alpha):
    """The open chains, as (head, tail, darts), and the closed faces, as
    dart lists, of a partial map, walked from alpha alone."""
    nd = len(alpha)
    succ = [3 * (a // 3) + (a + 1) % 3 if a >= 0 else None for a in alpha]
    has_pred = {x for x in succ if x is not None}
    chains, on_chain = [], set()
    for head in range(nd):
        if head in has_pred:
            continue
        darts = [head]
        while succ[darts[-1]] is not None:
            darts.append(succ[darts[-1]])
        chains.append((head, darts[-1], darts))
        on_chain.update(darts)
    faces, seen = [], set(on_chain)
    for start in range(nd):
        if start not in seen:
            face = [start]
            while succ[face[-1]] != start:
                face.append(succ[face[-1]])
            faces.append(face)
            seen.update(face)
    return chains, faces


# incomplete states listed, those of them that their own judgement keeps,
# and completions of the growth tree.  The prefix cut drops every state
# below which another root of a closed q-gon is certain to beat dart 0, and
# the partners of d are the tails around d's open face, so each class is
# completed once (test_cut_keeps_the_classes checks the codes against the
# uncut walk).  An incomplete state is judged when it is expanded, so the
# states it cuts are listed too; the kept ones are the tree that judged
# each state as it was made.  Without the cut and with every unmatched dart
# as a partner the tree held (1034, 56), (4240, 140), (8333, 6) and
# (71512, 307) incomplete states and completions.
GROWTH_TREE_SIZES = {
    (3, 32): (538, 468, 20),
    (4, 28): (903, 800, 18),
    (5, 24): (1782, 1306, 2),
    (5, 32): (5499, 4358, 14),
}


@pytest.mark.parametrize("q, n_max", list(GROWTH_TREE_SIZES))
def test_chain_tables_match_a_walk_of_alpha(q, n_max):
    """At every state of the tree, the chain tables give each open chain's
    other end and length (offset on the chain of dart 0), the next fresh
    vertex's darts are one-dart chains, and count_q counts the closed
    q-gons.  Every completion is simple: no loop and no vertex pair joined
    twice, although the growth never tests for either."""
    root = generator._ROOT_FACE
    growth = generator._Growth(q, n_max)
    incomplete = kept = complete = 0
    for state in _growth_tree(growth):
        alpha, _, count_q, low, other, clen, _, _, _ = state
        chains, faces = _face_walks(alpha)
        for head, tail, darts in chains:
            length = len(darts) + (root if 0 in darts else 0)
            assert (other[head], other[tail]) == (tail, head)
            assert clen[head] == clen[tail] == length
        nd = len(alpha)
        assert len(other) == len(clen) == nd + 3
        assert other[nd:] == [nd, nd + 1, nd + 2] and clen[nd:] == [1, 1, 1]
        assert count_q == sum(len(face) == q for face in faces)
        if low >= nd:
            assert not chains
            assert all(alpha[d] // 3 != d // 3 for d in range(nd))
            edges = {frozenset((d // 3, alpha[d] // 3)) for d in range(nd)}
            assert len(edges) == nd // 2
            complete += 1
        else:
            incomplete += 1
            kept += growth.settle(state) is not None
    assert (incomplete, kept, complete) == GROWTH_TREE_SIZES[q, n_max]


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
    payload = json.loads(path.read_text())
    assert payload["done"] > 0
    # every unit is finished, so even a zero budget does not truncate
    resumed = generate_q6(spec, budget_seconds=0.0, checkpoint_path=str(path))
    assert not resumed.truncated
    fresh = generate_q6(spec)
    # the rows hold each class of the run once, with the cube and the
    # 6-prism, completed above the split depth
    rows = [_row_graph(row) for row in payload["graphs"]]
    assert sorted(map(canonical_code, rows)) == sorted(fresh.codes)
    assert {canonical_code(make_named(name)) for name in ("cube", "prism(6)")} <= set(fresh.codes)
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
        lambda p: p["graphs"][0].pop("subtree"),
        lambda p: p["graphs"][0].update(subtree=-1),
        # sigma no longer keeps each dart at its vertex
        lambda p: p["graphs"][0]["sigma"].reverse(),
        # a valid map that is not a 4/6 graph
        lambda p: p["graphs"].append(_graph_row(make_named("tetrahedron"))),
    ],
    ids=["done-str", "done-range", "graphs-dict", "graph-str", "sigma-str",
         "vertex_of-null", "subtree-missing", "subtree-negative", "not-a-map", "not-q6"],
)
def test_checkpoint_malformed(checkpoint, edit):
    payload = json.loads(checkpoint.read_text())
    edit(payload)
    checkpoint.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError):
        _resume(checkpoint)


def test_checkpoint_version_mismatch(checkpoint):
    payload = json.loads(checkpoint.read_text())
    # format 3 numbered the subtrees of the growth without root-face pruning,
    # format 4 rows carry no subtree index, format 5 numbered the subtrees of
    # the growth without the prefix cut, and format 6 did not count the
    # completions above the split depth as units
    for version in (None, 2, 3, 4, 5, 6):
        payload["version"] = version
        checkpoint.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="format"):
            _resume(checkpoint)


def test_checkpoint_graph_not_at_canonical_root(checkpoint, rerooted):
    payload = json.loads(checkpoint.read_text())
    # the first row with a hexagon (the cube, in row 0, has none)
    i, g = next((i, g) for i, g in enumerate(map(_row_graph, payload["graphs"]))
                if any(len(f) == 6 for f in g.faces))
    on_hexagon = next(f[0] for f in g.faces if len(f) == 6)
    payload["graphs"][i] = _graph_row(rerooted(g, on_hexagon))
    checkpoint.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="canonical root"):
        _resume(checkpoint)


@pytest.fixture(scope="module")
def checkpoint_24(tmp_path_factory):
    """The bytes of a finished q=4, n_max=24 run's checkpoint: 16 units,
    whose graphs were accepted in units 0 to 13."""
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
    generate_q6(GenSpec(q=4, n_max=24), checkpoint_path=str(path))
    return path.read_bytes()


def _twice_in_file(payload) -> None:
    payload["graphs"].append(payload["graphs"][0])
    payload["done"] = 14  # units 14 and 15 accept no class


def _in_a_wrong_unit(payload) -> None:
    # the class of unit 13 (the last row), given to unit 0 of a file whose
    # units 0 and 1 are done
    last = payload["graphs"][-1]
    payload["graphs"] = [row for row in payload["graphs"] if row["subtree"] < 2]
    payload["graphs"].append(dict(last, subtree=0))
    payload["done"] = 2


@pytest.mark.parametrize(
    "edit, match",
    [(_twice_in_file, "repeats"), (_in_a_wrong_unit, "wrong subtree")],
    ids=["twice-in-file", "wrong-subtree"],
)
def test_checkpoint_repeated_class(tmp_path, checkpoint_24, edit, match):
    """A class twice in the file is refused on load, before any save.  A
    class of the file that a later unit meets again is refused when that
    unit is walked, after the units before it were saved; the file is then
    written back as it was loaded.  Either way the refused file is left
    with the bytes it had."""
    payload = json.loads(checkpoint_24)
    edit(payload)
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(payload))
    before = path.read_bytes()
    with pytest.raises(CheckpointError, match=match):
        generate_q6(GenSpec(q=4, n_max=24), checkpoint_path=str(path))
    assert path.read_bytes() == before


@pytest.mark.parametrize("done", [0, 5, 10, 11])
def test_checkpoint_done_too_low(tmp_path, checkpoint_24, done):
    """A finished run's graphs with 'done' set back below the subtree of
    some graph are refused on load, before any subtree runs, so the file is
    never saved over."""
    payload = json.loads(checkpoint_24)
    assert max(row["subtree"] for row in payload["graphs"]) >= done
    payload["done"] = done
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(payload))
    before = path.read_bytes()
    with pytest.raises(CheckpointError, match="'done' is too low"):
        generate_q6(GenSpec(q=4, n_max=24), checkpoint_path=str(path))
    assert path.read_bytes() == before


def test_checkpoint_spec_mismatch(checkpoint):
    with pytest.raises(CheckpointError, match="n_max"):
        generate_q6(GenSpec(q=4, n_max=18), checkpoint_path=str(checkpoint))


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(q=7, n_max=10)
