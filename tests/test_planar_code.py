from __future__ import annotations

import contextlib
import io
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hexcube import (
    PlanarCodeError,
    PlaneGraph,
    canonical_code,
    graph_to_planar_code,
    make_named,
    read_planar_code,
    to_dot,
    write_planar_code,
)
from hexcube.cli import main
from hexcube.planar_code import HEADER


def test_round_trip(named_graphs):
    graphs = list(named_graphs.values())
    buf = io.BytesIO()
    write_planar_code(graphs, buf)
    buf.seek(0)
    back = read_planar_code(buf)
    assert len(back) == len(graphs)
    for g, h in zip(graphs, back):
        assert canonical_code(g) == canonical_code(h)


def test_round_trip_is_byte_stable(named_graphs):
    g = named_graphs["truncated_octahedron"]
    blob = graph_to_planar_code(g)
    back = read_planar_code(io.BytesIO(blob))
    assert graph_to_planar_code(back[0]) == blob


def test_header_optional(named_graphs):
    blob = graph_to_planar_code(named_graphs["cube"])
    assert len(read_planar_code(io.BytesIO(blob))) == 1
    assert len(read_planar_code(io.BytesIO(HEADER + blob))) == 1


def test_bad_neighbor_byte_offset():
    # n=2 but a neighbor byte of 3
    blob = bytes([2, 3, 0, 1, 0])
    with pytest.raises(PlanarCodeError) as err:
        read_planar_code(io.BytesIO(blob))
    assert err.value.offset == 1
    assert "offset" in str(err.value)


def test_truncated_stream():
    blob = bytes([4, 2, 3])
    with pytest.raises(PlanarCodeError):
        read_planar_code(io.BytesIO(blob))


def test_large_graph_rejected_on_write():
    class Fake:
        n_vertices = 256

    with pytest.raises(ValueError):
        graph_to_planar_code(Fake())
    # nothing is written, not even the header
    buf = io.BytesIO()
    with pytest.raises(ValueError):
        write_planar_code([Fake()], buf)
    assert buf.getvalue() == b""


def test_dot_export(named_graphs):
    g = named_graphs["cube"]
    dot = to_dot(g)
    assert dot.startswith("graph G {")
    assert dot.count(" -- ") == g.n_edges


def _relabel(g: PlaneGraph, seed: int) -> PlaneGraph:
    """The same map with its vertices renumbered and each rotation started
    at another neighbor, both chosen by the seed."""
    rng = random.Random(seed)
    perm = list(range(g.n_vertices))
    rng.shuffle(perm)
    rows = [None] * g.n_vertices
    for v, nbrs in enumerate(g.neighbors):
        k = rng.randrange(len(nbrs))
        rows[perm[v]] = [perm[w] for w in nbrs[k:] + nbrs[:k]]
    return PlaneGraph.from_rotations(rows)


@settings(max_examples=60, deadline=None)
@given(pick=st.integers(min_value=0), seed=st.integers(min_value=0))
def test_write_read_write_is_byte_stable_under_relabelling(gen3_20, gen4_24, pick, seed):
    graphs = gen3_20.graphs + gen4_24.graphs
    g = _relabel(graphs[pick % len(graphs)], seed)
    blob = graph_to_planar_code(g)
    back = read_planar_code(io.BytesIO(blob))
    assert len(back) == 1
    assert graph_to_planar_code(back[0]) == blob
    assert canonical_code(back[0]) == canonical_code(g)


# a valid stream: the header and three maps
VALID_STREAM = HEADER + b"".join(
    graph_to_planar_code(make_named(name)) for name in ("tetrahedron", "cube", "prism(6)")
)

# one edit: (kind, position, byte)
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "delete", "truncate"]),
        st.integers(min_value=0),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=4,
)


def _edit(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for kind, pos, byte in edits:
        pos %= len(out) + 1
        if kind == "insert":
            out.insert(pos, byte)
        elif pos == len(out):
            continue
        elif kind == "replace":
            out[pos] = byte
        elif kind == "delete":
            del out[pos]
        else:
            del out[pos:]
    return bytes(out)


@settings(max_examples=300, deadline=None)
@given(edits=_EDITS)
def test_edited_stream_parses_or_gives_an_offset(edits):
    data = _edit(VALID_STREAM, edits)
    try:
        read_planar_code(io.BytesIO(data))
    except PlanarCodeError as exc:
        assert 0 <= exc.offset <= len(data)


@settings(max_examples=30, deadline=None)
@given(edits=_EDITS)
def test_check_on_an_edited_file_exits_1_with_the_offset(tmp_path_factory, edits):
    data = _edit(VALID_STREAM, edits)
    try:
        read_planar_code(io.BytesIO(data))
    except PlanarCodeError:
        pass
    else:
        assume(False)  # still a valid stream
    path = tmp_path_factory.mktemp("fuzz") / "edited.plc"
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["check", "-i", str(path)]) == 1
    assert "byte offset" in err.getvalue()
