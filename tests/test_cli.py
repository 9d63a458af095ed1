from __future__ import annotations

import io
import json

import pytest

from hexcube import FILTER_NAMES, canonical_code, make_named, read_planar_code
from hexcube.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_to_file(tmp_path, capsys):
    out = tmp_path / "out.plc"
    code, _, err = run(
        capsys, "generate", "-q", "4", "--nmax", "12", "--format", "plc", "-o", str(out)
    )
    assert code == 0
    graphs = read_planar_code(io.BytesIO(out.read_bytes()))
    codes = {canonical_code(g) for g in graphs}
    assert canonical_code(make_named("cube")) in codes
    assert canonical_code(make_named("prism(6)")) in codes
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary["counts"] == {"8": 1, "12": 1}
    assert summary["complete"] is True


def test_generate_q_out_of_range(capsys):
    code, _, _ = run(capsys, "generate", "-q", "7", "--nmax", "8")
    assert code == 2


def test_generate_single_json_line(capsys):
    code, out, _ = run(capsys, "generate", "-q", "4", "--nmax", "8", "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row["n"] == 8


# vertex counts of the q=4, n<=24 classes each filter keeps; every 4_n is
# bipartite, so that filter keeps all twelve
FILTERED_SIZES = {
    "bipartite": [8, 12, 14, 16, 18, 20, 20, 20, 22, 24, 24, 24],
    "zone_clean": [8, 12, 24],
    "partial_cube": [8, 12, 24],
    "five_gonal": [8, 12, 24],
}


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_generate_with_filter(capsys, name):
    sizes = FILTERED_SIZES[name]
    code, out, err = run(
        capsys,
        "generate", "-q", "4", "--nmax", "24", "--format", "json", "--filter", name,
    )
    assert code == 0
    assert [json.loads(l)["n"] for l in out.strip().splitlines()] == sizes
    assert json.loads(err.strip().splitlines()[-1])["emitted"] == len(sizes)


def test_check_named_cube(capsys):
    code, out, _ = run(capsys, "check", "--named", "cube")
    assert code == 0
    row = json.loads(out)
    assert row["embeddable"] is True
    assert row["dimension"] == 3
    assert row["zone_count"] == 3
    assert row["aut_order"] == 48


def test_check_named_truncated_tetrahedron(capsys):
    code, out, _ = run(capsys, "check", "--named", "truncated_tetrahedron")
    assert code == 0
    row = json.loads(out)
    assert row["embeddable"] is False
    assert row["t_obstruction"] == 3
    assert row["five_gonal_witnesses"] > 0


def test_check_malformed_input(tmp_path, capsys):
    bad = tmp_path / "broken.plc"
    bad.write_bytes(bytes([2, 3, 0, 1, 0]))
    code, _, err = run(capsys, "check", "-i", str(bad))
    assert code == 1
    assert "offset" in err


def test_verify_theorem_small_bound(capsys):
    code, out, _ = run(capsys, "verify-theorem", "--nmax", "8")
    assert code == 4
    assert "survivors=1" in out


def test_zones_named(capsys):
    code, out, _ = run(capsys, "zones", "--named", "chamfered_cube")
    assert code == 0
    rep = json.loads(out)
    assert rep["zone_count"] == 7
    assert not any(rep["self_intersecting_flags"])


def test_gc_roundtrip(tmp_path, capsys):
    out = tmp_path / "gc.plc"
    code, _, _ = run(capsys, "gc", "-k", "1", "-l", "1", "--format", "plc", "-o", str(out))
    assert code == 0
    g = read_planar_code(io.BytesIO(out.read_bytes()))[0]
    assert g.n_vertices == 24
    assert canonical_code(g) == canonical_code(make_named("truncated_octahedron"))


def test_gc_invalid(capsys):
    code, _, _ = run(capsys, "gc", "-k", "1", "-l", "2")
    assert code == 2


def test_embed_halfcube_tetrahedron(capsys):
    code, out, _ = run(capsys, "embed-halfcube", "--named", "tetrahedron", "-m", "3")
    assert code == 0
    row = json.loads(out)
    assert row["status"] == "found"
    assert row["phi"][0] == []


def test_embed_halfcube_budget(capsys):
    code, out, _ = run(
        capsys,
        "embed-halfcube", "--named", "icosahedron", "-m", "6", "--budget-nodes", "3",
    )
    assert code == 3
    assert json.loads(out)["status"] == "inconclusive"


def test_dot_output(capsys):
    code, out, _ = run(capsys, "gc", "-k", "1", "-l", "0", "--format", "dot")
    assert code == 0
    assert out.startswith("graph G {")


def test_threads_do_not_change_check_output(capsys):
    _, out1, _ = run(capsys, "check", "--named", "truncated_octahedron", "--threads", "1")
    _, out8, _ = run(capsys, "check", "--named", "truncated_octahedron", "--threads", "8")
    assert out1 == out8


def test_env_var_threads(monkeypatch, capsys):
    monkeypatch.setenv("HEXCUBE_THREADS", "4")
    code, out, _ = run(capsys, "check", "--named", "cube")
    assert code == 0 and json.loads(out)["n"] == 8
