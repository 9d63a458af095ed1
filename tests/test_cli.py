from __future__ import annotations

import hashlib
import io
import json

import pytest

from hexcube import FILTER_NAMES, GenSpec, canonical_code, generate_q6, make_named
from hexcube import read_planar_code
from hexcube import cli, generator
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


# sha256 of the stdout of `generate -q 4 --nmax 24 --format json`, without
# and with --filter partial_cube, as written when the command recomputed the
# canonical code of every graph it wrote
JSON_Q4_24 = {
    (): "24d76fbc51481bdb52d0a67a0661a28964ea351d9cb10ed3d15744915e9c6c45",
    ("--filter", "partial_cube"):
        "96ca803c68078342d098b7a2d9d3a8894210268deff3c359ea0905009498dba5",
}


@pytest.mark.parametrize("extra", list(JSON_Q4_24), ids=["all", "partial_cube"])
def test_generate_json_reuses_the_codes(capsys, monkeypatch, extra):
    """The codes of the generation result follow the graphs through
    --filter into the JSON rows, which keep their bytes."""

    def recompute(g):
        raise AssertionError("generate recomputed a canonical code")

    monkeypatch.setattr(cli, "canonical_code", recompute)
    code, out, _ = run(capsys, "generate", "-q", "4", "--nmax", "24", "--format", "json", *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_Q4_24[extra]


def test_named_help_gives_the_prism_form(capsys):
    code, out, _ = run(capsys, "check", "--help")
    assert code == 0
    assert "prism(K)" in out and "prism(k)" not in out


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


@pytest.mark.parametrize(
    "argv", [("check",), ("zones",), ("embed-halfcube", "-m", "3")],
    ids=["check", "zones", "embed-halfcube"],
)
def test_malformed_input_exits_1_with_the_offset(tmp_path, capsys, argv):
    bad = tmp_path / "broken.plc"
    bad.write_bytes(bytes([2, 3, 0, 1, 0]))  # n=2 but a neighbor byte of 3
    code, out, err = run(capsys, *argv, "-i", str(bad))
    assert code == 1
    assert out == ""
    assert "byte offset 1" in err


def test_gc_writes_nothing_when_a_graph_cannot_be_encoded(tmp_path, capsys):
    # GC(6,0) has n = 288, beyond planar_code's n < 256
    code, out, _ = run(capsys, "gc", "-k", "6", "-l", "0", "--format", "plc")
    assert code == 2
    assert out == ""
    path = tmp_path / "gc.plc"
    code, out, _ = run(capsys, "gc", "-k", "6", "-l", "0", "--format", "plc", "-o", str(path))
    assert code == 2
    assert not path.exists()


@pytest.mark.parametrize(
    "argv", [("generate", "-q", "4", "--nmax", "12"), ("gc", "-k", "1", "-l", "0")],
    ids=["generate", "gc"],
)
@pytest.mark.parametrize("target", ["missing-directory", "a-directory"])
def test_unwritable_output_exits_1_with_one_error_line(
    tmp_path, capsys, monkeypatch, argv, target
):
    path = tmp_path / "missing" / "out" if target == "missing-directory" else tmp_path
    if argv[0] == "generate":  # the path is refused before the generation runs
        monkeypatch.setattr(
            cli, "generate_q6", lambda *a, **k: pytest.fail("generate_q6 was called")
        )
    code, out, err = run(capsys, *argv, "-o", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_the_old_file_intact(tmp_path, capsys, monkeypatch):
    """A write that fails half way (a full disk), of -o or of a checkpoint,
    keeps the file that was there and leaves no temporary file beside it."""
    path = tmp_path / "out.json"
    path.write_bytes(b"old\n")
    checkpoint = tmp_path / "ckpt.json"
    spec = GenSpec(q=4, n_max=16)
    generator._save_checkpoint(str(checkpoint), spec, 0, [])  # no subtree done yet
    saved = checkpoint.read_bytes()
    fdopen = cli.os.fdopen

    class HalfWriter(io.RawIOBase):
        def __init__(self, fp):
            self.fp = fp

        def write(self, data):
            self.fp.write(data[: len(data) // 2])
            self.fp.flush()
            raise OSError(28, "No space left on device")

        def close(self):
            self.fp.close()
            super().close()

    monkeypatch.setattr(cli.os, "fdopen", lambda fd, mode: HalfWriter(fdopen(fd, mode)))
    code, out, err = run(capsys, "generate", "-q", "4", "--nmax", "16", "-o", str(path))
    assert code == 1
    assert out == "" and err.startswith("error: ")
    assert path.read_bytes() == b"old\n"
    with pytest.raises(OSError, match="No space"):
        generate_q6(spec, checkpoint_path=str(checkpoint))
    assert checkpoint.read_bytes() == saved
    assert sorted(tmp_path.iterdir()) == sorted([path, checkpoint])


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
    code, out, err = run(capsys, "gc", "-k", "1", "-l", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--named", "cube", "--threads", "2"),
        ("zones", "--named", "cube", "--budget", "1"),
        ("gc", "-k", "1", "-l", "0", "--budget", "1"),
        ("embed-halfcube", "--named", "cube", "-m", "3", "--budget", "1"),
        ("generate", "-q", "4", "--nmax", "8", "--filter", "no_such"),
        ("check", "--named", "prism(5)", "--five-gonal", "skip"),
        ("embed-halfcube", "--named", "cube", "-m", "-1"),
    ],
    ids=["check-threads", "zones-budget", "gc-budget", "embed-halfcube-budget", "unknown-filter",
         "check-five-gonal-skip", "embed-halfcube-negative-m"],
)
def test_removed_or_unknown_options_are_usage_errors(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "command",
    ["generate", "check", "verify-theorem", "reproduce-zone-computation", "zones", "gc",
     "embed-halfcube"],
)
def test_help_lists_budget_only_where_it_is_read(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert "--threads" not in out
    reads_budget = command in ("generate", "verify-theorem", "reproduce-zone-computation")
    assert ("--budget " in out) == reads_budget
