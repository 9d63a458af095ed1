"""The census: expected answers of the generator and the CLI, recorded once
in census.json and recomputed here.

For each (q, n_max) it holds the per-n class counts and the sha256 of the
sorted canonical codes; for each listed command, the sha256 of its stdout;
the sha256 of the bytes of a finished run's checkpoint; and for each input
in CHECK_INPUTS, the sha256 of the per-graph reports of check_many.  The larger
sizes in SLOW_SPECS take seconds each and are marked slow, so the default
run leaves them out; run them before a change to the generator with

    PYTHONPATH=src python3 -m pytest -q -m slow tests/test_census.py

A change that alters codes or output on purpose rewrites the file with

    PYTHONPATH=src python3 tests/test_census.py --write

and says in CHANGES.md what changed and why.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from hexcube import (
    GenSpec,
    check_many,
    generate_q6,
    goldberg_coxeter_cube,
    read_planar_code,
    write_planar_code,
)
from oracles import relabel

CENSUS = Path(__file__).with_name("census.json")
SRC = Path(__file__).resolve().parents[1] / "src"
SPECS = [(3, 60), (4, 64), (5, 40)]
SLOW_SPECS = [(3, 80), (4, 96), (5, 44)]
COMMANDS = [
    "verify-theorem --nmax 32",
    "reproduce-zone-computation --nmax 40",
    "generate -q 5 --nmax 32 --format plc",
    "generate -q 4 --nmax 40 --format json",
    # the canonical walk's orbit pruning and the full 5-gonal scan: an
    # embeddable map with |Aut| 48, one with |Aut| 12, and one with witnesses
    "check --named chamfered_cube --five-gonal full",
    "check --named twisted_chamfered_cube --five-gonal full",
    "check --named truncated_tetrahedron --five-gonal full",
    # the code of a chiral cube, |Aut| 24, through cli.cmd_gc
    "gc -k 2 -l 1 --format json",
]
CHECKPOINT_SPECS = [(4, 24)]
CHECK_INPUTS = ["gc-cubes-n224", "q6-4-40"]


def check_input(name: str) -> list:
    """The graphs of one CHECK_INPUTS entry: the Goldberg-Coxeter cubes
    GC(k,l) with n <= 224, relabelled by a fixed seed and read back through
    planar_code; or every 4_n with n <= 40."""
    if name == "q6-4-40":
        return generate_q6(GenSpec(4, 40)).graphs
    rng = random.Random(1)
    cubes = [
        relabel(goldberg_coxeter_cube(k, l), rng)
        for k in range(1, 6)
        for l in range(k + 1)
        if 8 * (k * k + k * l + l * l) <= 224
    ]
    buf = io.BytesIO()
    write_planar_code(cubes, buf)
    return read_planar_code(io.BytesIO(buf.getvalue()))


def generation_entry(q: int, n_max: int) -> dict:
    res = generate_q6(GenSpec(q=q, n_max=n_max))
    codes = hashlib.sha256(b"".join(code.hex().encode() + b"\n" for code in sorted(res.codes)))
    return {
        "counts": {str(n): c for n, c in sorted(res.counts.items())},
        "codes_sha256": codes.hexdigest(),
    }


def stdout_sha256(command: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-m", "hexcube", *command.split()],
        env=env, capture_output=True, check=True,
    ).stdout
    return hashlib.sha256(out).hexdigest()


def checkpoint_sha256(q: int, n_max: int) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        generate_q6(GenSpec(q=q, n_max=n_max), checkpoint_path=str(path))
        return hashlib.sha256(path.read_bytes()).hexdigest()


def check_sha256(name: str) -> str:
    reports = check_many(check_input(name), five_gonal="first")
    lines = (json.dumps(r.to_json(), sort_keys=True) + "\n" for r in reports)
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def census() -> dict:
    return {
        "check_sha256": {name: check_sha256(name) for name in CHECK_INPUTS},
        "checkpoint_sha256": {
            f"{q}-{n_max}": checkpoint_sha256(q, n_max) for q, n_max in CHECKPOINT_SPECS
        },
        "generate_q6": {
            f"{q}-{n_max}": generation_entry(q, n_max) for q, n_max in SPECS + SLOW_SPECS
        },
        "stdout_sha256": {command: stdout_sha256(command) for command in COMMANDS},
    }


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(CENSUS.read_text())


@pytest.mark.parametrize(
    "q, n_max", SPECS + [pytest.param(*spec, marks=pytest.mark.slow) for spec in SLOW_SPECS]
)
def test_generation_matches_the_census(recorded, q, n_max):
    assert generation_entry(q, n_max) == recorded["generate_q6"][f"{q}-{n_max}"]


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_matches_the_census(recorded, command):
    assert stdout_sha256(command) == recorded["stdout_sha256"][command]


@pytest.mark.parametrize("q, n_max", CHECKPOINT_SPECS)
def test_checkpoint_matches_the_census(recorded, q, n_max):
    assert checkpoint_sha256(q, n_max) == recorded["checkpoint_sha256"][f"{q}-{n_max}"]


@pytest.mark.parametrize("name", CHECK_INPUTS)
def test_check_reports_match_the_census(recorded, name):
    assert check_sha256(name) == recorded["check_sha256"][name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    CENSUS.write_text(json.dumps(census(), indent=1, sort_keys=True) + "\n")
