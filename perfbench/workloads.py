"""The benchmark's workloads: inputs from a seed, the library call, and the
known answers each result is checked against.

Every workload is split the same way:

  build(seed)    -> bytes or spec: the inputs (part of set-up)
  prepare(data)  -> fresh library objects, made again before each timed
                    pass so that no cached property carries over (set-up)
  run(inputs)    -> the library result (timed)
  checks(result) -> named pass/fail verifications (timed)
  items(result)  -> output items, for items_per_s

The known answers come from outside the code under test: the fullerene
isomer counts of Fowler and Manolopoulos (An Atlas of Fullerenes), the
paper's five embeddable 4_n, and the symmetry and embedding dimensions of
the Goldberg-Coxeter cubes GC(k,l) (Dutour and Deza, EJC 2004).
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass

import hexcube.generator as generator
import hexcube.goldberg as goldberg
import hexcube.planar_code as planar_code
import hexcube.plane_graph as plane_graph
import hexcube.reports as reports

# name -> vertex count of the five 4_n that embed in a hypercube
EMBEDDABLE_4N = {
    "cube": 8,
    "prism(6)": 12,
    "truncated_octahedron": 24,
    "chamfered_cube": 32,
    "twisted_chamfered_cube": 32,
}

# isomer counts of the fullerenes C20..C32; there is no C22
FULLERENE_COUNTS = {20: 1, 22: 0, 24: 1, 26: 1, 28: 2, 30: 3, 32: 6}

# GC(k,l) of the cube that embed in a hypercube, with their dimension m
EMBEDDABLE_GC = {(1, 0): 3, (1, 1): 6, (2, 0): 7}


@dataclass(frozen=True)
class Survey:
    """Zone survey of all 4_n with n <= n_max (the paper's zone computation)."""

    n_max: int = 40

    def build(self, seed: int) -> int:
        return self.n_max  # deterministic; the seed is only recorded

    def prepare(self, data: int) -> int:
        return data

    def run(self, n_max: int):
        return reports.reproduce_zone_computation(n_max=n_max, threads=1)

    def checks(self, rep) -> dict[str, bool]:
        want = sorted((name, n) for name, n in EMBEDDABLE_4N.items() if n <= self.n_max)
        got = sorted((s["name"] or "", s["n"]) for s in rep.survivors)
        return {
            "survivors_are_the_named_4n": got == want,
            "survivors_embeddable": all(s["embeddable"] for s in rep.survivors),
            "embeddable_subset_ok": rep.embeddable_subset_ok,
            "not_truncated": not rep.truncated,
        }

    def items(self, rep) -> int:
        return rep.total_generated


@dataclass(frozen=True)
class Fullerenes:
    """All fullerenes with n <= n_max: q=5, no two-colouring, 12 pentagons."""

    n_max: int = 32

    def build(self, seed: int):
        return generator.GenSpec(q=5, n_max=self.n_max)

    def prepare(self, data):
        return data

    def run(self, spec):
        return generator.generate_q6(spec)

    def checks(self, result) -> dict[str, bool]:
        got = result.counts
        out = {
            f"C{n}_count": got.get(n, 0) == want
            for n, want in FULLERENE_COUNTS.items()
            if n <= self.n_max
        }
        out["no_other_sizes"] = all(n in FULLERENE_COUNTS for n in got)
        out["not_truncated"] = not result.truncated
        return out

    def items(self, result) -> int:
        return len(result.graphs)


def gc_parameters(n_max: int) -> list[tuple[int, int]]:
    """All (k,l) with k >= l >= 0, k >= 1 and 8(k^2+kl+l^2) <= n_max."""
    out = []
    k = 1
    while 8 * k * k <= n_max:
        out += [(k, l) for l in range(k + 1) if 8 * (k * k + k * l + l * l) <= n_max]
        k += 1
    return out


def relabel(g, rng: random.Random):
    """The same map with its vertices renumbered by a random permutation."""
    perm = list(range(g.n_vertices))
    rng.shuffle(perm)
    rows = [None] * g.n_vertices
    for v, nbrs in enumerate(g.neighbors):
        rows[perm[v]] = [perm[w] for w in nbrs]
    return plane_graph.PlaneGraph.from_rotations(rows)


@dataclass(frozen=True)
class CheckGC:
    """`hexcube check --five-gonal first` over the Goldberg-Coxeter cubes
    with n <= n_max, relabelled by the seed and passed through planar_code."""

    n_max: int = 224

    def build(self, seed: int) -> bytes:
        rng = random.Random(seed)
        graphs = [
            relabel(goldberg.goldberg_coxeter_cube(k, l), rng)
            for k, l in gc_parameters(self.n_max)
        ]
        buf = io.BytesIO()
        planar_code.write_planar_code(graphs, buf)
        return buf.getvalue()

    def prepare(self, data: bytes):
        return planar_code.read_planar_code(io.BytesIO(data))

    def run(self, graphs):
        return reports.check_many(graphs, threads=1, five_gonal="first")

    def checks(self, reps) -> dict[str, bool]:
        params = gc_parameters(self.n_max)
        out = {"one_report_per_cube": len(reps) == len(params)}
        for (k, l), r in zip(params, reps):
            m = EMBEDDABLE_GC.get((k, l))
            chiral = l not in (0, k)
            tag = f"GC({k},{l})"
            out[f"{tag}.n"] = r.n == 8 * (k * k + k * l + l * l)
            out[f"{tag}.three_connected"] = r.three_connected
            out[f"{tag}.embeddable"] = r.embeddable == (m is not None) and r.dimension == m
            out[f"{tag}.five_gonal_clean"] = r.five_gonal_clean == r.embeddable
            out[f"{tag}.symmetry"] = (r.aut_order, r.chiral) == (24 if chiral else 48, chiral)
        return out

    def items(self, reps) -> int:
        return len(reps)


WORKLOADS = {
    "survey-q4-n40": Survey(),
    "fullerene-q5-n32": Fullerenes(),
    "check-gc": CheckGC(),
}

# the same workloads cut down to run in seconds
SMOKE = {
    "survey-q4-n40": Survey(n_max=16),
    "fullerene-q5-n32": Fullerenes(n_max=24),
    "check-gc": CheckGC(n_max=24),
}
