"""Isomorph-free exhaustive generation of connected 3-valent plane graphs
whose faces are q-gons or hexagons.

The search grows partial maps edge by edge.  Darts come in fixed triples
(3v, 3v+1, 3v+2) per vertex with the rotation wired as the cyclic
successor, so a partial map is just a partial matching ``alpha`` on darts.
The lowest unmatched dart is always extended next, either to an unmatched
dart of an existing vertex or to the first dart of a fresh vertex, which
makes every (graph, rooted start) pair reachable by exactly one growth
history.  Pruning is exact:

  * no loops or parallel edges,
  * partial face chains never exceed six darts and closed faces must be
    q- or 6-gons, with the Euler-forced cap on the number of q-gons,
  * for even q, a two-coloring is maintained (all-even-faced maps are
    bipartite, and partial maps are subgraphs of their completions).

States reached at the same edge count are deduplicated by a rooted
breadth-first code, a canonical form of the partial patch; dropping a
rooted-isomorphic duplicate cannot lose any completion.  Completed maps
are deduplicated again by the full canonical code, which also folds the
rooted multiplicity away.  Output order is (n, canonical code), making
runs byte-reproducible.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field

from .canonical import canonical_code
from .plane_graph import MapError, PlaneGraph

_Q_FACE_CAP = {3: 4, 4: 6, 5: 12}  # Euler: (6 - q) * f_q = 12

FILTER_NAMES = ("bipartite", "zone_clean", "partial_cube", "five_gonal")

# Bumped whenever the checkpoint layout or the canonical code bytes that key
# its ``found`` classes change; a checkpoint of another version is refused.
CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """A checkpoint was written by another format version or another spec."""


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one generation run."""

    q: int
    n_max: int
    filters: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.q not in (3, 4, 5):
            raise ValueError("q must be 3, 4 or 5")
        if self.n_max < 4:
            raise ValueError("n_max too small")
        for f in self.filters:
            if f not in FILTER_NAMES:
                raise ValueError(f"unknown filter {f!r}")


@dataclass
class GenerationResult:
    graphs: list[PlaneGraph] = field(default_factory=list)
    codes: list[bytes] = field(default_factory=list)
    truncated: bool = False

    @property
    def counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for g in self.graphs:
            out[g.n_vertices] = out.get(g.n_vertices, 0) + 1
        return out


class _Growth:
    """Shared tables and the extension step of the patch growth."""

    def __init__(self, q: int, n_max: int) -> None:
        self.q = q
        self.n_max = n_max
        self.two_colored = q % 2 == 0
        nd = 3 * n_max
        nxt = [0] * nd
        prv = [0] * nd
        for v in range(n_max):
            b = 3 * v
            nxt[b], nxt[b + 1], nxt[b + 2] = b + 1, b + 2, b
            prv[b], prv[b + 1], prv[b + 2] = b + 2, b, b + 1
        self.nxt = nxt
        self.prv = prv
        self.cap_q = _Q_FACE_CAP[q]
        self.wide = nd + 1 > 255  # dart positions no longer fit in one byte

    # state: (alpha, used, colors, pairs, count_q, low)
    def initial(self):
        alpha = [-1] * 6
        alpha[0], alpha[3] = 3, 0
        colors = [0, 1] if self.two_colored else None
        return (alpha, 2, colors, {(0, 1)}, 0, 1)

    def face_check(self, alpha, d: int, e: int) -> tuple[bool, int]:
        """Chain/cycle constraints around a fresh assignment alpha[d]=e.

        The two darts of the new edge lie on the two bordering face walks,
        which may or may not coincide; both are validated.  Returns
        (legal, closed q-gon count contributed by this step).
        """
        nxt, prv, q = self.nxt, self.prv, self.q
        new_q = 0
        e_seen = False
        for probe in (d, e):
            if probe == e and e_seen:
                break
            # walk backward to the chain head (or detect a closed face)
            visited = [probe]
            head = probe
            cycle = False
            while True:
                y = alpha[prv[head]]
                if y < 0:
                    break
                head = y
                if head == probe:
                    cycle = True
                    break
                visited.append(head)
                if len(visited) > 7:
                    return False, 0
            if cycle:
                size = len(visited)
                if size not in (q, 6):
                    return False, 0
                if size == q:
                    new_q += 1
            else:
                cur = probe
                while True:
                    a = alpha[cur]
                    if a < 0:
                        break
                    cur = nxt[a]
                    visited.append(cur)
                    if len(visited) > 6:
                        return False, 0
            if probe == d:
                e_seen = e in visited
        return True, new_q

    def children(self, state):
        """All legal one-edge extensions, in deterministic order."""
        alpha, used, colors, pairs, count_q, low = state
        d = low
        vd = d // 3
        out = []
        # partner among unmatched darts of existing vertices
        for e in range(d + 1, 3 * used):
            if alpha[e] >= 0:
                continue
            ve = e // 3
            if ve == vd:
                continue
            pair = (vd, ve) if vd < ve else (ve, vd)
            if pair in pairs:
                continue
            if colors is not None and colors[vd] == colors[ve]:
                continue
            child_alpha = alpha.copy()
            child_alpha[d] = e
            child_alpha[e] = d
            ok, nq = self.face_check(child_alpha, d, e)
            if not ok or count_q + nq > self.cap_q:
                continue
            low2 = d + 1
            while low2 < 3 * used and child_alpha[low2] >= 0:
                low2 += 1
            out.append(
                (
                    child_alpha,
                    used,
                    colors,
                    pairs | {pair},
                    count_q + nq,
                    low2,
                )
            )
        # partner on a fresh vertex
        if used < self.n_max:
            e = 3 * used
            child_alpha = alpha + [-1, -1, -1]
            child_alpha[d] = e
            child_alpha[e] = d
            ok, nq = self.face_check(child_alpha, d, e)
            if ok and count_q + nq <= self.cap_q:
                new_colors = colors + [1 - colors[vd]] if colors is not None else None
                pair = (vd, used)
                low2 = d + 1
                while child_alpha[low2] >= 0:
                    low2 += 1
                out.append(
                    (
                        child_alpha,
                        used + 1,
                        new_colors,
                        pairs | {pair},
                        count_q + nq,
                        low2,
                    )
                )
        return out

    def rooted_key(self, state) -> bytes:
        """Canonical form of the rooted partial patch (BFS code from dart 0)."""
        alpha, used, _, _, _, _ = state
        nxt = self.nxt
        nd = 3 * used
        pos = [-1] * nd
        order = [0]
        pos[0] = 0
        for dd in order:
            s = nxt[dd]
            if pos[s] < 0:
                pos[s] = len(order)
                order.append(s)
            a = alpha[dd]
            if a >= 0 and pos[a] < 0:
                pos[a] = len(order)
                order.append(a)
        buf = bytearray()
        if self.wide:
            for dd in order:
                a = alpha[dd]
                buf += (pos[nxt[dd]] + 1).to_bytes(2, "big")
                buf += (pos[a] + 1 if a >= 0 else 0).to_bytes(2, "big")
        else:
            for dd in order:
                buf.append(pos[nxt[dd]] + 1)
                a = alpha[dd]
                buf.append(pos[a] + 1 if a >= 0 else 0)
        return bytes(buf)

    def finish(self, state) -> PlaneGraph | None:
        alpha, used, _, _, _, _ = state
        nd = 3 * used
        # alpha must be the storage convention d ^ 1: renumber darts so that
        # matched pairs become (2e, 2e+1)
        perm = [-1] * nd
        next_id = 0
        for d in range(nd):
            if perm[d] < 0:
                perm[d] = next_id
                perm[alpha[d]] = next_id + 1
                next_id += 2
        new_sigma = [0] * nd
        new_vertex = [0] * nd
        for d in range(nd):
            new_sigma[perm[d]] = perm[self.nxt[d]]
            new_vertex[perm[d]] = d // 3
        try:
            return PlaneGraph(sigma=tuple(new_sigma), vertex_of=tuple(new_vertex))
        except MapError:
            return None  # the matching closed up on a higher-genus surface


def generate_q6(
    spec: GenSpec,
    budget_seconds: float | None = None,
    checkpoint_path: str | None = None,
) -> GenerationResult:
    """Exhaustively generate one representative per isomorphism class
    (reflections included) of connected 3-valent plane maps with all faces
    of size q or 6 and at most n_max vertices.

    With a budget the run may stop early; the result is then flagged
    truncated and must not be treated as a complete enumeration.  A
    checkpoint path makes long runs resumable (state is saved after each
    level of the search); resuming raises CheckpointError when the file was
    written by another format version or for another spec.
    """
    growth = _Growth(spec.q, spec.n_max)
    start_time = time.monotonic()
    level = 0
    frontier = {growth.rooted_key(growth.initial()): growth.initial()}
    found: dict[bytes, PlaneGraph] = {}
    if checkpoint_path:
        resumed = _load_checkpoint(checkpoint_path, spec)
        if resumed is not None:
            level, frontier, found = resumed
    result = GenerationResult()
    max_edges = 3 * spec.n_max // 2
    while frontier and level < max_edges:
        if budget_seconds is not None and time.monotonic() - start_time > budget_seconds:
            result.truncated = True
            break
        level += 1
        next_frontier = {}
        for state in frontier.values():
            if state[5] >= 3 * state[1]:
                continue  # complete; collected below
            for child in growth.children(state):
                if child[5] >= 3 * child[1]:
                    g = growth.finish(child)
                    if g is None:
                        continue  # positive genus: not a plane graph
                    code = canonical_code(g)
                    if code not in found:
                        found[code] = g
                    continue
                key = growth.rooted_key(child)
                if key not in next_frontier:
                    next_frontier[key] = child
        frontier = next_frontier
        if checkpoint_path:
            _save_checkpoint(checkpoint_path, spec, level, frontier, found)
    ordered = sorted(found.items(), key=lambda kv: (kv[1].n_vertices, kv[0]))
    result.graphs = [g for _, g in ordered]
    result.codes = [c for c, _ in ordered]
    return result


def _save_checkpoint(path, spec, level, frontier, found) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "spec": (spec.q, spec.n_max),
        "level": level,
        "frontier": frontier,
        "found": found,
    }
    with open(path, "wb") as fp:
        pickle.dump(payload, fp)


def _load_checkpoint(path, spec):
    try:
        with open(path, "rb") as fp:
            payload = pickle.load(fp)
    except FileNotFoundError:
        return None
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint format {version}, expected {CHECKPOINT_VERSION}"
        )
    if payload["spec"] != (spec.q, spec.n_max):
        raise CheckpointError(
            f"{path}: checkpoint is for (q, n_max) = {payload['spec']},"
            f" not {(spec.q, spec.n_max)}"
        )
    return payload["level"], payload["frontier"], payload["found"]
