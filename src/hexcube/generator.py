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

The extensions of a state therefore form a tree whose nodes are pairwise
distinct rooted patches, so the search is a plain depth-first walk over it
and stores no visited set.  A map with n vertices is completed at depth
3n/2 edges, so pre-order meets the completions of each n in one fixed
order.  The states with SPLIT_DEPTH edges, in that order, root an ordered
list of subtrees; each subtree is the unit of work for the time budget and
the checkpoint.  Completed maps are deduplicated by the full canonical
code, keeping the first one met, which also folds the rooted multiplicity
away.  Output order is (n, canonical code), making runs byte-reproducible.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .canonical import canonical_code
from .embedding import five_gonal_scan, recognize_partial_cube
from .plane_graph import MapError, PlaneGraph, all_pairs_distances, bipartition, is_q6
from .zones import zone_clean

_Q_FACE_CAP = {3: 4, 4: 6, 5: 12}  # Euler: (6 - q) * f_q = 12

# Edge count of the states that root the subtrees.  Shallow enough that the
# list of roots is built in milliseconds, deep enough to give a few hundred
# subtrees for q = 3, 4, 5 once n_max exceeds about 14.
SPLIT_DEPTH = 20

# Predicates that `hexcube generate --filter NAME` keeps graphs by, in order.
FILTERS: dict[str, Callable[[PlaneGraph], bool]] = {
    "bipartite": lambda g: bool(bipartition(g)),
    "zone_clean": zone_clean,
    "partial_cube": lambda g: bool(recognize_partial_cube(g)),
    "five_gonal": lambda g: not five_gonal_scan(all_pairs_distances(g), stop_at_first=True),
}
FILTER_NAMES = tuple(FILTERS)

# Bumped whenever the checkpoint layout or the meaning of its subtree count
# changes; a checkpoint of another version is refused.
CHECKPOINT_VERSION = 3


class CheckpointError(ValueError):
    """A checkpoint is unreadable, malformed, or was written by another
    format version or for another spec."""


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
        """Canonical form of the rooted partial patch (BFS code from dart 0).

        The search does not call it.  It is the oracle by which the tests
        check that no two states of the growth tree are the same rooted
        patch, which is why the walk needs no dedup; the benchmark tracer
        (perfbench/spans.py) also wraps it by name.
        """
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

    With a budget the run may stop early, between two subtrees; the result
    is then flagged truncated and holds the classes met so far, which may
    miss some at any n, so it must not be treated as a complete
    enumeration.  A checkpoint path makes long runs resumable: after each
    subtree the number of finished subtrees and the graphs found so far are
    written there atomically.  Resuming raises CheckpointError when the
    file is unreadable or malformed, or was written by another format
    version or for another spec.
    """
    growth = _Growth(spec.q, spec.n_max)
    start_time = time.monotonic()
    found: dict[bytes, PlaneGraph] = {}

    def collect(state) -> None:
        g = growth.finish(state)
        if g is not None:  # None: positive genus, not a plane graph
            found.setdefault(canonical_code(g), g)

    # the initial state holds one edge, so roots lie SPLIT_DEPTH - 1 below it
    roots = []
    for state in _descend(growth, growth.initial(), SPLIT_DEPTH - 1):
        if _is_complete(state):
            collect(state)
        else:
            roots.append(state)
    done = 0
    if checkpoint_path:
        resumed = _load_checkpoint(checkpoint_path, spec, len(roots))
        if resumed is not None:
            done, graphs = resumed
            for g in graphs:
                found.setdefault(canonical_code(g), g)
    result = GenerationResult()
    for index in range(done, len(roots)):
        if budget_seconds is not None and time.monotonic() - start_time > budget_seconds:
            result.truncated = True
            break
        for state in _descend(growth, roots[index]):
            collect(state)
        if checkpoint_path:
            _save_checkpoint(checkpoint_path, spec, index + 1, found.values())
    ordered = sorted(found.items(), key=lambda kv: (kv[1].n_vertices, kv[0]))
    result.graphs = [g for _, g in ordered]
    result.codes = [c for c, _ in ordered]
    return result


def _is_complete(state) -> bool:
    _, used, _, _, _, low = state
    return low >= 3 * used


def _descend(growth: _Growth, root, stop: int | None = None) -> Iterator:
    """Yield, in depth-first pre-order, every completed descendant of root
    and, when stop is given, every incomplete descendant stop edges below
    root, which is not expanded further."""
    stack = [iter(growth.children(root))]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
        elif _is_complete(state) or len(stack) == stop:
            yield state
        else:
            stack.append(iter(growth.children(state)))


def _save_checkpoint(path, spec, done, graphs) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "q": spec.q,
        "n_max": spec.n_max,
        "done": done,
        "graphs": [{"sigma": list(g.sigma), "vertex_of": list(g.vertex_of)} for g in graphs],
    }
    # write beside the target and rename over it, so that an interrupted
    # write leaves the previous checkpoint intact
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fp:
            # dumps, not dump: only the one-shot encoder runs in C
            fp.write(json.dumps(payload, separators=(",", ":")))
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_checkpoint(path, spec, n_subtrees):
    try:
        with open(path, "rb") as fp:
            raw = fp.read()
    except FileNotFoundError:
        return None
    try:
        payload = json.loads(raw)
    except ValueError as exc:  # a truncated file, or one that is not JSON at all
        raise CheckpointError(f"{path}: not a JSON checkpoint ({exc})") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: not a JSON checkpoint")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint format {version!r}, expected {CHECKPOINT_VERSION}"
        )
    written_for = (payload.get("q"), payload.get("n_max"))
    if written_for != (spec.q, spec.n_max):
        raise CheckpointError(
            f"{path}: checkpoint is for (q, n_max) = {written_for},"
            f" not {(spec.q, spec.n_max)}"
        )
    done = payload.get("done")
    if type(done) is not int or not 0 <= done <= n_subtrees:
        raise CheckpointError(f"{path}: 'done' must be an integer in 0..{n_subtrees}")
    rows = payload.get("graphs")
    if not isinstance(rows, list):
        raise CheckpointError(f"{path}: 'graphs' must be a list")
    graphs = []
    for i, row in enumerate(rows):
        where = f"{path}: graph {i}"
        if not isinstance(row, dict):
            raise CheckpointError(f"{where} is not an object")
        sigma = _int_tuple(row.get("sigma"), f"{where} sigma")
        vertex_of = _int_tuple(row.get("vertex_of"), f"{where} vertex_of")
        try:
            g = PlaneGraph(sigma=sigma, vertex_of=vertex_of)
        except MapError as exc:
            raise CheckpointError(f"{where}: {exc}") from exc
        if g.n_vertices > spec.n_max or not is_q6(g, spec.q):
            raise CheckpointError(f"{where} is not a q/6 graph within the spec")
        graphs.append(g)
    return done, graphs


def _int_tuple(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise CheckpointError(f"{what} must be a list of integers")
    return tuple(value)
