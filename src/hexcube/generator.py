"""Isomorph-free exhaustive generation of connected 3-valent plane graphs
whose faces are q-gons or hexagons.

The search grows partial maps edge by edge.  Darts come in fixed triples
(3v, 3v+1, 3v+2) per vertex with the rotation wired as the cyclic
successor, so a partial map is just a partial matching ``alpha`` on darts.
The lowest unmatched dart is always extended next, either to an unmatched
dart of an existing vertex or to the first dart of a fresh vertex, which
makes every (graph, rooted start) pair reachable by exactly one growth
history.

Every dart lies on one face walk (dart x is followed by nxt[alpha[x]]),
either a closed face or an open chain that runs from a head dart to a tail
dart, the tail being unmatched.  The state carries two tables read only at
chain ends: other[x], the chain's other end, and clen[x], its length in
darts, offset by _ROOT_FACE on the chain of dart 0.  Matching alpha[d] = e
makes two junctions, tail d onto head nxt[e] and tail e onto head nxt[d];
each either closes a chain into a face or joins two chains into one, so a
candidate edge is judged from a few table reads, and only an accepted
child copies the tables.  Pruning is exact:

  * partial face chains never exceed six darts and closed faces must be
    q- or 6-gons, with the Euler-forced cap on the number of q-gons,
  * the face of dart 0, the root face, never exceeds q darts and closes as
    a q-gon (every map here has 12 / (6 - q) q-gons to be rooted at),
  * for even q, a two-coloring is maintained (all-even-faced maps are
    bipartite, and partial maps are subgraphs of their completions).

The partners of d are only the other tails around d's open face (the
cycle of chains that d's chain starts, each chain's tail t followed by the
chain that nxt[t] heads) and a fresh vertex's dart.  This is exact: an edge
between two different open faces of a connected partial map merges them
into one and adds a handle, which raises the genus of every completion, and
every completion is plane (below).

The extensions of a state therefore form a tree whose nodes are pairwise
distinct rooted patches, so the search is a plain depth-first walk over it
and stores no visited set.  Each class is kept once, as the map grown from
a minimal root of its canonical form (McKay's canonical augmentation in its
simplest form, with the root on a smallest face as in Brinkmann and Dress's
fullgen): the minimal roots of one class are all the same rooted map, which
the growth reaches exactly once.

The growth cuts a state once some other root is certain to beat dart 0.  A
closed q-gon stays a face of minimum size in every completion, so its darts
are canonical roots, and the alpha-images of its darts are roots of the
mirror map, walked with the inverse rotation prv.  The BFS code prefix from
a root is fixed up to the first dart the walk meets whose alpha is unset
(canonical.partial_prefix): every completion's code starts with it.  So
when a root's fixed prefix is smaller than dart 0's at a position where
both are fixed, that root beats dart 0 in every completion, and the state
is dropped.  A root found larger is dropped for good.  Any other root
waits, in the state's watch, for the unmatched dart that ends the shorter
of the two prefixes (canonical.partial_compare): only matching that dart
can decide it, so the judgement of a child made by alpha[d] = e compares
just the roots waiting for d or e and those of the q-gons it closes, and
resumes each comparison, and dart 0's prefix, where it stopped.

A child carries that judgement, pending, and runs it when it is expanded,
once its partner loop has found a legal extension: a dead end, which has
no completions, is never judged, and a state the judgement cuts lists no
children.  Two kinds of state are judged as they are made instead: a
completion, so that every kept one has an empty watch, and a state at the
split depth, so that the units are the states that the cut keeps there.

The cut is the only canonical test.  The smallest faces of a completion are
its q-gons, so by the time it completes each of their roots, in both
orientations, has been compared with dart 0 in full: a smaller one cut the
state, a larger one was dropped and an equal one left the watch.  Every
completion is thus grown from a minimal root, and is kept with dart 0's
prefix, walked to the end, as its code.  A completion with a root still in
its watch, or two with one code, raise InvariantError.

The units of work are, in pre-order, the states with SPLIT_DEPTH edges and
the completions with fewer.  _walk_subtree walks one unit's subtree and is
the only place where a completion becomes a row.  The checkpoint counts
finished units, and the time budget is read before each unit and every
CLOCK_EVERY states inside one.  Output order is (n, canonical code), and the
representatives depend neither on the search order nor on SPLIT_DEPTH, so
runs are byte-reproducible.

Every face of a completion is a q- or 6-gon, so Euler's formula for a
3-valent map gives it the characteristic f_q (6 - q) / 6, and the root face
makes f_q positive: every completion is a plane map, and none is rejected
for its genus.

The growth does not check for loops or parallel edges, because the face
rules already reject every completion that has one (a partial map may hold
a parallel pair; it has no completion).  A loop at a 3-valent vertex bounds a
one-dart face, which fails as soon as it closes.  Take an innermost parallel
pair u-v.  If both third edges leave on one side, the other side is a
two-dart face.  Otherwise one third edge x is a bridge into the pair's inner
side, and the face along that side holds the pair's 2 darts, x's 2 darts and
at least 3 darts around what x leads to: 7 or more, more than any chain may
hold.  finish still builds a validated PlaneGraph, so a gap in this argument
would raise MapError rather than give a wrong answer.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Iterator

from .canonical import _encode, canonical_root_code, partial_compare, partial_prefix
from .embedding import InvariantError
from .plane_graph import MapError, PlaneGraph, is_q6

_Q_FACE_CAP = {3: 4, 4: 6, 5: 12}  # Euler: (6 - q) * f_q = 12

# Added to the length of the chain through dart 0, the root face, so that
# one integer gives both the length and whether the chain is the root's.
_ROOT_FACE = 100

# Edge count of the states that root the units of work.  Shallow enough that
# the unit list is built in milliseconds, deep enough to give 16, 16 and 36
# units (4, 2 and 0 of them completions) for q = 3, 4, 5 once n_max is 20.
SPLIT_DEPTH = 20

# Bumped whenever the checkpoint layout or the meaning of its unit count
# changes; a checkpoint of another version is refused.
CHECKPOINT_VERSION = 7

# States a subtree expands between two readings of the clock, so that a run
# overruns its time budget by at most this many states.
CLOCK_EVERY = 4096


class CheckpointError(ValueError):
    """A checkpoint is unreadable, malformed, or was written by another
    format version or for another spec."""


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one generation run."""

    q: int
    n_max: int

    def __post_init__(self) -> None:
        if type(self.q) is not int or self.q not in (3, 4, 5):
            raise ValueError("q must be the integer 3, 4 or 5")
        if type(self.n_max) is not int:
            raise ValueError("n_max must be an integer")
        if self.n_max < 4:
            raise ValueError("n_max too small")


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
        self.two_colored = q % 2 == 0
        self.max_darts = nd = 3 * n_max
        nxt = [0] * nd
        for v in range(n_max):
            b = 3 * v
            nxt[b], nxt[b + 1], nxt[b + 2] = b + 1, b + 2, b
        self.nxt = nxt
        self.prv = [nxt[nxt[d]] for d in range(nd)]
        self.cap_q = _Q_FACE_CAP[q]
        # indexed by a chain length, offset on the root face's: closing[s] is
        # what closing the chain into a face adds to the q-gon count, -1 when
        # that face is illegal (a q-gon or hexagon, the root face a q-gon
        # only); fits[s] tells whether a joined chain is legal (at most six
        # darts, the root face's at most q)
        root = _ROOT_FACE
        self.closing = [-1] * (2 * root)
        self.closing[q] = self.closing[root + q] = 1
        self.closing[6] = 0
        self.fits = [s <= 6 or root < s <= root + q for s in range(2 * root)]

    # state: (alpha, colors, count_q, low, other, clen, watch, prefix,
    # pending); alpha covers the darts of the used vertices, other and clen
    # those and the next fresh vertex's; watch maps an unmatched dart to the
    # roots whose comparison with dart 0 waits for it, with the walk to
    # resume, and prefix is dart 0's partial_prefix, resumed when it is next
    # read if its stop dart has been matched.  pending is the state's own
    # judgement, not yet run: (d, e, roots) for the edge alpha[d] = e that
    # made it and the roots it is to compare, or None when it has none or it
    # has run.  Until it runs, watch and prefix are the parent's
    def initial(self):
        alpha = [-1] * 6
        alpha[0], alpha[3] = 3, 0
        colors = [0, 1] if self.two_colored else None
        # the chains 0 -> 4 (the root face's) and 3 -> 1, the one-dart chains
        # 2 and 5, and the fresh vertex's darts 6, 7, 8
        other = [4, 3, 2, 1, 0, 5, 6, 7, 8]
        clen = [_ROOT_FACE + 2, 2, 1, 2, _ROOT_FACE + 2, 1, 1, 1, 1]
        return (alpha, colors, 0, 1, other, clen, {}, partial_prefix(self.nxt, alpha, 0), None)

    def children(self, state):
        """All legal one-edge extensions of state, in deterministic order,
        or none when the state's own judgement cuts it.  The judgement runs
        only once a legal extension is found, so a dead end is never
        judged; each child carries its own, except a completion, which is
        judged here and left out when it is cut."""
        alpha, colors, count_q, low, other, clen, watch, prefix, pending = state
        nxt, closing, fits = self.nxt, self.closing, self.fits
        d = low
        vd = d // 3
        nd = len(alpha)
        # alpha[d] = e runs d's chain on into the chain headed by nxt[e], then
        # e's chain on into the chain headed by nxt[d]
        head_d, len_d = other[d], clen[d]
        next_d = nxt[d]
        tail_next, len_next = other[next_d], clen[next_d]
        room = self.cap_q - count_q
        # the partners: the other tails around d's open face, in increasing
        # order, then dart nd of a fresh vertex
        partners = []
        t = tail_next
        while t != d:
            partners.append(t)
            t = other[nxt[t]]
        partners.sort()
        if nd < self.max_darts:
            partners.append(nd)
        out = []
        waiting_d = None  # read once the state's own judgement has run
        for e in partners:
            if e < nd and colors is not None and colors[vd] == colors[e // 3]:
                continue
            h = nxt[e]
            head_e, len_e = other[e], clen[e]
            tail_into, len_into = tail_next, len_next
            if head_d == h:  # d's chain closes into a face
                nq = q_d = closing[len_d]
                if nq < 0:
                    continue
                joined = 0
            else:
                joined = len_d + clen[h]
                if not fits[joined]:
                    continue
                nq = q_d = 0
                tail_h = other[h]
                # the joined chain may be the one that nxt[d] heads; one ending
                # at e (d-e a bridge) fails fits below on e's old chain too
                if head_d == next_d:
                    tail_into, len_into = tail_h, joined
            if head_e == next_d:  # e's chain closes into a face
                q_e = closing[len_e]
                if q_e < 0:
                    continue
                nq += q_e
                joined_e = 0
            else:
                joined_e = len_e + len_into
                if not fits[joined_e]:
                    continue
                q_e = 0
            if nq > room:
                continue
            if waiting_d is None:
                if pending is not None:
                    state = self.settle(state)
                    if state is None:
                        return []  # another root beats dart 0 in every completion
                    watch, prefix = state[6], state[7]
                waiting_d = watch.get(d, ())
            if e == nd:
                alpha2 = alpha + [-1, -1, -1]
                colors2 = colors + [1 - colors[vd]] if colors is not None else None
                other2 = other + [e + 3, e + 4, e + 5]
                clen2 = clen + [1, 1, 1]
            else:
                colors2 = colors
                alpha2, other2, clen2 = alpha.copy(), other.copy(), clen.copy()
            alpha2[d] = e
            alpha2[e] = d
            if joined:
                other2[head_d] = tail_h
                other2[tail_h] = head_d
                clen2[head_d] = clen2[tail_h] = joined
            if joined_e:
                other2[head_e] = tail_into
                other2[tail_into] = head_e
                clen2[head_e] = clen2[tail_into] = joined_e
            low2 = d + 1
            nd2 = len(alpha2)
            while low2 < nd2 and alpha2[low2] >= 0:
                low2 += 1
            # the roots the child is to judge: those waiting for d or e, and
            # those of the q-gons just closed
            roots = waiting_d
            if e in watch:
                roots = roots + watch[e]
            if q_d:
                roots = roots + self._face_roots(alpha2, d)
            if q_e:
                roots = roots + self._face_roots(alpha2, e)
            child = (alpha2, colors2, count_q + nq, low2, other2, clen2, watch, prefix,
                     (d, e, roots) if roots else None)
            if low2 == nd2:  # a completion is judged as it is made
                child = self.settle(child)
                if child is None:
                    continue
            out.append(child)
        return out

    def settle(self, state):
        """state with its own judgement run: None when it cuts the state,
        else the state with the watch and prefix that the judgement leaves
        and nothing pending."""
        pending = state[8]
        if pending is None:
            return state
        judged = self._judge(state[0], state[6], state[7], *pending)
        if judged is None:
            return None
        return state[:6] + judged + (None,)

    def _face_roots(self, alpha, x) -> tuple:
        """The roots on the closed q-gon through dart x, as (root, None)
        pairs, None being a walk not yet begun: the q-gon's darts other than
        dart 0, and their alpha-images, coded ~dart, which are roots of the
        mirror map (walked with prv)."""
        nxt = self.nxt
        roots = []
        y = x
        while True:
            if y:
                roots.append((y, None))
            roots.append((~alpha[y], None))
            y = nxt[alpha[y]]
            if y == x:
                return tuple(roots)

    def _judge(self, alpha, watch, prefix, d, e, roots):
        """Compare each of roots, a tuple of (root, walk), with dart 0 in
        the state that alpha[d] = e made, whose parent left watch and
        prefix.  None when one of them is smaller in every completion;
        otherwise the state's own watch and prefix, without the roots that
        are larger and with the others waiting for their new blockers."""
        if prefix[1] >= 0 and alpha[prefix[1]] >= 0:
            prefix = partial_prefix(self.nxt, alpha, 0, prefix)
        code, stop = prefix[0], prefix[1]
        watch2 = dict(watch)
        watch2.pop(d, None)
        watch2.pop(e, None)
        for r, walk in roots:
            if r >= 0:
                sign, blocker, walk = partial_compare(self.nxt, alpha, r, code, stop, walk)
            else:
                sign, blocker, walk = partial_compare(self.prv, alpha, ~r, code, stop, walk)
            if sign < 0:
                return None
            if sign == 0 and blocker >= 0:
                watch2[blocker] = watch2.get(blocker, ()) + ((r, walk),)
        return watch2, prefix

    def rooted_key(self, state) -> bytes:
        """Canonical form of the rooted partial patch (BFS code from dart 0).

        The search does not call it.  It is the oracle by which the tests
        check that no two states of the growth tree are the same rooted
        patch, which is why the walk needs no dedup; the benchmark tracer
        (perfbench/spans.py) also wraps it by name.
        """
        alpha = state[0]
        nxt = self.nxt
        pos = [-1] * len(alpha)
        order = [0]
        pos[0] = 0
        key = []  # per dart in BFS order: 1 + the positions of its images, 0 if unset
        for dd in order:
            s = nxt[dd]
            if pos[s] < 0:
                pos[s] = len(order)
                order.append(s)
            a = alpha[dd]
            if a >= 0 and pos[a] < 0:
                pos[a] = len(order)
                order.append(a)
            key += (pos[s] + 1, pos[a] + 1 if a >= 0 else 0)
        return _encode(key)

    def finish(self, state) -> PlaneGraph:
        alpha = state[0]
        nd = len(alpha)
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
        return PlaneGraph(sigma=tuple(new_sigma), vertex_of=tuple(new_vertex))


def generate_q6(
    spec: GenSpec,
    budget_seconds: float | None = None,
    checkpoint_path: str | None = None,
) -> GenerationResult:
    """Exhaustively generate one representative per isomorphism class
    (reflections included) of connected 3-valent plane maps with all faces
    of size q or 6 and at most n_max vertices.

    With a budget the run may stop early, before a unit of work or inside
    one (the clock is read every CLOCK_EVERY states); the result is then
    flagged truncated and holds the classes met so far, which may miss
    some at any n, so it must not be treated as a complete enumeration.
    A checkpoint path makes long runs resumable: after each finished unit
    the number of finished units and the graphs they accepted, each with
    its unit, are written there atomically.  Resuming raises
    CheckpointError, before any save, when the file is unreadable or
    malformed, holds a class twice or a graph that is not a canonical-root
    representative or whose unit is not below 'done', or was written by
    another format version or for another spec; and later, when a unit
    meets a class that the file gives to another unit, after writing the
    file back as it was loaded, over the saves of the units before it.
    """
    growth = _Growth(spec.q, spec.n_max)
    start_time = time.monotonic()

    def out_of_time() -> bool:
        return budget_seconds is not None and time.monotonic() - start_time > budget_seconds

    # the initial state holds one edge, SPLIT_DEPTH - 1 above the split
    units = [s for s in _descend(growth, growth.initial(), SPLIT_DEPTH - 1) if s is not None]
    done = 0
    rows: list[tuple[int, bytes, PlaneGraph, int]] = []  # (n, code, graph, unit)
    if checkpoint_path:
        resumed = _load_checkpoint(checkpoint_path, spec, len(units))
        if resumed is not None:
            done, rows, loaded = resumed
    met = dict.fromkeys((row[1] for row in rows), True)  # code -> whether the file holds it
    result = GenerationResult()
    for unit in range(done, len(units)):
        if out_of_time():
            result.truncated = True
            break
        walked, result.truncated = _walk_subtree(growth, units[unit], out_of_time)
        for n, code, g in walked:
            if code in met:
                if met[code]:
                    replace_file(checkpoint_path, loaded)  # leave the refused file as it was
                    raise CheckpointError(
                        f"{checkpoint_path}: unit {unit} meets a class of the checkpoint"
                        " again; the file gives it a wrong subtree"
                    )
                raise InvariantError("two accepted completions share a canonical code")
            met[code] = False
            rows.append((n, code, g, unit))
        if result.truncated:
            # a cut unit is not saved as done: a resumed run walks it again
            break
        if checkpoint_path:
            _save_checkpoint(checkpoint_path, spec, unit + 1, rows)
    rows.sort(key=lambda row: row[:2])
    result.graphs = [row[2] for row in rows]
    result.codes = [row[1] for row in rows]
    return result


def _walk_subtree(growth: _Growth, root, out_of_time) -> tuple[list, bool]:
    """The (n, code, graph) of every completion at or below root, in walk
    order, and whether out_of_time, read every CLOCK_EVERY states, cut the
    walk short.  Each completion is kept with dart 0's prefix, walked to
    the end, as its code."""
    rows = []
    for state in _descend(growth, root):
        if state is None:
            if out_of_time():
                return rows, True
            continue
        alpha, watch, prefix = state[0], state[6], state[7]
        if watch:
            raise InvariantError("a completion has a root still waiting to be compared")
        if prefix[1] >= 0:  # the stop dart is matched: walk on to the end
            prefix = partial_prefix(growth.nxt, alpha, 0, prefix)
        g = growth.finish(state)
        rows.append((g.n_vertices, _encode(prefix[0]), g))
    return rows, False


def _is_complete(state) -> bool:
    return state[3] >= len(state[0])


def _descend(growth: _Growth, root, stop: int | None = None) -> Iterator:
    """Yield, in depth-first pre-order, every completed state at or below
    root (root itself when it is complete) and, when stop is given, every
    incomplete descendant stop edges below root that its own judgement
    keeps, which is not expanded further.  After every CLOCK_EVERY expanded
    states it yields None, at which the caller may read the clock."""
    stack = [iter((root,))]
    expanded = 0
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
        elif _is_complete(state):
            yield state
        elif len(stack) - 1 == stop:
            state = growth.settle(state)  # the units are the states the cut keeps here
            if state is not None:
                yield state
        else:
            stack.append(iter(growth.children(state)))
            expanded += 1
            if expanded % CLOCK_EVERY == 0:
                yield None


def _save_checkpoint(path, spec, done, rows) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "q": spec.q,
        "n_max": spec.n_max,
        "done": done,
        "graphs": [
            {"subtree": subtree, "sigma": list(g.sigma), "vertex_of": list(g.vertex_of)}
            for _, _, g, subtree in rows
        ],
    }
    # dumps, not dump: only the one-shot encoder runs in C
    replace_file(path, json.dumps(payload, separators=(",", ":")).encode())


def replace_file(path, data: bytes) -> None:
    """Write data beside path and rename it over path, so that a failed or
    interrupted write leaves the previous file intact and no partial one."""
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fp:
            fp.write(data)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_checkpoint(path, spec, n_units):
    """The finished unit count, the (n, code, graph, unit) rows and the
    bytes of a checkpoint, or None when there is no file."""
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
    if type(done) is not int or not 0 <= done <= n_units:
        raise CheckpointError(f"{path}: 'done' must be an integer in 0..{n_units}")
    entries = payload.get("graphs")
    if not isinstance(entries, list):
        raise CheckpointError(f"{path}: 'graphs' must be a list")
    rows = []
    first_row = {}  # code -> the first row that holds it
    for i, entry in enumerate(entries):
        where = f"{path}: graph {i}"
        if not isinstance(entry, dict):
            raise CheckpointError(f"{where} is not an object")
        subtree = entry.get("subtree")
        if type(subtree) is not int or not 0 <= subtree < done:
            raise CheckpointError(
                f"{where}: subtree {subtree!r} is not a finished one (an integer"
                f" below 'done' = {done}); the row is malformed or 'done' is too low"
            )
        sigma = _int_tuple(entry.get("sigma"), f"{where} sigma")
        vertex_of = _int_tuple(entry.get("vertex_of"), f"{where} vertex_of")
        try:
            g = PlaneGraph(sigma=sigma, vertex_of=vertex_of)
        except MapError as exc:
            raise CheckpointError(f"{where}: {exc}") from exc
        if g.n_vertices > spec.n_max or not is_q6(g, spec.q):
            raise CheckpointError(f"{where} is not a q/6 graph within the spec")
        code = canonical_root_code(g)
        if code is None:
            raise CheckpointError(f"{where} is not rooted at a canonical root")
        if code in first_row:
            raise CheckpointError(f"{where} repeats the class of graph {first_row[code]}")
        first_row[code] = i
        rows.append((g.n_vertices, code, g, subtree))
    return done, rows, raw


def _int_tuple(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise CheckpointError(f"{what} must be a list of integers")
    return tuple(value)
