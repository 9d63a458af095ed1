"""Isometric hypercube embeddings, edge classes, 5-gonal scans and
scale-2 half-cube search.

A connected graph embeds isometrically in a hypercube exactly when it is
bipartite and its Theta relation is transitive (Djokovic; Winkler).  The
recognizer checks both, reads the coordinates off the table of which side
of each edge each vertex lies on, and verifies them exhaustively, so a
returned embedding is always certified.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .plane_graph import PlaneGraph, all_pairs_distances, bipartition


class NonBipartiteError(ValueError):
    """Edge classes are only defined here for bipartite graphs."""


class InvariantError(RuntimeError):
    """Two results that theory ties together disagree: an internal fault,
    never a property of the input graph."""


@dataclass(frozen=True)
class ThetaClasses:
    """Partition of the edges into parallelism classes.

    Two edges xy and uv are directly related (Theta) when
    d(x,u) + d(y,v) != d(x,v) + d(y,u); classes are the transitive closure,
    numbered in order of their first edge.  ``intransitive`` is the
    lexicographically first pair of edges e < f of one class c that are not
    directly related, as (c, e, f), or None when Theta is transitive.  By
    Winkler's criterion a bipartite graph embeds in a hypercube exactly
    when it is None, and the classes are then the coordinate directions, so
    the class count equals the embedding dimension.  ``side`` is the n x E
    table the relation was read from: side[v, e] is True when v is nearer
    the second end of edge e than its first.
    """

    class_of: tuple[int, ...]
    m: int
    intransitive: tuple[int, int, int] | None
    side: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class HypercubeEmbedding:
    """Vertex -> coordinate-set map into H_m at scale 1 or 2."""

    m: int
    scale: int
    phi: tuple[frozenset[int], ...]

    def bit_matrix(self) -> np.ndarray:
        mat = np.zeros((len(self.phi), self.m), dtype=bool)
        for v, s in enumerate(self.phi):
            for c in s:
                mat[v, c] = True
        return mat

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "scale": self.scale,
            "phi": [sorted(s) for s in self.phi],
        }


@dataclass(frozen=True)
class RecognitionFailure:
    """Concrete witness that no isometric hypercube embedding exists.

    A connected graph is a partial cube iff it is bipartite and Theta is
    transitive (Winkler), so kind is one of:
      odd_cycle         -- detail: vertex cycle of odd length
      intransitive_pair -- detail: (class index, edge, edge), two edges of
                           one Theta class that are not directly related
    """

    kind: str
    detail: tuple


@dataclass(frozen=True)
class RecognitionResult:
    embedding: HypercubeEmbedding | None
    failure: RecognitionFailure | None

    def __bool__(self) -> bool:
        return self.embedding is not None


@dataclass(frozen=True)
class FiveGonalWitness:
    """Violated instance of the pentagonal inequality

        d(a,b) + d(x,y) + d(x,z) + d(y,z)
            <= d(a,x) + d(a,y) + d(a,z) + d(b,x) + d(b,y) + d(b,z)

    deficit = right side minus left side (negative here); diameter is the
    largest pairwise distance among the five vertices.
    """

    a: int
    b: int
    x: int
    y: int
    z: int
    deficit: int
    diameter: int


# -- edge classes ----------------------------------------------------------


def theta_classes(g: PlaneGraph, dist: np.ndarray | None = None) -> ThetaClasses:
    """Edge classes under the transitive closure of the distance relation,
    with the first pair of one class that the relation leaves apart.

    Edges xy and uv are directly related when
    d(x,u) - d(x,v) != d(y,u) - d(y,v).  The distances from any vertex w
    to the two ends of an edge uv differ by at most one, and in a
    bipartite graph they have opposite parity, so d(w,u) - d(w,v) is +1 or
    -1: it only says on which side of uv the vertex w lies.  Hence xy and
    uv are related exactly when x and y lie on different sides of uv, and
    with the n x E table side[w, e] (w nearer the second end of e) the
    E x E relation is side[x] != side[y] over the ends of the edges.  A
    graph with an odd cycle has a vertex equidistant from both ends of
    some edge, where the identity fails, so the graph is checked to be
    bipartite before the table is read: a connected graph is bipartite
    iff no edge joins two vertices at the same distance from vertex 0.

    Classes are the connected components of the relation, numbered in
    order of their first edge.
    """
    if dist is None:
        dist = all_pairs_distances(g)
    ends = np.array(g.vertex_of, dtype=np.intp).reshape(-1, 2)
    x, y = ends[:, 0], ends[:, 1]
    if (dist[0, x] == dist[0, y]).any():
        raise NonBipartiteError("graph has an odd cycle")
    side = dist[:, y] < dist[:, x]
    related = side[x] != side[y]
    # least edge of each component: start from each edge's least related
    # edge (every edge is related to itself), propagate minima along the
    # relation and jump through labels until nothing changes; the labels
    # are edge numbers, held in the narrowest dtype that also holds ne
    ne = len(ends)
    label = related.argmax(axis=1).astype(np.min_scalar_type(ne))
    while True:
        low = np.where(related, label, ne).min(axis=1)
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    firsts, class_of = np.unique(label, return_inverse=True)
    # related edges share a class, so an edge whose row is shorter than its
    # class has a classmate it is not related to; the least such edge and
    # its least such classmate are the lexicographically first pair
    short = np.flatnonzero(related.sum(axis=1) < np.bincount(class_of)[class_of])
    intransitive = None
    if short.size:
        e = int(short[0])
        c = int(class_of[e])
        f = int(np.flatnonzero((class_of == c) & ~related[e])[0])
        intransitive = (c, e, f)
    return ThetaClasses(
        class_of=tuple(class_of.tolist()),
        m=len(firsts),
        intransitive=intransitive,
        side=side,
    )


# -- recognition -----------------------------------------------------------


def recognize_partial_cube(
    g: PlaneGraph, dist: np.ndarray | None = None
) -> RecognitionResult:
    """Decide isometric hypercube embeddability, with certificate either way.

    A connected graph is a partial cube iff it is bipartite and its Theta
    relation is transitive (Djokovic 1973, Winkler 1984).  On success
    vertex 0 gets the empty set, and vertex v gets class c when v lies on
    the other side of c's first edge than vertex 0, as read from the side
    table of ``theta_classes``.  The embedding is verified on all vertex
    pairs before being returned.  ``dist`` is the distance matrix of ``g``
    when the caller already has it.
    """
    bip = bipartition(g)
    if not bip:
        return RecognitionResult(
            embedding=None,
            failure=RecognitionFailure(kind="odd_cycle", detail=bip.odd_cycle),
        )
    if dist is None:
        dist = all_pairs_distances(g)
    theta = theta_classes(g, dist)
    if theta.intransitive is not None:
        return RecognitionResult(
            embedding=None,
            failure=RecognitionFailure(kind="intransitive_pair", detail=theta.intransitive),
        )
    firsts = np.unique(theta.class_of, return_index=True)[1]
    side = theta.side[:, firsts]
    bits = side != side[0]
    phi = tuple(frozenset(np.flatnonzero(row).tolist()) for row in bits)
    emb = HypercubeEmbedding(m=theta.m, scale=1, phi=phi)
    ok, bad = verify_scale_embedding(g, emb, dist)
    if not ok:
        raise InvariantError(f"transitive Theta gave a non-embedding, pair {bad}")
    return RecognitionResult(embedding=emb, failure=None)


def verify_scale_embedding(
    g: PlaneGraph, emb: HypercubeEmbedding, dist: np.ndarray | None = None
) -> tuple[bool, tuple[int, int] | None]:
    """Exact check of scale * d_G(x,y) == Hamming(phi(x), phi(y)) on all pairs.

    Returns (True, None) or (False, first violating pair) in row-major
    vertex order.  ``dist`` is the distance matrix of ``g`` when the caller
    already has it.
    """
    n = g.n_vertices
    if len(emb.phi) != n:
        raise ValueError("embedding does not cover every vertex")
    if dist is None:
        dist = all_pairs_distances(g)
    bits = emb.bit_matrix()
    ham = (bits[:, None, :] != bits[None, :, :]).sum(axis=2)
    diff = ham != emb.scale * dist
    if not diff.any():
        return True, None
    x, y = (int(v) for v in np.argwhere(diff)[0])
    return False, (x, y)


# -- 5-gonal inequality -----------------------------------------------------

# positions of {a, b} inside an ascending 5-tuple, in scan order; the same
# list numbers the ten vertex pairs of a subset
_ROLE_SPLITS = tuple(itertools.combinations(range(5), 2))
# per split, the pairs on the left of the inequality: {a, b} and the three
# pairs inside {x, y, z}; the other six pairs make up the right side
_LEFT_PAIRS = np.array(
    [
        [_ROLE_SPLITS.index(p) for p in [(ia, ib), *itertools.combinations(rest, 2)]]
        for ia, ib in _ROLE_SPLITS
        for rest in [[k for k in range(5) if k not in (ia, ib)]]
    ]
)
# subsets per chunk: the first chunk is small so that an early witness is
# found cheaply, and each chunk doubles up to the cap
_FIRST_CHUNK = 256
_CHUNK = 65536


def _extend(block: np.ndarray, n: int) -> np.ndarray:
    """Every one-step extension of each ascending prefix of a 5-subset of
    range(n) that can still be completed, in lexicographic order."""
    last = block[:, -1]
    counts = n - 5 + block.shape[1] - last  # next entry: last+1 .. n-5+len
    starts = np.cumsum(counts) - counts
    nxt = np.arange(counts.sum()) + np.repeat(last + 1 - starts, counts)
    return np.column_stack([np.repeat(block, counts, axis=0), nxt])


def _five_subsets(n: int):
    """The 5-subsets of range(n) in ascending lexicographic order, as
    (rows, 5) index arrays of _FIRST_CHUNK rows, then twice as many each
    time up to _CHUNK; the last array may be shorter.

    A chunk is cut from a stack of blocks of prefixes, the next one on
    top: as many leading prefixes of the top block as fit are completed
    whole, and when not even the first one fits, it is replaced by its
    one-step extensions.
    """
    # ways[r, m] = C(m, r), by Pascal's rule as running sums
    ways = np.ones((6, n + 1), dtype=np.int64)
    ways[1:, 0] = 0
    for r in range(1, 6):
        np.cumsum(ways[r - 1, :-1], out=ways[r, 1:])
    stack = [np.arange(n - 4)[:, None]]
    size = _FIRST_CHUNK
    while stack:
        parts, room = [], size
        while room and stack:
            block = stack.pop()
            # running count of completions: the rest of each subset lies
            # above its prefix's last entry
            total = np.cumsum(ways[5 - block.shape[1], n - 1 - block[:, -1]])
            k = int(np.searchsorted(total, room, side="right"))
            if k == 0:
                # the last prefix of a block has one completion, so this
                # block has more prefixes than the one that does not fit
                stack += [block[1:], _extend(block[:1], n)]
                continue
            if k < len(block):
                stack.append(block[k:])
            room -= int(total[k - 1])
            block = block[:k]
            while block.shape[1] < 5:
                block = _extend(block, n)
            parts.append(block)
        yield np.concatenate(parts)
        size = min(2 * size, _CHUNK)


def five_gonal_scan(
    dist: np.ndarray, stop_at_first: bool = False
) -> list[FiveGonalWitness]:
    """All violated pentagonal inequalities of a metric (or just the first).

    Scans the C(n,5) vertex subsets in ascending lexicographic order and the
    10 role splits per subset in ascending position order, so the first
    witness is deterministic.  Returns [] exactly when the metric is
    5-gonal; n < 5 yields [].  The subsets come in growing chunks from
    _five_subsets, built by numpy from blocks of prefixes, in the same
    order as itertools.combinations.  The distances are held in the
    narrowest signed dtype that holds 10 * max(dist), which bounds both
    sides of every inequality.
    """
    n = dist.shape[0]
    if n < 5:
        return []
    witnesses: list[FiveGonalWitness] = []
    # signed, and wide enough for -10 * max - 1, so it holds +-10 * max
    dtype = np.min_scalar_type(-1 - 10 * int(dist.max()))
    flat = dist.astype(dtype).ravel()
    for chunk in _five_subsets(n):
        # one row per vertex pair, one column per subset
        cols = chunk.T.copy()
        pair = np.empty((len(_ROLE_SPLITS), len(chunk)), dtype=dtype)
        for k, (i, j) in enumerate(_ROLE_SPLITS):
            flat.take(cols[i] * n + cols[j], out=pair[k])
        left = pair[_LEFT_PAIRS[:, 0]]
        for k in range(1, 4):
            left += pair[_LEFT_PAIRS[:, k]]
        # right minus left, where right plus left is the sum over all pairs
        deficits = pair.sum(axis=0, dtype=dtype) - 2 * left
        negative = deficits < 0
        if not negative.any():
            continue
        for row, si in np.argwhere(negative.T):
            combo = chunk[row]
            ia, ib = _ROLE_SPLITS[si]
            rest = [k for k in range(5) if k not in (ia, ib)]
            witnesses.append(
                FiveGonalWitness(
                    a=int(combo[ia]),
                    b=int(combo[ib]),
                    x=int(combo[rest[0]]),
                    y=int(combo[rest[1]]),
                    z=int(combo[rest[2]]),
                    deficit=int(deficits[si, row]),
                    diameter=int(pair[:, row].max()),
                )
            )
            if stop_at_first:
                return witnesses
    return witnesses


def is_five_gonal(dist: np.ndarray) -> bool:
    return not five_gonal_scan(dist, stop_at_first=True)


# -- backtracking search for scale embeddings -------------------------------


@dataclass(frozen=True)
class EmbeddingSearchOutcome:
    """status: 'found' | 'none' | 'inconclusive' (budget exhausted)."""

    status: str
    embedding: HypercubeEmbedding | None

    def __bool__(self) -> bool:
        return self.status == "found"


def search_scale_embedding(
    g: PlaneGraph, m: int, scale: int, node_budget: int = 10**8
) -> EmbeddingSearchOutcome:
    """Backtracking search for a scale-1 or scale-2 embedding into H_m.

    Vertices are placed in breadth-first order; images are bitmasks.  Each
    candidate must match scale * d against every placed vertex, and new
    coordinates must be the lowest unused ones (breaking the coordinate
    symmetry, which also pins the first edge).  Exhausting the search space
    proves non-existence; exceeding the budget is reported as inconclusive.
    """
    if scale not in (1, 2):
        raise ValueError("scale must be 1 or 2")
    if m < 0:
        raise ValueError("m must be at least 0")
    n = g.n_vertices
    dist = all_pairs_distances(g)
    order = [0]
    seen = [False] * n
    seen[0] = True
    for v in order:
        for w in g.neighbors[v]:
            if not seen[w]:
                seen[w] = True
                order.append(w)
    # distances from each vertex to the already placed ones, premultiplied
    target = [[scale * int(dist[order[i], order[j]]) for j in range(i)] for i in range(n)]
    parents = [0] * n
    for i in range(1, n):
        parents[i] = next(j for j in range(i) if target[i][j] == scale)

    full = (1 << m) - 1
    single = [1 << b for b in range(m)]
    doubles = [
        (1 << b1) | (1 << b2) for b1 in range(m) for b2 in range(b1 + 1, m)
    ]
    deltas = single if scale == 1 else doubles

    images = [0] * n
    used_mask = [0] * (n + 1)  # coordinates used before placing vertex i
    placements = 0

    def lowest_bits(mask: int, k: int) -> int:
        out = 0
        b = 0
        while k:
            if not mask & (1 << b):
                out |= 1 << b
                k -= 1
            b += 1
        return out

    def place(i: int) -> str:
        nonlocal placements
        if i == n:
            return "found"
        base = images[parents[i]]
        trow = target[i]
        for delta in deltas:
            cand = base ^ delta
            placements += 1
            if placements > node_budget:
                return "inconclusive"
            new = cand & ~used_mask[i] & full
            if new and new != lowest_bits(used_mask[i], new.bit_count()):
                continue
            ok = True
            for j in range(i):
                if (cand ^ images[j]).bit_count() != trow[j]:
                    ok = False
                    break
            if ok:
                images[i] = cand
                used_mask[i + 1] = used_mask[i] | cand
                res = place(i + 1)
                if res != "none":
                    return res
        return "none"

    status = place(1) if n > 1 else "found"
    if status != "found":
        return EmbeddingSearchOutcome(status=status, embedding=None)
    phi = [frozenset()] * n
    for i, v in enumerate(order):
        phi[v] = frozenset(b for b in range(m) if images[i] >> b & 1)
    emb = HypercubeEmbedding(m=m, scale=scale, phi=tuple(phi))
    ok, bad = verify_scale_embedding(g, emb, dist)
    if not ok:
        raise InvariantError(f"search returned a non-embedding, pair {bad}")
    return EmbeddingSearchOutcome(status="found", embedding=emb)


def search_halfcube_embedding(
    g: PlaneGraph, m: int, node_budget: int = 10**8
) -> EmbeddingSearchOutcome:
    """Search for a scale-2 embedding into the even-weight half of H_m."""
    if m > 12:
        raise ValueError("half-cube search is limited to m <= 12")
    return search_scale_embedding(g, m, scale=2, node_budget=node_budget)
