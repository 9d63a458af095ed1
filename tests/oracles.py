"""Reference implementations that the tests check the package against.

* ``enumerate_rotation_maps`` is a brute-force enumeration of rooted maps.
  It is a deliberately plain depth-first search: vertices carry dart
  triples (3v, 3v+1, 3v+2) with the rotation fixed, and every fixed-point
  free dart matching is explored.  The lowest unmatched dart is always
  matched next, either to an unmatched dart of an existing vertex or to a
  fresh vertex, so each rooted map arises from exactly one branch;
  isomorphism classes are therefore produced with multiplicity (roughly
  one copy per rooted start) and duplicates are NOT removed here.

  Pruning keeps only what is obviously sound: no loops, no parallel edges,
  no face walk longer than six darts, closed faces of size q or 6 with the
  Euler-forced cap on q-gons.  Every completed matching is rebuilt and
  re-checked with the public predicates (which also discards the rotation
  systems of positive genus), so the pruning is not trusted for the final
  answer.
* ``are_isomorphic`` is an explicit isomorphism search by dart
  propagation, and ``_try_dart_map`` its single-root step; they cross-check
  the canonical codes, the automorphism counts and chirality.
* ``canonical_form_oracle`` is the canonical walk without orbit pruning or
  early abort: every root runs to the end, its whole code is compared with
  the best, and a tying root is counted, so |Aut| is the number of minimal
  roots and the map is chiral when they all lie in one orientation.
* ``relabel`` renumbers the vertices of a map by a permutation drawn from
  a seeded generator, so that a check sees an input whose numbering says
  nothing of its construction.
"""

from __future__ import annotations

import random

from hexcube.canonical import CanonicalForm, _encode, _root_orientations, partial_prefix
from hexcube.plane_graph import MapError, PlaneGraph, is_q6, sigma_inverse

_Q_CAP = {3: 4, 4: 6, 5: 12}


def _face_walk_ok(alpha: list[int], nxt: list[int], prv: list[int], d: int, q: int):
    """Check the face walk through dart d; returns (ok, closed_size_or_0)."""
    back = 0
    cur = d
    while True:
        p = alpha[prv[cur]]
        if p < 0:
            break
        cur = p
        if cur == d:
            # closed face: count its darts by walking it once
            size = 1
            x = nxt[alpha[d]]
            while x != d:
                size += 1
                x = nxt[alpha[x]]
            return size in (q, 6), size
        back += 1
        if back > 7:
            return False, 0
    length = back + 1
    x = d
    while alpha[x] >= 0:
        x = nxt[alpha[x]]
        length += 1
        if length > 6:
            return False, 0
    return True, 0


def _closed_face_darts(alpha: list[int], nxt: list[int], d: int) -> set[int]:
    out = {d}
    x = nxt[alpha[d]]
    while x != d:
        out.add(x)
        x = nxt[alpha[x]]
    return out


def enumerate_rotation_maps(q: int, n_max: int) -> list[PlaneGraph]:
    """Every connected simple 3-valent plane map with faces in {q, 6} on at
    most n_max vertices, listed with rooted multiplicity (duplicates kept)."""
    if q not in (3, 4, 5):
        raise ValueError("q must be 3, 4 or 5")
    nd_max = 3 * n_max
    nxt = [0] * nd_max
    prv = [0] * nd_max
    for v in range(n_max):
        b = 3 * v
        nxt[b], nxt[b + 1], nxt[b + 2] = b + 1, b + 2, b
        prv[b], prv[b + 1], prv[b + 2] = b + 2, b, b + 1
    cap = _Q_CAP[q]

    alpha = [-1] * nd_max
    adjacent: set[tuple[int, int]] = set()
    results: list[PlaneGraph] = []

    def rebuild(used: int) -> None:
        nd = 3 * used
        perm = [-1] * nd
        nid = 0
        for d in range(nd):
            if perm[d] < 0:
                perm[d] = nid
                perm[alpha[d]] = nid + 1
                nid += 2
        sigma = [0] * nd
        vertex_of = [0] * nd
        for d in range(nd):
            sigma[perm[d]] = perm[nxt[d]]
            vertex_of[perm[d]] = d // 3
        try:
            g = PlaneGraph(sigma=tuple(sigma), vertex_of=tuple(vertex_of))
        except MapError:
            return  # positive genus: a rotation system, but not a plane graph
        if is_q6(g, q):
            results.append(g)

    def extend(used: int, q_faces: int) -> None:
        d = -1
        for i in range(3 * used):
            if alpha[i] < 0:
                d = i
                break
        if d < 0:
            rebuild(used)
            return
        vd = d // 3
        candidates = [e for e in range(d + 1, 3 * used) if alpha[e] < 0]
        if used < n_max:
            candidates.append(3 * used)
        for e in candidates:
            ve = e // 3
            if ve == vd:
                continue
            pair = (vd, ve) if vd < ve else (ve, vd)
            fresh = ve == used
            if not fresh and pair in adjacent:
                continue
            alpha[d] = e
            alpha[e] = d
            adjacent.add(pair)
            ok1, closed1 = _face_walk_ok(alpha, nxt, prv, d, q)
            nq = q_faces + (1 if closed1 == q else 0)
            ok2 = True
            if ok1:
                same_face = closed1 > 0 and e in _closed_face_darts(alpha, nxt, d)
                if not same_face:
                    ok2, closed2 = _face_walk_ok(alpha, nxt, prv, e, q)
                    if closed2 == q:
                        nq += 1
            if ok1 and ok2 and nq <= cap:
                extend(used + 1 if fresh else used, nq)
            alpha[d] = -1
            alpha[e] = -1
            adjacent.discard(pair)

    # root edge: dart 0 matched to the first dart of vertex 1
    alpha[0] = 3
    alpha[3] = 0
    adjacent.add((0, 1))
    extend(2, 0)
    return results


def _try_dart_map(gs, hs, root: int) -> bool:
    """Propagate dart 0 of g -> root of h along sigma and alpha."""
    nd = len(gs)
    image = [-1] * nd
    used = [False] * nd
    image[0] = root
    used[root] = True
    stack = [0]
    while stack:
        d = stack.pop()
        for gn, hn in ((gs[d], hs[image[d]]), (d ^ 1, image[d] ^ 1)):
            if image[gn] < 0:
                if used[hn]:
                    return False
                image[gn] = hn
                used[hn] = True
                stack.append(gn)
            elif image[gn] != hn:
                return False
    return all(x >= 0 for x in image)


def are_isomorphic(g: PlaneGraph, h: PlaneGraph, include_reflection: bool = True) -> bool:
    """Explicit isomorphism search by dart-correspondence propagation.

    Independent of canonical_code; used to cross-check it on small inputs.
    """
    if g.dart_count != h.dart_count:
        return False
    targets = [h.sigma]
    if include_reflection:
        targets.append(sigma_inverse(h.sigma))
    for hs in targets:
        for root in range(h.dart_count):
            if _try_dart_map(g.sigma, hs, root):
                return True
    return False


def canonical_form_oracle(g: PlaneGraph) -> CanonicalForm:
    """canonical_form by walking every root to the end and comparing the
    whole codes, in the same root order."""
    alpha = [d ^ 1 for d in range(g.dart_count)]
    best = None
    for side, (table, roots) in enumerate(_root_orientations(g)):
        for root in roots:
            code = partial_prefix(table, alpha, root)[0]
            if code == best:
                count += 1
                sides.add(side)
            elif best is None or code < best:
                best, count, sides = code, 1, {side}
    return CanonicalForm(code=_encode(best), aut_order=count, chiral=len(sides) == 1)


def relabel(g: PlaneGraph, rng: random.Random) -> PlaneGraph:
    """The same map with its vertices renumbered by a permutation drawn
    from rng; each neighbour list keeps its rotation."""
    perm = list(range(g.n_vertices))
    rng.shuffle(perm)
    rows = [None] * g.n_vertices
    for v, nbrs in enumerate(g.neighbors):
        rows[perm[v]] = [perm[w] for w in nbrs]
    return PlaneGraph.from_rotations(rows)
