"""Canonical codes, automorphism counts and chirality of plane graphs.

The code of a map rooted at a dart is a breadth-first relabeling of its
darts from the root: darts are numbered in the order the search meets them,
exploring sigma then alpha from each dart, and the code lists, for each
dart in that order, the numbers of its sigma- and alpha-images.  The code
determines the rooted map, so two rooted maps get equal codes exactly when
an isomorphism carries one root to the other.

One walk over one root set serves every caller, always in both
orientations, since classes are taken up to reflection.  ``canonical_form``
reads from it the canonical code, the order of the automorphism group and
chirality together; ``canonical_root_code``, the checkpoint loader's
canonical-root test and the tests' reference for the generator's prefix
cut, reads from it whether dart 0 is a minimal root:

* **Roots.**  Only darts on a face of minimum size are tried, in both
  orientations (the mirror orientation uses the inverse rotation, and a dart
  d lies there on a face as large as the face of d ^ 1 in the original).
  Isomorphisms and reflections preserve face sizes, so this root set is
  carried onto itself and the minimum code over it is still an invariant of
  the isomorphism class.  The canonical code is that minimum.
* **Early abort.**  Each root's code is compared with the best so far while
  it is being built, and the root is dropped as soon as its prefix is
  larger.
* **One walk per orbit of roots.**  When a root's code ties the best, the
  two BFS orders give an automorphism, best_order[i] -> order[i], which is
  orientation-reversing when the two roots lie in different orientations.
  It is kept as a generator.  Automorphisms carry roots to roots of the
  same code, so a root that the generators found so far carry from a root
  already walked is skipped.  The first minimal root walked stays the best.
  Every later minimal root either ties it, which adds a generator carrying
  the best to it, or lies in the orbit of a walked root of the same code,
  which was walked after the best and so, by induction, lies in the best
  root's orbit.  So the minimal roots are exactly the best root's orbit
  under the generators.
* **|Aut| is the size of that orbit.**  Every automorphism carries the best
  root to a minimal root, because the root set is invariant, and is fixed
  by that image: a dart's image and whether orientation is reversed fix
  it.  Conversely each minimal root is the image of exactly one.  So |Aut|
  is the number of minimal roots, and the group the generators generate,
  whose orbit is that large, is all of Aut.
* **Chirality.**  The map is chiral when it has no orientation-reversing
  automorphism, that is when no generator reverses orientation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .plane_graph import PlaneGraph, sigma_inverse


class CanonicalForm(NamedTuple):
    """Result of one canonical pass over a map.

    code      -- isomorphism-class key, equal exactly for isomorphic maps
    aut_order -- order of the automorphism group
    chiral    -- no orientation-reversing automorphism exists

    Both orientations are always walked, so the code is a key up to
    reflection and aut_order counts orientation-reversing automorphisms.
    """

    code: bytes
    aut_order: int
    chiral: bool


def _rooted_ints(sigma, root: int, best: list[int] | None):
    """BFS code from root and the BFS order of its darts, as (code, order),
    or None as soon as a prefix exceeds best."""
    pos = [-1] * len(sigma)
    pos[root] = 0
    order = [root]
    out = []
    i = 0
    for d in order:
        s = sigma[d]
        ps = pos[s]
        if ps < 0:
            ps = pos[s] = len(order)
            order.append(s)
        a = d ^ 1
        pa = pos[a]
        if pa < 0:
            pa = pos[a] = len(order)
            order.append(a)
        out.append(ps)
        out.append(pa)
        if best is not None:
            b = best[i]
            if ps != b:
                if ps > b:
                    return None
                best = None  # strictly smaller from here on
            else:
                b = best[i + 1]
                if pa != b:
                    if pa > b:
                        return None
                    best = None
            i += 2
    return out, order


def partial_prefix(sigma, alpha, root: int, previous=None):
    """The fixed prefix of the BFS code from root of a partial map, whose
    alpha is -1 at unmatched darts, as (code, stop, pos, order).

    The walk is _rooted_ints' with alpha read from the table.  It stops at
    stop, the first dart in BFS order whose alpha is unset, after that
    dart's sigma entry (stop is -1 when no dart is unmatched).  Everything
    before it is read from matched darts only, so the code of every
    completion from root starts with this prefix.  previous, the result
    for a map that alpha extends, is resumed at its stop instead of walking
    again from root; it is not changed.
    """
    if previous is None:
        code = []
        pos = [-1] * len(alpha)
        pos[root] = 0
        order = [root]
        k = 0
    else:
        code = previous[0][:-1]  # the stop dart is walked again
        pos = previous[2] + [-1] * (len(alpha) - len(previous[2]))
        order = previous[3].copy()
        k = len(code) >> 1
    while k < len(order):
        d = order[k]
        s = sigma[d]
        ps = pos[s]
        if ps < 0:
            ps = pos[s] = len(order)
            order.append(s)
        code.append(ps)
        a = alpha[d]
        if a < 0:
            return code, d, pos, order
        pa = pos[a]
        if pa < 0:
            pa = pos[a] = len(order)
            order.append(a)
        code.append(pa)
        k += 1
    return code, -1, pos, order


def partial_compare(sigma, alpha, root: int, prefix: list[int], stop: int, walk=None):
    """Compare root's code with the code that starts with prefix, in every
    completion of a partial map, as (sign, blocker, walk).

    prefix and stop are partial_prefix's code and stop for another root of
    the same map.  The walk runs until the first entry where root's fixed
    prefix differs from prefix, and sign is -1 when root's entry is smaller
    and 1 when it is larger: every completion keeps that order.  When one
    prefix ends first the order is not yet known: sign is 0 and blocker is
    the unmatched dart that ends the shorter prefix, which alone can decide
    it once it is matched.  The returned walk (pos, order, k), the BFS
    positions, the BFS order and the index in it of the dart to walk next,
    is resumed where it stopped when it is passed back in then, instead of
    walking again from root; it is copied, not changed, because the
    children of one state share it.  Equal codes of a complete map give
    (0, -1, None).
    """
    if walk is None:
        pos = [-1] * len(alpha)
        pos[root] = 0
        order = [root]
        k = 0
    else:
        pos = walk[0] + [-1] * (len(alpha) - len(walk[0]))
        order = walk[1].copy()
        k = walk[2]
    n = len(prefix)
    top = len(order)
    i = 2 * k
    while k < top:
        d = order[k]
        s = sigma[d]
        ps = pos[s]
        if ps < 0:
            ps = pos[s] = top
            top += 1
            order.append(s)
        b = prefix[i]
        if ps != b:
            return (-1 if ps < b else 1), -1, None
        a = alpha[d]
        if a < 0:
            return 0, d, (pos, order, k)
        if i + 1 == n:
            return 0, stop, (pos, order, k)
        pa = pos[a]
        if pa < 0:
            pa = pos[a] = top
            top += 1
            order.append(a)
        b = prefix[i + 1]
        if pa != b:
            return (-1 if pa < b else 1), -1, None
        i += 2
        k += 1
    return 0, -1, None


def _root_orientations(g: PlaneGraph):
    """The canonical root set: g's rotation table and its mirror's (the
    inverse rotation), each with the darts on a face of minimum size, in
    increasing order."""
    sigma = g.sigma
    size = [0] * len(sigma)
    for f in g.faces:
        s = len(f)
        for d in f:
            size[d] = s
    fmin = min(size)
    return (
        (sigma, [d for d, s in enumerate(size) if s == fmin]),
        (sigma_inverse(sigma), [d for d in range(len(sigma)) if size[d ^ 1] == fmin]),
    )


def _encode(code: list[int]) -> bytes:
    return np.asarray(code, dtype=">u2").tobytes()


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _orbit_walk(g: PlaneGraph) -> tuple[list[int], list[int], bool]:
    """The one walk over the root set, one root per orbit of the
    automorphisms found so far: (code, orbit, chiral), with orbit the
    minimal roots, numbered side * darts + dart (side 1 is the mirror)."""
    orientations = _root_orientations(g)
    nd = len(g.sigma)
    roots = [side * nd + d for side, (_, ds) in enumerate(orientations) for d in ds]
    parent = list(range(2 * nd))  # union-find over roots; a class is an orbit
    walked = [False] * (2 * nd)  # per orbit: holds a walked root
    best = None
    chiral = True
    for x in roots:
        side, root = divmod(x, nd)
        top = _find(parent, x)
        if walked[top]:
            continue  # its code is the code of a walked root
        walked[top] = True
        walk = _rooted_ints(orientations[side][0], root, best)
        if walk is None:
            continue
        code, order = walk
        if code != best:
            best, best_order, best_x = code, order, x
            continue
        # a tie: best_order[i] -> order[i] is an automorphism, reversing
        # orientation when the two roots lie on different sides; it joins
        # the orbit of each root with the orbit of its image
        flip = side != best_x // nd
        chiral = chiral and not flip
        image = [0] * nd
        for a, b in zip(best_order, order):
            image[a] = b
        for y in roots:
            s, d = divmod(y, nd)
            u, v = _find(parent, y), _find(parent, (s ^ flip) * nd + image[d])
            if u != v:
                parent[u] = v
                walked[v] = walked[v] or walked[u]
    top = _find(parent, best_x)
    return best, [y for y in roots if _find(parent, y) == top], chiral


def canonical_form(g: PlaneGraph) -> CanonicalForm:
    """Canonical code, automorphism count and chirality in one pass."""
    code, orbit, chiral = _orbit_walk(g)
    return CanonicalForm(code=_encode(code), aut_order=len(orbit), chiral=chiral)


def canonical_root_code(g: PlaneGraph) -> bytes | None:
    """The canonical code of g when dart 0, in g's own orientation, is one
    of its minimal roots; None otherwise.

    Of all the rooted maps of one isomorphism class, exactly those rooted
    at a minimal root pass, and they are all the same rooted map.
    """
    code, orbit, _ = _orbit_walk(g)
    return _encode(code) if 0 in orbit else None


def canonical_code(g: PlaneGraph) -> bytes:
    """Isomorphism-class key: minimum rooted code over the canonical roots."""
    return canonical_form(g).code


def automorphism_count(g: PlaneGraph) -> int:
    """Order of the automorphism group, orientation-reversing maps included."""
    return canonical_form(g).aut_order


def is_chiral(g: PlaneGraph) -> bool:
    """True when the map admits no orientation-reversing automorphism."""
    return canonical_form(g).chiral
