"""Canonical codes, automorphism counts and chirality of plane graphs.

The code of a map rooted at a dart is a breadth-first relabeling of its
darts from the root: darts are numbered in the order the search meets them,
exploring sigma then alpha from each dart, and the code lists, for each
dart in that order, the numbers of its sigma- and alpha-images.  The code
determines the rooted map, so two rooted maps get equal codes exactly when
an isomorphism carries one root to the other.

One walk over one root set serves every caller, always in both
orientations, since classes are taken up to reflection.  ``canonical_form``
reads the whole walk and yields the canonical code, the order of the
automorphism group and chirality together; ``canonical_root_code``, the
checkpoint loader's canonical-root test and the tests' reference for the
generator's prefix cut, stops it at the first root that beats dart 0:

* **Roots.**  Only darts on a face of minimum size are tried, in both
  orientations (the mirror orientation uses the inverse rotation, and a dart
  d lies there on a face as large as the face of d ^ 1 in the original).
  Isomorphisms and reflections preserve face sizes, so this root set is
  carried onto itself and the minimum code over it is still an invariant of
  the isomorphism class.  The canonical code is that minimum.
* **Early abort.**  Each root's code is compared with the best so far while
  it is being built, and the root is dropped as soon as its prefix is
  larger.  A root that ties runs to the end, so that it is counted.
* **|Aut| is the number of minimal roots.**  Fix one minimal root r.  For
  every root with the same code there is exactly one isomorphism carrying
  r to it, and that is an automorphism (orientation-reversing when the two
  roots lie in different orientations).  Conversely every automorphism
  carries r to a root of the same code, because the root set is invariant,
  and an automorphism is fixed by the image of a single dart.
* **Chirality.**  The map is chiral when it has no orientation-reversing
  automorphism, that is when all minimal roots lie in one orientation.
"""

from __future__ import annotations

from itertools import islice
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


def _rooted_ints(sigma, root: int, best: list[int] | None) -> list[int] | None:
    """BFS code from root, or None as soon as a prefix exceeds best."""
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
    return out


def _resume(alpha, root: int, walk):
    """The BFS state (pos, order, k) of a walk from root: fresh when walk is
    None, else a copy of walk, with pos grown to the darts of alpha."""
    if walk is None:
        pos = [-1] * len(alpha)
        pos[root] = 0
        return pos, [root], 0
    pos, order, k = walk
    return pos + [-1] * (len(alpha) - len(pos)), order.copy(), k


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
        pos, order, k = _resume(alpha, root, None)
    else:
        code = previous[0][:-1]  # the stop dart is walked again
        _, _, pos, order = previous
        pos, order, k = _resume(alpha, root, (pos, order, len(code) >> 1))
    for d in islice(order, k, None):
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
    it once it is matched; the returned walk, passed back in then, resumes
    the comparison where it stopped instead of walking again from root.
    Equal codes of a complete map give (0, -1, None).
    """
    pos, order, k = _resume(alpha, root, walk)
    n = len(prefix)
    top = len(order)
    i = 2 * k
    # a list iterator sees the darts appended while it runs
    for d in islice(order, k, None):
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
            return 0, d, (pos, order, i >> 1)
        if i + 1 == n:
            return 0, stop, (pos, order, i >> 1)
        pa = pos[a]
        if pa < 0:
            pa = pos[a] = top
            top += 1
            order.append(a)
        b = prefix[i + 1]
        if pa != b:
            return (-1 if pa < b else 1), -1, None
        i += 2
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


def _contenders(orientations):
    """The one walk over the root set: yield (side, code) for each root, in
    order, whose code ties or beats the best so far (side 1 is the mirror)."""
    best = None
    for side, (table, roots) in enumerate(orientations):
        for root in roots:
            code = _rooted_ints(table, root, best)
            if code is not None:
                best = code
                yield side, code


def _encode(code: list[int]) -> bytes:
    return np.asarray(code, dtype=">u2").tobytes()


def canonical_form(g: PlaneGraph) -> CanonicalForm:
    """Canonical code, automorphism count and chirality in one pass."""
    best = None
    for side, code in _contenders(_root_orientations(g)):
        if code == best:
            count += 1
            sides.add(side)
        else:
            best, count, sides = code, 1, {side}
    return CanonicalForm(code=_encode(best), aut_order=count, chiral=len(sides) == 1)


def canonical_root_code(g: PlaneGraph) -> bytes | None:
    """The canonical code of g when dart 0, in g's own orientation, is one
    of its minimal roots; None otherwise.

    The walk starts at dart 0 and stops at the first root whose code is
    strictly smaller.  Of all the rooted maps of one isomorphism class,
    exactly those rooted at a minimal root pass, and they are all the same
    rooted map.
    """
    orientations = _root_orientations(g)
    if orientations[0][1][0] != 0:
        return None  # dart 0 is not on a face of minimum size
    walk = _contenders(orientations)
    _, best = next(walk)  # dart 0's code
    if any(code != best for _, code in walk):
        return None
    return _encode(best)


def canonical_code(g: PlaneGraph) -> bytes:
    """Isomorphism-class key: minimum rooted code over the canonical roots."""
    return canonical_form(g).code


def automorphism_count(g: PlaneGraph) -> int:
    """Order of the automorphism group, orientation-reversing maps included."""
    return canonical_form(g).aut_order


def is_chiral(g: PlaneGraph) -> bool:
    """True when the map admits no orientation-reversing automorphism."""
    return canonical_form(g).chiral
