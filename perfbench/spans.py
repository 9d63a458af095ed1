"""Spans around calls into hexcube's layers, recorded from outside the package.

`Tracer.install()` replaces each traced function with a wrapper under every
name that refers to it in a loaded `hexcube` module (so
`hexcube.reports.canonical_code`, `hexcube.generator.canonical_code` and
`hexcube.canonical.canonical_code` all record), and wraps the `_Growth`
methods of the generator.  `uninstall()` puts the originals back.  Spans are
kept in memory as (name, start, end, parent) columns and written out with
`save()` when the run ends.  A span's self time is its duration minus the
durations of its direct children; calls are strictly nested in one thread,
so children never overlap.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from array import array

import numpy as np

import hexcube.canonical as canonical
import hexcube.embedding as embedding
import hexcube.generator as generator
import hexcube.goldberg as goldberg
import hexcube.planar_code as planar_code
import hexcube.plane_graph as plane_graph
import hexcube.reports as reports
import hexcube.zones as zones

# span name -> (module, attribute); the name is "<module>.<function>"
FUNCTIONS = {
    f"{mod.__name__.rsplit('.', 1)[1]}.{attr}": (mod, attr)
    for mod, attrs in (
        (generator, ("generate_q6",)),
        (canonical, ("canonical_code", "automorphism_count", "is_chiral")),
        (plane_graph, ("is_three_connected", "all_pairs_distances")),
        (embedding, ("recognize_partial_cube", "theta_classes", "five_gonal_scan")),
        (zones, ("trace_zones",)),
        (goldberg, ("goldberg_coxeter_cube",)),
        (planar_code, ("read_planar_code", "write_planar_code")),
        (reports, ("check_graph",)),
    )
    for attr in attrs
}
GROWTH_METHODS = ("children", "rooted_key", "finish")
ROOT = "workload"


def five_subset_rank(subset: list[int], n: int) -> int:
    """Lexicographic rank of a sorted 5-subset of range(n) among all of them."""
    rank, prev = 0, -1
    for i, c in enumerate(subset):
        for j in range(prev + 1, c):
            rank += math.comb(n - 1 - j, 4 - i)
        prev = c
    return rank


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name_col = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.patched: list[tuple[object, str, object]] = []
        # counts taken from return values, where the work happens
        self.key_hashes: set[int] = set()
        self.finish_none = 0
        self.classes_emitted = 0
        self.subsets = 0

    # -- recording --------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_col, parent, start, end, stack = (
            self.name_col, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_col.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside one span of the given name."""
        return self.wrap(name, fn)(*args)

    def _patch(self, owner, attr: str, new) -> None:
        self.patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        hooks = {
            "generator.generate_q6": self._on_generate,
            "embedding.five_gonal_scan": self._on_five_gonal,
        }
        modules = [m for k, m in sys.modules.items() if k == "hexcube" or k.startswith("hexcube.")]
        for name, (mod, attr) in FUNCTIONS.items():
            fn = getattr(mod, attr)
            traced = self.wrap(name, fn, hooks.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, traced)
        growth_hooks = {"rooted_key": self._on_rooted_key, "finish": self._on_finish}
        for attr in GROWTH_METHODS:
            fn = generator._Growth.__dict__[attr]
            self._patch(generator._Growth, attr,
                        self.wrap(f"generator.{attr}", fn, growth_hooks.get(attr)))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self.patched):
            setattr(owner, attr, old)
        self.patched.clear()

    def _on_rooted_key(self, args, kwargs, key) -> None:
        self.key_hashes.add(hash(key))

    def _on_finish(self, args, kwargs, g) -> None:
        self.finish_none += g is None

    def _on_generate(self, args, kwargs, result) -> None:
        self.classes_emitted += len(result.graphs)

    def _on_five_gonal(self, args, kwargs, witnesses) -> None:
        n = args[0].shape[0]
        stop_at_first = kwargs.get("stop_at_first", args[1] if len(args) > 1 else False)
        if stop_at_first and witnesses:
            w = witnesses[0]
            self.subsets += five_subset_rank(sorted((w.a, w.b, w.x, w.y, w.z)), n) + 1
        else:
            self.subsets += math.comb(n, 5)

    # -- analysis ---------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name": np.array(self.name_col, dtype=np.int64),
            "parent": parent,
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - children,
        }

    def save(self, path: str, meta: dict) -> None:
        cols = self.columns()
        np.savez(
            path,
            names=np.array(self.names),
            name=cols["name"],
            parent=cols["parent"],
            start=cols["start"],
            end=cols["end"],
            meta=np.array(repr(meta)),
        )

    def layer_metrics(self, untraced_wall_s: float, traced_wall_s: float) -> dict[str, float]:
        """The per-layer metrics of one traced pass (zero for a layer the
        workload never entered)."""
        cols = self.columns()
        names, parent = cols["name"], cols["parent"]
        nid = {n: i for i, n in enumerate(self.names)}

        def mask(name):
            return names == nid.get(name, -1)

        def calls(name):
            return int(mask(name).sum())

        def self_s(name):
            return float(cols["self"][mask(name)].sum())

        def total_s(name):
            return float(cols["dur"][mask(name)].sum())

        def ratio(num, den):
            return num / den if den else 0.0

        gen_id = nid.get("generator.generate_q6", -1)
        in_generation = 0
        for i in np.flatnonzero(mask("canonical.canonical_code")):
            p = parent[i]
            while p >= 0 and names[p] != gen_id:
                p = parent[p]
            in_generation += p >= 0

        check_durs = cols["dur"][mask("reports.check_graph")].tolist()
        key_calls = calls("generator.rooted_key")
        out = {
            "generator.children.calls": calls("generator.children"),
            "generator.children.self_s": self_s("generator.children"),
            "generator.rooted_key.calls": key_calls,
            "generator.rooted_key.self_s": self_s("generator.rooted_key"),
            "generator.rooted_key.hit_ratio": ratio(key_calls - len(self.key_hashes), key_calls),
            "generator.finish.calls": calls("generator.finish"),
            "generator.finish.self_s": self_s("generator.finish"),
            "generator.finish.genus_reject_ratio": ratio(
                self.finish_none, calls("generator.finish")),
            "canonical.canonical_code.calls": calls("canonical.canonical_code"),
            "canonical.canonical_code.self_s": self_s("canonical.canonical_code"),
            "canonical.new_class_ratio": ratio(self.classes_emitted, in_generation),
            "canonical.automorphism_count.self_s": self_s("canonical.automorphism_count"),
            "canonical.is_chiral.self_s": self_s("canonical.is_chiral"),
            "plane_graph.is_three_connected.self_s": self_s("plane_graph.is_three_connected"),
            "plane_graph.all_pairs_distances.calls": calls("plane_graph.all_pairs_distances"),
            "plane_graph.all_pairs_distances.self_s": self_s("plane_graph.all_pairs_distances"),
            "embedding.recognize_partial_cube.self_s": self_s("embedding.recognize_partial_cube"),
            "embedding.theta_classes.self_s": self_s("embedding.theta_classes"),
            "embedding.five_gonal_scan.self_s": self_s("embedding.five_gonal_scan"),
            "embedding.five_gonal_scan.subsets": self.subsets,
            "zones.trace_zones.self_s": self_s("zones.trace_zones"),
            "goldberg.goldberg_coxeter_cube.s": total_s("goldberg.goldberg_coxeter_cube"),
            "planar_code.read_planar_code.s": total_s("planar_code.read_planar_code"),
            "planar_code.write_planar_code.s": total_s("planar_code.write_planar_code"),
            "reports.generate_q6.s": total_s("generator.generate_q6"),
            "reports.per_graph.s": total_s(ROOT) - total_s("generator.generate_q6"),
            "reports.check_graph.p50_s": statistics.median(check_durs) if check_durs else 0.0,
            "reports.check_graph.max_s": max(check_durs, default=0.0),
            "trace.overhead_s": traced_wall_s - untraced_wall_s,
        }
        return out

    def self_times(self) -> dict[str, float]:
        """Self seconds by span name, largest first."""
        cols = self.columns()
        sums = np.bincount(cols["name"], weights=cols["self"], minlength=len(self.names))
        called = np.bincount(cols["name"], minlength=len(self.names)) > 0
        return dict(sorted(((n, s) for n, s, c in zip(self.names, sums.tolist(), called) if c),
                           key=lambda kv: -kv[1]))
