"""Spans recorded from outside forestgen, and the per-layer figures drawn from them.

The tracer swaps the module attributes of forestgen's public functions for
timing wrappers and puts the originals back when the ``installed`` block
ends, also when an op raises. forestgen's modules call each other through
module attributes (``stl.write_stl``, ``tf.apply_to_mesh``, ...) or through
their own globals, so one swap catches every call. ``seeds.stream_seed`` is
bound by name in its callers and costs next to nothing, so it is not wrapped.

A span is ``(name, start, end, self_s, parent, op, extra)``: ``self_s`` is
the duration minus the time covered by its child spans, ``parent`` the
index of the enclosing span (None for a root), ``op`` the ``(cycle, kind)``
the benchmark was running, and ``extra`` the sizes computed from the call's
arrays and bytes. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute); a dotted attribute names a method of a class
TARGETS = (
    ("lsystem", "interpret_turtle"),
    ("transform", "random_attachment_transform"),
    ("transform", "apply_to_mesh"),
    ("tree", "build_tree"),
    ("tree", "build_skeleton"),
    ("tree", "attach_branches"),
    ("tree", "attach_subbranches"),
    ("tree", "attach_leaves"),
    ("tree", "TreeModel.full_mesh"),
    ("stl", "concat_meshes"),
    ("stl", "write_stl"),
    ("stl", "read_stl"),
    ("stl", "mesh_stats"),
    ("stl", "load_library"),
    ("ipp", "sample_ipp_thinning"),
    ("ipp", "sample_homogeneous"),
    ("ipp", "poisson_count"),
    ("ipp", "min_distance_filter"),
    ("forest", "load_scene_config"),
    ("forest", "compose_forest"),
    ("forest", "scene_stats"),
    ("forest", "build_manifest"),
    ("forest", "export_scene"),
    ("forest", "regenerate_scene"),
    ("templates", "default_library"),
    ("cli", "main"),
)

# set-up work: reported per set-up repetition, not per cycle
SETUP_SPANS = ("templates.default_library", "stl.load_library")


def _extra(name, args, kwargs, result):
    """Sizes of one call, computed from its arguments and result."""
    if name == "stl.write_stl":
        fmt = kwargs.get("fmt", args[1] if len(args) > 1 else "binary")
        return {"fmt": fmt, "bytes": len(result)}
    if name == "stl.concat_meshes":
        return {"bytes": result.facets.nbytes}
    if name == "tree.build_tree":
        return {"triangles": result.stage_counts["leaves"]}
    if name in ("ipp.sample_homogeneous", "ipp.sample_ipp_thinning"):
        return {"points": len(result)}
    if name == "ipp.min_distance_filter":
        return {"points_in": len(args[0]), "points": len(result)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[list] = []  # [span index, seconds covered by children]

    def _open(self) -> tuple[list, int | None, float]:
        parent = self._stack[-1][0] if self._stack else None
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        return frame, parent, perf_counter()

    def _close(self, name, frame, parent, start, extra=None):
        end = perf_counter()
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.spans[frame[0]] = (name, start, end, duration - frame[1], parent, self.op, extra)

    @contextmanager
    def span(self, name: str):
        frame, parent, start = self._open()
        try:
            yield
        finally:
            self._close(name, frame, parent, start)

    def wrap(self, name: str, fn):
        if name == "stl.read_stl":
            # ask for the detected format so the span can carry it
            @functools.wraps(fn)
            def read_stl(data, return_format=False):
                frame, parent, start = self._open()
                try:
                    mesh, fmt = fn(data, return_format=True)
                except BaseException:
                    self._close(name, frame, parent, start)
                    raise
                self._close(name, frame, parent, start, {"fmt": fmt, "bytes": len(data)})
                return (mesh, fmt) if return_format else mesh
            return read_stl

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, parent, start = self._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(name, frame, parent, start)
                raise
            self._close(name, frame, parent, start, _extra(name, args, kwargs, result))
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Swap in the wrappers for the length of the block."""
        saved = []
        try:
            for module, attr in TARGETS:
                owner = importlib.import_module(f"forestgen.{module}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(f"{module}.{leaf}", original))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def dump(self, path):
        """Write every span as one JSON line."""
        keys = ("name", "start", "end", "self_s", "parent", "op", "extra")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def silent_layers(spans, idle=()) -> list[str]:
    """Wrapped functions, and STL formats of ``write_stl``/``read_stl``, that
    recorded no span and are not named in ``idle``.

    A wrapper sees only calls made through the module attribute it replaced,
    so a caller that binds one of ``TARGETS`` by name (``from .transform
    import apply_to_mesh``) would leave that layer's figures at 0, as if idle.
    """
    seen = set()
    for name, *_, extra in spans:
        seen.add(name)
        if extra and "fmt" in extra:
            seen.add(f"{name}.{extra['fmt']}")
    expected = [f"{module}.{attr.rsplit('.', 1)[-1]}" for module, attr in TARGETS]
    expected += [f"stl.{fn}.{fmt}" for fn in ("write_stl", "read_stl") for fmt in ("binary", "ascii")]
    return [name for name in expected if name not in seen and name not in idle]


def _has_ancestor(spans, index, name) -> bool:
    parent = spans[index][4]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][4]
    return False


def _unit_totals(span) -> dict:
    name, start, end, self_s, _, _, extra = span
    out = {f"{name}.calls": 1, f"{name}.self_s": self_s, f"{name}.s": end - start}
    if extra is None:
        return out
    if name in ("stl.write_stl", "stl.read_stl"):
        fmt = extra["fmt"]
        out[f"{name}.{fmt}.self_s"] = self_s
        out[f"{name}.{fmt}.bytes"] = extra["bytes"]
    elif name == "stl.concat_meshes":
        out["stl.concat_meshes.bytes"] = extra["bytes"]
    elif name == "tree.build_tree":
        out["tree.triangles"] = extra["triangles"]
    elif name == "ipp.sample_homogeneous":
        out["ipp.envelope_points"] = extra["points"]
    elif name == "ipp.sample_ipp_thinning":
        out["ipp.thinned_points"] = extra["points"]
    elif name == "ipp.min_distance_filter":
        out["ipp.spacing_in"] = extra["points_in"]
        out["ipp.spacing_kept"] = extra["points"]
    return out


def _median_by_key(units: list[dict], names) -> dict:
    return {n: statistics.median(u.get(n, 0) for u in units) if units else 0.0 for n in names}


def layer_metrics(spans, names) -> dict:
    """Per-layer figures named in ``names``: medians over op cycles, except
    the set-up spans, which are medians over set-up repetitions."""
    cycles: dict = defaultdict(lambda: defaultdict(float))
    setups: dict = defaultdict(lambda: defaultdict(float))
    for i, span in enumerate(spans):
        if span[5] is None:
            continue
        cycle, kind = span[5]
        unit = setups[cycle] if kind == "setup" else cycles[cycle]
        for key, value in _unit_totals(span).items():
            unit[key] += value
        if span[0] == "transform.apply_to_mesh" and _has_ancestor(spans, i, "tree.build_tree"):
            unit["tree.instances"] += 1
    for unit in cycles.values():
        inst = unit.get("tree.instances", 0)
        unit["tree.us_per_instance"] = 1e6 * unit.get("tree.build_tree.s", 0.0) / inst if inst else 0.0
        env, thin = unit.get("ipp.envelope_points", 0), unit.get("ipp.thinned_points", 0)
        unit["ipp.thinning_keep_ratio"] = thin / env if env else 0.0
        seen = unit.get("ipp.spacing_in", 0)
        unit["ipp.spacing_keep_ratio"] = unit.get("ipp.spacing_kept", 0) / seen if seen else 0.0
        for fn in ("write_stl", "read_stl"):
            for fmt in ("binary", "ascii"):
                s = unit.get(f"stl.{fn}.{fmt}.self_s", 0.0)
                unit[f"stl.{fn}.{fmt}.MBps"] = unit.get(f"stl.{fn}.{fmt}.bytes", 0) / s / 1e6 if s else 0.0
    setup_names = [f"{n}.s" for n in SETUP_SPANS]
    out = _median_by_key(list(cycles.values()), [n for n in names if n not in setup_names])
    out.update(_median_by_key(list(setups.values()), [n for n in names if n in setup_names]))
    return out


def self_share(spans, kind: str, prefixes) -> float:
    """Share of the traced ``kind`` ops' time spent in the self time of
    spans whose names start with one of ``prefixes``."""
    total = covered = 0.0
    for name, start, end, self_s, parent, op, _ in spans:
        if op is None or op[1] != kind:
            continue
        if parent is None:
            total += end - start
        elif name.startswith(tuple(prefixes)):
            covered += self_s
    return covered / total if total else 0.0
