"""Spans around the public functions of each finspace module, from outside.

Modules import each other's functions by name, so a function is wrapped in
every finspace module that holds a reference to it, not only where it is
defined.  Methods are wrapped on their class.  Spans (name, start, end,
parent, tag) are kept in memory; a layer's self time is its span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# Metric name prefix -> (module, attribute path) of the wrapped callable.
LAYERS = {
    "space.finitespace": ("finspace.space", "FiniteSpace.__init__"),
    "space.subspace": ("finspace.space", "FiniteSpace.subspace"),
    "space.ordermap": ("finspace.space", "OrderMap.__init__"),
    "space.product": ("finspace.space", "product"),
    "homotopy.core": ("finspace.homotopy", "core"),
    "homotopy.fence_bfs": ("finspace.homotopy", "fence_bfs"),
    "homotopy.homotopic": ("finspace.homotopy", "homotopic"),
    "circles.degree": ("finspace.circles", "degree"),
    "circles.lift": ("finspace.circles", "lift"),
    "circles.classify_homotopic": ("finspace.circles", "classify_homotopic"),
    "circles.recognize_circle": ("finspace.circles", "recognize_circle"),
    "invariants.torus_checker": ("finspace.invariants", "TorusChecker.__init__"),
    "invariants.is_section_categorical": ("finspace.invariants", "TorusChecker.is_section_categorical"),
    "invariants.is_categorical": ("finspace.invariants", "TorusChecker.is_categorical"),
    "invariants.winding_obstruction": ("finspace.invariants", "TorusChecker.winding_obstruction"),
    "invariants.rigid_loop": ("finspace.invariants", "TorusChecker.rigid_loop"),
    "invariants.tc": ("finspace.invariants", "tc"),
    "invariants.cat": ("finspace.invariants", "cat"),
    "invariants.tc_via_colorings": ("finspace.invariants", "tc_via_colorings"),
    "invariants.enumerate_simple_colorings": ("finspace.invariants", "enumerate_simple_colorings"),
    "invariants.cell_symmetries": ("finspace.invariants", "cell_symmetries"),
    "witness.build_chain": ("finspace.witness", "build_chain"),
    "witness.build_U": ("finspace.witness", "build_U"),
    "witness.build_V": ("finspace.witness", "build_V"),
    "witness.verify_bundle": ("finspace.witness", "verify_bundle"),
    "cli.main": ("finspace.cli", "main"),
}

# What a traced pass reports; BENCHMARK.json lists the same names.
PER_LAYER = (
    *(f"{layer}.{m}" for layer in (
        "space.finitespace", "space.subspace", "space.ordermap", "space.product",
        "invariants.torus_checker", "homotopy.core", "homotopy.fence_bfs",
        "homotopy.homotopic", "circles.degree", "circles.lift", "circles.classify_homotopic",
        "circles.recognize_circle", "invariants.is_section_categorical",
        "invariants.is_categorical") for m in ("calls", "self_s")),
    "homotopy.fence_bfs.homotopic",
    "homotopy.fence_bfs.not_homotopic",
    "homotopy.fence_bfs.unknown",
    *(f"homotopy.homotopic.by_{stage}" for stage in (
        "equal", "core_agree", "point_core", "circle", "fence", "unknown")),
    "invariants.is_section_categorical.repeat_ratio",
    "invariants.is_categorical.repeat_ratio",
    "invariants.winding_obstruction.calls",
    "invariants.winding_obstruction.reject_ratio",
    "invariants.rigid_loop.calls",
    "invariants.rigid_loop.hits",
    "invariants.tc.self_s",
    "invariants.cat.self_s",
    "invariants.tc_via_colorings.self_s",
    "invariants.enumerate_simple_colorings.self_s",
    "invariants.cell_symmetries.self_s",
    "witness.build_chain.calls",
    "witness.build_U.calls",
    "witness.build_V.calls",
    "witness.build_chain.self_s",
    "witness.verify_bundle.self_s",
    "cli.main.self_s",
    "trace.overhead_s",
)

# Deciding stage of a `homotopic` verdict, read off its reason.  The
# program keeps no stage record yet; these names are the ones a later
# stats record should feed.
_STAGES = (
    ("maps equal", "equal"),
    ("maps agree on the domain core", "core_agree"),
    ("domain core is a point", "point_core"),
    ("constant values lie in different components", "point_core"),
    ("circle classification", "circle"),
    ("fence-bfs", "fence"),
    ("comparability component of f exhausted", "fence"),
)


def homotopic_stage(verdict) -> str | None:
    if verdict.status == "unknown":
        return "unknown"
    for prefix, stage in _STAGES:
        if verdict.reason.startswith(prefix):
            return stage
    return None


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _asked: set = field(default_factory=set)
    _checkers: dict = field(default_factory=dict)
    _undo: list = field(default_factory=list)

    # -- outcome tags ----------------------------------------------------

    def _repeat(self, args, result):
        checker, mask = args[0], args[1]
        self._checkers[id(checker)] = checker  # keeps ids unique while tracing
        key = (id(checker), mask)
        if key in self._asked:
            return "repeat"
        self._asked.add(key)
        return None

    def _taggers(self):
        """Layer name -> function of (args, result) giving the span's tag."""
        return {
            "homotopy.homotopic": lambda args, v: "by_" + (homotopic_stage(v) or "other"),
            "homotopy.fence_bfs": lambda args, v: v.status,
            "invariants.winding_obstruction": lambda args, hit: "reject" if hit is not None else None,
            "invariants.rigid_loop": lambda args, hit: "hit" if hit is not None else None,
            "invariants.is_section_categorical": self._repeat,
            "invariants.is_categorical": self._repeat,
        }

    # -- patching ----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        tagger = self._taggers().get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            tag = "raised"
            start = clock()
            try:
                result = fn(*args, **kwargs)
                tag = tagger(args, result) if tagger else None
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tag)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every layer callable wherever finspace modules refer to it."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "finspace" or key.startswith("finspace."))
        ]
        for name, (modname, path) in LAYERS.items():
            owner = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(name, orig))
                self._undo.append((cls, attr, orig))
                continue
            orig = getattr(owner, path)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._undo.append((m, attr, orig))

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)
        self._checkers.clear()
        self._asked.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer calls, self time and outcome counts, as name -> value."""
        calls = dict.fromkeys(LAYERS, 0)
        self_ns = dict.fromkeys(LAYERS, 0)
        tags = {}
        for name, start, end, parent, tag in self.spans:
            calls[name] += 1
            self_ns[name] += end - start
            if parent >= 0:
                self_ns[self.spans[parent][0]] -= end - start
            if tag is not None:
                tags[(name, tag)] = tags.get((name, tag), 0) + 1
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        for stage in ("equal", "core_agree", "point_core", "circle", "fence", "unknown"):
            out[f"homotopy.homotopic.by_{stage}"] = tags.get(("homotopy.homotopic", "by_" + stage), 0)
        for status in ("homotopic", "not_homotopic", "unknown"):
            out[f"homotopy.fence_bfs.{status}"] = tags.get(("homotopy.fence_bfs", status), 0)
        for name in ("invariants.is_section_categorical", "invariants.is_categorical"):
            out[f"{name}.repeat_ratio"] = _ratio(tags.get((name, "repeat"), 0), calls[name])
        out["invariants.winding_obstruction.reject_ratio"] = _ratio(
            tags.get(("invariants.winding_obstruction", "reject"), 0),
            calls["invariants.winding_obstruction"],
        )
        out["invariants.rigid_loop.hits"] = tags.get(("invariants.rigid_loop", "hit"), 0)
        return out

    def write_spans(self, path):
        """One tab-separated line per span: name, start_ns, end_ns, parent, tag."""
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\ttag\n")
            for name, start, end, parent, tag in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\t{tag or ''}\n")


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
