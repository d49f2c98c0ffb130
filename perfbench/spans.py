"""In-memory span recorder for the traced benchmark run.

Layers are timed from outside the program: each public function a layer
exposes is rebound, in the module where its caller looks the name up, to a
wrapper that records a span (name, start, end, parent, op id).  Wrappers are
installed only around a traced op and the original objects are put back
afterwards, so untraced ops run the program exactly as shipped.
"""

from __future__ import annotations

import csv
import importlib
import math
import time
from collections import Counter
from contextlib import contextmanager

# layer name -> (module, attribute) bindings that the program calls through.
# A layer's name is the module that defines the function; the bindings are
# where its callers look it up (a from-import is a binding of its own).
LAYERS = {
    "cli.main": [("cli", "main")],
    "experiments.gamma_series": [("cli", "gamma_series")],
    "experiments.schur_campaign": [("cli", "schur_campaign")],
    "smooth.preset_curve": [("cli", "preset_curve")],
    "smooth.inscribe_equilateral": [("cli", "inscribe_equilateral"),
                                    ("experiments", "inscribe_equilateral"),
                                    ("smooth", "inscribe_equilateral")],
    "smooth.smooth_thickness_proxy": [("experiments", "smooth_thickness_proxy")],
    "smooth.w1inf_distance": [("experiments", "w1inf_distance")],
    "smooth.rescale_unit": [("cli", "rescale_unit"),
                            ("experiments", "rescale_unit")],
    "thickness.delta_n": [("cli", "delta_n"), ("experiments", "delta_n")],
    "thickness.is_simple": [("thickness", "is_simple")],
    "thickness.dcsd": [("smooth", "_polygon_dcsd")],
    "thickness.inv_delta_objective": [("anneal", "inv_delta_objective")],
    "anneal.anneal": [("cli", "anneal")],
    "anneal.crankshaft_move": [("anneal", "crankshaft_move")],
    "anneal.move_is_admissible": [("anneal", "move_is_admissible")],
    "schur.random_bounded_arc": [("experiments", "random_bounded_arc")],
    "schur.schur_check": [("experiments", "schur_check")],
    "polygon.max_curv2": [("schur", "max_curv2")],
    "polygon.read_polygon": [("cli", "read_polygon")],
    "polygon.write_polygon": [("cli", "write_polygon")],
    # the class is rebound only where it is called as a constructor;
    # polygon.py itself tests isinstance against it
    "polygon.Polygon": [("anneal", "Polygon"), ("smooth", "Polygon")],
    # the library never calls geom; the layer exists to show that count is 0
    "geom": [("geom", "circumradius"), ("geom", "exterior_angle"),
             ("geom", "sphere_distance"), ("geom", "segment_min_distance"),
             ("polygon", "exterior_angle")],
}

# layers reported by call count alone
COUNT_ONLY = {"geom"}

# layer -> (ratio metric, test of one result): useful results over calls
OUTCOMES = {
    "thickness.inv_delta_objective": ("thickness.inv_delta_objective.finite_ratio",
                                      math.isfinite),
    "anneal.move_is_admissible": ("anneal.admissible_ratio", bool),
}


def _module(short: str):
    return importlib.import_module(f"polythick.{short}")


def bindings():
    """Every (module, attribute) the recorder rebinds, with today's object."""
    return [(_module(mod), attr, getattr(_module(mod), attr))
            for targets in LAYERS.values() for mod, attr in targets]


class Recorder:
    """Collects spans in memory; `installed(op_id)` wraps the program's layers."""

    def __init__(self):
        # span: [op_id, parent index or -1, layer, start, end, raised]
        self.spans: list[list] = []
        self.useful: Counter = Counter()
        self._stack: list[int] = []
        self._op_id = -1

    def _wrap(self, layer: str, fn):
        spans, stack, useful = self.spans, self._stack, self.useful
        judge = OUTCOMES.get(layer, (None, None))[1]

        def wrapper(*args, **kwargs):
            rec = [self._op_id, stack[-1] if stack else -1, layer,
                   time.perf_counter(), 0.0, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if judge is not None and judge(out):
                useful[layer] += 1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, op_id: int):
        self._op_id = op_id
        saved = []
        try:
            for layer, targets in LAYERS.items():
                for mod_name, attr in targets:
                    mod = _module(mod_name)
                    orig = getattr(mod, attr)
                    saved.append((mod, attr, orig))
                    setattr(mod, attr, self._wrap(layer, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)
            self._stack.clear()

    def layer_stats(self) -> dict:
        """layer -> {"s": self seconds, "calls": n, "errors": n}.

        Self time is a span's duration minus the durations of its direct
        children; summed over every layer it equals the total duration of
        the top-level spans.
        """
        stats = {layer: {"s": 0.0, "calls": 0, "errors": 0} for layer in LAYERS}
        for _op, parent, layer, start, end, raised in self.spans:
            dur = end - start
            st = stats[layer]
            st["s"] += dur
            st["calls"] += 1
            st["errors"] += int(raised)
            if parent >= 0:
                stats[self.spans[parent][2]]["s"] -= dur
        return stats

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "op", "parent", "layer", "start", "end", "raised"])
            for k, (op, parent, layer, start, end, raised) in enumerate(self.spans):
                out.writerow([k, op, parent, layer, repr(start), repr(end), int(raised)])


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run emits."""
    names = []
    for layer in LAYERS:
        if layer in COUNT_ONLY:
            names.append((f"{layer}.calls", "count", "lower"))
            continue
        names += [(f"{layer}.s", "s", "lower"),
                  (f"{layer}.calls", "count", "lower"),
                  (f"{layer}.errors", "count", "lower")]
    names += [(ratio, "ratio", "higher") for ratio, _ in OUTCOMES.values()]
    names += [("anneal.accept_ratio", "ratio", "higher"),
              ("trace.overhead_frac", "ratio", "lower")]
    return names
