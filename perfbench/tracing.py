"""Span tracing of pcomp's public functions, for the traced benchmark run.

`Tracer.install` replaces each traced function by a wrapper in every pcomp
module that holds it, including names re-imported elsewhere (such as
`pcomp.oracle.verify_p_ecc` or `pcomp.cli.exact_theta_e`), so that calls
nested inside the library become child spans.  A span records its layer,
start, end, parent and whether it raised; spans stay in memory until the
run writes them out.  The library itself is not edited.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# layer -> the public functions timed as that layer, as "module.function"
LAYERS: dict[str, tuple[str, ...]] = {
    "graphs.build": ("graphs.make_cycle", "graphs.complement"),
    "graphs.json": (
        "graphs.graph_to_json_dict", "graphs.graph_from_json_dict",
        "graphs.digraph_to_json_dict", "graphs.digraph_from_json_dict",
        "covers.cover_to_json_dict", "covers.cover_from_json_dict"),
    "covers.construct": (
        "covers.cycle_cover", "covers.complement_cycle_cover", "covers.lift_cover"),
    "covers.verify_p_ecc": ("covers.verify_p_ecc",),
    "realization.realize": ("realization.realize",),
    "competition.p_competition_graph": ("competition.p_competition_graph",),
    "oracle.maximal_cliques": ("oracle.maximal_cliques",),
    "oracle.exact_theta_e": ("oracle.exact_theta_e",),
    "oracle.exact_theta_e_p": ("oracle.exact_theta_e_p",),
    "oracle.is_p_competition": ("oracle.is_p_competition",),
}

MODULES = ("graphs", "covers", "competition", "realization", "oracle")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _verify_counts(args: tuple, kwargs: dict, result) -> dict:
    # Computed from the input, not counted inside the verifier.
    cover = _arg(args, kwargs, 1, "f")
    return {
        "rejects": 0 if result.valid else 1,
        "pair_incidences": sum(len(s) * (len(s) - 1) // 2 for s in cover.sets),
    }


def _pairs(args: tuple, kwargs: dict, result) -> dict:
    n = _arg(args, kwargs, 0, "d").n
    return {"pairs": n * (n - 1) // 2}


# layer -> counts taken from a finished call's arguments and result
COUNTERS = {
    "oracle.exact_theta_e": lambda a, k, r: {"nodes": r.nodes},
    "oracle.exact_theta_e_p": lambda a, k, r: {"nodes": r.nodes},
    "covers.verify_p_ecc": _verify_counts,
    "realization.realize": lambda a, k, r: {"arcs": len(r.arcs)},
    "competition.p_competition_graph": _pairs,
}

# Span fields, kept as lists so that a span is cheap to record.
NAME, START, END, PARENT, RAISED, COUNTS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._last_exc: BaseException | None = None

    def install(self) -> None:
        """Wrap every traced function wherever a loaded pcomp module holds it."""
        loaded = [m for name, m in sorted(sys.modules.items())
                  if (name == "pcomp" or name.startswith("pcomp.")) and m is not None]
        for layer, functions in LAYERS.items():
            for qualified in functions:
                home, fname = qualified.split(".")
                original = getattr(sys.modules[f"pcomp.{home}"], fname)
                wrapper = self._wrap(layer, original)
                for module in loaded:
                    if getattr(module, fname, None) is original:
                        self._restore.append((module, fname, original))
                        setattr(module, fname, wrapper)
        self.active = True

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._restore):
            setattr(module, fname, original)
        self._restore.clear()
        self.active = False

    @contextmanager
    def paused(self):
        """Call through untraced, e.g. while the benchmark checks an output."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, layer: str, fn):
        counter = COUNTERS.get(layer)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [layer, 0.0, 0.0, stack[-1] if stack else None, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = time.perf_counter()
                # count an error once, in the span it came from
                span[RAISED] = exc is not self._last_exc
                self._last_exc = exc
                raise
            finally:
                stack.pop()
            span[END] = time.perf_counter()
            if counter is not None:
                span[COUNTS] = counter(args, kwargs, result)
            return result

        return traced


def layer_metrics(span_lists: list[list[list]], passes: int) -> dict[str, float]:
    """Per-layer metrics per pass from one or more span lists.

    Self time is a span's duration minus the durations of its direct
    children; spans of one process never overlap except by nesting.
    """
    out: dict[str, float] = {}
    layers = sorted(LAYERS)
    calls = dict.fromkeys(layers, 0)
    self_s = dict.fromkeys(layers, 0.0)
    counts: dict[str, float] = {}
    raised = dict.fromkeys(MODULES, 0)
    for spans in span_lists:
        child_s = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] is not None:
                child_s[span[PARENT]] += span[END] - span[START]
        for i, span in enumerate(spans):
            layer = span[NAME]
            calls[layer] += 1
            self_s[layer] += span[END] - span[START] - child_s[i]
            if span[RAISED]:
                raised[layer.split(".")[0]] += 1
            for key, value in (span[COUNTS] or {}).items():
                counts[f"{layer}.{key}"] = counts.get(f"{layer}.{key}", 0) + value
    for layer in layers:
        out[f"{layer}.calls"] = calls[layer] / passes
        out[f"{layer}.self_s"] = self_s[layer] / passes
    for layer, keys in (("covers.verify_p_ecc", ("rejects", "pair_incidences")),
                        ("realization.realize", ("arcs",)),
                        ("competition.p_competition_graph", ("pairs",))):
        for key in keys:
            out[f"{layer}.{key}"] = counts.get(f"{layer}.{key}", 0) / passes
    for layer in ("oracle.exact_theta_e", "oracle.exact_theta_e_p"):
        nodes = counts.get(f"{layer}.nodes", 0)
        out[f"{layer}.nodes"] = nodes / passes
        out[f"{layer}.nodes_per_s"] = (
            nodes / self_s[layer] if self_s[layer] > 0 else 0.0)
    for module in MODULES:
        out[f"{module}.raised"] = raised[module] / passes
    return out
