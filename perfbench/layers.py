"""Where the traced run puts its spans, and the per-layer metrics it reads
back from them.

``instrument`` wraps the public functions of each hypercut module (and
every by-name import of them) in spans.  ``LAYER_METRICS`` lists, for each
workload, the layer metrics measured on it and the end-to-end metric each
one should move there.  A layer metric is reported as
``<workload>.<layer>.<metric>``.
"""

from __future__ import annotations

import inspect
import os

from tracing import (Tracer, replace_everywhere, self_times, wrap_function,
                     wrap_method)


def _size(i):
    import numpy as np
    return lambda args, kwargs, result: {"n": int(np.size(args[i]))}


def _enum_attrs(args, kwargs, result):
    enum = args[0]
    return {"n": enum.size, "bound": enum.bound}


def _labels_attrs(args, kwargs, result):
    enum, q = args[0], args[1]
    return {"n": enum.size, "key": f"{enum.bound}/{q}"}


def _tv_attrs(args, kwargs, result):
    return {"n_k": len(result.ks), "n_cells": result.n_cells,
            "starved_cells": result.starved_cells}


def _csv_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from hypercut import (cli, covers, geometry, mixing, modular, quadrature,
                          radial, spectral, torus, walks)

    enum_cls, ctx_cls = modular.PSLZEnumeration, modular.ModQContext
    wrap_method(tracer, enum_cls, "__init__", "modular.enum_build",
                _enum_attrs)
    wrap_method(tracer, enum_cls, "coset_labels", "modular.coset_labels",
                _labels_attrs)
    for attr in ("__init__", "t_pow_tables", "s_right_table"):
        wrap_method(tracer, ctx_cls, attr, "modular.context")
    for module, attr, name, attrs, memory in (
            (modular, "reduce_points_arrays", "modular.reduce", _size(0),
             False),
            (modular, "quotient_distance_pairs", "modular.distance_pairs",
             _size(1), False),
            (modular, "quotient_distances_from", "modular.distances_from",
             _size(1), False),
            (geometry, "sphere_step_arrays", "geometry.sphere_step",
             _size(0), False),
            (geometry, "log_sphere_step_arrays", "geometry.log_sphere_step",
             _size(0), False),
            (mixing, "_walk_histograms", "mixing.walk_histograms", None,
             True),
            (mixing, "tv_profile", "mixing.tv_profile", _tv_attrs, False),
            (mixing, "default_partition", "mixing.partition_build", None,
             False),
            (mixing, "distance_histogram", "mixing.distance_histogram", None,
             False),
            (mixing, "isoperimetric_check", "mixing.isoperimetric_check",
             None, False),
            (walks, "walk_discrete", "walks.walk_discrete",
             lambda a, k, r: {"n": a[0].n_walkers * a[0].k}, False),
            (walks, "clt_check", "walks.clt_check", None, False),
            (walks, "tail_checks", "walks.tail_checks", None, False),
            (spectral, "spherical_principal_grid", "spectral.spherical",
             _size(0), False),
            (spectral, "radial_mixture", "spectral.radial_mixture", None,
             False),
            (spectral, "heat_radial_density", "spectral.heat_density", None,
             True),
            (radial, "convolve_step", "radial.convolve_step", None, True),
            (quadrature, "panel_nodes", "quadrature.panel_nodes",
             lambda a, k, r: {"n": int(r[0].size)}, False),
            (torus, "no_cutoff_profile", "torus.no_cutoff_profile", None,
             False),
            (torus, "torus_l1", "torus.torus_l1", None, False),
            (covers, "normal_cover_requirement",
             "covers.normal_cover_requirement", None, False),
            (cli, "_write_csv", "cli.write_csv", _csv_attrs, False)):
        wrap_function(tracer, module, attr, name, attrs, memory)
    wrap_method(tracer, mixing.CellPartition, "cells_of", "mixing.cells_of",
                _size(1))
    _wrap_map_blocks(tracer, walks)


def _wrap_map_blocks(tracer: Tracer, walks) -> None:
    """Span around map_blocks plus one span per block callback, parented to
    it across worker threads, so busy time per worker can be summed."""
    original = walks.map_blocks
    signature = inspect.signature(original)

    def map_blocks(fn, *args, **kwargs):
        bound = signature.bind(fn, *args, **kwargs)
        bound.apply_defaults()
        span = tracer.start("walks.map_blocks")
        span["attrs"]["workers"] = max(1, int(bound.arguments["workers"]))
        parent = span["id"]

        def block(*block_args):
            inner = tracer.start("walks.block", parent=parent)
            try:
                return fn(*block_args)
            finally:
                tracer.end(inner)

        try:
            return original(block, *args, **kwargs)
        finally:
            tracer.end(span)

    replace_everywhere(original, map_blocks, "hypercut")


REPLAY = "trace.replay"


def replay_enumerations(tracer: Tracer) -> None:
    """Peak memory of each enumeration build the run made, measured by
    building it again under tracemalloc.  tracemalloc slows the
    pure-Python build about tenfold, so the timed build runs without it.
    The whole replay is one REPLAY span, which the tracing overhead
    leaves out."""
    from hypercut.modular import PSLZEnumeration
    build = PSLZEnumeration.__init__.__wrapped__
    bounds = sorted({s["attrs"]["bound"] for s in tracer.spans
                     if s["name"] == "modular.enum_build"})
    replay = tracer.start(REPLAY)
    try:
        for bound in bounds:
            span = tracer.start("modular.enum_build_memory", memory=True)
            try:
                build(PSLZEnumeration.__new__(PSLZEnumeration), bound)
            finally:
                tracer.end(span)
    finally:
        tracer.end(replay)


def trace_overhead_s(traced_wall: float, untraced_wall: float,
                     spans: list[dict]) -> float:
    """Traced wall time, less the memory replay, minus untraced wall time."""
    replay = sum(s["end"] - s["start"] for s in spans if s["name"] == REPLAY)
    return traced_wall - replay - untraced_wall


class SpanView:
    """Sums over the spans of one traced workload process."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.self_s = self_times(spans)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def total(self, name: str, key: str = "n") -> float:
        return sum(s["attrs"].get(key, 0) for s in self.named(name))

    def rate(self, name: str) -> float:
        """Items per busy second, summing busy time over threads."""
        busy = self.seconds(name)
        return self.total(name) / busy if busy > 0 else 0.0

    def calls_per_s(self, name: str) -> float:
        busy = self.seconds(name)
        return self.count(name) / busy if busy > 0 else 0.0

    def peak_mb(self, name: str) -> float:
        return max((s["attrs"].get("peak_mb", 0.0) for s in self.named(name)),
                   default=0.0)

    def labels_per_s(self) -> float:
        """Elements labelled per busy second, each (enumeration, level)
        counted once: repeat calls hit the enumeration's label cache."""
        spans = self.named("modular.coset_labels")
        labelled = sum({s["attrs"]["key"]: s["attrs"]["n"]
                        for s in spans}.values())
        busy = self.seconds("modular.coset_labels")
        return labelled / busy if busy > 0 else 0.0

    def bootstrap_s_per_k(self) -> float:
        """Self time of tv_profile (its bootstrap loop) per profile point."""
        spans = self.named("mixing.tv_profile")
        n_k = sum(s["attrs"]["n_k"] for s in spans)
        return sum(self.self_s[s["id"]] for s in spans) / n_k if n_k else 0.0

    def parallel_efficiency(self) -> float:
        """Summed block busy time over (workers x map_blocks wall time)."""
        ids = {s["id"]: s for s in self.named("walks.map_blocks")}
        busy = sum(s["end"] - s["start"] for s in self.named("walks.block")
                   if s["parent"] in ids)
        capacity = sum(s["attrs"]["workers"] * (s["end"] - s["start"])
                       for s in ids.values())
        return busy / capacity if capacity > 0 else 0.0


_ENUM_COUNTS = (
    ("modular.enum_builds", "count", "wall_s",
     lambda v: v.count("modular.enum_build")),
    ("modular.enum_elements", "count", "wall_s",
     lambda v: v.total("modular.enum_build")),
)


_CONTEXT_BUILD_S = ("modular.context_build_s", "s", "wall_s",
                    lambda v: v.seconds("modular.context"))


def _cli_seconds(command: str):
    return (f"cli.{command}_s", "s", "wall_s",
            lambda v: v.seconds(f"cli.{command}"))


# workload -> ((metric, unit, end-to-end metric it moves there, compute),)
LAYER_METRICS = {
    "geometry_build": (
        ("modular.enum_build_s", "s", "wall_s",
         lambda v: v.seconds("modular.enum_build")),
        ("modular.enum_elements_per_s", "1/s", "wall_s",
         lambda v: v.rate("modular.enum_build")),
        *_ENUM_COUNTS,
        ("modular.coset_labels_s", "s", "wall_s",
         lambda v: v.seconds("modular.coset_labels")),
        ("modular.coset_labels_elements_per_s", "1/s", "wall_s",
         SpanView.labels_per_s),
        ("modular.enum_peak_mb", "MB", "peak_rss_mb",
         lambda v: v.peak_mb("modular.enum_build_memory")),
        ("modular.distance_pairs_per_s", "1/s", "wall_s",
         lambda v: v.rate("modular.distance_pairs")),
        _CONTEXT_BUILD_S,
    ),
    "geometry_query": (
        ("modular.distances_from_per_s", "1/s", "wall_s",
         lambda v: v.rate("modular.distances_from")),
        _CONTEXT_BUILD_S,
        *_ENUM_COUNTS,
        ("mixing.distance_histogram_s", "s", "wall_s",
         lambda v: v.seconds("mixing.distance_histogram")),
        ("mixing.isoperimetric_check_s", "s", "wall_s",
         lambda v: v.seconds("mixing.isoperimetric_check")),
        _cli_seconds("distances"),
        _cli_seconds("isoperimetry"),
        ("cli.write_csv_s", "s", "wall_s",
         lambda v: v.seconds("cli.write_csv")),
        ("cli.csv_bytes", "bytes", "wall_s",
         lambda v: v.total("cli.write_csv", "bytes")),
    ),
    "tv_cutoff": (
        ("modular.reduce_walker_steps_per_s", "1/s", "wall_s",
         lambda v: v.rate("modular.reduce")),
        _CONTEXT_BUILD_S,
        *_ENUM_COUNTS,
        ("geometry.sphere_step_walker_steps_per_s", "1/s", "wall_s",
         lambda v: v.rate("geometry.sphere_step")),
        ("mixing.walk_histograms_s", "s", "wall_s",
         lambda v: v.seconds("mixing.walk_histograms")),
        ("mixing.cells_of_walker_steps_per_s", "1/s", "wall_s",
         lambda v: v.rate("mixing.cells_of")),
        ("mixing.walk_histograms_peak_mb", "MB", "peak_rss_mb",
         lambda v: v.peak_mb("mixing.walk_histograms")),
        ("mixing.bootstrap_s_per_k", "s", "wall_s",
         SpanView.bootstrap_s_per_k),
        ("mixing.partition_build_s", "s", "wall_s",
         lambda v: v.seconds("mixing.partition_build")),
        ("mixing.n_cells", "count", "wall_s",
         lambda v: v.total("mixing.tv_profile", "n_cells")),
        ("mixing.starved_cells", "count", "wall_s",
         lambda v: v.total("mixing.tv_profile", "starved_cells")),
        ("walks.block_parallel_efficiency", "ratio", "wall_s, cpu_s",
         SpanView.parallel_efficiency),
        _cli_seconds("tv"),
    ),
    "halfplane": (
        ("geometry.log_sphere_step_walker_steps_per_s", "1/s", "wall_s",
         lambda v: v.rate("geometry.log_sphere_step")),
        ("walks.block_parallel_efficiency", "ratio", "wall_s, cpu_s",
         SpanView.parallel_efficiency),
        ("walks.walk_discrete_walker_steps_per_s", "1/s", "wall_s",
         lambda v: v.rate("walks.walk_discrete")),
        ("walks.clt_check_s", "s", "wall_s",
         lambda v: v.seconds("walks.clt_check")),
        ("walks.tail_checks_s", "s", "wall_s",
         lambda v: v.seconds("walks.tail_checks")),
        ("spectral.spherical_points_per_s", "1/s", "wall_s",
         lambda v: v.rate("spectral.spherical")),
        ("spectral.radial_mixture_s", "s", "wall_s",
         lambda v: v.seconds("spectral.radial_mixture")),
        ("spectral.heat_density_s", "s", "wall_s",
         lambda v: v.seconds("spectral.heat_density")),
        ("spectral.heat_peak_mb", "MB", "peak_rss_mb",
         lambda v: v.peak_mb("spectral.heat_density")),
        ("radial.convolve_steps_per_s", "1/s", "wall_s",
         lambda v: v.calls_per_s("radial.convolve_step")),
        ("radial.convolve_peak_mb", "MB", "peak_rss_mb",
         lambda v: v.peak_mb("radial.convolve_step")),
        ("quadrature.panel_nodes_calls", "count", "wall_s",
         lambda v: v.count("quadrature.panel_nodes")),
        ("quadrature.nodes_generated", "count", "wall_s",
         lambda v: v.total("quadrature.panel_nodes")),
        ("torus.no_cutoff_profile_s", "s", "wall_s",
         lambda v: v.seconds("torus.no_cutoff_profile")),
        ("torus.torus_l1_calls", "count", "wall_s",
         lambda v: v.count("torus.torus_l1")),
        ("covers.normal_cover_requirement_s", "s", "wall_s",
         lambda v: v.seconds("covers.normal_cover_requirement")),
        *(_cli_seconds(c) for c in ("walk", "spherical", "mixture", "heat",
                                    "torus", "density", "cover")),
    ),
}


def layer_metric_names() -> list[tuple[str, str]]:
    """(full name, unit) of every per-layer metric, in report order,
    including each workload's tracing overhead."""
    out = []
    for workload, metrics in LAYER_METRICS.items():
        out.extend((f"{workload}.{name}", unit)
                   for name, unit, _, _ in metrics)
        out.append((f"{workload}.trace_overhead_s", "s"))
    return out


def layer_metrics(workload: str, spans: list[dict]) -> dict[str, dict]:
    """The workload's per-layer metrics computed from its spans."""
    view = SpanView(spans)
    return {f"{workload}.{name}": {"value": float(compute(view)),
                                   "unit": unit}
            for name, unit, _, compute in LAYER_METRICS[workload]}
