"""Spans around the public entry points of pulsemass, installed at run time.

The program is not edited: `install` replaces each public module-level
function of the pulsemass modules (and the cli's config and emit helpers)
with a wrapper that records a span, in every module namespace and dispatch
table that holds it.  Spans are kept in memory and written out at the end;
`layer_metrics` turns them into the per-layer metrics.

A span is [name, start, end, parent, count]: perf_counter seconds, the index
of the enclosing span (-1 for a root) and an optional work count.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
import types

# Called once per element inside another entry point; a span each would
# cost more than the work it measures.  The per-row density work is timed as
# a whole through cli.cmd_density.
_PER_ELEMENT = {"kinematics.boost_photon", "density.mass_density"}

_CLI_CONFIG = ("_load_config", "_pulse_params", "_photon_modes", "_experiment_config")
_CLI_EMIT = ("_emit_json", "_emit_csv")
LAYERS = ("cli", "units", "kinematics", "analytic", "experiment", "spectral", "density")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str, start: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter() if start is None else start,
                           None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int, count=None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        if count is not None:
            span[4] = count
        self._stack.pop()

    def count(self, name: str, n: int) -> None:
        """A zero-length span named count:<name> that only carries a count."""
        now = time.perf_counter()
        self.spans.append([f"count:{name}", now, now,
                           self._stack[-1] if self._stack else -1, n])

    def wrap(self, fn, name: str, count_arg=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(i, count_arg(args) if count_arg else None)
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _samples(args) -> int:
    return len(args[3]) if len(args) > 3 else 0


def _modes(args) -> int:
    return len(args[0].modes) if args else 0


# Entry points whose span carries a work count taken from their arguments.
_COUNTED = {"spectral.field_profile": _samples,
            "kinematics.total_four_momentum": _modes,
            "kinematics.boost_ensemble": _modes}


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every imported pulsemass module."""
    modules = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
               if name.startswith("pulsemass.") and isinstance(mod, types.ModuleType)}
    targets = []
    for layer in LAYERS:
        mod = modules.get(layer)
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or (layer == "cli" and attr in
                                                      _CLI_CONFIG + _CLI_EMIT))):
                targets.append((f"{layer}.{attr}", obj))
    for name, fn in targets:
        if name in _PER_ELEMENT:
            continue
        if name == "spectral.gaussian_spectral_density":
            wrapped = tracer.wrap(_counting_density(tracer, fn), name)
        else:
            wrapped = tracer.wrap(fn, name, _COUNTED.get(name))
        _replace(modules.values(), fn, wrapped)


def _counting_density(tracer: Tracer, fn):
    """The SpectralDensity it returns counts the integrand points evaluated."""
    @functools.wraps(fn)
    def density(*args, **kwargs):
        d = fn(*args, **kwargs)
        amp = d.amplitude

        def amplitude(kperp, kz):
            i = tracer.begin("spectral.amplitude")
            try:
                return amp(kperp, kz)
            finally:
                tracer.end(i, int(getattr(kperp, "size", 1)))
        return dataclasses.replace(d, amplitude=amplitude)
    return density


def _replace(modules, old, new) -> None:
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if obj is old:
                setattr(mod, attr, new)
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for key, value in obj.items():
                    if value is old:
                        obj[key] = new


# -- aggregation --------------------------------------------------------------

def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _cli_part(name: str) -> str:
    attr = name.split(".", 1)[1]
    if attr in _CLI_CONFIG:
        return "config"
    if attr in _CLI_EMIT:
        return "emit"
    return "self"


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Per-layer metrics per traced op.

    `_ms` metrics are self time per op: a span's duration minus the time its
    child spans cover.  `_per_*` and `_us` metrics are inclusive time over the
    work or calls they name.  Counts are per op.  A layer an op never enters
    reads 0.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    tot: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, float] = {}
    self_t: dict[str, float] = {}
    outer: dict[str, list[float]] = {}     # layer -> [time, calls] of outermost spans
    for i, (name, _, _, parent, count) in enumerate(spans):
        tot[name] = tot.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + (count or 0)
        layer = _layer(name)
        key = f"cli.{_cli_part(name)}" if layer == "cli" else layer
        self_t[key] = self_t.get(key, 0.0) + dur[i] - child[i]
        if layer in LAYERS and (parent < 0 or _layer(spans[parent][0]) != layer):
            acc = outer.setdefault(layer, [0.0, 0])
            if name != "kinematics.build":
                acc[0] += dur[i]
                acc[1] += 1

    def per(a: float, b: float, scale: float) -> float:
        return a / b * scale if b else 0.0

    n = max(ops, 1)
    modes = work.get("kinematics.build", 0)
    rows = work.get("count:density.rows", 0)
    return {
        "cli.config_ms": self_t.get("cli.config", 0.0) / n * 1e3,
        "cli.emit_ms": self_t.get("cli.emit", 0.0) / n * 1e3,
        "cli.self_ms": self_t.get("cli.self", 0.0) / n * 1e3,
        "units.calls": calls.get("units.convert_units", 0) / n,
        "units.convert_us": per(tot.get("units.convert_units", 0.0),
                                calls.get("units.convert_units", 0), 1e6),
        "kinematics.modes": modes / n,
        "kinematics.build_ns_per_mode": per(tot.get("kinematics.build", 0.0), modes, 1e9),
        "kinematics.sum_ns_per_mode": per(tot.get("kinematics.total_four_momentum", 0.0),
                                          work.get("kinematics.total_four_momentum", 0), 1e9),
        "kinematics.boost_ns_per_mode": per(tot.get("kinematics.boost_ensemble", 0.0),
                                            work.get("kinematics.boost_ensemble", 0), 1e9),
        "kinematics.us_per_call": per(*outer.get("kinematics", [0.0, 0]), 1e6),
        "analytic.summarize_us": per(tot.get("analytic.summarize", 0.0),
                                     calls.get("analytic.summarize", 0), 1e6),
        "analytic.calls": sum(c for k, c in calls.items() if _layer(k) == "analytic") / n,
        "experiment.channel_delay_us": per(tot.get("experiment.channel_delay", 0.0),
                                           calls.get("experiment.channel_delay", 0), 1e6),
        "experiment.calls": sum(c for k, c in calls.items() if _layer(k) == "experiment") / n,
        "spectral.quad_ms": per(tot.get("spectral.pulse_mass_quadrature", 0.0),
                                calls.get("spectral.pulse_mass_quadrature", 0), 1e3),
        "spectral.quad_points": work.get("spectral.amplitude", 0) / n,
        "spectral.field_samples": work.get("spectral.field_profile", 0) / n,
        "spectral.field_us_per_sample": per(tot.get("spectral.field_profile", 0.0),
                                            work.get("spectral.field_profile", 0), 1e6),
        "density.rows": rows / n,
        "density.us_per_row": per(tot.get("cli.cmd_density", 0.0), rows, 1e6),
    }
