"""Span recorder for the traced benchmark run.

The tracer wraps the public functions listed in ``BOUNDARIES`` by
rebinding every ``specklesim.*`` module attribute that is the original
function object.  Calls are then caught where they are made, including
calls between functions of one module (``fit_sine`` inside
``optimize_pattern``).  Spans are kept in memory as name, start, end and
parent; nothing is written until the run ends.

Only the traced process installs wrappers, and it removes them again
before the correctness checks run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from pathlib import Path

BOUNDARIES: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "config": ("parse_config",),
    "experiments": (
        "build_medium",
        "program_circuit",
        "run_alpha_scan",
        "run_enhancement_study",
        "analytic_visibility",
        "montecarlo_visibility",
        "emit_scenario",
    ),
    "medium": ("gaussian_transmission_matrix",),
    "shaping": (
        "optimize_pattern",
        "fit_sine",
        "combine_patterns",
        "effective_circuit",
        "classical_scan",
        "target_intensity",
    ),
    "twophoton": ("montecarlo_counts", "pair_outcome_components", "permanent", "hom_scan"),
    "rng": ("rng_for", "child_seed"),
}


def boundary_names() -> list[str]:
    return [f"{layer}.{func}" for layer, funcs in BOUNDARIES.items() for func in funcs]


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float, parent: "Span | None") -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent


def _entries(args, result) -> int:
    return int(args["n_out"]) * int(args["n_in"])


def _segments(args, result) -> int:
    return int(args["template"].n_segments)


def _pulses(args, result) -> int:
    return int(args["n_pulses"])


def _emitted_bytes(args, result) -> int:
    data = sum(len(text.encode()) for text in args["files"].values())
    return data + Path(result).stat().st_size


# Work counters, recorded at the boundary whose arguments define the work.
COUNTERS = {
    "medium.gaussian_transmission_matrix": ("medium.entries_generated", _entries),
    "shaping.optimize_pattern": ("shaping.optimize_pattern.segments", _segments),
    "twophoton.montecarlo_counts": ("twophoton.montecarlo_counts.pulses", _pulses),
    "experiments.emit_scenario": ("experiments.emit_scenario.bytes", _emitted_bytes),
}


class Tracer:
    """Records a span for every call of a wrapped boundary."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every boundary that exists; record the ones that do not."""
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "specklesim" or name.startswith("specklesim."))
        ]
        for layer, funcs in BOUNDARIES.items():
            home = sys.modules.get(f"specklesim.{layer}")
            for func in funcs:
                name = f"{layer}.{func}"
                original = getattr(home, func, None) if home is not None else None
                if not callable(original):
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, func):
        counter = COUNTERS.get(name)
        signature = inspect.signature(func) if counter else None
        spans = self.spans
        local = self._local
        counts = self.counts
        lock = self._count_lock

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                key, measure = counter
                amount = measure(signature.bind(*args, **kwargs).arguments, result)
                with lock:
                    counts[key] = counts.get(key, 0) + amount
            return result

        return wrapper

    def write(self, path: Path) -> None:
        """Write the spans as CSV: index, name, start, end, parent index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        lines = ["index,name,start_s,end_s,parent"]
        for i, span in enumerate(self.spans):
            parent = index[id(span.parent)] if span.parent is not None else -1
            lines.append(f"{i},{span.name},{span.start!r},{span.end!r},{parent}")
        path.write_text("\n".join(lines) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one parent may overlap (calls made from several threads),
    so the covered part is the length of the union of their intervals,
    clipped to the parent's interval.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    out = []
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(id(span), ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass calls, span time and self time of every boundary that exists."""
    totals = {name: [0, 0.0, 0.0] for name in boundary_names() if name not in tracer.missing}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        entry = totals[span.name]
        entry[0] += 1
        entry[1] += span.end - span.start
        entry[2] += own
    out: dict[str, float] = {}
    for name, (calls, total, own) in totals.items():
        out[f"{name}.calls"] = calls / passes
        out[f"{name}.s"] = total / passes
        out[f"{name}.self_s"] = own / passes
    for name, (key, _) in COUNTERS.items():
        if name in totals:
            out[key] = tracer.counts.get(key, 0) / passes
    return out
