"""Spans around hexbubble's public functions, installed from outside.

`Tracer.installed()` replaces each traced function in every hexbubble
module namespace that bound it (`cli` imports `grid_refine_min` and
`perturb_local_min` by name, `embedded` imports `grid_refine_min`,
`kissing` imports from `singlebubble`, and the package re-exports most
names), wraps `PolyChain.__post_init__` so that chain validation is
inside the `hexnorm.polychain` span, and restores every original on
exit.  Nothing under `src/` changes.

A span is (name, start, end, parent index), kept in memory.  Self time
is a span's duration minus the time its child spans cover; calls are
single-threaded and properly nested, so direct children never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator

# span name -> (module, attribute); "PolyChain.__post_init__" is a class attribute
TRACED: dict[str, tuple[str, str]] = {
    "hexnorm.polychain": ("hexbubble.hexnorm", "PolyChain.__post_init__"),
    "hexnorm.double_bubble_perimeter": ("hexbubble.hexnorm", "double_bubble_perimeter"),
    "singlebubble.solve_fixed_side": ("hexbubble.singlebubble", "solve_fixed_side"),
    "kissing.kissing_minimum": ("hexbubble.kissing", "kissing_minimum"),
    "kissing.p3_minimizer": ("hexbubble.kissing", "p3_minimizer"),
    "kissing.kissing_geometry": ("hexbubble.kissing", "kissing_geometry"),
    "embedded.minimize_rho1": ("hexbubble.embedded", "minimize_rho1"),
    "embedded.rho2_minimum": ("hexbubble.embedded", "rho2_minimum"),
    "embedded.embedded_geometry": ("hexbubble.embedded", "embedded_geometry"),
    "solver.solve": ("hexbubble.solver", "solve"),
    "solver.embedded_value": ("hexbubble.solver", "embedded_value"),
    "solver.kissing_value": ("hexbubble.solver", "kissing_value"),
    "oracle.grid_refine_min": ("hexbubble.oracle", "grid_refine_min"),
    "oracle.perturb_local_min": ("hexbubble.oracle", "perturb_local_min"),
    "cli.run_verify": ("hexbubble.cli", "run_verify"),
}

# counters kept at the oracle boundary, where the work they count happens
GRID_OBJECTIVE = "oracle.grid_objective"
PERTURB_TRIALS = "oracle.perturb_trials"
PERTURB_USEFUL = "oracle.perturb_useful"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent]
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counters = Counter()

    def _span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def _grid_refine_min(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def counted(objective: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
            def counting(p: Any) -> Any:
                self.counters[GRID_OBJECTIVE] += 1
                return objective(p)

            return fn(counting, *args, **kwargs)

        return counted

    def _perturb_local_min(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def counted(
            geometry_a: Any, geometry_b: Any, rebuild: Callable[..., Any], *args: Any, **kwargs: Any
        ) -> Any:
            def counting(params: Any) -> Any:
                self.counters[PERTURB_TRIALS] += 1
                built = rebuild(params)
                if built is not None:
                    self.counters[PERTURB_USEFUL] += 1
                return built

            return fn(geometry_a, geometry_b, counting, *args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every traced name for the duration of the block."""
        from hexbubble import hexnorm

        for module_name, _ in TRACED.values():
            importlib.import_module(module_name)
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hexbubble" or name.startswith("hexbubble."))
        ]
        undo: list[tuple[Any, str, Any]] = []
        try:
            for name, (module_name, attr) in TRACED.items():
                if attr == "PolyChain.__post_init__":
                    original = vars(hexnorm.PolyChain)["__post_init__"]
                    undo.append((hexnorm.PolyChain, "__post_init__", original))
                    setattr(hexnorm.PolyChain, "__post_init__", self._span(name, original))
                    continue
                original = getattr(sys.modules[module_name], attr)
                inner = original
                if name == "oracle.grid_refine_min":
                    inner = self._grid_refine_min(original)
                elif name == "oracle.perturb_local_min":
                    inner = self._perturb_local_min(original)
                wrapper = self._span(name, inner)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            totals[name] += (end - start) - covered
        return dict(totals)

    def counts(self) -> Counter[str]:
        """Span name -> number of spans, plus the oracle counters."""
        out: Counter[str] = Counter(s[0] for s in self.spans)
        out.update(self.counters)
        return out
