"""Spans around the program's public calls, recorded from outside.

`Tracer.install` replaces module attributes of mvalloc with wrappers that
record a span (name, start, end, parent) per call, and `uninstall` puts
the originals back.  Calls made through the module attribute are seen,
which covers the benchmark's own calls and the program's internal calls
that look a name up in their module's globals (build_high_layer calling
enumerate_alternatives, solve calling engine.get_backend).  The kernel is
reached through the Backend record that engine.get_backend returns, so
that record is handed back with its search function wrapped.

Spans stay in memory until the run ends and are written out then.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from collections import defaultdict

# (module name, attribute) -> span name; every public call the per-layer
# metrics are built from
WRAPPED = (
    ("formats", "parse_model"),
    ("formats", "parse_compacted"),
    ("formats", "dump_compacted"),
    ("formats", "dump_scheme"),
    ("formats", "dump_assignment"),
    ("formats", "write_atomic"),
    ("model", "validate_repository"),
    ("model", "validate_platform"),
    ("model", "validate_architecture"),
    ("model", "check_feasibility"),
    ("compaction", "build_high_layer"),
    ("compaction", "enumerate_alternatives"),
    ("compaction", "unfold"),
    ("solver", "solve"),
    ("lp", "export_lp"),
)


class Tracer:
    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent index or -1, child time ns]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span; `after(result, args)` then counts work."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    # --- installing --------------------------------------------------------

    def install(self, modules: dict[str, object]) -> None:
        counts = self.counts

        def count(name: str, measure):
            def after(result, args) -> None:
                counts[name] += measure(result, args)

            return after

        after = {
            ("formats", "write_atomic"): count(
                "formats.bytes_written", lambda _, args: len(args[1].encode("utf-8"))
            ),
            ("compaction", "build_high_layer"): count(
                "compaction.variants", lambda model, _: sum(len(u.variants) for u in model.all_units())
            ),
            ("lp", "export_lp"): count("lp.bytes", lambda text, _: len(text.encode("utf-8"))),
        }
        for module_name, attr in WRAPPED:
            module = modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(f"{module_name}.{attr}", original, after.get((module_name, attr))))

        engine = modules["engine"]
        get_backend = engine.get_backend
        self._saved.append((engine, "get_backend", get_backend))
        kernels: dict[str, object] = {}

        def traced_backend(name: str = "auto"):
            backend = get_backend(name)
            if backend.name not in kernels:
                kernels[backend.name] = dataclasses.replace(
                    backend,
                    solve_search=self.wrap(
                        "engine.solve_search",
                        backend.solve_search,
                        count("engine.nodes", lambda result, _: result[3]),
                    ),
                )
            return kernels[backend.name]

        engine.get_backend = traced_backend

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # --- reading -----------------------------------------------------------

    def mark(self) -> tuple[int, dict[str, int]]:
        return len(self.spans), dict(self.counts)

    def since(self, mark: tuple[int, dict[str, int]]) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """(self ms, inclusive ms, counts) per span name since `mark`."""
        start, counts = mark
        self_ms: dict[str, float] = defaultdict(float)
        total_ms: dict[str, float] = defaultdict(float)
        for name, t0, t1, _, child in self.spans[start:]:
            self_ms[name] += (t1 - t0 - child) / 1e6
            total_ms[name] += (t1 - t0) / 1e6
        delta = {k: v - counts.get(k, 0) for k, v in self.counts.items()}
        return self_ms, total_ms, delta
