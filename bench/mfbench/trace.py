"""Span tracing of mfsar's public functions, installed from outside the package.

:class:`Tracer` rebinds every public function of the six layer modules, and
the ``RadarConfig`` constructor and methods, in every ``mfsar`` namespace that
holds them.  Each call records a span: name, start, end, parent span, the op
it belongs to and the exception it raised.  A span's self time is its
duration minus the durations of its direct children; calls are synchronous,
so children never overlap.  Nothing under ``src/`` is edited and
:meth:`Tracer.uninstall` restores every original binding.

Spans are aggregated as they close, per phase (``workload`` for the timed
loop, ``probe`` for calls made only to cover the other layers).  The raw
spans of the first :data:`KEPT_OPS` ops of each phase are kept in memory and
written out by :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from collections import Counter, defaultdict

LAYERS = ("folding", "system", "enumeration", "solvers", "simulate", "cli")

KEPT_OPS = 200


class _Stats:
    """Durations, self times and raised exceptions of one span name in one phase."""

    __slots__ = ("durations", "self_times", "errors")

    def __init__(self):
        self.durations = array("q")
        self.self_times = array("q")
        self.errors = Counter()


class Tracer:
    def __init__(self):
        self.phase = "workload"
        self.op = 0
        self.stats = defaultdict(_Stats)       # (phase, name) -> _Stats
        self.layer_self = Counter()            # (phase, layer) -> self ns
        self.layer_calls = Counter()           # (phase, layer) -> calls
        self.kept = []
        self._stack = []
        self._next_id = 0
        self._saved = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "mfsar" or name.startswith("mfsar.")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"mfsar.{layer}"]
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[id(value)] = self._wrap(value, layer, f"{layer}.{attr}")
        for namespace in modules.values():
            for attr, value in list(vars(namespace).items()):
                if id(value) in wrappers and isinstance(value, types.FunctionType):
                    self._rebind(namespace, attr, wrappers[id(value)])
        config = modules["mfsar.system"].RadarConfig
        self._rebind(config, "__init__",
                     self._wrap(config.__init__, "system", "system.RadarConfig"))
        for attr in ("ratio", "blind_speeds", "to_dict"):
            self._rebind(config, attr, self._wrap(
                vars(config)[attr], "system", f"system.RadarConfig.{attr}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _rebind(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, layer: str, name: str):
        # cli.main is named after its subcommand, which is the first argument.
        subcommand = name == "cli.main"
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if subcommand:
                argv = args[0] if args else kwargs.get("argv")
                span_name = f"{name}.{argv[0] if argv else 'none'}"
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0]                   # id, children's total ns
            stack.append(frame)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                self._close(span_name, layer, span_id,
                            parent[0] if parent else None,
                            start, end, duration - frame[1], error)

        return wrapper

    # -- recording ---------------------------------------------------------

    def set_phase(self, phase: str) -> None:
        """Attribute the following spans to ``phase`` and restart op numbering."""
        self.phase = phase
        self.op = 0

    def start_op(self) -> None:
        self.op += 1

    def _close(self, name, layer, span_id, parent_id, start, end, self_ns, error):
        phase = self.phase
        stats = self.stats[(phase, name)]
        stats.durations.append(end - start)
        stats.self_times.append(self_ns)
        if error is not None:
            stats.errors[error] += 1
        self.layer_self[(phase, layer)] += self_ns
        self.layer_calls[(phase, layer)] += 1
        if self.op <= KEPT_OPS:
            self.kept.append((span_id, parent_id, phase, self.op, name,
                              start, end, self_ns, error))

    # -- queries -----------------------------------------------------------

    def find(self, name: str):
        """Stats of ``name``: from the workload phase if it ran there, else the probe."""
        for phase in ("workload", "probe"):
            stats = self.stats.get((phase, name))
            if stats is not None and len(stats.durations):
                return stats
        raise KeyError(f"no span recorded for {name}")

    def calls(self, name: str, phase: str = "workload") -> int:
        stats = self.stats.get((phase, name))
        return len(stats.durations) if stats is not None else 0

    def write(self, path) -> None:
        """Write the kept spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "phase", "op", "name", "start_ns", "end_ns",
                "self_ns", "error")
        with open(path, "w") as handle:
            for span in self.kept:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
