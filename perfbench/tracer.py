"""In-memory span tracer that measures spinmech's layers from outside.

``Tracer.install()`` imports every module of ``spinmech`` and replaces each
function defined there, public or private, with a wrapper that records a
span (name, layer, start, end, parent, thread) on a thread-local parent
stack.  A module is a layer and the layer is named after the module.  The
wrapper is bound at every import site: each module global and re-export
that refers to the original function is rebound, so a function that a
later change adds or renames is traced without editing this file.  In the
``io`` layer only the ``read*`` and ``write*`` functions are spans; helpers
such as ``fmt`` stay in their caller's self time, so ``io`` time is the time
spent reading and writing artifacts.

Spans mark layer boundaries.  A public function called from inside its own
layer records no span (``fp_step`` under ``fp_solve``, ``write_density``
under ``write_density_sequence``); its time stays in the caller's self
time, which belongs to the same layer.  Private helpers always record a span, so a
layer's self time can be split into its helpers (noise transpose versus
stepping in ``sde``).

Two more hooks sit where the work happens:

* Generators returned by the ``rng`` layer are wrapped in a pass-through
  proxy that times each method call and counts the values it returns as
  draws.  A draw is not a span of its own (a span costs more than drawing
  two numbers): its time is booked to the ``rng`` layer and counted as
  child time of the span that is open when the draw happens.
* ``DriftSpec.__call__`` counts drift evaluations against the span that is
  open when the drift is evaluated.

Work counts are taken from the arguments of a layer's entry call
(``WORK``), never from internal calls, so they stay valid when a layer
changes how it splits its work internally.  ``install`` fails if a name in
``WORK`` or ``RSS_TRACKED`` is no longer a function of the package, and the
benchmark checks each traced run's work count against the workload's input
size, so a renamed entry point or argument cannot read as zero work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import pkgutil
import resource
import sys
import threading
import time

import numpy as np

PACKAGE = "spinmech"

#: The span every report is taken under.
ROOT_SPAN = "scenarios.run_scenario"

#: Work count of one entry call, from its bound arguments.
WORK = {
    "sde.simulate_ensemble": lambda a: a["cfg"].n_particles * a["cfg"].n_steps,
    "fokker_planck.fp_solve": lambda a: a["rho0"].grid.n_cells * (
        max(math.ceil(a["t_final"] / a["dt"] - 1e-12), 0) if a["t_final"] > 0 else 0
    ),
    "stern_gerlach.simulate_beam": lambda a: a["n"],
}

#: Peak-RSS rise is recorded around these entry calls.
RSS_TRACKED = frozenset({"sde.simulate_ensemble"})

#: Prefixes of the ``io`` functions that are spans.
IO_SPANS = ("read", "write")

_PROC_IO = "/proc/self/io"


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "thread", "child_s",
                 "work", "drift_calls", "draws", "draw_s", "io_bytes", "rss_gain_kb")

    def __init__(self, name, layer, parent, thread):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = thread
        self.child_s = 0.0
        self.work = 0
        self.drift_calls = 0
        self.draws = 0
        self.draw_s = 0.0
        self.io_bytes = 0
        self.rss_gain_kb = 0
        self.end = None
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Collects spans in memory; ``install`` wires it into the package."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._io_fd = None

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _open(self, name, layer, stack) -> Span:
        span = Span(name, layer, stack[-1] if stack else None, threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span, stack):
        span.end = time.perf_counter()
        stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def _io_counters(self):
        """(rchar, wchar) of this process, or None where the kernel hides them."""
        if self._io_fd is None:
            return None
        fields = dict(
            line.split(": ")
            for line in os.pread(self._io_fd, 4096, 0).decode().splitlines()
        )
        return int(fields["rchar"]), int(fields["wchar"])

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, layer):
        name = f"{layer}.{fn.__name__}"
        public = not fn.__name__.startswith("_")
        work = WORK.get(name)
        signature = inspect.signature(fn) if work is not None else None
        track_rss = name in RSS_TRACKED
        track_io = layer == "io"
        proxy_result = layer == "rng"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if public and stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            units = 0
            if work is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    units = work(bound.arguments)
                except (KeyError, AttributeError) as exc:
                    raise RuntimeError(
                        f"tracer: cannot count the work of {name} from its arguments "
                        f"({exc!r}); update WORK in tracer.py"
                    ) from exc
            span = tracer._open(name, layer, stack)
            span.work = units
            if track_rss:
                rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if track_io:
                io0 = tracer._io_counters()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, stack)
                if track_rss:
                    span.rss_gain_kb = (
                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
                    )
                if track_io and io0 is not None:
                    r1, w1 = tracer._io_counters()
                    read = fn.__name__.startswith("read")
                    span.io_bytes = r1 - io0[0] if read else w1 - io0[1]
            if proxy_result and isinstance(result, np.random.Generator):
                return _TracedGenerator(result, tracer)
            return result

        return traced

    def install(self):
        """Import the package and rebind every function it defines to a traced one."""
        root = importlib.import_module(PACKAGE)
        modules = [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(root.__path__)
            if info.name != "__main__"
        ]
        wrapped = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for obj in list(vars(module).values()):
                if not (inspect.isfunction(obj) and obj.__module__ == module.__name__):
                    continue
                if layer == "io" and not obj.__name__.startswith(IO_SPANS):
                    continue
                wrapped[obj] = self._wrap(obj, layer)
        names = {f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}" for fn in wrapped}
        lost = (set(WORK) | RSS_TRACKED) - names
        if lost:
            raise RuntimeError(
                f"tracer: {sorted(lost)} named in WORK/RSS_TRACKED are not functions "
                f"of {PACKAGE}; update tracer.py to the program's entry points"
            )
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
        self._count_drift_calls(importlib.import_module(f"{PACKAGE}.sde").DriftSpec)
        try:
            self._io_fd = os.open(_PROC_IO, os.O_RDONLY)
        except OSError:
            self._io_fd = None

    def close(self):
        """Release the I/O-counter handle; the spans stay readable."""
        if self._io_fd is not None:
            os.close(self._io_fd)
            self._io_fd = None

    def _count_drift_calls(self, drift_cls):
        original = drift_cls.__call__
        tracer = self

        def counted(spec, x, t):
            stack = tracer._stack()
            if stack:
                stack[-1].drift_calls += 1
            return original(spec, x, t)

        drift_cls.__call__ = counted

    # -- reports ------------------------------------------------------------

    def root(self) -> Span:
        roots = [s for s in self.spans if s.name == ROOT_SPAN and s.parent is None]
        if len(roots) != 1:
            raise RuntimeError(f"expected one root span {ROOT_SPAN}, found {len(roots)}")
        return roots[0]

    def _under(self, root: Span) -> list[Span]:
        """Spans in root's subtree, root included."""
        inside = {id(root)}
        out = [root]
        # spans are appended at close, so every child precedes its parent
        for span in reversed(self.spans):
            if span.parent is not None and id(span.parent) in inside:
                inside.add(id(span))
                out.append(span)
        return out

    def self_times(self, key: str = "layer") -> dict[str, float]:
        """Self time under the root span, summed by layer or by span name.

        Draw time is booked to ``rng`` (by name: ``rng.draw``).
        """
        out: dict[str, float] = {}
        draw_key = "rng" if key == "layer" else "rng.draw"
        for span in self._under(self.root()):
            k = getattr(span, key)
            out[k] = out.get(k, 0.0) + span.self_s
            if span.draw_s:
                out[draw_key] = out.get(draw_key, 0.0) + span.draw_s
        return out

    def work_counts(self) -> dict[str, int]:
        """Work counted from ``WORK`` entry calls under the root span, by layer."""
        out: dict[str, int] = {}
        for span in self._under(self.root()):
            if span.name in WORK:
                out[span.layer] = out.get(span.layer, 0) + span.work
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer figures of one traced run (see BENCHMARK.json)."""
        root = self.root()
        spans = self._under(root)
        self_by_layer = self.self_times()

        def total(attr, layer=None, only=None):
            return sum(getattr(s, attr) for s in spans
                       if (layer is None or s.layer == layer) and (only is None or only(s)))

        def rate(n, seconds):
            return n / seconds if seconds > 0 else 0.0

        def has_work(s):
            return s.work > 0

        def reads(s):
            return s.name.startswith("io.read")

        def writes(s):
            return s.name.startswith("io.write")

        draws, draw_s = total("draws"), total("draw_s")
        steps, steps_s = total("work", "sde"), total("duration", "sde", has_work)
        cells, cells_s = (total("work", "fokker_planck"),
                          total("duration", "fokker_planck", has_work))
        beam_n, beam_s = (total("work", "stern_gerlach"),
                          total("duration", "stern_gerlach", has_work))
        write_s, read_s = total("self_s", "io", writes), total("self_s", "io", reads)
        write_mb = total("io_bytes", "io", writes) / 2**20
        read_mb = total("io_bytes", "io", reads) / 2**20
        outside = [s for s in self.spans if s.parent is None and s is not root
                   and s.end <= root.start]
        return {
            "rng.streams": sum(1 for s in spans if s.layer == "rng"),
            "rng.build_s": total("duration", "rng"),
            "rng.draws": draws,
            "rng.draw_s": draw_s,
            "rng.draws_per_s": rate(draws, draw_s),
            "sde.self_s": self_by_layer.get("sde", 0.0),
            "sde.particle_steps": steps,
            "sde.particle_steps_per_s": rate(steps, steps_s),
            "sde.drift_calls": total("drift_calls", "sde"),
            "sde.rss_gain_mb": total("rss_gain_kb", "sde") / 1024,
            "fokker_planck.self_s": self_by_layer.get("fokker_planck", 0.0),
            "fokker_planck.cell_steps": cells,
            "fokker_planck.cell_steps_per_s": rate(cells, cells_s),
            "fokker_planck.drift_calls": total("drift_calls", "fokker_planck"),
            "stern_gerlach.self_s": self_by_layer.get("stern_gerlach", 0.0),
            "stern_gerlach.particles_per_s": rate(beam_n, beam_s),
            "io.write_s": write_s,
            "io.write_mb": write_mb,
            "io.write_mb_per_s": rate(write_mb, write_s),
            "io.read_s": read_s,
            "io.read_mb": read_mb,
            "io.read_mb_per_s": rate(read_mb, read_s),
            "scenarios.self_s": self_by_layer.get("scenarios", 0.0),
            "config.parse_s": sum(s.duration for s in outside),
        }


class _TracedGenerator:
    """Pass-through proxy that times and counts every draw from a generator."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if name.startswith("_") or not callable(attr):
            return attr
        stack = self._tracer._stack()

        def draw(*args, **kwargs):
            started = time.perf_counter()
            out = attr(*args, **kwargs)
            elapsed = time.perf_counter() - started
            if stack:
                span = stack[-1]
                span.child_s += elapsed
                span.draw_s += elapsed
                span.draws += getattr(out, "size", 1)
            return out

        return draw
