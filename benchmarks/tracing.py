"""Per-layer tracing: spans and counts recorded around the calls into each qglab module.

`Tracer.installed()` rebinds every name under which a traced function is
looked up (in every loaded `qglab.*` module, on `numpy.fft`, and on the
`Mollifier` class) and restores the originals on exit, so untraced runs
execute the unmodified code.  A traced name that no longer exists raises
`TraceError` instead of silently reporting zero.

Self time is a span's duration minus the durations of the traced spans it
directly encloses.  FFT bytes are computed from the input and output array
sizes, not measured.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
FFT_SIZES = (64, 128, 256)

# (module, attribute, trace key) of every traced function.
SPANS = (
    ("qglab.spectral", "pad_spectrum", "spectral.pad"),
    ("qglab.spectral", "Mollifier.stencil", "spectral.stencil"),
    ("qglab.models", "advection_coeffs", "models.advection"),
    ("qglab.stepping", "run", "stepping.run"),
    ("qglab.stepping", "picard_solve", "stepping.picard"),
    ("qglab.diagnostics", "make_record", "diagnostics.record"),
    ("qglab.diagnostics", "sobolev_norm", "diagnostics.norm"),
    ("qglab.diagnostics", "coarse_grained_flux", "diagnostics.flux"),
    ("qglab.experiments", "compare_mu", "experiments.sweep"),
    ("qglab.io", "load_config", "io.config"),
    ("qglab.io", "save_snapshot", "io.snapshot_write"),
    ("qglab.io", "write_series", "io.series_write"),
    ("qglab.io", "load_snapshot", "io.snapshot_read"),
)
# Counted but not timed, so RK stage combination stays in the self time of `run`.
COUNTERS = (
    ("qglab.stepping", "rk4_step", "stepping.steps"),
    ("qglab.stepping", "etd_rk4_step", "stepping.steps"),
)

# Emitted per-layer metrics: (name, unit, source table, trace key).
PER_LAYER = [
    ("spectral.fft_calls", "count", "count", "spectral.fft"),
    ("spectral.fft_bytes", "bytes_computed", "bytes", "spectral.fft"),
    ("spectral.fft_s", "s", "total", "spectral.fft"),
]
for _n in FFT_SIZES:
    PER_LAYER += [
        (f"spectral.fft_calls.n{_n}", "count", "count", f"spectral.fft.n{_n}"),
        (f"spectral.fft_bytes.n{_n}", "bytes_computed", "bytes", f"spectral.fft.n{_n}"),
        (f"spectral.fft_s.n{_n}", "s", "total", f"spectral.fft.n{_n}"),
    ]
PER_LAYER += [
    ("spectral.pad_calls", "count", "count", "spectral.pad"),
    ("spectral.pad_s", "s", "total", "spectral.pad"),
    ("spectral.stencil_s", "s", "total", "spectral.stencil"),
    ("models.advection_calls", "count", "count", "models.advection"),
    ("models.advection_s", "s", "total", "models.advection"),
    ("models.advection_self_s", "s", "self", "models.advection"),
    ("stepping.steps", "count", "count", "stepping.steps"),
    ("stepping.run_calls", "count", "count", "stepping.run"),
    ("stepping.run_s", "s", "total", "stepping.run"),
    ("stepping.run_self_s", "s", "self", "stepping.run"),
    ("stepping.picard_solves", "count", "count", "stepping.picard"),
    ("stepping.picard_iterations", "count", "count", "stepping.picard_iterations"),
    ("stepping.picard_s", "s", "total", "stepping.picard"),
    ("stepping.picard_self_s", "s", "self", "stepping.picard"),
    ("diagnostics.record_calls", "count", "count", "diagnostics.record"),
    ("diagnostics.record_s", "s", "total", "diagnostics.record"),
    ("diagnostics.norm_calls", "count", "count", "diagnostics.norm"),
    ("diagnostics.norm_s", "s", "total", "diagnostics.norm"),
    ("diagnostics.flux_calls", "count", "count", "diagnostics.flux"),
    ("diagnostics.flux_s", "s", "total", "diagnostics.flux"),
    ("diagnostics.flux_self_s", "s", "self", "diagnostics.flux"),
    ("experiments.sweep_s", "s", "total", "experiments.sweep"),
    ("experiments.sweep_self_s", "s", "self", "experiments.sweep"),
    ("io.config_s", "s", "total", "io.config"),
    ("io.snapshot_writes", "count", "count", "io.snapshot_write"),
    ("io.snapshot_write_bytes", "bytes", "bytes", "io.snapshot_write"),
    ("io.snapshot_write_s", "s", "total", "io.snapshot_write"),
    ("io.series_bytes", "bytes", "bytes", "io.series_write"),
    ("io.series_write_s", "s", "total", "io.series_write"),
    ("io.snapshot_reads", "count", "count", "io.snapshot_read"),
    ("io.snapshot_read_s", "s", "total", "io.snapshot_read"),
]


class TraceError(RuntimeError):
    """A traced name is missing, so the trace would be blind to its layer."""


def _written_bytes(index):
    """Hook: size of the file a writer just produced; its path is argument `index`."""
    return lambda tracer, args, kwargs, out: os.path.getsize(
        args[index] if len(args) > index else kwargs["path"])


def _picard_iterations(tracer, args, kwargs, out):
    tracer.count["stepping.picard_iterations"] += out[1].iterations
    return 0


HOOKS = {
    "stepping.picard": _picard_iterations,
    "io.snapshot_write": _written_bytes(1),
    "io.series_write": _written_bytes(0),
}


def _lookup(module, attr):
    """(owner, function) for a dotted attribute; owner is the class for a method."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    func = getattr(owner, name, None)
    if func is None:
        raise TraceError(f"trace target {module}.{attr} is gone")
    return owner, func


class Tracer:
    """Counts, total time, self time and computed bytes per trace key."""

    def __init__(self):
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self = defaultdict(float)
        self.bytes = defaultdict(int)
        self._stack = []  # traced time enclosed by each open span

    def _record(self, key, elapsed, enclosed, nbytes=0):
        self.count[key] += 1
        self.total[key] += elapsed
        self.self[key] += elapsed - enclosed
        self.bytes[key] += nbytes

    def _span(self, func, key):
        stack = self._stack
        hook = HOOKS.get(key)

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                enclosed = stack.pop()
                if stack:
                    stack[-1] += elapsed
            self._record(key, elapsed, enclosed, hook(self, args, kwargs, out) if hook else 0)
            return out

        return traced

    def _fft(self, func):
        stack = self._stack

        def traced(a, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = func(a, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                if stack:
                    stack[-1] += elapsed
            a = np.asarray(a)
            nbytes = a.nbytes + out.nbytes
            self._record("spectral.fft", elapsed, 0.0, nbytes)
            self._record(f"spectral.fft.n{max(a.shape[-1], out.shape[-1])}", elapsed, 0.0, nbytes)
            return out

        return traced

    def _counter(self, func, key):
        def counted(*args, **kwargs):
            self.count[key] += 1
            return func(*args, **kwargs)

        return counted

    def _wrappers(self):
        """(owner, original, wrapper) for every traced function."""
        out = []
        for module, attr, key in SPANS:
            owner, func = _lookup(module, attr)
            out.append((owner, func, self._span(func, key)))
        for module, attr, key in COUNTERS:
            owner, func = _lookup(module, attr)
            out.append((owner, func, self._counter(func, key)))
        for name in FFT_NAMES:
            func = getattr(np.fft, name)
            out.append((np.fft, func, self._fft(func)))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Rebind every lookup of a traced function for the duration of the block."""
        patched = []
        try:
            modules = [m for name, m in list(sys.modules.items())
                       if m is not None and (name == "qglab" or name.startswith("qglab."))]
            for owner, orig, wrapper in self._wrappers():
                for mod in {id(m): m for m in modules + [owner]}.values():
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, name, wrapper)
                            patched.append((mod, name, orig))
            yield self
        finally:
            for mod, name, orig in reversed(patched):
                setattr(mod, name, orig)

    def metrics(self) -> dict:
        tables = {"count": self.count, "total": self.total, "self": self.self, "bytes": self.bytes}
        return {name: tables[source][key] for name, _, source, key in PER_LAYER}

    def expectation_failures(self, study) -> list[str]:
        """Layers that must run but recorded nothing, and layers that must stay idle but ran."""
        failed = [f"trace.silent: {key} recorded no calls" for key in study.LAYERS_RUN
                  if self.count[key] == 0]
        failed += [f"trace.unexpected: {key} recorded {self.count[key]} calls"
                   for key in study.LAYERS_IDLE if self.count[key] != 0]
        return failed
