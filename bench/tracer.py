"""Per-layer spans for one fractrace CLI process, recorded from outside the program.

Run as ``python bench/tracer.py SPANS.npz ARGS...``: it imports the fractrace
modules, replaces the module attributes of each layer's public functions with
timing wrappers, runs ``fractrace.cli.main(ARGS)`` and writes every span to
SPANS.npz when the command ends.  Replacing module attributes also catches
calls made inside a module.  The Bessel kernel is wrapped only under the
names ``modes`` and ``energy`` import it by, so its calls count once per use
by the numerical layers.

A span is (name, start, end, parent, thread id); a span's parent is the
enclosing span on the same thread.  ``layer_metrics`` turns span files into
the benchmark's per-layer metrics: self time is a span's duration minus its
children's, summed per layer over every thread.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array

import numpy as np

WHOLE_MODULES = ("gammacore", "jets", "polys")   # every public function
NAMED = {                                        # module -> public functions, "Class.method"
    "energy": ("q_form", "interior_energy", "boundary_correction", "extension_field_view",
               "sharp_sobolev_check", "lebedev_milin_check"),
    "modes": ("solve_extension", "dtn_apply", "fractional_laplacian_fft",
              "ExtensionSolution.evaluate", "ModeProfile.ode_residual",
              "GridField.load", "GridField.save"),
    "besselk": ("bessel_k", "bessel_k_dt"),
}
JOB_SPAN = "cli.job"

# span name -> layer; names under WHOLE_MODULES map to their module
LAYER_OF = {
    "energy.q_form": "energy.q_form",
    "energy.interior_energy": "energy.interior_energy",
    "energy.boundary_correction": "energy.boundary_correction",
    "energy.extension_field_view": "energy.extension_field_view",
    "energy.sharp_sobolev_check": "energy.sharp",
    "energy.lebedev_milin_check": "energy.sharp",
    "modes.solve_extension": "modes.solve_extension",
    "modes.ExtensionSolution.evaluate": "modes.evaluate",
    "modes.dtn_apply": "modes.dtn_apply",
    "modes.ModeProfile.ode_residual": "modes.ode_residual",
    "modes.GridField.load": "modes.io",
    "modes.GridField.save": "modes.io",
    "modes.fractional_laplacian_fft": "modes.fraclap",
    "besselk.bessel_k": "besselk",
    "besselk.bessel_k_dt": "besselk",
}
SELF_LAYERS = ("energy.q_form", "energy.interior_energy", "energy.boundary_correction",
               "energy.extension_field_view", "energy.sharp", "gammacore", "jets", "polys",
               "besselk", "modes.solve_extension", "modes.evaluate", "modes.dtn_apply",
               "modes.ode_residual", "modes.io", "modes.fraclap")
CALL_LAYERS = ("energy.q_form", "jets", "polys", "besselk")
MODES_SOLVED = "modes.solve_extension.modes"


def layer_of(span_name: str):
    if span_name in LAYER_OF:
        return LAYER_OF[span_name]
    module = span_name.split(".", 1)[0]
    return module if module in WHOLE_MODULES else None


class _Buffer:
    """Spans of one thread; only that thread appends, so rows never interleave."""

    def __init__(self):
        self.tid = threading.get_native_id()
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []


class Recorder:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.buffers = []
        self.counters = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        buf = _Buffer()
        self._local.buf = buf
        with self._lock:
            self.buffers.append(buf)
        return buf

    def wrap(self, fn, name: str, count=None):
        """fn inside a span called name; count(result) is added to counters[name]."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        local, clock, new_buffer = self._local, time.perf_counter, self._buffer

        @functools.wraps(fn)
        def span(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = new_buffer()
            stack = buf.stack
            i = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.end.append(0.0)
            stack.append(i)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[i] = clock()
                stack.pop()
            if count is not None:
                with self._lock:
                    self.counters[name] = self.counters.get(name, 0) + count(result)
            return result

        return span

    def save(self, path: str):
        dtypes = {"name": np.int32, "parent": np.int64, "start": np.float64,
                  "end": np.float64, "tid": np.int64}
        cols = {k: [] for k in dtypes}
        offset = 0
        for buf in list(self.buffers):
            size = len(buf.start)
            parent = np.frombuffer(buf.parent, dtype=np.int64)[:size].copy()
            parent[parent >= 0] += offset
            cols["name"].append(np.frombuffer(buf.name, dtype=np.int32)[:size])
            cols["parent"].append(parent)
            cols["start"].append(np.frombuffer(buf.start)[:size])
            cols["end"].append(np.frombuffer(buf.end)[:size])
            cols["tid"].append(np.full(size, buf.tid, dtype=np.int64))
            offset += size
        arrays = {k: np.concatenate(v) if v else np.zeros(0, dtypes[k]) for k, v in cols.items()}
        np.savez(path, names=np.array(self.names or [""]),
                 counter_names=np.array(list(self.counters) or [""]),
                 counter_values=np.array(list(self.counters.values()) or [0], dtype=np.int64),
                 **arrays)


def _replace_everywhere(modules, original, wrapped, skip=None):
    for mod in modules:
        if mod is skip:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def install(recorder: Recorder):
    """Wrap the layer functions in every fractrace module that refers to them."""
    import fractrace
    from fractrace import besselk, cli, energy, gammacore, jets, modes, polys, report

    modules = (fractrace, besselk, cli, energy, gammacore, jets, modes, polys, report)
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules[1:]}
    counts = {"modes.solve_extension": lambda sol: int(sol.xi2.size)}

    for modname in WHOLE_MODULES:
        mod = by_name[modname]
        for attr, obj in list(vars(mod).items()):
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                _replace_everywhere(modules, obj, recorder.wrap(obj, f"{modname}.{attr}"))
    for modname, attrs in NAMED.items():
        mod = by_name[modname]
        # the Bessel kernel is counted where the numerical layers call it
        skip = mod if modname == "besselk" else None
        for attr in attrs:
            name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(recorder.wrap(raw.__func__, name)))
                else:
                    setattr(cls, meth, recorder.wrap(raw, name))
            else:
                obj = getattr(mod, attr)
                _replace_everywhere(modules, obj, recorder.wrap(obj, name, counts.get(name)), skip)

    class TracedPool(cli.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(recorder.wrap(fn, JOB_SPAN), *args, **kwargs)

    cli.ThreadPoolExecutor = TracedPool


# ---------------------------------------------------------------------------
# Reading span files
# ---------------------------------------------------------------------------


def self_times(parent, duration):
    """Duration minus the summed duration of direct children."""
    has = parent >= 0
    child = np.bincount(parent[has], weights=duration[has], minlength=duration.size)
    return duration - child[:duration.size]


def layer_metrics(span_files) -> dict:
    """Per-layer metrics summed over span files (one file per traced command).

    Returns every per-layer metric except trace.overhead_frac, plus
    ``named_self_s``, the sum of the layer self times."""
    out = {f"{layer}.self_s": 0.0 for layer in SELF_LAYERS}
    out.update({f"{layer}.calls": 0 for layer in CALL_LAYERS})
    out.update({MODES_SOLVED: 0, "cli.jobs.busy_s": 0.0, "cli.jobs.span_s": 0.0})
    for path in span_files:
        with np.load(path) as data:
            names = [str(s) for s in data["names"]]
            name, parent = data["name"].astype(np.int64), data["parent"]
            start, end = data["start"], data["end"]
            counters = dict(zip(data["counter_names"].tolist(), data["counter_values"].tolist()))
        duration = end - start
        own = self_times(parent, duration)
        for nid, span_name in enumerate(names):
            rows = name == nid
            if not rows.any():
                continue
            layer = layer_of(span_name)
            if layer is not None:
                out[f"{layer}.self_s"] += float(own[rows].sum())
                if layer in CALL_LAYERS:
                    out[f"{layer}.calls"] += int(rows.sum())
            elif span_name == JOB_SPAN:
                out["cli.jobs.busy_s"] += float(duration[rows].sum())
                out["cli.jobs.span_s"] += float(end[rows].max() - start[rows].min())
        out[MODES_SOLVED] += int(counters.get("modes.solve_extension", 0))
    out["named_self_s"] = sum(out[f"{layer}.self_s"] for layer in SELF_LAYERS)
    return out


def main(argv) -> int:
    spans_path, args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    from fractrace import cli

    try:
        return cli.main(args)
    finally:
        recorder.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
