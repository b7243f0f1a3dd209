"""Spans around calls into minkflow's public functions, from outside.

``Tracer.install()`` wraps each function in ``SPANS`` wherever a loaded
``minkflow`` module binds it (``catalog`` imports ``flow.residual`` by
name, for example), so nested calls nest their spans.  Each span records
name, start, end, parent span and operation id; spans stay in memory
until the run writes them out.
"""

import functools
import importlib
import os
import sys
import time


def _grid_nodes(args, kw, out):
    return len(args[0].nodes)


def _points(args, kw, out):
    return len(args[1])


def _samples(args, kw, out):
    return len(out.s)


def _probes(args, kw, out):
    """Probe points mapped: probe times x points in the probed window."""
    n = len(args[0].points)
    lo, hi = kw.get("probe_fraction", (0.15, 0.85))
    return len(args[2]) * (int(hi * n) - int(lo * n))


def _file_bytes(args, kw, out):
    return os.path.getsize(args[1] if len(args) > 1 else args[0])


_STIFF = {"Radau", "BDF", "LSODA"}


def _phase_kind(args, kw):
    return "stiff" if kw.get("method", "DOP853") in _STIFF else "explicit"


# module -> function -> (work count name, counter) or None
SPANS = {
    "cli": {"main": None},
    "flow": {"evolve": ("nodes", _grid_nodes), "stability_dt": None,
             "residual": None},
    "catalog": {"length_vs_time": ("points", _points),
                "curvature_profile_check": None, "verify_all": None},
    "selfsim": {"integrate_phase": ("samples", _samples),
                "integrate_graph": None, "integrate_lightcone": None,
                "screw_translate_curve": ("nodes", _samples),
                "classify": None, "conserved_drift": None,
                "reconstruct": None},
    "invariants": {"make_invariant_curve": None,
                   "check_invariance": ("probes", _probes)},
    "geometry": {"write_curve_csv": ("bytes", _file_bytes),
                 "read_curve_csv": ("bytes", _file_bytes)},
    "svg": {"render": None},
}


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, op, count, error]
        self.stack = []
        self.op = None
        self.enabled = False
        self._saved = []

    def install(self):
        """Wrap every function in SPANS; spans record while enabled."""
        for mod_name in SPANS:
            importlib.import_module(f"minkflow.{mod_name}")
        mods = {name: mod for name, mod in sys.modules.items()
                if name.startswith("minkflow.") and mod is not None}
        for mod_name, funcs in SPANS.items():
            home = mods[f"minkflow.{mod_name}"]
            for fn_name, counter in funcs.items():
                orig = getattr(home, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", orig, counter)
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _wrap(self, name, fn, counter):
        tracer = self
        if name == "selfsim.integrate_phase":
            def label(args, kw):
                return f"{name}.{_phase_kind(args, kw)}"
        else:
            def label(args, kw):
                return name

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if not tracer.enabled:
                return fn(*args, **kw)
            span = [label(args, kw), time.perf_counter(), None,
                    tracer.stack[-1] if tracer.stack else None, tracer.op,
                    None, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kw)
            except Exception as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if counter is not None:
                span[5] = counter[1](args, kw, out)
            return out
        return wrapper

    def self_times(self):
        """Span duration minus the time covered by its child spans."""
        own = [end - start for _n, start, end, *_ in self.spans]
        for _n, start, end, parent, *_ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own
