"""Span tracer for the benchmark's traced run.

install() puts an import hook in front of sys.meta_path.  Whenever a relscott
module or one of the scipy packages the library calls finishes executing, the
hook wraps the layer entry points listed in RELSCOTT_LAYERS / SCIPY_LAYERS and
rebinds every module-level binding of the same function object in relscott and
scipy.  A binding taken later (a lazy ``from scipy.integrate import ...``
inside a function, or a helper moved to another module) therefore still gets
the wrapper.  Methods are patched on their class, so isinstance checks keep
working.

Each call records one span: layer name, start, end, parent span and operation
id, kept in flat arrays until the run ends.  A span's self time is its
duration minus the durations of its direct children; in one thread children
never overlap, so the self times of an operation's spans add up to the
operation's duration.
"""

from __future__ import annotations

import functools
import importlib.abc
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# function or Class.method qualname in relscott -> layer (span) name
RELSCOTT_LAYERS = {
    "hurwitz_zeta": "zeta.hurwitz",
    "difference_over_gamma2_kernel": "hydrogenic.kernel",
    "tail_coefficients_reduced": "hydrogenic.tail_coeffs",
    "shift": "scott_shift.shift",
    "schwinger_shift": "scott_shift.schwinger",
    "solve_tf": "thomas_fermi.solve",
    "RadialDensity.__call__": "thomas_fermi.fields.density",
    "mean_field": "thomas_fermi.fields.mean_field",
    "exchange_hole_radius": "thomas_fermi.fields.exchange_hole_radius",
    "screening_potential": "thomas_fermi.fields.screening_potential",
    "ingest_energy_table": "atomic_energy.ingest",
    "ingest_reference_table": "atomic_energy.ingest",
    "comparison_table": "atomic_energy.table",
    # the emitters: the public table writers and the CLI's shared one
    "comparison_to_csv": "atomic_energy.emit",
    "comparison_to_json": "atomic_energy.emit",
    "emit_energy_table": "atomic_energy.emit",
    "_emit": "atomic_energy.emit",
    "main": "cli.main",
}

# the scipy calls the layers make
SCIPY_LAYERS = {
    "solve_ivp": "thomas_fermi.ivp",
    "solve_bvp": "thomas_fermi.bvp",
    "simpson": "thomas_fermi.quad",
    "cumulative_simpson": "thomas_fermi.quad",
    "PchipInterpolator.__init__": "thomas_fermi.interp",
    "brentq": "thomas_fermi.brentq",
}

_HOOKED_PACKAGES = ("relscott", "scipy.integrate", "scipy.interpolate", "scipy.optimize")

# number of values an observer records per span (unused slots are nan)
ATTR_WIDTH = 3


def _kernel_points(args, kwargs, result):
    principal = args[1] if len(args) > 1 else kwargs["principal"]
    return (float(np.size(principal)),)


def _shift_cutoffs(args, kwargs, result):
    return (float(result.l_max), float(result.n_max), result.tail_estimate / result.target_tol)


def _tf_nodes(args, kwargs, result):
    return (float(len(result.grid)),)


_OBSERVERS = {
    "hydrogenic.kernel": _kernel_points,
    "scott_shift.shift": _shift_cutoffs,
    "thomas_fermi.solve": _tf_nodes,
}


class Tracer:
    """In-memory span store.  One instance per process; single-threaded use."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.attr_span = array("l")
        self.attr_vals = array("d")
        self.current = -1
        self.op_id = -1
        self._wrapped: dict[int, tuple[object, object]] = {}

    def name_id(self, layer: str) -> int:
        nid = self._name_ids.get(layer)
        if nid is None:
            nid = self._name_ids[layer] = len(self.names)
            self.names.append(layer)
        return nid

    def _open(self, nid: int) -> tuple[int, int]:
        idx = len(self.start)
        parent = self.current
        self.name.append(nid)
        self.parent.append(parent)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.current = idx
        self.start.append(time.perf_counter())
        return idx, parent

    def _close(self, idx: int, parent: int) -> None:
        self.end[idx] = time.perf_counter()
        self.current = parent

    @contextmanager
    def span(self, layer: str, op_id: int | None = None):
        """Span opened by the benchmark itself (an operation, a set-up step)."""
        saved = self.op_id
        if op_id is not None:
            self.op_id = op_id
        idx, parent = self._open(self.name_id(layer))
        try:
            yield idx
        finally:
            self._close(idx, parent)
            self.op_id = saved

    def wrap(self, fn, layer: str):
        nid = self.name_id(layer)
        observe = _OBSERVERS.get(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, parent)
            if observe is not None:
                vals = observe(args, kwargs, result)
                tracer.attr_span.append(idx)
                tracer.attr_vals.extend(vals + (float("nan"),) * (ATTR_WIDTH - len(vals)))
            return result

        traced.__perfbench_traced__ = True
        return traced

    # -- patching ------------------------------------------------------------

    def patch(self, module) -> None:
        """Wrap the layer functions defined in module, then rebind everywhere."""
        for obj in list(vars(module).values()):
            owner = getattr(obj, "__module__", None) or ""
            if owner.startswith("relscott."):
                table = RELSCOTT_LAYERS
            elif owner.startswith("scipy."):
                table = SCIPY_LAYERS
            else:
                continue
            if isinstance(obj, type):
                for key, layer in table.items():
                    cls_name, _, meth = key.partition(".")
                    if meth and cls_name == obj.__qualname__:
                        fn = obj.__dict__.get(meth)
                        if fn is not None and not hasattr(fn, "__perfbench_traced__"):
                            setattr(obj, meth, self.wrap(fn, layer))
            elif callable(obj) and not hasattr(obj, "__perfbench_traced__"):
                layer = table.get(getattr(obj, "__qualname__", ""))
                if layer is not None and id(obj) not in self._wrapped:
                    self._wrapped[id(obj)] = (obj, self.wrap(obj, layer))
        self._rebind()

    def _rebind(self) -> None:
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith(("relscott", "scipy")):
                continue
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                hit = self._wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[attr] = hit[1]

    # -- export / import of child-process spans ------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        # copies: a live view would pin the array buffers and block appends
        def ints(a):
            return np.frombuffer(a, dtype=np.int64).copy()

        def floats(a):
            return np.frombuffer(a, dtype=float).copy()

        return {
            "names": np.array(self.names, dtype=str),
            "name": ints(self.name),
            "parent": ints(self.parent),
            "op": ints(self.op),
            "start": floats(self.start),
            "end": floats(self.end),
            "attr_span": ints(self.attr_span),
            "attr_vals": floats(self.attr_vals),
        }

    def merge(self, data, parent: int, op_id: int) -> None:
        """Append a child process's spans under span `parent` (same clock)."""
        offset = len(self.start)
        remap = np.array([self.name_id(n) for n in data["names"]], dtype=np.int64)
        child_parent = data["parent"]
        self.name.extend(remap[data["name"]].tolist())
        self.parent.extend(np.where(child_parent < 0, parent, child_parent + offset).tolist())
        self.op.extend([op_id] * len(child_parent))
        self.start.extend(data["start"].tolist())
        self.end.extend(data["end"].tolist())
        self.attr_span.extend((data["attr_span"] + offset).tolist())
        self.attr_vals.extend(data["attr_vals"].tolist())


class _PatchingLoader(importlib.abc.Loader):
    def __init__(self, loader, tracer: Tracer) -> None:
        self._loader = loader
        self._tracer = tracer

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module) -> None:
        self._loader.exec_module(module)
        self._tracer.patch(module)

    def __getattr__(self, name):
        return getattr(self._loader, name)


class _PatchingFinder(importlib.abc.MetaPathFinder):
    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if not (fullname in _HOOKED_PACKAGES or fullname.startswith("relscott.")):
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                if spec.loader is not None:
                    spec.loader = _PatchingLoader(spec.loader, self._tracer)
                return spec
        return None


def install() -> Tracer:
    """Create the process's tracer and hook imports; call before importing relscott."""
    tracer = Tracer()
    sys.meta_path.insert(0, _PatchingFinder(tracer))
    for name in list(sys.modules):
        if name in _HOOKED_PACKAGES or name.startswith("relscott."):
            tracer.patch(sys.modules[name])
    return tracer


# -- aggregation ----------------------------------------------------------------


class Spans:
    """Array view of a tracer's spans with durations and self times."""

    def __init__(self, tracer: Tracer) -> None:
        d = tracer.arrays()
        self.names = list(d["names"])
        self.name = d["name"]
        self.parent = d["parent"]
        self.op = d["op"]
        dur = d["end"] - d["start"]
        self.dur = dur
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self.self_time = dur - child_time
        # a span nested directly in a span of the same layer is not counted again
        same_as_parent = np.zeros(len(dur), dtype=bool)
        same_as_parent[has_parent] = self.name[self.parent[has_parent]] == self.name[has_parent]
        self.outermost = ~same_as_parent
        self.attr = np.zeros((len(dur), ATTR_WIDTH))
        self.attr[d["attr_span"]] = np.nan_to_num(d["attr_vals"].reshape(-1, ATTR_WIDTH))

    def layer_mask(self, layer: str) -> np.ndarray:
        if layer not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name == self.names.index(layer)
