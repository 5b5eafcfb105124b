"""Layer spans for whitefem, recorded from outside the library.

The tracer wraps public functions and methods of whitefem while it is
installed and restores the originals when it is removed; nothing under
``src/`` is edited.  Module functions are replaced in every whitefem module
that binds the same function object (``assemble_mass`` is bound in ``fem``,
``sampling``, ``boundary``, ``convergence``, ``cli`` and the package), so a
call is traced whichever module it is looked up through.  Methods are
replaced on their classes.

Each call opens a span.  A layer's time is the sum of its spans' self times:
the span's duration minus the durations of the spans it caused.  Counters are
recorded at the same boundaries.  Spans are kept in memory and returned with
the layer totals.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = (
    "whitefem",
    "whitefem.mesh",
    "whitefem.fem",
    "whitefem.noise",
    "whitefem.sampling",
    "whitefem.spectral",
    "whitefem.boundary",
    "whitefem.convergence",
    "whitefem.cli",
)


def _columns(args, kwargs, result):
    b = args[1] if len(args) > 1 else kwargs["b_free"]
    return {"fem.solve_columns": 1 if b.ndim == 1 else b.shape[1]}


def _normals(args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs["n"]
    return {"noise.normals_drawn": int(n)}


def _factor_nnz(args, kwargs, result):
    return {"noise.factor_nnz": int(args[0].chol.nnz)}


def _call(counter):
    return lambda args, kwargs, result: {counter: 1}


# (defining module, function name, layer, counter function or None)
FUNCTIONS = (
    ("whitefem.mesh", "build_rectangle_mesh", "mesh.build_s", None),
    ("whitefem.mesh", "refine_uniform", "mesh.refine_s", None),
    ("whitefem.fem", "assemble_stiffness", "fem.assemble_s", _call("fem.assemble_calls")),
    ("whitefem.fem", "assemble_mass", "fem.assemble_s", _call("fem.assemble_calls")),
    ("whitefem.fem", "assemble_boundary_mass", "fem.assemble_s", _call("fem.assemble_calls")),
    ("whitefem.sampling", "monte_carlo_moments", "sampling.mc_self_s", None),
    ("whitefem.sampling", "exact_discrete_covariance", "sampling.exact_cov_s", None),
    ("whitefem.spectral", "eigenpairs", "spectral.eigenpairs_s", None),
    ("whitefem.convergence", "deterministic_fem_error", "convergence.self_s", None),
    ("whitefem.boundary", "robin_residual", "boundary.residual_s", None),
    ("whitefem.boundary", "scale_space_basis", "boundary.residual_s", None),
)

# (defining module, class name, method name, layer, counter function or None)
METHODS = (
    ("whitefem.fem", "FactorizedSystem", "__init__", "fem.system_factor_s", None),
    ("whitefem.fem", "FactorizedSystem", "solve_free", "fem.solve_s", _columns),
    ("whitefem.fem", "FactorizedSystem", "solve", "fem.solve_s", None),
    ("whitefem.noise", "LoadSampler", "__init__", "noise.factor_s", _factor_nnz),
    ("whitefem.noise", "GaussianStream", "normals", "noise.normals_s", _normals),
    ("whitefem.noise", "LoadSampler", "sample_batch", "noise.load_s", None),
    ("whitefem.noise", "LoadSampler", "sample", "noise.load_s", None),
    ("whitefem.sampling", "DiscreteSolutionOperator", "__init__", "sampling.operator_s", None),
    ("whitefem.spectral", "RectangleEigenBasis", "evaluate", "spectral.evaluate_s",
     _call("spectral.evaluate_calls")),
)

LAYERS = (
    "mesh.build_s",
    "mesh.refine_s",
    "fem.assemble_s",
    "fem.system_factor_s",
    "fem.solve_s",
    "noise.factor_s",
    "noise.normals_s",
    "noise.load_s",
    "sampling.operator_s",
    "sampling.mc_self_s",
    "sampling.exact_cov_s",
    "spectral.eigenpairs_s",
    "spectral.evaluate_s",
    "convergence.self_s",
    "boundary.residual_s",
)
COUNTERS = (
    "mesh.nodes",
    "fem.assemble_calls",
    "fem.solve_columns",
    "noise.factor_nnz",
    "noise.normals_drawn",
    "spectral.evaluate_calls",
)


class Tracer:
    """Records nested spans while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[dict] = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[dict] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def _wrap(self, fn, layer, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = {"layer": layer, "name": fn.__qualname__, "child_s": 0.0,
                    "parent": None if parent is None else parent["index"],
                    "index": len(tracer.spans)}
            tracer.spans.append(span)
            tracer._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                span["start"], span["end"] = start, end
                duration = end - start
                tracer.self_s[layer] += duration - span["child_s"]
                if parent is not None:
                    parent["child_s"] += duration
            if counter is not None:
                for name, value in counter(args, kwargs, result).items():
                    tracer.counts[name] += value
            return result

        return traced

    def top_level_s(self) -> float:
        """Summed duration of the spans that no other span caused."""
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)

    # -- installation ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(name) for name in MODULES]
        for home, name, layer, counter in FUNCTIONS:
            original = getattr(importlib.import_module(home), name)
            wrapped = self._wrap(original, layer, counter)
            for module in modules:
                if getattr(module, name, None) is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, wrapped)
        for home, cls_name, attr, layer, counter in METHODS:
            cls = getattr(importlib.import_module(home), cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, layer, counter))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
