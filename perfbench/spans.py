"""Span tracer installed from outside the program.

`install` wraps the public functions of the five dualcurl layers at every
name a caller resolves them by: the defining module (the CLI reaches
curlcurl as `cc.<name>`), the modules that bind them with
`from .x import name`, and the package namespace.  Each call records a
span (name, start, end, parent, round) in memory; counters record work
at the same boundaries.  Nothing is written until the caller asks for
`dump()`.
"""

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("basis1d", "operators2d", "galerkin", "curlcurl", "cli")

# spans reported under one name
GROUPS = {
    "galerkin.psi0_table": "galerkin.psi_table",
    "galerkin.psi1_table": "galerkin.psi_table",
    "galerkin.dual_psi2_table": "galerkin.psi_table",
    "galerkin.dual_psi1_table": "galerkin.psi_table",
    "galerkin.M2_dual": "galerkin.dense_inverse",
    "galerkin.M1_dual": "galerkin.dense_inverse",
}

_RESIDUAL_OF = {
    "curlcurl.solve_neumann": "curlcurl.neumann_residual",
    "curlcurl.solve_dirichlet": "curlcurl.dirichlet_residual",
}


def _nbytes(result):
    if isinstance(result, tuple):
        return sum(a.nbytes for a in result)
    return result.nbytes


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, round]
        self.counts = defaultdict(Counter)   # round -> counter name -> value
        self.maxima = {}         # quality name -> worst value seen
        self.round = 0
        self._stack = []
        self._undo = []

    # -- recording --------------------------------------------------------
    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.round])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def count(self, name, n=1):
        self.counts[self.round][name] += n

    def worst(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, 0.0), float(value))

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- installation -----------------------------------------------------
    def _wrap(self, name, fn, after=None):
        tracer = self
        calls = GROUPS.get(name, name) + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            tracer.count(calls)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function of the five layers; undo with remove()."""
        modules = {layer: sys.modules[f"dualcurl.{layer}"] for layer in LAYERS}
        namespaces = list(modules.values()) + [sys.modules["dualcurl"]]
        hooks = self._hooks()
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, obj, hooks.get(name))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            self._set(ns, key, wrapper)
        self._install_classes(modules)

    def _install_classes(self, modules):
        cc, gal = modules["curlcurl"], modules["galerkin"]
        self._set(cc.Discretization, "__init__",
                  self._wrap("curlcurl.Discretization", cc.Discretization.__init__))
        gram = gal.GramSet
        self._set(gram, "__init__", self._wrap("galerkin.GramSet", gram.__init__))
        for prop in ("M2_dual", "M1_dual"):
            fget = gram.__dict__[prop].fget
            self._set(gram, prop, property(self._wrap(f"galerkin.{prop}", fget)))
        for meth in ("solve_mass0", "solve_mass1"):
            self._set(gram, meth, self._counting_mass_solve(gram.__dict__[meth]))
        if "cho_factor" in vars(gal):
            self._set(gal, "cho_factor", self._counting_cholesky(gal.cho_factor))

    def _counting_mass_solve(self, fn):
        @functools.wraps(fn)
        def wrapper(gram, b):
            self.count("galerkin.solve_mass_columns", b.shape[1] if b.ndim == 2 else 1)
            return fn(gram, b)
        return wrapper

    def _counting_cholesky(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            n = a.shape[0]
            self.count("galerkin.factorizations")
            self.count("galerkin.cholesky_flops", n ** 3 / 3.0)
            return fn(a, *args, **kwargs)
        return wrapper

    def _hooks(self):
        def points(args, result):
            self.count("basis1d.points_evaluated", np.size(args[1]))

        def table(args, result):
            self.count("galerkin.table_bytes", _nbytes(result))

        def residual(args, result):
            key = _RESIDUAL_OF.get(self.parent_name())
            if key is None:
                return
            self.begin("bench.residual")   # kept out of the caller's self time
            A, b = args[0], args[1]
            self.worst(key, np.linalg.norm(A @ result - b) / np.linalg.norm(b))
            self.end()

        return {
            "basis1d.lagrange_eval": points,
            "basis1d.edge_eval": points,
            "operators2d.build_incidence":
                lambda a, r: self.count("operators2d.incidence_bytes", r.nbytes),
            "galerkin.psi0_table": table,
            "galerkin.psi1_table": table,
            "galerkin.dual_psi2_table": table,
            "galerkin.dual_psi1_table": table,
            "galerkin.spd_solve": residual,
            "curlcurl.solve_both": lambda a, r: self.count("curlcurl.rhs_solved"),
        }

    def remove(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output -----------------------------------------------------------
    def dump(self):
        return {
            "spans": self.spans,
            "counts": {str(r): dict(c) for r, c in self.counts.items()},
            "maxima": self.maxima,
        }

    def absorb(self, dump, round_):
        """Add a child process's dump as round `round_` of this tracer."""
        offset = len(self.spans)
        for name, start, end, parent, _ in dump["spans"]:
            self.spans.append(
                [name, start, end, parent + offset if parent >= 0 else -1, round_])
        for counts in dump["counts"].values():
            self.counts[round_].update(counts)
        for key, value in dump["maxima"].items():
            self.worst(key, value)


def self_times(spans):
    """Per round, the summed self time (s) of each span group."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = defaultdict(Counter)
    for i, (name, start, end, parent, round_) in enumerate(spans):
        out[round_][GROUPS.get(name, name)] += (end - start) - covered[i]
    return out
