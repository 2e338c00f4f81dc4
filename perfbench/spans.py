"""Spans around dqm's public functions, patched in from outside the program.

install() replaces each traced function or method by a wrapper that records
a span (name, start, end, parent) in compact in-memory arrays.  A module-level
function is replaced in every dqm module that binds it, so that
`dqm.verify.eval_poly_recurrence` is traced as well as
`dqm.families.eval_poly_recurrence`; a method is replaced on every class
that defines it.  summary() turns the spans into calls and self time per
name (a span's duration minus the part its child spans cover).  Every name
is registered when it is wrapped, so a name that is never called reads 0.
The metrics a traced run prints are listed in BENCHMARK.json `per_layer`.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

import inputs

SPECFUN = ("hypergeometric_F", "basic_hypergeometric_phi", "q_pochhammer_inf",
           "log_gamma", "complex_gamma")
FAMILY_FUNCS = ("eval_poly_recurrence", "eval_poly_hypergeometric")
FAMILY_METHODS = ("coefficients", "eta", "V", "phi0", "weight_square")
OPERATOR_METHODS = ("H_tilde", "forward", "backward", "comm_H_eta")
OPERATOR_FUNCS = ("ladder_action", "rodrigues_polynomial", "lambda_shift_X", "sample_points")
QUADRATURE_FUNCS = ("orthogonality_matrix", "hermiticity_forms", "weight_window")


class Recorder:
    """Spans in parallel arrays; counters for work that is not a call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, points=None):
        """Wrapper recording one span per call; points(args) adds to a counter."""
        nid = self.name_index(name)
        clock = time.perf_counter
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack)
        counts = self.counts
        if points is not None:
            counts.setdefault(points[0], 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            if points is not None:
                counts[points[0]] += points[1](args)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__traced__ = fn
        return traced

    def wrap_suite(self, fn):
        """run_suite: one span per call, named after its suite."""
        wrapped = {suite: self.wrap(f"verify.{suite}", fn) for suite in inputs.SUITES}

        @functools.wraps(fn)
        def traced(suite_id, *args, **kwargs):
            inner = wrapped.get(suite_id)
            if inner is None:
                inner = wrapped[suite_id] = self.wrap(f"verify.{suite_id}", fn)
            return inner(suite_id, *args, **kwargs)

        traced.__traced__ = fn
        return traced

    def summary(self, rounds: int) -> dict:
        """{name: (calls, self seconds, inclusive seconds)} per round."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        ids = np.frombuffer(self.name_id, dtype=np.uint16)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=self_t, minlength=len(self.names))
        total_s = np.bincount(ids, weights=dur, minlength=len(self.names))
        return {
            name: (int(calls[i]) // rounds, float(self_s[i]) / rounds, float(total_s[i]) / rounds)
            for i, name in enumerate(self.names)
        }

    def dump(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _points(args) -> int:
    """Number of points in the second argument (an eta or the quadrature nodes)."""
    return int(getattr(args[1], "size", 1))


def _rebind(replacements: dict) -> None:
    """Point every dqm module attribute bound to an original at its wrapper."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "dqm" or name.startswith("dqm.")):
            continue
        for attr, value in list(vars(module).items()):
            new = replacements.get(id(value))
            if new is not None and new.__traced__ is value:
                setattr(module, attr, new)


def _patch_methods(rec: Recorder, classes, methods, layer: str, points=None) -> None:
    for cls in classes:
        for klass in cls.__mro__:
            for meth in methods:
                fn = klass.__dict__.get(meth)
                if callable(fn) and not hasattr(fn, "__traced__"):
                    setattr(klass, meth, rec.wrap(f"{layer}.{meth}", fn, points))


def install() -> Recorder:
    """Wrap dqm's public functions; dqm and its submodules must be imported."""
    import dqm.cli
    import dqm.families as families
    import dqm.fixtures as fixtures
    import dqm.operators as operators
    import dqm.polynomials as polynomials
    import dqm.quadrature as quadrature
    import dqm.specfun as specfun
    import dqm.verify as verify

    rec = Recorder()
    replacements = {}

    def module_funcs(module, names, layer):
        for name in names:
            fn = getattr(module, name)
            replacements[id(fn)] = rec.wrap(f"{layer}.{name}", fn)

    module_funcs(specfun, SPECFUN, "specfun")
    module_funcs(families, FAMILY_FUNCS, "families")
    module_funcs(operators, OPERATOR_FUNCS, "operators")
    module_funcs(quadrature, QUADRATURE_FUNCS, "quadrature")
    module_funcs(dqm.cli, ("validate_report",), "cli")
    module_funcs(fixtures, ("load_fixtures",), "fixtures")
    replacements[id(verify.run_suite)] = rec.wrap_suite(verify.run_suite)
    call_vec = quadrature._call_vectorized
    replacements[id(call_vec)] = rec.wrap(
        "quadrature._call_vectorized", call_vec, ("quadrature.nodes", _points))
    _rebind(replacements)

    _patch_methods(rec, [type(f) for f in families.FAMILIES.values()],
                   FAMILY_METHODS, "families")
    _patch_methods(rec, [operators.OperatorContext], OPERATOR_METHODS, "operators")
    _patch_methods(rec, [polynomials.EtaPolynomial], ("eval",), "polynomials.EtaPolynomial",
                   ("polynomials.EtaPolynomial.eval.points", _points))
    return rec
