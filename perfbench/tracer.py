"""Outside-in tracer for the ballgrad layers.

The tracer wraps public functions of the package from outside: nothing in
``src/`` knows it exists.  A wrapped function is rebound in every ballgrad
module whose namespace holds the same function object, so calls through a
``from .x import y`` binding (``phi.integrate``, ``specfun.integrate``,
``bounds.phi_quad``, ``harmonic.zonal_sphere_integral``, ``cli.merge_reports``)
are seen as well as calls through the defining module, including calls the
defining module makes to itself (``quadrature.integrate`` as seen from
``zonal_sphere_integral``).

Every call of a wrapped function is a span with a parent id, kept in memory
and written out on request.  A span's self time is its duration minus the
durations of its child spans, so time in private helpers counts toward the
nearest wrapped caller.

Work counts for ``integrate`` are computed from its arguments and result,
not read from inside it:

* ``panels`` = 3 * (kinks + 1) + 4 * splits: each of the kinks + 1 pieces
  costs one whole-panel and two half-panel Gauss evaluations, and every split
  costs four half-panel evaluations;
* ``evals`` = panels * base_nodes;
* ``useful_panel_ratio`` = panels whose values enter the returned sum (two
  halves per final heap entry, 2 * (kinks + 1 + splits)) over all panels;
* ``budget_exhausted`` = number of ``ConvergenceError`` raised, where splits
  equals the subdivision budget.

Series ``terms`` come from wrapping the ``specfun.gegenbauer_iter``
generator: every value it yields is one term, credited to the innermost
active span and to the generator's own total.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

# (module, function, stats): the per-layer metrics, named
# ``<module>.<function>.<stat>``.  ``calls`` and ``self_s`` come from spans,
# the integrate counts from its hook, ``terms`` from the generator wrapper,
# and ``out_bytes`` from the caller through :meth:`Tracer.count`.
TARGETS = (
    ("quadrature", "integrate", ("calls", "self_s", "splits", "splits_max", "panels", "evals",
                                 "useful_panel_ratio", "budget_exhausted")),
    ("quadrature", "zonal_sphere_integral", ("calls", "self_s")),
    ("harmonic", "radial_derivative", ("calls", "self_s")),
    ("harmonic", "zonal_poisson_value", ("calls", "self_s")),
    ("harmonic", "sharp_radial_sup", ("calls", "self_s")),
    ("harmonic", "probe_schwarz_pick", ("self_s",)),
    ("harmonic", "probe_conjecture", ("self_s",)),
    ("harmonic", "verify_theorem_b", ("self_s",)),
    ("phi", "phi_quad", ("calls", "self_s")),
    ("phi", "verify_monotone", ("self_s",)),
    ("phi", "phi_series", ("calls", "self_s", "terms")),
    ("phi", "phi_second_series", ("calls", "self_s", "terms")),
    ("specfun", "gegenbauer_iter", ("terms",)),
    ("specfun", "abs_kernel_coefficient", ("calls", "self_s")),
    ("specfun", "hyp2f1", ("calls", "self_s")),
    ("phi", "phi_second_closed", ("calls", "self_s")),
    ("phi", "phi_second_fd", ("calls", "self_s")),
    ("phi", "psi", ("calls", "self_s")),
    ("phi", "technical_gap", ("calls", "self_s")),
    ("phi", "verify_concavity", ("self_s",)),
    ("phi", "verify_technical", ("self_s",)),
    ("specfun", "verify_identities", ("self_s",)),
    ("bounds", "capital_c", ("calls", "self_s")),
    ("cli", "main", ("calls", "self_s", "out_bytes")),
    ("report", "merge_reports", ("calls", "self_s")),
)

# Wrapped as a generator, not as a span: its values are counted one by one.
GENERATORS = {"specfun.gegenbauer_iter"}

UNITS = {
    "calls": "count",
    "self_s": "s",
    "splits": "count",
    "splits_max": "count",
    "panels": "count_computed",
    "evals": "count_computed",
    "useful_panel_ratio": "ratio",
    "budget_exhausted": "count",
    "terms": "count",
    "out_bytes": "B",
}


class _Span:
    __slots__ = ("id", "parent", "name", "request", "start", "end", "child_s", "counts")

    def __init__(self, span_id, parent, name, request, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.request = request
        self.start = start
        self.end = None
        self.child_s = 0.0
        self.counts = {}

    def as_dict(self):
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "request": self.request,
            "start": self.start,
            "end": self.end,
            "self_s": self.end - self.start - self.child_s,
            **self.counts,
        }


class Tracer:
    """Wraps the :data:`TARGETS` of one imported ballgrad package.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original bindings.  ``request`` tags the spans of one CLI
    invocation with a shared identifier.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list[_Span] = []
        self.request = None
        self.absent: list[str] = []
        self._stack: list[_Span] = []
        self._totals: dict[str, dict[str, float]] = {}
        self._rebound: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__ + "."
        return [self.package] + [
            m for name, m in sorted(sys.modules.items()) if name.startswith(prefix) and m is not None
        ]

    def __enter__(self):
        modules = self._modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for mod_name, fn_name, _ in TARGETS:
            name = f"{mod_name}.{fn_name}"
            module = by_name.get(mod_name)
            original = getattr(module, fn_name, None) if module is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            if name in GENERATORS:
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap(name, original, self._hook_for(name, original))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._rebound.append((m, attr, original))
                        setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()
        return False

    # -- spans --------------------------------------------------------------

    def _total(self, name):
        return self._totals.setdefault(name, {})

    def count(self, name, stat, value):
        """Add ``value`` to the total of ``stat`` for the target ``name``."""
        totals = self._total(name)
        totals[stat] = totals.get(stat, 0) + value

    def _wrap(self, name, fn, hook):
        stack = self._stack
        spans = self.spans
        totals = self._total(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1].id if stack else None
            span = _Span(len(spans), parent, name, self.request, time.perf_counter())
            spans.append(span)
            stack.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                duration = span.end - span.start
                if stack:
                    stack[-1].child_s += duration
                totals["calls"] = totals.get("calls", 0) + 1
                totals["self_s"] = totals.get("self_s", 0.0) + duration - span.child_s
                if hook is not None:
                    hook(span, args, kwargs, result, exc)
                for stat, value in span.counts.items():
                    totals[stat] = totals.get(stat, 0) + value

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name, fn):
        stack = self._stack
        totals = self._total(name)

        def wrapper(*args, **kwargs):
            for value in fn(*args, **kwargs):
                totals["terms"] = totals.get("terms", 0) + 1
                if stack:
                    counts = stack[-1].counts
                    counts["terms"] = counts.get("terms", 0) + 1
                yield value

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook_for(self, name, fn):
        if name != "quadrature.integrate":
            return None
        quadrature = fn.__globals__
        default_spec = quadrature.get("DEFAULT_SPEC")
        convergence_error = quadrature.get("ConvergenceError", ())
        signature = inspect.signature(fn)
        totals = self._total(name)

        def integrate_counts(span, args, kwargs, result, exc):
            if exc is not None and not isinstance(exc, convergence_error):
                return
            spec = signature.bind(*args, **kwargs).arguments.get("spec") or default_spec
            if exc is None:
                splits = result.subdivisions_used
            else:
                splits = spec.max_subdivisions
                span.counts["budget_exhausted"] = 1
            pieces = len(spec.kinks) + 1
            panels = 3 * pieces + 4 * splits
            span.counts.update(
                splits=splits,
                panels=panels,
                evals=panels * spec.base_nodes,
                useful_panels=2 * (pieces + splits),
            )
            totals["splits_max"] = max(totals.get("splits_max", 0), splits)

        return integrate_counts

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as ``{name: {"value", "unit"}}``; targets that
        were absent at install time are left out, not reported as zero."""
        out = {}
        for mod_name, fn_name, stats in TARGETS:
            name = f"{mod_name}.{fn_name}"
            if name in self.absent:
                continue
            totals = self._totals.get(name, {})
            for stat in stats:
                if stat == "useful_panel_ratio":
                    panels = totals.get("panels", 0)
                    value = totals.get("useful_panels", 0) / panels if panels else 0.0
                elif stat == "self_s":
                    value = float(totals.get(stat, 0.0))
                else:
                    value = totals.get(stat, 0)
                out[f"{name}.{stat}"] = {"value": value, "unit": UNITS[stat]}
        return out

    def write_spans(self, path):
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")
