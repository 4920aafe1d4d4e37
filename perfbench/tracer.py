"""Span tracer that wraps the package's public callables from outside.

Every public function of each ``yangbaxter`` module, and the public and
arithmetic methods of each class it defines, is replaced by a wrapper
that opens a span on entry and closes it on exit.  Aliases bound by
``from .x import y`` in other modules are replaced too, so a call made
through ``verify.build_r_ts`` is seen like one made through
``builders.build_r_ts``.  Nothing under ``src/`` is modified: the
wrappers live only in the traced worker process.

Spans nest on one stack (the package is single-threaded).  A live span
is its name, its start time and the time covered by its children; its
parent is the span below it.  When it closes, its duration and its self
time (duration minus child spans) are added to per-name totals, and its
inclusive time to ``busy`` when no span of the same name, or of the same
module, is already open (so recursion is not counted twice).  Spans are
aggregated as they close rather than stored, because the scalar layer
opens millions of them per run.
"""

from __future__ import annotations

import functools
import time

# ``map_scalars`` is the loop of ``evaluate`` and ``substitute``; left
# unwrapped, its time counts as theirs (or as its other caller's).
SKIP = frozenset(("map_scalars",))

MODULES = ("scalars", "tensors", "series", "builders", "triples", "verify", "cli")
# The layers that do the arithmetic and build the inputs.  The self time of
# the other two, ``verify`` and ``cli``, is orchestration plus whatever runs
# in code the tracer does not wrap (private helpers such as
# ``cli._structure_reports``), so only these count toward ``trace.coverage``.
WORK_LAYERS = ("scalars", "tensors", "series", "builders", "triples")

# Dunder methods that carry arithmetic or construction work.  Truth tests,
# hashing and printing are left alone: they are cheap and so frequent that
# wrapping them would mostly measure the tracer.
DUNDERS = frozenset((
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__neg__", "__truediv__", "__rtruediv__", "__pow__", "__eq__",
))


_ONE_TERMS = {(0, 0, 0, 0): 1}


class Stat:
    """Totals of one span name, or of one module."""

    __slots__ = ("calls", "self_s", "busy_s", "open", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.busy_s = 0.0
        self.open = 0
        self.extra = {}


def _ratfunc_add_hook(stat, args, result):
    a, b = args[0], args[1]
    # a non-RatFunc operand is promoted with denominator 1
    b_den = b.den.terms if hasattr(b, "den") else _ONE_TERMS
    if a.den.terms != b_den:
        stat.extra["cross"] = stat.extra.get("cross", 0) + 1


def _laurent_mul_hook(stat, args, result):
    a, b = args[0], args[1]
    if type(b) is type(a):
        extra = stat.extra
        extra["term_products"] = extra.get("term_products", 0) + len(a.terms) * len(b.terms)
        extra["out_terms"] = extra.get("out_terms", 0) + len(result.terms)


def _tensor_mul_hook(stat, args, result):
    stat.extra["out_nnz"] = stat.extra.get("out_nnz", 0) + len(result.coeffs)


# Counters that need the arguments or the result, keyed by span name.
HOOKS = {
    "scalars.RatFunc.__add__": _ratfunc_add_hook,
    "scalars.LaurentPoly.__mul__": _laurent_mul_hook,
    "tensors.Tensor2.mul": _tensor_mul_hook,
    "tensors.Tensor3.mul": _tensor_mul_hook,
}


class Tracer:
    """Installs span wrappers on the package and accumulates their totals."""

    def __init__(self):
        self.stats = {}
        self.module_stats = {name: Stat() for name in MODULES}
        # child-time accumulators of the open spans; index 0 is the root
        self.frames = [0.0]

    def _wrap(self, fn, name, module):
        stat = self.stats.setdefault(name, Stat())
        mod = self.module_stats[module]
        hook = HOOKS.get(name)
        frames = self.frames
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frames.append(0.0)
            stat.open += 1
            mod.open += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = frames.pop()
                frames[-1] += duration
                stat.calls += 1
                stat.self_s += duration - child
                stat.open -= 1
                if not stat.open:
                    stat.busy_s += duration
                mod.calls += 1
                mod.self_s += duration - child
                mod.open -= 1
                if not mod.open:
                    mod.busy_s += duration
            if hook is not None:
                hook(stat, args, result)
            return result

        return span

    def install(self, package):
        """Wrap every public callable of ``package``'s traced modules."""
        modules = {name: getattr(package, name) for name in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._install_class(obj, short, wrapped)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    wrapped[id(obj)] = self._wrap(obj, f"{short}.{attr}", short)
                    setattr(mod, attr, wrapped[id(obj)])
        # rebind aliases made by ``from .x import y`` (and the package root)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if callable(obj) and id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

    def _install_class(self, cls, short, wrapped):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS or attr in SKIP:
                continue
            kind = None
            if isinstance(member, (classmethod, staticmethod)):
                kind, fn = type(member), member.__func__
            elif callable(member) and not isinstance(member, type):
                fn = member
            else:
                continue
            if id(fn) not in wrapped:
                # __radd__ = __add__ shares one function, hence one span name
                wrapped[id(fn)] = self._wrap(fn, f"{short}.{cls.__name__}.{fn.__name__}", short)
            new = wrapped[id(fn)]
            setattr(cls, attr, kind(new) if kind else new)

    def stat(self, name):
        return self.stats.get(name) or Stat()

    def span_count(self):
        return sum(s.calls for s in self.stats.values())


# Per-layer metric groups: metric prefix -> span names whose totals it sums.
GROUPS = {
    "scalars.ratfunc_add": ("scalars.RatFunc.__add__",),
    "scalars.ratfunc_new": ("scalars.RatFunc.__init__",),
    "scalars.ratfunc_mul": ("scalars.RatFunc.__mul__",),
    "scalars.laurent_mul": ("scalars.LaurentPoly.__mul__",),
    "scalars.evaluate": ("scalars.LaurentPoly.evaluate", "scalars.RatFunc.evaluate"),
    "tensors.mul": ("tensors.Tensor2.mul", "tensors.Tensor3.mul"),
    "tensors.embed": ("tensors.Tensor2.embed",),
    "tensors.add": tuple(
        f"tensors.{cls}.{op}"
        for cls in ("Tensor2", "Tensor3")
        for op in ("__add__", "__sub__", "__neg__")
    ),
    "tensors.substitute": ("tensors.Tensor2.substitute",),
    "tensors.evaluate": ("tensors.Tensor2.evaluate",),
    "tensors.max_abs": ("tensors.Tensor2.max_abs", "tensors.Tensor3.max_abs"),
    "series.expand_in_u": ("series.expand_in_u",),
    "verify.cybe_spectral": ("verify.cybe_spectral_residual",),
    "verify.aybe": ("verify.aybe_residual",),
    "verify.qybe": ("verify.qybe_residual",),
    "verify.hecke": ("verify.hecke_residual",),
    "verify.check_lift": ("verify.check_lift",),
    "verify.lift_obstruction": ("verify.lift_obstruction",),
    "verify.numeric_residual": ("verify.numeric_residual",),
}
BUILDERS = ("build_r_ts", "hat_r", "build_R_ggs_assoc", "build_R_ggs_general", "build_r_uv", "baxterize")
for _name in BUILDERS:
    GROUPS[f"builders.{_name}"] = (f"builders.{_name}",)

# Which totals each group reports, with its unit.
FIELDS = {
    "scalars.ratfunc_add": ("calls", "cross", "self_s"),
    "scalars.ratfunc_new": ("calls", "self_s"),
    "scalars.ratfunc_mul": ("calls", "self_s"),
    "scalars.laurent_mul": ("calls", "term_products", "fill", "self_s"),
    "scalars.evaluate": ("calls", "self_s"),
    "tensors.mul": ("calls", "out_nnz", "self_s"),
    "tensors.embed": ("calls", "self_s"),
    "tensors.add": ("calls", "self_s"),
    "tensors.substitute": ("self_s",),
    "tensors.evaluate": ("self_s",),
    "tensors.max_abs": ("self_s",),
    "series.expand_in_u": ("calls", "busy_s"),
    **{f"verify.{v}": ("busy_s",) for v in (
        "cybe_spectral", "aybe", "qybe", "hecke", "check_lift",
        "lift_obstruction", "numeric_residual",
    )},
    **{f"builders.{b}": ("calls", "busy_s") for b in BUILDERS},
}
UNITS = {"calls": "count", "cross": "count", "term_products": "count",
         "out_nnz": "count", "fill": "ratio", "self_s": "s", "busy_s": "s"}


def layer_metrics(tracer, wall):
    """The per-layer table of one traced call, as {name: [value, unit]}.

    ``wall`` is the traced call's wall time, measured around the root span.
    ``trace.coverage`` is the share of it spent in the work layers' own
    code, so it drops when time hides in unwrapped code or in orchestration.
    """
    out = {}
    for group, names in GROUPS.items():
        stats = [tracer.stat(name) for name in names]
        totals = {
            "calls": sum(s.calls for s in stats),
            "self_s": sum(s.self_s for s in stats),
            "busy_s": sum(s.busy_s for s in stats),
        }
        for s in stats:
            for key, value in s.extra.items():
                totals[key] = totals.get(key, 0) + value
        products = totals.get("term_products", 0)
        totals["fill"] = totals.get("out_terms", 0) / products if products else 0.0
        for field in FIELDS[group]:
            out[f"{group}.{field}"] = [totals.get(field, 0), UNITS[field]]
    mods = tracer.module_stats
    out["scalars.self_s"] = [mods["scalars"].self_s, "s"]
    out["tensors.self_s"] = [mods["tensors"].self_s, "s"]
    for layer in ("builders", "triples"):
        out[f"{layer}.calls"] = [mods[layer].calls, "count"]
        out[f"{layer}.busy_s"] = [mods[layer].busy_s, "s"]
    out["cli.self_s"] = [mods["cli"].self_s, "s"]
    out["trace.coverage"] = [sum(mods[m].self_s for m in WORK_LAYERS) / wall, "ratio"]
    out["trace.spans"] = [tracer.span_count(), "count"]
    return out
