"""Spans around the public functions of every mackeykit layer, from outside.

The tracer replaces each public function and method of the layer
modules with a wrapper that records one span (name, parent, start, end)
per call, plus the sizes some calls carry (matrix shapes, entry bit
lengths, generator counts).  Spans stay in memory; `metrics()` turns
them into the per-layer metrics named in BENCHMARK.json.

Modules import functions by name (`from .intmat import
smith_normal_form`), so `install()` rebinds every module attribute that
holds an original, not only the defining module's.  Per-element
primitives are left alone: they run millions of times per workload and
their wrappers would cost more than the work they time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("intmat", "abgroups", "groups", "gsets", "burnside", "mackey",
          "convolution", "homalg", "ktheory", "jsonio", "cli")

# Called per element or per matrix entry; see the module docstring.
PRIMITIVES = {
    "groups.FiniteGroup.mul", "groups.FiniteGroup.inv",
    "groups.FiniteGroup.conj", "groups.FiniteGroup.elements",
    "gsets.GSet.act", "gsets.ProductData.of_pair",
}


def _is_lru(obj):
    return callable(obj) and hasattr(obj, "cache_info") and \
        hasattr(obj, "__wrapped__")


def _defined_in(fn, module):
    fn = getattr(fn, "__wrapped__", fn)
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == module.__file__


def targets():
    """(span name, owner, attribute, original) for every wrapped callable.

    The owner is the defining module for functions and the class for
    methods; classmethods and staticmethods are returned as descriptors.
    """
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"mackeykit.{layer}")
        for attr, obj in vars(module).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) or _is_lru(obj):
                if _defined_in(obj, module):
                    out.append((f"{layer}.{attr}", module, attr, obj))
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for name, member in vars(obj).items():
                    if name.startswith("_") and name != "__init__":
                        continue
                    fn = member.__func__ if isinstance(
                        member, (classmethod, staticmethod)) else member
                    if not inspect.isfunction(fn) or \
                            not _defined_in(fn, module):
                        continue
                    span = f"{layer}.{attr}.{name}"
                    if span not in PRIMITIVES:
                        out.append((span, obj, name, member))
    return out


def _bits(mat):
    """Bit length of the largest absolute entry of an integer matrix."""
    if mat is None or getattr(mat, "size", 0) == 0:
        return 0
    return max(abs(int(mat.max())), abs(int(mat.min()))).bit_length()


def _total_gens(functor):
    return sum(level.generator_count for level in functor.levels)


class Sizes:
    """Counts and sizes gathered from the arguments and results of calls."""

    def __init__(self):
        self.values = defaultdict(int)

    def add(self, key, n):
        self.values[key] += n

    def high(self, key, n):
        self.values[key] = max(self.values[key], n)

    def snf(self, args, kwargs, result):
        m, n = result[1].shape
        A = np.asarray(args[0], dtype=object).reshape(m, n)
        self.add("intmat.snf.cells", m * n)
        self.high("intmat.snf.max_dim", max(m, n))
        if np.count_nonzero(A) == np.count_nonzero(np.diagonal(A)):
            self.add("intmat.snf.already_diagonal", 1)
        self.high("intmat.snf.max_bits",
                  max([_bits(A)] + [_bits(x) for x in result]))

    def hnf(self, args, kwargs, result):
        self.high("intmat.hnf.max_bits",
                  max(_bits(np.asarray(args[0], dtype=object)), _bits(result)))

    def fpag(self, args, kwargs, result):
        group = args[0]
        if group.relations.shape[0] == 0:
            self.add("abgroups.fpag.relator_free", 1)
        self.high("abgroups.fpag.max_gens", group.generator_count)
        self.high("abgroups.fpag.max_rels", group.relations.shape[0])

    def compose(self, args, kwargs, result):
        s2, s1 = args[0], args[1]
        self.add("burnside.compose.code_pairs", len(s1.coeffs) * len(s2.coeffs))

    def box(self, args, kwargs, result):
        gens = _total_gens(result.functor)
        self.add("convolution.box.gens", gens)
        self.high("convolution.box.max_gens", gens)
        self.add("convolution.box.rels", sum(
            level.relations.shape[0] for level in result.functor.levels))

    def free_module(self, args, kwargs, result):
        self.add("homalg.free_module.gens", _total_gens(result.underlying))

    def resolution(self, args, kwargs, result):
        for p, F in enumerate(result.modules[:2]):
            self.add(f"homalg.resolution.gens_p{p}", _total_gens(F.underlying))


PROBES = {
    "intmat.smith_normal_form": Sizes.snf,
    "intmat.hermite_normal_form": Sizes.hnf,
    "abgroups.FinPresAbGroup.__init__": Sizes.fpag,
    "burnside.compose": Sizes.compose,
    "convolution.box": Sizes.box,
    "homalg.free_module": Sizes.free_module,
    "homalg.module_resolution": Sizes.resolution,
}

PROBE_ID = 0


class Tracer:
    """Spans in four parallel arrays, indexed by call order."""

    def __init__(self):
        self.names = ["trace.probe"]    # span name per name id
        self.name_ids = array("i")
        self.parents = array("i")       # index of the enclosing span, or -1
        self.starts = array("d")
        self.ends = array("d")
        self.raised = defaultdict(int)  # name id -> calls that raised
        self.sizes = Sizes()
        self._stack = [-1]
        self._restore = []

    def _open(self, name_id):
        index = len(self.name_ids)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        return index

    def _wrapper(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack, raised, starts, ends = \
            self._stack, self.raised, self.starts, self.ends
        open_span = self._open
        probe = PROBES.get(name)
        sizes = self.sizes
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = open_span(name_id)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[name_id] += 1
                raise
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()
            if probe is not None:
                # a span of its own, so the caller's self time excludes it
                index = open_span(PROBE_ID)
                starts[index] = clock()
                probe(sizes, args, kwargs, result)
                ends[index] = clock()
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self, extra_modules=()):
        """Wrap every target and rebind every module attribute that held it.

        `extra_modules` are modules outside mackeykit (the benchmark's own)
        that imported library functions by name.
        """
        replaced = {}
        for name, owner, attr, original in targets():
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(self._wrapper(name,
                                                       original.__func__))
            else:
                wrapped = self._wrapper(name, original)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, original))
            if not inspect.isclass(owner):
                replaced[id(original)] = (original, wrapped)
        modules = [m for n, m in sys.modules.items()
                   if n == "mackeykit" or n.startswith("mackeykit.")]
        for module in modules + list(extra_modules):
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, obj))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def metrics(self):
        own = self_times(self.parents, self.starts, self.ends)
        return layer_metrics([self.names[i] for i in self.name_ids], own,
                             {self.names[i]: n for i, n in self.raised.items()},
                             self.sizes.values)


def self_times(parents, starts, ends):
    """Self time per span: its duration minus the time its children cover.

    Span i runs from starts[i] to ends[i] inside span parents[i] (-1 for a
    root).  Children are clipped to their parent, and children that
    overlap or touch are merged, before their cover is subtracted.
    """
    n = len(parents)
    covered = [0.0] * n
    run_start = [0.0] * n
    run_end = [None] * n
    for i in sorted(range(n), key=starts.__getitem__):
        p = parents[i]
        if p < 0:
            continue
        s, e = max(starts[i], starts[p]), min(ends[i], ends[p])
        if e <= s:
            continue
        if run_end[p] is not None and s <= run_end[p]:
            run_end[p] = max(run_end[p], e)
            continue
        if run_end[p] is not None:
            covered[p] += run_end[p] - run_start[p]
        run_start[p], run_end[p] = s, e
    for p in range(n):
        if run_end[p] is not None:
            covered[p] += run_end[p] - run_start[p]
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


# Metric name -> the span names it sums over.
GROUPS = {
    "intmat.snf": ["intmat.smith_normal_form"],
    "intmat.hnf": ["intmat.hermite_normal_form"],
    "intmat.solve": ["intmat.solve", "intmat.Solver.__init__",
                     "intmat.Solver.solve", "intmat.hnf_solve"],
    "abgroups.fpag": ["abgroups.FinPresAbGroup.__init__"],
    "abgroups.normal_form": ["abgroups.FinPresAbGroup.normal_form"],
    "groups.left_cosets": ["groups.FiniteGroup.left_cosets"],
    "gsets.gset": ["gsets.GSet.__init__"],
    "gsets.product": ["gsets.product"],
    "gsets.pullback": ["gsets.pullback"],
    "gsets.canonicalize": ["gsets.canonicalize"],
    "burnside.compose": ["burnside.compose"],
    "burnside.tensor": ["burnside.tensor"],
    "burnside.hom_basis": ["burnside.hom_basis"],
    "mackey.eval_span": ["mackey.MackeyFunctor.eval_span"],
    "mackey.validate": ["mackey.MackeyFunctor.validate_functoriality"],
    "mackey.functor": ["mackey.MackeyFunctor.__init__"],
    "mackey.compose_morphisms": ["mackey.compose_morphisms"],
    "mackey.hom_solve": ["mackey.NatSolver.solve"],
    "convolution.box": ["convolution.box"],
    "convolution.box_map": ["convolution.box_map"],
    "convolution.validate_green": ["convolution.validate_green"],
    "convolution.box_assoc_iso": ["convolution.box_assoc_iso"],
    "homalg.free_module": ["homalg.free_module"],
    "homalg.module_cover": ["homalg.module_cover"],
    "homalg.rel_box": ["homalg.rel_box"],
    "homalg.ss_pages": ["homalg.ss_pages"],
    "ktheory.k0_green": ["ktheory.k0_green"],
    "ktheory.bpq_verify": ["ktheory.bpq_verify"],
    "jsonio.mackey_from_json": ["jsonio.mackey_from_json"],
    "cli.main": ["cli.main"],
}

# The per-layer metrics, in BENCHMARK.json order (trace.overhead_ratio is
# added by the parent, which has both the traced and the untraced wall).
METRICS = (
    ["intmat.self_s"]
    + [f"intmat.snf.{k}" for k in ("calls", "self_s", "cells", "max_dim",
                                   "max_bits", "already_diagonal")]
    + ["intmat.hnf.calls", "intmat.hnf.self_s", "intmat.hnf.max_bits",
       "intmat.solve.calls", "intmat.solve.self_s"]
    + ["abgroups.self_s", "abgroups.fpag.constructed", "abgroups.fpag.self_s",
       "abgroups.fpag.relator_free", "abgroups.fpag.max_gens",
       "abgroups.fpag.max_rels",
       "abgroups.normal_form.calls", "abgroups.normal_form.self_s"]
    + ["groups.self_s", "groups.left_cosets.calls",
       "groups.left_cosets.self_s"]
    + ["gsets.self_s", "gsets.gset.constructed", "gsets.gset.self_s",
       "gsets.product.calls", "gsets.pullback.calls",
       "gsets.canonicalize.calls", "gsets.canonicalize.self_s"]
    + ["burnside.self_s", "burnside.compose.calls", "burnside.compose.self_s",
       "burnside.compose.code_pairs", "burnside.compose.pullback_ratio",
       "burnside.tensor.calls", "burnside.hom_basis.calls",
       "burnside.hom_basis.self_s"]
    + ["mackey.self_s", "mackey.eval_span.calls", "mackey.eval_span.self_s",
       "mackey.validate.calls", "mackey.validate.self_s",
       "mackey.validate.rejects", "mackey.functor.constructed",
       "mackey.functor.self_s", "mackey.compose_morphisms.calls",
       "mackey.compose_morphisms.self_s", "mackey.hom_solve.self_s"]
    + ["convolution.self_s", "convolution.box.calls", "convolution.box.self_s",
       "convolution.box.gens", "convolution.box.max_gens",
       "convolution.box.rels",
       "convolution.box_map.self_s", "convolution.validate_green.calls",
       "convolution.validate_green.self_s",
       "convolution.validate_green.rejects",
       "convolution.box_assoc_iso.self_s"]
    + ["homalg.self_s", "homalg.free_module.calls",
       "homalg.free_module.self_s", "homalg.free_module.gens",
       "homalg.resolution.gens_p0", "homalg.resolution.gens_p1",
       "homalg.module_cover.self_s", "homalg.rel_box.calls",
       "homalg.rel_box.self_s", "homalg.ss_pages.self_s"]
    + ["ktheory.self_s", "ktheory.k0_green.self_s",
       "ktheory.bpq_verify.self_s"]
    + ["jsonio.self_s", "jsonio.mackey_from_json.calls", "cli.self_s",
       "cli.main.calls"]
)

# Metrics that are not a call count, a self time or a recorded size.
RENAMED = {"constructed": "calls", "rejects": "raised"}


def layer_metrics(span_names, own, raised, sizes):
    """Every name in METRICS from one traced run.

    `span_names` and `own` give each span's name and self time, `raised`
    the calls per name that raised, `sizes` the values the probes took.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for name, seconds in zip(span_names, own):
        calls[name] += 1
        self_s[name] += seconds

    out = {}
    for metric in METRICS:
        group, _, field = metric.rpartition(".")
        field = RENAMED.get(field, field)
        if metric in sizes:
            out[metric] = sizes[metric]
        elif "." not in group:                      # <layer>.self_s
            out[metric] = sum(v for k, v in self_s.items()
                              if k.split(".", 1)[0] == group)
        elif field == "calls":
            out[metric] = sum(calls[k] for k in GROUPS[group])
        elif field == "self_s":
            out[metric] = sum(self_s[k] for k in GROUPS[group])
        elif field == "raised":
            out[metric] = sum(raised.get(k, 0) for k in GROUPS[group])
        else:
            out[metric] = 0
    pairs = out["burnside.compose.code_pairs"]
    out["burnside.compose.pullback_ratio"] = \
        out["gsets.pullback.calls"] / pairs if pairs else 0.0
    return out
