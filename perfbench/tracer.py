"""Outside-in tracer for contactmech: spans and counters without touching ``src/``.

A hook names a layer and a function by module and attribute.  On entry the
tracer wraps the function and replaces it *where callers look it up*: every
module-level name, and every entry of a module-level dict or list, in the
``contactmech`` package that holds the original object.  So
``diagnostics.hj_residual`` and ``cli.integrate`` are patched along with the
defining module, and a dispatch table added by a later refactor is patched
too.  Methods are patched on their class.  On exit every patched slot gets
its original object back.  A hook whose function no longer exists is recorded
as absent; its layer then reports zero calls.

Two kinds of hook:

* ``SPAN`` hooks record a span (layer, start, end, parent span, scenario id)
  in memory.  They wrap calls made tens to thousands of times per scenario.
* ``HOT`` hooks (expression and model evaluation, up to 10^5 calls per
  scenario) only count calls and add up their time, to keep the overhead low.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

SPAN, HOT = "span", "hot"
ROOT_LAYER = "scenario"


@dataclass(frozen=True)
class Hook:
    """A function to wrap: ``module.attr`` or ``module.Class.method``."""

    layer: str
    module: str
    attr: str
    kind: str = SPAN
    # (args, kwargs, result) -> (counter name, value), added up per layer
    count: Optional[Callable] = None


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _samples(args, kwargs, result):
    return "dynamics.integrate.samples", len(result)


def _points(args, kwargs, result):
    return "transforms.verify.points", len(_arg(args, kwargs, 1, "points"))


def _bytes(args, kwargs, result):
    return "cli.write.bytes", os.path.getsize(_arg(args, kwargs, 0, "path"))


_CHECKS = ("energy_conservation", "hamiltonian_decay", "divergence", "measure",
           "invariants", "hj_residual", "transform_verify")

CONTACTMECH_HOOKS: Tuple[Hook, ...] = (
    Hook("scenario.parse", "contactmech.scenario", "parse_scenario"),
    Hook("scenario.parse", "contactmech.scenario", "build_model"),
    Hook("expressions.eval", "contactmech.expressions", "Expression.__call__", HOT),
    Hook("expressions.eval", "contactmech.expressions", "Expression.derivative", HOT),
    Hook("model.partials", "contactmech.model", "HamiltonianModel.partials", HOT),
    Hook("model.evaluate", "contactmech.model", "HamiltonianModel.evaluate", HOT),
    Hook("dynamics.integrate", "contactmech.dynamics", "integrate", count=_samples),
    Hook("dynamics.det_series", "contactmech.dynamics", "jacobian_determinant_series"),
    *(Hook(f"diagnostics.{c}", "contactmech.diagnostics", f"check_{c}") for c in _CHECKS),
    Hook("oscillator.ermakov", "contactmech.oscillator", "solve_ermakov"),
    Hook("oscillator.riccati", "contactmech.oscillator", "solve_riccati"),
    Hook("hamilton_jacobi.hj_residual", "contactmech.hamilton_jacobi", "hj_residual"),
    Hook("transforms.verify", "contactmech.transforms", "verify", count=_points),
    Hook("cli.write", "contactmech.cli", "write_trajectory", count=_bytes),
    Hook("cli.write", "contactmech.cli", "write_report", count=_bytes),
    Hook("cli.write", "contactmech.cli", "write_plots"),
    Hook("cli.write", "contactmech.svgplot", "line_chart", count=_bytes),
)


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is not None and s <= cur_e:
            cur_e = max(cur_e, e)
            continue
        if cur_e is not None:
            total += cur_e - cur_s
        cur_s, cur_e = s, e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _resolve(hook: Hook):
    """(owner, name, original) or None when the module or attribute is gone."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    orig = getattr(owner, name, None)
    return None if orig is None else (owner, name, orig)


class Tracer:
    """Context manager that installs the hooks on entry and restores them on exit."""

    def __init__(self, hooks: Sequence[Hook] = CONTACTMECH_HOOKS,
                 package: str = "contactmech"):
        self.hooks = tuple(hooks)
        self.package = package
        # each span: [layer, start, end, parent index or -1, scenario id]
        self.spans: List[list] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.hot_time: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self.absent: List[str] = []
        self.patched = 0
        self.scenario_id = -1
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- installing and restoring -------------------------------------------

    def __enter__(self) -> "Tracer":
        self.absent, self.patched = [], 0   # re-entered once per scenario; spans accumulate
        try:
            for hook in self.hooks:
                self._install(hook)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self, hook: Hook) -> None:
        target = _resolve(hook)
        if target is None:
            self.absent.append(f"{hook.module}.{hook.attr}")
            return
        owner, name, orig = target
        wrapper = (self._hot if hook.kind == HOT else self._span)(hook, orig)
        if isinstance(owner, type):
            self._set_class_attr(owner, name, wrapper)
        else:
            self._replace_refs(orig, wrapper)

    def _set_class_attr(self, cls: type, name: str, wrapper) -> None:
        had = name in cls.__dict__
        orig = cls.__dict__.get(name)
        setattr(cls, name, wrapper)
        self.patched += 1
        self._undo.append(lambda: setattr(cls, name, orig) if had else delattr(cls, name))

    def _replace_refs(self, orig, wrapper) -> None:
        prefix = self.package + "."
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == self.package or modname.startswith(prefix)):
                continue
            namespace = vars(module)
            for key, val in list(namespace.items()):
                if val is orig:
                    self._swap(namespace, key, orig, wrapper)
                elif isinstance(val, dict):
                    for k2, v2 in list(val.items()):
                        if v2 is orig:
                            self._swap(val, k2, orig, wrapper)
                elif isinstance(val, list):
                    for k2, v2 in enumerate(val):
                        if v2 is orig:
                            self._swap(val, k2, orig, wrapper)

    def _swap(self, container, key, orig, wrapper) -> None:
        container[key] = wrapper
        self.patched += 1
        self._undo.append(lambda: container.__setitem__(key, orig))

    def _restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- wrappers -----------------------------------------------------------

    def _hot(self, hook: Hook, fn):
        calls, hot_time, layer = self.calls, self.hot_time, hook.layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                hot_time[layer] += perf_counter() - t0
                calls[layer] += 1
        return wrapper

    def _span(self, hook: Hook, fn):
        layer, count = hook.layer, hook.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            if count is not None:
                self._count(count, args, kwargs, result)
            return result
        return wrapper

    def _count(self, count, args, kwargs, result) -> None:
        try:
            name, value = count(args, kwargs, result)
        except (TypeError, KeyError, IndexError, OSError):
            return  # the signature changed; the counter is left out, not the run
        self.counters[name] += value

    def span(self, layer: str) -> "_Span":
        """Record a span of ``layer`` around a ``with`` block."""
        return _Span(self, layer)

    # -- aggregation --------------------------------------------------------

    def layer_time(self) -> Dict[str, float]:
        """Inclusive time per layer: span time not nested in the same layer, plus hot time."""
        out: Dict[str, float] = defaultdict(float, self.hot_time)
        spans = self.spans
        for sp in spans:
            parent = sp[3]
            while parent >= 0 and spans[parent][0] != sp[0]:
                parent = spans[parent][3]
            if parent < 0:
                out[sp[0]] += sp[2] - sp[1]
        return out

    def self_time(self) -> Dict[str, float]:
        """Per layer: each span's duration minus what its child spans cover."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for sp in self.spans:
            if sp[3] >= 0:
                children[sp[3]].append((sp[1], sp[2]))
        out: Dict[str, float] = defaultdict(float)
        for i, sp in enumerate(self.spans):
            out[sp[0]] += (sp[2] - sp[1]) - covered(sp[1], sp[2], children.get(i, ()))
        return out

    def write_spans(self, path: str) -> None:
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (layer, start, end, parent, scen) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": layer, "start": start, "end": end,
                                     "parent": parent, "scenario": scen}) + "\n")


class _Span:
    __slots__ = ("tracer", "layer", "index")

    def __init__(self, tracer: Tracer, layer: str):
        self.tracer, self.layer = tracer, layer

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append([self.layer, perf_counter(), 0.0,
                         tr._stack[-1] if tr._stack else -1, tr.scenario_id])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = perf_counter()
        tr._stack.pop()
        tr.calls[self.layer] += 1
