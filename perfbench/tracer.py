"""Out-of-library span tracer for the rotalith benchmark.

Layers are timed by rebinding names in the library's modules (and the
``MlpFilter.apply`` class attribute) to thin wrappers while a traced call
runs, then restoring the originals.  Nothing in ``src/`` is edited, and the
untimed code path never sees a wrapper.

Each wrapper records a span ``[name, start, end, parent, cloud]`` in memory.
A layer's self time is its span time minus the time of its direct child
spans; spans of one thread nest, so the children never overlap.  Counters
computed from array shapes ride on the same wrappers.

A wrap target that no longer exists (a later refactor deleted or renamed it)
is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


def _arg(args, kwargs, pos: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _nbytes(obj) -> int:
    """Bytes of an array, or of the ``.data`` array of a grid-like result."""
    for cand in (obj, getattr(obj, "data", None)):
        if hasattr(cand, "nbytes"):
            return int(cand.nbytes)
    return 0


def _rows(arr) -> int:
    """Product of all but the last axis: the number of vectors in ``arr``."""
    return math.prod(arr.shape[:-1]) if getattr(arr, "ndim", 0) >= 1 else 0


# Counters take (tracer, args, kwargs, result).  All are computed from array
# shapes, not measured.


def _count_act_bytes(tr, args, kwargs, out):
    tr.peak("so3.act_bytes", _nbytes(out))


def _count_basis_bytes(tr, args, kwargs, out):
    tr.peak("harmonics.basis_bytes", _nbytes(out))


def _count_knn(tr, args, kwargs, out):
    src = _arg(args, kwargs, 0, "source_points")
    centers = _arg(args, kwargs, 2, "center_pos")
    pairs = len(src) * len(centers)
    tr.add("sprin.knn.pairs", pairs)
    tr.peak("sprin.knn.bytes", pairs * 3 * 8)  # centers x N x 3 float64 differences


def _count_invariant_pairs(tr, args, kwargs, out):
    tr.add("sprin.invariants.pairs", _rows(_arg(args, kwargs, 0, "nbr_pos")))


def _count_mlp_flops(tr, args, kwargs, out):
    filt, x = args[0], _arg(args, kwargs, 1, "x")
    macs = sum(W.size for W, _ in getattr(filt, "layers", ()))
    tr.add("sprin.mlp.flops", 2 * _rows(x) * macs)


@dataclass(frozen=True)
class Layer:
    """A traced layer: span name, wrap targets and an optional counter.

    A target is ``"module:attr"`` or ``"module:Class.attr"``.  A layer with
    ``span=False`` only feeds its counter and adds no span.
    """

    name: str
    targets: tuple[str, ...]
    counter: Callable | None = None
    span: bool = True


LAYERS: tuple[Layer, ...] = (
    Layer("voxelize", ("rotalith.pipeline:voxelize",)),
    Layer("so3.svc_spectral", ("rotalith.pipeline:svc_spectral",), _count_act_bytes),
    Layer("so3.adjoint", ("rotalith.so3:adjoint",)),
    Layer("so3.gamma_average", ("rotalith.so3:gamma_average",)),
    Layer("harmonics.sh_analysis", ("rotalith.harmonics:sh_analysis",)),
    Layer("harmonics.sh_synthesis", ("rotalith.harmonics:sh_synthesis",)),
    Layer("resample.trilinear_sample", ("rotalith.pipeline:trilinear_sample",)),
    Layer("pipeline.head", ("rotalith.pipeline:_head_apply",)),
    Layer("sprin.fps", ("rotalith.pipeline:farthest_point_sampling",)),
    Layer(
        "sprin.knn",
        ("rotalith.pipeline:correlate_at", "rotalith.sprin:correlate_at"),
        _count_knn,
    ),
    Layer("sprin.invariants", ("rotalith.sprin:_pair_features",), _count_invariant_pairs),
    Layer("sprin.mlp", ("rotalith.sprin:MlpFilter.apply",), _count_mlp_flops),
    Layer("harmonics.grid_basis", ("rotalith.harmonics:grid_basis",), _count_basis_bytes, span=False),
)

# counter name -> unit
COUNTERS = {
    "so3.act_bytes": "B",
    "harmonics.basis_bytes": "B",
    "sprin.knn.pairs": "count",
    "sprin.knn.bytes": "B",
    "sprin.invariants.pairs": "count",
    "sprin.mlp.flops": "flop",
}

ROOT = "forward"


def _resolve(target: str):
    """``"mod:Cls.attr"`` -> (owner object, attribute name, current value)."""
    mod_name, path = target.split(":")
    owner = importlib.import_module(mod_name)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr, getattr(owner, attr)


@dataclass
class Tracer:
    layers: tuple[Layer, ...] = LAYERS
    spans: list = field(default_factory=list)
    clouds: list = field(default_factory=list)  # per traced cloud: counter dict
    absent: set = field(default_factory=set)  # layers or counters that could not be traced
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    # -- counters -------------------------------------------------------
    def add(self, name: str, value: float) -> None:
        self.clouds[-1][name] = self.clouds[-1].get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.clouds[-1][name] = max(self.clouds[-1].get(name, 0), value)

    # -- wrapping -------------------------------------------------------
    def _wrap(self, fn, layer: Layer):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer.span:
                sid = len(spans)
                spans.append([layer.name, time.perf_counter(), 0.0, stack[-1], len(self.clouds) - 1])
                stack.append(sid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[sid][2] = time.perf_counter()
            else:
                out = fn(*args, **kwargs)
            if layer.counter is not None:
                try:
                    layer.counter(self, args, kwargs, out)
                except (TypeError, AttributeError, IndexError):
                    # the wrapped function's arguments changed; lose the count, not the run
                    self.absent.add(f"{layer.name} counter")
            return out

        return wrapper

    def install(self) -> None:
        """Rebind every wrap target; missing targets are recorded as absent."""
        if self._saved:
            raise RuntimeError("tracer wrappers are already installed")
        for layer in self.layers:
            for target in layer.targets:
                try:
                    owner, attr, fn = _resolve(target)
                except (ImportError, AttributeError, ValueError):
                    self.absent.add(layer.name)
                    continue
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, layer))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def run(self, fn, *args, **kwargs):
        """One traced call under a root span; wrappers live only during it."""
        self.clouds.append({})
        self.install()
        try:
            sid = len(self.spans)
            self.spans.append([ROOT, time.perf_counter(), 0.0, None, len(self.clouds) - 1])
            self._stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[sid][2] = time.perf_counter()
        finally:
            self.uninstall()

    # -- summary --------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """Per-cloud means of self time, calls and counters, and self-time shares."""
        n = max(len(self.clouds), 1)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_s = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        for sid, (name, t0, t1, _, _) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - child_s[sid]
            calls[name] += 1
        total = sum(t1 - t0 for name, t0, t1, _, _ in self.spans if name == ROOT)
        out: dict[str, float] = {}
        for name in [layer.name for layer in self.layers if layer.span] + ["other"]:
            key = ROOT if name == "other" else name
            out[f"{name}.self_s"] = self_s[key] / n
            out[f"{name}.share"] = self_s[key] / total if total > 0 else 0.0
            if name != "other":
                out[f"{name}.calls"] = calls[key] / n
        for cname in COUNTERS:
            out[cname] = sum(c.get(cname, 0) for c in self.clouds) / n
        return out
