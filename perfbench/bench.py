"""Workloads, measurement loop and output checks of the rotalith benchmark.

Import this module only after ``run.prepare_env`` has pinned the BLAS thread
count and put the checkout's ``src/`` first on ``sys.path``.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from rotalith.pipeline import (
    PrinConfig,
    SprinConfig,
    blob_cloud,
    init_weights,
    prin_forward,
    sprin_forward,
)

from tracer import COUNTERS, Tracer

POOL = 3  # distinct clouds per run; the closed loop cycles through them
SETUP_REPEATS = 3  # set-ups per untraced run; setup_s reports their median
GRID_Z_BOUND = 1e-10  # acceptance criterion 05, grid rotations
HAAR_BOUND = 1e-5  # acceptance criterion 08, sparse path under Haar rotations


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str  # "prin" or "sprin"
    n_points: int
    config: object

    def forward(self, cloud, weights):
        if self.pipeline == "prin":
            return prin_forward(cloud, weights, self.config)
        return sprin_forward(cloud, weights, self.config, seed=0)


WORKLOADS = {
    w.name: w
    for w in (
        # why each was chosen: BENCHMARK.json and perfbench/README.md
        Workload("dense-b32-n20k", "prin", 20_000, PrinConfig(bandwidth=32, xi=0.1)),
        Workload("dense-b8-n200k", "prin", 200_000, PrinConfig(bandwidth=8, xi=0.1)),
        Workload("sparse-n2048", "sprin", 2_048, SprinConfig()),
    )
}


# ---------------------------------------------------------------------------
# inputs and checks
# ---------------------------------------------------------------------------


def make_clouds(w: Workload, seed: int) -> list[np.ndarray]:
    cloud_seeds = np.random.default_rng(seed).integers(0, 2**31, size=POOL)
    return [blob_cloud(w.n_points, int(s)) for s in cloud_seeds]


def rot_z(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def haar_rotation(seed: int) -> np.ndarray:
    """A Haar-distributed rotation: QR of a Gaussian matrix with sign fixes."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def max_rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    """Largest per-point relative deviation ``|a_i - b_i| / |b_i|``."""
    num = np.linalg.norm(a - b, axis=-1)
    den = np.maximum(np.linalg.norm(b, axis=-1), 1e-30)
    return float((num / den).max())


def output_problem(w: Workload, out) -> str | None:
    """Why a forward result is malformed, or None when it is well formed."""
    per_point, global_feat = out
    if per_point.ndim != 2 or per_point.shape[0] != w.n_points:
        return f"per-point shape {per_point.shape} for {w.n_points} points"
    if global_feat.ndim != 1:
        return f"global feature shape {global_feat.shape}"
    if not (np.all(np.isfinite(per_point)) and np.all(np.isfinite(global_feat))):
        return "non-finite output"
    return None


def same_output(a, b) -> bool:
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


@dataclass
class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    def call(self, fn, *args):
        """Run one operation; an exception counts as a failure and yields None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # the loop must keep running; the failure is counted
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"operation {self.attempted} raised")
            return None

    def fail(self, reason: str) -> None:
        self.failures.append(reason)
        print(f"FAILED: {reason}", file=sys.stderr)


def check_timed(w: Workload, ledger: Ledger, refs: dict, idx: int, out) -> None:
    """Well-formed, and bitwise equal to the first result for the same cloud."""
    if out is None:
        return
    problem = output_problem(w, out)
    if problem:
        ledger.fail(f"cloud {idx}: {problem}")
    elif idx not in refs:
        refs[idx] = out
    elif not same_output(out, refs[idx]):
        ledger.fail(f"cloud {idx}: result differs from an earlier call on the same cloud")


def check_rotations(w: Workload, ledger: Ledger, weights, cloud, ref, seed: int) -> None:
    """Invariance checks on rotated copies of ``cloud``, outside the timed region.

    Dense path: a z-rotation by one grid step permutes voxels exactly, so
    per-point features must agree within criterion 05's grid bound; the Haar
    deviation is reported as information only (voxelizer sampling error).
    Sparse path: a Haar rotation must agree within criterion 08's bound.
    """
    if w.pipeline == "prin":
        cases = [("grid-z", rot_z(2.0 * np.pi / (2 * w.config.bandwidth)), GRID_Z_BOUND),
                 ("haar", haar_rotation(seed), None)]
    else:
        cases = [("haar", haar_rotation(seed), HAAR_BOUND)]
    for label, Q, bound in cases:
        out = ledger.call(w.forward, cloud @ Q.T, weights)
        if out is None:
            continue
        problem = output_problem(w, out)
        if problem:
            ledger.fail(f"{label} rotation: {problem}")
            continue
        dev = max_rel_dev(out[0], ref[0])
        ok = bound is None or dev <= bound
        ledger.checks.append({"rotation": label, "max_rel_dev": dev, "bound": bound, "pass": ok})
        if not ok:
            ledger.fail(f"{label} rotation: max relative deviation {dev:.3e} > {bound:.0e}")


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def clear_library_caches() -> None:
    """Empty every ``lru_cache`` in the library so a set-up starts cold."""
    for name, mod in list(sys.modules.items()):
        if name == "rotalith" or name.startswith("rotalith."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def set_up(w: Workload, seed: int, ledger: Ledger):
    """Weights, clouds and one warm call (fills the basis cache), timed."""
    clear_library_caches()
    t0 = time.perf_counter()
    weights = init_weights(w.config, seed)
    clouds = make_clouds(w, seed)
    out = ledger.call(w.forward, clouds[0], weights)
    return time.perf_counter() - t0, weights, clouds, out


def _closed_loop(w, ledger, weights, clouds, refs, seconds, tracer=None):
    """One caller: the next cloud is sent only after the previous returns.

    With a tracer, calls alternate untraced / traced.  Returns the untraced
    and traced latencies.
    """
    plain, traced = [], []
    t_end = time.perf_counter() + seconds
    i = 0
    while True:
        idx = i % len(clouds)
        use_trace = tracer is not None and i % 2 == 1
        t0 = time.perf_counter()
        if use_trace:
            out = ledger.call(tracer.run, w.forward, clouds[idx], weights)
        else:
            out = ledger.call(w.forward, clouds[idx], weights)
        dt = time.perf_counter() - t0
        (traced if use_trace else plain).append(dt)
        check_timed(w, ledger, refs, idx, out)
        i += 1
        if time.perf_counter() >= t_end and (tracer is None or traced):
            return plain, traced


def latency_tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest sample with ten samples beyond it.

    None when that would not lie above the median, which is then the
    highest percentile the run can report.
    """
    n = len(latencies)
    if n < 21:
        return None
    k = n - 11
    return 100.0 * (k + 1) / n, sorted(latencies)[k]


def run(w: Workload, seed: int, seconds: float, trace: bool, import_s: float, threads: int) -> dict:
    ledger = Ledger()
    refs: dict = {}
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        dt, weights, clouds, out = set_up(w, seed, ledger)
        setups.append(dt)
        check_timed(w, ledger, refs, 0, out)

    tracer = Tracer() if trace else None
    plain, traced = _closed_loop(w, ledger, weights, clouds, refs, seconds, tracer)
    if 0 in refs:
        check_rotations(w, ledger, weights, clouds[0], refs[0], seed)
    else:
        ledger.fail("no reference result for the rotation checks")

    failed = len(ledger.failures)
    result = {
        "workload": w.name,
        "machine": machine_info(seed, threads),
        "checks": ledger.checks,
        "failures": ledger.failures,
        "attempted": ledger.attempted,
        "failed": failed,
        "fail_frac": failed / max(ledger.attempted, 1),
        "samples": len(plain),
        "latencies_s": plain,
        "latency_tail": latency_tail(plain),
        "traced_latencies_s": traced,
    }
    if trace:
        summary = tracer.summary()
        summary["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        summary["trace.samples"] = len(traced)
        summary["trace.absent"] = len(tracer.absent)
        result["absent"] = sorted(tracer.absent)
        result["metrics"] = {k: (v, layer_unit(k)) for k, v in summary.items()}
        result["spans"] = tracer.spans
    else:
        result["metrics"] = {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "cloud_latency_p50_s": (statistics.median(plain), "s"),
            "points_per_s": (w.n_points * len(plain) / sum(plain), "points/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        result["setups_s"] = setups
    return result


def layer_unit(name: str) -> str:
    if name in COUNTERS:
        return COUNTERS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(".share"):
        return "fraction"
    return "count"


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def machine_info(seed: int, threads: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": threads,
        "seed": seed,
    }
