"""Self-test of the rotalith benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that the tracer is transparent (traced and untraced outputs are
bitwise equal), that every metric named in ``BENCHMARK.json`` appears for
each workload, that a missing wrap target is reported as absent instead of
crashing, that the correctness checks can fail, and that the runner refuses
to run without the library sources.  Exits 0 when all pass.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import run

run.prepare_env()

import bench  # noqa: E402
import tracer as tr  # noqa: E402
from rotalith.pipeline import PrinConfig, small_sprin_config  # noqa: E402

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
DENSE_LAYERS = ("voxelize", "so3.svc_spectral", "so3.adjoint", "so3.gamma_average",
                "harmonics.sh_analysis", "harmonics.sh_synthesis",
                "resample.trilinear_sample", "pipeline.head")
SPARSE_LAYERS = ("sprin.fps", "sprin.knn", "sprin.invariants", "sprin.mlp", "pipeline.head")


def tiny(w: bench.Workload) -> bench.Workload:
    if w.pipeline == "prin":
        return replace(w, n_points=400, config=PrinConfig(bandwidth=4, xi=0.3))
    return replace(w, n_points=96, config=small_sprin_config(k=8, m=16))


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAIL: {what}")
    print(f"ok   {what}")


def test_workload(w: bench.Workload) -> None:
    weights = bench.init_weights(w.config, 0)
    cloud = bench.make_clouds(w, 0)[0]
    plain = w.forward(cloud, weights)
    t = tr.Tracer()
    traced = t.run(w.forward, cloud, weights)
    check(bench.same_output(plain, traced), f"{w.name}: traced output is bitwise equal")
    calls = t.summary()
    ran = DENSE_LAYERS if w.pipeline == "prin" else SPARSE_LAYERS
    check(all(calls[f"{name}.calls"] > 0 for name in ran), f"{w.name}: every layer on its path ran")

    for trace, names in ((False, E2E), (True, PER_LAYER)):
        res = bench.run(w, seed=3, seconds=0.2, trace=trace, import_s=0.0, threads=1)
        check(res["failed"] == 0 and res["attempted"] > 0, f"{w.name} trace={int(trace)}: no failures")
        check(set(res["metrics"]) == names, f"{w.name} trace={int(trace)}: metric names match BENCHMARK.json")
        check(all(math.isfinite(v) for v, _ in res["metrics"].values()),
              f"{w.name} trace={int(trace)}: metric values are finite")


def test_untouched_after_trace() -> None:
    before = [tr._resolve(x)[2] for layer in tr.LAYERS for x in layer.targets]
    w = tiny(bench.WORKLOADS["sparse-n2048"])
    tr.Tracer().run(w.forward, bench.make_clouds(w, 1)[0], bench.init_weights(w.config, 1))
    after = [tr._resolve(x)[2] for layer in tr.LAYERS for x in layer.targets]
    check(all(a is b for a, b in zip(before, after)), "wrappers are removed after a traced call")


def test_absent_target() -> None:
    w = tiny(bench.WORKLOADS["dense-b32-n20k"])
    gone = tr.Layer("so3.deleted_layer", ("rotalith.so3:no_such_function",))
    bad_counter = tr.Layer("geometry.coords", ("rotalith.pipeline:cart_to_spherical",),
                           counter=lambda t, args, kwargs, out: args[7])
    t = tr.Tracer(layers=tr.LAYERS + (gone, bad_counter))
    weights = bench.init_weights(w.config, 0)
    cloud = bench.make_clouds(w, 0)[0]
    out = t.run(w.forward, cloud, weights)
    check(bench.same_output(out, w.forward(cloud, weights)), "absent target: output unchanged")
    summary = t.summary()
    check(t.absent == {"so3.deleted_layer", "geometry.coords counter"}
          and summary["so3.deleted_layer.calls"] == 0 and summary["geometry.coords.calls"] == 1,
          "absent target and failing counter: reported absent, run completes")


def test_checks_can_fail() -> None:
    w = tiny(bench.WORKLOADS["dense-b32-n20k"])
    weights = bench.init_weights(w.config, 0)
    cloud = bench.make_clouds(w, 0)[0]
    ref = w.forward(cloud, weights)
    ledger = bench.Ledger()
    bench.check_rotations(w, ledger, weights, cloud, (ref[0] * (1 + 1e-6), ref[1]), 0)
    check(len(ledger.failures) == 1, "grid-z check fails on a perturbed reference")
    bad = (ref[0].copy(), ref[1])
    bad[0][0, 0] = float("nan")
    check(bench.output_problem(w, bad) is not None, "a non-finite output is caught")
    ledger = bench.Ledger()
    refs = {0: ref}
    bench.check_timed(w, ledger, refs, 0, (ref[0].copy(), ref[1].copy()))
    bench.check_timed(w, ledger, refs, 0, (ref[0] * (1 + 2**-50), ref[1]))
    check(len(ledger.failures) == 1, "a result differing from an earlier call on the same cloud is caught")


def test_refuses_without_sources() -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "sparse-n2048",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          "runner exits non-zero without printing a result when src/ is missing")


def main() -> int:
    check(set(bench.WORKLOADS) == {w["name"] for w in SPEC["workloads"]},
          "workloads match BENCHMARK.json")
    for w in bench.WORKLOADS.values():
        test_workload(tiny(w))
    test_untouched_after_trace()
    test_absent_target()
    test_checks_can_fail()
    test_refuses_without_sources()
    print("selftest PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
