"""Run one rotalith benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dense-b32-n20k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the library is imported from
``src/``, never from an installed copy.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The full record (machine, checks, spans) goes to ``perfbench/out/``.
``--workload all`` runs every workload, each in a fresh process of its own,
and relays their output.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def prepare_env() -> int:
    """Pin the BLAS thread count to ``nproc`` and import the library from ``src/``.

    Must run before numpy is imported.  Returns the pinned thread count.
    Exits with code 2 when the checkout has no ``src/rotalith``.
    """
    if not (SRC / "rotalith" / "__init__.py").is_file():
        print(f"error: no rotalith sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))
    return threads


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(result: dict) -> None:
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print(f"workload {result['workload']}: {result['attempted']} operations, "
          f"{result['samples']} untraced timed clouds (closed loop, one caller)")
    for check in result["checks"]:
        bound = "information only" if check["bound"] is None else f"bound {check['bound']:.0e}"
        status = "" if check["bound"] is None else (" PASS" if check["pass"] else " FAIL")
        print(f"check {check['rotation']}: max per-point relative deviation "
              f"{check['max_rel_dev']:.3e} ({bound}){status}")
    for reason in result["failures"]:
        print(f"failure: {reason}")
    print(f"fail_frac {_fmt(result['fail_frac'])} fraction "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for name, (value, unit) in result["metrics"].items():
        note = ""
        if name == "cloud_latency_p50_s":
            note = f" (n={result['samples']})"
        elif unit in ("B", "flop") or name.endswith(".pairs"):
            note = " (computed from array shapes)"
        print(f"{name} {_fmt(value)} {unit}{note}")
    if result["latency_tail"] and "cloud_latency_p50_s" in result["metrics"]:
        pct, value = result["latency_tail"]
        print(f"cloud_latency_p{pct:.0f}_s {_fmt(value)} s (highest percentile with 10 samples beyond it)")
    for layer in result.get("absent", []):
        print(f"absent: {layer} (a wrap target or a counter's arguments changed; "
              "what could not be traced reads 0)")


def run_all(names, args) -> int:
    """Each workload in a fresh process of its own, one after another."""
    rc = 0
    for name in names:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)])
        rc = max(rc, proc.returncode)
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    threads = prepare_env()
    import bench  # noqa: E402  (after the BLAS pin and the path set-up)

    import_s = time.perf_counter() - T_START
    if args.workload == "all":
        return run_all(bench.WORKLOADS, args)
    if args.workload not in bench.WORKLOADS:
        ap.error(f"--workload must be 'all' or one of {', '.join(bench.WORKLOADS)}")
    result = bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), import_s, threads)
    report(result)

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
