"""Operator-facing command surface: deterministic, CSV-emitting subcommands.

Exit codes: 0 success, 1 usage error, 2 input/format error (also an input
that needs more memory than numpy can allocate), 3 numeric failure.
Identical command and seed produce byte-identical standard output (bench
reports wall times and is the one exception).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import __version__
from .errors import InputFormatError, NumericError
from .io import read_archive, read_cloud, read_labels, write_archive
from .pipeline import (
    PIPELINES,
    PrinConfig,
    SprinConfig,
    Descriptor,
    equivariance_trial,
    forward,
    init_weights,
    match_descriptors,
    toy_protocol,
)
from .so3 import SphericalFilter, svc_bruteforce, svc_spectral
from .sprin import dilated_knn, farthest_point_sampling
from .voxelize import MODES, SamplingConfig, SphericalGrid, _cloud_array, normalize_cloud, voxelize
from . import harmonics as sh

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _Given(argparse.Action):
    """A flag that sets a library parameter: its value goes to ``args.given``
    under the parameter's name, and a flag left out adds nothing there, so
    the library's own default applies."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, default=argparse.SUPPRESS, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.given = {**getattr(namespace, "given", {}), self.dest: values}


def _load_cloud(path, normalize: bool) -> np.ndarray:
    points, _ = read_cloud(path)
    return normalize_cloud(points) if normalize else _cloud_array(points)


def _cmd_voxelize(args) -> int:
    points = _load_cloud(args.infile, not args.no_normalize)
    cfg = SamplingConfig(**args.given)
    grid = voxelize(points, args.bandwidth, cfg)
    write_archive(args.out, {"grid": grid.data})
    if args.csv:
        values = grid.data[..., 0]
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("i,j,k,value\n")
            # argwhere lists the nonzero voxels in (i, j, k) order
            for i, j, k in np.argwhere(values):
                fh.write(f"{i},{j},{k},{values[i, j, k]:.9g}\n")
    nz = int(np.count_nonzero(grid.data))
    print(f"bandwidth={args.bandwidth} mode={cfg.mode} xi={cfg.xi:.9g} "
          f"nonzero={nz} mass={grid.data.sum():.9g}")
    if nz == 0:
        print("rotalith: warning: no window reached a grid node, so the grid is all zero; "
              "try a larger --xi or --bandwidth", file=sys.stderr)
    return EXIT_OK


def _cmd_equiv_check(args) -> int:
    if args.trials < 1:
        raise InputFormatError(f"--trials must be >= 1, got {args.trials}")
    # every trial runs before anything is printed, so a failing run leaves stdout empty
    rows = ["trial,rotation,max_abs_err,mean_abs_err"]
    for t in range(args.trials):
        for rotation in ("grid-z", "haar"):
            rep = equivariance_trial(seed=args.seed + t, rotation=rotation, **args.given)
            rows.append(f"{t},{rotation},{rep['max_abs_err']:.12e},{rep['mean_abs_err']:.12e}")
    print("\n".join(rows))
    return EXIT_OK


def _cmd_features(args) -> int:
    points = _load_cloud(args.infile, not args.no_normalize)
    cfg = PrinConfig(**args.given) if args.pipeline == "prin" else SprinConfig()
    if args.weights:
        weights = read_archive(args.weights)
    else:
        weights = init_weights(cfg, args.seed)
    per_point, global_feat = forward(points, weights, cfg)
    feats = global_feat[None, :] if args.mode_global else per_point
    write_archive(args.out, {"features": feats})
    print(f"pipeline={args.pipeline} rows={feats.shape[0]} channels={feats.shape[1]}")
    if not feats.any():
        print("rotalith: warning: every written feature is exactly zero; with --pipeline prin, "
              "`rotalith voxelize` shows whether the cloud's grid is empty", file=sys.stderr)
    return EXIT_OK


def _archive_labels(path, flag: str, rows: int) -> np.ndarray:
    labels = read_labels(path)
    if len(labels) != rows:
        raise InputFormatError(f"{path}: {flag} has {len(labels)} labels for {rows} archive rows")
    return labels


def _cmd_match(args) -> int:
    fa = read_archive(args.a)
    fb = read_archive(args.b)
    if "features" not in fa or "features" not in fb:
        raise InputFormatError("archives must contain a 'features' tensor")
    da, db = Descriptor(fa["features"]), Descriptor(fb["features"])
    if bool(args.labels_a) != bool(args.labels_b):
        given = args.labels_a or args.labels_b
        raise InputFormatError(f"{given}: accuracy needs both --labels-a and --labels-b")
    la = lb = None
    if args.labels_a:
        la = _archive_labels(args.labels_a, "--labels-a", len(da.feats))
        lb = _archive_labels(args.labels_b, "--labels-b", len(db.feats))
    idx, acc = match_descriptors(da, db, la, lb)
    if acc is not None:
        print(f"accuracy {acc:.6f}")
    print("index,match")
    for i, j in enumerate(idx):
        print(f"{i},{j}")
    return EXIT_OK


def _random_svc_case(B: int, seed: int):
    rng = np.random.default_rng(seed)
    nc = sh.n_coeffs(B - 1)
    shell_coeffs = rng.standard_normal((nc, 2 * B))
    values = sh.sh_synthesis(shell_coeffs, B)  # (2B, 2B, 2B)
    f = SphericalGrid(B, values[..., None])
    psi = SphericalFilter(B, coeffs=rng.standard_normal((nc, 1, 1)))
    return f, psi


def _cmd_bench(args) -> int:
    if args.op != "svc":
        raise InputFormatError(f"unknown op {args.op!r}")
    if args.bandwidth < 1 or args.repeat < 1:
        raise InputFormatError(
            f"--bandwidth and --repeat must be >= 1, got {args.bandwidth} and {args.repeat}"
        )
    f, psi = _random_svc_case(args.bandwidth, seed=0)
    run = svc_bruteforce if args.impl == "brute" else svc_spectral
    run(f, psi)  # warm caches outside the timed region
    print("op,impl,bandwidth,trial,seconds")
    times = []
    for t in range(args.repeat):
        t0 = time.perf_counter()
        run(f, psi)
        dt = time.perf_counter() - t0
        times.append(dt)
        print(f"svc,{args.impl},{args.bandwidth},{t},{dt:.6e}")
    arr = np.array(times)
    print(f"# mean={arr.mean():.6e} min={arr.min():.6e} max={arr.max():.6e}")
    return EXIT_OK


def _cmd_toy(args) -> int:
    res = toy_protocol(**args.given)
    print(f"nr_accuracy={res['nr_accuracy']:.4f}")
    print(f"ar_accuracy={res['ar_accuracy']:.4f}")
    print(f"gap={res['gap']:.4f}")
    return EXIT_OK


def _cmd_fps(args) -> int:
    points = _load_cloud(args.infile, False)
    idx = farthest_point_sampling(points, args.m, args.start)
    for i in idx:
        print(int(i))
    return EXIT_OK


def _cmd_knn(args) -> int:
    points = _load_cloud(args.infile, False)
    idx = dilated_knn(points, args.center, args.k, args.d)
    for i in idx:
        print(int(i))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rotalith", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rotalith {__version__}")
    parser.set_defaults(given={})
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("voxelize", help="sample a cloud into a spherical voxel grid")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--bandwidth", type=int, default=PrinConfig.bandwidth)
    p.add_argument("--xi", action=_Given, type=float)
    p.add_argument("--mode", action=_Given, choices=MODES)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None, help="also dump nonzero voxels as CSV")
    p.add_argument("--no-normalize", action="store_true")
    p.set_defaults(func=_cmd_voxelize)

    p = sub.add_parser("equiv-check", help="per-point invariance audit as CSV")
    p.add_argument("--pipeline", action=_Given, choices=PIPELINES, required=True)
    p.add_argument("--bandwidth", action=_Given, type=int)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", action=_Given, dest="n_points", metavar="POINTS", type=int)
    p.set_defaults(func=_cmd_equiv_check)

    p = sub.add_parser("features", help="extract invariant features to an archive")
    p.add_argument("--pipeline", choices=PIPELINES, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--weights", default=None, help="weights archive; omitted = init from --seed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bandwidth", action=_Given, type=int)
    p.add_argument("--out", required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--per-point", dest="mode_global", action="store_false", default=False)
    g.add_argument("--global", dest="mode_global", action="store_true")
    p.add_argument("--no-normalize", action="store_true")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("match", help="nearest-neighbor descriptor matching")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--labels-a", default=None)
    p.add_argument("--labels-b", default=None)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("bench", help="wall-time statistics for a kernel")
    p.add_argument("--op", default="svc")
    p.add_argument("--bandwidth", type=int, default=4)
    p.add_argument("--impl", choices=("brute", "spectral"), required=True)
    p.add_argument("--repeat", type=int, default=3)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("toy", help="train-unrotated / test-rotated protocol")
    p.add_argument("--classes", action=_Given, type=lambda names: tuple(names.split(",")))
    p.add_argument("--n", action=_Given, dest="n_per_class", metavar="N", type=int,
                   help="clouds per class")
    p.add_argument("--points", action=_Given, dest="n_points", metavar="POINTS", type=int)
    p.add_argument("--pipeline", action=_Given, choices=PIPELINES)
    p.add_argument("--epochs", action=_Given, type=int)
    p.add_argument("--lr", action=_Given, type=float)
    p.add_argument("--seed", action=_Given, type=int)
    p.add_argument("--bandwidth", action=_Given, type=int)
    p.add_argument("--mode", action=_Given, choices=MODES)
    p.set_defaults(func=_cmd_toy)

    p = sub.add_parser("fps", help="farthest point sampling debug utility")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--start", type=int, default=0)
    p.set_defaults(func=_cmd_fps)

    p = sub.add_parser("knn", help="dilated kNN debug utility: every d-th of the k nearest")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="ignored; the dilation draws nothing")
    p.add_argument("--center", type=int, default=0)
    p.set_defaults(func=_cmd_knn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"rotalith: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InputFormatError, ValueError, OSError) as exc:
        print(f"rotalith: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"rotalith: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
