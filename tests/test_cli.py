"""Command surface: exit codes, CSV shapes, determinism, file round trips."""

import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from rotalith.cli import main
from rotalith.geometry import random_rotation
from rotalith.io import read_archive, read_cloud, write_archive, write_cloud
from rotalith.pipeline import blob_cloud
from rotalith.voxelize import SamplingConfig, normalize_cloud, voxelize


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def cloud_file(tmp_path):
    path = tmp_path / "cloud.xyz"
    write_cloud(path, blob_cloud(128, 3))
    return path


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["voxelize", "--nope"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "voxelize", "--in", str(tmp_path / "absent.xyz"), "--out", str(tmp_path / "o")
    )
    assert code == 2


@pytest.fixture()
def nan_cloud_file(tmp_path):
    path = tmp_path / "nan.xyz"
    write_cloud(path, blob_cloud(300, 3))
    lines = path.read_text().splitlines()
    lines[5] = "nan 0 0"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ("features", "--pipeline", "sprin", "--out", "f.rtlh"),
        ("voxelize", "--out", "g.rtlh"),
        ("knn", "--center", "5", "--k", "4"),
    ],
    ids=["features-sprin", "voxelize", "knn"],
)
def test_non_finite_cloud_exits_2(nan_cloud_file, tmp_path, capsys, argv):
    argv = [str(tmp_path / a) if a.endswith(".rtlh") else a for a in argv]
    code, stdout, err = run_cli(capsys, *argv, "--in", str(nan_cloud_file))
    assert code == 2
    assert stdout == ""
    assert ":6: non-finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("features", "--pipeline", "prin", "--bandwidth", "4", "--out", "f.rtlh"),
        ("voxelize", "--bandwidth", "4", "--out", "g.rtlh"),
        ("voxelize", "--no-normalize", "--bandwidth", "4", "--out", "g.rtlh"),
        ("features", "--pipeline", "sprin", "--no-normalize", "--out", "f.rtlh"),
        ("knn", "--k", "1", "--center", "0"),
        ("fps", "--m", "2"),
    ],
    ids=["features-prin", "voxelize", "voxelize-no-normalize", "features-sprin-no-normalize",
         "knn", "fps"],
)
def test_cloud_too_large_to_normalize_exits_2(tmp_path, capsys, argv):
    # finite, but 1e308 squared overflows the norm: normalized, every point
    # would land on the origin; unnormalized, squared distances would be inf
    path = tmp_path / "huge.xyz"
    path.write_text("1e308 1e308 1e308\n0 0 0\n")
    argv = [str(tmp_path / a) if a.endswith(".rtlh") else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the run
        code, stdout, err = run_cli(capsys, *argv, "--in", str(path))
    assert code == 2
    assert stdout == ""
    assert err == "rotalith: cloud coordinates are too large to normalize\n"


def test_allocation_numpy_cannot_make_exits_2(cloud_file, tmp_path, capsys):
    # B = 20000 asks for a (2B)^3 float64 grid, 466 TiB: more than any 47- or
    # 48-bit user address space, so the allocation fails without touching memory
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run_cli(capsys, "voxelize", "--in", str(cloud_file),
                                    "--bandwidth", "20000", "--out", str(tmp_path / "g.rtlh"))
    assert code == 2
    assert stdout == ""
    assert err.startswith("rotalith: out of memory: ") and "TiB" in err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_match_huge_declared_archive_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.rtlh"  # 34 bytes declaring one 2^20 x 2^20 float32 tensor
    path.write_bytes(b"RTLH" + struct.pack("<IIIc", 1, 1, 1, b"a") + struct.pack("<B2Q", 2, 1 << 20, 1 << 20))
    code, stdout, err = run_cli(capsys, "match", "--a", str(path), "--b", str(path))
    assert code == 2
    assert "truncated" in err


def test_voxelize_wide_window_stays_within_memory(tmp_path, capsys):
    # at B=32 and xi=1 each point has 22 x 42 x 130 candidate voxels: one
    # float64 array over all of them would take about 1 GB for 1000 points
    path = tmp_path / "cloud.xyz"
    write_cloud(path, blob_cloud(1000, 3))
    tracemalloc.start()
    try:
        code, stdout, _ = run_cli(
            capsys, "voxelize", "--in", str(path), "--bandwidth", "32",
            "--xi", "1", "--out", str(tmp_path / "grid.rtlh"),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "bandwidth=32" in stdout
    assert peak < 64 << 20


def test_voxelize_writes_archive(cloud_file, tmp_path, capsys):
    out = tmp_path / "grid.rtlh"
    csv = tmp_path / "grid.csv"
    code, stdout, _ = run_cli(
        capsys, "voxelize", "--in", str(cloud_file), "--bandwidth", "4",
        "--xi", "0.1", "--out", str(out), "--csv", str(csv),
    )
    assert code == 0
    assert "bandwidth=4" in stdout
    grid = read_archive(out)["grid"]
    assert grid.shape == (8, 8, 8, 1)
    header, *rows = csv.read_text().splitlines()
    assert header == "i,j,k,value"
    # exactly the nonzero voxels, in (i, j, k) order, at 9 significant
    # digits of the float64 grid (the archive holds float32)
    values = voxelize(normalize_cloud(read_cloud(cloud_file)[0]), 4, SamplingConfig(xi=0.1)).data
    want = [
        f"{i},{j},{k},{values[i, j, k, 0]:.9g}"
        for i in range(8) for j in range(8) for k in range(8)
        if values[i, j, k, 0] != 0.0
    ]
    assert rows == want and 0 < len(rows) < 8 ** 3


def test_equiv_check_sprin_rows(capsys):
    code, stdout, _ = run_cli(
        capsys, "equiv-check", "--pipeline", "sprin", "--trials", "2", "--seed", "5",
        "--points", "96",
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "trial,rotation,max_abs_err,mean_abs_err"
    assert len(lines) == 1 + 2 * 2
    for line in lines[1:]:
        _, rotation, mx, mn = line.split(",")
        assert rotation in ("grid-z", "haar")
        assert float(mx) <= 1e-5


@pytest.mark.parametrize(
    "argv",
    [
        ("--pipeline", "prin", "--trials", "1", "--bandwidth", "1"),
        ("--pipeline", "sprin", "--trials", "1", "--points", "3"),
        ("--pipeline", "sprin", "--trials", "0"),
        ("--pipeline", "sprin", "--trials", "1", "--bandwidth", "0"),
        ("--pipeline", "sprin", "--trials", "1", "--points", "-3"),
    ],
)
def test_equiv_check_invalid_input_exits_2_without_output(capsys, argv):
    code, stdout, err = run_cli(capsys, "equiv-check", *argv)
    assert code == 2
    assert stdout == ""
    assert err.startswith("rotalith: ")
    for flag in ("--bandwidth", "--points"):
        if flag in argv and int(argv[argv.index(flag) + 1]) < 1:
            assert flag in err  # a size below 1 is named, not left to numpy


def test_features_and_match_self(cloud_file, tmp_path, capsys):
    fa = tmp_path / "a.rtlh"
    code, _, _ = run_cli(
        capsys, "features", "--pipeline", "sprin", "--in", str(cloud_file),
        "--seed", "4", "--out", str(fa),
    )
    assert code == 0
    feats = read_archive(fa)["features"]
    assert feats.shape[0] == 128

    code, stdout, _ = run_cli(capsys, "match", "--a", str(fa), "--b", str(fa))
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "index,match"
    pairs = [tuple(map(int, l.split(","))) for l in lines[1:]]
    assert all(i == j for i, j in pairs)


def test_match_with_labels_accuracy_line(cloud_file, tmp_path, capsys):
    fa = tmp_path / "a.rtlh"
    run_cli(capsys, "features", "--pipeline", "sprin", "--in", str(cloud_file),
            "--seed", "4", "--out", str(fa))
    labels = tmp_path / "labels.txt"
    labels.write_text("\n".join(["1"] * 128) + "\n")
    code, stdout, _ = run_cli(
        capsys, "match", "--a", str(fa), "--b", str(fa),
        "--labels-a", str(labels), "--labels-b", str(labels),
    )
    assert code == 0
    assert stdout.startswith("accuracy 1.000000")


def test_features_from_weights_archive(cloud_file, tmp_path, capsys):
    from rotalith.io import write_archive
    from rotalith.pipeline import SprinConfig, init_weights

    wpath = tmp_path / "w.rtlh"
    write_archive(wpath, init_weights(SprinConfig(), 4))
    fa = tmp_path / "wa.rtlh"
    code, _, _ = run_cli(
        capsys, "features", "--pipeline", "sprin", "--in", str(cloud_file),
        "--weights", str(wpath), "--seed", "4", "--out", str(fa),
    )
    assert code == 0
    # float32 storage rounds the weights, so only rough agreement with the
    # in-memory seeded path is expected
    fb = tmp_path / "wb.rtlh"
    run_cli(capsys, "features", "--pipeline", "sprin", "--in", str(cloud_file),
            "--seed", "4", "--out", str(fb))
    a = read_archive(fa)["features"]
    b = read_archive(fb)["features"]
    assert np.abs(a - b).max() < 1e-2 * np.abs(b).max()


def test_global_features_single_row(cloud_file, tmp_path, capsys):
    fa = tmp_path / "g.rtlh"
    code, _, _ = run_cli(
        capsys, "features", "--pipeline", "prin", "--in", str(cloud_file),
        "--bandwidth", "4", "--seed", "1", "--out", str(fa), "--global",
    )
    assert code == 0
    assert read_archive(fa)["features"].shape[0] == 1


def test_fps_and_knn_output(cloud_file, capsys):
    code, stdout, _ = run_cli(capsys, "fps", "--in", str(cloud_file), "--m", "5")
    assert code == 0
    idx = [int(x) for x in stdout.split()]
    assert len(idx) == 5 and len(set(idx)) == 5

    code, stdout, _ = run_cli(capsys, "knn", "--in", str(cloud_file), "--k", "8", "--d", "2")
    assert code == 0
    assert len(stdout.split()) == 4  # ceil(8/2)
    _, nearest, _ = run_cli(capsys, "knn", "--in", str(cloud_file), "--k", "8")
    assert stdout.split() == nearest.split()[::2]  # every second of the 8 nearest
    # --seed is accepted and ignored
    _, seeded, _ = run_cli(
        capsys, "knn", "--in", str(cloud_file), "--k", "8", "--d", "2", "--seed", "3"
    )
    assert seeded == stdout


@pytest.fixture()
def cloud20_file(tmp_path):
    path = tmp_path / "cloud20.xyz"
    write_cloud(path, blob_cloud(20, 5))
    return path


def test_features_sprin_too_few_points_exits_2(tmp_path, capsys):
    # the default stack samples 128 FPS points from the input cloud
    path = tmp_path / "cloud100.xyz"
    write_cloud(path, blob_cloud(100, 3))
    out = tmp_path / "f.rtlh"
    code, stdout, err = run_cli(
        capsys, "features", "--pipeline", "sprin", "--in", str(path), "--out", str(out)
    )
    assert code == 2
    assert stdout == "" and not out.exists()
    assert "at least 128 input points" in err and "FPS level 1" in err


@pytest.mark.parametrize("start", ["50", "-1"])
def test_fps_start_out_of_range_exits_2(cloud20_file, capsys, start):
    code, stdout, err = run_cli(capsys, "fps", "--in", str(cloud20_file), "--m", "3", "--start", start)
    assert code == 2
    assert stdout == ""
    assert "start" in err


@pytest.mark.parametrize("center", ["50", "-1"])
def test_knn_center_out_of_range_exits_2(cloud20_file, capsys, center):
    code, stdout, err = run_cli(capsys, "knn", "--in", str(cloud20_file), "--k", "4", "--center", center)
    assert code == 2
    assert stdout == ""
    assert "center" in err


def test_features_prin_non_finite_weights_exit_2(cloud_file, tmp_path, capsys):
    from rotalith.io import write_archive
    from rotalith.pipeline import PrinConfig, init_weights

    weights = init_weights(PrinConfig(bandwidth=4), 0)
    weights["svc1"][0, 0, 0] = np.nan
    wpath = tmp_path / "nan_w.rtlh"
    write_archive(wpath, weights)
    code, stdout, err = run_cli(
        capsys, "features", "--pipeline", "prin", "--bandwidth", "4", "--in", str(cloud_file),
        "--weights", str(wpath), "--out", str(tmp_path / "f.rtlh"),
    )
    assert code == 2
    assert stdout == ""
    assert "non-finite" in err


@pytest.mark.parametrize(
    "pipeline,key,value",
    [("sprin", "enc1_0_w0", np.nan), ("sprin", "seg_w0", np.inf), ("prin", "pp_w0", np.nan)],
)
def test_features_non_finite_mlp_weights_exit_2(cloud_file, tmp_path, capsys, pipeline, key, value):
    from rotalith.io import write_archive
    from rotalith.pipeline import PrinConfig, SprinConfig, init_weights

    weights = init_weights(PrinConfig(bandwidth=4) if pipeline == "prin" else SprinConfig(), 0)
    weights[key][0, 0] = value
    wpath = tmp_path / "bad_w.rtlh"
    write_archive(wpath, weights)
    out = tmp_path / "f.rtlh"
    code, stdout, err = run_cli(
        capsys, "features", "--pipeline", pipeline, "--bandwidth", "4", "--in", str(cloud_file),
        "--weights", str(wpath), "--out", str(out),
    )
    assert code == 2
    assert stdout == "" and not out.exists()
    assert key in err and "non-finite" in err


def test_features_missing_bias_exits_2(cloud_file, tmp_path, capsys):
    from rotalith.io import write_archive
    from rotalith.pipeline import SprinConfig, init_weights

    weights = init_weights(SprinConfig(), 0)
    del weights["cls_b0"]
    wpath = tmp_path / "no_bias.rtlh"
    write_archive(wpath, weights)
    code, stdout, err = run_cli(
        capsys, "features", "--pipeline", "sprin", "--in", str(cloud_file),
        "--weights", str(wpath), "--out", str(tmp_path / "f.rtlh"),
    )
    assert code == 2
    assert stdout == ""
    assert "cls_b0" in err


def test_features_weights_of_another_config_exit_2(cloud_file, tmp_path, capsys):
    from rotalith.io import write_archive
    from rotalith.pipeline import SprinConfig, init_weights

    # the features command runs SprinConfig(), whose filters are 64 wide
    wpath = tmp_path / "hidden32.rtlh"
    write_archive(wpath, init_weights(SprinConfig(hidden=32), 0))
    out = tmp_path / "f.rtlh"
    code, stdout, err = run_cli(
        capsys, "features", "--pipeline", "sprin", "--in", str(cloud_file),
        "--weights", str(wpath), "--out", str(out),
    )
    assert code == 2
    assert stdout == "" and not out.exists()
    assert "'enc0_0_w0'" in err and "(64, 8)" in err


def test_features_weights_with_full_sh_svc_rows_exit_2(cloud_file, tmp_path, capsys):
    from rotalith.io import write_archive
    from rotalith.pipeline import PrinConfig, init_weights

    # the archive format before svc{i} held only its B zonal rows: all B^2
    # SH coefficients, (16, C_out, C_in) at B = 4
    weights = init_weights(PrinConfig(bandwidth=4), 0)
    rng = np.random.default_rng(0)
    for key in ("svc0", "svc1", "svc2"):
        weights[key] = rng.standard_normal((16,) + weights[key].shape[1:])
    wpath = tmp_path / "old.rtlh"
    write_archive(wpath, weights)
    out = tmp_path / "f.rtlh"
    code, stdout, err = run_cli(
        capsys, "features", "--pipeline", "prin", "--bandwidth", "4", "--in", str(cloud_file),
        "--weights", str(wpath), "--out", str(out),
    )
    assert code == 2
    assert stdout == "" and not out.exists()
    assert "'svc0'" in err and "(16, 40, 1)" in err and "(4, 40, 1)" in err


def test_bench_csv(capsys):
    code, stdout, _ = run_cli(
        capsys, "bench", "--op", "svc", "--bandwidth", "2", "--impl", "spectral", "--repeat", "2"
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "op,impl,bandwidth,trial,seconds"
    assert len([l for l in lines if l.startswith("svc,spectral,2,")]) == 2
    assert lines[-1].startswith("# mean=")


def test_bench_svc_b64_stays_within_memory(capsys):
    # a dense (4B^2) x B^2 grid basis at B=64 alone would take 512 MiB
    tracemalloc.start()
    try:
        code, stdout, _ = run_cli(
            capsys, "bench", "--op", "svc", "--impl", "spectral", "--bandwidth", "64",
            "--repeat", "1",
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len([l for l in stdout.splitlines() if l.startswith("svc,spectral,64,")]) == 1
    assert peak < 128 << 20


@pytest.mark.parametrize("bandwidth, repeat", [("0", "2"), ("2", "0"), ("2", "-2")])
def test_bench_rejects_non_positive_sizes_exit_2(capsys, bandwidth, repeat):
    code, stdout, err = run_cli(
        capsys, "bench", "--op", "svc", "--impl", "spectral",
        "--bandwidth", bandwidth, "--repeat", repeat,
    )
    assert code == 2
    assert stdout == ""
    assert "must be >= 1" in err


@pytest.mark.parametrize("xi", ["inf", "nan"])
def test_voxelize_non_finite_xi_exits_2(cloud_file, tmp_path, capsys, xi):
    out = tmp_path / "g.rtlh"
    code, stdout, err = run_cli(
        capsys, "voxelize", "--in", str(cloud_file), "--xi", xi, "--out", str(out)
    )
    assert code == 2
    assert stdout == "" and not out.exists()
    assert "xi" in err


def test_toy_small_run(capsys):
    code, stdout, _ = run_cli(
        capsys, "toy", "--classes", "sphere,cube", "--n", "3", "--points", "128",
        "--pipeline", "sprin", "--epochs", "40", "--seed", "2",
    )
    assert code == 0
    assert "nr_accuracy=" in stdout and "ar_accuracy=" in stdout and "gap=" in stdout


_TOY_PRIN4 = ("toy", "--pipeline", "prin", "--bandwidth", "4", "--classes", "sphere,cube",
              "--n", "2", "--points", "64", "--epochs", "1")


@pytest.mark.parametrize("lr", ["nan", "inf", "-0.5"])
def test_toy_non_finite_or_negative_lr_exits_2(capsys, lr):
    code, stdout, err = run_cli(capsys, *_TOY_PRIN4, "--lr", lr)
    assert code == 2
    assert stdout == ""
    assert "--lr" in err


def test_toy_lr_zero_runs(capsys):
    code, stdout, _ = run_cli(capsys, *_TOY_PRIN4, "--lr", "0")
    assert code == 0
    assert "nr_accuracy=" in stdout


def test_toy_zero_clouds_exits_2(capsys):
    code, stdout, err = run_cli(
        capsys, "toy", "--classes", "sphere,cube", "--n", "0", "--points", "128",
    )
    assert code == 2
    assert stdout == ""
    assert "--n" in err


def test_toy_one_cloud_per_class_exits_2(capsys):
    # one cloud per class would leave class 1 out of training
    code, stdout, err = run_cli(capsys, "toy", "--classes", "sphere,cube", "--n", "1")
    assert code == 2
    assert stdout == ""
    assert "--n" in err


def test_toy_divergence_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "toy", "--classes", "sphere,cube", "--n", "2", "--points", "128",
        "--pipeline", "sprin", "--epochs", "30", "--seed", "2", "--lr", "1e200",
    )
    assert code == 3
    assert "numeric" in err


def test_seeded_commands_are_deterministic(cloud_file, tmp_path, capsys):
    outputs = []
    for _ in range(2):
        _, stdout, _ = run_cli(
            capsys, "equiv-check", "--pipeline", "sprin", "--trials", "1",
            "--seed", "9", "--points", "96",
        )
        outputs.append(stdout)
    assert outputs[0] == outputs[1]

    outputs = []
    for _ in range(2):
        _, stdout, _ = run_cli(capsys, "knn", "--in", str(cloud_file), "--k", "6", "--d", "3")
        outputs.append(stdout)
    assert outputs[0] == outputs[1]


# the last four have first layers too narrow or too wide for the features
# they are fed: 50 channels for pp/gl, 8 invariants for enc0_0, and the
# pooled max and mean of 64 encoder channels for cls
@pytest.mark.parametrize(
    "pipeline,key,shape",
    [
        ("prin", "pp_w1", (50, 49)),
        ("sprin", "seg_b0", (127,)),
        ("sprin", "enc0_0_w1", (64, 63)),
        ("prin", "pp_w0", (50, 49)),
        ("prin", "gl_w0", (50, 49)),
        ("sprin", "enc0_0_w0", (64, 9)),
        ("sprin", "cls_w0", (256, 100)),
    ],
    ids=["pp_w1", "seg_b0", "enc0_0_w1", "pp_w0", "gl_w0", "enc0_0_w0", "cls_w0"],
)
def test_features_mis_shaped_mlp_weights_exit_2(cloud_file, tmp_path, capsys, pipeline, key, shape):
    from rotalith.io import write_archive
    from rotalith.pipeline import PrinConfig, SprinConfig, init_weights

    weights = init_weights(PrinConfig(bandwidth=4) if pipeline == "prin" else SprinConfig(), 0)
    weights[key] = np.ones(shape)
    wpath = tmp_path / "bad_w.rtlh"
    write_archive(wpath, weights)
    out = tmp_path / "f.rtlh"
    code, stdout, err = run_cli(
        capsys, "features", "--pipeline", pipeline, "--bandwidth", "4", "--in", str(cloud_file),
        "--weights", str(wpath), "--out", str(out),
    )
    assert code == 2
    assert stdout == "" and not out.exists()
    assert repr(key) in err


@pytest.fixture()
def feature_archives(tmp_path):
    from rotalith.io import write_archive

    rng = np.random.default_rng(0)
    fa, fb = tmp_path / "a.rtlh", tmp_path / "b.rtlh"
    write_archive(fa, {"features": rng.standard_normal((10, 4))})
    write_archive(fb, {"features": rng.standard_normal((12, 4))})
    return fa, fb


@pytest.mark.parametrize(
    "counts,message",
    [
        ((10, 5), "--labels-b has 5 labels for 12 archive rows"),
        ((11, 12), "--labels-a has 11 labels for 10 archive rows"),
        ((10, None), "needs both --labels-a and --labels-b"),
    ],
    ids=["short-b", "long-a", "lone-a"],
)
def test_match_labels_must_fit_archives_exit_2(feature_archives, tmp_path, capsys, counts, message):
    argv = ["match", "--a", str(feature_archives[0]), "--b", str(feature_archives[1])]
    for side, n in zip("ab", counts):
        if n is not None:
            path = tmp_path / f"labels_{side}.txt"
            path.write_text("\n".join(["1"] * n) + "\n")
            argv += [f"--labels-{side}", str(path)]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert message in err
    assert str(tmp_path / ("labels_b.txt" if counts == (10, 5) else "labels_a.txt")) in err


@pytest.mark.parametrize("label", ["inf", "1e30"])
def test_match_labels_outside_int64_exit_2(feature_archives, tmp_path, capsys, label):
    labels_a, labels_b = tmp_path / "labels_a.txt", tmp_path / "labels_b.txt"
    labels_a.write_text("1\n" * 9 + f"{label}\n")
    labels_b.write_text("1\n" * 12)
    code, stdout, err = run_cli(
        capsys, "match", "--a", str(feature_archives[0]), "--b", str(feature_archives[1]),
        "--labels-a", str(labels_a), "--labels-b", str(labels_b),
    )
    assert code == 2
    assert stdout == ""
    assert f"{labels_a}:10: " in err and "Traceback" not in err


@pytest.mark.parametrize(
    "shape_a,shape_b,bad",
    [((3, 2), (0, 2), (0, 2)), ((0, 2), (3, 2), (0, 2)), ((3,), (3,), (3,)), ((2, 3, 2),) * 3],
    ids=["empty-b", "empty-a", "rank-1", "rank-3"],
)
def test_match_features_not_a_non_empty_n_by_c_array_exit_2(tmp_path, capsys, shape_a, shape_b, bad):
    from rotalith.io import write_archive

    fa, fb = tmp_path / "a.rtlh", tmp_path / "b.rtlh"
    write_archive(fa, {"features": np.ones(shape_a)})
    write_archive(fb, {"features": np.ones(shape_b)})
    code, stdout, err = run_cli(capsys, "match", "--a", str(fa), "--b", str(fb))
    assert code == 2
    assert stdout == ""
    assert f"non-empty (N, C) feature array, got {bad}" in err


def test_fps_cloud_label_outside_int64_exits_2(tmp_path, capsys):
    cloud = tmp_path / "c.xyz"
    cloud.write_text("0 0 0 1\n0.5 0 0 1e30\n")
    code, stdout, err = run_cli(capsys, "fps", "--in", str(cloud), "--m", "1")
    assert code == 2
    assert stdout == ""
    assert f"{cloud}:2: " in err


@pytest.mark.parametrize("command", ["fps", "knn"])
def test_cloud_not_utf8_exits_2_naming_the_file(tmp_path, capsys, command):
    cloud = tmp_path / "c.xyz"
    cloud.write_bytes(b"0 0 0\n0.5 0 0 \xff\n")
    flag = "--m" if command == "fps" else "--k"
    code, stdout, err = run_cli(capsys, command, "--in", str(cloud), flag, "1")
    assert code == 2
    assert stdout == ""
    assert f"{cloud}:2: not UTF-8 text (byte 0xff)" in err


def test_match_labels_not_utf8_exit_2_naming_the_file(tmp_path, capsys):
    feats = tmp_path / "f.rtlh"
    write_archive(feats, {"features": np.eye(2)})
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text("0\n1\n")
    bad.write_bytes(b"0\n1 # \xe9t\xe9\n")  # latin-1 in a comment
    code, stdout, err = run_cli(
        capsys, "match", "--a", str(feats), "--b", str(feats),
        "--labels-a", str(good), "--labels-b", str(bad),
    )
    assert code == 2
    assert stdout == ""
    assert f"{bad}:2: not UTF-8 text (byte 0xe9)" in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("--classes", "sphere,cube", "--epochs", "0"), "--epochs"),
        (("--classes", "sphere"), "--classes"),
        (("--classes", "sphere,sphere"), "--classes"),
    ],
    ids=["zero-epochs", "one-class", "repeated-class"],
)
def test_toy_rejects_degenerate_protocol_exit_2(capsys, argv, flag):
    code, stdout, err = run_cli(capsys, "toy", "--n", "2", "--points", "128", *argv)
    assert code == 2
    assert stdout == ""
    assert flag in err
