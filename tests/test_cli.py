"""Command surface: exit codes, CSV shapes, determinism, file round trips."""

import struct
import tracemalloc

import numpy as np
import pytest

from rotalith.cli import main
from rotalith.geometry import random_rotation
from rotalith.io import read_archive, write_cloud
from rotalith.pipeline import blob_cloud


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
    assert csv.read_text().startswith("i,j,k,value")


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
    ],
)
def test_equiv_check_invalid_input_exits_2_without_output(capsys, argv):
    code, stdout, err = run_cli(capsys, "equiv-check", *argv)
    assert code == 2
    assert stdout == ""
    assert err.startswith("rotalith: ")


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

    code, stdout, _ = run_cli(
        capsys, "knn", "--in", str(cloud_file), "--k", "8", "--d", "2", "--seed", "3"
    )
    assert code == 0
    assert len(stdout.split()) == 4  # ceil(8/2)


@pytest.fixture()
def cloud20_file(tmp_path):
    path = tmp_path / "cloud20.xyz"
    write_cloud(path, blob_cloud(20, 5))
    return path


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


def test_toy_zero_clouds_exits_2(capsys):
    code, stdout, err = run_cli(
        capsys, "toy", "--classes", "sphere,cube", "--n", "0", "--points", "128",
    )
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
        _, stdout, _ = run_cli(capsys, "knn", "--in", str(cloud_file), "--k", "6", "--d", "3",
                               "--seed", "11")
        outputs.append(stdout)
    assert outputs[0] == outputs[1]
