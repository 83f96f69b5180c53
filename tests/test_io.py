"""Cloud files and tensor archives: round trips and structured failure modes."""

import re
import struct

import numpy as np
import pytest

from rotalith.errors import ArchiveFormatError, CloudFormatError, InputFormatError
from rotalith.io import read_archive, read_cloud, read_labels, write_archive, write_cloud


def test_cloud_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, (1000, 3))
    path = tmp_path / "cloud.xyz"
    write_cloud(path, pts)
    back, labels = read_cloud(path)
    assert labels is None
    assert np.abs(back - pts).max() < 1e-7
    assert back.shape == (1000, 3)


def test_cloud_round_trip_with_labels(tmp_path):
    pts = np.array([[0.1, 0.2, 0.3], [-0.4, 0.5, -0.6]])
    labels = np.array([3, 7])
    path = tmp_path / "labeled.xyz"
    write_cloud(path, pts, labels)
    back, lab = read_cloud(path)
    assert np.array_equal(lab, labels)
    assert np.abs(back - pts).max() < 1e-9


def test_cloud_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.xyz"
    path.write_text("# header\n\n0.1 0.2 0.3  # inline comment\n0.4 0.5 0.6\n")
    pts, labels = read_cloud(path)
    assert pts.shape == (2, 3) and labels is None


@pytest.mark.parametrize(
    "content",
    [
        "", "# only comments\n", "1 2\n", "1 2 3 4 5\n", "1 2 x\n", "1 2 3\n1 2 3 4\n",
        "0 0 0\nnan 0 0\n", "0 -inf 0\n", "0 0 0 inf\n",
    ],
)
def test_cloud_malformed_inputs(tmp_path, content):
    path = tmp_path / "bad.xyz"
    path.write_text(content)
    with pytest.raises(CloudFormatError):
        read_cloud(path)


@pytest.mark.parametrize(
    "content, line",
    [
        (b"0 0 0\n0 0 1 # caf\xe9\n", 2),
        (b"\xff\xfe0 0 0\n", 1),
        (b"0 0 0\n\n1 \x80 0\n", 3),
        (b"0 0 0\r\n0 0 1\r1 \x80 0\r", 3),  # lines end as text mode reads them
        (b"0 0 0\n" * 5000 + b"0 0 1 # \xff\n", 5001),  # past the first read buffer
    ],
    ids=["latin-1-comment", "utf-16-bom", "field", "cr-line-ends", "late-byte"],
)
def test_cloud_not_utf8_names_the_line(tmp_path, content, line):
    path = tmp_path / "bad.xyz"
    path.write_bytes(content)
    with pytest.raises(CloudFormatError, match=re.escape(f"{path}:{line}: not UTF-8 text")):
        read_cloud(path)


def test_cloud_line_ends_as_text_mode_reads_them(tmp_path):
    path = tmp_path / "c.xyz"
    path.write_bytes(b"0 0 0\r\n1 2 3\r4 5 6\n")
    pts, _ = read_cloud(path)
    assert pts.tolist() == [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


def test_cloud_utf8_comment_is_read(tmp_path):
    path = tmp_path / "c.xyz"
    path.write_bytes("0 0 0 # café\n1 2 3\n".encode("utf-8"))
    pts, _ = read_cloud(path)
    assert pts.tolist() == [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]


def test_labels_not_utf8_names_the_line(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_bytes(b"1\n\xff2\n")
    with pytest.raises(InputFormatError, match=re.escape(f"{path}:2: not UTF-8 text (byte 0xff)")):
        read_labels(path)


@pytest.mark.parametrize("good_lines", [0, 3000], ids=["same-buffer", "later-buffer"])
@pytest.mark.parametrize(
    "reader, first, error, message",
    [
        (read_cloud, b"0 0 bad\n", CloudFormatError, ":1: non-numeric field"),
        (read_labels, b"abc\n", InputFormatError, ":1: not a label ('abc')"),
    ],
    ids=["cloud", "labels"],
)
def test_first_bad_line_in_file_order_is_reported(tmp_path, reader, first, error, message, good_lines):
    # a bad field on line 1 comes before a byte that is not UTF-8 further on,
    # whether or not the two share a read buffer
    path = tmp_path / "bad.txt"
    path.write_bytes(first + b"0 0 0\n" * good_lines + b"0 0 0 # \xe9\n")
    with pytest.raises(error, match=re.escape(f"{path}{message}")):
        reader(path)


@pytest.mark.parametrize(
    "content, message",
    [
        ("1\nabc\n", ":2: not a label ('abc')"),
        ("# only\n  # comments\n\n", ": no labels"),
        # a line holds 1 or 4 fields: an unlabeled cloud's z is not read as labels
        ("0 0 0\n0.5 0 1.4\n1 2 3\n", ":1: expected 1 or 4 fields, got 3"),
        ("1\n2 3\n", ":2: expected 1 or 4 fields, got 2"),
    ],
    ids=["not-a-label", "only-comments", "3-fields", "2-fields"],
)
def test_labels_malformed_inputs(tmp_path, content, message):
    path = tmp_path / "labels.txt"
    path.write_text(content)
    with pytest.raises(InputFormatError, match=re.escape(f"{path}{message}")):
        read_labels(path)


def test_cloud_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("0 0 0\n0 0 bad\n")
    with pytest.raises(CloudFormatError, match=":2"):
        read_cloud(path)


@pytest.mark.parametrize("label", ["inf", "-nan", "1e30", "-9.3e18", "9223372036854775808"])
def test_labels_outside_int64_name_the_line(tmp_path, label):
    labels = tmp_path / "labels.txt"
    labels.write_text(f"3\n{label}\n")
    with pytest.raises(InputFormatError, match=r"labels\.txt:2: "):
        read_labels(labels)
    cloud = tmp_path / "c.xyz"
    cloud.write_text(f"0 0 0 3\n0 0 0 {label}\n")
    with pytest.raises(InputFormatError, match=r"c\.xyz:2: "):
        read_cloud(cloud)


def test_labels_round_to_the_nearest_int64(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("# comment\n0 0 0 2.4\n\n-7\n9.2e18  # in range\n")
    labels = read_labels(path)
    assert labels.dtype == np.int64
    assert labels.tolist() == [2, -7, 9_200_000_000_000_000_000]


def test_archive_round_trip_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {
        "weights": rng.standard_normal((4, 5)).astype(np.float32).astype(float),
        "bias": rng.standard_normal(7),
        "scalarish": rng.standard_normal((1,)),
    }
    p1 = tmp_path / "a.rtlh"
    p2 = tmp_path / "b.rtlh"
    write_archive(p1, tensors)
    back = read_archive(p1)
    assert set(back) == set(tensors)
    write_archive(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_archive_preserves_shapes_and_f32_values(tmp_path):
    rng = np.random.default_rng(2)
    feats = rng.standard_normal((128, 66))
    path = tmp_path / "d.rtlh"
    write_archive(path, {"features": feats})
    back = read_archive(path)["features"]
    assert back.shape == (128, 66)
    assert np.array_equal(back, feats.astype(np.float32).astype(np.float64))


def test_archive_bad_magic(tmp_path):
    path = tmp_path / "x.rtlh"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ArchiveFormatError, match="magic"):
        read_archive(path)


def test_archive_bad_version(tmp_path):
    import struct

    path = tmp_path / "x.rtlh"
    path.write_bytes(b"RTLH" + struct.pack("<II", 9, 0))
    with pytest.raises(ArchiveFormatError, match="version"):
        read_archive(path)


_X = struct.pack("<I", 1) + b"x" + struct.pack("<BQf", 1, 1, 1.0)  # one tensor x = [1.0]


@pytest.mark.parametrize(
    "content, message",
    [
        (b"RTL", "truncated while reading magic"),
        (b"RTLH" + struct.pack("<I", 1), "truncated while reading header"),
        (b"RTLH" + struct.pack("<II", 1, 2) + _X + _X, "duplicate tensor name 'x'"),
    ],
    ids=["short-magic", "short-header", "duplicate-name"],
)
def test_archive_malformed_headers(tmp_path, content, message):
    path = tmp_path / "m.rtlh"
    path.write_bytes(content)
    with pytest.raises(ArchiveFormatError, match=re.escape(f"{path}: {message}")):
        read_archive(path)


def test_archive_truncation(tmp_path):
    path = tmp_path / "t.rtlh"
    write_archive(path, {"a": np.arange(10.0)})
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ArchiveFormatError, match="truncated"):
        read_archive(path)


def _huge_archive(path):
    """34 bytes that declare one 2^20 x 2^20 float32 tensor (4 TiB of payload)."""
    path.write_bytes(b"RTLH" + struct.pack("<IIIc", 1, 1, 1, b"a") + struct.pack("<B2Q", 2, 1 << 20, 1 << 20))
    return path


def test_archive_declared_payload_beyond_file(tmp_path):
    path = _huge_archive(tmp_path / "huge.rtlh")
    assert path.stat().st_size == 34
    with pytest.raises(ArchiveFormatError, match="truncated"):
        read_archive(path)
    # dims whose product wraps a signed 64-bit integer to a small number
    path.write_bytes(b"RTLH" + struct.pack("<IIIc", 1, 1, 1, b"a") + struct.pack("<B2Q", 2, 1 << 32, 1 << 32))
    with pytest.raises(ArchiveFormatError, match="truncated"):
        read_archive(path)


def test_archive_tensor_name_not_utf8(tmp_path):
    path = tmp_path / "n.rtlh"
    path.write_bytes(b"RTLH" + struct.pack("<IIIc", 1, 1, 1, b"\xff") + struct.pack("<BQ", 1, 0))
    want = rf"{path}: tensor name b'\xff' is not UTF-8"
    with pytest.raises(ArchiveFormatError, match=re.escape(want)):
        read_archive(path)


def test_archive_empty_ok(tmp_path):
    path = tmp_path / "e.rtlh"
    write_archive(path, {})
    assert read_archive(path) == {}


def test_archive_rejects_values_beyond_float32_before_writing(tmp_path):
    import warnings

    f32_max = float(np.finfo(np.float32).max)
    path = tmp_path / "o.rtlh"
    for bad in (1e39, -1e39, np.nextafter(f32_max, np.inf)):
        tensors = {"ok": np.ones(3), "features": np.array([[0.0, bad], [np.nan, 1.0]])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy cast warning either
            with pytest.raises(InputFormatError, match="tensor 'features' .* float32 range"):
                write_archive(path, tensors)
        assert not path.exists()
    # the float32 extremes, NaN and the infinities are written as they are
    edge = np.array([f32_max, -f32_max, np.nan, np.inf, -np.inf, 0.0])
    write_archive(path, {"edge": edge, "empty": np.zeros((0, 2))})
    back = read_archive(path)
    assert np.array_equal(back["edge"], edge, equal_nan=True)
    assert back["empty"].shape == (0, 2)
