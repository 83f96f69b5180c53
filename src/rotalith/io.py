"""File formats: ASCII point clouds and the binary tensor archive.

Cloud files hold one point per line, ``x y z`` or ``x y z label``, with ``#``
starting a comment.  Archives are little-endian throughout: magic ``RTLH``,
u32 version (currently 1), u32 tensor count, then per tensor a u32 name
length, the UTF-8 name, a u8 rank, rank u64 dims, and the float32 payload.
Label files hold one integer label per line, as the line's only field or
after ``x y z``, so a labeled cloud file is also a label file.  Text files and tensor names
are UTF-8.  Every malformed input maps to a structured error, never a crash.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import ArchiveFormatError, CloudFormatError, InputFormatError

MAGIC = b"RTLH"
VERSION = 1

_INT64 = np.iinfo(np.int64)
_F32_MAX = float(np.finfo(np.float32).max)


def _label(token: str, where: str) -> int:
    """A label field rounded to the nearest integer; ``where`` is ``path:line``.

    A field that is not a number, not finite, or outside int64 raises
    :class:`InputFormatError` naming ``where``.
    """
    try:
        value = float(token)
    except ValueError:
        raise InputFormatError(f"{where}: not a label ({token!r})") from None
    if not math.isfinite(value):
        raise InputFormatError(f"{where}: non-finite label ({token})")
    label = round(value)
    if not _INT64.min <= label <= _INT64.max:
        raise InputFormatError(f"{where}: label {token} does not fit int64")
    return label


def _data_lines(path, error: type[InputFormatError]) -> Iterator[tuple[int, list[str]]]:
    """A UTF-8 text file's data lines as ``(line number, fields)``, in one streamed pass.

    ``#`` starts a comment, and lines with no fields are skipped.  Each line
    is checked when it is reached, so a byte that is not UTF-8 raises
    ``error`` naming its line only if no earlier line failed first.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:  # an escaped byte is U+DC80..U+DCFF
                    byte = ord(line[exc.start]) & 0xFF
                    raise error(f"{path}:{lineno}: not UTF-8 text (byte 0x{byte:02x})") from None
            fields = line.split("#", 1)[0].split()
            if fields:
                yield lineno, fields


def read_cloud(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse a cloud file into ``(points (N, 3), labels (N,) or None)``."""
    points: list[list[float]] = []
    labels: list[int] = []
    arity = None
    for lineno, tokens in _data_lines(path, CloudFormatError):
        if len(tokens) not in (3, 4):
            raise CloudFormatError(
                f"{path}:{lineno}: expected 3 or 4 fields, got {len(tokens)}"
            )
        if arity is None:
            arity = len(tokens)
        elif len(tokens) != arity:
            raise CloudFormatError(
                f"{path}:{lineno}: mixed arity ({len(tokens)} fields after {arity})"
            )
        try:
            values = [float(t) for t in tokens]
        except ValueError as exc:
            raise CloudFormatError(f"{path}:{lineno}: non-numeric field ({exc})") from None
        if not all(map(math.isfinite, values)):
            raise CloudFormatError(f"{path}:{lineno}: non-finite field")
        points.append(values[:3])
        if arity == 4:
            labels.append(_label(tokens[3], f"{path}:{lineno}"))
    if not points:
        raise CloudFormatError(f"{path}: no data lines")
    pts = np.asarray(points, dtype=float)
    return pts, (np.asarray(labels, dtype=np.int64) if arity == 4 else None)


def read_labels(path) -> np.ndarray:
    """Parse a label file into ``(N,)`` int64 labels, one per data line.

    A line holds ``label`` or ``x y z label``; any other field count raises
    :class:`InputFormatError` naming the line.
    """
    labels = []
    for lineno, tokens in _data_lines(path, InputFormatError):
        if len(tokens) not in (1, 4):
            raise InputFormatError(f"{path}:{lineno}: expected 1 or 4 fields, got {len(tokens)}")
        labels.append(_label(tokens[-1], f"{path}:{lineno}"))
    if not labels:
        raise InputFormatError(f"{path}: no labels")
    return np.asarray(labels, dtype=np.int64)


def write_cloud(path, points: np.ndarray, labels: np.ndarray | None = None) -> None:
    """Write a cloud at 9 significant digits, preserving point order."""
    points = np.asarray(points, dtype=float)
    with Path(path).open("w", encoding="utf-8") as fh:
        for i, (x, y, z) in enumerate(points):
            if labels is None:
                fh.write(f"{x:.9g} {y:.9g} {z:.9g}\n")
            else:
                fh.write(f"{x:.9g} {y:.9g} {z:.9g} {int(labels[i])}\n")


def write_archive(path, tensors: dict[str, np.ndarray]) -> None:
    """Write named tensors as float32; names must be unique (dict keys are).

    A tensor holding a finite value beyond the float32 range, which the cast
    would turn into inf, raises :class:`InputFormatError` naming it before
    the file is opened.  NaN and infinite values are written as they are.
    """
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype=float)
        peak = max(arr.max(), -arr.min()) if arr.size else 0.0  # NaN propagates through both
        if not peak <= _F32_MAX and np.any(np.isfinite(arr) & (np.abs(arr) > _F32_MAX)):
            raise InputFormatError(
                f"tensor {name!r} holds values beyond the float32 range (magnitude {_F32_MAX:.3g})"
            )
    with Path(path).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(tensors)))
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr, dtype=np.float32)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.tobytes())


def _read_exact(fh, count: int, path, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise ArchiveFormatError(f"{path}: truncated while reading {what}")
    return data


def read_archive(path) -> dict[str, np.ndarray]:
    """Read an archive back into a name-to-array dict (float64 values)."""
    path = Path(path)
    out: dict[str, np.ndarray] = {}
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if _read_exact(fh, 4, path, "magic") != MAGIC:
            raise ArchiveFormatError(f"{path}: bad magic, not a tensor archive")
        version, count = struct.unpack("<II", _read_exact(fh, 8, path, "header"))
        if version != VERSION:
            raise ArchiveFormatError(f"{path}: unsupported version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, path, "name length"))
            raw_name = _read_exact(fh, name_len, path, "name")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError:
                raise ArchiveFormatError(f"{path}: tensor name {raw_name!r} is not UTF-8") from None
            if name in out:
                raise ArchiveFormatError(f"{path}: duplicate tensor name {name!r}")
            (rank,) = struct.unpack("<B", _read_exact(fh, 1, path, "rank"))
            dims = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, path, "dims"))
            n_bytes = 4 * math.prod(dims)  # Python ints: a product of u64 dims must not wrap
            left = size - fh.tell()
            if n_bytes > left:
                raise ArchiveFormatError(
                    f"{path}: truncated: {name!r} declares {n_bytes} payload bytes, {left} remain"
                )
            payload = _read_exact(fh, n_bytes, path, f"payload of {name!r}")
            arr = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(dims)
            out[name] = arr
    return out
