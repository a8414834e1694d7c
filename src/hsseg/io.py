"""Cube and label persistence plus run reports.

Cube files use a minimal self-describing binary layout: the ASCII magic
"HSC1", then width, height and bands as unsigned 32-bit little-endian
integers, one sample-type byte (1 = float32, 2 = float64), and the payload
as little-endian floats, band-interleaved by pixel in raster order. An
input is one HSC1 cube or a stack of P5/P2 graymaps, one band per file: a
file whose first four bytes are "HSC1" is a cube, any other a graymap.
Label maps go out as 16-bit binary portable graymaps (P5, maxval 65535)
while they fit, falling back to a single-band HSC1 cube otherwise. Reports
are one-line-per-field text plus an appendable CSV row for sweep curves.
"""

from __future__ import annotations

import os
import re
import struct
from dataclasses import KW_ONLY, dataclass
from pathlib import Path

import numpy as np

from .errors import CubeFormatError
from .grid import LabelMap, SpectralCube

HSC1_MAGIC = b"HSC1"
_GRAYMAP_MAGICS = (b"P5", b"P2")
_HEADER = struct.Struct("<4sIIIB")
_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


def write_cube(cube: SpectralCube, path) -> None:
    """Write a cube in the HSC1 layout as float64, so it round-trips bitwise."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(HSC1_MAGIC, cube.width, cube.height, cube.bands, 2))
        fh.write(cube.data.astype(_DTYPE_CODES[2], copy=False).tobytes())


def _samples(buf: bytes, path, offset: int, dtype: np.dtype, count: int,
             part: str) -> np.ndarray:
    """The count samples of part, "payload" or "raster", which must fill buf from offset."""
    expected = count * dtype.itemsize
    actual = len(buf) - offset
    if actual < expected:
        raise CubeFormatError(
            f"{path}: {part} expects {expected} bytes at offset {offset}, found {actual}")
    if actual > expected:
        raise CubeFormatError(f"{path}: {actual - expected} trailing bytes after {part} "
                              f"at offset {offset + expected}")
    return np.frombuffer(buf, dtype=dtype, count=count, offset=offset)


def _hsc1_samples(path) -> np.ndarray:
    """The (height, width, bands) samples of an HSC1 file in its sample type, all finite."""
    buf = Path(path).read_bytes()
    if len(buf) < _HEADER.size:
        raise CubeFormatError(
            f"{path}: header needs {_HEADER.size} bytes, file ends at byte {len(buf)}"
        )
    magic, width, height, bands, code = _HEADER.unpack_from(buf)
    if magic != HSC1_MAGIC:
        raise CubeFormatError(f"{path}: bad magic {magic!r} at byte 0, expected {HSC1_MAGIC!r}")
    dims = (width, height, bands)
    if 0 in dims:
        # the first zero field: width, height and bands are at bytes 4, 8 and 12
        raise CubeFormatError(f"{path}: zero dimension in header at byte {4 + 4 * dims.index(0)}: "
                              f"width={width} height={height} bands={bands}")
    if code not in _DTYPE_CODES:
        raise CubeFormatError(f"{path}: unknown sample type {code} at byte 16")
    dt = _DTYPE_CODES[code]
    data = _samples(buf, path, _HEADER.size, dt, width * height * bands, "payload")
    finite = np.isfinite(data)
    if not finite.all():
        k = int(np.argmin(finite))
        raise CubeFormatError(
            f"{path}: non-finite sample {data[k]} at byte {_HEADER.size + k * dt.itemsize}")
    return data.reshape(height, width, bands)


def read_cube(path) -> SpectralCube:
    """Read an HSC1 cube; exact inverse of write_cube. Every sample must be finite."""
    # SpectralCube makes the one float64 copy
    return SpectralCube(_hsc1_samples(path))


# ---------------------------------------------------------------------------
# Portable graymaps

# A raster token runs up to netpbm whitespace; the P2 raster has no comments.
_TOKEN = re.compile(rb"[^ \t\r\n]+")
# In the header a "#" also ends a token and opens a comment, which runs to
# the next CR or LF, or to the end of the file when neither follows.
_HEADER_TOKEN = re.compile(rb"#[^\r\n]*|[^ \t\r\n#]+")


def _header_tokens(buf: bytes, path):
    """Yield the header's tokens as matches, with their offsets: the magic, then digits."""
    first = True
    for token in _HEADER_TOKEN.finditer(buf):
        if token[0].startswith(b"#"):
            continue
        # after the magic, decimal digits only: int() would take a sign
        if not (first or token[0].isdigit()):
            raise CubeFormatError(
                f"{path}: non-numeric header token {token[0]!r} at byte {token.start()}")
        yield token
        first = False
    raise CubeFormatError(f"{path}: expected a header token at byte {len(buf)}")


def _read_graymap(path) -> np.ndarray:
    """The (height, width) samples of one P5 or P2 graymap."""
    buf = Path(path).read_bytes()
    header = _header_tokens(buf, path)
    token = next(header)
    magic = token[0]
    if magic not in _GRAYMAP_MAGICS:
        raise CubeFormatError(
            f"{path}: bad magic {magic[:4]!r} at byte {token.start()}, expected P5 or P2")
    tokens = [next(header) for _ in range(3)]
    width, height, maxval = (int(tok[0]) for tok in tokens)
    if 0 in (width, height):
        zero = tokens[(width, height).index(0)]
        raise CubeFormatError(
            f"{path}: zero dimension in header at byte {zero.start()}: {width}x{height}")
    if not 0 < maxval < 65536:
        raise CubeFormatError(
            f"{path}: maxval {maxval} at byte {tokens[2].start()} out of range 1..65535")
    pos = tokens[2].end()
    if buf[pos:pos + 1] == b"#":
        # one whitespace byte must separate a P5 maxval from the raster
        if magic == b"P5":
            start = tokens[2].start()
            raise CubeFormatError(f"{path}: non-numeric header token "
                                  f"{_TOKEN.match(buf, start)[0]!r} at byte {start}")
        pos = min(_HEADER_TOKEN.match(buf, pos).end() + 1, len(buf))
    if magic == b"P5":
        pos = min(pos + 1, len(buf))
        dt = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        samples = _samples(buf, path, pos, dt, width * height, "raster")
    else:
        text = list(_TOKEN.finditer(buf, pos))
        if len(text) < width * height:
            raise CubeFormatError(
                f"{path}: raster expects {width * height} samples after byte {pos}, "
                f"found {len(text)}"
            )
        if len(text) > width * height:
            raise CubeFormatError(f"{path}: {len(text) - width * height} trailing tokens "
                                  f"after raster at byte {text[width * height].start()}")
        bad = next((tok for tok in text if not tok[0].isdigit()), None)
        if bad is not None:
            kind = "negative" if bad[0].startswith(b"-") else "non-integer"
            raise CubeFormatError(f"{path}: {kind} sample {bad[0]!r} at byte {bad.start()}")
        samples = np.array([int(tok[0]) for tok in text])
    if samples.max(initial=0) > maxval:
        k = int(np.argmax(samples > maxval))
        offset = pos + k * samples.itemsize if magic == b"P5" else text[k].start()
        raise CubeFormatError(
            f"{path}: sample {samples[k]} at byte {offset} exceeds declared maxval {maxval}"
        )
    return samples.reshape(height, width)


def _path_list(paths) -> list:
    """paths as a list; one str, bytes or os.PathLike is a single path, not its characters."""
    return [paths] if isinstance(paths, (str, bytes, os.PathLike)) else list(paths)


def read_graymap_stack(paths) -> SpectralCube:
    """Stack per-channel graymaps into a cube; band j comes from file j, or one path."""
    paths = _path_list(paths)
    if not paths:
        raise ValueError("no input files")
    bands = []
    for position, path in enumerate(paths, start=1):
        values = _read_graymap(path)
        if bands and values.shape != bands[0].shape:
            (height, width), (ref_h, ref_w) = values.shape, bands[0].shape
            raise CubeFormatError(
                f"dimension mismatch in file {position} ({path}): "
                f"{width}x{height}, expected {ref_w}x{ref_h}"
            )
        bands.append(values)
    # raw samples stacked; SpectralCube makes the one float64 copy
    return SpectralCube(np.stack(bands, axis=-1))


def _is_hsc1(path) -> bool:
    """Whether a file starts with the HSC1 magic; any other file is read as a graymap."""
    with open(path, "rb") as fh:
        return fh.read(4) == HSC1_MAGIC


def load_cube(paths) -> SpectralCube:
    """The cube of one HSC1 file, or of one or more P5/P2 graymaps stacked by band."""
    paths = _path_list(paths)
    if len(paths) == 1 and _is_hsc1(paths[0]):
        return read_cube(paths[0])
    return read_graymap_stack(paths)


# ---------------------------------------------------------------------------
# Label maps

# A 16-bit P5 label map holds labels 0..65535, so up to this many regions;
# more fall back to a single-band HSC1 cube.
_P5_MAX_REGIONS = 65536


def label_file(labels: LabelMap) -> str:
    """The file name of labels in write_labels' format: labels.pgm or labels.hsc."""
    return "labels.pgm" if labels.count <= _P5_MAX_REGIONS else "labels.hsc"


def write_labels(labels: LabelMap, path) -> None:
    """Write labels as a 16-bit P5 when they fit, else as a single-band HSC1 cube."""
    if labels.count <= _P5_MAX_REGIONS:
        with open(path, "wb") as fh:
            fh.write(f"P5\n{labels.width} {labels.height}\n65535\n".encode("ascii"))
            fh.write(labels.labels.astype(">u2").tobytes())
    else:
        write_cube(SpectralCube(labels.labels.astype(np.float64)[:, :, None]), path)


def read_label_values(path) -> np.ndarray:
    """Raw integer label grid from a P5/P2 graymap or single-band int64-valued HSC1 file."""
    if not _is_hsc1(path):
        return _read_graymap(path).astype(np.int64)
    samples = _hsc1_samples(path)
    if samples.shape[2] != 1:
        raise CubeFormatError(
            f"{path}: label cube must have one band, found {samples.shape[2]} at byte 12")
    values = samples[:, :, 0]
    rounded = np.rint(values)
    if not np.array_equal(rounded, values):
        k = int(np.argmax(rounded != values))
        raise CubeFormatError(f"{path}: label cube holds non-integer value {values.flat[k]!s} "
                              f"at byte {_HEADER.size + k * values.itemsize}")
    outside = (rounded < -2.0 ** 63) | (rounded >= 2.0 ** 63)
    if outside.any():
        k = int(np.argmax(outside))
        raise CubeFormatError(f"{path}: label {values.flat[k]!s} at byte "
                              f"{_HEADER.size + k * values.itemsize} is outside the int64 range")
    return rounded.astype(np.int64)


# ---------------------------------------------------------------------------
# Run reports

@dataclass(frozen=True)
class SegmentationReport:
    """The label map of one segmentation run and the parameters that made it."""

    labels: LabelMap
    _: KW_ONLY
    algorithm: str                 # "flat" | "eta" | "mu"
    metric: str
    lam: float
    param: float | None            # eta or mu value; None for flat runs
    connectivity: int
    seed_order: str | None         # None for flat runs
    millis: float


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _fields(report: SegmentationReport, *, sizes: bool) -> dict[str, str]:
    """The report's fields in file order as text; region_sizes only if sizes."""
    fields = {"algorithm": report.algorithm, "metric": report.metric,
              "lambda": _fmt(report.lam), "param": _fmt(report.param),
              "connectivity": _fmt(report.connectivity),
              "seed_order": _fmt(report.seed_order), "regions": _fmt(report.labels.count)}
    if sizes:
        fields["region_sizes"] = " ".join(map(str, report.labels.sizes.tolist()))
    fields["millis"] = f"{report.millis:.3f}"
    return fields


def write_report(report: SegmentationReport, path) -> None:
    """Write the one-line-per-field text report, noting labels too many for a P5 map."""
    lines = [f"{name}: {text}" for name, text in _fields(report, sizes=True).items()]
    if report.labels.count > _P5_MAX_REGIONS:
        lines.append("labels_format: hsc1")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def append_sweep_row(report: SegmentationReport, path) -> None:
    """Append one CSV row, writing the header first on a fresh or empty file."""
    fields = _fields(report, sizes=False)
    with open(path, "a", encoding="ascii") as fh:
        if fh.tell() == 0:  # append mode opens at the end
            fh.write(",".join(fields) + "\n")
        fh.write(",".join(fields.values()) + "\n")
