"""Cube and label persistence plus run reports.

Cube files use a minimal self-describing binary layout: the ASCII magic
"HSC1", then width, height and bands as unsigned 32-bit little-endian
integers, one sample-type byte (1 = float32, 2 = float64), and the payload
as little-endian floats, band-interleaved by pixel in raster order. An
input is one HSC1 cube or a stack of P5/P2 graymaps, one band per file;
the first bytes of a file decide which. Label maps go out as 16-bit binary
portable graymaps (P5, maxval 65535) while they fit, falling back to a
single-band HSC1 cube otherwise. Reports are one-line-per-field text plus
an appendable CSV row for sweep curves.
"""

from __future__ import annotations

import itertools
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadHeaderError, BadMagicError, CubeFormatError, TruncatedFileError
from .grid import LabelMap, SpectralCube, region_sizes

HSC1_MAGIC = b"HSC1"
_GRAYMAP_MAGICS = (b"P5", b"P2")
_HEADER = struct.Struct("<4sIIIB")
_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_OF = {"float32": 1, "float64": 2}

CSV_COLUMNS = ("algorithm", "metric", "lambda", "param",
               "connectivity", "seed_order", "regions", "millis")


def write_cube(cube: SpectralCube, path, *, dtype: str = "float64") -> None:
    """Write a cube in the HSC1 layout; float64 round-trips bitwise."""
    if dtype not in _CODE_OF:
        raise ValueError(f"dtype must be float32 or float64, got {dtype!r}")
    code = _CODE_OF[dtype]
    payload = cube.data.astype(_DTYPE_CODES[code], copy=False)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(HSC1_MAGIC, cube.width, cube.height, cube.bands, code))
        fh.write(payload.tobytes())


def read_cube(path) -> SpectralCube:
    """Read an HSC1 cube; exact inverse of write_cube. Every sample must be finite."""
    buf = Path(path).read_bytes()
    if len(buf) < _HEADER.size:
        raise TruncatedFileError(
            f"{path}: header needs {_HEADER.size} bytes, file ends at byte {len(buf)}"
        )
    magic, width, height, bands, code = _HEADER.unpack_from(buf)
    if magic != HSC1_MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r} at byte 0, expected {HSC1_MAGIC!r}")
    if width == 0 or height == 0 or bands == 0:
        raise BadHeaderError(
            f"{path}: zero dimension in header at byte 4: "
            f"width={width} height={height} bands={bands}"
        )
    if code not in _DTYPE_CODES:
        raise BadHeaderError(f"{path}: unknown sample type {code} at byte 16")
    dt = _DTYPE_CODES[code]
    expected = width * height * bands * dt.itemsize
    actual = len(buf) - _HEADER.size
    if actual < expected:
        raise TruncatedFileError(
            f"{path}: payload expects {expected} bytes at offset {_HEADER.size}, found {actual}"
        )
    if actual > expected:
        raise CubeFormatError(
            f"{path}: {actual - expected} trailing bytes after payload "
            f"at offset {_HEADER.size + expected}"
        )
    data = np.frombuffer(buf, dtype=dt, count=width * height * bands, offset=_HEADER.size)
    finite = np.isfinite(data)
    if not finite.all():
        k = int(np.argmin(finite))
        raise CubeFormatError(
            f"{path}: non-finite sample {data[k]} at byte {_HEADER.size + k * dt.itemsize}")
    # SpectralCube makes the one float64 copy
    return SpectralCube(data.reshape(height, width, bands))


# ---------------------------------------------------------------------------
# Portable graymaps

def _next_token(buf: bytes, pos: int, path) -> tuple[bytes, int]:
    while pos < len(buf):
        ch = buf[pos]
        if ch in b" \t\r\n":
            pos += 1
        elif ch == ord("#"):
            nl = buf.find(b"\n", pos)
            pos = len(buf) if nl < 0 else nl + 1
        else:
            break
    start = pos
    while pos < len(buf) and buf[pos] not in b" \t\r\n":
        pos += 1
    if start == pos:
        raise TruncatedFileError(f"{path}: expected a header token at byte {start}")
    return buf[start:pos], pos


def _token_offset(buf: bytes, pos: int, k: int) -> int:
    """Byte offset of the k-th whitespace-separated token at or after pos."""
    tokens = re.finditer(rb"\S+", buf[pos:])
    return pos + next(itertools.islice(tokens, k, None)).start()


def _read_graymap(path) -> tuple[int, int, np.ndarray]:
    buf = Path(path).read_bytes()
    magic, pos = _next_token(buf, 0, path)
    if magic not in _GRAYMAP_MAGICS:
        raise BadMagicError(f"{path}: bad magic {magic!r} at byte 0, expected P5 or P2")
    fields, starts = [], []
    for _ in range(3):
        tok, pos = _next_token(buf, pos, path)
        starts.append(pos - len(tok))
        if not tok.isdigit():
            raise BadHeaderError(f"{path}: non-numeric header token {tok!r} at byte {starts[-1]}")
        fields.append(int(tok))
    width, height, maxval = fields
    if width == 0 or height == 0:
        raise BadHeaderError(
            f"{path}: zero dimension in header at byte {starts[0]}: {width}x{height}"
        )
    if not 0 < maxval < 65536:
        raise BadHeaderError(f"{path}: maxval {maxval} at byte {starts[2]} out of range 1..65535")
    if magic == b"P5":
        pos += 1  # single whitespace byte separates maxval from the raster
        dt = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        expected = width * height * dt.itemsize
        if len(buf) - pos < expected:
            raise TruncatedFileError(
                f"{path}: raster expects {expected} bytes at offset {pos}, "
                f"found {len(buf) - pos}"
            )
        if len(buf) - pos > expected:
            raise CubeFormatError(f"{path}: {len(buf) - pos - expected} trailing bytes "
                                  f"after raster at offset {pos + expected}")
        samples = np.frombuffer(buf, dtype=dt, count=width * height, offset=pos)
    else:
        text = buf[pos:].split()
        if len(text) < width * height:
            raise TruncatedFileError(
                f"{path}: raster expects {width * height} samples after byte {pos}, "
                f"found {len(text)}"
            )
        if len(text) > width * height:
            offset = _token_offset(buf, pos, width * height)
            raise CubeFormatError(f"{path}: {len(text) - width * height} trailing tokens "
                                  f"after raster at byte {offset}")
        bad = next((k for k, tok in enumerate(text) if not tok.isdigit()), None)
        if bad is not None:
            offset = _token_offset(buf, pos, bad)
            kind = "negative" if text[bad].startswith(b"-") else "non-integer"
            raise CubeFormatError(f"{path}: {kind} sample {text[bad]!r} at byte {offset}")
        samples = np.array([int(t) for t in text])
    if samples.max(initial=0) > maxval:
        k = int(np.argmax(samples > maxval))
        offset = pos + k * samples.itemsize if magic == b"P5" else _token_offset(buf, pos, k)
        raise BadHeaderError(
            f"{path}: sample {samples[k]} at byte {offset} exceeds declared maxval {maxval}"
        )
    return width, height, samples.reshape(height, width)


def read_graymap_stack(paths) -> SpectralCube:
    """Stack per-channel graymaps into a cube; band j comes from file j."""
    paths = list(paths)
    if not paths:
        raise ValueError("no input files")
    bands = []
    ref = None
    for position, path in enumerate(paths, start=1):
        width, height, values = _read_graymap(path)
        if ref is None:
            ref = (width, height)
        elif (width, height) != ref:
            raise CubeFormatError(
                f"dimension mismatch in file {position} ({path}): "
                f"{width}x{height}, expected {ref[0]}x{ref[1]}"
            )
        bands.append(values)
    # raw samples stacked; SpectralCube makes the one float64 copy
    return SpectralCube(np.stack(bands, axis=-1))


def _head(path) -> bytes:
    """The first four bytes of a file, where every format here has its magic."""
    with open(path, "rb") as fh:
        return fh.read(4)


def load_cube(paths) -> SpectralCube:
    """The cube of one HSC1 file, or of one or more P5/P2 graymaps stacked by band."""
    if not paths:
        raise ValueError("no input file given")
    if len(paths) > 1:
        return read_graymap_stack(paths)
    head = _head(paths[0])
    if head == HSC1_MAGIC:
        return read_cube(paths[0])
    if head[:2] in _GRAYMAP_MAGICS:
        return read_graymap_stack(paths)
    raise CubeFormatError(f"{paths[0]}: unrecognized input format {head!r}")


# ---------------------------------------------------------------------------
# Label maps

# A 16-bit P5 label map holds labels 0..65535, so up to this many regions;
# more fall back to a single-band HSC1 cube.
_P5_MAX_REGIONS = 65536


def label_format(labels: LabelMap) -> str:
    """The format write_labels uses for labels: "p5" while they fit, else "hsc1"."""
    return "p5" if labels.count <= _P5_MAX_REGIONS else "hsc1"


def write_labels(labels: LabelMap, path) -> str:
    """Write labels as 16-bit P5 when they fit, else as a single-band HSC1.

    Returns the format used, label_format(labels), so callers can note fallbacks.
    """
    if label_format(labels) == "p5":
        samples = labels.labels.astype(">u2")
        with open(path, "wb") as fh:
            fh.write(f"P5\n{labels.width} {labels.height}\n65535\n".encode("ascii"))
            fh.write(samples.tobytes())
        return "p5"
    cube = SpectralCube(labels.labels.astype(np.float64)[:, :, None])
    write_cube(cube, path)
    return "hsc1"


def read_label_values(path) -> np.ndarray:
    """Raw integer label grid from a P5/P2 graymap or single-band HSC1 file."""
    if _head(path)[:2] in _GRAYMAP_MAGICS:
        _, _, values = _read_graymap(path)
        return values.astype(np.int64)
    cube = read_cube(path)
    if cube.bands != 1:
        raise CubeFormatError(f"{path}: label cube must have one band, found {cube.bands}")
    values = cube.data[:, :, 0]
    rounded = np.rint(values)
    if not np.array_equal(rounded, values):
        raise CubeFormatError(f"{path}: label cube holds non-integer values")
    return rounded.astype(np.int64)


def read_labels(path) -> LabelMap:
    """Read a label map written by write_labels (labels must be dense)."""
    return LabelMap(read_label_values(path))


# ---------------------------------------------------------------------------
# Run reports

@dataclass(frozen=True)
class SegmentationReport:
    """Parameters and outcome of one segmentation run."""

    algorithm: str                 # "flat" | "eta" | "mu"
    metric: str
    lam: float
    param: float | None            # eta or mu value; None for flat runs
    connectivity: int
    seed_order: str | None         # None for flat runs
    region_sizes: tuple[int, ...]
    millis: float

    def __post_init__(self):
        if min(self.region_sizes, default=1) < 1:
            raise ValueError("region sizes must be positive")

    @property
    def regions(self) -> int:
        return len(self.region_sizes)

    @classmethod
    def from_labels(cls, labels: LabelMap, *, algorithm, metric, lam, param,
                    connectivity, seed_order, millis) -> "SegmentationReport":
        sizes = tuple(region_sizes(labels).tolist())
        return cls(algorithm=algorithm, metric=metric, lam=lam, param=param,
                   connectivity=connectivity, seed_order=seed_order,
                   region_sizes=sizes, millis=millis)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def write_report(report: SegmentationReport, path, *, extra=()) -> None:
    """Write the one-line-per-field text report; `extra` appends note lines."""
    lines = [
        f"algorithm: {report.algorithm}",
        f"metric: {report.metric}",
        f"lambda: {_fmt(report.lam)}",
        f"param: {_fmt(report.param)}",
        f"connectivity: {report.connectivity}",
        f"seed_order: {_fmt(report.seed_order)}",
        f"regions: {report.regions}",
        "region_sizes: " + " ".join(map(str, report.region_sizes)),
        f"millis: {report.millis:.3f}",
    ]
    lines.extend(extra)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def append_sweep_row(report: SegmentationReport, path) -> None:
    """Append one CSV row, writing the header first on a fresh or empty file."""
    path = Path(path)
    needs_header = not path.exists() or path.stat().st_size == 0
    row = (report.algorithm, report.metric, _fmt(report.lam), _fmt(report.param),
           str(report.connectivity), _fmt(report.seed_order),
           str(report.regions), f"{report.millis:.3f}")
    with open(path, "a", encoding="ascii") as fh:
        if needs_header:
            fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.write(",".join(row) + "\n")
