import numpy as np
import pytest

from hsseg import (BadHeaderError, BadMagicError, CubeFormatError, LabelMap,
                   SegmentationReport, SpectralCube, TruncatedFileError,
                   append_sweep_row, read_cube, read_graymap_stack,
                   read_labels, relabel_dense, write_cube, write_labels,
                   write_report)
from hsseg.io import read_label_values


def test_cube_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(11)
    for i in range(5):
        cube = SpectralCube(rng.uniform(-4, 9, size=(3 + i, 2 + i, 1 + i)))
        path = tmp_path / f"c{i}.hsc"
        write_cube(cube, path)
        back = read_cube(path)
        assert back.data.tobytes() == cube.data.tobytes()


def test_cube_roundtrip_float32(tmp_path):
    cube = SpectralCube(np.array([[[0.1, 0.2]]]))
    path = tmp_path / "c.hsc"
    write_cube(cube, path, dtype="float32")
    back = read_cube(path)
    assert np.array_equal(back.data, cube.data.astype(np.float32).astype(np.float64))
    with pytest.raises(ValueError):
        write_cube(cube, path, dtype="int8")


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.hsc"
    path.write_bytes(b"XXXX" + bytes(13))
    with pytest.raises(BadMagicError, match="byte 0"):
        read_cube(path)


def test_truncated_payload(tmp_path):
    cube = SpectralCube(np.zeros((1, 2, 4)))
    path = tmp_path / "t.hsc"
    write_cube(cube, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 8])  # drop one band's worth
    with pytest.raises(TruncatedFileError, match="offset 17"):
        read_cube(path)


def test_trailing_bytes_rejected(tmp_path):
    cube = SpectralCube(np.zeros((1, 1, 1)))
    path = tmp_path / "x.hsc"
    write_cube(cube, path)
    path.write_bytes(path.read_bytes() + b"zz")
    with pytest.raises(CubeFormatError, match="trailing"):
        read_cube(path)


def test_zero_dims_and_short_header(tmp_path):
    path = tmp_path / "z.hsc"
    import struct
    path.write_bytes(struct.pack("<4sIIIB", b"HSC1", 0, 3, 1, 2))
    with pytest.raises(BadHeaderError, match="byte 4"):
        read_cube(path)
    path.write_bytes(b"HSC1\x01")
    with pytest.raises(TruncatedFileError):
        read_cube(path)
    path.write_bytes(struct.pack("<4sIIIB", b"HSC1", 1, 1, 1, 7))
    with pytest.raises(BadHeaderError, match="sample type 7"):
        read_cube(path)


def test_labels_p5_bytes(tmp_path):
    labels = LabelMap(np.array([[0, 1], [2, 3]]))
    path = tmp_path / "l.pgm"
    assert write_labels(labels, path) == "p5"
    blob = path.read_bytes()
    header = b"P5\n2 2\n65535\n"
    assert blob == header + b"\x00\x00\x00\x01\x00\x02\x00\x03"


def test_labels_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    for i in range(5):
        raw = rng.integers(0, 6, size=(4 + i, 3 + i))
        labels = relabel_dense(raw)
        path = tmp_path / f"l{i}.pgm"
        write_labels(labels, path)
        back = read_labels(path)
        assert np.array_equal(back.labels, labels.labels)
        assert back.count == labels.count


def test_labels_hsc1_fallback(tmp_path):
    # more distinct labels than a 16-bit graymap can carry
    big = relabel_dense(np.arange(257 * 256).reshape(257, 256))
    path = tmp_path / "big.labels"
    assert write_labels(big, path) == "hsc1"
    back = read_labels(path)
    assert np.array_equal(back.labels, big.labels)


def test_read_label_values_rejects_fractional_cube(tmp_path):
    cube = SpectralCube(np.array([[[0.5]]]))
    path = tmp_path / "frac.hsc"
    write_cube(cube, path)
    with pytest.raises(CubeFormatError, match="non-integer"):
        read_label_values(path)


def test_graymap_stack(tmp_path):
    paths = []
    for j in range(2):
        p = tmp_path / f"band{j}.pgm"
        samples = np.arange(9, dtype=np.uint8) + 10 * j
        p.write_bytes(b"P5\n3 3\n255\n" + samples.tobytes())
        paths.append(p)
    cube = read_graymap_stack(paths)
    assert (cube.width, cube.height, cube.bands) == (3, 3, 2)
    assert cube.data[1, 2, 0] == 5.0
    assert cube.data[1, 2, 1] == 15.0


def test_graymap_stack_single_file(tmp_path):
    p = tmp_path / "one.pgm"
    p.write_bytes(b"P5\n2 1\n255\n\x07\x09")
    cube = read_graymap_stack([p])
    assert cube.data[:, :, 0].tolist() == [[7.0, 9.0]]


def test_graymap_stack_dimension_mismatch(tmp_path):
    a = tmp_path / "a.pgm"
    a.write_bytes(b"P5\n2 1\n255\n\x00\x01")
    b = tmp_path / "b.pgm"
    b.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(CubeFormatError, match="file 2"):
        read_graymap_stack([a, b])
    with pytest.raises(ValueError):
        read_graymap_stack([])


def test_p2_with_comments(tmp_path):
    p = tmp_path / "ascii.pgm"
    p.write_bytes(b"P2\n# a comment\n3 1\n# another\n20\n5 10 20\n")
    cube = read_graymap_stack([p])
    assert cube.data[0, :, 0].tolist() == [5.0, 10.0, 20.0]


def test_p2_rejects_non_integer_and_negative_samples(tmp_path):
    bad = tmp_path / "word.pgm"
    bad.write_bytes(b"P2 2 1 9\nx 4\n")
    with pytest.raises(CubeFormatError, match=r"word\.pgm: non-integer sample b'x' at byte 9"):
        read_graymap_stack([bad])
    neg = tmp_path / "neg.pgm"
    neg.write_bytes(b"P2\n# c\n2 1 9\n4 -3\n")
    with pytest.raises(CubeFormatError, match=r"neg\.pgm: negative sample b'-3' at byte 15"):
        read_graymap_stack([neg])
    frac = tmp_path / "frac.pgm"
    frac.write_bytes(b"P2 2 1 9 4 2.5")
    with pytest.raises(CubeFormatError, match="non-integer sample b'2.5' at byte 11"):
        read_label_values(frac)


def test_sixteen_bit_graymap(tmp_path):
    p = tmp_path / "deep.pgm"
    p.write_bytes(b"P5\n2 1\n65535\n" + bytes([0x01, 0x00, 0x02, 0x03]))
    cube = read_graymap_stack([p])
    assert cube.data[0, :, 0].tolist() == [256.0, 2 * 256 + 3.0]


def test_graymap_errors(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P7\n1 1\n255\n\x00")
    with pytest.raises(BadMagicError):
        read_graymap_stack([bad])
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n2 2\n255\n\x00")
    with pytest.raises(TruncatedFileError):
        read_graymap_stack([short])


def _report(**overrides):
    fields = dict(algorithm="flat", metric="euclidean", lam=9.9, param=None,
                  connectivity=4, seed_order=None, regions=2,
                  region_sizes=(3, 1), millis=1.5)
    fields.update(overrides)
    return SegmentationReport(**fields)


def test_report_invariants():
    with pytest.raises(ValueError):
        _report(regions=3)
    with pytest.raises(ValueError):
        _report(region_sizes=(3, 0))
    assert _report().pixel_count == 4


def test_report_from_labels():
    labels = LabelMap(np.array([[0, 0, 1], [0, 1, 1]]))
    rep = SegmentationReport.from_labels(
        labels, algorithm="eta", metric="chi2", lam=float("inf"), param=0.5,
        connectivity=8, seed_order="median", millis=2.0)
    assert rep.regions == 2 and rep.region_sizes == (3, 3)
    assert rep.pixel_count == 6


def test_write_report_text(tmp_path):
    path = tmp_path / "report.txt"
    write_report(_report(), path, extra=["labels_format: p5"])
    text = path.read_text()
    assert "algorithm: flat\n" in text
    assert "lambda: 9.9\n" in text
    assert "param: \n" in text
    assert "regions: 2\n" in text
    assert "region_sizes: 3 1\n" in text
    assert text.endswith("labels_format: p5\n")


def test_sweep_csv_idempotent_header(tmp_path):
    path = tmp_path / "sweep.csv"
    append_sweep_row(_report(), path)
    append_sweep_row(_report(regions=1, region_sizes=(4,)), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "algorithm,metric,lambda,param,connectivity,seed_order,regions,millis"
    assert len(lines) == 3
    assert lines[1].startswith("flat,euclidean,9.9,,4,,2,")
    assert sum(1 for ln in lines if ln.startswith("algorithm,")) == 1


def test_infinite_lambda_formatting(tmp_path):
    path = tmp_path / "sweep.csv"
    append_sweep_row(_report(lam=float("inf")), path)
    assert ",inf," in path.read_text().splitlines()[1]
