import dataclasses
import re
import struct

import numpy as np
import pytest

from hsseg import (CubeFormatError, LabelMap, SegmentationReport, SpectralCube,
                   append_sweep_row, read_cube, read_graymap_stack, relabel_dense,
                   write_cube, write_labels, write_report)
from hsseg.io import label_file, load_cube, read_label_values


def test_cube_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(11)
    for i in range(5):
        cube = SpectralCube(rng.uniform(-4, 9, size=(3 + i, 2 + i, 1 + i)))
        path = tmp_path / f"c{i}.hsc"
        write_cube(cube, path)
        back = read_cube(path)
        assert back.data.tobytes() == cube.data.tobytes()


def test_cube_roundtrip_float32(tmp_path):
    # write_cube writes float64 only; a float32 cube (sample type 1) is read
    # as its samples widened to float64
    samples = np.array([0.1, 0.2, -3.5, 7.25, 1e-3, 6e4], dtype="<f4")
    path = tmp_path / "c.hsc"
    path.write_bytes(struct.pack("<4sIIIB", b"HSC1", 3, 1, 2, 1) + samples.tobytes())
    back = read_cube(path)
    assert back.data.dtype == np.float64
    assert np.array_equal(back.data, samples.astype(np.float64).reshape(1, 3, 2))


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.hsc"
    path.write_bytes(b"XXXX" + bytes(13))
    with pytest.raises(CubeFormatError, match=r"bad\.hsc: bad magic b'XXXX' at byte 0"):
        read_cube(path)


def test_truncated_payload(tmp_path):
    cube = SpectralCube(np.zeros((1, 2, 4)))
    path = tmp_path / "t.hsc"
    write_cube(cube, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 8])  # drop one band's worth
    with pytest.raises(CubeFormatError,
                       match=r"t\.hsc: payload expects 64 bytes at offset 17, found 56"):
        read_cube(path)


def test_trailing_bytes_rejected(tmp_path):
    cube = SpectralCube(np.zeros((1, 1, 1)))
    path = tmp_path / "x.hsc"
    write_cube(cube, path)
    path.write_bytes(path.read_bytes() + b"zz")
    with pytest.raises(CubeFormatError,
                       match=r"x\.hsc: 2 trailing bytes after payload at offset 25"):
        read_cube(path)


@pytest.mark.parametrize("dtype, size", [("<f8", 8), ("<f4", 4)])
def test_non_finite_sample_is_a_format_error(tmp_path, dtype, size):
    # a 2x3 cube of 2 bands: the message names the file and the first
    # non-finite sample's byte offset, 17 + index * itemsize
    path = tmp_path / "nf.hsc"
    for bad, first in (((5,), 5), ((7, 3), 3), ((11,), 11), ((0, 11), 0)):
        for value in (np.nan, np.inf, -np.inf):
            data = np.arange(12, dtype=dtype)
            data[list(bad)] = value
            code = 2 if size == 8 else 1
            path.write_bytes(struct.pack("<4sIIIB", b"HSC1", 3, 2, 2, code) + data.tobytes())
            with pytest.raises(CubeFormatError,
                               match=rf"nf\.hsc: non-finite sample -?(nan|inf) at byte "
                                     rf"{17 + first * size}$"):
                read_cube(path)
            # a label cube is read the same way
            with pytest.raises(CubeFormatError, match="non-finite sample"):
                read_label_values(path)


def test_zero_dims_and_short_header(tmp_path):
    path = tmp_path / "z.hsc"
    path.write_bytes(struct.pack("<4sIIIB", b"HSC1", 0, 3, 1, 2))
    with pytest.raises(CubeFormatError, match=r"z\.hsc: zero dimension in header at byte 4"):
        read_cube(path)
    # the first zero field is named: height at byte 8, bands at byte 12
    for dims, byte in (((3, 0, 1), 8), ((2, 2, 0), 12), ((2, 0, 0), 8)):
        path.write_bytes(struct.pack("<4sIIIB", b"HSC1", *dims, 2))
        w, h, b = dims
        with pytest.raises(CubeFormatError,
                           match=rf"z\.hsc: zero dimension in header at byte {byte}: "
                                 rf"width={w} height={h} bands={b}$"):
            read_cube(path)
    path.write_bytes(b"HSC1\x01")
    with pytest.raises(CubeFormatError,
                       match=r"z\.hsc: header needs 17 bytes, file ends at byte 5"):
        read_cube(path)
    path.write_bytes(struct.pack("<4sIIIB", b"HSC1", 1, 1, 1, 7))
    with pytest.raises(CubeFormatError, match=r"z\.hsc: unknown sample type 7 at byte 16"):
        read_cube(path)


def test_labels_p5_bytes(tmp_path):
    labels = LabelMap(np.array([[0, 1], [2, 3]]))
    path = tmp_path / "l.pgm"
    assert label_file(labels) == "labels.pgm"
    write_labels(labels, path)
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
        back = LabelMap(read_label_values(path))
        assert np.array_equal(back.labels, labels.labels)
        assert back.count == labels.count


def test_labels_hsc1_fallback(tmp_path):
    # more distinct labels than a 16-bit graymap can carry
    big = relabel_dense(np.arange(257 * 256).reshape(257, 256))
    path = tmp_path / "big.labels"
    assert label_file(big) == "labels.hsc"
    write_labels(big, path)
    back = LabelMap(read_label_values(path))
    assert np.array_equal(back.labels, big.labels)


def test_read_label_values_rejects_fractional_cube(tmp_path):
    cube = SpectralCube(np.array([[[0.5]]]))
    path = tmp_path / "frac.hsc"
    write_cube(cube, path)
    with pytest.raises(CubeFormatError, match="non-integer"):
        read_label_values(path)
    # the message names the first non-integer label and its byte, 17 + index * size
    for dtype, size in (("<f8", 8), ("<f4", 4)):
        data = np.array([3.0, -2.0, 7.25, 0.5], dtype=dtype)
        path.write_bytes(struct.pack("<4sIIIB", b"HSC1", 2, 2, 1, size // 4) + data.tobytes())
        with pytest.raises(CubeFormatError,
                           match=rf"frac\.hsc: label cube holds non-integer value 7\.25 "
                                 rf"at byte {17 + 2 * size}$"):
            read_label_values(path)


@pytest.mark.parametrize("dtype, size", [("<f8", 8), ("<f4", 4)])
def test_label_cube_outside_int64_is_a_format_error(tmp_path, dtype, size):
    # int64 would turn 2**63 and above into INT64_MIN and merge the regions;
    # the message names the first such value's byte offset, 17 + index * size
    path = tmp_path / "huge.hsc"
    for values, first in (([1e19, 2e19, 3.0], 0), ([3.0, -1e19, 2.0**63], 1),
                          ([0.0, 1.0, 2.0**63], 2)):
        data = np.array(values, dtype=dtype)
        path.write_bytes(struct.pack("<4sIIIB", b"HSC1", 3, 1, 1, size // 4) + data.tobytes())
        with pytest.raises(CubeFormatError,
                           match=rf"huge\.hsc: label {re.escape(str(data[first]))} at byte "
                                 rf"{17 + first * size} is outside the int64 range$"):
            read_label_values(path)
    # -2**63 itself is an int64
    data = np.array([-2.0**63, 2.0**62], dtype=dtype)
    path.write_bytes(struct.pack("<4sIIIB", b"HSC1", 2, 1, 1, size // 4) + data.tobytes())
    assert read_label_values(path).tolist() == [[-2**63, 2**62]]


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


def test_input_is_hsc1_by_its_magic_and_a_graymap_otherwise(tmp_path):
    # whitespace and a comment before a single graymap's magic, as in a stack
    lead = tmp_path / "lead.pgm"
    lead.write_bytes(b"  \n# c\nP2 1 1 5 3")
    assert load_cube([lead]).data.ravel().tolist() == [3.0]
    assert read_label_values(lead).tolist() == [[3]]
    cube = tmp_path / "cube.hsc"
    write_cube(SpectralCube(np.full((1, 1, 2), 4.0)), cube)
    assert load_cube([cube]).data.ravel().tolist() == [4.0, 4.0]
    # one str or path-like is one file, not a sequence of its characters
    for path in (str(cube), cube):
        assert load_cube(path).data.ravel().tolist() == [4.0, 4.0]
    for path in (str(lead), lead):
        assert load_cube(path).data.ravel().tolist() == [3.0]
        assert read_graymap_stack(path).data.ravel().tolist() == [3.0]
    # neither: a graymap with a bad magic, naming the file
    blob = tmp_path / "blob.bin"
    blob.write_bytes(b"HSC0" + bytes(20))
    for read in (lambda p: load_cube([p]), read_label_values):
        with pytest.raises(CubeFormatError, match=r"blob\.bin: bad magic b'HSC0' at byte 0"):
            read(blob)


def test_p2_with_comments(tmp_path):
    p = tmp_path / "ascii.pgm"
    p.write_bytes(b"P2\n# a comment\n3 1\n# another\n20\n5 10 20\n")
    cube = read_graymap_stack([p])
    assert cube.data[0, :, 0].tolist() == [5.0, 10.0, 20.0]


def test_header_comments_glued_to_tokens(tmp_path):
    # a "#" right after the magic, width, height or a P2 maxval opens a
    # comment, which a CR ends as an LF does
    p = tmp_path / "glued.pgm"
    for blob in (b"P2\n2 1\n9# max\n3 4\n", b"P2\n2#w\n1 9\n3 4\n",
                 b"P2# plain\n2 1# h\n9\n3 4\n", b"P2 2 1 9#\n3 4",
                 b"P2\r# c\r2 1 9\r3 4\r", b"P2\r2 1 9#c\r3 4\r",
                 b"P2 2#w\r\n1 9#\r3 4"):
        p.write_bytes(blob)
        assert read_graymap_stack([p]).data.ravel().tolist() == [3.0, 4.0]
    p.write_bytes(b"P5#raw\n2#w\n1#h\n255\n\x03\x04")
    assert read_graymap_stack([p]).data.ravel().tolist() == [3.0, 4.0]
    p.write_bytes(b"P5#raw\r2#w\r1#h\r255\n\x03\x04")
    assert read_graymap_stack([p]).data.ravel().tolist() == [3.0, 4.0]
    # a P5 maxval is followed by exactly one whitespace byte, so "#" is part of it
    p.write_bytes(b"P5\n2 1\n255#c\n\x03\x04")
    with pytest.raises(CubeFormatError,
                       match=r"glued\.pgm: non-numeric header token b'255#c' at byte 7"):
        read_graymap_stack([p])


def test_p2_rejects_non_integer_and_negative_samples(tmp_path):
    bad = tmp_path / "word.pgm"
    bad.write_bytes(b"P2 2 1 9\nx 4\n")
    with pytest.raises(CubeFormatError, match=r"word\.pgm: non-integer sample b'x' at byte 9"):
        read_graymap_stack([bad])
    # netpbm whitespace is blank, TAB, CR and LF: a vertical tab or a form feed
    # joins two samples into one token
    for sep in (b"\x0b", b"\x0c"):
        bad.write_bytes(b"P2 3 1 9\n7 1" + sep + b"2 4\n")
        with pytest.raises(CubeFormatError, match=r"word\.pgm: non-integer sample "
                                                  r"b'1\\x0[bc]2' at byte 11"):
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
    with pytest.raises(CubeFormatError, match=r"bad\.pgm: bad magic b'P7' at byte 0"):
        read_graymap_stack([bad])
    # the magic token's own offset, and at most four of its bytes
    bad.write_bytes(b"# c\n P7\n1 1\n255\n\x00")
    with pytest.raises(CubeFormatError, match=r"bad magic b'P7' at byte 5, expected P5 or P2"):
        read_graymap_stack([bad])
    bad.write_bytes(b"\x00\x01\x02\x03" * 100)
    with pytest.raises(CubeFormatError, match=r"bad magic b'\\x00\\x01\\x02\\x03' at byte 0,"):
        read_graymap_stack([bad])
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n2 2\n255\n\x00")
    with pytest.raises(CubeFormatError,
                       match=r"short\.pgm: raster expects 4 bytes at offset 11, found 1"):
        read_graymap_stack([short])
    # a file that ends right after maxval has no separator byte either
    short.write_bytes(b"P5 1 1 255")
    with pytest.raises(CubeFormatError,
                       match=r"short\.pgm: raster expects 1 bytes at offset 10, found 0"):
        read_graymap_stack([short])
    # a P2 raster with fewer samples than the header announces
    short.write_bytes(b"P2 2 1 9 3")
    with pytest.raises(CubeFormatError,
                       match=r"short\.pgm: raster expects 2 samples after byte 8, found 1$"):
        read_graymap_stack([short])
    header = tmp_path / "header.pgm"
    header.write_bytes(b"P5\n2 1")
    with pytest.raises(CubeFormatError,
                       match=r"header\.pgm: expected a header token at byte 6"):
        read_graymap_stack([header])
    # a comment that runs to the end of the file leaves the header short
    header.write_bytes(b"P5\n2 1 # maxval follows")
    with pytest.raises(CubeFormatError,
                       match=r"header\.pgm: expected a header token at byte 23"):
        read_graymap_stack([header])
    header.write_bytes(b"# only a comment\n")
    with pytest.raises(CubeFormatError,
                       match=r"header\.pgm: expected a header token at byte 17"):
        read_graymap_stack([header])
    # int() would take a sign; a header field is decimal digits only
    header.write_bytes(b"P5\n-2 1 255\n\x00\x01")
    with pytest.raises(CubeFormatError,
                       match=r"header\.pgm: non-numeric header token b'-2' at byte 3"):
        read_graymap_stack([header])
    # a zero dimension names the first zero field's offset; maxval must be 1..65535
    for blob, message in ((b"P5 0 1 255\n", "zero dimension in header at byte 3: 0x1"),
                          (b"P5\n3 0\n255\n", "zero dimension in header at byte 5: 3x0"),
                          (b"P2 # c\n12 0 9", "zero dimension in header at byte 10: 12x0"),
                          (b"P5 0 0 255\n", "zero dimension in header at byte 3: 0x0"),
                          (b"P5 1 1 0\n", "maxval 0 at byte 7 out of range 1..65535"),
                          (b"P2 1 1 65536 1", "maxval 65536 at byte 7 out of range 1..65535")):
        header.write_bytes(blob)
        with pytest.raises(CubeFormatError, match=rf"header\.pgm: {re.escape(message)}$"):
            read_graymap_stack([header])
    # the first sample above maxval is named with its byte offset
    over = tmp_path / "over.pgm"
    over.write_bytes(b"P5\n3 1\n9\n\x01\x0a\x0c")
    with pytest.raises(CubeFormatError,
                       match=r"over\.pgm: sample 10 at byte 10 exceeds declared maxval 9"):
        read_graymap_stack([over])
    over.write_bytes(b"P2 3 1 9\n1  10 12\n")
    with pytest.raises(CubeFormatError,
                       match=r"over\.pgm: sample 10 at byte 12 exceeds declared maxval 9"):
        read_graymap_stack([over])
    # one image per file: any byte after a P5 raster, any token after a P2 one
    tail = tmp_path / "tail.pgm"
    tail.write_bytes(b"P5\n2 1\n255\n\x01\x02\n")
    with pytest.raises(CubeFormatError,
                       match=r"tail\.pgm: 1 trailing bytes after raster at offset 13"):
        read_graymap_stack([tail])
    tail.write_bytes(b"P5\n2 1\n255\n\x01\x02P5\n2 1\n255\n\x01\x02")
    with pytest.raises(CubeFormatError, match=r"13 trailing bytes after raster at offset 13"):
        read_graymap_stack([tail])
    tail.write_bytes(b"P2 2 1 9\n1 2  # 3\n")
    with pytest.raises(CubeFormatError,
                       match=r"tail\.pgm: 2 trailing tokens after raster at byte 14"):
        read_graymap_stack([tail])
    # trailing whitespace after a P2 raster stays legal
    tail.write_bytes(b"P2 2 1 9\n1 2 \n\t\n")
    assert read_graymap_stack([tail]).data.ravel().tolist() == [1.0, 2.0]


def _report(labels=((0, 0, 0, 1),), **overrides):
    fields = dict(algorithm="flat", metric="euclidean", lam=9.9, param=None,
                  connectivity=4, seed_order=None, millis=1.5)
    fields.update(overrides)
    return SegmentationReport(LabelMap(np.array(labels)), **fields)


def test_report_invariants():
    # the report reads its regions off the label map it holds, which it
    # keeps for good; an empty region cannot occur, as LabelMap rejects it
    report = _report()
    assert report.labels.count == 2 and report.labels.sizes.tolist() == [3, 1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.labels = LabelMap(np.zeros((1, 4), dtype=int))


def test_report_from_labels():
    labels = LabelMap(np.array([[0, 0, 1], [0, 1, 1]]))
    rep = SegmentationReport(
        labels, algorithm="eta", metric="chi2", lam=float("inf"), param=0.5,
        connectivity=8, seed_order="median", millis=2.0)
    assert rep.labels is labels and rep.labels.sizes.tolist() == [3, 3]
    # only the label map is positional, so no parameter lands in another's place
    with pytest.raises(TypeError):
        SegmentationReport(labels, "eta", "chi2", float("inf"), 0.5, 8, "median", 2.0)


def test_write_report_text(tmp_path):
    path = tmp_path / "report.txt"
    write_report(_report(), path)
    text = path.read_text()
    assert "algorithm: flat\n" in text
    assert "lambda: 9.9\n" in text
    assert "param: \n" in text
    assert "regions: 2\n" in text
    assert "region_sizes: 3 1\n" in text
    assert text.endswith("millis: 1.500\n")
    # labels past a 16-bit graymap go to a single-band HSC1 file, which the report notes
    write_report(_report(np.arange(65536).reshape(256, 256)), path)
    assert path.read_text().endswith("millis: 1.500\n")
    write_report(_report(np.arange(65537).reshape(1, -1)), path)
    assert path.read_text().endswith("millis: 1.500\nlabels_format: hsc1\n")


def test_report_text_of_a_map_with_many_regions(tmp_path):
    # 60 000 regions of 1 to 4 pixels, laid out in label order
    rng = np.random.default_rng(6)
    sizes = rng.integers(1, 5, size=60_000)
    sizes[-1] += -sizes.sum() % 400
    labels = LabelMap(np.repeat(np.arange(60_000), sizes).reshape(-1, 400))
    report = SegmentationReport(
        labels, algorithm="eta", metric="euclidean", lam=0.5, param=2.0,
        connectivity=8, seed_order="median", millis=12.3456)
    path = tmp_path / "report.txt"
    write_report(report, path)
    expected = ("algorithm: eta\nmetric: euclidean\nlambda: 0.5\nparam: 2\n"
                "connectivity: 8\nseed_order: median\nregions: 60000\n"
                "region_sizes: " + " ".join("%d" % s for s in sizes) + "\n"
                "millis: 12.346\n")
    assert path.read_bytes() == expected.encode("ascii")


def test_sweep_csv_idempotent_header(tmp_path):
    path = tmp_path / "sweep.csv"
    append_sweep_row(_report(), path)
    append_sweep_row(_report(((0, 0), (0, 0))), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "algorithm,metric,lambda,param,connectivity,seed_order,regions,millis"
    assert len(lines) == 3
    assert lines[1].startswith("flat,euclidean,9.9,,4,,2,")
    assert sum(1 for ln in lines if ln.startswith("algorithm,")) == 1
    # an existing empty file gets the header too
    empty = tmp_path / "empty.csv"
    empty.touch()
    append_sweep_row(_report(), empty)
    assert empty.read_text().splitlines() == lines[:2]


def test_infinite_lambda_formatting(tmp_path):
    path = tmp_path / "sweep.csv"
    append_sweep_row(_report(lam=float("inf")), path)
    assert ",inf," in path.read_text().splitlines()[1]


def _reader_corpus():
    """(name, bytes) of every prefix of five small valid inputs, and of each
    single-byte corruption of their first 24 bytes."""
    valid = {
        "cube.hsc": struct.pack("<4sIIIB", b"HSC1", 2, 2, 2, 2)
                    + (np.arange(8, dtype="<f8") / 3).tobytes(),
        "eight.pgm": b"P5\n3 2\n255\n" + bytes([0, 9, 80, 255, 1, 2]),
        "sixteen.pgm": b"P5\n2 2\n65535\n" + bytes([1, 0, 255, 255, 0, 0, 0, 7]),
        "text.pgm": b"P2\n# c\n3 2\n9\n1 2 3\n4 5 9\n",
        "labels.hsc": struct.pack("<4sIIIB", b"HSC1", 2, 2, 1, 2)
                      + np.array([0.0, 1.0, 2.0, 1.0], dtype="<f8").tobytes(),
    }
    for name, blob in valid.items():
        for end in range(len(blob) + 1):
            yield name, blob[:end]
        for pos in range(min(24, len(blob))):
            for byte in (0x00, 0x20, 0x23, 0x30, 0x39, 0x0A, 0xFF):
                yield name, blob[:pos] + bytes([byte]) + blob[pos + 1:]


def test_every_malformed_input_names_its_file_and_a_byte(tmp_path):
    # each input either reads or is a format error whose message starts with
    # the path and names only bytes and offsets inside the file
    for name, blob in _reader_corpus():
        path = tmp_path / name
        path.write_bytes(blob)
        for read in (load_cube, read_label_values):
            try:
                read(path)
            except CubeFormatError as exc:
                message = str(exc)
                assert message.startswith(f"{path}: "), message
                offsets = [int(n) for n in re.findall(r"(?:byte|offset) (\d+)", message)]
                assert offsets and max(offsets) <= len(blob), (blob, message)
