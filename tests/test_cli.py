import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hsseg
from hsseg import LabelMap, read_cube
from hsseg.cli import EXIT_CODES, MAX_GRID_VALUES, main, parse_grid
from hsseg.io import read_label_values


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def saw_file(tmp_path):
    path = tmp_path / "saw.hsc"
    assert run_cli("synth", "tooth-saw", "--out", path) == 0
    return path


@pytest.fixture
def ordering_calls(monkeypatch):
    """The seed order of each hsseg.seeds.class_orderings call; the calls still run."""
    import hsseg.seeds

    calls = []
    inner = hsseg.seeds.class_orderings

    def counted(*args, **kwargs):
        calls.append(args[2])
        return inner(*args, **kwargs)

    monkeypatch.setattr(hsseg.seeds, "class_orderings", counted)
    return calls


def test_synth_writes_cube(saw_file):
    cube = read_cube(saw_file)
    assert (cube.width, cube.height, cube.bands) == (21, 21, 4)


def test_flat_run_reports_21_zones(saw_file, tmp_path, capsys):
    out = tmp_path / "flat"
    assert run_cli("flat", "--input", saw_file, "--lambda", 9.9,
                   "--outdir", out) == 0
    assert capsys.readouterr().out.strip() == "regions: 21"
    report, millis = (out / "report.txt").read_text().split("millis: ")
    assert report == ("algorithm: flat\nmetric: euclidean\nlambda: 9.9\nparam: \n"
                      "connectivity: 4\nseed_order: \nregions: 21\n"
                      "region_sizes: " + " ".join(["21"] * 21) + "\n")
    assert re.fullmatch(r"\d+\.\d{3}\n", millis)
    csv = (out / "sweep.csv").read_text().splitlines()
    assert csv[0] == "algorithm,metric,lambda,param,connectivity,seed_order,regions,millis"
    row, csv_millis = csv[1].rsplit(",", 1)
    assert (row, csv_millis) == ("flat,euclidean,9.9,,4,,21", millis.strip())
    assert len(csv) == 2
    labels = LabelMap(read_label_values(out / "labels.pgm"))
    assert labels.count == 21


def test_eta_with_huge_bound_equals_flat(saw_file, tmp_path):
    flat_dir, eta_dir = tmp_path / "flat", tmp_path / "eta"
    run_cli("flat", "--input", saw_file, "--lambda", 10, "--outdir", flat_dir)
    assert run_cli("eta", "--input", saw_file, "--lambda", 10, "--eta", "1e18",
                   "--outdir", eta_dir) == 0
    a = (flat_dir / "labels.pgm").read_bytes()
    b = (eta_dir / "labels.pgm").read_bytes()
    assert a == b


def test_lambda_inf_token(saw_file, tmp_path, capsys):
    out = tmp_path / "inf"
    assert run_cli("eta", "--input", saw_file, "--lambda", "inf",
                   "--eta", "1e18", "--outdir", out) == 0
    assert capsys.readouterr().out.strip() == "regions: 1"


def test_mu_run(saw_file, tmp_path, capsys):
    out = tmp_path / "mu"
    assert run_cli("mu", "--input", saw_file, "--lambda", 10, "--mu", 40,
                   "--outdir", out) == 0
    assert capsys.readouterr().out.strip() == "regions: 3"


def test_sweep_appends_rows(saw_file, tmp_path):
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--algo", "mu", "--input", saw_file, "--lambda", 10,
                   "--param", "0:100:10", "--outdir", out) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 12  # header + 11 rows
    regions = [int(ln.split(",")[6]) for ln in lines[1:]]
    assert regions == sorted(regions, reverse=True)
    assert regions[0] == 21


def test_stats_recomputes_counts(saw_file, tmp_path, capsys):
    out = tmp_path / "flat"
    run_cli("flat", "--input", saw_file, "--lambda", 9.9, "--outdir", out)
    capsys.readouterr()
    assert run_cli("stats", out / "labels.pgm") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "regions: 21"
    assert lines[1] == "region_sizes: " + " ".join(["21"] * 21)


def test_same_config_twice_is_identical(saw_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli("eta", "--input", saw_file, "--lambda", 10, "--eta", 20,
                "--outdir", out)
    assert (a / "labels.pgm").read_bytes() == (b / "labels.pgm").read_bytes()


def test_cli_is_a_thin_shell_over_the_library(saw_file, tmp_path):
    from hsseg import Connectivity, MetricKind, SeedOrder, prepare, write_labels

    out = tmp_path / "cli"
    run_cli("eta", "--input", saw_file, "--lambda", 10, "--eta", 20,
            "--outdir", out)
    labels = prepare(read_cube(saw_file), MetricKind.EUCLIDEAN, 10.0, Connectivity.FOUR,
                     SeedOrder.MEDIAN_FIRST).refine("eta", 20.0)
    direct = tmp_path / "direct.pgm"
    write_labels(labels, direct)
    assert direct.read_bytes() == (out / "labels.pgm").read_bytes()


def test_label_fallback_noted_in_report(tmp_path, capsys):
    # unique spectra and lambda 0 make every pixel its own region, past the
    # 16-bit graymap limit, so the labels fall back to a single-band cube
    from hsseg import SpectralCube, write_cube

    cube = SpectralCube(
        np.arange(257 * 256, dtype=float).reshape(257, 256)[:, :, None])
    src = tmp_path / "unique.hsc"
    write_cube(cube, src)
    out = tmp_path / "out"
    assert run_cli("flat", "--input", src, "--lambda", 0, "--outdir", out) == 0
    assert capsys.readouterr().out.strip() == f"regions: {257 * 256}"
    assert (out / "labels.hsc").exists()
    last = (out / "report.txt").read_text().splitlines()[-2:]
    assert re.fullmatch(r"millis: \d+\.\d{3}", last[0])
    assert last[1] == "labels_format: hsc1"
    back = LabelMap(read_label_values(out / "labels.hsc"))
    assert back.count == 257 * 256


def test_graymap_inputs(tmp_path, capsys):
    for j in range(2):
        samples = bytes([10 * j] * 4)
        (tmp_path / f"b{j}.pgm").write_bytes(b"P5\n2 2\n255\n" + samples)
    out = tmp_path / "out"
    assert run_cli("flat", "--input", tmp_path / "b0.pgm", tmp_path / "b1.pgm",
                   "--lambda", 0, "--outdir", out) == 0
    assert capsys.readouterr().out.strip() == "regions: 1"


def test_single_graymap_with_leading_comment(tmp_path, capsys):
    # whitespace and a comment before the magic are read alone as in a stack
    lead = tmp_path / "lead.pgm"
    lead.write_bytes(b"  \n# c\nP2 2 1 5 3 3")
    assert run_cli("flat", "--input", lead, "--lambda", 0, "--outdir", tmp_path) == 0
    assert run_cli("stats", lead) == 0
    assert capsys.readouterr().out == "regions: 1\nregions: 1\nregion_sizes: 2\n"


def test_parse_grid():
    assert parse_grid("0:100:10") == [float(v) for v in range(0, 101, 10)]
    assert parse_grid("0:95:10")[-1] == 90.0
    assert parse_grid("2:2:5") == [2.0]
    for bad in ("0:10", "0:10:0", "5:1:1", "0:inf:1", "0:1:inf"):
        with pytest.raises(ValueError):
            parse_grid(bad)
    # the value count is capped before the grid is built
    assert len(parse_grid(f"1:{MAX_GRID_VALUES}:1")) == MAX_GRID_VALUES
    with pytest.raises(ValueError, match=f"has {MAX_GRID_VALUES + 1} values, above the cap"):
        parse_grid(f"0:{MAX_GRID_VALUES}:1")
    with pytest.raises(ValueError, match="has 1e\\+300 values"):
        parse_grid("0:1:1e-300")


def test_error_exit_codes(tmp_path, capsys):
    saw = tmp_path / "saw.hsc"
    run_cli("synth", "tooth-saw", "--out", saw)
    # negative parameter: usage error
    assert run_cli("flat", "--input", saw, "--lambda", -1,
                   "--outdir", tmp_path) == 2
    # a non-finite grid bound: usage error
    assert run_cli("sweep", "--algo", "eta", "--input", saw, "--lambda", 10,
                   "--param", "0:inf:1", "--outdir", tmp_path) == 2
    # a grid above the value cap: usage error, naming the count and the cap
    capsys.readouterr()
    assert run_cli("sweep", "--algo", "eta", "--input", saw, "--lambda", 10,
                   "--param", "0:1:1e-300", "--outdir", tmp_path) == 2
    assert f"1e+300 values, above the cap of {MAX_GRID_VALUES}" in capsys.readouterr().err
    # a grid starting below 0 is a usage error before any work: no out dir
    for algo in ("eta", "mu"):
        out = tmp_path / f"neg-{algo}"
        assert run_cli("sweep", "--algo", algo, "--input", saw, "--lambda", 10,
                       "--param=-1:1:1", "--outdir", out) == 2
        assert f"error: {algo} must be >= 0, got -1.0" in capsys.readouterr().err
        assert not out.exists()
    # unreadable format: not HSC1, so read as a graymap, whose magic is bad
    bad = tmp_path / "bad.hsc"
    bad.write_bytes(b"XXXXXXXXXXXXXXXXXXXXX")
    capsys.readouterr()
    for command in (("flat", "--input", bad, "--lambda", 1, "--outdir", tmp_path),
                    ("stats", bad)):
        assert run_cli(*command) == 3
        assert (f"error: {bad}: bad magic b'XXXX' at byte 0, expected P5 or P2"
                in capsys.readouterr().err)
    # a truncated cube: the message names the file and the byte offset
    trunc = tmp_path / "trunc.hsc"
    trunc.write_bytes(saw.read_bytes()[:30])
    capsys.readouterr()
    for command in (("flat", "--input", trunc, "--lambda", 1, "--outdir", tmp_path),
                    ("stats", trunc)):
        assert run_cli(*command) == 3
        assert (f"error: {trunc}: payload expects 14112 bytes at offset 17, found 13"
                in capsys.readouterr().err)
    # a non-finite sample is a format error naming the file and the offset of
    # the first one, for every command that reads a cube
    nonfinite = tmp_path / "nonfinite.hsc"
    blob = bytearray(saw.read_bytes())
    blob[17 + 8 * 5:17 + 8 * 6] = np.array([np.nan]).tobytes()
    blob[17 + 8 * 9:17 + 8 * 10] = np.array([np.inf]).tobytes()
    nonfinite.write_bytes(bytes(blob))
    capsys.readouterr()
    for command in (("flat", "--input", nonfinite, "--lambda", 1),
                    ("eta", "--input", nonfinite, "--lambda", 1, "--eta", 1),
                    ("mu", "--input", nonfinite, "--lambda", 1, "--mu", 1),
                    ("sweep", "--algo", "mu", "--input", nonfinite, "--lambda", 1,
                     "--param", "0:1:1")):
        assert run_cli(*command, "--outdir", tmp_path / "nf") == 3
        assert f"error: {nonfinite}: non-finite sample nan at byte 57" in capsys.readouterr().err
    label_cube = tmp_path / "labels.hsc"
    label_cube.write_bytes(b"HSC1" + np.array([2, 1, 1], "<u4").tobytes() + b"\x02"
                           + np.array([0.0, -np.inf]).tobytes())
    assert run_cli("stats", label_cube) == 3
    assert f"error: {label_cube}: non-finite sample -inf at byte 25" in capsys.readouterr().err
    # a label cube holds one band
    label_cube.write_bytes(b"HSC1" + np.array([2, 1, 2], "<u4").tobytes() + b"\x02"
                           + np.zeros(4).tobytes())
    assert run_cli("stats", label_cube) == 3
    err = capsys.readouterr().err
    assert f"error: {label_cube}: label cube must have one band, found 2" in err
    assert err == f"error: {label_cube}: label cube must have one band, found 2 at byte 12\n"
    # a label beyond the int64 range is a format error, not a silent merge
    label_cube.write_bytes(b"HSC1" + np.array([3, 1, 1], "<u4").tobytes() + b"\x02"
                           + np.array([1e19, 2e19, 3.0]).tobytes())
    assert run_cli("stats", label_cube) == 3
    assert (f"error: {label_cube}: label 1e+19 at byte 17 is outside the int64 range"
            in capsys.readouterr().err)
    # missing file
    assert run_cli("flat", "--input", tmp_path / "nope.hsc", "--lambda", 1,
                   "--outdir", tmp_path) == 6
    # a P2 sample that is not a number is a format error, not a usage error
    ascii_bad = tmp_path / "bad.pgm"
    ascii_bad.write_bytes(b"P2 2 1 9\nx 4\n")
    assert run_cli("flat", "--input", ascii_bad, "--lambda", 1,
                   "--outdir", tmp_path) == 3
    assert "bad.pgm: non-integer sample b'x' at byte 9" in capsys.readouterr().err
    # anything after the raster is a format error: one image per file
    for name, body, message in (
            ("tail5.pgm", b"P5\n2 1\n255\n\x01\x02\x00\x00",
             "tail5.pgm: 2 trailing bytes after raster at offset 13"),
            ("tail2.pgm", b"P2 2 1 9\n1 2 3 x\n",
             "tail2.pgm: 2 trailing tokens after raster at byte 13"),
            # netpbm whitespace is blank, TAB, CR and LF: a vertical tab is no separator
            ("vtab.pgm", b"P2 2 1 9\n1\x0b2 3\n",
             "vtab.pgm: non-integer sample b'1\\x0b2' at byte 9")):
        (tmp_path / name).write_bytes(body)
        assert run_cli("flat", "--input", tmp_path / name, "--lambda", 0,
                       "--outdir", tmp_path) == 3
        assert message in capsys.readouterr().err
    # all-zero pixel breaks the chi-squared marginals
    zero = tmp_path / "zero.pgm"
    zero.write_bytes(b"P5\n2 1\n255\n\x00\x05")
    assert run_cli("flat", "--input", zero, "--lambda", 1, "--metric", "chi2",
                   "--outdir", tmp_path) == 4
    # finite samples whose chi-squared total overflows float64
    huge = tmp_path / "huge.hsc"
    data = np.ones((2, 2, 2))
    data[0, 0] = data[1, 1] = 1e308
    hsseg.write_cube(hsseg.SpectralCube(data), huge)
    capsys.readouterr()
    assert run_cli("flat", "--input", huge, "--lambda", 0.5, "--metric", "chi2",
                   "--outdir", tmp_path) == 4
    assert ("error: the scale of band 0 overflows float64: total inf"
            in capsys.readouterr().err)


def test_bounds_are_checked_before_the_read(tmp_path, capsys):
    # a negative bound is a usage error even when the input does not exist:
    # no file error, and no out dir
    missing = tmp_path / "missing.hsc"
    for name, command in (("lambda", ("flat", "--lambda", -1)),
                          ("eta", ("eta", "--lambda", 1, "--eta", -1)),
                          ("mu", ("mu", "--lambda", 1, "--mu", -1)),
                          ("eta", ("sweep", "--algo", "eta", "--lambda", 1, "--param=-1:1:1"))):
        out = tmp_path / command[0]
        assert run_cli(*command, "--input", missing, "--outdir", out) == 2
        assert capsys.readouterr().err == f"error: {name} must be >= 0, got -1.0\n"
        assert not out.exists()


@pytest.mark.parametrize("command", [("flat",), ("eta", "--eta", 1), ("mu", "--mu", 1),
                                     ("sweep", "--algo", "mu", "--param", "0:1:1")])
def test_outdir_is_made_before_any_ordering(saw_file, tmp_path, capsys, ordering_calls,
                                            command):
    # an out dir that cannot be made is a file error before any seed is ordered
    taken = tmp_path / "taken"
    taken.write_bytes(b"")
    assert run_cli(*command, "--input", saw_file, "--lambda", 10, "--outdir", taken) == 6
    assert "[Errno 17] File exists" in capsys.readouterr().err
    assert ordering_calls == []


def test_failed_read_or_metric_makes_no_outdir(tmp_path):
    # the out dir is made after the cube is read and its metric built
    bad = tmp_path / "bad.hsc"
    bad.write_bytes(b"XXXXXXXXXXXXXXXXXXXXX")
    zero = tmp_path / "zero.pgm"
    zero.write_bytes(b"P5\n2 1\n255\n\x00\x05")
    for command in (("flat",), ("eta", "--eta", 1), ("mu", "--mu", 1),
                    ("sweep", "--algo", "eta", "--param", "0:1:1")):
        for path, extra, code in ((bad, (), 3), (zero, ("--metric", "chi2"), 4)):
            out = tmp_path / "out"
            assert run_cli(*command, "--input", path, "--lambda", 1, *extra,
                           "--outdir", out) == code
            assert not out.exists()


def test_unexpected_failure_exits_1(saw_file, tmp_path, capsys, monkeypatch):
    # an exception no other row of the exit-code table names
    def broken(self, algo, value):
        raise RuntimeError("pass broke")

    monkeypatch.setattr(hsseg.Pipeline, "refine", broken)
    for command in (("eta", "--eta", 1), ("sweep", "--algo", "mu", "--param", "0:1:1")):
        assert run_cli(*command, "--input", saw_file, "--lambda", 10,
                       "--outdir", tmp_path / command[0]) == 1
        assert capsys.readouterr().err == "error: pass broke\n"


def test_help_epilog_lists_each_exit_code_once(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    epilog = capsys.readouterr().out.split("exit codes:\n")[1]
    listed = [line.split(None, 1) for line in epilog.splitlines()]
    assert listed == [[str(code), meaning]
                      for _, code, meaning in sorted(EXIT_CODES, key=lambda row: row[1])]
    assert [code for code, _ in listed] == [str(code) for code in range(7)]


def test_console_entry_point(tmp_path):
    saw = tmp_path / "saw.hsc"
    env = dict(os.environ, PYTHONPATH=str(Path(hsseg.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "hsseg", "synth", "tooth-saw", "--out", str(saw)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert saw.exists()
    # unknown flags are rejected by the parser with the usage exit code
    proc = subprocess.run(
        [sys.executable, "-m", "hsseg", "flat", "--input", str(saw),
         "--lambda", "1", "--bogus"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2


def test_toothsaw_sweeps_script():
    script = Path(__file__).resolve().parents[1] / "scripts" / "toothsaw_sweeps.py"
    env = dict(os.environ, PYTHONPATH=str(Path(hsseg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=env, check=True)
    lines = proc.stdout.splitlines()
    assert "lambda=9.9 : 21 flat zone(s)" in lines
    assert "lambda=10.0: 1 flat zone(s)" in lines
    start = next(i for i, ln in enumerate(lines) if ln.split()[:1] == ["param"]) + 1
    rows = [ln.split() for ln in lines[start:start + 11]]
    assert [int(r[0]) for r in rows] == list(range(0, 101, 10))
    # the frozen curve of test_mu_balls.py::test_sweep_counts_regression
    assert [int(r[2]) for r in rows] == [21, 10, 7, 4, 3, 3, 3, 3, 2, 2, 2]
    assert lines[-1].endswith(": 1 region(s)")
    # a grid that never reaches its stop is rejected before any work
    proc = subprocess.run([sys.executable, str(script), "--step", "0"], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode != 0
    assert "grid step must be positive, got 0.0" in proc.stderr
    assert proc.stdout == ""


def test_cli_does_not_import_scipy():
    # scipy's import would slow every job's start-up, and the benchmark's
    # independent flat-zone check is scipy's connected_components
    env = dict(os.environ, PYTHONPATH=str(Path(hsseg.__file__).parents[1]))
    code = ("import sys, hsseg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_runs_do_not_import_numpy_ma(tmp_path):
    # numpy.ma costs 11-25 ms of start-up in every job, and a plain np.unique
    # imports it; -X importtime lists every module a fresh interpreter loads
    cube = tmp_path / "cube.hsc"
    rng = np.random.default_rng(0)
    hsseg.write_cube(hsseg.SpectralCube(rng.integers(0, 3, size=(12, 12, 2)).astype(float)), cube)
    env = dict(os.environ, PYTHONPATH=str(Path(hsseg.__file__).parents[1]))
    # lambda inf makes one class of 144 px, above the lockstep gate
    assert 144 > hsseg.growth._LOCKSTEP_MAX_PIXELS
    runs = [[command, "--input", str(cube), "--lambda", lam, f"--{command}", "1",
             "--outdir", str(tmp_path / command)]
            for lam in ("inf", "1") for command in ("eta", "mu")]
    runs.append(["stats", str(tmp_path / "eta" / "labels.pgm")])
    for args in runs:
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "hsseg", *args],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert {"numpy", "hsseg.cli", "hsseg.growth"} <= imported
        assert [m for m in imported if m.split(".")[:2] == ["numpy", "ma"]] == []


def test_public_api_is_pinned():
    # a name added to or dropped from the package's surface shows up here
    assert sorted(hsseg.__all__) == [
        "Connectivity", "CubeFormatError", "DegenerateMarginalError", "EdgeWeights",
        "HssegError", "LabelMap", "MetricKind", "Pipeline", "RegionSizeCapError",
        "SeedOrder", "SegmentationReport", "SpectralCube", "append_sweep_row",
        "build_edge_weights", "build_metric", "eta_bounded_regions",
        "lambda_flat_zones", "load_cube", "mu_geodesic_balls", "order_classes",
        "prepare", "read_cube", "read_graymap_stack", "relabel_dense",
        "tooth_saw_cube", "write_cube", "write_labels", "write_report"]
    for name in hsseg.__all__:
        assert getattr(hsseg, name).__module__.startswith("hsseg.")


def test_readme_library_sketch_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(compile(blocks[0].split("```")[0], "README.md", "exec"), {})


def _report_millis(path):
    line = next(ln for ln in path.read_text().splitlines() if ln.startswith("millis: "))
    return float(line.split()[1])


def test_millis_covers_the_whole_run(saw_file, tmp_path, monkeypatch):
    import time

    import hsseg.cli

    load = hsseg.cli.load_cube

    def slow_load(paths):
        time.sleep(0.3)
        return load(paths)

    monkeypatch.setattr(hsseg.cli, "load_cube", slow_load)
    out = tmp_path / "eta"
    assert run_cli("eta", "--input", saw_file, "--lambda", 10, "--eta", 20,
                   "--outdir", out) == 0
    assert _report_millis(out / "report.txt") >= 300.0
    # sweep rows time their own pass; the shared set-up is in no row
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--algo", "eta", "--input", saw_file, "--lambda", 10,
                   "--param", "0:20:10", "--outdir", out) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert all(float(r.split(",")[7]) < 300.0 for r in rows)


@pytest.fixture
def quantized_file(tmp_path):
    from hsseg import SpectralCube, write_cube

    rng = np.random.default_rng(17)
    path = tmp_path / "q.hsc"
    write_cube(SpectralCube(rng.choice([0.0, 1.0, 2.0], size=(9, 8, 2))), path)
    return path


@pytest.mark.parametrize("algo", ["eta", "mu"])
@pytest.mark.parametrize("order", ["median", "antimedian"])
@pytest.mark.parametrize("connectivity", [4, 8])
def test_sweep_rows_match_standalone_runs(quantized_file, tmp_path, capsys,
                                          algo, order, connectivity):
    common = ("--input", quantized_file, "--lambda", 1.5, "--seed-order", order,
              "--connectivity", connectivity)
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--algo", algo, *common, "--param", "0:3:0.5",
                   "--outdir", out) == 0
    rows = [ln.split(",") for ln in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert len(rows) == 7
    capsys.readouterr()
    for row in rows:
        assert run_cli(algo, *common, f"--{algo}", row[3],
                       "--outdir", tmp_path / "one" / row[3]) == 0
        assert capsys.readouterr().out.strip() == f"regions: {row[6]}"


def test_sweep_orders_seeds_once(saw_file, tmp_path, ordering_calls):
    for algo in ("eta", "mu"):
        for grid in ("0:20:10", "0:100:10"):
            ordering_calls.clear()
            assert run_cli("sweep", "--algo", algo, "--input", saw_file,
                           "--lambda", 10, "--param", grid,
                           "--outdir", tmp_path / algo / grid.replace(":", "_")) == 0
            assert len(ordering_calls) == 1
    # a flat-zone run orders no seeds at all
    ordering_calls.clear()
    assert run_cli("flat", "--input", saw_file, "--lambda", 10,
                   "--outdir", tmp_path / "flat") == 0
    assert ordering_calls == []


@pytest.mark.parametrize("command", [("eta", "--eta", 1), ("mu", "--mu", 1),
                                     ("sweep", "--algo", "eta", "--param", "0:2:1")])
def test_region_cap_fails_before_ordering(tmp_path, capsys, monkeypatch, command):
    # 224 x 224 = 50 176 pixels, one class at lambda inf: over the 50 000 cap
    import hsseg.seeds
    from hsseg import SpectralCube, write_cube

    calls = []
    monkeypatch.setattr(hsseg.seeds, "_cumdist", lambda m, p: calls.append(len(p)))
    path = tmp_path / "big.hsc"
    write_cube(SpectralCube(np.zeros((224, 224, 1))), path)
    assert run_cli(*command, "--input", path, "--lambda", "inf",
                   "--outdir", tmp_path / "out") == 5
    assert "class 0 has 50176 pixels" in capsys.readouterr().err
    assert calls == []
