import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hsseg
from hsseg import read_cube, read_labels
from hsseg.cli import MAX_GRID_VALUES, main, parse_grid


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def saw_file(tmp_path):
    path = tmp_path / "saw.hsc"
    assert run_cli("synth", "tooth-saw", "--out", path) == 0
    return path


def test_synth_writes_cube(saw_file):
    cube = read_cube(saw_file)
    assert (cube.width, cube.height, cube.bands) == (21, 21, 4)


def test_flat_run_reports_21_zones(saw_file, tmp_path, capsys):
    out = tmp_path / "flat"
    assert run_cli("flat", "--input", saw_file, "--lambda", 9.9,
                   "--outdir", out) == 0
    assert capsys.readouterr().out.strip() == "regions: 21"
    report = (out / "report.txt").read_text()
    assert "regions: 21\n" in report
    assert "lambda: 9.9\n" in report
    csv = (out / "sweep.csv").read_text().splitlines()
    assert csv[1].split(",")[6] == "21"
    labels = read_labels(out / "labels.pgm")
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
    from hsseg import (Connectivity, EtaParams, LambdaParams, MetricKind,
                       build_metric, eta_bounded_regions, lambda_flat_zones,
                       write_labels)

    out = tmp_path / "cli"
    run_cli("eta", "--input", saw_file, "--lambda", 10, "--eta", 20,
            "--outdir", out)
    cube = read_cube(saw_file)
    metric = build_metric(cube, MetricKind.EUCLIDEAN)
    flat = lambda_flat_zones(cube, LambdaParams(metric, 10.0, Connectivity.FOUR))
    labels = eta_bounded_regions(cube, metric, flat, EtaParams(20.0))
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
    report = (out / "report.txt").read_text()
    assert "labels_format: hsc1" in report
    back = read_labels(out / "labels.hsc")
    assert back.count == 257 * 256


def test_graymap_inputs(tmp_path, capsys):
    for j in range(2):
        samples = bytes([10 * j] * 4)
        (tmp_path / f"b{j}.pgm").write_bytes(b"P5\n2 2\n255\n" + samples)
    out = tmp_path / "out"
    assert run_cli("flat", "--input", tmp_path / "b0.pgm", tmp_path / "b1.pgm",
                   "--lambda", 0, "--outdir", out) == 0
    assert capsys.readouterr().out.strip() == "regions: 1"


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
    # unreadable format
    bad = tmp_path / "bad.hsc"
    bad.write_bytes(b"XXXXXXXXXXXXXXXXXXXXX")
    assert run_cli("flat", "--input", bad, "--lambda", 1,
                   "--outdir", tmp_path) == 3
    # missing file
    assert run_cli("flat", "--input", tmp_path / "nope.hsc", "--lambda", 1,
                   "--outdir", tmp_path) == 6
    # a P2 sample that is not a number is a format error, not a usage error
    ascii_bad = tmp_path / "bad.pgm"
    ascii_bad.write_bytes(b"P2 2 1 9\nx 4\n")
    assert run_cli("flat", "--input", ascii_bad, "--lambda", 1,
                   "--outdir", tmp_path) == 3
    assert "bad.pgm: non-integer sample b'x' at byte 9" in capsys.readouterr().err
    # all-zero pixel breaks the chi-squared marginals
    zero = tmp_path / "zero.pgm"
    zero.write_bytes(b"P5\n2 1\n255\n\x00\x05")
    assert run_cli("flat", "--input", zero, "--lambda", 1, "--metric", "chi2",
                   "--outdir", tmp_path) == 4
    capsys.readouterr()


def test_console_entry_point(tmp_path):
    saw = tmp_path / "saw.hsc"
    proc = subprocess.run(
        [sys.executable, "-m", "hsseg", "synth", "tooth-saw", "--out", str(saw)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert saw.exists()
    # unknown flags are rejected by the parser with the usage exit code
    proc = subprocess.run(
        [sys.executable, "-m", "hsseg", "flat", "--input", str(saw),
         "--lambda", "1", "--bogus"],
        capture_output=True, text=True)
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


def _report_millis(path):
    line = next(ln for ln in path.read_text().splitlines() if ln.startswith("millis: "))
    return float(line.split()[1])


def test_millis_covers_the_whole_run(saw_file, tmp_path, monkeypatch):
    import time

    import hsseg.cli

    load = hsseg.cli._load_cube

    def slow_load(paths):
        time.sleep(0.3)
        return load(paths)

    monkeypatch.setattr(hsseg.cli, "_load_cube", slow_load)
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


def test_sweep_orders_seeds_once(saw_file, tmp_path, monkeypatch):
    import hsseg.seeds

    calls = []
    inner = hsseg.seeds.class_orderings

    def counted(*args, **kwargs):
        calls.append(args[2])
        return inner(*args, **kwargs)

    monkeypatch.setattr(hsseg.seeds, "class_orderings", counted)
    for algo in ("eta", "mu"):
        for grid in ("0:20:10", "0:100:10"):
            calls.clear()
            assert run_cli("sweep", "--algo", algo, "--input", saw_file,
                           "--lambda", 10, "--param", grid,
                           "--outdir", tmp_path / algo / grid.replace(":", "_")) == 0
            assert len(calls) == 1


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
