"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Heavy
randomized batches are computed once in module-scoped fixtures and shared
by the criteria that audit them.
"""

import math
import os
import time

import numpy as np
import pytest

from hsseg import (Connectivity, LabelMap, MetricKind, SeedOrder, SpectralCube,
                   build_metric, prepare, read_cube, read_graymap_stack, relabel_dense,
                   tooth_saw_cube, write_cube, write_labels)
from hsseg.io import read_label_values

from conftest import flat_zones, library_distance, random_cube, region_seeds
from oracles import (PixelIndex, classes_are_connected, eta_regions_bruteforce,
                     flat_zones_unionfind, is_refinement, mu_balls_bruteforce,
                     naive_cumdists)

BASE_SEED = 20260810


def report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number}: {detail}"


def _metric_kind(trial):
    return MetricKind.CHI_SQUARED if trial % 2 else MetricKind.EUCLIDEAN


def _connectivity(trial):
    return Connectivity.EIGHT if trial % 3 == 0 else Connectivity.FOUR


# ---------------------------------------------------------------------------
# shared batches

@pytest.fixture(scope="module")
def tooth():
    return tooth_saw_cube()


@pytest.fixture(scope="module")
def flat_batch():
    """Criterion 2 runs: 200 random cubes, array components vs union-find."""
    rng = np.random.default_rng(BASE_SEED + 2)
    trials = []
    started = time.perf_counter()
    for trial in range(200):
        cube = random_cube(rng, max_side=12, max_bands=4, positive=True)
        kind = _metric_kind(trial)
        conn = _connectivity(trial)
        lam = float(rng.uniform(0.0, 1.2))
        got = flat_zones(cube, lam, conn, kind)
        expected = flat_zones_unionfind(cube, kind, lam, conn)
        trials.append({
            "equal": np.array_equal(got.labels, expected.labels),
            "labels": got, "conn": conn,
        })
    return {"trials": trials, "elapsed": time.perf_counter() - started}


@pytest.fixture(scope="module")
def refine_batch():
    """Criterion 3 runs: 100 random cubes, both passes vs their oracles."""
    rng = np.random.default_rng(BASE_SEED + 3)
    trials = []
    started = time.perf_counter()
    for trial in range(100):
        cube = random_cube(rng, max_side=10, max_bands=3, positive=True)
        kind = _metric_kind(trial)
        conn = _connectivity(trial)
        antimedian = trial % 4 == 1
        order = SeedOrder.ANTIMEDIAN_FIRST if antimedian else SeedOrder.MEDIAN_FIRST
        lam = float(rng.uniform(0.0, 1.2))
        eta = float(rng.uniform(0.0, 1.0))
        mu = float(rng.uniform(0.0, 2.0))
        pipeline = prepare(cube, kind, lam, conn, order)
        metric, flat = pipeline.metric, pipeline.flat
        eta_got = pipeline.refine("eta", eta)
        eta_exp, _ = eta_regions_bruteforce(cube, kind, flat, eta, antimedian, conn)
        mu_got = pipeline.refine("mu", mu)
        mu_exp, balls = mu_balls_bruteforce(cube, kind, flat, mu, antimedian, conn)
        trials.append({
            "metric": metric, "conn": conn, "mu": mu,
            "flat": flat, "eta": eta_got, "mu_map": mu_got,
            "eta_equal": np.array_equal(eta_got.labels, eta_exp.labels),
            "mu_equal": np.array_equal(mu_got.labels, mu_exp.labels),
            "balls": balls,
        })
    return {"trials": trials, "elapsed": time.perf_counter() - started}


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_tooth_saw_regression():
    started = time.perf_counter()
    cube = tooth_saw_cube()
    zones_99 = flat_zones(cube, 9.9).count
    zones_10 = flat_zones(cube, 10.0).count
    elapsed = time.perf_counter() - started
    report(1, zones_99 == 21 and zones_10 == 1 and elapsed < 1.0,
           f"lambda=9.9 -> {zones_99} zones, lambda=10 -> {zones_10} zone(s), "
           f"{elapsed:.3f}s < 1s")


def test_criterion_2_flat_zone_oracle_equivalence(flat_batch):
    bad = sum(not t["equal"] for t in flat_batch["trials"])
    elapsed = flat_batch["elapsed"]
    report(2, bad == 0 and elapsed < 30.0,
           f"200 trials, {bad} mismatches, {elapsed:.1f}s < 30s")


def test_criterion_3_refinement_oracle_equivalence(refine_batch):
    bad_eta = sum(not t["eta_equal"] for t in refine_batch["trials"])
    bad_mu = sum(not t["mu_equal"] for t in refine_batch["trials"])
    elapsed = refine_batch["elapsed"]
    report(3, bad_eta == 0 and bad_mu == 0 and elapsed < 60.0,
           f"100 trials, eta mismatches {bad_eta}, mu mismatches {bad_mu}, "
           f"{elapsed:.1f}s < 60s")


def _partition_of_class_ok(flat, refined):
    # every refined class sits inside one flat class and the classes of each
    # flat zone tile it exactly
    if not is_refinement(refined, flat):
        return False
    for c in range(flat.count):
        mask = flat.labels == c
        used = np.unique(refined.labels[mask])
        covered = np.zeros_like(mask)
        for r in used:
            extent = refined.labels == r
            if not mask[extent].all():
                return False
            covered |= extent
        if not np.array_equal(covered, mask):
            return False
    return True


def test_criterion_4_partition_invariants(tooth, flat_batch, refine_batch):
    violations = 0
    for lam in (9.9, 10.0):
        flat = flat_zones(tooth, lam)
        violations += not classes_are_connected(flat, Connectivity.FOUR)
    for t in flat_batch["trials"]:
        violations += not classes_are_connected(t["labels"], t["conn"])
    for t in refine_batch["trials"]:
        for refined in (t["eta"], t["mu_map"]):
            violations += not _partition_of_class_ok(t["flat"], refined)
            violations += not classes_are_connected(refined, t["conn"])
    checked = 2 + len(flat_batch["trials"]) + 4 * len(refine_batch["trials"])
    report(4, violations == 0, f"{checked} partition audits, {violations} violations")


def test_criterion_5_metric_axioms():
    rng = np.random.default_rng(BASE_SEED + 5)
    cubes = [random_cube(rng, max_side=6, max_bands=4, positive=True)
             for _ in range(5)]
    worst = 0.0
    failures = 0
    for kind in (MetricKind.EUCLIDEAN, MetricKind.CHI_SQUARED):
        metrics = [build_metric(c, kind) for c in cubes]
        for _ in range(1000):
            m = metrics[rng.integers(len(metrics))]
            pix = [(int(rng.integers(m.width)), int(rng.integers(m.height)))
                   for _ in range(3)]
            p, q, r = pix
            dpq, dqp = library_distance(m, p, q), library_distance(m, q, p)
            tri = library_distance(m, p, r) + library_distance(m, r, q) - dpq
            worst = max(worst, abs(dpq - dqp), max(0.0, -dpq), max(0.0, -tri))
            if dpq < 0 or abs(dpq - dqp) > 1e-9 or tri < -1e-9:
                failures += 1
    # chi-squared against a from-scratch scaled-profile euclidean
    for _ in range(1000):
        cube = cubes[rng.integers(len(cubes))]
        m = build_metric(cube, MetricKind.CHI_SQUARED)
        data = cube.data
        band_sums = data.reshape(-1, cube.bands).sum(axis=0)
        scale = np.sqrt(band_sums.sum() / band_sums)
        p = (int(rng.integers(m.width)), int(rng.integers(m.height)))
        q = (int(rng.integers(m.width)), int(rng.integers(m.height)))
        prof_p = data[p[1], p[0]] / data[p[1], p[0]].sum()
        prof_q = data[q[1], q[0]] / data[q[1], q[0]].sum()
        rederived = math.sqrt((((prof_p - prof_q) * scale) ** 2).sum())
        err = abs(library_distance(m, p, q) - rederived)
        worst = max(worst, err)
        if err > 1e-9:
            failures += 1
    report(5, failures == 0,
           f"1000 triples per metric + 1000 rederivations, "
           f"{failures} failures, worst deviation {worst:.2e} <= 1e-9")


def _sweep_counts(cube, kind, pipeline, values, algo):
    counts = []
    oracle_ok = True
    flat = pipeline.flat
    oracle = eta_regions_bruteforce if algo == "eta" else mu_balls_bruteforce
    for value in values:
        got = pipeline.refine(algo, value)
        exp, _ = oracle(cube, kind, flat, value)
        oracle_ok &= np.array_equal(got.labels, exp.labels)
        counts.append(got.count)
    return counts, oracle_ok


def test_criterion_6_region_count_trend(tooth):
    kind = MetricKind.EUCLIDEAN
    pipeline = prepare(tooth, kind, 10.0, Connectivity.FOUR, SeedOrder.MEDIAN_FIRST)
    values = [float(v) for v in range(0, 101, 10)]

    eta_counts, eta_oracle_ok = _sweep_counts(tooth, kind, pipeline, values, "eta")
    mu_counts, mu_oracle_ok = _sweep_counts(tooth, kind, pipeline, values, "mu")
    eta_mono = all(a >= b for a, b in zip(eta_counts, eta_counts[1:]))
    mu_mono = all(a >= b for a, b in zip(mu_counts, mu_counts[1:]))

    # forced terminal values: collapse to one region is guaranteed once the
    # parameter dominates any amplitude (eta) or any path weight (mu)
    eta_terminal = pipeline.refine("eta", values[-1]).count
    mu_forced = pipeline.refine("mu", pipeline.edge_weights.total_weight()).count

    ok = (eta_oracle_ok and mu_oracle_ok and eta_mono and mu_mono
          and eta_terminal == 1 and mu_forced == 1)
    report(6, ok,
           f"eta counts {eta_counts} (terminal {eta_terminal}), "
           f"mu counts {mu_counts} (forced terminal {mu_forced}), "
           f"oracle-verified per value")

    real = os.environ.get("HSSEG_REAL_IMAGE")
    if not real:
        print("criterion 6: real-image sweep skipped (set HSSEG_REAL_IMAGE "
              "to a cube or graymap directory to report the trend)")
        return
    _report_real_image_trend(real)


def _report_real_image_trend(path):
    # reported, never asserted: desk-scale acceptance has no external data
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith((".pgm", ".pnm")))
        cube = read_graymap_stack(files)
    else:
        cube = read_cube(path)
    lam = float(os.environ.get("HSSEG_REAL_LAMBDA", "0.005"))
    pipeline = prepare(cube, MetricKind.CHI_SQUARED, lam, Connectivity.FOUR,
                       SeedOrder.MEDIAN_FIRST)
    for algo, values in (("eta", (0.007, 0.009, 0.011, 0.02)),
                         ("mu", (0.01, 0.02, 0.03, 0.05))):
        counts = [pipeline.refine(algo, v).count - pipeline.flat.count for v in values]
        print(f"criterion 6: real image {algo} counts minus flat zones: "
              f"{dict(zip(values, counts))}")


def test_criterion_7_seed_correctness():
    rng = np.random.default_rng(BASE_SEED + 7)
    failures = 0
    for trial in range(500):
        cube = random_cube(rng, max_side=7, max_bands=3,
                           positive=bool(trial % 2))
        kind = _metric_kind(trial)
        metric = build_metric(cube, kind)
        pix = [PixelIndex(x, y) for y in range(cube.height)
               for x in range(cube.width)]
        size = int(rng.integers(1, min(len(pix), 25) + 1))
        region = [pix[i] for i in rng.permutation(len(pix))[:size]]
        cd, medians = region_seeds(metric, region)
        _, antimedians = region_seeds(metric, region, SeedOrder.ANTIMEDIAN_FIRST)
        median, anti = medians[0], antimedians[0]
        oracle = naive_cumdists(cube, kind, region)
        if oracle[median] > min(oracle.values()) + 1e-9:
            failures += 1
        if oracle[anti] < max(oracle.values()) - 1e-9:
            failures += 1
        if any(abs(cd[p] - oracle[p]) > 1e-9 for p in region):
            failures += 1
    report(7, failures == 0, f"500 regions, {failures} seed failures")


def test_criterion_8_geodesic_dominance(refine_batch):
    checked = 0
    violations = 0
    for t in refine_batch["trials"]:
        metric, mu = t["metric"], t["mu"]
        for seed, ball in t["balls"]:
            for p, dist in ball.items():
                checked += 1
                direct = library_distance(metric, seed, p)
                if not (direct <= dist + 1e-12 and dist <= mu):
                    violations += 1
    report(8, violations == 0,
           f"{checked} ball members audited, {violations} dominance violations")


def test_criterion_9_io_roundtrips(tmp_path):
    rng = np.random.default_rng(BASE_SEED + 9)
    failures = 0
    for i in range(30):
        cube = SpectralCube(rng.uniform(-5, 12, size=(int(rng.integers(1, 9)),
                                                      int(rng.integers(1, 9)),
                                                      int(rng.integers(1, 5)))))
        path = tmp_path / f"cube{i}.hsc"
        write_cube(cube, path)
        if read_cube(path).data.tobytes() != cube.data.tobytes():
            failures += 1
    for i in range(19):
        raw = rng.integers(0, 9, size=(int(rng.integers(1, 9)),
                                       int(rng.integers(1, 9))))
        labels = relabel_dense(raw)
        path = tmp_path / f"labels{i}.pgm"
        write_labels(labels, path)
        back = LabelMap(read_label_values(path))
        if not np.array_equal(back.labels, labels.labels):
            failures += 1
    # one oversize map exercises the single-band cube fallback
    big = relabel_dense(np.arange(257 * 256).reshape(257, 256))
    path = tmp_path / "big.labels"
    write_labels(big, path)
    if not np.array_equal(LabelMap(read_label_values(path)).labels, big.labels):
        failures += 1
    report(9, failures == 0, f"50 round-trips, {failures} failures")
