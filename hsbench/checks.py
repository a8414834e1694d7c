"""Output checks computed apart from the program under test.

Nothing here imports `hsseg`. Distances, flat zones, connected components,
cumulative distances and geodesic diameters are recomputed from the
generated cube with numpy and scipy's sparse graph routines, and label
files are decoded from their published layouts. Every check returns a list
of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import struct

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

REL_TOL = 1e-9
# Memory caps of the blocked computations: rows of pairwise distances per
# block, pixels per geodesic sub-graph, Dijkstra sources per call.
BLOCK = 64
MU_CHUNK_NODES = 2048
DIJKSTRA_BATCH = 256


# ---------------------------------------------------------------------------
# Geometry

def coordinates(data: np.ndarray, metric: str) -> np.ndarray:
    """Per-pixel coordinates whose euclidean distance is the spectral distance.

    chi2: profile f_j(x) / t_x scaled by sqrt(N / s_j), N the grand total
    and s_j the band sums.
    """
    if metric == "euclidean":
        return data
    band_sums = data.sum(axis=(0, 1))
    profiles = data / data.sum(axis=2, keepdims=True)
    return profiles * np.sqrt(band_sums.sum() / band_sums)


def edge_list(coords: np.ndarray, connectivity: int):
    """(u, v, weight) for every adjacent pixel pair, raster indices."""
    h, w, _ = coords.shape
    idx = np.arange(h * w).reshape(h, w)
    pairs = [((slice(None), slice(0, w - 1)), (slice(None), slice(1, w))),
             ((slice(0, h - 1), slice(None)), (slice(1, h), slice(None)))]
    if connectivity == 8:
        pairs += [((slice(0, h - 1), slice(0, w - 1)), (slice(1, h), slice(1, w))),
                  ((slice(0, h - 1), slice(1, w)), (slice(1, h), slice(0, w - 1)))]
    us, vs, ws = [], [], []
    for a, b in pairs:
        us.append(idx[a].ravel())
        vs.append(idx[b].ravel())
        d = coords[a] - coords[b]
        ws.append(np.sqrt(np.einsum("...j,...j->...", d, d)).ravel())
    return np.concatenate(us), np.concatenate(vs), np.concatenate(ws)


def components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dense component labels, numbered by first raster appearance."""
    _, ref = connected_components(csr_matrix((np.ones(len(u)), (u, v)), shape=(n, n)),
                                  directed=False)
    first = np.unique(ref, return_index=True)[1]
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[ref]


def flat_zones(coords: np.ndarray, lam: float, connectivity: int) -> np.ndarray:
    """Connected components of edges with weight <= lambda, as an (h, w) map."""
    h, w, _ = coords.shape
    u, v, wt = edge_list(coords, connectivity)
    keep = wt <= lam
    return components(h * w, u[keep], v[keep]).reshape(h, w)


def geodesics(n: int, u, v, w, sources) -> np.ndarray:
    """Shortest path-summed distances from each source to every pixel."""
    graph = csr_matrix((w, (u, v)), shape=(n, n))
    return dijkstra(graph, directed=False, indices=sources)


def cumulative_distances(coords: np.ndarray) -> np.ndarray:
    """Sum of distances from each pixel to every pixel of the image."""
    pts = coords.reshape(-1, coords.shape[2])
    out = np.empty(len(pts))
    for i in range(0, len(pts), BLOCK):
        d = pts[i:i + BLOCK, None, :] - pts[None, :, :]
        out[i:i + BLOCK] = np.sqrt(np.einsum("ijk,ijk->ij", d, d)).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# Label files

def read_labels(content: bytes) -> np.ndarray:
    """Decode a 16-bit P5 label map, or a single-band float64 HSC1 fallback."""
    if content[:2] == b"P5":
        tokens, pos = [], 2
        while len(tokens) < 3:
            while content[pos:pos + 1].isspace():
                pos += 1
            end = pos
            while not content[end:end + 1].isspace():
                end += 1
            tokens.append(int(content[pos:end]))
            pos = end
        w, h, maxval = tokens
        dt = ">u2" if maxval > 255 else "u1"
        return np.frombuffer(content, dtype=dt, count=w * h, offset=pos + 1).astype(np.int64).reshape(h, w)
    magic, w, h, b, code = struct.unpack_from("<4sIIIB", content)
    if magic != b"HSC1" or b != 1:
        raise ValueError("label file is neither P5 nor single-band HSC1")
    dt = {1: "<f4", 2: "<f8"}[code]
    return np.frombuffer(content, dtype=dt, count=w * h, offset=21).astype(np.int64).reshape(h, w)


def label_digest(labels: np.ndarray) -> str:
    """SHA-256 of the decoded label grid, independent of the file format."""
    h, w = labels.shape
    return hashlib.sha256(f"{w}x{h}\n".encode() + labels.astype("<i4").tobytes()).hexdigest()


def sweep_rows(content: bytes) -> list[tuple[float, int]]:
    """(param, regions) per row of a sweep CSV."""
    rows = csv.DictReader(io.StringIO(content.decode("ascii")))
    return [(float(r["param"]), int(r["regions"])) for r in rows]


def sweep_digest(rows) -> str:
    text = "".join(f"{p!r},{n}\n" for p, n in rows)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Checks

def check_flat(labels: np.ndarray, expected: np.ndarray) -> list[str]:
    if labels.shape != expected.shape:
        return [f"flat labels have shape {labels.shape}, expected {expected.shape}"]
    bad = np.flatnonzero(labels.ravel() != expected.ravel())
    if bad.size:
        return [f"flat labels differ from the lambda components at {bad.size} pixels "
                f"(first at raster index {int(bad[0])})"]
    return []


def check_partition(labels: np.ndarray, flat: np.ndarray, connectivity: int) -> list[str]:
    """Dense labels that refine `flat`, each region connected."""
    errors = []
    count = int(labels.max()) + 1
    used = np.unique(labels)
    if labels.min() != 0 or len(used) != count:
        return [f"labels are not dense: {len(used)} used, max {count - 1}"]
    pairs = np.unique(labels.ravel() * (int(flat.max()) + 1) + flat.ravel())
    if len(pairs) != count:
        errors.append(f"{len(pairs) - count} regions cross a flat-zone boundary")
    h, w = labels.shape
    u, v, _ = edge_list(np.zeros((h, w, 1)), connectivity)
    lab = labels.ravel()
    same = lab[u] == lab[v]
    pieces = int(components(h * w, u[same], v[same]).max()) + 1
    if pieces != count:
        errors.append(f"{pieces - count} regions are not {connectivity}-connected")
    return errors


def _regions(labels: np.ndarray):
    """(members in label order, start offsets, sizes) of every region."""
    lab = labels.ravel()
    order = np.argsort(lab, kind="stable")
    sizes = np.bincount(lab)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    return order, starts, sizes


def check_eta(labels: np.ndarray, coords: np.ndarray, eta: float) -> list[str]:
    """Every region's spectral diameter is at most 2 * eta."""
    pts = coords.reshape(-1, coords.shape[2])
    order, starts, sizes = _regions(labels)
    bound = 2 * eta * (1 + REL_TOL)
    worst = 0.0
    for s in np.unique(sizes[sizes > 1]):
        regs = np.flatnonzero(sizes == s)
        if s <= 32:
            per_chunk = max(1, 2 ** 20 // (s * s))
            for i in range(0, len(regs), per_chunk):
                members = order[starts[regs[i:i + per_chunk], None] + np.arange(s)]
                x = pts[members]
                d = x[:, :, None, :] - x[:, None, :, :]
                worst = max(worst, float(np.sqrt(np.einsum("rijk,rijk->rij", d, d).max())))
        else:
            for r in regs:
                x = pts[order[starts[r]:starts[r] + s]]
                for i in range(0, s, BLOCK):
                    d = x[i:i + BLOCK, None, :] - x[None, :, :]
                    worst = max(worst, float(np.sqrt(np.einsum("ijk,ijk->ij", d, d).max())))
    if worst > bound:
        return [f"eta region spectral diameter {worst:.6g} exceeds 2*eta = {2 * eta:g}"]
    return []


def check_mu(labels: np.ndarray, coords: np.ndarray, mu: float, connectivity: int) -> list[str]:
    """Every region's geodesic diameter, paths kept inside it, is at most 2 * mu."""
    h, w = labels.shape
    lab = labels.ravel()
    u, v, wt = edge_list(coords, connectivity)
    same = lab[u] == lab[v]
    u, v, wt = u[same], v[same], wt[same]
    order, starts, sizes = _regions(labels)
    bound = 2 * mu * (1 + REL_TOL)
    worst = 0.0
    big = np.flatnonzero(sizes > 1)
    i = 0
    while i < len(big):
        j, nodes = i, 0
        while j < len(big) and (j == i or nodes + sizes[big[j]] <= MU_CHUNK_NODES):
            nodes += int(sizes[big[j]])
            j += 1
        members = np.concatenate([order[starts[r]:starts[r] + sizes[r]] for r in big[i:j]])
        local = np.full(h * w, -1)
        local[members] = np.arange(len(members))
        inside = (local[u] >= 0)
        graph = csr_matrix((wt[inside], (local[u[inside]], local[v[inside]])),
                           shape=(len(members), len(members)))
        for k in range(0, len(members), DIJKSTRA_BATCH):
            sources = np.arange(k, min(k + DIJKSTRA_BATCH, len(members)))
            dist = dijkstra(graph, directed=False, indices=sources)
            finite = dist[np.isfinite(dist)]
            worst = max(worst, float(finite.max()))
        i = j
    if worst > bound:
        return [f"mu region geodesic diameter {worst:.6g} exceeds 2*mu = {2 * mu:g}"]
    return []


def check_first_seed(labels: np.ndarray, cumdist: np.ndarray, seed_order: str) -> list[str]:
    """Region 0 holds a pixel whose cumulative distance is the class extreme."""
    target = cumdist.min() if seed_order == "median" else cumdist.max()
    held = cumdist[labels.ravel() == 0]
    if not np.any(np.abs(held - target) <= REL_TOL * abs(target)):
        return [f"region 0 holds no {seed_order} pixel (cumulative distance {target:.12g})"]
    return []


def check_sweep(rows, grid, zero_components: int, classes: int) -> list[str]:
    """Rows follow the grid; value 0 gives the zero-weight components, the top one region per class."""
    params = [p for p, _ in rows]
    if len(rows) != len(grid) or not np.allclose(params, grid, rtol=0, atol=1e-9 * max(grid)):
        return [f"sweep rows have params {params}, expected {list(grid)}"]
    errors = []
    if rows[0][1] != zero_components:
        errors.append(f"value 0 gave {rows[0][1]} regions, expected {zero_components} "
                      f"zero-weight components")
    if rows[-1][1] != classes:
        errors.append(f"top value gave {rows[-1][1]} regions, expected {classes} (one per class)")
    return errors
