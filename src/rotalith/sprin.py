"""Sparse rotation-invariant correlation over kNN neighborhoods.

Every quantity the learnable filter sees is a rotation-invariant scalar, so
per-point outputs are unchanged when the whole cloud rotates.  For each
(neighbor x_i, center x_j) pair with cloud centroid c the filter input is the
8-vector

    [beta_rel, h_rel, s1, s2, s3, a1, a2, a3]

where beta_rel is the angle between the directions of x_i and x_j seen from
the origin (the polar angle of ``tmap(x_j)^-1 @ x_i``), h_rel = |x_i|, the
s's are the side lengths of the triangle (x_i, x_j, c) and the a's its inner
angles at x_i, x_j, c.  Each layer's filter is a two-layer MLP,
``8 (+ features) -> hidden -> channels`` with a rectifier between; since the
azimuth of the relative point never enters, constancy on the z-coset holds
identically rather than approximately.
"""

from __future__ import annotations

import numpy as np

from . import chunks

# below this side length a triangle angle is undefined; see relative_invariants
_DEGENERATE_SIDE = 1e-12


def _norm(u: np.ndarray) -> np.ndarray:
    """Length of coordinate-major vectors ``u[0..2]``, added in ``np.linalg.norm``'s order."""
    return np.sqrt((u[0] * u[0] + u[1] * u[1]) + u[2] * u[2])


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product of coordinate-major vectors, added in ``einsum("...k,...k")``'s order."""
    return (u[0] * v[0] + u[2] * v[2]) + u[1] * v[1]


def _angle(dot: np.ndarray, nu: np.ndarray, nv: np.ndarray) -> np.ndarray:
    return np.arccos(np.clip(dot / np.maximum(nu * nv, np.finfo(float).tiny), -1.0, 1.0))


def _point_terms(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``[x, |x|, c - x, |c - x|]`` of coordinate-major points ``x`` and centroids ``c``.

    Returns the 8 terms stacked on a leading axis; they depend on one point
    each, so :func:`_invariants` can gather or broadcast them per pair.
    """
    x, e = np.broadcast_arrays(x, c - x)
    return np.concatenate([x, _norm(x)[None], e, _norm(e)[None]])


def _invariants(src: np.ndarray, cen: np.ndarray) -> np.ndarray:
    """The 8 invariants from the :func:`_point_terms` of neighbors and centers.

    ``src`` and ``cen`` broadcast against each other per pair; only the
    center-to-neighbor edge, its length and the four dot products are
    formed per pair.  Returns shape ``(..., 8)``.
    """
    x_i, ni, e_ic, s2 = src[:3], src[3], src[4:7], src[7]
    x_j, nj, e_jc, s3 = cen[:3], cen[3], cen[4:7], cen[7]
    e_ij = x_j - x_i
    s1 = _norm(e_ij)
    out = np.empty(np.broadcast_shapes(s1.shape, s2.shape, s3.shape) + (8,))
    # a direction from the origin is undefined at the origin; beta_rel is 0 there
    out[..., 0] = np.where(ni * nj > 0.0, _angle(_dot(x_i, x_j), ni, nj), 0.0)
    out[..., 1] = ni
    out[..., 2] = s1
    out[..., 3] = s2
    out[..., 4] = s3
    # negating a factor or a sum is exact: these are the angles between
    # (e_ij, e_ic), (-e_ij, e_jc) and (-e_ic, -e_jc)
    out[..., 5] = _angle(_dot(e_ij, e_ic), s1, s2)
    out[..., 6] = _angle(-_dot(e_ij, e_jc), s1, s3)
    out[..., 7] = _angle(_dot(e_ic, e_jc), s2, s3)
    degenerate = (s1 < _DEGENERATE_SIDE) | (s2 < _DEGENERATE_SIDE) | (s3 < _DEGENERATE_SIDE)
    out[degenerate, 5:] = (0.0, np.pi / 2.0, np.pi / 2.0)
    return out


def relative_invariants(x_i: np.ndarray, x_j: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The 8 rotation-invariant scalars for neighbor/center/centroid triples.

    Broadcasts over leading axes; returns shape ``(..., 8)`` with columns in
    the module docstring's order.  When a triangle side vanishes the angles
    are set to ``(0, pi/2, pi/2)`` so the map is total.
    """
    x_i, x_j, c = (np.asarray(a, dtype=float) for a in (x_i, x_j, c))
    ndim = max(x_i.ndim, x_j.ndim, c.ndim)
    # coordinate-major with the leading axes aligned: x[0], x[1] and x[2]
    # each hold one coordinate and broadcast as the (..., 3) inputs do
    x_i, x_j, c = (
        np.moveaxis(a.reshape((1,) * (ndim - a.ndim) + a.shape), -1, 0) for a in (x_i, x_j, c)
    )
    return _invariants(_point_terms(x_i, c), _point_terms(x_j, c))


def _stable_smallest(d2: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(d2, axis=1, kind="stable")[:, :k]`` via a partial selection.

    ``argpartition`` finds the k smallest of each row; sorting those
    candidates by (distance, index) gives the stable order.  The candidate
    set is only unique when exactly k entries are <= the k-th smallest
    distance.  Rows where a tie straddles the k-th neighbor (lattices,
    duplicate points) or the k-th distance is not finite take the full
    stable sort instead.
    """
    cand = np.argpartition(d2, k - 1, axis=1)[:, :k]
    kth = np.take_along_axis(d2, cand[:, k - 1 :], axis=1)
    exact = np.count_nonzero(d2 <= kth, axis=1) != k
    cand.sort(axis=1)
    out = np.take_along_axis(
        cand, np.argsort(np.take_along_axis(d2, cand, axis=1), axis=1, kind="stable"), axis=1
    )
    if exact.any():
        out[exact] = np.argsort(d2[exact], axis=1, kind="stable")[:, :k]
    return out


def knn_table(source: np.ndarray, centers: np.ndarray, k: int) -> np.ndarray:
    """Indices into ``source`` of the k nearest neighbors of each center.

    Returns ``(len(centers), k)`` int64, each row sorted by (squared
    distance, index).  The order is stable, so the first k' columns are the
    k'-nearest neighbors for any k' <= k and one table serves every layer
    that correlates the same pair of point sets.  Centers are processed in
    chunks of the chunk budget (``chunks._CHUNK_BYTES``) at ``16 * N`` bytes
    per center: a chunk holds its ``chunk x N`` squared distances beside one
    per-axis temporary, and then beside the selection's indices, each of
    the same size, so the pair stays in a per-core L2 cache.  Each row is
    selected on its own; no bit depends on the chunk.
    """
    n = source.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n} (the source point count), got k={k}")
    table = np.empty((centers.shape[0], k), dtype=np.int64)
    src = np.ascontiguousarray(source.T)
    for rows in chunks._point_chunks(centers.shape[0], 16 * n):
        cen = centers[rows]
        # (dx^2 + dz^2) + dy^2 is the order einsum("cnk,cnk->cn") adds in, so
        # these are bitwise the distances of the (rows, N, 3) difference tensor
        d2 = np.subtract.outer(cen[:, 0], src[0])
        d2 *= d2
        tmp = np.subtract.outer(cen[:, 2], src[2])
        d2 += np.square(tmp, out=tmp)
        np.subtract.outer(cen[:, 1], src[1], out=tmp)
        d2 += np.square(tmp, out=tmp)
        del tmp  # freed before the selection allocates its indices
        table[rows] = _stable_smallest(d2, k)
    return table


def dilated_knn(points: np.ndarray, center_idx: int, k: int, d: int) -> np.ndarray:
    """Every d-th of the k nearest neighbors of a cloud point: ceil(k/d) indices.

    The neighbors are sorted by (distance, index) and the stride keeps
    columns 0, d, 2d, ... (the deterministic dilated kNN of DeepGCNs); with
    d = 1 this is exactly the k nearest neighbors.
    """
    points = np.asarray(points, dtype=float)
    if d < 1:
        raise ValueError(f"dilation rate must be >= 1, got {d}")
    if not 0 <= center_idx < points.shape[0]:
        raise ValueError(f"need 0 <= center < {points.shape[0]}, got center={center_idx}")
    return knn_table(points, points[center_idx][None], k)[0, ::d]


def farthest_point_sampling(points: np.ndarray, m: int, start_idx: int = 0) -> np.ndarray:
    """Greedy max-min subset of m indices, deterministic, ties to lower index."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= {n}, got m={m}")
    if not 0 <= start_idx < n:
        raise ValueError(f"need 0 <= start < {n}, got start={start_idx}")
    chosen = np.empty(m, dtype=np.int64)
    chosen[0] = start_idx
    diff = points - points[start_idx]
    best = np.einsum("nk,nk->n", diff, diff)
    for t in range(1, m):
        nxt = int(np.argmax(best))
        chosen[t] = nxt
        diff = points - points[nxt]
        best = np.minimum(best, np.einsum("nk,nk->n", diff, diff))
    return chosen


def invariant_table(
    source_points: np.ndarray, center_pos: np.ndarray, neighbors: np.ndarray
) -> np.ndarray:
    """The 8 invariants of every (neighbor, center) pair of a neighbor table.

    ``neighbors`` holds, per center, indices into ``source_points``; the
    centroid of the invariants is the mean of ``source_points``.  Returns
    ``(C, k', 8)`` for ``neighbors`` of shape ``(C, k')``, bitwise the
    :func:`relative_invariants` of each pair.  The per-point terms are formed
    once per source point and per center; the pairs are filled in blocks of
    centers within the chunk budget (``chunks._CHUNK_BYTES``) at the table's
    ``64 * k'`` bytes per center.  The invariants are elementwise per pair,
    so no bit depends on the block size, and the first columns of a table
    are the table of the first columns of ``neighbors``.
    """
    centroid = source_points.mean(axis=0)[:, None]
    src = _point_terms(source_points.T, centroid)
    cen = _point_terms(center_pos.T, centroid)
    table = np.empty(neighbors.shape + (8,))
    for rows in chunks._point_chunks(neighbors.shape[0], 64 * neighbors.shape[1]):
        table[rows] = _invariants(np.take(src, neighbors[rows], axis=1), cen[:, rows, None])
    return table


def correlate_at(
    inv: np.ndarray,
    source_feats: np.ndarray | None,
    neighbors: np.ndarray,
    layers: list[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """One correlation layer: the filter on each center's neighbor pairs.

    ``neighbors`` holds, per center, the indices into the source of the
    neighbors the layer reads; a layer with (k, d) reads every d-th of the
    first k columns of a :func:`knn_table`, ``ceil(k/d)`` per center (see
    :func:`dilated_knn`).  ``inv`` is those pairs' :func:`invariant_table`,
    shape ``neighbors.shape + (8,)``; it may be the first columns of a wider
    table that other layers also read.  ``source_feats`` are the source
    points' features, or None.  ``layers`` is the two-layer filter
    ``[(W0, b0), (W1, b1)]`` with a rectifier between; any other depth
    raises ValueError.  The result is the neighbor mean of the filter on
    ``[invariants || features]`` per pair, but only the first layer's
    invariant columns and the rectifier run per pair, in blocks of centers
    within the chunk budget (``chunks._CHUNK_BYTES``) at
    ``16 * neighbors.shape[1] * hidden`` bytes per center (the activation
    and the gathered first-layer term), at least one.  A block is held
    neighbor-major, ``(k', rows, hidden)``, and filled by one
    ``(k' x 8) @ (8 x hidden)`` gemm per center, so every gemm has
    ``k' = ceil(k/d)`` rows whatever the block size.  A block leaves only
    its neighbor mean, added along k' per center; no bit depends on its size.
    """
    if len(layers) != 2:
        raise ValueError(f"correlate_at runs a two-layer filter, got {len(layers)} layers")
    (W0, b0), (W1, b1) = layers
    expected = 8 + (0 if source_feats is None else source_feats.shape[1])
    if W0.shape[1] != expected:
        raise ValueError(f"filter expects input width {W0.shape[1]}, features give {expected}")
    if inv.shape != neighbors.shape + (8,):
        raise ValueError(f"invariants {inv.shape} do not fit neighbors {neighbors.shape}")
    # first layer: the feature columns and the bias act once per source point
    point = None if source_feats is None else source_feats @ W0[:, 8:].T + b0
    # its invariant columns and the rectifier run per pair; the second layer
    # is affine, so it commutes with the mean and runs once per center on it
    hidden = W0.shape[0]
    mean = np.empty((neighbors.shape[0], hidden))
    for rows in chunks._point_chunks(neighbors.shape[0], 16 * neighbors.shape[1] * hidden):
        h = np.empty((neighbors.shape[1], rows.stop - rows.start, hidden))
        np.matmul(inv[rows], W0[:, :8].T, out=h.transpose(1, 0, 2))
        h += b0 if point is None else np.take(point, neighbors[rows].T, axis=0)
        np.maximum(h, 0.0, out=h)
        mean[rows] = h.mean(axis=0)
    return mean @ W1.T + b1
