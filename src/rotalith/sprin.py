"""Sparse rotation-invariant correlation over kNN neighborhoods.

Every quantity the learnable filter sees is a rotation-invariant scalar, so
per-point outputs are unchanged when the whole cloud rotates.  For each
(neighbor x_i, center x_j) pair with cloud centroid c the filter input is the
8-vector

    [beta_rel, h_rel, s1, s2, s3, a1, a2, a3]

where beta_rel is the angle between the directions of x_i and x_j seen from
the origin (the polar angle of ``tmap(x_j)^-1 @ x_i``), h_rel = |x_i|, the
s's are the side lengths of the triangle (x_i, x_j, c) and the a's its inner
angles at x_i, x_j, c.  Filters are plain fully connected stacks; since the
azimuth of the relative point never enters, constancy on the z-coset holds
identically rather than approximately.
"""

from __future__ import annotations

import numpy as np

INVARIANT_FIELDS = ("beta_rel", "h_rel", "s1", "s2", "s3", "a1", "a2", "a3")

# below this side length a triangle angle is undefined; see relative_invariants
_DEGENERATE_SIDE = 1e-12

# byte budget of one chunk's centers x N x 3 float64 difference tensor in knn_table
_KNN_CHUNK_BYTES = 8 << 20


def relative_invariants(x_i: np.ndarray, x_j: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The 8 rotation-invariant scalars for neighbor/center/centroid triples.

    Broadcasts over leading axes; returns shape ``(..., 8)`` with columns in
    ``INVARIANT_FIELDS`` order.  When a triangle side vanishes the angles are
    set to ``(0, pi/2, pi/2)`` so the map is total.
    """
    x_i = np.asarray(x_i, dtype=float)
    x_j = np.asarray(x_j, dtype=float)
    c = np.asarray(c, dtype=float)
    x_i, x_j, c = np.broadcast_arrays(x_i, x_j, c)

    def _angle(u, v, nu, nv):
        d = np.einsum("...k,...k->...", u, v)
        nn = np.maximum(nu * nv, np.finfo(float).tiny)
        return np.arccos(np.clip(d / nn, -1.0, 1.0))

    ni = np.linalg.norm(x_i, axis=-1)
    nj = np.linalg.norm(x_j, axis=-1)
    # a direction from the origin is undefined at the origin; beta_rel is 0 there
    beta_rel = np.where(ni * nj > 0.0, _angle(x_i, x_j, ni, nj), 0.0)

    e_ij = x_j - x_i
    e_ic = c - x_i
    e_jc = c - x_j
    s1 = np.linalg.norm(e_ij, axis=-1)
    s2 = np.linalg.norm(e_ic, axis=-1)
    s3 = np.linalg.norm(e_jc, axis=-1)
    a1 = _angle(e_ij, e_ic, s1, s2)
    a2 = _angle(-e_ij, e_jc, s1, s3)
    a3 = _angle(-e_ic, -e_jc, s2, s3)
    degenerate = (s1 < _DEGENERATE_SIDE) | (s2 < _DEGENERATE_SIDE) | (s3 < _DEGENERATE_SIDE)
    a1 = np.where(degenerate, 0.0, a1)
    a2 = np.where(degenerate, np.pi / 2.0, a2)
    a3 = np.where(degenerate, np.pi / 2.0, a3)

    return np.stack([beta_rel, ni, s1, s2, s3, a1, a2, a3], axis=-1)


def _stable_smallest(d2: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(d2, axis=1, kind="stable")[:, :k]`` via a partial selection.

    ``argpartition`` finds the k smallest of each row; sorting those
    candidates by (distance, index) gives the stable order.  The candidate
    set is only unique when exactly k entries are <= the k-th smallest
    distance.  Rows where a tie straddles the k-th neighbor (lattices,
    duplicate points) or the k-th distance is not finite take the full
    stable sort instead.
    """
    if k == d2.shape[1]:
        return np.argsort(d2, axis=1, kind="stable")
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
    chunks whose ``chunk x N x 3`` difference tensor stays within
    ``_KNN_CHUNK_BYTES`` (at least one row).
    """
    n = source.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n} (the source point count), got k={k}")
    table = np.empty((centers.shape[0], k), dtype=np.int64)
    rows = max(1, _KNN_CHUNK_BYTES // (n * 3 * 8))
    for lo in range(0, centers.shape[0], rows):
        diff = centers[lo : lo + rows, None, :] - source[None, :, :]
        d2 = np.einsum("cnk,cnk->cn", diff, diff)
        table[lo : lo + rows] = _stable_smallest(d2, k)
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


def correlate_at(
    source_points: np.ndarray,
    source_feats: np.ndarray | None,
    center_pos: np.ndarray,
    neighbors: np.ndarray,
    layers: list[tuple[np.ndarray, np.ndarray]],
    k: int,
    d: int,
) -> np.ndarray:
    """One correlation layer: center positions against a source cloud.

    ``neighbors`` is a :func:`knn_table` of the centers into the source with
    at least ``k`` columns; every d-th of its first ``k`` columns is used,
    ``ceil(k/d)`` neighbors per center (see :func:`dilated_knn`).  The
    centroid of the invariants is the mean of ``source_points``.  ``layers``
    is the filter's ``(W, b)`` list: rectifier between layers, linear output.
    The result equals the mean over neighbors of the filter run on
    ``[invariants || features]`` per pair, but only the invariants' part of
    the first layer and the hidden layers run per pair.
    """
    if k < 1 or d < 1:
        raise ValueError(f"need k >= 1 and d >= 1, got k={k}, d={d}")
    expected = 8 + (0 if source_feats is None else source_feats.shape[1])
    in_width = layers[0][0].shape[1]
    if in_width != expected:
        raise ValueError(f"filter expects input width {in_width}, features give {expected}")
    if neighbors.shape[1] < k:
        raise ValueError(f"k={k} exceeds the {neighbors.shape[1]} columns of the neighbor table")
    nbr = neighbors[:, :k:d]
    centroid = source_points.mean(axis=0)
    inv = relative_invariants(source_points[nbr], center_pos[:, None, :], centroid)
    # first layer: the feature columns and the bias act once per source point
    (W0, b0), *rest = layers
    if source_feats is None:
        h = inv @ W0.T + b0
    else:
        h = inv @ W0[:, :8].T
        h += (source_feats @ W0[:, 8:].T + b0)[nbr]
    for i, (W, b) in enumerate(rest, start=1):
        np.maximum(h, 0.0, out=h)
        if i == len(rest):
            # the output layer is affine, so it commutes with the mean
            return h.mean(axis=1) @ W.T + b
        h = h @ W.T + b
    return h.mean(axis=1)
