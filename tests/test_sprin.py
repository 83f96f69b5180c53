"""Sparse path: invariant scalars, kNN/FPS kernels, correlation layers."""

import itertools
import tracemalloc

import numpy as np
import pytest

import rotalith.chunks as chunks
import rotalith.pipeline as pipeline
import rotalith.sprin as sprin
from rotalith.geometry import random_rotation
from rotalith.sprin import (
    correlate_at,
    dilated_knn,
    farthest_point_sampling,
    invariant_table,
    knn_table,
    relative_invariants,
)


def _cloud(seed, n=64):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 0.5, (n, 3))


# ---------------------------------------------------------------------------
# relative invariants
# ---------------------------------------------------------------------------


def test_invariants_coincident_points():
    x = np.array([0.3, 0.2, 0.1])
    c = np.array([0.0, 0.0, 0.5])
    out = relative_invariants(x, x, c)
    beta_rel, h_rel, s1, s2, s3, a1, a2, a3 = out
    assert beta_rel == 0.0
    assert np.isclose(h_rel, np.linalg.norm(x))
    assert s1 == 0.0
    assert (a1, a2, a3) == (0.0, np.pi / 2, np.pi / 2)


def test_invariants_right_isoceles_triangle():
    out = relative_invariants(
        np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), np.zeros(3)
    )
    beta_rel, h_rel, s1, s2, s3, a1, a2, a3 = out
    assert np.isclose(beta_rel, np.pi / 2)
    assert h_rel == 1.0
    assert np.isclose(s1, np.sqrt(2.0))
    assert np.isclose(s2, 1.0) and np.isclose(s3, 1.0)
    assert np.allclose([a1, a2, a3], [np.pi / 4, np.pi / 4, np.pi / 2])


def test_invariants_rotation_invariance():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        xi = rng.uniform(-1, 1, 3)
        xj = rng.uniform(-1, 1, 3)
        c = rng.uniform(-1, 1, 3)
        base = relative_invariants(xi, xj, c)
        Q = random_rotation(rng)
        rot = relative_invariants(Q @ xi, Q @ xj, Q @ c)
        worst = max(worst, np.abs(rot - base).max())
    assert worst < 1e-12


def test_invariants_angle_sum():
    rng = np.random.default_rng(1)
    xi = rng.uniform(-1, 1, (500, 3))
    xj = rng.uniform(-1, 1, (500, 3))
    c = rng.uniform(-1, 1, 3)
    out = relative_invariants(xi, xj, c)
    sums = out[:, 5] + out[:, 6] + out[:, 7]
    assert np.abs(sums - np.pi).max() < 1e-6


def test_invariants_beta_rel_matches_tmap_frame():
    # polar angle of tmap(x_j)^-1 @ x_i equals the angle between directions
    from rotalith.geometry import cart_to_spherical, tmap

    rng = np.random.default_rng(2)
    for _ in range(50):
        xi = rng.uniform(-1, 1, 3) * 0.5
        xj = rng.uniform(-1, 1, 3) * 0.5
        alpha, beta, h = cart_to_spherical(xj / max(1.0, np.linalg.norm(xj) + 1e-9))
        rel = tmap(alpha, beta, h).T @ xi
        expected = np.arccos(np.clip(rel[2] / np.linalg.norm(rel), -1, 1))
        got = relative_invariants(xi, xj, np.zeros(3))[0]
        assert abs(got - expected) < 1e-9


# ---------------------------------------------------------------------------
# kNN and FPS
# ---------------------------------------------------------------------------


def test_dilated_knn_d1_sorted_by_distance_then_index():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0], [0.5, 0, 0], [2.0, 0, 0]])
    idx = dilated_knn(pts, 0, 4, 1)
    assert idx.tolist() == [0, 3, 1, 2]  # tie between 1 and 2 broken by index


def test_dilated_knn_all_points():
    pts = _cloud(0, 10)
    idx = dilated_knn(pts, 3, 10, 1)
    assert sorted(idx.tolist()) == list(range(10))


def test_dilated_knn_subset_of_knn_and_deterministic():
    pts = _cloud(1, 50)
    d2 = np.linalg.norm(pts - pts[7], axis=1) ** 2
    knn_brute = np.argsort(d2, kind="stable")[:12]
    row = dilated_knn(pts, 7, 12, 1)
    assert np.array_equal(row, knn_brute)
    for d, width in [(2, 6), (3, 4), (5, 3), (12, 1), (13, 1)]:  # ceil(12/d) columns
        got = dilated_knn(pts, 7, 12, d)
        assert len(got) == width
        assert np.array_equal(got, row[::d])


def test_dilated_knn_errors():
    pts = _cloud(2, 5)
    with pytest.raises(ValueError):
        dilated_knn(pts, 0, 6, 1)


def _d2(source, centers):
    diff = centers[:, None, :] - source[None, :, :]
    return np.einsum("cnk,cnk->cn", diff, diff)


def _knn_oracle(source, centers, k):
    """Full stable argsort of the squared distances, the order knn_table must match."""
    return np.argsort(_d2(source, centers), axis=1, kind="stable")[:, :k]


def _lattice(n=6):
    g = np.arange(float(n)) / (n - 1) - 0.5
    return np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)


def _straddles(source, centers, k):
    """Rows whose k-th and (k+1)-th smallest distances are equal."""
    d2 = np.sort(_d2(source, centers), axis=1)
    return int(np.count_nonzero(d2[:, k - 1] == d2[:, k]))


@pytest.mark.parametrize(
    "source,centers,k",
    [
        (_cloud(20, 300), _cloud(21, 70), 17),  # generic
        (_lattice(), _lattice(), 10),  # 6 face neighbors + 12 edge neighbors straddle k
        (np.concatenate([_cloud(22, 40)] * 3), _cloud(22, 40), 5),  # every point three times
        (_cloud(23, 50), _cloud(24, 9), 50),  # k == N
        (_lattice(4), _lattice(4), 64),  # k == N with ties at every shell
        (np.concatenate([_cloud(28, 12)] * 3), _cloud(28, 12), 36),  # k == N, triplicated
    ],
    ids=["generic", "lattice", "duplicates", "k-equals-n", "lattice-k-equals-n",
         "duplicates-k-equals-n"],
)
def test_knn_table_matches_stable_argsort(source, centers, k):
    got = knn_table(source, centers, k)
    assert got.dtype == np.int64 and got.shape == (len(centers), k)
    assert np.array_equal(got, _knn_oracle(source, centers, k))


def test_knn_table_tie_cases_tie_at_the_kth_neighbor():
    # the exact path is only exercised if some row really ties at the k-th neighbor
    assert _straddles(_lattice(), _lattice(), 10) > 0
    assert _straddles(np.concatenate([_cloud(22, 40)] * 3), _cloud(22, 40), 5) > 0


@pytest.mark.parametrize("rows", [1, 7])  # rows per chunk at most
def test_knn_table_chunking(monkeypatch, rows):
    source, centers = _cloud(25, 300), _cloud(26, 50)  # 50 is not a multiple of 7
    # a center's row holds 16 bytes per source point: its distances and a temporary
    monkeypatch.setattr(chunks, "_CHUNK_BYTES", rows * 16 * len(source))
    sizes = []
    split = chunks._point_chunks

    def spy(n, row_bytes, budget=None):
        parts = split(n, row_bytes, budget)
        sizes.extend(c.stop - c.start for c in parts)
        return parts

    monkeypatch.setattr(chunks, "_point_chunks", spy)
    assert np.array_equal(knn_table(source, centers, 12), _knn_oracle(source, centers, 12))
    assert sum(sizes) == 50 and max(sizes) == rows
    assert sorted(set(sizes)) == ([1] if rows == 1 else [6, 7])  # 8 uneven chunks


def test_knn_table_memory_within_chunk_budget():
    # a chunk's squared distances and one per-axis temporary fill one budget
    # together; never a (rows, N, 3) difference tensor
    pts = pipeline.blob_cloud(2048, 5)
    tracemalloc.start()
    try:
        table = knn_table(pts, pts, 96)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - table.nbytes <= 2 * chunks._CHUNK_BYTES  # 2 MiB


def test_knn_table_errors():
    pts = _cloud(27, 5)
    for k in (0, 6):
        with pytest.raises(ValueError):
            knn_table(pts, pts, k)


def test_sprin_forward_same_with_kernel_and_oracle(monkeypatch):
    # default config: tables shared across layers with different k, and d > 1 layers
    cfg = pipeline.SprinConfig()
    pts = pipeline.blob_cloud(300, 5)
    weights = pipeline.init_weights(cfg, 2)
    fast = pipeline.sprin_forward(pts, weights, cfg)
    monkeypatch.setattr(pipeline, "knn_table", _knn_oracle)
    ref = pipeline.sprin_forward(pts, weights, cfg)
    for a, b in zip(fast, ref):
        assert a.tobytes() == b.tobytes()


def test_sprin_forward_dilation_independent_of_seed():
    # the default stack has d > 1 layers; its strided dilation draws nothing,
    # so the seed cannot move the outputs and a Haar rotation under another
    # seed stays within criterion 08's bound
    cfg = pipeline.SprinConfig()
    assert any(d > 1 for _, layers in cfg.encoder for _, d in layers)
    pts = pipeline.blob_cloud(512, 3)
    weights = pipeline.init_weights(cfg, 0)
    base = pipeline.sprin_forward(pts, weights, cfg, seed=0)
    other = pipeline.sprin_forward(pts, weights, cfg, seed=1)
    for a, b in zip(base, other):
        assert a.tobytes() == b.tobytes()
    rot_pp, rot_g = pipeline.sprin_forward(pts @ random_rotation(11).T, weights, cfg, seed=1)
    assert pipeline.relative_deviation(rot_pp, base[0])[0] < 1e-5
    assert np.linalg.norm(rot_g - base[1]) / np.linalg.norm(base[1]) < 1e-5


def _record_forward(monkeypatch, pts, cfg, names=("farthest_point_sampling", "knn_table",
                                                   "invariant_table", "correlate_at")):
    """``(name, args, result)`` of every call ``sprin_forward`` makes to ``names``."""
    calls = []

    def record(name, kernel):
        def wrapped(*args):
            out = kernel(*args)
            calls.append((name, args, out))
            return out

        return wrapped

    with monkeypatch.context() as m:
        for name in names:
            m.setattr(pipeline, name, record(name, getattr(pipeline, name)))
        pipeline.sprin_forward(pts, pipeline.init_weights(cfg, 0), cfg)
    return calls


def _levels(pts, calls):
    """The point sets of the FPS levels, from the recorded FPS picks."""
    levels = [pts]
    for name, _, picks in calls:
        if name == "farthest_point_sampling":
            levels.append(levels[-1][picks])
    return levels


def test_sprin_forward_builds_levels_and_tables_before_any_correlation(monkeypatch):
    cfg = pipeline.SprinConfig()  # 2 FPS levels, 7 (centers, source) pairs, 13 layers
    pts = pipeline.blob_cloud(512, 3)
    calls = _record_forward(monkeypatch, pts, cfg)
    _, enc, dec = pipeline._sparse_plan(cfg)
    layers = enc + dec
    # a (centers, source, d) group's invariants are built at its first layer
    groups = [(layer.centers, layer.source, layer.d) for layer in layers]
    runs = []
    for i, group in enumerate(groups):
        runs += ["invariant_table"] * (group not in groups[:i]) + ["correlate_at"]
    names = [name for name, _, _ in calls]
    # 4 distance passes for 7 tables: table(1,0), table(1,1) and table(2,1)
    # are rows of table(0,0), table(0,1) and table(1,1)
    assert names == ["farthest_point_sampling"] * 2 + ["knn_table"] * 4 + runs
    assert runs.count("invariant_table") == 8
    levels = _levels(pts, calls)
    built = [out for name, _, out in calls if name == "knn_table"]
    # groups in the order of their first layers, each with its one invariant table
    inv_tables = dict(zip(dict.fromkeys(groups), [
        (args, out) for name, args, out in calls if name == "invariant_table"
    ], strict=True))
    layer_args = [args for name, args, _ in calls if name == "correlate_at"]
    tables = {}
    for layer, group, (inv, feats, nbr, _) in zip(layers, groups, layer_args, strict=True):
        c, s, d = group
        # every d-th of the first k columns of its pair's one table, which
        # equals the oracle table of this pair
        tables.setdefault((c, s), nbr)
        assert np.shares_memory(nbr, tables[c, s])
        assert np.array_equal(nbr, _knn_oracle(levels[s], levels[c], layer.k)[:, :: layer.d])
        # the first columns of its group's one invariant table
        (src, cen, wide), table = inv_tables[group]
        assert np.array_equal(src, levels[s]) and np.array_equal(cen, levels[c])
        assert np.shares_memory(wide, nbr)
        assert np.shares_memory(inv, table) and inv.tobytes() == table[:, : nbr.shape[1]].tobytes()
        ref = _invariants_oracle(levels[s][nbr], levels[c][:, None, :], levels[s].mean(axis=0))
        assert inv.tobytes() == ref.tobytes()
    assert len(tables) == 7
    for a, b in itertools.combinations(tables.values(), 2):
        assert not np.shares_memory(a, b)
    # the tables a distance pass built are among them
    assert all(any(np.shares_memory(t, nbr) for nbr in tables.values()) for t in built)


def _dup_cloud():
    pts = _cloud(29, 100)
    return np.concatenate([pts] * 3 + [pts[:37]])  # each point three or four times


@pytest.mark.parametrize(
    "cfg", [pipeline.SprinConfig(), pipeline.small_sprin_config(k=12, d=3, m=40)],
    ids=["default", "small"],
)
@pytest.mark.parametrize("cloud", ["blob", "lattice", "duplicates"])
def test_derived_tables_equal_tables_built_from_scratch(monkeypatch, cfg, cloud):
    # a coarser level's table is rows of a finer level's table: bitwise the
    # knn_table of that level, also where ties straddle the k-th neighbor
    pts = {"blob": pipeline.blob_cloud(300, 5), "lattice": _lattice(7), "duplicates": _dup_cloud()}[cloud]
    calls = _record_forward(monkeypatch, pts, cfg)
    levels = _levels(pts, calls)
    _, enc, dec = pipeline._sparse_plan(cfg)
    built = [out for name, _, out in calls if name == "knn_table"]
    layer_args = [args for name, args, _ in calls if name == "correlate_at"]
    derived, straddles = set(), 0
    for layer, (_, _, nbr, _) in zip(enc + dec, layer_args, strict=True):
        c, s = layer.centers, layer.source
        ref = knn_table(levels[s], levels[c], layer.k)[:, :: layer.d]
        assert nbr.dtype == ref.dtype and nbr.tobytes() == ref.tobytes()
        if not any(np.shares_memory(nbr, t) for t in built):
            derived.add((c, s))
            straddles += _straddles(levels[s], levels[c], layer.k)
    # default: table(1,0), (1,1) and (2,1); small: table(1,0) and (1,1)
    assert derived == ({(1, 0), (1, 1), (2, 1)} if len(cfg.encoder) == 3 else {(1, 0), (1, 1)})
    assert (straddles > 0) == (cloud != "blob")


@pytest.mark.parametrize("small", [False, True], ids=["default", "small"])
def test_init_weights_keys_follow_the_plan(small):
    cfg = pipeline.small_sprin_config() if small else pipeline.SprinConfig()
    _, enc, dec = pipeline._sparse_plan(cfg)
    want = {f"{layer.key}_{p}{j}" for layer in enc + dec for p in "wb" for j in (0, 1)}
    for head, widths in (("cls", cfg.cls_head), ("seg", cfg.seg_head)):
        want |= {f"{head}_{p}{j}" for p in "wb" for j in range(len(widths))}
    assert set(pipeline.init_weights(cfg, 0)) == want


def test_fps_basics():
    square = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0], [0.0, 1, 0]])
    assert farthest_point_sampling(square, 1, 0).tolist() == [0]
    idx = farthest_point_sampling(square, 2, 0)
    assert idx.tolist() == [0, 2]  # diagonal corner second
    full = farthest_point_sampling(square, 4, 0)
    assert sorted(full.tolist()) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        farthest_point_sampling(square, 5, 0)


def test_fps_spreads_better_than_random():
    pts = _cloud(3, 200)
    m = 20
    fps_idx = farthest_point_sampling(pts, m)

    def min_spacing(idx):
        sub = pts[idx]
        d = np.linalg.norm(sub[:, None] - sub[None, :], axis=-1)
        return (d + np.eye(len(idx)) * 1e9).min()

    fps_gap = min_spacing(fps_idx[: m // 2])
    rng = np.random.default_rng(0)
    wins = 0
    for _ in range(100):
        rand_idx = rng.choice(len(pts), m // 2, replace=False)
        if fps_gap >= min_spacing(rand_idx):
            wins += 1
    assert wins == 100


# ---------------------------------------------------------------------------
# correlation layers
# ---------------------------------------------------------------------------


def _filter(widths, seed):
    """Seeded scaled-normal weights (variance 2 / fan_in) and small nonzero biases."""
    rng = np.random.default_rng(seed)
    layers = []
    for w_in, w_out in zip(widths[:-1], widths[1:]):
        W = rng.standard_normal((w_out, w_in)) * np.sqrt(2.0 / w_in)
        layers.append((W, 0.1 * rng.standard_normal(w_out)))
    return layers


def _mlp_apply(filt, x):
    """The filter on inputs of shape ``(..., in_width)``, one row at a time: the per-pair oracle."""
    y = np.asarray(x, dtype=float)
    last = len(filt) - 1
    for i, (W, b) in enumerate(filt):
        y = y @ W.T + b
        if i != last:
            y = np.maximum(y, 0.0)
    return y


def _correlate(source, feats, centers, filt, k):
    """One d = 1 layer as sprin_forward runs it: a neighbor table, its
    invariants, then correlate_at."""
    nbr = knn_table(source, centers, k)
    return correlate_at(invariant_table(source, centers, nbr), feats, nbr, filt)


def test_constant_filter_gives_constant_output():
    pts = _cloud(4, 30)
    v = np.array([1.0, -2.0, 3.0])
    # Every pair gives |v| after the rectifier; the output is v only if the neighbor mean is exact.
    filt = [(np.zeros((3, 8)), np.abs(v)), (np.diag(np.sign(v)), np.zeros(3))]
    out = _correlate(pts, None, pts, filt, 8)
    assert np.abs(out - v).max() < 1e-12


@pytest.mark.parametrize("widths", [(8, 3), (8, 16, 12, 3)], ids=["one-layer", "three-layer"])
def test_correlate_at_rejects_other_filter_depths(widths):
    pts = _cloud(4, 30)
    with pytest.raises(ValueError, match=f"two-layer filter, got {len(widths) - 1} layers"):
        _correlate(pts, None, pts, _filter(widths, 0), 8)


def test_correlate_at_rejects_invariants_that_do_not_fit_neighbors():
    pts = _cloud(4, 30)
    nbr = knn_table(pts, pts, 8)
    inv = invariant_table(pts, pts, nbr)
    filt = _filter((8, 16, 4), 0)
    for bad in (inv[:, :7], inv[:29], inv[..., :7]):
        with pytest.raises(ValueError, match="do not fit neighbors"):
            correlate_at(bad, None, nbr, filt)


def test_single_point_cloud():
    pt = np.array([[0.2, 0.1, -0.3]])
    filt = _filter((8, 16, 4), 0)
    out = _correlate(pt, None, pt, filt, 1)
    expected = _mlp_apply(filt, relative_invariants(pt[0], pt[0], pt[0]))
    assert np.abs(out[0] - expected).max() < 1e-12


def test_sparse_correlate_rotation_invariance():
    pts = _cloud(5, 48)
    filt = _filter((8, 32, 16), 1)
    k = 12
    base = _correlate(pts, None, pts, filt, k)
    rng = np.random.default_rng(9)
    for _ in range(5):
        rot_pts = pts @ random_rotation(rng).T
        rot = _correlate(rot_pts, None, rot_pts, filt, k)
        rel = np.linalg.norm(rot - base, axis=1) / np.maximum(np.linalg.norm(base, axis=1), 1e-30)
        assert rel.max() < 1e-5


def test_sparse_correlate_with_features_width_check():
    pts = _cloud(6, 20)
    feats = np.random.default_rng(0).standard_normal((20, 5))
    filt = _filter((8 + 5, 16, 4), 2)
    out = _correlate(pts, feats, pts, filt, 6)
    assert out.shape == (20, 4)
    with pytest.raises(ValueError):
        _correlate(pts, feats, pts, _filter((8, 8, 4), 0), 6)


def test_mean_aggregation_bound():
    pts = _cloud(7, 40)
    filt = _filter((8, 16, 3), 3)
    k = 10
    out = _correlate(pts, None, pts, filt, k)
    centroid = pts.mean(axis=0)
    for j in range(0, 40, 7):
        idx = dilated_knn(pts, j, 10, 1)
        per = _mlp_apply(filt, relative_invariants(pts[idx], pts[j], centroid))
        assert np.all(out[j] <= per.max(axis=0) + 1e-12)
        assert np.all(out[j] >= per.min(axis=0) - 1e-12)


def test_permutation_equivariance():
    pts = _cloud(8, 32)
    filt = _filter((8, 16, 8), 4)
    k = 8
    out = _correlate(pts, None, pts, filt, k)
    perm = np.random.default_rng(1).permutation(32)
    out_p = _correlate(pts[perm], None, pts[perm], filt, k)
    assert np.abs(out_p - out[perm]).max() < 1e-12


# set abstraction (FPS centers, then correlate at them) and feature
# propagation (correlate finer points against a coarser featured cloud)
def test_set_abstraction_reduces_to_correlate_and_single_center():
    pts = _cloud(10, 24)
    filt = _filter((8, 16, 6), 6)
    k = 6
    idx = farthest_point_sampling(pts, 24)
    assert sorted(idx.tolist()) == list(range(24))
    feats = _correlate(pts, None, pts[idx], filt, k)
    direct = _correlate(pts, None, pts, filt, k)
    assert np.abs(feats - direct[idx]).max() < 1e-12
    one = farthest_point_sampling(pts, 1)
    one_feat = _correlate(pts, None, pts[one], filt, k)
    assert one.shape == (1,) and one_feat.shape == (1, 6)
    assert np.abs(one_feat[0] - direct[one[0]]).max() < 1e-12


def test_feature_propagation_reduces_and_single_down_point():
    pts = _cloud(11, 20)
    feats = np.random.default_rng(2).standard_normal((20, 4))
    filt = _filter((8 + 4, 16, 6), 7)
    down = pts[:1]
    dfeat = feats[:1]
    out = _correlate(down, dfeat, pts, filt, 1)
    for j in (0, 7, 19):
        inv = relative_invariants(down[0], pts[j], down.mean(axis=0))
        expected = _mlp_apply(filt, np.concatenate([inv, dfeat[0]]))
        assert np.abs(out[j] - expected).max() < 1e-12


def test_set_abstraction_rotation_invariance():
    pts = _cloud(14, 40)
    filt = _filter((8, 16, 6), 9)
    k = 8
    idx = farthest_point_sampling(pts, 12)
    feats = _correlate(pts, None, pts[idx], filt, k)
    rot_pts = pts @ random_rotation(6).T
    idx_r = farthest_point_sampling(rot_pts, 12)
    feats_r = _correlate(rot_pts, None, rot_pts[idx_r], filt, k)
    assert np.array_equal(idx_r, idx)  # same centers selected
    rel = np.linalg.norm(feats_r - feats, axis=1) / np.maximum(np.linalg.norm(feats, axis=1), 1e-30)
    assert rel.max() < 1e-5


def test_feature_propagation_rotation_invariance():
    rng = np.random.default_rng(3)
    down = _cloud(12, 30)
    up = _cloud(13, 50)
    feats = rng.standard_normal((30, 4))
    filt = _filter((8 + 4, 16, 6), 8)
    k = 8
    base = _correlate(down, feats, up, filt, k)
    Q = random_rotation(4)
    rot = _correlate(down @ Q.T, feats, up @ Q.T, filt, k)
    rel = np.linalg.norm(rot - base, axis=1) / np.maximum(np.linalg.norm(base, axis=1), 1e-30)
    assert rel.max() < 1e-5


# ---------------------------------------------------------------------------
# per-pair oracle: correlate_at splits the filter at its linear ends (first
# layer per source point, last layer per center on the mean); the oracle
# concatenates [invariants || features] and runs the whole filter per pair.
# The references take the layer's points, so neither shares a table with
# sprin_forward's plan
# ---------------------------------------------------------------------------


def _correlate_oracle(source_points, source_feats, center_pos, neighbors, filt):
    x = relative_invariants(
        source_points[neighbors], center_pos[:, None, :], source_points.mean(axis=0)
    )
    if source_feats is not None:
        x = np.concatenate([x, source_feats[neighbors]], axis=-1)
    return _mlp_apply(filt, x).mean(axis=1)


def _reference_correlate_at(source_points, source_feats, center_pos, neighbors, layers):
    """The layer as one call from the points: invariants per block of centers, then the filter."""
    (W0, b0), (W1, b1) = layers
    centroid = source_points.mean(axis=0)[:, None]
    src = sprin._point_terms(source_points.T, centroid)
    cen = sprin._point_terms(center_pos.T, centroid)
    point = None if source_feats is None else source_feats @ W0[:, 8:].T + b0
    hidden = W0.shape[0]
    mean = np.empty((neighbors.shape[0], hidden))
    for rows in chunks._point_chunks(neighbors.shape[0], 8 * neighbors.shape[1] * max(8, hidden)):
        idx = neighbors[rows]
        inv = sprin._invariants(src[:, idx], cen[:, rows, None])
        h = inv @ W0[:, :8].T
        h += b0 if point is None else point[idx]
        np.maximum(h, 0.0, out=h)
        mean[rows] = h.mean(axis=1)
    return mean @ W1.T + b1


def _reference_sprin_forward(points, weights, cfg, correlate):
    """sprin_forward with every layer's table built from scratch for its own
    k and the layer run by ``correlate(source, feats, centers, neighbors, filter)``."""
    fps, enc, dec = pipeline._sparse_plan(cfg)
    levels = [points]
    for m in fps:
        prev = levels[-1]
        levels.append(prev[farthest_point_sampling(prev, m, pipeline._canonical_fps_start(prev))])
    feats = None
    for i, layer in enumerate(enc + dec):
        src, cen = levels[layer.source], levels[layer.centers]
        nbr = knn_table(src, cen, layer.k)[:, :: layer.d]
        feats = correlate(src, feats, cen, nbr, pipeline._mlp(weights, layer.key))
        if i == len(enc) - 1:
            pooled = np.concatenate([feats.max(axis=0), feats.mean(axis=0)])
            global_feat = pipeline._head_apply(pipeline._mlp(weights, "cls"), pooled)
    return pipeline._head_apply(pipeline._mlp(weights, "seg"), feats), global_feat


ORACLE_CLOUDS = {
    "blob": pipeline.blob_cloud(150, 1),
    "lattice": _lattice(),
    "duplicates": np.concatenate([_cloud(22, 40)] * 3),
}


def _invariants_oracle(x_i, x_j, c):
    """The invariants as trailing-axis reductions, one full (..., 3) array per term."""
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
    side = sprin._DEGENERATE_SIDE
    degenerate = (s1 < side) | (s2 < side) | (s3 < side)
    a1 = np.where(degenerate, 0.0, a1)
    a2 = np.where(degenerate, np.pi / 2.0, a2)
    a3 = np.where(degenerate, np.pi / 2.0, a3)

    return np.stack([beta_rel, ni, s1, s2, s3, a1, a2, a3], axis=-1)


def _with_origin():
    pts = pipeline.blob_cloud(150, 2)
    pts[6] = 0.0  # a center and its own nearest neighbor: |x_i| = |x_j| = 0
    return pts


INVARIANT_CASES = {
    **{name: (pts, pts[::3]) for name, pts in ORACLE_CLOUDS.items()},
    "origin": (_with_origin(), _with_origin()[::3]),
    "centroid": (_lattice(5), _lattice(5)[::3]),  # odd lattice: its mean 0 is a point
    "coincident-centers": (_cloud(30, 80), _cloud(30, 80)),
}


@pytest.mark.parametrize(
    "shapes",
    [((500, 3), (500, 3), (3,)), ((7, 1, 3), (1, 9, 3), (7, 9, 3)), ((3,), (3,), (4, 1, 3))],
    ids=["pairs", "grid", "centroids-only"],
)
def test_relative_invariants_broadcast_bitwise_equal_to_oracle(shapes):
    rng = np.random.default_rng(3)
    x_i, x_j, c = (rng.uniform(-1, 1, shape) for shape in shapes)
    ref = _invariants_oracle(x_i, x_j, c)
    got = relative_invariants(x_i, x_j, c)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


# bitwise: the per-point terms and the per-pair sums add in the oracle's order.
# invariant_table runs with all centers in one block and with a budget of 5
# centers per block at d = 1; the spy counts its blocks
@pytest.mark.parametrize("case", list(INVARIANT_CASES))
def test_invariants_bitwise_equal_to_oracle(monkeypatch, case):
    pts, centers = INVARIANT_CASES[case]
    table = knn_table(pts, centers, 15)
    centroid = pts.mean(axis=0)
    seen = []
    kernel = sprin._invariants

    def spy(src, cen):
        seen.append(cen.shape[1])
        return kernel(src, cen)

    monkeypatch.setattr(sprin, "_invariants", spy)
    for d in (1, 2, 3):
        nbr = table[:, :12:d]
        ref = _invariants_oracle(pts[nbr], centers[:, None, :], centroid)
        for budget in (chunks._CHUNK_BYTES, 5 * 64 * 12):
            seen.clear()
            with monkeypatch.context() as m:
                m.setattr(chunks, "_CHUNK_BYTES", budget)
                got = invariant_table(pts, centers, nbr)
            assert (len(seen) > 1) == (budget < chunks._CHUNK_BYTES)
            assert sum(seen) == len(centers)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        # a layer reading fewer columns reads the first columns of a wider table
        wide = invariant_table(pts, centers, table[:, ::d])
        assert wide[:, : nbr.shape[1]].tobytes() == ref.tobytes()
        got = relative_invariants(pts[nbr], centers[:, None, :], centroid)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    assert (ref[..., 2] == 0.0).any()  # a center is its own nearest neighbor: s1 = 0
    if case == "origin":
        assert (ref[..., 1] == 0.0).any()
    if case == "centroid":
        assert (ref[..., 3] == 0.0).any()


def _assert_rel_close(got, ref, tol=1e-12):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= tol * np.abs(ref).max()


# "mean": the layer output is the mean over the selected neighbors
@pytest.mark.parametrize("d", [1, 2, 3], ids=lambda d: f"{d}-mean")
@pytest.mark.parametrize("cloud", list(ORACLE_CLOUDS))
def test_correlate_at_matches_per_pair_oracle(cloud, d):
    pts = ORACLE_CLOUDS[cloud]
    centers = pts[::3]
    nbr = knn_table(pts, centers, 15)[:, :12:d]  # every d-th of the 12 nearest
    feats = np.random.default_rng(4).standard_normal((len(pts), 5))
    for f in (None, feats):
        filt = _filter((8 + (0 if f is None else 5), 16, 6), 1)
        got = correlate_at(invariant_table(pts, centers, nbr), f, nbr, filt)
        ref = _correlate_oracle(pts, f, centers, nbr, filt)
        _assert_rel_close(got, ref)
        ref = _reference_correlate_at(pts, f, centers, nbr, filt)
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("cloud", list(ORACLE_CLOUDS), ids=lambda c: f"{c}-mean")
def test_sprin_forward_matches_per_pair_oracle(monkeypatch, cloud):
    pts = ORACLE_CLOUDS[cloud]
    for d in (1, 2, 3):
        cfg = pipeline.small_sprin_config(k=12, d=d, m=40)
        weights = pipeline.init_weights(cfg, d)
        rng = np.random.default_rng(d)
        for key in weights:  # nonzero biases, so a misplaced bias shows
            if "_b" in key:
                weights[key] = 0.1 * rng.standard_normal(weights[key].shape)
        fast = pipeline.sprin_forward(pts, weights, cfg)
        ref = _reference_sprin_forward(pts, weights, cfg, _correlate_oracle)
        for got, want in zip(fast, ref):
            _assert_rel_close(got, want)


@pytest.mark.parametrize("cloud", ["blob", "lattice", "duplicates"])
def test_sprin_forward_bitwise_equal_to_reference_correlate_at(cloud):
    # the default stack: shared invariant tables, derived neighbor tables and
    # d > 1 groups against one from-scratch table and correlation per layer
    pts = {"blob": pipeline.blob_cloud(300, 5), "lattice": _lattice(7), "duplicates": _dup_cloud()}[cloud]
    cfg = pipeline.SprinConfig()
    weights = pipeline.init_weights(cfg, 2)
    fast = pipeline.sprin_forward(pts, weights, cfg)
    ref = _reference_sprin_forward(pts, weights, cfg, _reference_correlate_at)
    for got, want in zip(fast, ref):
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# center blocks: invariant_table and correlate_at run their per-pair work one
# block of centers at a time, within the chunk budget; no block size moves a bit
# ---------------------------------------------------------------------------


def _block_sizes(monkeypatch, budget, run):
    """``run()`` with the chunk budget set to ``budget``; its result and, per
    split under that budget, the centers of each block."""
    sizes = []
    split = chunks._point_chunks

    def spy(n, row_bytes, budget=None):
        parts = split(n, row_bytes, budget)
        if budget is None:  # every sparse split: kNN rows, invariants, layers
            sizes.append([c.stop - c.start for c in parts])
        return parts

    with monkeypatch.context() as m:
        m.setattr(chunks, "_CHUNK_BYTES", budget)
        m.setattr(chunks, "_point_chunks", spy)
        return run(), sizes


def _check_blocks(monkeypatch, run, row):
    """``run()``'s one split of 50 centers, at ``row`` bytes per center, is
    one block, 50 blocks of one, or 8 of 6 or 7, and gives the same bytes."""
    ref, sizes = _block_sizes(monkeypatch, 1 << 40, run)
    assert sizes == [[50]]
    got, sizes = _block_sizes(monkeypatch, 1, run)
    assert sizes == [[1] * 50] and got.tobytes() == ref.tobytes()
    got, sizes = _block_sizes(monkeypatch, 7 * row, run)  # 8 blocks of 6 or 7
    assert sorted(set(sizes[0])) == [6, 7] and sum(sizes[0]) == 50
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", [1, 3])
def test_invariant_table_blocks_bitwise_equal_to_one_block(monkeypatch, d):
    pts = ORACLE_CLOUDS["blob"]
    centers = pts[::3]  # 50 centers
    nbr = knn_table(pts, centers, 15)[:, :12:d]
    row = 64 * len(range(0, 12, d))  # ceil(12/d) pairs of 8 float64 per center
    _check_blocks(monkeypatch, lambda: invariant_table(pts, centers, nbr), row)


@pytest.mark.parametrize("d", [1, 3])
def test_correlate_at_blocks_bitwise_equal_to_one_block(monkeypatch, d):
    pts = ORACLE_CLOUDS["blob"]
    centers = pts[::3]  # 50 centers
    nbr = knn_table(pts, centers, 15)[:, :12:d]
    inv = invariant_table(pts, centers, nbr)
    feats = np.random.default_rng(5).standard_normal((len(pts), 5))
    for f in (None, feats):
        filt = _filter((8 + (0 if f is None else 5), 16, 6), 1)
        row = 16 * len(range(0, 12, d)) * 16  # ceil(12/d) pairs per center at 16 hidden
        _check_blocks(monkeypatch, lambda: correlate_at(inv, f, nbr, filt), row)  # noqa: B023


def test_sprin_forward_blocks_bitwise_equal_to_one_block(monkeypatch):
    cfg = pipeline.SprinConfig()
    pts = pipeline.blob_cloud(300, 5)
    weights = pipeline.init_weights(cfg, 2)
    run = lambda: pipeline.sprin_forward(pts, weights, cfg)  # noqa: E731
    ref, sizes = _block_sizes(monkeypatch, 1 << 40, run)
    # one block per distance pass (4), invariant table (8 groups) and layer (13)
    assert len(sizes) == 25 and all(len(blocks) == 1 for blocks in sizes)
    for budget in (1, 50_000):
        got, sizes = _block_sizes(monkeypatch, budget, run)
        assert len(sizes) == 25 and sum(map(len, sizes)) > 25
        if budget == 1:  # the 4 distance passes run first, one center per chunk
            assert all(set(blocks) == {1} for blocks in sizes[:4])
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes()


def test_invariant_table_memory_within_block_budget():
    # the widest default-stack invariant table at 2048 points: 2048 centers x
    # 32 neighbors is a 4 MiB table; beside it, a block holds its gathered
    # per-point terms, its invariants and their per-pair temporaries, each
    # about one budget, never the 8 MiB of gathered terms for all pairs
    pts = pipeline.blob_cloud(2048, 5)
    nbr = knn_table(pts, pts, 96)[:, ::3]
    tracemalloc.start()
    try:
        table = invariant_table(pts, pts, nbr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape == (2048, 32, 8)
    assert peak - table.nbytes <= 4 * chunks._CHUNK_BYTES


def test_correlate_at_memory_within_block_budget():
    # the largest default-stack layer at 2048 points: 2048 centers x 32
    # neighbors at 64 hidden units is a 32 MiB activation in one piece; a
    # block holds two activations of at most one budget each, beside the
    # per-point first-layer term and the (C, 64) mean
    pts = pipeline.blob_cloud(2048, 5)
    nbr = knn_table(pts, pts, 96)[:, :96:3]
    inv = invariant_table(pts, pts, nbr)
    feats = np.random.default_rng(6).standard_normal((2048, 64))
    filt = _filter((8 + 64, 64, 64), 7)
    tracemalloc.start()
    try:
        out = correlate_at(inv, feats, nbr, filt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 6 * chunks._CHUNK_BYTES
