"""End-to-end dense and sparse feature pipelines, descriptor matching, and the
toy classification protocol used to demonstrate that training without
rotations transfers to arbitrarily rotated inputs.

Backbone weights are random, seeded, and frozen: invariance is a property of
the architecture, not of training, so random invariant features are enough to
exercise every invariance claim.  Only the small classification head is
trained (plain gradient descent with analytic gradients).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import chunks
from . import harmonics as sh
from .errors import InputFormatError, NumericError
from .geometry import cart_to_spherical, random_rotation, rot_z
from .resample import bilinear_sample
from .so3 import S2Signal, gamma_average, svc_coeffs
from .sprin import correlate_at, farthest_point_sampling, invariant_table, knn_table
from .voxelize import SamplingConfig, _cloud_array, normalize_cloud

# prin_forward's voxelizer stage, bound as `voxelize`: the name perfbench's
# tracer times.  It takes the spherical coordinates the read-out reuses.
from .voxelize import _voxelize_spherical as voxelize


PRIN_CHANNELS = (40, 40, 50)  # each dense correlation's output width
PRIN_FC_WIDTHS = (50, 50)  # each layer of the dense per-point and global heads
PIPELINES = ("prin", "sprin")  # the dense and the sparse path


@dataclass(frozen=True)
class PrinConfig:
    """Dense-path bandwidth and sampling (xi, mode); desk-scale defaults (bandwidth 8)."""

    bandwidth: int = 8
    xi: float = SamplingConfig.xi
    mode: str = SamplingConfig.mode

    def __post_init__(self):
        if self.bandwidth < 2:
            raise ValueError(f"bandwidth must be >= 2, got {self.bandwidth}")
        SamplingConfig(self.xi, self.mode)  # the voxelizer's check of xi and mode


@dataclass(frozen=True)
class SprinConfig:
    """Sparse-path layer stack.

    ``encoder`` stages are ``(m, layers)``: FPS to m centers (None keeps the
    current points) followed by correlation layers given as (k, d) pairs.
    ``decoder`` stages mirror the downsamplings in reverse; the first layer of
    each stage propagates features up to the next-finer level.
    """

    encoder: tuple = (
        (None, ((64, 2), (64, 2))),
        (128, ((72, 3), (32, 1), (32, 1))),
        (32, ((32, 1), (32, 1), (32, 1))),
    )
    decoder: tuple = (
        ((16, 1), (32, 1)),
        ((32, 1), (48, 2), (96, 3)),
    )
    hidden: int = 64
    channels: int = 64
    cls_head: tuple[int, ...] = (256, 64)
    seg_head: tuple[int, ...] = (128, 256)

    def __post_init__(self):
        if not self.encoder:
            raise ValueError("encoder needs at least one stage")
        stages = [(f"encoder stage {si}", layers) for si, (_, layers) in enumerate(self.encoder)]
        stages += [(f"decoder stage {si}", layers) for si, layers in enumerate(self.decoder)]
        for name, layers in stages:
            if not layers:
                raise ValueError(f"{name} has no layers")
            for k, d in layers:
                if k < 1 or d < 1:
                    raise ValueError(f"{name}: need k >= 1 and d >= 1, got k={k}, d={d}")
        for si, (m, _) in enumerate(self.encoder):
            if m is not None and m < 1:
                raise ValueError(f"encoder stage {si}: need m >= 1, got m={m}")
        n_down = sum(1 for m, _ in self.encoder if m is not None)
        if len(self.decoder) != n_down:
            raise ValueError(
                f"decoder must have one stage per downsampling, got {len(self.decoder)} for {n_down}"
            )
        # the FPS levels have fixed sizes; only the input cloud's size varies
        fps, enc, dec = _sparse_plan(self)
        for what, need, lvl in _level_demands(fps, enc + dec):
            if lvl > 0 and need > fps[lvl - 1]:
                raise ValueError(
                    f"{what} needs {need} points, but level {lvl} holds {fps[lvl - 1]}"
                )


def small_sprin_config(k: int = 16, d: int = 1, m: int = 16) -> SprinConfig:
    """A light stack for quick experiments and tests on small clouds."""
    return SprinConfig(
        encoder=((None, ((k, d),)), (m, ((k, d), (k, d)))),
        decoder=(((k, d), (k, d)),),
        hidden=32,
        channels=32,
        cls_head=(64, 32),
        seg_head=(32, 64),
    )


@dataclass
class Descriptor:
    """Per-point or global invariant features."""

    feats: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.feats = np.asarray(self.feats, dtype=float)
        if self.feats.ndim != 2 or self.feats.size == 0:
            raise ValueError(f"expected a non-empty (N, C) feature array, got {self.feats.shape}")
        if not np.all(np.isfinite(self.feats)):
            raise ValueError("descriptor contains non-finite entries")

    @property
    def channels(self) -> int:
        return self.feats.shape[-1]


# ---------------------------------------------------------------------------
# weight initialization
# ---------------------------------------------------------------------------


def _weight_shapes(cfg) -> dict[str, tuple[int, ...]]:
    """Every weight key the config's forward pass reads, with its shape, in
    the order :func:`init_weights` draws them.  An MLP under ``prefix`` holds
    ``prefix_w{j}`` ``(out, in)`` and ``prefix_b{j}`` ``(out,)``; ``svc{i}``
    holds the zonal rows ``psi_l0`` of a :data:`PRIN_CHANNELS` layer, ``(B, C_out, C_in)``."""
    shapes: dict[str, tuple[int, ...]] = {}

    def mlp(prefix: str, widths: tuple[int, ...]) -> None:
        for j, (w_in, w_out) in enumerate(zip(widths[:-1], widths[1:])):
            shapes[f"{prefix}_w{j}"] = (w_out, w_in)
            shapes[f"{prefix}_b{j}"] = (w_out,)

    if isinstance(cfg, PrinConfig):
        chans = (1,) + PRIN_CHANNELS
        for li, (c_in, c_out) in enumerate(zip(chans[:-1], chans[1:])):
            shapes[f"svc{li}"] = (cfg.bandwidth, c_out, c_in)
        mlp("pp", (chans[-1],) + PRIN_FC_WIDTHS)
        mlp("gl", (chans[-1],) + PRIN_FC_WIDTHS)
    elif isinstance(cfg, SprinConfig):
        _, enc, dec = _sparse_plan(cfg)
        width = 8  # the first filter reads the invariants alone
        for layer in enc:
            mlp(layer.key, (width, cfg.hidden, cfg.channels))
            width = 8 + cfg.channels
        mlp("cls", (2 * cfg.channels,) + cfg.cls_head)  # the pooled max and mean
        for layer in dec:
            mlp(layer.key, (width, cfg.hidden, cfg.channels))
        mlp("seg", (cfg.channels,) + cfg.seg_head)
    else:
        raise TypeError(f"unsupported config type {type(cfg).__name__}")
    return shapes


def _draw(rng, shape: tuple[int, ...]) -> np.ndarray:
    """The one weight draw: normal with variance 2 / fan-in (the last axis),
    or zeros for a bias ``(out,)``."""
    if len(shape) == 1:
        return np.zeros(shape)
    return rng.standard_normal(shape) * np.sqrt(2.0 / shape[-1])


def init_weights(cfg, seed: int) -> dict[str, np.ndarray]:
    """Seeded :func:`_draw` of every filter and head, in schema order.  Each
    ``svc{i}`` draws degree l's ``2l+1`` SH rows in turn and keeps m = 0, so
    its values and every later key are those of a full ``(B^2, C_out, C_in)`` draw."""
    rng = np.random.default_rng(seed)
    weights = {}
    for key, shape in _weight_shapes(cfg).items():
        if key.startswith("svc"):
            w = weights[key] = np.empty(shape)
            for l in range(shape[0]):  # degree l's block holds m = -l..l; keep m = 0
                w[l] = _draw(rng, (2 * l + 1,) + shape[1:])[l]
        else:
            weights[key] = _draw(rng, shape)
    return weights


def _checked_weights(weights: dict, cfg) -> dict[str, np.ndarray]:
    """``weights`` as arrays, checked once against :func:`_weight_shapes`.

    A missing key, a key the config does not read, a shape other than the
    config's or a non-finite entry raises a ValueError that names the key.
    """
    shapes = _weight_shapes(cfg)
    out = {}
    for key, shape in shapes.items():
        if key not in weights:
            raise ValueError(f"weights are missing {key!r}; the config wants shape {shape}")
        arr = out[key] = np.asarray(weights[key])
        if arr.shape != shape:
            raise ValueError(f"weight {key!r} has shape {arr.shape}, the config wants {shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"weight {key!r} holds non-finite entries")
    for key in weights:
        if key not in shapes:
            raise ValueError(f"weights hold {key!r}, which the config does not read")
    return out


def _mlp(weights: dict, prefix: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ``(W, b)`` pairs of the MLP under ``prefix``.  ``weights`` are
    checked (:func:`_checked_weights`), so the ``prefix_w*`` keys give the depth."""
    depth = sum(key.startswith(f"{prefix}_w") for key in weights)
    return [(weights[f"{prefix}_w{j}"], weights[f"{prefix}_b{j}"]) for j in range(depth)]


def _head_apply(layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray) -> np.ndarray:
    """The library's one MLP rule: a rectifier between layers, the last layer
    linear.  Every layer after the first reads the rectified output of the
    one before; the result is the last layer's affine output, so no output
    column is clipped to zero.  ``x`` itself is not modified."""
    for j, (W, b) in enumerate(layers):
        if j:
            np.maximum(x, 0.0, out=x)
        x = x @ W.T
        x += b
    return x


def _canonical_fps_start(points: np.ndarray) -> int:
    """Permutation-stable start: the point farthest from the centroid."""
    diff = points - points.mean(axis=0)
    return int(np.argmax(np.einsum("nk,nk->n", diff, diff)))


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def prin_forward(
    points: np.ndarray, weights: dict[str, np.ndarray], cfg: PrinConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Dense path: voxelize, correlate, re-sample at the input points.

    Correlation outputs are constant along the radial axis, so activations
    are carried as ``(2B, 2B, C)`` sphere grids: the voxel grid is averaged
    over its radial bins once by :func:`~rotalith.so3.gamma_average`.  Each
    layer analyzes its grid, applies :func:`~rotalith.so3.svc_coeffs` to the
    coefficients and synthesizes the output on the grid, where the next
    layer rectifies it; the transforms are this function's, so it chooses
    the grids.  The per-point head's first layer is affine and the bilinear
    weights sum to 1, so it runs once per sphere cell, before the read-out;
    each chunk of rows is then read by bilinear interpolation and fed to the
    rest of the head.

    Returns ``(per_point (N, PRIN_FC_WIDTHS[-1]), global (PRIN_FC_WIDTHS[-1],))``.
    The cloud must already be normalized into the unit ball.  ``weights``
    must hold exactly the keys and shapes :func:`init_weights` gives
    ``cfg``, all finite; anything else raises a ValueError naming the key
    before any work.
    """
    points = _cloud_array(points)
    w = _checked_weights(weights, cfg)
    B = cfg.bandwidth
    pp, gl = _mlp(w, "pp"), _mlp(w, "gl")
    # one spherical conversion serves the voxelizer and the read-out
    alpha, beta, h = cart_to_spherical(points)
    act = gamma_average(voxelize(alpha, beta, h, B, SamplingConfig(cfg.xi, cfg.mode))).data
    for li in range(len(PRIN_CHANNELS)):
        if li:
            np.maximum(act, 0.0, out=act)
        # transforms through the module perfbench's tracer rebinds; S2Signal rejects non-finite output
        act = S2Signal(B, sh.sh_synthesis(svc_coeffs(sh.sh_analysis(act, B), w[f"svc{li}"]), B)).data
    (W0, b0), *rest = pp
    first = act.reshape(-1, PRIN_CHANNELS[-1]) @ W0.T
    first += b0
    first = first.reshape(2 * B, 2 * B, -1)
    # read-out and the rest of the head per chunk of rows, each chunk within
    # the chunk budget at the widest row any head layer holds
    per_point = np.empty((points.shape[0], PRIN_FC_WIDTHS[-1]))
    for chunk in chunks._point_chunks(points.shape[0], 8 * max(PRIN_FC_WIDTHS)):
        h = bilinear_sample(first, B, alpha[chunk], beta[chunk])
        np.maximum(h, 0.0, out=h)
        per_point[chunk] = _head_apply(rest, h)
    global_feat = _head_apply(gl, act.max(axis=(0, 1)))
    return per_point, global_feat


class _SparseLayer(NamedTuple):
    key: str  # weight-key prefix
    k: int
    d: int
    centers: int  # point-set level the layer writes features at
    source: int  # point-set level it reads neighbors and features from


def _sparse_plan(cfg: SprinConfig) -> tuple[list[int], list[_SparseLayer], list[_SparseLayer]]:
    """FPS sample sizes, then the encoder and decoder layers in run order.

    Level 0 is the input cloud and level ``l + 1`` is ``fps[l]`` points of
    level ``l``.  The first layer of an encoder stage reads the previous
    level; the first layer of a decoder stage writes the next-finer one.
    """
    fps, enc = [], []
    for si, (m, layers) in enumerate(cfg.encoder):
        src = len(fps)
        if m is not None:
            fps.append(m)
        for li, (k, d) in enumerate(layers):
            enc.append(_SparseLayer(f"enc{si}_{li}", k, d, len(fps), src))
            src = len(fps)
    dec, lvl = [], len(fps)
    for si, layers in enumerate(cfg.decoder):
        for li, (k, d) in enumerate(layers):
            src, lvl = lvl, lvl - (li == 0)
            dec.append(_SparseLayer(f"dec{si}_{li}", k, d, lvl, src))
    return fps, enc, dec


def _level_demands(fps: list[int], layers: list[_SparseLayer]) -> list[tuple[str, int, int]]:
    """``(what, points, level)``: every FPS sample and every layer's k, with
    the level whose points it draws from."""
    demands = [(f"FPS level {lvl + 1}", m, lvl) for lvl, m in enumerate(fps)]
    demands += [(f"layer {layer.key}", layer.k, layer.source) for layer in layers]
    return demands


def sprin_forward(
    points: np.ndarray, weights: dict[str, np.ndarray], cfg: SprinConfig, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Sparse path: encoder with set abstraction, pooled head, and a
    propagation decoder back to full resolution.

    Runs the plan in three phases: every FPS level, then one neighbor table
    per (centers, source) pair of levels, built for the largest k any layer
    uses on that pair, then the encoder layers, the pooled ``cls`` head and
    the decoder layers.  Level c's points are rows of level c - 1, so the
    pair (c, s) takes rows of the (c - 1, s) table when that table is at
    least k wide; only the other pairs run a distance pass.  Layers
    with the same (centers, source, d) read one :func:`invariant_table`,
    built at the group's first layer for its largest k and dropped after
    its last; each layer reads its first ``ceil(k/d)`` columns.  A layer
    with dilation d reads every d-th of its k nearest neighbors, so the
    output depends on nothing but the cloud and the weights.  ``seed`` is
    ignored; it stays only for callers that still pass it.  A cloud with
    fewer points than the largest FPS size or k the stack draws from it
    raises :class:`InputFormatError` before any work.

    Returns ``(per_point (N, seg_head[-1]), global (cls_head[-1],))``.
    ``weights`` are checked as in :func:`prin_forward`, before any work.
    """
    points = _cloud_array(points)
    fps, enc, dec = _sparse_plan(cfg)
    on_input = [demand for demand in _level_demands(fps, enc + dec) if demand[2] == 0]
    what, need, _ = max(on_input, key=lambda demand: demand[1])
    if points.shape[0] < need:
        raise InputFormatError(
            f"the sparse stack needs at least {need} input points, for {what}; "
            f"the cloud has {points.shape[0]}"
        )
    w = _checked_weights(weights, cfg)

    levels, picks = [points], []
    for m in fps:
        prev = levels[-1]
        picks.append(farthest_point_sampling(prev, m, _canonical_fps_start(prev)))
        levels.append(prev[picks[-1]])
    layers = enc + dec
    k_max: dict[tuple[int, int], int] = {}
    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, layer in enumerate(layers):
        pair = (layer.centers, layer.source)
        k_max[pair] = max(k_max.get(pair, 0), layer.k)
        groups.setdefault(pair + (layer.d,), []).append(i)
    tables: dict[tuple[int, int], np.ndarray] = {}
    for (c, s), k in sorted(k_max.items()):
        # level c's points are rows picks[c - 1] of level c - 1, and table rows
        # are stable by (distance, index), so a wide enough finer table holds them
        finer = tables.get((c - 1, s))
        if finer is not None and finer.shape[1] >= k:
            tables[c, s] = finer[picks[c - 1], :k]
        else:
            tables[c, s] = knn_table(levels[s], levels[c], k)

    invs: dict[tuple[int, int, int], np.ndarray] = {}
    feats = None
    for i, layer in enumerate(layers):
        c, s, d = group = layer.centers, layer.source, layer.d
        if group not in invs:
            k = max(layers[j].k for j in groups[group])
            invs[group] = invariant_table(levels[s], levels[c], tables[c, s][:, :k:d])
        neighbors = tables[c, s][:, : layer.k : d]
        inv = invs[group][:, : neighbors.shape[1]]  # the first ceil(k/d) columns
        feats = correlate_at(inv, feats, neighbors, _mlp(w, layer.key))
        if i == groups[group][-1]:
            del invs[group], inv  # the view would keep the table alive
        if i == len(enc) - 1:
            pooled = np.concatenate([feats.max(axis=0), feats.mean(axis=0)])
            global_feat = _head_apply(_mlp(w, "cls"), pooled)
    return _head_apply(_mlp(w, "seg"), feats), global_feat


def forward(points: np.ndarray, weights: dict, cfg) -> tuple[np.ndarray, np.ndarray]:
    """:func:`prin_forward` for a :class:`PrinConfig`, :func:`sprin_forward`
    for a :class:`SprinConfig`; any other config type raises TypeError."""
    if isinstance(cfg, PrinConfig):
        return prin_forward(points, weights, cfg)
    if isinstance(cfg, SprinConfig):
        return sprin_forward(points, weights, cfg)
    raise TypeError(f"unsupported config type {type(cfg).__name__}")


# ---------------------------------------------------------------------------
# descriptor matching
# ---------------------------------------------------------------------------


def match_descriptors(
    da: Descriptor,
    db: Descriptor,
    labels_a: np.ndarray | None = None,
    labels_b: np.ndarray | None = None,
) -> tuple[np.ndarray, float | None]:
    """Nearest-neighbor match of each row of ``da`` into ``db``.

    Returns the index map and, when both label arrays are given (one label
    per row), the fraction of matches whose labels agree.  Squared distances
    are formed for chunks of rows of ``da``, each within the chunk budget.
    """
    if da.channels != db.channels:
        raise ValueError(f"channel mismatch: {da.channels} vs {db.channels}")
    for name, labels, d in (("labels_a", labels_a, da), ("labels_b", labels_b, db)):
        if labels is not None and np.shape(labels) != (len(d.feats),):
            raise ValueError(f"{name} has shape {np.shape(labels)} for {len(d.feats)} rows")
    a, b = da.feats, db.feats
    bb = np.einsum("jk,jk->j", b, b)[None, :]
    idx = np.empty(a.shape[0], dtype=np.int64)
    for rows in chunks._point_chunks(a.shape[0], 8 * b.shape[0]):
        ar = a[rows]
        d2 = np.einsum("ik,ik->i", ar, ar)[:, None] - 2.0 * ar @ b.T + bb
        idx[rows] = np.argmin(d2, axis=1)
    acc = None
    if labels_a is not None and labels_b is not None:
        acc = float(np.mean(np.asarray(labels_b)[idx] == np.asarray(labels_a)))
    return idx, acc


# ---------------------------------------------------------------------------
# toy data and the trained head
# ---------------------------------------------------------------------------

TOY_CLASSES = ("sphere", "cube", "cylinder")


class ToyCloud(NamedTuple):
    points: np.ndarray
    class_id: int
    part_labels: np.ndarray


def _sample_sphere(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    d = rng.standard_normal((n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return d, (d[:, 2] > 0).astype(np.int64)


def _sample_cube(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    face = rng.integers(0, 6, n)
    uv = rng.uniform(-1.0, 1.0, (n, 2))
    pts = np.empty((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, 1.0, -1.0)
    for a in range(3):
        sel = axis == a
        others = [i for i in range(3) if i != a]
        pts[sel, a] = sign[sel]
        pts[np.ix_(sel, others)] = uv[sel]
    return pts, face.astype(np.int64)


def _sample_cylinder(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    r0, hh = 0.6, 1.0
    lateral = 2.0 * np.pi * r0 * 2.0 * hh
    cap = np.pi * r0 * r0
    probs = np.array([lateral, cap, cap])
    probs = probs / probs.sum()
    part = rng.choice(3, size=n, p=probs)  # 0 lateral, 1 top, 2 bottom
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    pts = np.empty((n, 3))
    lat = part == 0
    pts[lat, 0] = r0 * np.cos(theta[lat])
    pts[lat, 1] = r0 * np.sin(theta[lat])
    pts[lat, 2] = rng.uniform(-hh, hh, int(lat.sum()))
    for pid, z in ((1, hh), (2, -hh)):
        sel = part == pid
        rho = r0 * np.sqrt(rng.uniform(0.0, 1.0, int(sel.sum())))
        pts[sel, 0] = rho * np.cos(theta[sel])
        pts[sel, 1] = rho * np.sin(theta[sel])
        pts[sel, 2] = z
    return pts, part.astype(np.int64)


_SAMPLERS = {"sphere": _sample_sphere, "cube": _sample_cube, "cylinder": _sample_cylinder}


def toy_synth(
    classes: tuple[str, ...] = TOY_CLASSES,
    n_per_class: int = 100,
    n_points: int = 512,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> list[ToyCloud]:
    """Labeled synthetic clouds: surface samples plus optional Gaussian noise,
    normalized into the unit ball.  Exactly ``n_per_class`` clouds per class."""
    if n_per_class < 1:
        raise InputFormatError(f"n_per_class (--n) must be >= 1, got {n_per_class}")
    if n_points < 64:
        raise InputFormatError(f"n_points must be >= 64, got {n_points}")
    unknown = [c for c in classes if c not in _SAMPLERS]
    if unknown:
        raise InputFormatError(f"unknown classes {unknown}; pick from {sorted(_SAMPLERS)}")
    rng = np.random.default_rng(seed)
    clouds = []
    for cid, cname in enumerate(classes):
        for _ in range(n_per_class):
            pts, labels = _SAMPLERS[cname](n_points, rng)
            if noise_sigma > 0.0:
                pts = pts + noise_sigma * rng.standard_normal(pts.shape)
            clouds.append(ToyCloud(normalize_cloud(pts), cid, labels))
    return clouds


def blob_cloud(n_points: int, seed: int) -> np.ndarray:
    """A smooth star-shaped cloud whose density respects low band limits.

    Radius is a fixed low-degree function of direction, so the voxelized
    signal is slowly varying and rotation experiments are dominated by the
    pipeline rather than by sampling roughness.
    """
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n_points, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    u1 = np.array([0.36, -0.48, 0.8])
    u2 = np.array([0.8, 0.6, 0.0])
    r = 0.62 + 0.14 * (d @ u1) + 0.10 * (d @ u2) ** 2
    return normalize_cloud(r[:, None] * d)


@dataclass
class TrainedHead:
    """A trained softmax head with its input standardization."""

    params: list[tuple[np.ndarray, np.ndarray]]
    mean: np.ndarray
    std: np.ndarray


def head_loss_and_grad(params, X: np.ndarray, y: np.ndarray):
    """Mean cross-entropy and analytic gradients for a rectifier head.

    ``X`` is standardized features ``(N, D)``; ``y`` integer labels.  Returns
    ``(loss, grads)`` with grads shaped like params.  The forward pass is
    :func:`_head_apply`: layer j's input is the rectified output of the first
    j layers.
    """
    n = X.shape[0]
    # overflow here is reported as a divergence error by train_head
    with np.errstate(over="ignore", invalid="ignore"):
        acts = [X] + [np.maximum(_head_apply(params[:j], X), 0.0) for j in range(1, len(params))]
        logits = _head_apply(params, X)
        shifted = logits - logits.max(axis=1, keepdims=True)
        expz = np.exp(shifted)
        prob = expz / expz.sum(axis=1, keepdims=True)
        loss = -np.mean(np.log(np.maximum(prob[np.arange(n), y], 1e-300)))
    delta = prob.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params)
    for i in range(len(params) - 1, -1, -1):
        W, _ = params[i]
        grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
        if i > 0:
            delta = (delta @ W) * (acts[i] > 0.0)
    return float(loss), grads


def train_head(
    feats: np.ndarray,
    labels: np.ndarray,
    hidden: tuple[int, ...] = (),
    epochs: int = 200,
    lr: float = 0.5,
    seed: int = 0,
) -> TrainedHead:
    """Fit a softmax head by full-batch gradient descent; deterministic per seed.

    Features are standardized column-wise before training.  Raises
    :class:`NumericError` when the loss or an updated parameter is non-finite.
    """
    feats = np.asarray(feats, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = int(labels.max()) + 1
    mu = feats.mean(axis=0)
    sd = np.maximum(feats.std(axis=0), 1e-9)
    X = (feats - mu) / sd
    rng = np.random.default_rng(seed)
    widths = (feats.shape[1],) + tuple(hidden) + (n_classes,)
    params = [(_draw(rng, (o, i)), _draw(rng, (o,))) for i, o in zip(widths[:-1], widths[1:])]
    for epoch in range(epochs):
        loss, grads = head_loss_and_grad(params, X, labels)
        params = [(W - lr * gW, b - lr * gb) for (W, b), (gW, gb) in zip(params, grads)]
        if not (np.isfinite(loss) and all(np.isfinite(a).all() for pair in params for a in pair)):
            raise NumericError(
                f"head training diverged at epoch {epoch} (loss={loss}); lower the learning rate"
            )
    return TrainedHead(params, mu, sd)


def head_predict(head: TrainedHead, feats: np.ndarray) -> np.ndarray:
    X = (np.asarray(feats, dtype=float) - head.mean) / head.std
    return np.argmax(_head_apply(head.params, X), axis=1)


# ---------------------------------------------------------------------------
# toy protocol
# ---------------------------------------------------------------------------


def relative_deviation(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Per-row relative deviation between feature matrices: (max, mean)."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    num = np.linalg.norm(a - b, axis=-1)
    den = np.maximum(np.linalg.norm(b, axis=-1), 1e-30)
    rel = num / den
    return float(rel.max()), float(rel.mean())


def _check_pipeline(pipeline: str) -> None:
    if pipeline not in PIPELINES:
        raise InputFormatError(f"pipeline must be {' or '.join(map(repr, PIPELINES))}, got {pipeline!r}")


def equivariance_trial(
    pipeline: str,
    seed: int,
    rotation: str = "haar",
    bandwidth: int = PrinConfig.bandwidth,
    n_points: int | None = None,
) -> dict[str, float]:
    """Compare per-point features of a cloud and its rotated copy.

    ``rotation`` is ``haar`` or ``grid-z`` (a z-rotation by a whole grid
    step).  The sparse path runs :func:`small_sprin_config`, whose invariance
    is exact up to float accumulation; the dense path rotates the raw cloud
    (``xi=0.1``), so the haar numbers include the sampling error of the
    voxelizer.  ``max_abs_err`` and ``mean_abs_err`` are relative errors, not
    absolute ones: the max and the mean over points of ``|rot - base| / |base|``,
    with row norms (:func:`relative_deviation`).
    """
    if bandwidth < 1:
        raise InputFormatError(f"bandwidth (--bandwidth) must be >= 1, got {bandwidth}")
    if n_points is not None and n_points < 1:
        raise InputFormatError(f"n_points (--points) must be >= 1, got {n_points}")
    rng = np.random.default_rng(seed)
    if rotation == "grid-z":
        m = int(rng.integers(1, 2 * bandwidth))
        Q = rot_z(2.0 * np.pi * m / (2 * bandwidth))
    elif rotation == "haar":
        Q = random_rotation(rng)
    else:
        raise InputFormatError(f"rotation must be 'haar' or 'grid-z', got {rotation!r}")

    _check_pipeline(pipeline)
    if pipeline == "sprin":
        n, cfg = 192, small_sprin_config()
    else:
        n, cfg = 20000, PrinConfig(bandwidth=bandwidth, xi=0.1)
    weights = init_weights(cfg, seed)
    cloud = blob_cloud(n if n_points is None else n_points, seed + 17)
    base, _ = forward(cloud, weights, cfg)
    rot, _ = forward(cloud @ Q.T, weights, cfg)
    mx, mn = relative_deviation(rot, base)
    return {"max_abs_err": mx, "mean_abs_err": mn}


def toy_protocol(
    pipeline: str = "sprin",
    classes: tuple[str, ...] = TOY_CLASSES,
    n_per_class: int = 100,
    n_points: int = 512,
    epochs: int = 300,
    lr: float = 0.5,
    seed: int = 7,
    bandwidth: int = PrinConfig.bandwidth,
    mode: str = PrinConfig.mode,
) -> dict[str, float]:
    """Train a head on unrotated features, evaluate on rotated test clouds.

    Draws ``n_per_class`` toy clouds per class with 0.01 Gaussian jitter,
    splits each class half/half into train and test, extracts global features
    from the frozen backbone, and reports accuracy with no rotation (NR) and
    under per-cloud Haar rotations (AR).
    """
    _check_pipeline(pipeline)
    if epochs < 1:
        raise InputFormatError(f"epochs (--epochs) must be >= 1, got {epochs}")
    if not 0.0 <= lr < np.inf:
        raise InputFormatError(f"lr (--lr) must be finite and >= 0, got {lr}")
    if n_per_class < 2:  # fewer leaves a class out of the train or the test half
        raise InputFormatError(f"n_per_class (--n) must be >= 2, got {n_per_class}")
    if len(classes) < 2 or len(set(classes)) != len(classes):
        raise InputFormatError(
            f"classes (--classes) must name at least two distinct classes, got {list(classes)}"
        )
    clouds = toy_synth(classes, n_per_class, n_points, 0.01, seed)
    if pipeline == "sprin":
        cfg = SprinConfig()
    else:
        # window width sized for desk-scale clouds: narrow default windows
        # leave a few-hundred-point cloud almost entirely in empty voxels
        cfg = PrinConfig(bandwidth=bandwidth, mode=mode, xi=0.15)
    weights = init_weights(cfg, seed)

    def embed(pts):
        return forward(pts, weights, cfg)[1]

    train_idx = [i for i in range(len(clouds)) if i % 2 == 0]
    test_idx = [i for i in range(len(clouds)) if i % 2 == 1]
    rot_rng = np.random.default_rng(seed + 1)
    rotations = random_rotation(rot_rng, num=len(test_idx))

    train_feats = np.stack([embed(clouds[i].points) for i in train_idx])
    train_labels = np.array([clouds[i].class_id for i in train_idx])
    test_feats = np.stack([embed(clouds[i].points) for i in test_idx])
    test_feats_rot = np.stack(
        [embed(clouds[i].points @ rotations[t].T) for t, i in enumerate(test_idx)]
    )
    test_labels = np.array([clouds[i].class_id for i in test_idx])

    head = train_head(train_feats, train_labels, hidden=(32,), epochs=epochs, lr=lr, seed=seed)
    nr = float(np.mean(head_predict(head, test_feats) == test_labels))
    ar = float(np.mean(head_predict(head, test_feats_rot) == test_labels))
    return {"nr_accuracy": nr, "ar_accuracy": ar, "gap": nr - ar}
