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

from .errors import InputFormatError, NumericError
from .geometry import cart_to_spherical, random_rotation, rot_z
from .resample import bilinear_sample
from .so3 import SphericalFilter, gamma_average, shells_to_channels, svc_sphere
from .sprin import (
    MlpFilter,
    SprinLayerCfg,
    correlate_at,
    farthest_point_sampling,
    knn_table,
)
from .voxelize import SamplingConfig, _point_chunks, normalize_cloud, voxelize
from . import harmonics as sh


@dataclass
class PrinConfig:
    """Dense-path hyperparameters; desk-scale defaults (bandwidth 8)."""

    bandwidth: int = 8
    xi: float = 1.0 / 32.0
    mode: str = "daas"
    svc_channels: int = 40
    conv_channels: tuple[int, ...] = (40, 50)
    fc_widths: tuple[int, ...] = (50, 50)
    shells_as_channels: bool = False

    def __post_init__(self):
        if self.bandwidth < 2:
            raise ValueError(f"bandwidth must be >= 2, got {self.bandwidth}")
        if min((self.svc_channels,) + self.conv_channels + self.fc_widths) < 1:
            raise ValueError("all channel widths must be >= 1")

    @property
    def layer_channels(self) -> tuple[int, ...]:
        c0 = 2 * self.bandwidth if self.shells_as_channels else 1
        return (c0, self.svc_channels) + self.conv_channels


@dataclass
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
    aggregate: str = "mean"

    def __post_init__(self):
        n_down = sum(1 for m, _ in self.encoder if m is not None)
        if len(self.decoder) != n_down:
            raise ValueError(
                f"decoder must have one stage per downsampling, got {len(self.decoder)} for {n_down}"
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
        if not np.all(np.isfinite(self.feats)):
            raise ValueError("descriptor contains non-finite entries")

    @property
    def channels(self) -> int:
        return self.feats.shape[-1]


# ---------------------------------------------------------------------------
# weight initialization
# ---------------------------------------------------------------------------


def _init_mlp(prefix: str, widths: tuple[int, ...], rng, out: dict) -> None:
    for j, (w_in, w_out) in enumerate(zip(widths[:-1], widths[1:])):
        out[f"{prefix}_w{j}"] = rng.standard_normal((w_out, w_in)) * np.sqrt(2.0 / w_in)
        out[f"{prefix}_b{j}"] = np.zeros(w_out)


def init_weights(cfg, seed: int) -> dict[str, np.ndarray]:
    """Seeded scaled-normal initialization for every filter and head."""
    rng = np.random.default_rng(seed)
    out: dict[str, np.ndarray] = {}
    if isinstance(cfg, PrinConfig):
        chans = cfg.layer_channels
        nc = sh.n_coeffs(cfg.bandwidth - 1)
        for li, (c_in, c_out) in enumerate(zip(chans[:-1], chans[1:])):
            out[f"svc{li}"] = rng.standard_normal((nc, c_out, c_in)) * np.sqrt(2.0 / c_in)
        _init_mlp("pp", (chans[-1],) + cfg.fc_widths, rng, out)
        _init_mlp("gl", (chans[-1],) + cfg.fc_widths, rng, out)
        return out
    if isinstance(cfg, SprinConfig):
        c = 0
        for si, (_, layers) in enumerate(cfg.encoder):
            for li in range(len(layers)):
                _init_mlp(f"enc{si}_{li}", (8 + c, cfg.hidden, cfg.channels), rng, out)
                c = cfg.channels
        _init_mlp("cls", (2 * cfg.channels,) + cfg.cls_head, rng, out)
        for si, layers in enumerate(cfg.decoder):
            for li in range(len(layers)):
                _init_mlp(f"dec{si}_{li}", (8 + cfg.channels, cfg.hidden, cfg.channels), rng, out)
        _init_mlp("seg", (cfg.channels,) + cfg.seg_head, rng, out)
        return out
    raise TypeError(f"unsupported config type {type(cfg).__name__}")


def _mlp_layers(weights: dict, prefix: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ``(W, b)`` pairs stored under ``prefix``; missing or non-finite weights raise."""
    layers = []
    j = 0
    while f"{prefix}_w{j}" in weights:
        for key in (f"{prefix}_w{j}", f"{prefix}_b{j}"):
            if key not in weights:
                raise ValueError(f"weights are missing {key!r}")
            if not np.all(np.isfinite(weights[key])):
                raise ValueError(f"weight {key!r} holds non-finite entries")
        layers.append((np.asarray(weights[f"{prefix}_w{j}"]), np.asarray(weights[f"{prefix}_b{j}"])))
        j += 1
    if not layers:
        raise ValueError(f"no weights found under prefix {prefix!r}")
    return layers


def _head_apply(weights: dict, prefix: str, x: np.ndarray) -> np.ndarray:
    """FC head: rectifier after every layer, including the last."""
    j = 0
    while f"{prefix}_w{j}" in weights:
        x = np.maximum(x @ weights[f"{prefix}_w{j}"].T + weights[f"{prefix}_b{j}"], 0.0)
        j += 1
    if j == 0:
        raise ValueError(f"no weights found under prefix {prefix!r}")
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
    are carried as ``(2B, 2B, C)`` sphere signals: the voxel grid is averaged
    over its radial bins once by :func:`~rotalith.so3.gamma_average` (or, with
    ``shells_as_channels``, its bins become channels through
    :func:`~rotalith.so3.shells_to_channels`), and per-point features are
    read by bilinear interpolation on the sphere and fed to the per-point
    head in chunks of rows.

    Returns ``(per_point (N, fc_widths[-1]), global (fc_widths[-1],))``.
    The cloud must already be normalized into the unit ball.
    """
    points = np.asarray(points, dtype=float)
    for head in ("pp", "gl"):  # checked once here, not per read-out chunk
        _mlp_layers(weights, head)
    B = cfg.bandwidth
    grid = voxelize(points, B, SamplingConfig(cfg.xi, cfg.mode))
    act = shells_to_channels(grid) if cfg.shells_as_channels else gamma_average(grid)
    chans = cfg.layer_channels
    nc = sh.n_coeffs(B - 1)
    n_layers = len(chans) - 1
    for li in range(n_layers):
        key = f"svc{li}"
        if key not in weights:
            raise ValueError(f"weights are missing {key!r}; config/weight mismatch")
        coeffs = np.asarray(weights[key])
        if coeffs.shape != (nc, chans[li + 1], chans[li]):
            raise ValueError(
                f"{key} has shape {coeffs.shape}, config wants {(nc, chans[li + 1], chans[li])}"
            )
        act = svc_sphere(act, SphericalFilter(B, coeffs=coeffs))
        if li != n_layers - 1:
            np.maximum(act.data, 0.0, out=act.data)
    # read-out and head per chunk of rows, each within the dense chunk budget
    alpha, beta, _ = cart_to_spherical(points)
    per_point = None
    for chunk in _point_chunks(points.shape[0], 8 * chans[-1]):
        feats = _head_apply(weights, "pp", bilinear_sample(act.data, B, alpha[chunk], beta[chunk]))
        if per_point is None:  # the head's width comes from its weights
            per_point = np.empty((points.shape[0], feats.shape[1]))
        per_point[chunk] = feats
    global_feat = _head_apply(weights, "gl", act.data.max(axis=(0, 1)))
    return per_point, global_feat


class _SparseLayer(NamedTuple):
    key: str  # weight-key prefix
    k: int
    d: int
    centers: int  # point-set level the layer writes features at
    source: int  # point-set level it reads neighbors and features from
    fps: int | None  # FPS sample size when this layer creates the centers' level


def _sparse_plan(cfg: SprinConfig) -> tuple[list[_SparseLayer], list[_SparseLayer]]:
    """Encoder and decoder layers in run order.

    Level 0 is the input cloud; each FPS downsampling adds the next level.
    """
    enc, enc_levels, lvl = [], [], 0
    for si, (m, layers) in enumerate(cfg.encoder):
        for li, (k, d) in enumerate(layers):
            src, fps = lvl, (m if li == 0 else None)
            lvl += fps is not None
            enc.append(_SparseLayer(f"enc{si}_{li}", k, d, lvl, src, fps))
        enc_levels.append(lvl)
    dec, up_levels, lvl = [], enc_levels[-2::-1], enc_levels[-1]
    for si, layers in enumerate(cfg.decoder):
        for li, (k, d) in enumerate(layers):
            src = lvl
            if li == 0:
                lvl = up_levels[si]
            dec.append(_SparseLayer(f"dec{si}_{li}", k, d, lvl, src, None))
    return enc, dec


def sprin_forward(
    points: np.ndarray, weights: dict[str, np.ndarray], cfg: SprinConfig, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Sparse path: encoder with set abstraction, pooled head, and a
    propagation decoder back to full resolution.

    Each (centers, source) pair of point-set levels gets one neighbor table,
    built for the largest k any layer uses on that pair.

    Returns ``(per_point (N, seg_head[-1]), global (cls_head[-1],))``.
    """
    points = np.asarray(points, dtype=float)
    for head in ("cls", "seg"):
        _mlp_layers(weights, head)
    rng = np.random.default_rng(seed)
    enc, dec = _sparse_plan(cfg)
    k_max: dict[tuple[int, int], int] = {}
    for layer in enc + dec:
        pair = (layer.centers, layer.source)
        k_max[pair] = max(k_max.get(pair, 0), layer.k)
    level_pts = [points]
    tables: dict[tuple[int, int], np.ndarray] = {}

    def correlate(layer: _SparseLayer, feats: np.ndarray | None) -> np.ndarray:
        src, ctr = level_pts[layer.source], level_pts[layer.centers]
        pair = (layer.centers, layer.source)
        if pair not in tables:
            tables[pair] = knn_table(src, ctr, k_max[pair])
        lcfg = SprinLayerCfg(k=layer.k, d=layer.d, aggregate=cfg.aggregate)
        filt = MlpFilter(_mlp_layers(weights, layer.key))
        return correlate_at(src, feats, ctr, tables[pair], filt, lcfg, rng, src.mean(axis=0))

    feats = None
    for layer in enc:
        if layer.fps is not None:
            src = level_pts[layer.source]
            level_pts.append(src[farthest_point_sampling(src, layer.fps, _canonical_fps_start(src))])
        feats = correlate(layer, feats)

    pooled = np.concatenate([feats.max(axis=0), feats.mean(axis=0)])
    global_feat = _head_apply(weights, "cls", pooled)

    for layer in dec:
        feats = correlate(layer, feats)
    per_point = _head_apply(weights, "seg", feats)
    return per_point, global_feat


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

    Returns the index map and, when both label arrays are given, the fraction
    of matches whose labels agree.
    """
    if da.channels != db.channels:
        raise ValueError(f"channel mismatch: {da.channels} vs {db.channels}")
    a, b = da.feats, db.feats
    d2 = np.einsum("ik,ik->i", a, a)[:, None] - 2.0 * a @ b.T + np.einsum("jk,jk->j", b, b)[None, :]
    idx = np.argmin(d2, axis=1)
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


def _head_forward(params, X):
    acts = [X]
    h = X
    # overflow here is reported as a divergence error by the caller
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (W, b) in enumerate(params):
            z = h @ W.T + b
            h = np.maximum(z, 0.0) if i < len(params) - 1 else z
            acts.append(h)
    return acts


def head_loss_and_grad(params, X: np.ndarray, y: np.ndarray):
    """Mean cross-entropy and analytic gradients for a rectifier head.

    ``X`` is standardized features ``(N, D)``; ``y`` integer labels.  Returns
    ``(loss, grads)`` with grads shaped like params.
    """
    n = X.shape[0]
    acts = _head_forward(params, X)
    logits = acts[-1]
    with np.errstate(invalid="ignore"):
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
        inp = acts[i]
        grads[i] = (delta.T @ inp, delta.sum(axis=0))
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
) -> tuple[TrainedHead, list[float]]:
    """Fit a softmax head by full-batch gradient descent; deterministic per seed.

    Features are standardized column-wise before training.  Raises
    :class:`NumericError` if the loss goes non-finite.
    """
    feats = np.asarray(feats, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = int(labels.max()) + 1
    mu = feats.mean(axis=0)
    sd = np.maximum(feats.std(axis=0), 1e-9)
    X = (feats - mu) / sd
    rng = np.random.default_rng(seed)
    widths = (feats.shape[1],) + tuple(hidden) + (n_classes,)
    params = [
        (rng.standard_normal((o, i)) * np.sqrt(2.0 / i), np.zeros(o))
        for i, o in zip(widths[:-1], widths[1:])
    ]
    curve: list[float] = []
    for epoch in range(epochs):
        loss, grads = head_loss_and_grad(params, X, labels)
        if not np.isfinite(loss) or not all(
            np.all(np.isfinite(W)) and np.all(np.isfinite(b)) for W, b in params
        ):
            raise NumericError(
                f"head training diverged at epoch {epoch} (loss={loss}); lower the learning rate"
            )
        params = [(W - lr * gW, b - lr * gb) for (W, b), (gW, gb) in zip(params, grads)]
        pred = np.argmax(_head_forward(params, X)[-1], axis=1)
        curve.append(float(np.mean(pred == labels)))
    return TrainedHead(params, mu, sd), curve


def head_predict(head: TrainedHead, feats: np.ndarray) -> np.ndarray:
    X = (np.asarray(feats, dtype=float) - head.mean) / head.std
    return np.argmax(_head_forward(head.params, X)[-1], axis=1)


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


def equivariance_trial(
    pipeline: str,
    seed: int,
    rotation: str = "haar",
    bandwidth: int = 8,
    n_points: int | None = None,
    sprin_cfg: SprinConfig | None = None,
    xi: float | None = None,
) -> dict[str, float]:
    """Compare per-point features of a cloud and its rotated copy.

    ``rotation`` is ``haar`` or ``grid-z`` (a z-rotation by a whole grid
    step).  The sparse path uses a dilation-free stack so invariance is exact
    up to float accumulation; the dense path rotates the raw cloud, so the
    haar numbers include the sampling error of the voxelizer.
    """
    rng = np.random.default_rng(seed)
    if rotation == "grid-z":
        m = int(rng.integers(1, 2 * bandwidth))
        Q = rot_z(2.0 * np.pi * m / (2 * bandwidth))
    elif rotation == "haar":
        Q = random_rotation(rng)
    else:
        raise InputFormatError(f"rotation must be 'haar' or 'grid-z', got {rotation!r}")

    if pipeline == "sprin":
        n = 192 if n_points is None else n_points
        cfg = sprin_cfg if sprin_cfg is not None else small_sprin_config()
        weights = init_weights(cfg, seed)
        cloud = blob_cloud(n, seed + 17)
        base, _ = sprin_forward(cloud, weights, cfg, seed=0)
        rot, _ = sprin_forward(cloud @ Q.T, weights, cfg, seed=0)
    elif pipeline == "prin":
        n = 20000 if n_points is None else n_points
        cfg = PrinConfig(bandwidth=bandwidth, xi=(0.1 if xi is None else xi))
        weights = init_weights(cfg, seed)
        cloud = blob_cloud(n, seed + 17)
        base, _ = prin_forward(cloud, weights, cfg)
        rot, _ = prin_forward(cloud @ Q.T, weights, cfg)
    else:
        raise InputFormatError(f"pipeline must be 'prin' or 'sprin', got {pipeline!r}")
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
    bandwidth: int = 8,
    mode: str = "daas",
    noise_sigma: float = 0.01,
    sprin_cfg: SprinConfig | None = None,
    prin_xi: float = 0.15,
) -> dict[str, float]:
    """Train a head on unrotated features, evaluate on rotated test clouds.

    Splits each class half/half into train and test, extracts global features
    from the frozen backbone, and reports accuracy with no rotation (NR) and
    under per-cloud Haar rotations (AR).
    """
    if pipeline not in ("prin", "sprin"):
        raise InputFormatError(f"pipeline must be 'prin' or 'sprin', got {pipeline!r}")
    clouds = toy_synth(classes, n_per_class, n_points, noise_sigma, seed)
    if pipeline == "sprin":
        cfg = sprin_cfg if sprin_cfg is not None else SprinConfig()
        weights = init_weights(cfg, seed)

        def embed(pts, fseed):
            return sprin_forward(pts, weights, cfg, seed=fseed)[1]
    else:
        # window width sized for desk-scale clouds: narrow default windows
        # leave a few-hundred-point cloud almost entirely in empty voxels
        cfg = PrinConfig(bandwidth=bandwidth, mode=mode, xi=prin_xi)
        weights = init_weights(cfg, seed)

        def embed(pts, fseed):
            return prin_forward(pts, weights, cfg)[1]

    train_idx = [i for i in range(len(clouds)) if i % 2 == 0]
    test_idx = [i for i in range(len(clouds)) if i % 2 == 1]
    rot_rng = np.random.default_rng(seed + 1)
    rotations = random_rotation(rot_rng, num=len(test_idx))

    train_feats = np.stack([embed(clouds[i].points, 1000 + i) for i in train_idx])
    train_labels = np.array([clouds[i].class_id for i in train_idx])
    test_feats = np.stack([embed(clouds[i].points, 1000 + i) for i in test_idx])
    test_feats_rot = np.stack(
        [embed(clouds[i].points @ rotations[t].T, 1000 + i) for t, i in enumerate(test_idx)]
    )
    test_labels = np.array([clouds[i].class_id for i in test_idx])

    head, _ = train_head(train_feats, train_labels, hidden=(32,), epochs=epochs, lr=lr, seed=seed)
    nr = float(np.mean(head_predict(head, test_feats) == test_labels))
    ar = float(np.mean(head_predict(head, test_feats_rot) == test_labels))
    return {"nr_accuracy": nr, "ar_accuracy": ar, "gap": nr - ar}
