"""Rotation-invariant point-cloud feature extraction on dense and sparse paths."""

from .errors import (
    ArchiveFormatError,
    CloudFormatError,
    InputFormatError,
    InvalidRotationError,
    NumericError,
    OutOfBallError,
    RotalithError,
    SingularCosetError,
)
from .geometry import (
    EulerZYZ,
    SphericalPoint,
    cart_to_spherical,
    coset_angle,
    euler_to_matrix,
    matrix_to_euler,
    random_rotation,
    rot_y,
    rot_z,
    spherical_to_cart,
    tmap,
    tmap_inv,
)
# the voxelize() function is not re-exported: it would shadow the
# rotalith.voxelize submodule; import it from there
from .voxelize import SamplingConfig, SphericalGrid, grid_shift_alpha, normalize_cloud
from .so3 import (
    S2Signal,
    SphericalFilter,
    equivariance_report,
    gamma_average,
    rotate_grid,
    svc_bruteforce,
    svc_coeffs,
    svc_spectral,
)
from .resample import bilinear_sample, trilinear_sample
from .sprin import (
    dilated_knn,
    farthest_point_sampling,
    knn_table,
    relative_invariants,
)
from .pipeline import (
    Descriptor,
    PrinConfig,
    SprinConfig,
    blob_cloud,
    equivariance_trial,
    forward,
    head_predict,
    init_weights,
    match_descriptors,
    prin_forward,
    small_sprin_config,
    sprin_forward,
    toy_protocol,
    toy_synth,
    train_head,
)
from .io import read_archive, read_cloud, write_archive, write_cloud

__version__ = "0.1.0"
