"""Exact-arithmetic invariants of Geigle-Lenzing complete intersections."""

from .grading import (
    GroupElement,
    Trichotomy,
    WeightSystem,
    add,
    coset_data_mod_omega,
    hom_ext_dim,
    interval,
    interval_size,
    leq,
    negate,
    normal_form,
    omega,
    piece_dim,
    smith_normal_form,
    trichotomy,
)
from .algebra import (
    Quiver,
    StructureAlgebra,
    canonical_interval,
    canonical_interval_size,
    cartan_matrix,
    cm_interval,
    cm_interval_size,
    cm_tensor_check,
    global_dimension,
    i_canonical_quiver,
    structure_constants,
)
from .coxeter import (
    IntPolynomial,
    char_poly,
    coxeter_polynomial,
    k0_rank,
    omega_action_matrix,
    phi,
)
from .matfac import (
    GradedMatrixPair,
    MFIndex,
    MultiPoly,
    mf_build,
    mf_enumerate,
    mf_minor_nonsingular,
    mf_verify,
)
from .atilde import OrbitQuiverWithCut, atilde_presentation, verify_cut
from .classify import (
    ClassificationReport,
    classification_report,
    cm_finite,
    d_cm_finite_sufficient,
    enumerate_weight_systems,
    frac_cy,
    gldim_canonical,
    knoerrer_partner,
    main2_slice,
    orlov_rank_delta,
    vb_finite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
