"""Exact-arithmetic invariants of Geigle-Lenzing complete intersections.

The package loads lazily (PEP 562): `import glci` runs none of its modules.
The first read of an exported name imports the module that defines it and
binds the name here, so each later read is a plain attribute lookup, and a
command pays only for the modules it uses.
"""

import importlib

# Each module with the names the package exports from it; the module's own
# name is exported too.
_EXPORTS = (
    (
        "grading",
        (
            "GroupElement",
            "Trichotomy",
            "WeightSystem",
            "add",
            "coset_data_mod_omega",
            "hom_ext_dim",
            "interval",
            "interval_size",
            "leq",
            "negate",
            "normal_form",
            "omega",
            "piece_dim",
            "smith_normal_form",
            "trichotomy",
        ),
    ),
    ("linalg", ()),
    (
        "algebra",
        (
            "Quiver",
            "StructureAlgebra",
            "canonical_interval",
            "canonical_interval_size",
            "cartan_matrix",
            "cm_interval",
            "cm_interval_size",
            "cm_tensor_check",
            "global_dimension",
            "i_canonical_quiver",
            "structure_constants",
        ),
    ),
    (
        "coxeter",
        (
            "IntPolynomial",
            "char_poly",
            "coxeter_polynomial",
            "k0_rank",
            "omega_action_matrix",
            "phi",
        ),
    ),
    (
        "matfac",
        (
            "GradedMatrixPair",
            "MultiPoly",
            "mf_build",
            "mf_enumerate",
            "mf_minor_nonsingular",
            "mf_verify",
        ),
    ),
    ("atilde", ("atilde_presentation", "verify_cut")),
    (
        "classify",
        (
            "ClassificationReport",
            "classification_report",
            "cm_finite",
            "d_cm_finite_sufficient",
            "enumerate_weight_systems",
            "frac_cy",
            "gldim_canonical",
            "knoerrer_partner",
            "main2_slice",
            "orlov_rank_delta",
            "vb_finite",
        ),
    ),
)

__all__ = sorted([module for module, _ in _EXPORTS] + [n for _, names in _EXPORTS for n in names])
__version__ = "0.1.0"


def __getattr__(name):
    for module, names in _EXPORTS:
        if name == module or name in names:
            owner = importlib.import_module(f".{module}", __name__)
            value = owner if name == module else getattr(owner, name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
