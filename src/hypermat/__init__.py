"""Exact invariants and polynomial identity checks for completely
symmetric higher-rank matrices.

Discriminant sequences, determinants, characteristic polynomials and
inverses of completely symmetric tensors are computed over exact
rationals through signed permutation contractions, and every identity
they satisfy (recurrence relations, Cayley-Hamilton analogues, inverse
contractions, odd-rank lifts) is machine-verified to a residual of
exactly zero.

Each public name resolves on first use (PEP 562): ``import hypermat``
loads no submodule, and ``hypermat.lift`` or ``from hypermat import
lift`` loads the module that defines it and whatever that module reads.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_EXPORTS = {
    "engine": ("coset_restricted_product_counted", "epsilon_determinant",
               "epsilon_inverse", "epsilon_product", "epsilon_product_gradient",
               "permutation_sign", "signed_permutations"),
    "errors": ("SingularTensorError",),
    "evenrank": ("cayley_det", "quadratic_identity_residual",
                 "self_identity_residual", "verify_poly_identity_d2",
                 "verify_recurrence_even"),
    "invariants": ("characteristic_coefficients", "invariant_values"),
    "oddrank": ("CUBIC_LIFT_RATIO", "OddLiftResult", "cubic_discriminant",
                "inverse_odd_d2", "inverse_odd_d2_gradient", "lift",
                "lift_gradient_candidate", "verify_inverse_d2",
                "verify_odd_rank_vanishing", "verify_proportionality"),
    "rank2": ("discriminants_trace", "g_product", "newton_elementary_from_power",
              "power_sums", "verify_recurrence2"),
    "rational": ("as_scalar", "format_scalar"),
    "report": ("IdentityCheck", "VerificationReport"),
    "tensor": ("SymTensor", "canonical_key", "canonical_keys", "contract_full",
               "contract_one_free", "derive_seed", "from_matrix", "identity",
               "multiplicity", "random_symmetric", "sym_outer"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# the submodules above are exported too, as the eager imports exported them
__all__ = sorted(_MODULE_OF) + sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
