"""Exact invariants and polynomial identity checks for completely
symmetric higher-rank matrices.

Discriminant sequences, determinants, characteristic polynomials and
inverses of completely symmetric tensors are computed over exact
rationals through signed permutation contractions, and every identity
they satisfy (recurrence relations, Cayley-Hamilton analogues, inverse
contractions, odd-rank lifts) is machine-verified to a residual of
exactly zero.
"""

from .engine import (coset_restricted_product_counted, epsilon_determinant,
                     epsilon_inverse, epsilon_product, epsilon_product_gradient,
                     permutation_sign, signed_permutations)
from .errors import SingularTensorError
from .evenrank import (cayley_det, quadratic_identity_residual,
                       self_identity_residual, verify_poly_identity_d2,
                       verify_recurrence_even)
from .invariants import characteristic_coefficients, invariant_values
from .oddrank import (CUBIC_LIFT_RATIO, OddLiftResult, cubic_discriminant,
                      inverse_odd_d2, inverse_odd_d2_gradient, lift,
                      lift_gradient_candidate, verify_inverse_d2,
                      verify_odd_rank_vanishing, verify_proportionality)
from .rank2 import (discriminants_trace, g_product, newton_elementary_from_power,
                    power_sums, verify_recurrence2)
from .rational import as_scalar, format_scalar
from .report import IdentityCheck, VerificationReport
from .tensor import (SymTensor, canonical_key, canonical_keys, contract_full,
                     contract_one_free, derive_seed, from_matrix, identity,
                     multiplicity, random_symmetric, sym_outer)

__version__ = "0.1.0"
