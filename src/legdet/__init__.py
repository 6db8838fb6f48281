"""legdet: exact determinants and characteristic polynomials of half-range
Legendre-symbol matrices, the scalar invariants behind their closed forms,
and an executable catalog of the identities they satisfy."""

from .charmat import build, special_eigvecs, symbol_vector, theta_vector
from .errors import InternalError
from .exactla import (
    IntPoly,
    ParamDet,
    adjugate_apply,
    charpoly,
    det,
    det_bareiss,
    mdl_check,
    param_det_expand,
    shifted_dets,
)
from .ntheory import (
    PrimeInvariants,
    class_number_neg,
    half_range_sums,
    is_prime,
    legendre,
    legendre_table,
    prime_invariants,
    primes_in_range,
    quad_char_sum,
)
from .realquad import QuadElem, class_number_real, fundamental_unit, unit_power_coeffs
from .verify import (
    CheckId,
    CheckResult,
    ScanRecord,
    ScanSummary,
    check,
    exit_code_for,
    mdl_random_suite,
    scan,
    t31_random_suite,
)

__version__ = "0.1.0"
