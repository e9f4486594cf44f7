"""Exact computational realizations of displacement properties in
groups: wreath towers, matrix groups, piecewise-linear homeomorphisms
and HNN rewriting, with certificate checkers and verification suites.
"""

from .checkers import (
    GeneratorMap,
    WitnessCertificate,
    check_binate,
    check_cc,
    check_ccc,
    check_cznc,
    check_czc,
    check_dissipator,
    check_M,
    check_mitotic,
    verify_certificate,
)
from .core import (
    BudgetExceededError,
    ContextMismatchError,
    FgSubgroup,
    PropertyReport,
    commutator,
    commutes,
    conj,
    element_order,
    enumerate_subgroup,
    subgroups_commute,
)
from .perms import Permutation, SymmetricGroupContext, symmetric_group

__all__ = [
    "BudgetExceededError",
    "ContextMismatchError",
    "FgSubgroup",
    "GeneratorMap",
    "Permutation",
    "PropertyReport",
    "SymmetricGroupContext",
    "WitnessCertificate",
    "check_M",
    "check_binate",
    "check_cc",
    "check_ccc",
    "check_cznc",
    "check_czc",
    "check_dissipator",
    "check_mitotic",
    "commutator",
    "commutes",
    "conj",
    "element_order",
    "enumerate_subgroup",
    "subgroups_commute",
    "symmetric_group",
    "verify_certificate",
]

__version__ = "0.1.0"
