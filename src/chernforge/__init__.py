"""Exact differential Chern class computations on flat tori."""

from .bundles import DiagBundle, KCycle, LineBundle, OddKCycle
from .diffchar import (DiffChar, chern_class, chern_class_via_ch, check_group_hom,
                       check_path_independence, check_shift_invariance,
                       cs_class, odd_chern_class, total_chern_class)
from .errors import ConfigError, PreconditionError
from .forms import TorusForm, chern_transform, parse_form
from .symfun import (GradedPoly, RootPoly, ch_from_chern, chern_polynomial,
                     expand_in_roots, verify_sum_identity)

__all__ = [
    "ConfigError",
    "DiagBundle",
    "DiffChar",
    "GradedPoly",
    "KCycle",
    "LineBundle",
    "OddKCycle",
    "PreconditionError",
    "RootPoly",
    "TorusForm",
    "ch_from_chern",
    "chern_class",
    "chern_class_via_ch",
    "chern_polynomial",
    "chern_transform",
    "check_group_hom",
    "check_path_independence",
    "check_shift_invariance",
    "cs_class",
    "expand_in_roots",
    "odd_chern_class",
    "parse_form",
    "total_chern_class",
    "verify_sum_identity",
]

__version__ = "0.1.0"
