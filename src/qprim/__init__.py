"""Class groups of definite binary quadratic forms and completely
p-primitive classes, decided constructively and verified by brute force."""

from .classgroup import (
    ClassGroup,
    ProperClass,
    ambiguous_classes,
    compose,
    enumerate_classes,
    inverse_class,
)
from .intarith import kronecker
from .pprim import (
    TwoSquareSolution,
    Verdict,
    build_isometry,
    classify_all,
    solve_two_square,
)
from .qform import BinaryForm, IntMap2, is_ambiguous, is_reduced, reduce
from .repcount import (
    RepRecord,
    Spectrum,
    enumerate_solutions,
    rep_counts,
    rep_profile,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryForm",
    "ClassGroup",
    "IntMap2",
    "ProperClass",
    "RepRecord",
    "Spectrum",
    "TwoSquareSolution",
    "Verdict",
    "__version__",
    "ambiguous_classes",
    "build_isometry",
    "classify_all",
    "compose",
    "enumerate_classes",
    "enumerate_solutions",
    "inverse_class",
    "is_ambiguous",
    "is_reduced",
    "kronecker",
    "rep_counts",
    "rep_profile",
    "reduce",
    "solve_two_square",
    "spectrum",
]
