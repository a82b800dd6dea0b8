"""Exact computer algebra for the harmonic oscillator in Fock space.

The package builds the oscillator as a normal-ordered element of the
(optionally q-deformed) Heisenberg-Weyl algebra, realizes it as a
differential, finite-difference, or dilatation operator on polynomial
flags, and verifies spectra, eigenfunctions, and isospectrality claims
with arbitrary-precision rational arithmetic throughout.
"""

from .algebra import (
    DegenerateSpectrumError,
    LaurentPoly,
    NotTriangularError,
    OperatorMatrix,
    Poly,
    QuasiMonomial,
    back_substitute,
    basis_transplant,
    rat_str,
)
from .fock import (
    AlgebraMismatchError,
    CasimirValue,
    FockPoly,
    NotScalarError,
    SL2Generators,
    build_hf,
    build_hg,
    casimir_value,
    commutator,
    normal_order_product,
    q_bracket,
    sl2_generators,
)
from .realize import (
    Differential,
    FiniteDifference,
    QDilatation,
    UnsupportedDegreeError,
    apply_op,
    heisenberg_residual,
    realize_matrix,
    stencil_of,
)
from .spectral import (
    eigensolve_flag,
    isospectral_compare,
    pencil_solve,
    preserves_flag,
    q_number,
    reference_spectrum,
)
from .specfun import (
    NotProportionalError,
    gauge_conjugate_check,
    hermite,
    kratzer_apply,
    kratzer_eigencheck,
    laguerre,
    modified_laguerre,
    parity_relation_ratio,
)

__version__ = "0.1.0"
