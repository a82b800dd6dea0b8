"""Exact computer algebra for the harmonic oscillator in Fock space.

The package builds the oscillator as a normal-ordered element of the
(optionally q-deformed) Heisenberg-Weyl algebra, realizes it as a
differential, finite-difference, or dilatation operator on polynomial
flags, and verifies spectra, eigenfunctions, and isospectrality claims
with arbitrary-precision rational arithmetic throughout.
"""

from .algebra import Poly
from .fock import FockPoly
