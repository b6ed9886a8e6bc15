"""supersdet: exact verification of super circle geometry, zeta-regularized
superdeterminants, and the signature genus.

The package is pure exact arithmetic end to end: Gaussian rationals,
finite Grassmann algebras, truncated rational power series and graded
polynomials.  Floating point appears only in numeric cross-checks inside the
test suite.

The package root exports only __version__: import the submodule you need
(``from supersdet import zeta``), which loads that layer and what it builds
on, and nothing else.
"""

__version__ = "0.1.0"
