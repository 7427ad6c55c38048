"""Spectral bounds for conformal metrics on real projective spaces.

Numerical companions to a family of eigenvalue bounds: quadratically
embedded projective spaces, conformal folds and Moebius translations,
Galerkin spectra of conformal metrics, hyperbolic centers of mass, mapping
degrees, and the dimensional constants of the bounds themselves.
"""

__version__ = "0.1.0"
