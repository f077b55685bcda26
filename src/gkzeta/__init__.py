"""Exact arithmetic for supersingular quotient surfaces over finite fields:
Weil polynomial classification, local-degree embedding tests for central
simple algebras, ADE singularity configurations, and Frobenius traces and
zeta functions of the resolved surfaces.
"""

__version__ = "1.0.0"
