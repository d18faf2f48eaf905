"""Bundled 5-interval example with flips.

This is the package's default input: the exchange on [0, 1] whose lengths are
the exact probability Perron eigenvector of MATRIX below and whose signed
permutation is (-5, -3, 2, 1, -4).  Its induction trace closes into a
14-step cycle whose matrix product equals MATRIX, the induced map on
[0, 1/theta1] is an exact 1/theta1-scaled copy, and the dominant eigenvalue
theta1 has a conjugate real eigenvalue theta2 in (1, theta1), so the
wandering-interval construction applies.

REFERENCE_* constants are frozen regression values for that trace; the test
suite and the CLI compare recomputed objects against them byte for byte.
"""

from __future__ import annotations

from .iet import IetSpec
from .spectral import perron_data

MATRIX = (
    (2, 4, 6, 5, 2),
    (0, 2, 1, 1, 1),
    (0, 0, 3, 2, 0),
    (1, 2, 2, 2, 1),
    (1, 3, 5, 4, 2),
)

SIGNED_PERMUTATION = (-5, -3, 2, 1, -4)

# induction trace: 15 signed permutations and the 14 step types between them
REFERENCE_STEPS = (
    ((-5, -3, 2, 1, -4), 1),
    ((4, -5, -3, 2, 1), 0),
    ((5, -2, -4, 3, 1), 1),
    ((5, 1, -2, -4, 3), 1),
    ((5, 3, 1, -2, -4), 1),
    ((5, -4, 3, 1, -2), 0),
    ((-2, -5, 4, 1, -3), 1),
    ((-2, 3, -5, 4, 1), 0),
    ((-3, 4, -2, 5, 1), 1),
    ((-3, 4, -2, 5, 1), 1),
    ((-3, 4, -2, 5, 1), 0),
    ((-4, 5, -3, 2, 1), 1),
    ((-4, 5, 1, -3, 2), 1),
    ((-4, 5, 2, 1, -3), 0),
    ((-5, -3, 2, 1, -4), None),
)

# first-return words on [0, 1/theta1] and their lengths (= return times)
REFERENCE_ITINERARIES = (
    (1, 4, (1, 5, 1, 4)),
    (2, 11, (1, 5, 2, 1, 4, 1, 5, 2, 1, 5, 4)),
    (3, 17, (1, 5, 2, 1, 4, 1, 5, 3, 1, 5, 3, 1, 5, 3, 1, 5, 4)),
    (4, 14, (1, 5, 2, 1, 4, 1, 5, 3, 1, 5, 3, 1, 5, 4)),
    (5, 6, (1, 5, 2, 1, 5, 4)),
)

# 3-decimal renderings of the five real eigenvalues (descending) and of the
# probability eigenvector
REFERENCE_EIGENVALUES_3DP = ("7.829", "1.588", "1.000", "0.358", "0.225")
REFERENCE_LENGTHS_3DP = ("0.380", "0.091", "0.070", "0.170", "0.289")


def bundled_spectral():
    """Exact spectral data of MATRIX."""
    return perron_data(MATRIX)


def bundled_iet() -> IetSpec:
    """The exchange itself, with exact algebraic lengths."""
    sd = bundled_spectral()
    _theta1, alpha = sd.perron
    return IetSpec(alpha, SIGNED_PERMUTATION, origin=0)


def bundled_theta1():
    return bundled_spectral().perron[0]
