"""Exception types shared across the package."""


class FlipIetError(Exception):
    """Base class for all library errors."""


# polynomial / number field layer

class ReduciblePolynomial(FlipIetError):
    """Minimal polynomial factors over the rationals."""


class DegreeCapExceeded(FlipIetError):
    """Polynomial degree beyond the certified factorization cap."""


class NoRoot(FlipIetError):
    """Bracket contains no real root."""


class AmbiguousRoot(FlipIetError):
    """Bracket contains more than one real root; caller must narrow it."""


class FieldMismatch(FlipIetError):
    """Operands belong to different number fields or embeddings."""


class DivisionByZero(FlipIetError, ZeroDivisionError):
    """Division by the zero field element."""


class SignNotConverged(FlipIetError, RuntimeError):
    """Interval refinement did not decide the sign of an algebraic number."""


# interval exchange layer

class InvalidPermutation(FlipIetError):
    """Signed permutation entries are not a signed permutation of 1..n."""


class NonpositiveLength(FlipIetError):
    """An interval length is zero or negative."""


class AtDiscontinuity(FlipIetError):
    """Evaluation requested exactly at a discontinuity or slot boundary, or
    outside the domain when domain is its pair of ends."""

    def __init__(self, point, index=None, domain=None):
        super().__init__(
            f"point {point} lies on a discontinuity" if domain is None else
            f"point {point} lies outside the domain "
            f"[{float(domain[0]):g}, {float(domain[1]):g}]")
        self.point = point
        self.index = index


# induction layer

class DegenerateStep(FlipIetError):
    """The two competing lengths are equal; the induction step is undefined."""


class ReturnTimeCapExceeded(FlipIetError):
    """First-return computation exceeded the iteration cap."""


class EmptyCylinder(FlipIetError):
    """No point realizes the requested symbolic prefix."""


class NoFixedSeed(FlipIetError):
    """The substitution has no symbol fixing the requested side."""


# spectral layer

class NotQuasiPositive(FlipIetError):
    """No power of the matrix is entrywise positive."""


class NotAnEigenvalue(FlipIetError):
    """The given value is not an eigenvalue of the matrix."""


# blow-up layer

class SignSelectionFailed(FlipIetError):
    """No blow-up address gives two-sided decaying Birkhoff sums."""


class DivergentGaps(FlipIetError):
    """Gap lengths fail to decay; the blow-up sum is not summable at this horizon."""


class ProbeHitsDiscontinuities(FlipIetError, RuntimeError):
    """A probe orbit kept hitting discontinuities after every reseed."""
