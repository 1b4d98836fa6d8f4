"""Exception types shared across the package."""

PICARD_RATIO_LIMIT = 0.55  # largest contraction ratio a Picard certificate accepts


class QGLabError(Exception):
    """Base class for all qglab errors."""


class ValidationError(QGLabError, ValueError):
    """A configuration or parameter invariant does not hold; also a ValueError, as invalid input."""


class NegativePowerOnMean(ValidationError):
    """Negative fractional-Laplacian power requested on a field with nonzero mean."""


class UnstableStep(QGLabError):
    """A time step produced coefficients above the blow-up sentinel."""

    def __init__(self, t, max_coeff):
        super().__init__(f"unstable step at t={t:.6g} (max |coeff| = {max_coeff:.3e})")
        self.t = t
        self.max_coeff = max_coeff


class NoContraction(QGLabError):
    """Picard iteration failed to contract at the guaranteed rate."""

    def __init__(self, t, ratio):
        super().__init__(
            f"contraction ratio {ratio:.4f} exceeds {PICARD_RATIO_LIMIT} (time reached {t:.6g})"
        )
        self.t = t
        self.ratio = ratio


class Violation(QGLabError):
    """A monitored inequality failed beyond its allowed slack."""

    def __init__(self, t, message):
        super().__init__(f"{message} (first failure at t={t:.6g})")
        self.t = t


class ParseError(ValidationError):
    """Malformed config file."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class CorruptSnapshot(ValidationError):
    """Snapshot file failed a structural check."""

    def __init__(self, check, message=""):
        super().__init__(f"corrupt snapshot ({check}){': ' + message if message else ''}")
        self.check = check


class ReferenceTooCoarse(QGLabError):
    """The reference run's self-convergence error is too large for the sweep."""


class DegenerateFit(QGLabError):
    """Not enough signal above the round-off floor to fit an exponent."""
