"""Exception hierarchy shared by all padiclat modules."""


class PadicError(Exception):
    """Base class for every error raised by this package."""


class PrecisionExhausted(PadicError):
    """A norm valuation, or the unit digits of a ``field_norm``, cannot be
    certified within ``PRECISION_CAP`` digits.  The norm escalation already
    doubles its digits up to that cap."""


class DivisionByZero(PadicError):
    """Division by the zero marker."""


class NotIntegral(PadicError):
    """An operation required an element of Z_p (valuation >= 0)."""


class NotMonic(PadicError):
    """A defining polynomial must be monic."""


class NotInSpan(PadicError):
    """Linear solve target is not in the span of the given vectors."""


class SingularSystem(PadicError):
    """The given vectors are linearly dependent."""


class BudgetExceeded(PadicError):
    """An enumeration would exceed the configured budget."""


class OracleInconclusive(PadicError):
    """Brute-force enumeration found no norm class below the maximum;
    retry with a larger depth."""


class ClassCollision(PadicError):
    """Two vectors share a norm-exponent class mod 1, so a completion by
    uniformizer powers is impossible."""


class ReductionFailed(PadicError):
    """The basis-reduction hypothesis is violated: no digit multiple of the
    longest vector reduces some other vector below the maximal norm."""


class NotEisenstein(PadicError):
    """Polynomial is not Eisenstein at p."""


class DegenerateGenerator(PadicError):
    """The chosen generator does not generate the full ring of integers
    (its linear coefficient over the uniformizer is divisible by p)."""


class BadExponents(PadicError):
    """Key-generation exponent list violates its constraints."""


class BadMatrix(PadicError):
    """Key-generation mixing matrix is not usable (determinant not a unit,
    or first column not all units)."""


class DeltaTooSmall(PadicError):
    """Noise bound delta is too small for the chosen exponents, so
    decryption would be incorrect."""


class HashFailure(PadicError):
    """Hash-to-target rejection sampling hit its iteration cap."""


class DecryptionAmbiguous(PadicError):
    """Ciphertext noise exceeds the design bound; the closest lattice
    vector is not trustworthy."""


class NotCoprime(PadicError):
    """The constant-shift uniformizer shortcut requires gcd(n, p) = 1."""


class ParseError(PadicError):
    """Malformed key/signature/ciphertext file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InconsistentHeader(PadicError):
    """File header fields contradict each other or the referenced key."""


class NoiseOutOfRange(PadicError):
    """Supplied encryption noise lies outside the sampler's family."""


class FixtureTampered(PadicError):
    """A shipped fixture file does not match its pinned digest."""
