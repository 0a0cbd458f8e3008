"""Exact arithmetic in Q_p.

A scalar is an exact rational together with its prime p, its p-adic
valuation and a precision N.  Arithmetic combines the rationals, so every
valuation is certified under arbitrarily deep cancellation.  The unit
digits (the rational divided by p**valuation, modulo p**N; a modular
inverse) are computed on demand, the first time they are read, and kept:
only equality, hashing and repr read them.  Two scalars compare
equal when their units agree to the smaller of their precisions, and a
result carries the smaller precision of its operands.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, NotIntegral

DEFAULT_PRECISION = 128
PRECISION_CAP = 4096


def int_valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer; ValueError for p < 2, where
    the division loop would never end (p = 1) or divide by zero."""
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    if n == 0:
        raise ValueError("valuation of 0 is +infinity")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


# str() and int() stop at 4300 decimal digits by default; longer integers
# convert through Decimal, which has no such limit
def _format_int(a: int) -> str:
    if a.bit_length() <= 13000:  # fewer than 3914 digits
        return str(a)
    from decimal import Decimal
    return str(Decimal(a))


def _parse_int(tok: str) -> int:
    if len(tok) <= 4000:
        return int(tok)
    from decimal import Decimal
    if not (tok.isascii() and tok[1:].isdigit() and tok[0] in "+-0123456789"):
        raise ValueError(f"not an integer ({len(tok)} characters)")
    return int(Decimal(tok))


def _format_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return _format_int(f.numerator)
    return f"{_format_int(f.numerator)}/{_format_int(f.denominator)}"


class PadicScalar:
    """An element of Q_p: an exact rational read to N unit digits.

    ``valuation is None`` marks zero.  Two scalars compare equal when they
    share p and valuation and their units agree modulo p to the smaller of
    the two precisions.
    """

    __slots__ = ("p", "precision", "valuation", "_unit", "_frac")

    def __init__(self, p, precision, valuation, frac: Fraction):
        # ``valuation`` is that of the rational ``frac`` (None for 0)
        self.p = p
        self.precision = precision
        self.valuation = valuation
        self._unit = None
        self._frac = frac

    @property
    def unit(self):
        """Canonical unit digits in [1, p**precision); None for zero."""
        u = self._unit
        if u is None and self.valuation is not None:
            p, v = self.p, self.valuation
            # the rational is reduced, so p divides its numerator (v > 0)
            # or its denominator (v < 0), never both
            num, den = self._frac.numerator, self._frac.denominator
            if v > 0:
                num //= p ** v
            elif v < 0:
                den //= p ** -v
            mod = p ** self.precision
            u = self._unit = num * pow(den, -1, mod) % mod
        return u

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, p: int, precision: int = DEFAULT_PRECISION) -> "PadicScalar":
        return cls(p, precision, None, Fraction(0))

    @classmethod
    def from_fraction(cls, frac: Fraction, *, p: int, precision: int = DEFAULT_PRECISION) -> "PadicScalar":
        num = frac.numerator
        if num == 0:
            return cls.zero(p, precision)
        v = int_valuation(num, p) - int_valuation(frac.denominator, p)
        return cls(p, precision, v, frac)

    # -- predicates / conversions --------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.valuation is None

    def to_fraction(self) -> Fraction:
        """The exact rational."""
        return self._frac

    def residue(self, digits: int) -> int:
        """Value modulo p**digits, requiring valuation >= 0."""
        if self.is_zero:
            return 0
        if self.valuation < 0:
            raise NotIntegral("negative valuation")
        mod = self.p ** digits
        return self._frac.numerator * pow(self._frac.denominator, -1, mod) % mod

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicScalar):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        if isinstance(other, (int, Fraction)):
            return PadicScalar.from_fraction(Fraction(other), p=self.p, precision=self.precision)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _combine(self._frac + other._frac, self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _combine(self._frac - other._frac, self, other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _combine(other._frac - self._frac, self, other)

    def __neg__(self):
        if self.is_zero:
            return self
        return PadicScalar(self.p, self.precision, self.valuation, -self._frac)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _combine(self._frac * other._frac, self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise DivisionByZero("division by the zero marker")
        return _combine(self._frac / other._frac, self, other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        if not isinstance(other, PadicScalar):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if self.p != other.p:
            return False
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        if self.valuation != other.valuation:
            return False
        mod = self.p ** min(self.precision, other.precision)
        return self.unit % mod == other.unit % mod

    def __hash__(self):
        # Hash only what equality always inspects.
        if self.is_zero:
            return hash((self.p, "zero"))
        return hash((self.p, self.valuation, self.unit % self.p))

    def key(self):
        """Canonical hashable identity used by norm caches."""
        return (self._frac.numerator, self._frac.denominator)

    def __repr__(self):
        if self.is_zero:
            return f"PadicScalar(0, p={self.p})"
        return f"PadicScalar({_format_int(self.unit)}*{self.p}^{self.valuation}, N={self.precision})"


def _combine(frac: Fraction, x: PadicScalar, y: PadicScalar) -> PadicScalar:
    """The scalar for ``frac``, the result of an operation on x and y; it
    carries the smaller of their precisions."""
    return PadicScalar.from_fraction(frac, p=x.p, precision=min(x.precision, y.precision))
