"""Exact finite-precision arithmetic in Q_p.

A scalar is stored as ``unit * p**valuation`` where the unit is a canonical
integer in ``[1, p**precision)`` coprime to p; the value is therefore known
modulo ``p**(valuation + precision)``.  Scalars built from rationals also
carry the exact rational, which lets later arithmetic certify valuations
under arbitrarily deep cancellation.  Such a scalar computes its unit (a
modular inverse mod p**precision) on demand, the first time it is read,
and keeps it: exact arithmetic combines the rationals and rarely needs
it.  Scalars stripped of that payload (see :meth:`PadicScalar.truncated`)
fall back to windowed arithmetic and raise :class:`PrecisionExhausted`
when a cancellation runs past the window.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, NotIntegral, PrecisionExhausted

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


class PadicScalar:
    """An element of Q_p known to finite precision.

    ``valuation is None`` marks the zero-at-precision element.  Two scalars
    compare equal when they share p and valuation and their units agree
    modulo p to the smaller of the two precisions.
    """

    __slots__ = ("p", "precision", "valuation", "_unit", "_frac")

    def __init__(self, p, precision, valuation, unit, _frac=None):
        # ``unit`` may be None for an exact scalar: it is derived from the
        # rational when first read
        self.p = p
        self.precision = precision
        self.valuation = valuation
        self._unit = unit
        self._frac = _frac

    @property
    def unit(self):
        """Canonical unit digits; None for the zero marker."""
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
        return cls(p, precision, None, None, Fraction(0))

    @classmethod
    def from_rational(cls, num, den=1, *, p: int, precision: int = DEFAULT_PRECISION) -> "PadicScalar":
        """Scalar for num/den.  Exact: the rational is retained."""
        if den == 0:
            raise ZeroDivisionError("denominator must be nonzero")
        frac = Fraction(num, den)
        return cls.from_fraction(frac, p=p, precision=precision)

    @classmethod
    def from_fraction(cls, frac: Fraction, *, p: int, precision: int = DEFAULT_PRECISION) -> "PadicScalar":
        num = frac.numerator
        if num == 0:
            return cls.zero(p, precision)
        v = int_valuation(num, p) - int_valuation(frac.denominator, p)
        return cls(p, precision, v, None, frac)

    @classmethod
    def from_window(cls, p, precision, valuation, unit) -> "PadicScalar":
        """Raw windowed scalar.  No exact payload is attached, so deep
        cancellations on it raise PrecisionExhausted."""
        if unit % p == 0:
            raise ValueError("unit must be coprime to p")
        return cls(p, precision, valuation, unit % p ** precision, None)

    def truncated(self) -> "PadicScalar":
        """Copy with the exact-rational payload dropped (window only)."""
        if self.is_zero:
            raise ValueError("cannot truncate the zero marker")
        return PadicScalar(self.p, self.precision, self.valuation, self.unit, None)

    # -- predicates / conversions --------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.valuation is None

    @property
    def is_exact(self) -> bool:
        return self._frac is not None

    def to_fraction(self) -> Fraction:
        """Exact payload when available, else the canonical representative
        ``unit * p**valuation``."""
        if self._frac is not None:
            return self._frac
        return Fraction(self.unit) * Fraction(self.p) ** self.valuation

    def residue(self, digits: int) -> int:
        """Value modulo p**digits, requiring valuation >= 0.

        Windowed scalars can only answer up to their absolute precision.
        """
        if self.is_zero:
            return 0
        if self.valuation < 0:
            raise NotIntegral("negative valuation")
        mod = self.p ** digits
        if self._frac is not None:
            den = self._frac.denominator
            return self._frac.numerator * pow(den, -1, mod) % mod
        if self.valuation + self.precision < digits:
            raise PrecisionExhausted(
                f"residue mod p^{digits} needs more than the stored "
                f"{self.valuation}+{self.precision} digits"
            )
        return self.unit * self.p ** self.valuation % mod

    def residue_digit(self) -> int:
        """Image in the residue field Z/p; requires valuation >= 0."""
        if self.is_zero:
            return 0
        if self.valuation < 0:
            raise NotIntegral(f"valuation {self.valuation} < 0")
        if self.valuation > 0:
            return 0
        return self.unit % self.p

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
        return _add(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _add(self, other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _add(other, self, -1)

    def __neg__(self):
        if self.is_zero:
            return self
        if self._frac is not None:
            return PadicScalar(self.p, self.precision, self.valuation, None, -self._frac)
        mod = self.p ** self.precision
        return PadicScalar(self.p, self.precision, self.valuation, (-self.unit) % mod, None)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        prec = min(self.precision, other.precision)
        if self.is_zero or other.is_zero:
            return PadicScalar.zero(self.p, prec)
        if self._frac is not None and other._frac is not None:
            return PadicScalar.from_fraction(self._frac * other._frac, p=self.p, precision=prec)
        mod = self.p ** prec
        return PadicScalar(self.p, prec, self.valuation + other.valuation,
                           self.unit * other.unit % mod, None)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise DivisionByZero("division by the zero marker")
        prec = min(self.precision, other.precision)
        if self.is_zero:
            return PadicScalar.zero(self.p, prec)
        if self._frac is not None and other._frac is not None:
            return PadicScalar.from_fraction(self._frac / other._frac, p=self.p, precision=prec)
        mod = self.p ** prec
        return PadicScalar(self.p, prec, self.valuation - other.valuation,
                           self.unit * pow(other.unit, -1, mod) % mod, None)

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
        if self._frac is not None:
            return (self._frac.numerator, self._frac.denominator)
        if self.is_zero:
            return (0, 1)
        return ("w", self.valuation, self.unit, self.precision)

    def __repr__(self):
        if self.is_zero:
            return f"PadicScalar(0, p={self.p})"
        return f"PadicScalar({self.unit}*{self.p}^{self.valuation}, N={self.precision})"


def _add(x: PadicScalar, y: PadicScalar, sign: int) -> PadicScalar:
    prec = min(x.precision, y.precision)
    p = x.p
    if x._frac is not None and y._frac is not None:
        frac = x._frac + sign * y._frac
        return PadicScalar.from_fraction(frac, p=p, precision=prec)
    if y.is_zero:
        return PadicScalar(p, prec, x.valuation, x.unit, None)
    if x.is_zero:
        z = y if sign == 1 else -y
        return PadicScalar(p, prec, z.valuation, z.unit, None)
    m = min(x.valuation, y.valuation)
    mod = p ** prec
    s = (x.unit * p ** (x.valuation - m) + sign * y.unit * p ** (y.valuation - m)) % mod
    if s == 0:
        # Everything cancelled inside the window; with a truncated operand
        # we cannot distinguish zero from a deep small value.
        raise PrecisionExhausted(
            f"cancellation beyond {prec} digits; valuation uncertifiable"
        )
    t = int_valuation(s, p)
    rel = prec - t
    return PadicScalar(p, rel, m + t, (s // p ** t) % p ** rel, None)
