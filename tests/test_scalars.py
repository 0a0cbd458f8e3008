import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclat.errors import DivisionByZero, NotIntegral
from padiclat.fields import frac_valuation
from padiclat.scalars import PadicScalar, int_valuation

APPENDIX_C = 755873885678037304696930874820307


class TestConstruction:
    def test_zero_marker(self):
        z = PadicScalar.from_rational(0, 1, p=2, precision=8)
        assert z.is_zero and z.valuation is None

    def test_one_third_dyadic(self):
        x = PadicScalar.from_rational(1, 3, p=2, precision=4)
        assert x.valuation == 0
        assert x.unit == 11  # 3 * 11 = 33 = 1 mod 16

    def test_big_constant_is_unit(self):
        x = PadicScalar.from_rational(APPENDIX_C, 1, p=2, precision=128)
        assert x.valuation == 0

    def test_valuation_examples(self):
        assert PadicScalar.from_rational(8, 1, p=2).valuation == 3
        assert PadicScalar.from_rational(1, 3, p=2).valuation == 0
        assert PadicScalar.from_rational(0, 5, p=2).valuation is None

    def test_denominator_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            PadicScalar.from_rational(1, 0, p=2)

    @pytest.mark.parametrize("p", [1, 0, -3])
    def test_p_below_two_rejected(self, p):
        # p = 1 used to divide forever, p = 0 to divide by zero
        for x in (Fraction(3), Fraction(1, 2), Fraction(-9, 7)):
            with pytest.raises(ValueError, match="p must be at least 2"):
                PadicScalar.from_fraction(x, p=p, precision=8)
            with pytest.raises(ValueError, match="p must be at least 2"):
                frac_valuation(x, p)


class TestResidueDigit:
    def test_even_integer(self):
        assert PadicScalar.from_rational(6, 1, p=2).residue_digit() == 0

    def test_one_third(self):
        assert PadicScalar.from_rational(1, 3, p=2).residue_digit() == 1

    def test_negative_valuation_rejected(self):
        with pytest.raises(NotIntegral):
            PadicScalar.from_rational(1, 2, p=2).residue_digit()

    def test_zero(self):
        assert PadicScalar.zero(3).residue_digit() == 0


class TestArithmetic:
    def test_inverse_pair(self):
        third = PadicScalar.from_rational(1, 3, p=2)
        three = PadicScalar.from_rational(3, 1, p=2)
        prod = third * three
        assert prod.valuation == 0 and prod.unit == 1

    def test_strict_ultrametric_jump(self):
        two = PadicScalar.from_rational(2, 1, p=2)
        assert (two + two).valuation == 2

    def test_self_cancellation_exact(self):
        x = PadicScalar.from_rational(7, 5, p=3)
        assert (x - x).is_zero

    def test_division(self):
        x = PadicScalar.from_rational(10, 1, p=5)
        y = PadicScalar.from_rational(2, 1, p=5)
        assert (x / y) == PadicScalar.from_rational(5, 1, p=5)

    def test_division_by_zero_marker(self):
        with pytest.raises(DivisionByZero):
            PadicScalar.from_rational(1, 1, p=5) / PadicScalar.zero(5)

    def test_mixed_primes_rejected(self):
        with pytest.raises(ValueError):
            PadicScalar.from_rational(1, 1, p=5) + PadicScalar.from_rational(1, 1, p=3)

    def test_int_coercion(self):
        x = PadicScalar.from_rational(5, 1, p=3)
        assert (x + 1) == PadicScalar.from_rational(6, 1, p=3)
        assert (2 * x) == PadicScalar.from_rational(10, 1, p=3)


rationals = st.fractions(
    min_value=Fraction(-10 ** 6), max_value=Fraction(10 ** 6), max_denominator=10 ** 4)
primes = st.sampled_from([2, 3, 5, 7])


class TestProperties:
    @given(rationals, rationals, primes)
    @settings(max_examples=300, deadline=None)
    def test_valuation_multiplicative(self, a, b, p):
        x = PadicScalar.from_fraction(a, p=p)
        y = PadicScalar.from_fraction(b, p=p)
        z = x * y
        if x.is_zero or y.is_zero:
            assert z.is_zero
        else:
            assert z.valuation == x.valuation + y.valuation

    @given(rationals, rationals, primes)
    @settings(max_examples=300, deadline=None)
    def test_ultrametric(self, a, b, p):
        x = PadicScalar.from_fraction(a, p=p)
        y = PadicScalar.from_fraction(b, p=p)
        if x.is_zero or y.is_zero:
            return
        s = x + y
        if s.is_zero:
            return
        assert s.valuation >= min(x.valuation, y.valuation)
        if x.valuation != y.valuation:
            assert s.valuation == min(x.valuation, y.valuation)

    @given(rationals, rationals, primes, st.sampled_from(["add", "sub", "mul", "div"]))
    @settings(max_examples=400, deadline=None)
    def test_roundtrip_matches_exact_rationals(self, a, b, p, op):
        x = PadicScalar.from_fraction(a, p=p)
        y = PadicScalar.from_fraction(b, p=p)
        if op == "add":
            got, want = x + y, a + b
        elif op == "sub":
            got, want = x - y, a - b
        elif op == "mul":
            got, want = x * y, a * b
        else:
            if b == 0:
                return
            got, want = x / y, a / b
        assert got == PadicScalar.from_fraction(want, p=p)

    @given(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
           st.integers(min_value=-10 ** 6, max_value=10 ** 6), primes)
    @settings(max_examples=200, deadline=None)
    def test_residue_digit_is_ring_hom(self, a, b, p):
        x = PadicScalar.from_rational(a, 1, p=p)
        y = PadicScalar.from_rational(b, 1, p=p)
        assert (x + y).residue_digit() == (x.residue_digit() + y.residue_digit()) % p
        assert (x * y).residue_digit() == (x.residue_digit() * y.residue_digit()) % p


class TestPrecisionPolicy:
    def test_int_valuation(self):
        assert int_valuation(24, 2) == 3
        assert int_valuation(24, 3) == 1
        with pytest.raises(ValueError):
            int_valuation(0, 2)

    def test_equality_window(self):
        # same value at different precisions compares equal on the overlap
        a = PadicScalar.from_rational(7, 3, p=2, precision=16)
        b = PadicScalar.from_rational(7, 3, p=2, precision=64)
        assert a == b

    def test_canonical_unit_reduction(self):
        rng = random.Random(1)
        for _ in range(50):
            n = rng.randrange(-500, 500)
            d = rng.randrange(1, 500)
            x = PadicScalar.from_rational(n, d, p=5, precision=12)
            if not x.is_zero:
                assert 1 <= x.unit < 5 ** 12 and x.unit % 5 != 0


def _unit_cases():
    """Seeded (p, precision, fraction) triples: negative, non-integral and
    p-divisible numerators and denominators, and zero."""
    rng = random.Random(41)
    cases = [(2, 8, Fraction(0)), (3, 4, Fraction(-1, 9)), (5, 1, Fraction(25, 7))]
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        precision = rng.choice([1, 4, 16, 128])
        f = Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 10 ** 4))
        cases.append((p, precision, f * Fraction(p) ** rng.randrange(-3, 4)))
    return cases


def _outcome(fn):
    """repr of fn() or the name of the exception it raises."""
    try:
        return repr(fn())
    except (NotIntegral, ValueError) as exc:
        return type(exc).__name__


class TestUnitsOnDemand:
    def test_lazy_unit_matches_eager_formula(self):
        for p, precision, f in _unit_cases():
            def fresh():
                return PadicScalar.from_fraction(f, p=p, precision=precision)
            if f == 0:
                assert fresh().unit is None and (-fresh()).unit is None
                continue
            num, den = f.numerator, f.denominator
            num //= p ** int_valuation(num, p)
            den //= p ** int_valuation(den, p)
            mod = p ** precision
            want = num * pow(den, -1, mod) % mod
            x = fresh()
            assert x.unit == want and x.unit == want  # first and cached read
            assert (-fresh()).unit == (-want) % mod
            assert (-x).unit == (-want) % mod
            # an arithmetic result computes its unit from its own rational
            y = fresh() * 3 + 1
            assert y == PadicScalar.from_fraction(f * 3 + 1, p=p, precision=precision)

    # SHA-256 of the transcript below (4844 lines), recorded while scalars
    # could still drop their rational to a fixed window of digits
    TRANSCRIPT_SHA256 = "f34b158a655699638ebd68a9df482653db91a452b3149b65128d777cfaa6ca79"

    def test_observable_behaviour_pinned(self):
        # every query starts from a fresh scalar, so none of them can lean
        # on a unit another query computed first
        lines = []
        for p, precision, f in _unit_cases():
            def fresh(frac=f, prec=precision):
                return PadicScalar.from_fraction(frac, p=p, precision=prec)
            lines += [repr(fresh()), repr(fresh().key()), repr(-fresh()),
                      repr((-fresh()).key()), repr(-(-fresh())),
                      _outcome(lambda: fresh().residue_digit())]
            lines += [_outcome(lambda d=d: fresh().residue(d)) for d in (1, 3, precision + 2)]
            lines += [repr(fresh() == fresh(prec=2 * precision)),
                      repr(fresh() == fresh(frac=f + 1)),
                      repr(fresh() == -fresh())]
            if f == 0:
                continue
            near = f + Fraction(p) ** (fresh().valuation + precision)  # same digits
            lines += [repr(hash(fresh())), repr(hash(-fresh())),
                      repr(fresh() == fresh(frac=near)), repr(hash(fresh(frac=near)))]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.TRANSCRIPT_SHA256
