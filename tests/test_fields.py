import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    TOY_F,
    random_eisenstein,
    random_signature_key,
    random_unimodular,
    scheme_shaped_lattice,
    unframed,
)
from padiclat import bench, fields
from padiclat.attack import recover_uniformizer
from padiclat.errors import (
    NotInSpan,
    NotIntegral,
    NotMonic,
    PrecisionExhausted,
    SingularSystem,
)
from padiclat.fields import (
    AbsValue,
    NormEngine,
    _element_scale,
    _linear_combination,
    _solve_exact,
    _solve_mod,
    abs_value,
    coordinates_in,
    is_eisenstein,
    make_context,
)
from padiclat.lattices import Lattice, _IntegerSums, lvp_oracle
from padiclat.reduction import AbsCounter, orthogonalize
from padiclat.scalars import PRECISION_CAP, PadicScalar, int_valuation
from padiclat.schemes import PublicKey, in_lattice, sign, verify
from solve_reference import gf_coprime_reference, solve_exact_reference, solve_mod_reference


class TestMakeContext:
    def test_quadratic(self):
        ctx = make_context(2, 128, [-2, 0, 1])
        assert ctx.n == 2

    def test_toy_degree(self, toy_ctx):
        assert toy_ctx.n == 20

    def test_not_monic(self):
        with pytest.raises(NotMonic):
            make_context(2, 128, [-2, 0, 2])

    def test_not_integral(self):
        with pytest.raises(NotIntegral):
            make_context(2, 128, [Fraction(1, 2), 0, 1])

    def test_monic_to_the_context_precision(self):
        # z^2 + 3 at p = 3 and N = 8: the leading coefficient is read to the
        # context's 8 digits, whatever precision its scalar carries
        def lead(value, digits):
            return PadicScalar.from_fraction(Fraction(value), p=3, precision=digits)

        ctx = make_context(3, 8, [3, 0, lead(1 + 3 ** 10, 64)])
        assert ctx.same_structure(make_context(3, 8, [3, 0, 1]))
        with pytest.raises(NotMonic):
            make_context(3, 8, [3, 0, lead(1 + 3 ** 5, 4)])

    def test_modulus_scalars_of_another_prime(self):
        # residues and products must read one F; z^2 - 3 is Eisenstein at 3
        def minus_three(p):
            return PadicScalar.from_fraction(Fraction(-3), p=p, precision=10)

        with pytest.raises(ValueError, match="mixed primes"):
            make_context(3, 10, [minus_three(5), 0, 1])
        ctx = make_context(3, 10, [minus_three(3), 0, 1])
        assert ctx.same_structure(make_context(3, 10, [-3, 0, 1]))
        assert NormEngine(ctx).norm_valuation(ctx.gen()) == 1

    def test_equality_reads_the_field_and_its_metadata(self):
        ctx = make_context(3, 10, [-3, 0, 1], ramification=2)
        same = make_context(3, 10, [Fraction(-6, 2), 0, 1], ramification=2)
        assert ctx == same and hash(ctx) == hash(same)
        assert ctx != make_context(3, 11, [-3, 0, 1], ramification=2)
        assert ctx != make_context(3, 10, [-3, 0, 1])
        assert ctx != make_context(3, 10, [-3, 3, 1], ramification=2)
        assert ctx != make_context(5, 10, [-5, 0, 1], ramification=2)
        assert len({ctx, same}) == 1


class TestElementArithmetic:
    def test_generator_power_reduces(self, sqrt2_ctx):
        z = sqrt2_ctx.gen()
        sq = z * z  # z^2 = 2 in x^2 - 2
        assert sq == sqrt2_ctx.element([2, 0])

    def test_add_neg_cancels(self, toy_ctx):
        x = toy_ctx.element(list(range(1, 21)))
        assert (x + (-x)).is_zero

    def test_top_degree_reduction(self, toy_ctx):
        # z * z^(n-1) = -(F_0 + F_1 z + ... + F_{n-1} z^{n-1})
        z = toy_ctx.gen()
        top = toy_ctx.monomial(19)
        expect = toy_ctx.element([-c.to_fraction() for c in toy_ctx.modulus[:-1]])
        assert z * top == expect

    def test_pow(self, sqrt2_ctx):
        z = sqrt2_ctx.gen()
        assert z ** 4 == sqrt2_ctx.element([4, 0])


def _schoolbook_mul(a, b, modulus):
    """Reference product of two Fraction vectors reduced by the monic
    modulus (Fractions, constant term first), one term at a time."""
    n = len(modulus) - 1
    prod = [Fraction(0)] * (2 * n - 1)
    for i in range(n):
        for j in range(n):
            prod[i + j] += a[i] * b[j]
    for k in range(2 * n - 2, n - 1, -1):
        for i in range(n):
            prod[k - n + i] -= prod[k] * modulus[i]
        prod[k] = Fraction(0)
    return prod[:n]


def _random_coefficient(rng, p, zero_rate=0.3):
    """0, or a/d with d a power of p, p-free, or both (non-integral and
    non-p-adic-unit denominators alike)."""
    if rng.random() < zero_rate:
        return Fraction(0)
    free = rng.choice([d for d in range(1, 12) if d % p])
    den = rng.choice([1, p, p ** 3, free, p * free])
    return Fraction(rng.randrange(-p ** 5, p ** 5), den)


class TestExactElementArithmetic:
    """Exact products, sums and scalar multiples against a Fraction
    schoolbook reference."""

    @staticmethod
    def _contexts(rng, count):
        for k in range(count):
            p = rng.choice([2, 3, 5])
            n = rng.randrange(2, 11)
            if k % 2:
                # p-free denominators: F is integral over Z_p but not over Z
                free = [d for d in range(1, 12) if d % p]
                coeffs = [Fraction(rng.randrange(-50, 50), rng.choice(free))
                          for _ in range(n)] + [1]
            else:
                coeffs = random_eisenstein(rng, p, n)
            yield make_context(p, rng.choice([8, 64]), coeffs)

    def test_matches_schoolbook_reference(self):
        rng = random.Random(2718)
        checked = 0
        for ctx in self._contexts(rng, 80):
            p, n = ctx.p, ctx.n
            modulus = [c.to_fraction() for c in ctx.modulus]
            for _ in range(4):
                a = [_random_coefficient(rng, p) for _ in range(n)]
                b = [_random_coefficient(rng, p, rng.choice([0.3, 1.0])) for _ in range(n)]
                x, y = ctx.element(a), ctx.element(b)
                s = _random_coefficient(rng, p)
                want = {
                    "x*y": _schoolbook_mul(a, b, modulus),
                    "y*x": _schoolbook_mul(b, a, modulus),
                    "x+y": [u + v for u, v in zip(a, b)],
                    "x-y": [u - v for u, v in zip(a, b)],
                    "x*s": [u * s for u in a],
                }
                got = {
                    "x*y": x * y, "y*x": y * x, "x+y": x + y, "x-y": x - y,
                    "x*s": x * s,
                }
                for scalar in (s.numerator if s.denominator == 1 else s, ctx.scalar(s)):
                    assert list((x * scalar).fracs) == want["x*s"]
                    assert list((scalar * x).fracs) == want["x*s"]
                for op, z in got.items():
                    assert list(z.fracs) == want[op], op
                    ref = ctx.element(want[op])
                    assert z == ref and z.key() == ref.key()
                    assert all(c.p == p and c.precision == ctx.precision
                               and c.unit == r.unit for c, r in zip(z.coeffs, ref.coeffs))
                checked += 1
        assert checked == 320

    def test_results_are_canonical(self):
        # every result is the one canonical pair of its value, so equal
        # values built different ways share one engine state and one count
        rng = random.Random(3141)
        for ctx in self._contexts(rng, 40):
            p, n = ctx.p, ctx.n
            x, y = (ctx.element([_random_coefficient(rng, p) for _ in range(n)])
                    for _ in range(2))
            s = _random_coefficient(rng, p)
            sums = _IntegerSums(ctx, [x, y], p - 1)
            rows = sums.rows(np.array([[1, 1], [1, 0], [0, 0]]))
            results = [x + y, x - y, x - x, -x, x * y, x * s, ctx.scalar(s) * x,
                       _linear_combination(ctx, [s, 2], [x, y]),
                       _linear_combination(ctx, [0], [x]),
                       ctx.element([s] * n), ctx.zero()] + [sums.element(r) for r in rows]
            for z in results:
                assert z.den > 0 and gcd(*z.ints, z.den) == 1 and len(z.ints) == n
                assert not z.is_zero or z.identity == ((0,) * n, 1)
            if x.is_zero:
                continue
            engine = NormEngine(ctx)
            counter = AbsCounter(engine)
            for twin in (x, x + y - y, x * 3 * Fraction(1, 3), sums.element(rows[1])):
                counter.abs_values([twin])
            assert counter.count == 1 and len(engine._states) == 1

    @staticmethod
    def _term_by_term(ctx, coeffs, vectors):
        """Reference sum c_k v_k by element arithmetic."""
        acc = ctx.zero()
        for c, v in zip(coeffs, vectors):
            acc = acc + v * c
        return acc

    def test_linear_combination_matches_term_by_term(self):
        rng = random.Random(1618)
        checked = 0
        for ctx in self._contexts(rng, 60):
            p, n, top = ctx.p, ctx.n, ctx.precision
            low = top // 2
            # the same field read to fewer digits: its vectors are accepted
            twin = make_context(p, low, [c.to_fraction() for c in ctx.modulus])

            def vector():
                v = ctx.element([_random_coefficient(rng, p) for _ in range(n)])
                return twin.cast(v) if rng.random() < 0.3 else v

            def coefficient(zero_rate):
                c = _random_coefficient(rng, p, zero_rate)
                kind = rng.randrange(3)
                if kind == 0 and c.denominator == 1:
                    return c.numerator
                if kind == 2:
                    return PadicScalar.from_fraction(c, p=p, precision=rng.choice([low, top]))
                return c

            for k in range(4):
                m = rng.randrange(0, 6)
                vectors = [vector() for _ in range(m)]
                coeffs = [coefficient(1.0 if k == 0 else 0.3) for _ in range(m)]
                cases = [(coeffs, vectors)]
                if m:
                    # a low-precision vector behind a zero coefficient, then a
                    # low-precision coefficient on full-precision vectors
                    cases.append(([0] + coeffs[1:], [twin.cast(vectors[0])] + vectors[1:]))
                    cases.append(([PadicScalar.from_fraction(Fraction(1), p=p, precision=low)]
                                  + coeffs[1:], [ctx.element(v.fracs) for v in vectors]))
                for cs, vs in cases:
                    got = _linear_combination(ctx, cs, vs)
                    want = self._term_by_term(ctx, cs, vs)
                    assert got.ctx is ctx
                    assert got.fracs == want.fracs
                    checked += 1
        assert checked > 500
        # a low-precision coefficient beside a zero one, spelled out
        ctx = make_context(3, 32, [3, 0, 1])
        x = ctx.element([1, Fraction(1, 3)])
        half = PadicScalar.from_fraction(Fraction(1, 2), p=3, precision=8)
        z = _linear_combination(ctx, [half, 0], [x, x])
        assert z.fracs == (Fraction(1, 2), Fraction(1, 6))

    def test_mixed_primes_and_contexts_raise(self):
        ctx3 = make_context(3, 32, [3, 0, 1])
        ctx5 = make_context(5, 32, [5, 0, 1])
        x = ctx3.element([1, Fraction(1, 3)])
        y = ctx5.element([1, 1])
        for op in (lambda: x * PadicScalar.from_fraction(Fraction(2), p=5, precision=32),
                   lambda: x * y, lambda: x + y, lambda: x - y,
                   lambda: _linear_combination(ctx3, [1, 1], [x, y]),
                   lambda: _linear_combination(
                       ctx3, [PadicScalar.from_fraction(Fraction(2), p=5, precision=32)], [x]),
                   lambda: x * ctx3.element([PadicScalar.from_fraction(Fraction(1), p=5), 0])):
            with pytest.raises(ValueError):
                op()

    def test_vector_of_another_field_under_a_zero_coefficient_raises(self):
        # every vector's context is checked, not only those of its terms
        ctx3 = make_context(3, 32, [3, 0, 1])
        z5 = make_context(5, 32, [5, 0, 1]).gen()
        z = ctx3.gen()
        for coeffs, vectors in (([0, 1], [z5, z]), ([1, 0], [z, z5]), ([0], [z5])):
            with pytest.raises(ValueError, match="different contexts"):
                _linear_combination(ctx3, coeffs, vectors)

    def test_other_precision_scalar_products_stay_exact(self):
        # a scalar at another precision multiplies an element exactly, and
        # the product is read to the element's context's precision
        ctx = make_context(3, 32, [3, 0, 1])
        x = ctx.element([1, Fraction(1, 3)])
        for digits in (8, 64):
            two = PadicScalar.from_fraction(Fraction(2), p=3, precision=digits)
            built = {"x*c": x * two, "c*x": two * x,
                     "combination": _linear_combination(ctx, [two, 1], [x, ctx.one()])}
            assert {op: z.fracs for op, z in built.items()} == {
                "x*c": (2, Fraction(2, 3)), "c*x": (2, Fraction(2, 3)),
                "combination": (3, Fraction(2, 3))}
            for op, z in built.items():
                assert [a.precision for a in z.coeffs] == [32, 32], op

    def test_mixed_precision_inputs_stay_exact(self):
        # a coefficient given at 8 digits changes no rational of a result
        ctx = make_context(3, 32, [3, 0, 1])
        a, b = [1, Fraction(1, 3)], [Fraction(2, 5), 7]
        x = ctx.element(a)
        y = ctx.element([b[0], PadicScalar.from_fraction(Fraction(b[1]), p=3, precision=8)])
        modulus = [c.to_fraction() for c in ctx.modulus]
        for z, want in ((x + y, [u + v for u, v in zip(a, b)]),
                        (y - x, [v - u for u, v in zip(a, b)]),
                        (x * y, _schoolbook_mul(a, b, modulus))):
            assert list(z.fracs) == want



class TestOneElementRepresentation:
    """An element holds its exact rationals, read to its context's
    precision; the scalar view ``coeffs`` must agree with everything digests
    and caches read."""

    @staticmethod
    def _elements(seed=41):
        rng = random.Random(seed)
        for p in (2, 3, 5):
            ctx = make_context(p, rng.choice([8, 32]), random_eisenstein(rng, p, 3))
            yield ctx, ctx.zero()
            yield ctx, ctx.element([-1, p ** 3, 0])
            for _ in range(12):
                yield ctx, ctx.element([_random_coefficient(rng, p) for _ in range(3)])

    def test_key_and_fractions_read_the_scalars(self):
        for ctx, x in self._elements():
            assert x.key() == tuple(c.key() for c in x.coeffs)
            assert list(x.fracs) == [c.to_fraction() for c in x.coeffs]
            assert all(c.p == ctx.p and c.precision == ctx.precision for c in x.coeffs)
            assert x.is_zero == all(c.is_zero for c in x.coeffs)

    def test_repr_past_the_string_limit(self, sqrt2_ctx):
        # str() stops at 4300 digits; a unit of 1/3 to 3000 digits at p = 101
        # has about 6000
        from padiclat.scalars import _parse_int

        big = sqrt2_ctx.element([10 ** 5000, 1])
        assert repr(big) == "FieldElement(1" + "0" * 5000 + "*z^0 + 1*z^1)"
        third = PadicScalar.from_fraction(Fraction(1, 3), p=101, precision=3000)
        head, _, tail = repr(third).partition("*")
        assert _parse_int(head.removeprefix("PadicScalar(")) == third.unit
        assert tail == "101^0, N=3000)"

    def test_equality_and_hash_are_coefficientwise(self):
        rng = random.Random(42)
        close = 0
        for ctx, x in self._elements():
            p, top = ctx.p, ctx.precision
            # y moves one coefficient by p^precision times its own size, so it
            # agrees with x to the context's precision; far moves it by
            # p^(precision - 1) times its size
            i = rng.randrange(ctx.n)
            shift = x.fracs[i] * rng.randrange(1, 9)
            y, far = (x + ctx.monomial(i, shift * p ** k) for k in (top, top - 1))
            for a, b in ((x, y), (y, x), (x, far), (x, x), (x, -x), (x, x + ctx.one())):
                same = all(c == d for c, d in zip(a.coeffs, b.coeffs))
                assert (a == b) == same
                if same:
                    assert hash(a) == hash(b)
            close += x == y and x.key() != y.key()
        assert close >= 10

    def test_agreement_to_the_smaller_precision(self):
        # elements of one field read to 32 and to 8 digits compare to 8
        ctx, ctx8 = make_context(3, 32, [3, 0, 1]), make_context(3, 8, [3, 0, 1])
        x = ctx.element([1, 2])
        y = ctx8.element([1 + 3 ** 8, 2])
        assert x == y and y == x and hash(x) == hash(y) and x.key() != y.key()
        assert x != ctx.element([1 + 3 ** 8, 2])

    def test_scalar_inputs_take_the_context_precision(self):
        # an element is read to its context's precision, whatever the
        # precision of the scalars it was built from; the rationals stay exact
        ctx = make_context(3, 32, [3, 0, 1])
        for digits in (8, 64):
            two = PadicScalar.from_fraction(Fraction(2), p=3, precision=digits)
            built = {"element": ctx.element([two, 3]), "monomial": ctx.monomial(1, two)}
            assert {op: z.fracs for op, z in built.items()} == {
                "element": (2, 3), "monomial": (0, 2)}
            for op, z in built.items():
                assert [a.precision for a in z.coeffs] == [32, 32], op
        with pytest.raises(ValueError):
            ctx.element([1, PadicScalar.from_fraction(Fraction(1), p=5, precision=32)])

    def test_context_scalar_reads_its_own_prime(self):
        # ctx.scalar reads a scalar as ctx.element does: of this prime only,
        # to the context's precision
        ctx = make_context(3, 32, [3, 0, 1])
        with pytest.raises(ValueError, match="mixed primes"):
            ctx.scalar(PadicScalar.from_fraction(Fraction(2), p=5, precision=8))
        for digits in (8, 64):
            got = ctx.scalar(PadicScalar.from_fraction(Fraction(2, 9), p=3, precision=digits))
            assert (got.to_fraction(), got.precision) == (Fraction(2, 9), 32)

    def test_monomial_is_the_padded_element(self):
        # monomial (and zero, one, gen) builds the canonical pair directly:
        # the same pair as the zero-padded element
        ctx = make_context(3, 32, random_eisenstein(random.Random(3), 3, 7))
        n, p = ctx.n, ctx.p
        coefficients = [1, 12, -5, 0, Fraction(-6, 9), Fraction(7, 27),
                        PadicScalar.from_fraction(Fraction(2, 3), p=p, precision=8),
                        PadicScalar.from_fraction(Fraction(-18), p=p, precision=64),
                        PadicScalar.zero(p, 4)]
        for k in (0, n // 2, n - 1):
            for c in coefficients:
                got, want = ctx.monomial(k, c), ctx.element([0] * k + [c])
                assert got.identity == want.identity
        for got, want in ((ctx.zero(), []), (ctx.one(), [1]), (ctx.gen(), [0, 1])):
            want = ctx.element(want)
            assert got.identity == want.identity
        with pytest.raises(ValueError):
            ctx.monomial(1, PadicScalar.from_fraction(Fraction(1), p=5, precision=8))
        with pytest.raises(ValueError):
            ctx.monomial(n)

    def test_break_builds_no_scalar(self, monkeypatch):
        # recovery, orthogonalization and the oracle run on the rationals
        # alone: each answer is unchanged when building a scalar raises
        ctx16 = bench.make_instance(16, 5, random.Random(3))
        ctx4, basis, _ = scheme_shaped_lattice(random.Random(5), 3, 4, 2)

        def answers():
            rec = recover_uniformizer(ctx16)
            ortho = orthogonalize(ctx4, basis)
            lvp = lvp_oracle(ctx4, Lattice(ctx4, basis))
            return (rec.gamma.key(), rec.lambda2, rec.abs_count,
                    [b.key() for b in ortho.basis], ortho.exponents, ortho.abs_count,
                    lvp.lambda1, lvp.lambda2, lvp.witness.key(), lvp.classes)

        want = answers()

        def refuse(*args, **kwargs):
            raise AssertionError("a scalar was built")

        monkeypatch.setattr(PadicScalar, "from_fraction", refuse)
        assert answers() == want
        # equality, hashing and keys read the exact pairs as well
        gamma = recover_uniformizer(ctx16).gamma
        twin = gamma + ctx16.one() - ctx16.one()
        assert gamma == twin and hash(gamma) == hash(twin) and gamma.key() == twin.key()
        assert gamma != gamma + ctx16.one()
        assert ctx16.element([1 + 5 ** ctx16.precision]) == ctx16.one()


class TestNormAndAbs:
    def test_norm_of_one(self, toy_ctx):
        assert NormEngine(toy_ctx).norm_valuation(toy_ctx.one()) == 0

    def test_norm_of_sqrt2(self, sqrt2_ctx):
        # N(sqrt2) = -2
        assert NormEngine(sqrt2_ctx).norm_valuation(sqrt2_ctx.gen()) == 1

    def test_toy_generator_minus_one(self, toy_ctx):
        gamma = toy_ctx.gen() - toy_ctx.one()
        assert NormEngine(toy_ctx).norm_valuation(gamma) == 1
        assert abs_value(toy_ctx, gamma) == AbsValue.of(1, 20)

    def test_toy_norm_table_spot(self, toy_ctx):
        eng = NormEngine(toy_ctx)
        one = toy_ctx.one()
        z16 = toy_ctx.gen() ** 16
        assert eng.abs_value(z16 - one) == AbsValue.of(4, 5)
        z2 = toy_ctx.gen() ** 2
        assert eng.abs_value(z2 - one) == AbsValue.of(1, 10)

    def test_abs_of_zero(self, toy_ctx):
        assert abs_value(toy_ctx, toy_ctx.zero()).is_zero

    def test_eisenstein_root_exponent(self):
        rng = random.Random(3)
        for p, n in [(2, 3), (3, 4), (5, 5)]:
            ctx = make_context(p, 64, random_eisenstein(rng, p, n))
            assert abs_value(ctx, ctx.gen()) == AbsValue.of(1, n)

    def test_multiplicativity_random(self, sqrt2_ctx):
        rng = random.Random(9)
        eng = NormEngine(sqrt2_ctx)
        for _ in range(25):
            x = sqrt2_ctx.element([rng.randrange(-20, 20) for _ in range(2)])
            y = sqrt2_ctx.element([rng.randrange(-20, 20) for _ in range(2)])
            if x.is_zero or y.is_zero:
                continue
            assert eng.abs_value(x * y) == eng.abs_value(x) * eng.abs_value(y)

    def test_ultrametric_random(self, toy_ctx):
        rng = random.Random(10)
        eng = NormEngine(toy_ctx)
        for _ in range(10):
            x = toy_ctx.element([rng.randrange(-9, 9) for _ in range(20)])
            y = toy_ctx.element([rng.randrange(-9, 9) for _ in range(20)])
            s = x + y
            if x.is_zero or y.is_zero or s.is_zero:
                continue
            ex, ey, es = (eng.abs_value(v).exponent for v in (x, y, s))
            assert es >= min(ex, ey)
            if ex != ey:
                assert es == min(ex, ey)


# Eisenstein fields of degree <= 4, the first is Q_2[z]/(z^3 - 2); then
# moduli whose reduction mod p is not z^n, so the one-digit threshold test
# (a GF(p) gcd) meets nontrivial common factors: a benchmark public
# polynomial, F = (z + 2)^4 mod 5; z^4 + 2, which is (z - 1)(z + 1)(z^2 + 1)
# mod 3; and an Eisenstein modulus with p | n, where F' = 0 mod p.  All but
# z^4 + 2 carry a frame of their own; their unframed twins keep the GF(p)
# gcd and the determinants covered
THRESHOLD_CTXS = [make_context(2, 64, [-2, 0, 0, 1]),
                  make_context(3, 64, [3, 0, 1]),
                  make_context(5, 64, [10, 5, 0, 5, 1]),
                  bench.make_instance(4, 5, random.Random(0), 64),
                  make_context(3, 64, [2, 0, 0, 0, 1]),
                  make_context(2, 64, [2, 2, 0, 0, 1])]
UNFRAMED_THRESHOLD_CTXS = [unframed(ctx) for ctx in THRESHOLD_CTXS]


class TestThresholdQueries:
    """Threshold tests must agree with exact sizes, also for elements
    outside the ring of integers (negative norm valuation)."""

    @given(st.sampled_from(range(2 * len(THRESHOLD_CTXS))),
           st.lists(st.tuples(st.integers(-30, 30), st.integers(0, 2)),
                    min_size=4, max_size=4),
           st.integers(-4, 4))
    @settings(max_examples=300, deadline=None)
    @example(0, [(1, 1), (0, 0), (0, 0), (0, 0)], 0)  # x = 1/2, v(N(x)) = -3
    def test_abs_less_than_agrees_with_abs_value(self, which, coeffs, offset):
        # coefficients a / p^k, so k > 0 makes the element non-integral;
        # the bound sits offset/(2n) away from |x|, fresh engines each time,
        # on the fields with their own frames and without
        ctx = (THRESHOLD_CTXS + UNFRAMED_THRESHOLD_CTXS)[which]
        x = ctx.element([Fraction(a, ctx.p ** k) for a, k in coeffs[:ctx.n]])
        if x.is_zero:
            return
        v = NormEngine(ctx).norm_valuation(x)
        bound = AbsValue(Fraction(2 * v + offset, 2 * ctx.n))
        exact = NormEngine(ctx).abs_value(x)
        assert NormEngine(ctx).abs_less_than(x, bound) == (exact < bound)

    @pytest.mark.parametrize("exponent", [
        Fraction(-7, 3), Fraction(-2), Fraction(-1, 6), Fraction(0), Fraction(1, 4),
        Fraction(2, 3), Fraction(3), Fraction(17, 5)])
    def test_abs_less_than_bound_is_the_floor(self, exponent, monkeypatch):
        # |x| < p^(-e) is v(N(x)) > floor(e * n): the integer bound comes
        # from the exponent's numerator and denominator, as the Fraction
        # floor would, for negative, zero, integral and non-integral e
        ctx = THRESHOLD_CTXS[0]
        seen = []
        monkeypatch.setattr(NormEngine, "norm_exceeds", lambda self, x, bound: seen.append(bound))
        NormEngine(ctx).abs_less_than(ctx.one(), AbsValue(exponent))
        assert seen == [math.floor(exponent * ctx.n)]
        assert type(seen[0]) is int

    def test_one_digit_attempt_matches_determinant(self):
        # the GF(p) gcd must answer and cache what a one-digit determinant
        # implies
        from padiclat.fields import (_det_valuation, _element_residues, _element_scale,
                                     _mult_rows_mod)

        rng = random.Random(17)
        outcomes = set()
        for ctx in UNFRAMED_THRESHOLD_CTXS:
            p, n = ctx.p, ctx.n
            for _ in range(150):
                k = rng.choice([0, 0, 1])  # k > 0: non-integral element
                x = ctx.element([Fraction(rng.randrange(-2 * p, 2 * p), p ** k)
                                 for _ in range(n)])
                if x.is_zero:
                    continue
                eng = NormEngine(ctx)
                shift = n * _element_scale(x)
                exceeds = eng.norm_exceeds(x, -shift)
                rows = _mult_rows_mod(ctx, [_element_residues(x, 1)], 1)
                (v,), (deeper,) = _det_valuation(rows, p, 1)
                want_exact = None if deeper else v - shift
                assert eng._states.get(x.identity) == want_exact
                assert exceeds == deeper
                outcomes.add((not deeper, shift > 0))
        assert len(outcomes) == 4  # units and non-units, both kinds of x

    def test_shared_engine_agrees_with_fresh_engines(self):
        # a threshold test then the exact size on one engine (and the
        # reverse order) must give what fresh engines give; without a frame,
        # bounds above |x| send the one-level determinant deeper, which
        # caches nothing
        from padiclat.fields import _element_scale

        rng = random.Random(29)
        deeper = 0
        for ctx in THRESHOLD_CTXS + UNFRAMED_THRESHOLD_CTXS:
            p, n = ctx.p, ctx.n
            for _ in range(25):
                k = rng.choice([0, 0, 1])  # k > 0: non-integral element
                x = ctx.element([Fraction(rng.randrange(-2 * p, 2 * p), p ** k)
                                 for _ in range(n)])
                if x.is_zero:
                    continue
                exact = NormEngine(ctx).abs_value(x)
                for offset in range(-3, 4):
                    bound = AbsValue(exact.exponent + Fraction(offset, 2 * n))
                    less = NormEngine(ctx).abs_less_than(x, bound)
                    assert less == (exact < bound)
                    eng = NormEngine(ctx)
                    assert eng.abs_less_than(x, bound) == less
                    t = bound.exponent * n
                    levels = t.numerator // t.denominator + 1 + n * _element_scale(x)
                    deeper += levels > 1 and x.identity not in eng._states
                    assert eng.abs_value(x) == exact
                    assert eng.abs_less_than(x, bound) == less
                    eng = NormEngine(ctx)
                    assert eng.abs_value(x) == exact
                    assert eng.abs_less_than(x, bound) == less
        assert deeper

    def test_exact_queries_never_use_the_gcd(self, monkeypatch):
        # the determinant referees the gcd, so no exact valuation (and no
        # oracle answer) may be computed by it; the field is taken without
        # its own frame, so that its engines reach the gcd at all
        rng = random.Random(5)
        ctx, basis, _ = scheme_shaped_lattice(rng, 3, 4, 2)
        ctx = unframed(ctx)
        x = basis[0] + basis[1]

        def answers():
            oracle = lvp_oracle(ctx, Lattice(ctx, basis))
            return (NormEngine(ctx).abs_value(x),
                    (oracle.lambda1, oracle.lambda2, oracle.witness, oracle.classes))

        want = answers()

        def forbidden(*args):
            raise AssertionError("exact query reached the GF(p) gcd")

        monkeypatch.setattr(fields, "_gf_coprime", forbidden)
        with pytest.raises(AssertionError):
            NormEngine(ctx).norm_exceeds(ctx.one(), 0)  # the patch is live
        assert answers() == want


class TestUnitRadical:
    """The one-digit unit test reads p^s x mod p against R, the radical of
    F mod p, which the context builds once; every answer must be the plain
    Euclid's against F mod p itself (``gf_coprime_reference``)."""

    @staticmethod
    def _exponents(p):
        return [1, 2, p, 2 * p, p * p, p + 1]

    @staticmethod
    def _mul(a, b, p):
        out = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, w in enumerate(b):
                out[i + j] = (out[i + j] + u * w) % p
        return out

    @staticmethod
    def _irreducible(rng, p):
        # monic of degree 1 to 3: irreducible when degree 1 or without a
        # root in GF(p)
        while True:
            g = [rng.randrange(p) for _ in range(rng.choice([1, 1, 2, 3]))] + [1]
            if len(g) == 2 or all(sum(c * r ** i for i, c in enumerate(g)) % p
                                  for r in range(p)):
                return g

    def _fields(self, rng, p, count):
        # F mod p = prod g_i^e_i over distinct irreducibles g_i, degree 2
        # to 100, with the radical prod g_i it must have
        while count:
            gs = []
            for _ in range(rng.choice([1, 1, 2, 3])):
                g = self._irreducible(rng, p)
                if g not in gs:
                    gs.append(g)
            es = [rng.choice(self._exponents(p)) for _ in gs]
            fbar, radical = [1], [1]
            for g, e in zip(gs, es):
                radical = self._mul(radical, g, p)
                for _ in range(e):
                    fbar = self._mul(fbar, g, p)
            if 2 <= len(fbar) - 1 <= 100:
                count -= 1
                yield gs, es, fbar, radical

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_unit_test_matches_euclid_against_f(self, p):
        from padiclat.fields import _element_residues, _scaled_norm_is_unit

        rng = random.Random(p)
        seen, cases = set(), Counter()
        for gs, es, fbar, radical in self._fields(rng, p, 60):
            ctx = make_context(p, 64, fbar)
            assert ctx._radical[0] == radical
            seen.update(es)
            n = ctx.n
            for i in range(16):
                xbar = [rng.randrange(p) for _ in range(n)]
                if i % 2:  # a multiple of one of F's factors
                    g = rng.choice(gs)
                    xbar = self._mul(g, xbar[:n - len(g) + 1], p)
                # a scale and a unit denominator leave the residues' factors
                x = ctx.element(xbar) * Fraction(1, rng.choice([1, p]) * (p + 1))
                if x.is_zero:
                    continue
                want = gf_coprime_reference(_element_residues(x, 1),
                                            ctx._modulus_residues(1) + [1], p)
                assert _scaled_norm_is_unit(x) == want
                cases[want] += 1
        # every multiplicity kind, a unit and a non-unit answer
        assert seen == set(self._exponents(p))
        assert cases[True] and cases[False]

    @pytest.mark.parametrize("p, n, m", [(3, 12, 6), (5, 14, 6)])
    def test_keygen_and_bench_fields_have_a_linear_radical(self, p, n, m, monkeypatch):
        # keygen's Eisenstein field has F = z^n mod p and its public field
        # F = (z - a)^n mod p; at p | n F' = 0 mod p, and the radical needs
        # the p-th root
        from padiclat import schemes

        built = []
        make = schemes.make_context

        def recorded(*args, **kwargs):
            built.append(make(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(schemes, "make_context", recorded)
        rng = random.Random(n)
        schemes.keygen(p, n, m, range(n), random_eisenstein(rng, p, n),
                       schemes.random_zeta(rng, p, n), rng=rng)
        assert len(built) == 2
        assert built[0]._radical[0] == [0, 1]
        instance = bench.make_instance(64, p, random.Random(p))
        for ctx in built + [instance]:
            assert len(ctx._radical[0]) == 2
            assert len(ctx._radical[1]) == 1 and len(ctx._radical[1][0]) == ctx.n - 1

    def test_unit_queries_rebuild_nothing(self, monkeypatch):
        # once a context is built, no one-digit threshold test and no hash
        # target reads F's residues or builds the radical again; each takes
        # one GF(p) gcd (the threshold tests on fields taken without their
        # own frames)
        from padiclat.fields import FieldContext, _element_residues
        from padiclat.schemes import hash_to_target, keygen, random_zeta

        rng = random.Random(23)
        kp = keygen(3, 12, 6, range(12), random_eisenstein(rng, 3, 12),
                    random_zeta(rng, 3, 12), rng=rng)
        queries = []
        for ctx in UNFRAMED_THRESHOLD_CTXS + [unframed(kp.public.ctx)]:
            p, n = ctx.p, ctx.n
            for _ in range(20):
                x = ctx.element([Fraction(rng.randrange(-2 * p, 2 * p), p ** rng.choice([0, 1]))
                                 for _ in range(n)])
                if not x.is_zero:
                    unit = gf_coprime_reference(_element_residues(x, 1),
                                                ctx._modulus_residues(1) + [1], p)
                    queries.append((x, -n * _element_scale(x), unit))
        targets = [hash_to_target(kp.public, bytes([i]), b"salt") for i in range(5)]

        def forbidden(*args):
            raise AssertionError("a unit query rebuilt F's residues or radical")

        gcds = []
        coprime = fields._gf_coprime

        def counted(*args):
            gcds.append(1)
            return coprime(*args)

        monkeypatch.setattr(FieldContext, "_modulus_residues", forbidden)
        monkeypatch.setattr(fields, "_radical_table", forbidden)
        monkeypatch.setattr(fields, "_gf_radical", forbidden)
        monkeypatch.setattr(fields, "_gf_coprime", counted)
        for x, bound, unit in queries:
            assert NormEngine(x.ctx).norm_exceeds(x, bound) == (not unit)
        assert len(gcds) == len(queries)
        assert [hash_to_target(kp.public, bytes([i]), b"salt")
                for i in range(5)] == targets
        assert len(gcds) > len(queries)


class TestBatchedNormQueries:
    """One ``norm_valuations`` batch must give what single queries on a
    fresh engine give: the same valuations, the same cache afterwards, and
    the same determinant matrices at the same digit levels (on the field
    taken without its own frame)."""

    @staticmethod
    def _batch(ctx, rng, count, kinds):
        # integral, deep (p^2 times integral: past two digits) and scale 1
        # or 2 elements, over denominators with a unit part, plus zeros and
        # repeats (the same object and an equal one built anew)
        p, n = ctx.p, ctx.n
        xs = []
        for i in range(count):
            kind = kinds[i % len(kinds)]
            x = ctx.element([rng.randrange(-2 * p, 2 * p) for _ in range(n)])
            if kind == "deep":
                x = x * p ** 2
            elif kind:
                x = x * Fraction(1, p ** kind * rng.choice([1, p + 1]))
            xs.append(x)
        xs += [ctx.zero(), xs[0] - xs[0], xs[1], ctx.element(xs[2].fracs), xs[0]]
        rng.shuffle(xs)
        return xs

    def _compare(self, ctx, xs, monkeypatch):
        ctx = unframed(ctx)
        log, stacks, escalated = [], [], []
        det = fields._det_valuation

        def recorded(stack, p, digits):
            stacks.append(len(stack))
            log.extend((digits, tuple(int(a) for a in np.ravel(m))) for m in stack)
            out = det(stack, p, digits)
            escalated.append(any(out[1]))
            return out

        monkeypatch.setattr(fields, "_det_valuation", recorded)
        batch = NormEngine(ctx)
        got = batch.norm_valuations(xs)
        batch_log, batch_stacks, batch_escalated = Counter(log), stacks[:], any(escalated)
        log.clear()
        single = NormEngine(ctx)
        want = [single.norm_valuation(x) for x in xs]
        assert got == want
        assert batch._states == single._states
        assert batch_log == Counter(log)
        return batch_stacks, batch_escalated

    def test_batch_matches_single_queries(self, monkeypatch):
        rng = random.Random(41)
        for ctx in THRESHOLD_CTXS:
            xs = self._batch(ctx, rng, 15, [0, "deep", 1, 2, 1])
            assert {_element_scale(x) for x in xs if not x.is_zero} == {0, 1, 2}
            _, escalated = self._compare(ctx, xs, monkeypatch)
            assert escalated  # a deep element's matrix vanishes at two digits

    def test_batch_past_one_stack(self, monkeypatch):
        # at n = 64 a stack holds 8 matrices
        ctx = make_context(5, 64, [5] + [0] * 63 + [1])
        xs = self._batch(ctx, random.Random(43), 12, [0])
        stacks, _ = self._compare(ctx, xs, monkeypatch)
        assert len(stacks) > 1
        assert max(stacks) == fields._STACK_ENTRIES // ctx.n ** 2

    def test_abs_values_match_abs_value(self):
        ctx = THRESHOLD_CTXS[2]
        xs = self._batch(ctx, random.Random(47), 8, [0, 1])
        assert NormEngine(ctx).abs_values(xs) == [NormEngine(ctx).abs_value(x) for x in xs]


class TestMonomialNorms:
    """A fresh engine reads the norm of a monomial c z^i off F's constant
    term F0, with no determinant; every answer must be the determinant's
    (``_norm_valuations`` on the same element)."""

    # v_p(F0) = 1 (Eisenstein), 0, 2, and a benchmark instance's modulus
    CTXS = [make_context(3, 64, random_eisenstein(random.Random(5), 3, 7)),
            make_context(5, 64, [2, 5, 0, 1, 1]),
            make_context(3, 64, [18, 3, 0, 6, 2, 1]),
            bench.make_instance(9, 2, random.Random(2), 64)]

    @staticmethod
    def _coefficients(p):
        # units, p in the numerator, p in the denominator (with and
        # without a unit part)
        u, w = p + 1, 2 * p + 1
        return [1, -u, p * u, -(p ** 3) * w, Fraction(u, p), Fraction(-w, p ** 2 * u),
                Fraction(p ** 2, w)]

    @staticmethod
    def _determinant(x):
        rows, den = fields._integer_rows([x])
        return fields._norm_valuations(x.ctx, np.array(rows, dtype=object), den, 2,
                                       PRECISION_CAP)[0]

    @staticmethod
    def _count_kernel(monkeypatch):
        calls = []
        det = fields._det_valuation

        def counted(stack, p, digits):
            calls.append(len(stack))
            return det(stack, p, digits)

        monkeypatch.setattr(fields, "_det_valuation", counted)
        return calls

    def test_fields_cover_three_constant_valuations(self):
        found = {int_valuation(ctx._int_modulus[0][0], ctx.p) for ctx in self.CTXS}
        assert found == {0, 1, 2}

    @pytest.mark.parametrize("which", range(len(CTXS)))
    def test_monomials_match_determinants(self, which, monkeypatch):
        ctx = self.CTXS[which]
        xs = [ctx.monomial(i, c) for i in range(ctx.n) for c in self._coefficients(ctx.p)]
        calls = self._count_kernel(monkeypatch)
        got = [NormEngine(ctx).norm_valuation(x) for x in xs]
        assert NormEngine(ctx).norm_valuations(xs) == got
        assert not calls
        assert got == [self._determinant(x) for x in xs]
        assert calls

    @pytest.mark.parametrize("p", [3, 5])
    def test_zero_constant_term_keeps_the_determinant(self, p, monkeypatch):
        # F = z(z - 1)(z - 2): z is a zero divisor, so N(c z^i) = 0 for
        # i > 0 and the escalation exhausts its digits, as it always has
        ctx = make_context(p, 64, [0, 2, -3, 1])
        calls = self._count_kernel(monkeypatch)
        for i in (1, 2):
            x = ctx.monomial(i, Fraction(p + 1, p))
            with pytest.raises(PrecisionExhausted) as engine_error:
                NormEngine(ctx).norm_valuation(x)
            assert calls
            with pytest.raises(PrecisionExhausted) as kernel_error:
                self._determinant(x)
            assert str(engine_error.value) == str(kernel_error.value)
            calls.clear()
        x = ctx.monomial(0, p)
        assert NormEngine(ctx).norm_valuation(x) == 3 == self._determinant(x)
        assert calls

    def test_recovery_first_exponents_run_no_determinant(self, monkeypatch):
        ctx = unframed(bench.make_instance(16, 5, random.Random(1)))
        calls = self._count_kernel(monkeypatch)
        batches = []
        batch = NormEngine.norm_valuations

        def recorded(engine, xs):
            xs, before = list(xs), len(calls)
            out = batch(engine, xs)
            batches.append(([x.identity for x in xs], len(calls) - before))
            return out

        monkeypatch.setattr(NormEngine, "norm_valuations", recorded)
        recover_uniformizer(ctx)
        first, kernel_calls = batches[0]
        assert first == [ctx.monomial(i).identity for i in range(ctx.n)]
        assert kernel_calls == 0
        assert calls  # the reduced vectors still take determinants


class TestUniformizerFrameRefusals:
    """An element that is not certified as a uniformizer leaves an engine
    without a frame on determinants, with the same kernel calls and answers
    as a fresh one.  z^3 - 3 is Eisenstein, so its field is taken without
    its own frame."""

    @pytest.mark.parametrize("p, f, roots, gamma", [
        (3, [-3, 0, 0, 1], [], [0, 0, 1]),  # z^2, v(N) = 2
        (3, [-3, 0, 0, 1], [], [1, 1]),  # 1 + z, a unit
        # (x - 3)(x - 1): v(N(z)) = 1, but z's characteristic polynomial is F
        (3, [3, -4, 1], [3, 1], [0, 1]),
        # x(x - 1)(x - 2): gamma = (5, 1, 1) on the roots has v(N) = 1, and
        # its powers are dependent mod 5
        (5, [0, 2, -3, 1], [0, 1, 2], [5, -6, 2]),
    ])
    def test_refused_frame_keeps_determinants(self, p, f, roots, gamma, monkeypatch):
        ctx = unframed(make_context(p, 64, f))
        rng = random.Random(f"{p}:{f}:{gamma}")
        xs = []
        while len(xs) < 12:
            coeffs = [rng.randrange(-9, 10) for _ in range(ctx.n)]
            # no zero divisor: its norm would never be certified
            if all(sum(c * r ** i for i, c in enumerate(coeffs)) for r in roots) and any(coeffs):
                xs.append(ctx.element(coeffs) * Fraction(1, p ** (len(xs) % 3)))
        log = []
        det = fields._det_valuation

        def recorded(stack, p, digits):
            log.append((len(stack), digits))
            return det(stack, p, digits)

        refused = NormEngine(ctx)
        assert not refused.adopt_uniformizer(ctx.element(gamma))
        monkeypatch.setattr(fields, "_det_valuation", recorded)
        got = refused.norm_valuations(xs) + [refused.norm_exceeds(x * p, 0) for x in xs]
        refused_log = log[:]
        log.clear()
        fresh = NormEngine(ctx)
        assert got == fresh.norm_valuations(xs) + [fresh.norm_exceeds(x * p, 0) for x in xs]
        assert refused_log == log and log


def _shifted(G, a):
    """F(z) = G(z - a), coefficients constant term first."""
    F = [0] * len(G)
    power = [1]  # (z - a)^i
    for g in G:
        F = [f + g * c for f, c in zip(F, power + [0] * (len(F) - len(power)))]
        power = [u - a * w for u, w in zip([0] + power, power + [0])]
    return F


class TestSelfFrame:
    """A context whose F is p-integral, with F mod p = (z - a)^n and
    F(z + a) Eisenstein, keeps the frame of gamma = z - a from the start:
    its exact valuations and its threshold answers must be the
    determinants' (``_norm_valuations``), and every other context keeps
    the determinants."""

    @staticmethod
    def _determinants(xs):
        rows, den = fields._integer_rows(xs)
        return fields._norm_valuations(xs[0].ctx, np.array(rows, dtype=object), den, 2,
                                       PRECISION_CAP)

    @staticmethod
    def _elements(ctx, rng, count):
        # integral, non-integral (scale 1 to 3, with a unit part in the
        # denominator), and p^k times integral past the first digit
        p, n = ctx.p, ctx.n
        xs = []
        while len(xs) < count:
            x = ctx.element([rng.randrange(-p ** 3, p ** 3) for _ in range(n)])
            if x.is_zero:
                continue
            kind = len(xs) % 3
            if kind == 1:
                x = x * Fraction(1, p ** rng.randrange(1, 4) * rng.choice([1, p + 1]))
            elif kind == 2:
                x = x * p ** rng.randrange(1, 3)
            xs.append(x)
        return xs

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_valuations_and_thresholds_match_determinants(self, p):
        rng = random.Random(f"self-frame:{p}")
        shifts, answers = set(), Counter()
        for trial in range(8):
            n = rng.randrange(2, 9)
            a = 0 if trial < 2 else rng.randrange(p)
            G = random_eisenstein(rng, p, n)
            ctx = make_context(p, 64, _shifted(G, a + p * rng.randrange(-2, 3)))
            frame = ctx._frame
            assert isinstance(frame, fields._SelfFrame) and frame.shift == a
            assert NormEngine(ctx)._frame is frame
            shifts.add(a > 0)
            xs = self._elements(ctx, rng, 12)
            want = self._determinants(xs)
            assert NormEngine(ctx).norm_valuations(xs) == want
            for x, v in zip(xs, want):
                assert frame.valuations([x]) == [v]
                for bound in (v - 1, v, v + 1):
                    # a fresh engine: the threshold test is x's first query,
                    # and caches the exact valuation unless the bound
                    # answers it alone
                    engine = NormEngine(ctx)
                    exceeds = engine.norm_exceeds(x, bound)
                    assert exceeds == (v > bound)
                    assert engine._states.get(x.identity, v) == v
                    answers[exceeds, x.identity in engine._states] += 1
        assert shifts == {False, True}
        assert answers[True, True] and answers[False, True]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_closed_form_matches_the_certified_frame(self, p):
        # H[j][k] = C(j, k) a^(j-k) is what the solve of the certificate
        # gives for gamma = z - a, at int32, int64 and Python-int levels
        rng = random.Random(f"closed-form:{p}")
        for n in (2, 5, 9):
            a = rng.randrange(1, p)
            ctx = make_context(p, 64, _shifted(random_eisenstein(rng, p, n), a))
            gamma = ctx.gen() - ctx.element([a])
            certified = fields._UniformizerFrame.certify(ctx, gamma)
            first = fields._int64_level(p, n)
            for digits in (1, 2, first, 2 * first):
                want = certified._matrix(digits)
                got = ctx._frame._matrix(digits)
                assert got.dtype == want.dtype
                assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("p, low", [
        (3, [-27, 0]),  # z^2 - 27: F(z) is not Eisenstein, v(F(0)) = 3
        (3, [-9, 0]),  # (z - 3)(z + 3): reducible
        (5, [0, 2, -3]),  # z(z - 1)(z - 2): reducible, radical not linear
        (3, [1, 0]),  # z^2 + 1: unramified, radical of degree 2
        (3, [2, 0, 0, 0]),  # z^4 + 2: radical (z - 1)(z + 1)(z^2 + 1)
        # (z - 1)^4 + 2(z - 1)^2 + 4: a = 1, but v(F(1)) = 2
        (2, _shifted([4, 0, 2, 0, 1], 1)[:-1]),
    ])
    def test_refused_fields_keep_determinants(self, p, low, monkeypatch):
        ctx = make_context(p, 64, low + [1])
        assert ctx._frame is None and NormEngine(ctx)._frame is None
        rng = random.Random(f"refused:{p}:{low}")
        roots = [r for r in range(-9, 10) if sum(c * r ** i for i, c in enumerate(low + [1])) == 0]
        xs = []
        while len(xs) < 9:
            x = ctx.element([rng.randrange(-9, 10) for _ in range(ctx.n)])
            # no zero divisor: its norm would never be certified
            if all(sum(c * r ** i for i, c in enumerate(x.ints)) for r in roots) and not x.is_zero:
                xs.append(x * Fraction(1, p ** (len(xs) % 3)))
        calls = []
        det = fields._det_valuation

        def recorded(stack, p, digits):
            calls.append(len(stack))
            return det(stack, p, digits)

        want = self._determinants(xs)
        monkeypatch.setattr(fields, "_det_valuation", recorded)
        assert NormEngine(ctx).norm_valuations(xs) == want
        assert calls

    def test_non_integral_field_gets_no_frame(self):
        # 3 (F - z^2) = 4 + 2z, which with a leading 1 reads z^2 + 2z + 4 =
        # (z - 2)^2 mod 3, and 12 at a = 2, not 0 mod 9: only the
        # integrality check refuses this F
        ctx = fields.FieldContext(3, 64, [Fraction(4, 3), Fraction(2, 3)])
        assert ctx._radical[0] == [1, 1]
        assert ctx._frame is None and NormEngine(ctx)._frame is None

    def test_keygen_and_bench_fields_are_self_framed(self, monkeypatch):
        from padiclat import schemes

        built = []
        make = schemes.make_context

        def recorded(*args, **kwargs):
            built.append(make(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(schemes, "make_context", recorded)
        for p, n, m in [(3, 12, 6), (2, 14, 4)]:
            kp = random_signature_key(random.Random(n), p, n, m)
            assert isinstance(kp.public.ctx._frame, fields._SelfFrame)
            # the hidden field's F is Eisenstein itself: a = 0
            assert built[-2]._frame.shift == 0
        for p, seed in [(5, 1), (7, 2), (2, 3)]:
            assert isinstance(bench.make_instance(16, p, random.Random(seed))._frame,
                              fields._SelfFrame)

    def test_adoption_keeps_the_own_frame(self, monkeypatch):
        # a uniformizer keeps the engine on its own frame, with no solve, and
        # the completion's powers come from _powers; a non-uniformizer is
        # refused
        ctx = bench.make_instance(16, 5, random.Random(4))
        gamma = recover_uniformizer(ctx).gamma

        def refuse(*args):
            raise AssertionError("a frame was certified")

        monkeypatch.setattr(fields._UniformizerFrame, "certify", refuse)
        engine = NormEngine(ctx)
        assert not engine.adopt_uniformizer(gamma * gamma)
        assert engine.adopt_uniformizer(gamma)
        assert engine._frame is ctx._frame and ctx._frame.powers is None
        assert [g.identity for g in engine.powers(gamma)] == [
            g.identity for g in fields._powers(gamma, ctx.n)]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_framed_read_is_one_product(self, p, monkeypatch):
        # on a context's own frame and on an adopted one, a threshold test
        # that the bound alone answers makes no product and caches nothing;
        # any other makes one product per level and caches the exact
        # valuation; an exact batch is one product; frame_coordinates is
        # one product at one digit; no determinant and no gcd runs
        rng = random.Random(f"framed-read:{p}")
        n, a = rng.randrange(3, 9), rng.randrange(1, p) if p > 2 else 1
        ctx = make_context(p, 64, _shifted(random_eisenstein(rng, p, n), a))
        twin = unframed(ctx)
        adopted = NormEngine(twin)
        assert adopted.adopt_uniformizer(twin.gen() - twin.element([a]))
        assert type(adopted._frame) is fields._UniformizerFrame
        xs = [x for x in self._elements(ctx, rng, 12) if fields._monomial_valuation(x) is None]
        want = self._determinants(xs)
        basis = [ctx.monomial(k) + ctx.monomial(k + 1) * rng.randrange(p) for k in range(n - 1)]

        calls = []
        coordinates = fields._UniformizerFrame.coordinates

        def spy(frame, rows, digits):
            calls.append((digits, len(rows)))
            return coordinates(frame, rows, digits)

        def forbidden(*args):
            raise AssertionError("a determinant or GF(p) gcd on a framed engine")

        monkeypatch.setattr(fields._UniformizerFrame, "coordinates", spy)
        monkeypatch.setattr(fields, "_det_valuation", forbidden)
        monkeypatch.setattr(fields, "_gf_coprime", forbidden)
        for engine in (NormEngine(ctx), adopted):
            first = engine._frame._first
            for x, v in zip(xs, want):
                shift = n * _element_scale(x)
                for bound in (-shift - 1, v - 1, v, v + 1):
                    engine._states.pop(x.identity, None)
                    calls.clear()
                    assert engine.norm_exceeds(x, bound) == (v > bound)
                    if bound < -shift:
                        assert calls == [] and x.identity not in engine._states
                    else:
                        assert calls == [(first, 1)] and engine._states[x.identity] == v
            for x in xs:
                engine._states.pop(x.identity, None)
            calls.clear()
            assert engine.norm_valuations(xs) == want
            assert calls == [(first, len(xs))]
            calls.clear()
            assert engine.frame_coordinates(basis) is not None
            assert calls == [(1, len(basis))]


class TestAbsValueOrdering:
    def test_order_and_scale(self):
        a, b = AbsValue.of(1, 20), AbsValue.of(1, 10)
        assert b < a  # bigger exponent = smaller magnitude
        assert AbsValue.zero() < b
        assert a.scaled(1) == AbsValue.of(21, 20)
        assert max([b, a, AbsValue.zero()]) == a

    def test_mul(self):
        assert AbsValue.of(1, 4) * AbsValue.of(1, 4) == AbsValue.of(1, 2)
        assert (AbsValue.zero() * AbsValue.of(1, 2)).is_zero

    def test_repr_signs(self):
        # |x| = p^(-exponent): a size above 1 has a negative exponent
        assert repr(AbsValue.of(3, 2)) == "AbsValue(p^-3/2)"
        assert repr(AbsValue(Fraction(-2))) == "AbsValue(p^2)"
        assert repr(AbsValue.of(0)) == "AbsValue(p^0)"
        assert repr(AbsValue.zero()) == "AbsValue(0)"


class TestEisenstein:
    def test_x2_minus_2(self):
        assert is_eisenstein(2, [-2, 0, 1])

    def test_toy_modulus_is_not(self):
        assert not is_eisenstein(2, TOY_F)  # constant -167 is odd

    def test_constant_valuation_two(self):
        assert not is_eisenstein(2, [-4, 0, 1])

    def test_requires_monic(self):
        with pytest.raises(NotMonic):
            is_eisenstein(2, [-2, 0, 3])


class TestCoordinates:
    def test_identity_coordinates(self, toy_ctx):
        basis = [toy_ctx.monomial(i) for i in range(4)]
        coords = [toy_ctx.scalar(c) for c in coordinates_in(toy_ctx, basis[0], basis)]
        assert [c.to_fraction() for c in coords] == [1, 0, 0, 0]

    def test_affine_combination(self, toy_ctx):
        one = toy_ctx.one()
        z = toy_ctx.gen()
        coords = [toy_ctx.scalar(c) for c in coordinates_in(toy_ctx, z, [one, z - one])]
        assert [c.to_fraction() for c in coords] == [1, 1]

    def test_not_in_span(self, toy_ctx):
        with pytest.raises(NotInSpan):
            coordinates_in(toy_ctx, toy_ctx.monomial(5), [toy_ctx.one(), toy_ctx.gen()])

    def test_singular(self, toy_ctx):
        z = toy_ctx.gen()
        with pytest.raises(SingularSystem):
            coordinates_in(toy_ctx, z, [z, z * 2])

    def test_roundtrip_recombination(self, toy_ctx):
        rng = random.Random(5)
        vectors = [toy_ctx.element([rng.randrange(-9, 9) for _ in range(20)])
                   for _ in range(6)]
        target = toy_ctx.zero()
        weights = [Fraction(rng.randrange(-20, 20), rng.choice([1, 3, 5]))
                   for _ in range(6)]
        for w, v in zip(weights, vectors):
            target = target + v * w
        coords = coordinates_in(toy_ctx, target, vectors)
        assert coords == weights

    def test_elements_of_another_field_are_refused(self):
        # same degree and precision, another prime and modulus: element
        # arithmetic and combinations refuse the mix, and so do coordinates
        ctx3, ctx5 = make_context(3, 32, [3, 0, 1]), make_context(5, 32, [5, 0, 1])
        basis = [ctx3.one(), ctx3.gen()]
        for target, vectors in [(ctx5.gen(), basis), (ctx3.gen(), [ctx3.one(), ctx5.gen()]),
                                (ctx3.gen(), [ctx5.one(), ctx3.gen()])]:
            with pytest.raises(ValueError, match="elements from different contexts"):
                coordinates_in(ctx3, target, vectors)
        with pytest.raises(ValueError, match="elements from different contexts"):
            coordinates_in(ctx5, ctx3.gen(), basis)
        assert coordinates_in(ctx3, ctx3.gen(), basis) == [0, 1]

    def test_negative_valuation_coordinates(self, sqrt2_ctx):
        # target = (1/2) * sqrt2 has a coordinate outside Z_p
        z = sqrt2_ctx.gen()
        target = z * Fraction(1, 2)
        coords = coordinates_in(sqrt2_ctx, target, [z])
        assert coords == [Fraction(1, 2)]

    @staticmethod
    def _random_system(rng):
        """(ctx, columns, coordinate lists, phi) for a random system:
        n <= 12, 1 <= m <= n, entries whose denominators are and are not
        divisible by p, and coordinates outside Z_p.  When m < n every
        column lies in the hyperplane phi . v = 0 (phi[-1] = 1), so
        anything off it is outside their span; ``phi`` is None when m = n."""
        p = rng.choice([2, 3, 5])
        n = rng.randrange(2, 13)
        m = rng.randrange(1, n + 1)
        ctx = make_context(p, 32, random_eisenstein(rng, p, n))

        def entry(spread):
            den = p ** rng.randrange(3) * rng.choice([1, p + 1])
            return Fraction(rng.randrange(-spread, spread + 1), den)

        phi = None if m == n else [entry(5) for _ in range(n - 1)] + [Fraction(1)]
        cols = []
        for _ in range(m):
            v = [entry(9) for _ in range(n)]
            if phi is not None:
                v[-1] = -sum(a * b for a, b in zip(phi, v[:-1]))
            cols.append(v)
        coords = [[entry(20) for _ in range(m)] for _ in range(3)]
        return ctx, cols, coords, phi

    @staticmethod
    def _combine(ctx, cols, coeffs):
        return ctx.element([sum(c * v[i] for c, v in zip(coeffs, cols))
                            for i in range(ctx.n)])

    def test_random_systems_recombine_and_block_solve(self):
        rng = random.Random(2025)
        for _ in range(60):
            ctx, cols, coords, _ = self._random_system(rng)
            vectors = [ctx.element(v) for v in cols]
            targets = [self._combine(ctx, cols, c) for c in coords]
            one_by_one = [coordinates_in(ctx, t, vectors) for t in targets]
            # the vectors are independent (no SingularSystem), so the exact
            # recombination pins the unique answer
            for t, got in zip(targets, one_by_one):
                assert self._combine(ctx, cols, got) == t
            assert one_by_one == coords
            assert _solve_exact(vectors, targets) == one_by_one
            scalars = [ctx.scalar(c) for c in coordinates_in(ctx, targets[0], vectors)]
            assert [c.to_fraction() for c in scalars] == one_by_one[0]

    def test_random_dependent_vector_is_named(self):
        rng = random.Random(2026)
        for _ in range(40):
            ctx, cols, coords, _ = self._random_system(rng)
            k = rng.randrange(len(cols))
            # vector k becomes a combination of the earlier ones (zero for k = 0)
            weights = [Fraction(rng.randrange(-4, 5), ctx.p) for _ in range(k)]
            cols[k] = [sum((w * v[i] for w, v in zip(weights, cols)), Fraction(0))
                       for i in range(ctx.n)]
            vectors = [ctx.element(v) for v in cols]
            target = self._combine(ctx, cols, coords[0])
            with pytest.raises(SingularSystem, match=f"^vector {k} is dependent"):
                coordinates_in(ctx, target, vectors)

    def test_random_target_outside_span(self):
        rng = random.Random(2027)
        checked = 0
        while checked < 40:
            ctx, cols, coords, phi = self._random_system(rng)
            if phi is None:
                continue
            vectors = [ctx.element(v) for v in cols]
            inside = self._combine(ctx, cols, coords[0])
            # off the hyperplane: phi . e_last = 1
            outside = inside + ctx.monomial(ctx.n - 1, Fraction(rng.randrange(1, 9), ctx.p))
            with pytest.raises(NotInSpan):
                coordinates_in(ctx, outside, vectors)
            with pytest.raises(NotInSpan):
                _solve_exact(vectors, [inside, outside])
            checked += 1


class TestTallSolve:
    """``_solve_exact`` on tall systems (fewer vectors than the degree), and
    ``in_lattice`` through it, against a Fraction elimination over every
    row (``solve_exact_reference``)."""

    @staticmethod
    def _outcome(solve, columns, targets):
        try:
            return solve(columns, targets)
        except (SingularSystem, NotInSpan) as exc:
            return type(exc), str(exc)

    @staticmethod
    def _combine(cols, coeffs):
        return [sum(c * v[i] for c, v in zip(coeffs, cols)) for i in range(len(cols[0]))]

    def _check(self, ctx, cols, targets):
        """The two solvers agree on the block and on each target, and
        ``in_lattice`` answers as the reference's coordinates say; returns
        the reference's outcome per target."""
        vectors = [ctx.element(v) for v in cols]
        elems = [ctx.element(t) for t in targets]
        assert (self._outcome(_solve_exact, vectors, elems)
                == self._outcome(solve_exact_reference, cols, targets))
        pk = PublicKey(ctx, tuple(vectors))
        outcomes = []
        for t, x in zip(targets, elems):
            want = self._outcome(solve_exact_reference, cols, [t])
            assert self._outcome(_solve_exact, vectors, [x]) == want
            if want[0] is SingularSystem:
                with pytest.raises(SingularSystem):
                    in_lattice(pk, x)
            else:
                assert in_lattice(pk, x) == (
                    want[0] is not NotInSpan
                    and all(c.denominator % ctx.p for c in want[0]))
            outcomes.append(want)
        return outcomes

    def _cases(self, rng, ctx, cols):
        """Targets that are members, in the span with p in one coordinate's
        denominator, and outside the span (a random vector, as m < n)."""
        p, m = ctx.p, len(cols)

        def coords():
            return [Fraction(rng.randrange(-20, 21), rng.choice([1, p + 1])) for _ in range(m)]

        member = self._combine(cols, coords())
        off = coords()
        off[rng.randrange(m)] = Fraction(rng.randrange(1, p), p)
        outside = [Fraction(rng.randrange(-30, 31)) for _ in cols[0]]
        return [member, self._combine(cols, off), outside]

    def test_random_tall_systems(self):
        rng = random.Random(2028)
        seen = Counter()
        for _ in range(50):
            p = rng.choice([2, 3, 5])
            n = rng.randrange(3, 13)
            m = rng.randrange(1, n)
            ctx = make_context(p, 32, random_eisenstein(rng, p, n))
            cols = [[Fraction(rng.randrange(-9, 10), p ** rng.randrange(3) * rng.choice([1, p + 1]))
                     for _ in range(n)] for _ in range(m)]
            targets = self._cases(rng, ctx, cols)
            member, off, outside = self._check(ctx, cols, targets)
            assert member[0] is not NotInSpan and off[0] is not NotInSpan
            seen["outside" if outside[0] is NotInSpan else "inside"] += 1
            # vector k becomes a combination of the earlier ones (zero for k = 0)
            k = rng.randrange(m)
            weights = [Fraction(rng.randrange(-4, 5), p) for _ in range(k)]
            cols[k] = self._combine(cols[:k], weights) if k else [Fraction(0)] * n
            singular, = self._check(ctx, cols, targets[:1])
            assert singular == (SingularSystem, f"vector {k} is dependent on the earlier ones")
            seen["solved"] += 1
        assert seen["solved"] >= 45 and seen["outside"] >= 45

    def test_rows_dependent_mod_the_selection_prime_keep_every_row(self):
        # v_k = c_k v_0 + q w_k, q = 2^61 - 1: every row's column part is a
        # multiple of v_0's entry mod q, so no m rows are independent there,
        # while the columns are independent over Q; no modular selection of
        # rows stands between these and the exact answer
        q = 2 ** 61 - 1
        rng = random.Random(2029)
        seen = Counter()
        for _ in range(20):
            p = rng.choice([2, 3, 5])
            n = rng.randrange(3, 9)
            m = rng.randrange(2, n)
            ctx = make_context(p, 32, random_eisenstein(rng, p, n))
            v0 = [rng.randrange(-9, 10) for _ in range(n)]
            cols = [v0]
            for _ in range(m - 1):
                c = rng.randrange(-3, 4)
                cols.append([c * a + q * rng.randrange(-9, 10) for a in v0])
            cols = [[Fraction(a) for a in v] for v in cols]
            member, off, outside = self._check(ctx, cols, self._cases(rng, ctx, cols))
            seen.update(o[0] if isinstance(o, tuple) else "solved"
                        for o in (member, off, outside))
        assert seen["solved"] >= 20 and seen[NotInSpan] >= 10

    @staticmethod
    def _spy(monkeypatch):
        """Each later ``_gauss_jordan`` call, as (rows, m, the first column
        without a pivot)."""
        calls, run = [], fields._gauss_jordan

        def spy(rows, m):
            calls.append((len(rows), m, run(rows, m)))
            return calls[-1][2]

        monkeypatch.setattr(fields, "_gauss_jordan", spy)
        return calls

    def test_dependent_first_rows_eliminate_every_row(self, monkeypatch):
        # every vector has a zero z^0 coordinate, so the first m rows lack
        # a pivot while the vectors are independent: each solve eliminates
        # those m rows, then every row
        rng = random.Random(2030)
        calls = self._spy(monkeypatch)
        seen = Counter()
        for _ in range(20):
            p = rng.choice([2, 3, 5])
            n = rng.randrange(3, 10)
            m = rng.randrange(1, n)
            ctx = make_context(p, 32, random_eisenstein(rng, p, n))
            cols = [[Fraction(0)] + [Fraction(rng.randrange(-9, 10), rng.choice([1, p, p + 1]))
                                     for _ in range(n - 1)] for _ in range(m)]
            targets = self._cases(rng, ctx, cols)
            calls.clear()
            member, off, outside = self._check(ctx, cols, targets)
            assert [(rows, col is None) for rows, _, col in calls] == [(m, False), (n, True)] * 7
            assert member[0] is not NotInSpan and off[0] is not NotInSpan
            seen["outside" if outside[0] is NotInSpan else "inside"] += 1
            k = rng.randrange(m)
            cols[k] = self._combine(cols[:k], [Fraction(rng.randrange(-4, 5), p)
                                               for _ in range(k)]) if k else [Fraction(0)] * n
            singular, = self._check(ctx, cols, targets[:1])
            assert singular == (SingularSystem, f"vector {k} is dependent on the earlier ones")
        assert seen["outside"] >= 18

    @pytest.mark.parametrize("p, n, m", [(3, 14, 6), (2, 14, 4)])
    def test_scheme_membership_solves_eliminate_m_rows(self, monkeypatch, p, n, m):
        # at the benchmark's lifecycle shapes every membership solve of
        # sign and verify finds its pivots in the first m rows
        rng = random.Random(f"tall:{p}:{n}:{m}")
        keys = [random_signature_key(rng, p, n, m, delta=Fraction(1, 2)) for _ in range(3)]
        calls = self._spy(monkeypatch)
        for k, kp in enumerate(keys):
            for i in range(2):
                message = b"tall-%d-%d" % (k, i)
                assert verify(kp.public, message, sign(kp.private, kp.public, message, rng=rng))
        assert len(calls) >= 6 and set(calls) == {(m, m, None)}


class TestDeterminantEngine:
    """Differential checks of the modular determinant against exact
    integer determinants (the engine underpins every norm in the package)."""

    @staticmethod
    def _exact_det(rows):
        from fractions import Fraction

        n = len(rows)
        a = [[Fraction(x) for x in r] for r in rows]
        det = Fraction(1)
        for k in range(n):
            piv = next((i for i in range(k, n) if a[i][k]), None)
            if piv is None:
                return 0
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                det = -det
            det *= a[k][k]
            inv = 1 / a[k][k]
            for i in range(k + 1, n):
                f = a[i][k] * inv
                if f:
                    a[i] = [x - f * y for x, y in zip(a[i], a[k])]
        return int(det)

    def test_valuation_agrees_with_exact(self):
        from padiclat.fields import _det_valuation
        from padiclat.scalars import int_valuation

        rng = random.Random(123)
        checked = 0
        while checked < 300:
            p = rng.choice([2, 3, 5])
            n = rng.randrange(2, 6)
            rows = [[rng.randrange(-50, 50) for _ in range(n)] for _ in range(n)]
            det = self._exact_det(rows)
            if det == 0:
                continue
            v = int_valuation(det, p)
            digits = v + 3
            mod = p ** digits
            reduced = [[x % mod for x in r] for r in rows]
            (got_v,), (deeper,) = _det_valuation([reduced], p, digits)
            assert got_v == v and not deeper
            checked += 1

    def test_valuation_agrees_with_exact_beyond_int64(self):
        # digit counts past the int64 bound run the same elimination on
        # Python ints; every valuation must still match the exact value
        from padiclat.fields import _det_valuation, _kernel_dtype
        from padiclat.scalars import int_valuation

        rng = random.Random(321)
        checked = 0
        while checked < 100:
            p = rng.choice([2, 3, 5])
            n = rng.randrange(2, 6)
            rows = [[rng.randrange(-10 ** 6, 10 ** 6) for _ in range(n)]
                    for _ in range(n)]
            det = self._exact_det(rows)
            if det == 0:
                continue
            v = int_valuation(det, p)
            digits = v + 40
            assert _kernel_dtype(p, n, digits) is object
            mod = p ** digits
            (got_v,), (deeper,) = _det_valuation(
                [[[x % mod for x in r] for r in rows]], p, digits)
            assert got_v == v and not deeper
            checked += 1

    def test_vanishing_block_signals_deeper(self):
        from padiclat.fields import _det_valuation

        rows = [[4, 8], [12, 4]]  # det = -80, valuation 4 at p=2
        _, deeper = _det_valuation([[[x % 4 for x in r] for r in rows]], 2, 2)
        assert deeper == [True]

    def test_norm_matches_exact_determinant(self, sqrt2_ctx):
        # N(a + b*sqrt2) = a^2 - 2 b^2 exactly
        rng = random.Random(7)
        eng = NormEngine(sqrt2_ctx)
        for _ in range(50):
            a, b = rng.randrange(-99, 99), rng.randrange(-99, 99)
            if a == 0 and b == 0:
                continue
            x = sqrt2_ctx.element([a, b])
            assert eng.norm_valuation(x) == int_valuation(a * a - 2 * b * b, 2)


def _rank_mod(rows, p):
    """Rank mod p by a plain Gauss-Jordan on lists."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inv % p
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestIndependentMod:
    """``fields._independent_mod``, the rank test behind
    ``NormEngine.frame_coordinates``, against a plain elimination."""

    def test_random_rows_match_a_plain_rank(self):
        rng = random.Random("independent-mod")
        seen = Counter()
        for _ in range(400):
            p = rng.choice([2, 3, 5, 7, 2 ** 31 - 1])
            n = rng.randrange(1, 9)
            m = rng.randrange(1, n + 1)
            kind = rng.choice(["random", "dependent", "echelon"])
            A = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
            if kind == "dependent" and m > 1:
                # one row a combination of the others: a repeat, a zero row
                # or a random mix
                i = rng.randrange(m)
                c = [rng.randrange(p) for _ in range(m)]
                A[i] = [sum(c[r] * A[r][col] for r in range(m) if r != i) % p
                        for col in range(n)]
            elif kind == "echelon":
                # distinct first nonzero columns, in shuffled order
                for row, k in zip(A, rng.sample(range(n), m)):
                    row[:k + 1] = [0] * k + [rng.randrange(1, p)]
                rng.shuffle(A)
            got = fields._independent_mod([list(row) for row in A], p)
            assert got == (_rank_mod(A, p) == m), (p, A)
            seen[kind, got] += 1
        assert seen["dependent", False] > 50 and seen["random", True] > 50
        assert seen["echelon", True] > 50 and not seen["echelon", False]

    def test_frame_coordinates_refuse_dependent_rows(self, toy_ctx):
        # vectors that coincide mod p, and a vector below the basis's top
        # scale, leave Y short of full rank: no coordinates
        engine = NormEngine(toy_ctx)
        one, z, two = toy_ctx.one(), toy_ctx.gen(), toy_ctx.element([2])
        half = Fraction(1, 2)
        Y, shift = engine.frame_coordinates([one * half, z * half])
        assert Y.shape == (2, toy_ctx.n) and shift == toy_ctx.n
        assert engine.frame_coordinates([z, z + two]) is None
        assert engine.frame_coordinates([z * half, one]) is None
        assert NormEngine(unframed(toy_ctx)).frame_coordinates([one, z]) is None


class TestModularSolve:
    """The one modular Gauss-Jordan (``_solve_mod``) against exact integer
    determinants: a solution mod p^digits exactly when det A is a unit."""

    @staticmethod
    def _system(rng, p, n, k, digits):
        mod = p ** digits

        def entry():
            # nonunits are common, so the first nonzero entry of a column is
            # often no valid pivot
            x = rng.randrange(-mod, mod)
            return p * x if rng.random() < 0.25 else x

        A = [[entry() for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.2:
            # singular mod p: one row is a combination of the others plus p*noise
            i = rng.randrange(n)
            c = [rng.randrange(p) for _ in range(n)]
            A[i] = [sum(c[r] * A[r][col] for r in range(n) if r != i)
                    + p * rng.randrange(mod) for col in range(n)]
        B = [[rng.randrange(-mod, mod) for _ in range(k)] for _ in range(n)]
        return A, B

    def test_solution_and_singularity_match_exact_determinant(self):
        rng = random.Random(2024)
        seen = {True: 0, False: 0}
        for _ in range(400):
            p = rng.choice([2, 3, 5, 7])
            digits = rng.choice([1, 3, 40])
            n, k = rng.randrange(1, 9), rng.randrange(4)
            A, B = self._system(rng, p, n, k, digits)
            X = _solve_mod([a + b for a, b in zip(A, B)], p, digits)
            singular = TestDeterminantEngine._exact_det(A) % p == 0
            seen[singular] += 1
            assert (X is None) == singular
            if singular:
                continue
            assert len(X) == n and all(len(row) == k for row in X)
            mod = p ** digits
            for i in range(n):
                for col in range(k):
                    assert (sum(A[i][r] * X[r][col] for r in range(n))
                            - B[i][col]) % mod == 0
        assert min(seen.values()) >= 80

    def test_inverse_over_gf_p(self):
        rng = random.Random(77)
        inverted = 0
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7])
            n = rng.randrange(1, 9)
            A = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            X = _solve_mod([row + [int(i == j) for j in range(n)]
                            for i, row in enumerate(A)], p, 1)
            assert (X is None) == (TestDeterminantEngine._exact_det(A) % p == 0)
            if X is None:
                continue
            inverted += 1
            for i in range(n):
                for j in range(n):
                    assert sum(A[i][r] * X[r][j] for r in range(n)) % p == int(i == j)
        assert inverted >= 100

    def test_tall_system_returns_left_kernel(self):
        # [A | I] for a tall A: None exactly when A has rank below its
        # width mod p, else the rows past the width cut out its column span
        rng = random.Random(91)
        seen = {True: 0, False: 0}
        for _ in range(200):
            p = rng.choice([2, 3])
            n = rng.randrange(2, 6)
            w = rng.randrange(1, n)
            A = [[rng.randrange(p) for _ in range(w)] for _ in range(n)]
            if rng.random() < 0.3:
                # a repeated column: rank below the width
                col = rng.randrange(w)
                for row in A:
                    row[col] = row[col - 1]
            out = _solve_mod([row + [int(i == k) for k in range(n)]
                              for i, row in enumerate(A)], p, 1, width=w)
            full = any(TestDeterminantEngine._exact_det([A[i] for i in rows]) % p
                       for rows in itertools.combinations(range(n), w))
            seen[full] += 1
            assert (out is None) == (not full)
            if out is None:
                continue
            kernel = out[w:]
            assert len(kernel) == n - w
            for y in kernel:
                assert all(sum(a * row[c] for a, row in zip(y, A)) % p == 0
                           for c in range(w))
            passing = sum(all(sum(a * b for a, b in zip(y, x)) % p == 0 for y in kernel)
                          for x in itertools.product(range(p), repeat=n))
            assert passing == p ** w  # the kernel rows are independent
        assert min(seen.values()) >= 30

    def test_input_rows_untouched(self):
        rows = [[4, 3, 10], [2, 1, -7]]
        kept = [list(r) for r in rows]
        assert _solve_mod(rows, 3, 2) is not None
        assert rows == kept

    @pytest.mark.parametrize("p, digits", [(2, 30), (2, 31), (3, 19), (3, 20)])
    def test_int64_and_object_boundary(self, p, digits):
        # int64 up to p^(2 digits) = 2^60 and 3^38, object dtype from 2^62
        # and 3^40; residues next to the modulus give the largest products
        assert (fields._kernel_dtype(p, 1, digits) is np.int64) == (digits in (30, 19))
        rng = random.Random(f"boundary:{p}:{digits}")
        mod = p ** digits
        seen = {True: 0, False: 0}
        for _ in range(60):
            n, k = rng.randrange(1, 9), rng.randrange(4)
            A, B = self._system(rng, p, n, k, digits)
            if rng.random() < 0.5:
                A = [[mod - 1 - rng.randrange(p) if rng.random() < 0.7 else x for x in row]
                     for row in A]
                B = [[mod - 1 for _ in row] for row in B]
            rows = [a + b for a, b in zip(A, B)]
            got = _solve_mod(rows, p, digits)
            assert got == solve_mod_reference(rows, p, digits)
            seen[got is None] += 1
        assert min(seen.values()) >= 5

    def test_tall_form_matches_the_reference(self):
        # the left-kernel rows of [A | I] for a tall A, and the rows above
        # them, as the list-based elimination gives them
        rng = random.Random(92)
        seen = {True: 0, False: 0}
        for _ in range(150):
            p = rng.choice([2, 3, 5])
            digits = rng.choice([1, 2, 20])
            mod = p ** digits
            n = rng.randrange(2, 9)
            w = rng.randrange(1, n)
            A = [[p * rng.randrange(mod) if rng.random() < 0.3 else rng.randrange(mod)
                  for _ in range(w)] for _ in range(n)]
            rows = [row + [int(i == k) for k in range(n)] for i, row in enumerate(A)]
            got = _solve_mod(rows, p, digits, width=w)
            want = solve_mod_reference(rows, p, digits, width=w)
            assert got == want
            seen[got is None] += 1
            if got is not None:
                assert got[w:] == want[w:] and len(got[w:]) == n - w
        assert min(seen.values()) >= 20

    def test_entries_are_python_ints(self):
        # no numpy scalar may reach a Fraction, a hash or a pinned digest
        rng = random.Random(93)
        for p, digits, width in [(3, 1, None), (2, 30, None), (2, 31, None), (3, 1, 2),
                                 (5, 20, 3)]:
            mod = p ** digits
            while True:
                rows = [[rng.randrange(mod) for _ in range(9)] for _ in range(5)]
                out = _solve_mod(rows, p, digits, width=width)
                if out is not None:
                    break
            assert out and all(type(x) is int for row in out for x in row)


class TestStackedDeterminant:
    """One elimination over a stack of matrices against one call per
    matrix and against exact determinants."""

    @staticmethod
    def _matmul(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    def _scaled(self, rng, p, exps):
        # U diag(p^e) V with U, V unimodular mod p: valuation exactly sum(e)
        n = len(exps)
        u, w = random_unimodular(rng, p, n), random_unimodular(rng, p, n)
        d = [[p ** e if i == k else 0 for k in range(n)] for i, e in enumerate(exps)]
        return self._matmul(self._matmul(u, d), w)

    @pytest.mark.parametrize("p, digits, dtype", [
        (2, 4, np.int32),
        (3, 3, np.int32),
        (5, 3, np.int32),
        (2, 29, np.int64),
        (2, 40, object),
        (3, 30, object),
    ])
    def test_stack_matches_single_calls_and_exact(self, p, digits, dtype):
        from padiclat.fields import _det_valuation, _kernel_dtype
        from padiclat.scalars import int_valuation

        n = 4
        assert _kernel_dtype(p, n, digits) is dtype
        rng = random.Random(f"stack:{p}:{digits}")
        mod = p ** digits
        mats, exps = [], []
        for i in range(40):
            # an exponent of ``digits`` makes the block vanish: deeper
            e = [0 if i % 8 == 0 else rng.choice((0, 0, 1, rng.randrange(digits), digits))
                 for _ in range(n)]
            mats.append(self._scaled(rng, p, e))
            exps.append(e)
        reduced = [[[x % mod for x in r] for r in m] for m in mats]
        v, deeper = _det_valuation(np.array(reduced, dtype=object), p, digits)
        outcomes = set()
        for m, red, e, got, deep in zip(mats, reduced, exps, v, deeper):
            det = TestDeterminantEngine._exact_det(m)
            want = int_valuation(det, p)
            assert want == sum(e)
            (single,), (single_deep,) = _det_valuation([red], p, digits)
            if single_deep:
                assert deep and got == single <= want and want >= digits
            else:
                assert not deep and got == single == want
            outcomes.add((deep, max(e) > 0))
        # resolved and deeper matrices in one stack, with unit pivots and
        # with pivots of higher valuation among the resolved ones
        assert outcomes >= {(True, True), (False, True), (False, False)}

    @pytest.mark.parametrize("p, digits", [(3, 2), (5, 3), (2, 40)])
    def test_unit_diagonal_needs_no_search(self, p, digits, monkeypatch):
        from padiclat.fields import _det_valuation

        def forbidden(*args):
            raise AssertionError("unit-diagonal stack reached the pivot search")

        monkeypatch.setattr(fields, "_pivot_search", forbidden)
        rng = random.Random(f"unit-diagonal:{p}")
        n = 6
        mod = p ** digits
        mats = []
        for _ in range(10):
            # unit lower times unit upper triangular: every leading minor is
            # a unit, so every step's diagonal entry is one
            lower = [[rng.randrange(1, p) if i == k else rng.randrange(-50, 50) if k < i else 0
                      for k in range(n)] for i in range(n)]
            upper = [[rng.randrange(1, p) if i == k else rng.randrange(-50, 50) if k > i else 0
                      for k in range(n)] for i in range(n)]
            mats.append(self._matmul(lower, upper))
        reduced = [[[x % mod for x in r] for r in m] for m in mats]
        v, deeper = _det_valuation(np.array(reduced, dtype=object), p, digits)
        assert not any(deeper) and not any(v)
        for red in reduced:
            assert _det_valuation([red], p, digits) == ([0], [False])

    def test_reduced_array_is_eliminated_in_place(self):
        # a reduced stack in the kernel's dtype is consumed, not copied: the
        # caller's ``_mult_rows_mod`` stack must not be held twice
        from padiclat.fields import _det_valuation, _kernel_dtype

        p, digits, n = 3, 3, 4
        assert _kernel_dtype(p, n, digits) is np.int32
        rng = random.Random("in-place")
        mod = p ** digits
        mats = [self._scaled(rng, p, e) for e in ([1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 0, 0])]
        # a p-divisible top-left entry: the first step searches for a pivot
        mats[0][0] = [p * x for x in mats[0][0]]
        stack = np.array([[[x % mod for x in r] for r in m] for m in mats], dtype=np.int32)
        before = stack.copy()
        want = [int_valuation(TestDeterminantEngine._exact_det(m), p) for m in mats]
        assert _det_valuation(stack, p, digits) == (want, [False] * 3)
        assert not np.array_equal(stack, before)

    @pytest.mark.parametrize("p, digits, dtype", [
        (3, 3, np.int32),
        (5, 3, np.int32),
        (3, 18, np.int64),
        (2, 40, object),
        (3, 30, object),
    ])
    def test_stack_valuations_match_exact(self, p, digits, dtype, monkeypatch):
        # every matrix of a mixed stack returns its determinant's valuation
        # (a lower bound where deeper), whether and however it was swapped
        from padiclat.fields import _det_valuation, _kernel_dtype
        from padiclat.scalars import int_valuation

        n = 4
        assert _kernel_dtype(p, n, digits) is dtype
        paths = {}
        swap = fields._swap

        def spy(A, k, rows, cols):
            # True: one matrix at a time; False: one gather and scatter
            few = len(rows) + len(cols) <= fields._FEW_SWAPS
            for b, _ in rows + cols:
                paths.setdefault(b, set()).add(few)
            swap(A, k, rows, cols)

        monkeypatch.setattr(fields, "_swap", spy)
        rng = random.Random(f"stack-units:{p}:{digits}")
        mod = p ** digits
        seen = set()
        for size in (2, 7, 33):
            # every third matrix has unit pivots and p-divisible entries
            # off the diagonal, so it never swaps
            mats = [[[rng.randrange(1, p) + p * rng.randrange(9) if i == k
                      else p * rng.randrange(-9, 9) for k in range(n)] for i in range(n)]
                    if b % 3 == 0 else
                    self._scaled(rng, p, [rng.choice((0, 0, 1, rng.randrange(digits), digits))
                                          for _ in range(n)])
                    for b in range(size)]
            paths.clear()
            v, deeper = _det_valuation([[[x % mod for x in r] for r in m] for m in mats],
                                       p, digits)
            for b, m in enumerate(mats):
                want = int_valuation(TestDeterminantEngine._exact_det(m), p)
                assert v[b] <= want if deeper[b] else v[b] == want
                seen.update((deeper[b], few) for few in paths.get(b, {None}))
        # deeper matrices through both swap paths, and resolved ones through
        # the gather and scatter and without swaps (single-matrix stacks
        # take the one-by-one path on resolved matrices)
        assert {(True, True), (True, False), (False, False), (False, None)} <= seen


class TestInt32Boundary:
    """Every kernel on both sides of the int32 bound p^(2 digits) * n <
    2^30 (n = 1 for ``_solve_mod``, n = 4 elsewhere), against exact
    arithmetic; residues next to the modulus give the largest products."""

    @staticmethod
    def _near(rng, p, mod):
        # -1 - r and -p * r mod p^digits, or any residue
        r = rng.random()
        if r < 0.5:
            return mod - 1 - rng.randrange(p)
        return mod - p * rng.randrange(1, p + 1) if r < 0.8 else rng.randrange(mod)

    @pytest.mark.parametrize("p, digits", [(2, 14), (2, 15), (3, 9), (3, 10)])
    def test_solve_mod(self, p, digits):
        # int32 up to p^(2 digits) = 2^28 and 3^18, int64 from 2^30 and 3^20
        assert fields._kernel_dtype(p, 1, digits) is (np.int32 if digits in (14, 9)
                                                      else np.int64)
        rng = random.Random(f"int32-solve:{p}:{digits}")
        mod = p ** digits
        seen = {True: 0, False: 0}
        for _ in range(60):
            n, k = rng.randrange(1, 9), rng.randrange(4)
            A, B = TestModularSolve._system(rng, p, n, k, digits)
            if rng.random() < 0.5:
                A = [[self._near(rng, p, mod) for _ in row] for row in A]
                B = [[mod - 1 for _ in row] for row in B]
            rows = [a + b for a, b in zip(A, B)]
            got = _solve_mod(rows, p, digits)
            assert got == solve_mod_reference(rows, p, digits)
            seen[got is None] += 1
        assert min(seen.values()) >= 5

    # at n = 4: int32 up to p^(2 digits) = 2^26 and 3^16, int64 from 2^28
    # and 3^18
    SIDES = [(2, 13), (2, 14), (3, 8), (3, 9)]

    @staticmethod
    def _dtype(p, digits):
        return np.int32 if digits in (13, 8) else np.int64

    @pytest.mark.parametrize("p, digits", SIDES)
    def test_det_valuation(self, p, digits):
        n = 4
        assert fields._kernel_dtype(p, n, digits) is self._dtype(p, digits)
        rng = random.Random(f"int32-det:{p}:{digits}")
        mod = p ** digits
        mats = [[[self._near(rng, p, mod) for _ in range(n)] for _ in range(n)]
                for _ in range(80)]
        v, deeper = fields._det_valuation(mats, p, digits)
        seen = set()
        for m, got, deep in zip(mats, v, deeper):
            det = TestDeterminantEngine._exact_det(m)
            if deep:
                assert det == 0 or int_valuation(det, p) >= max(got, digits)
                continue
            want = int_valuation(det, p)
            assert got == want
            seen.add(want > 0)
        assert seen == {True, False}

    @pytest.mark.parametrize("p, digits", SIDES)
    def test_mult_rows(self, p, digits):
        n = 4
        rng = random.Random(f"int32-rows:{p}:{digits}")
        mod = p ** digits
        ctx = make_context(p, 64, [mod - 1 - rng.randrange(p) for _ in range(n)] + [1])
        fbar, _ = ctx._int_modulus
        xs = [[self._near(rng, p, mod) for _ in range(n)] for _ in range(20)]
        rows = fields._mult_rows_mod(ctx, xs, digits)
        assert rows.dtype == self._dtype(p, digits)
        z = [0, 1] + [0] * (n - 2)
        for x, got in zip(xs, rows.tolist()):
            want = [x]
            while len(want) < n:
                want.append([a % mod for a in fields._int_mul_mod(want[-1], z, fbar)])
            assert got == want

    @pytest.mark.parametrize("p, digits", SIDES)
    def test_frame_product(self, p, digits):
        # a frame whose first level is ``digits``: gamma = z (1 + a z + b z^2)
        # is a uniformizer of the Eisenstein F
        n = 4
        rng = random.Random(f"int32-frame:{p}:{digits}")
        mod = p ** digits
        ctx = make_context(p, 64, [mod - p] + [mod - p * rng.randrange(1, p * p)
                                               for _ in range(n - 1)] + [1])
        gamma = ctx.element([0, 1] + [mod - 1 - rng.randrange(p) for _ in range(n - 2)])
        assert fields._UniformizerFrame.certify(ctx, gamma) is not None
        powers = fields._powers(gamma, n + 1)
        solved = _solve_mod(fields._UniformizerFrame._system(powers, digits), p, digits)
        frame = fields._UniformizerFrame(ctx, powers[:n], digits, solved)
        assert frame._matrix(digits).dtype == self._dtype(p, digits)
        xs = [ctx.element([self._near(rng, p, mod) for _ in range(n)]) * p ** rng.choice((0, 0, 1))
              for _ in range(30)]
        rows, den = fields._integer_rows(xs)
        assert frame.valuations(xs) == fields._norm_valuations(
            ctx, np.array(rows, dtype=object), den, 2, PRECISION_CAP)
