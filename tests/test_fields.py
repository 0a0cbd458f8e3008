import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TOY_F, random_eisenstein, random_unimodular, scheme_shaped_lattice
from padiclat import bench, fields
from padiclat.errors import (
    NotInSpan,
    NotIntegral,
    NotMonic,
    SingularSystem,
)
from padiclat.fields import (
    AbsValue,
    NormEngine,
    _solve_exact,
    abs_value,
    coordinates_in,
    field_norm,
    is_eisenstein,
    make_context,
)
from padiclat.lattices import Lattice, lvp_oracle
from padiclat.scalars import PadicScalar


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
                    assert (x * scalar).fractions() == want["x*s"]
                    assert (scalar * x).fractions() == want["x*s"]
                for op, z in got.items():
                    assert z.fractions() == want[op], op
                    ref = ctx.element(want[op])
                    assert z == ref and z.key() == ref.key()
                    assert all(c.p == p and c.precision == ctx.precision
                               and c.unit == r.unit for c, r in zip(z.coeffs, ref.coeffs))
                checked += 1
        assert checked == 320

    def test_mixed_primes_and_contexts_raise(self):
        ctx3 = make_context(3, 32, [3, 0, 1])
        ctx5 = make_context(5, 32, [5, 0, 1])
        x = ctx3.element([1, Fraction(1, 3)])
        y = ctx5.element([1, 1])
        for op in (lambda: x * PadicScalar.from_fraction(Fraction(2), p=5, precision=32),
                   lambda: x * y, lambda: x + y, lambda: x - y,
                   lambda: x * ctx3.element([PadicScalar.from_fraction(Fraction(1), p=5), 0])):
            with pytest.raises(ValueError):
                op()

    def test_other_precision_keeps_the_smaller(self):
        # the product carries the smaller precision of its operands
        ctx = make_context(3, 32, [3, 0, 1])
        x = ctx.element([1, Fraction(1, 3)])
        z = x * PadicScalar.from_fraction(Fraction(2), p=3, precision=8)
        assert z.fractions() == [2, Fraction(2, 3)]
        assert [c.precision for c in z.coeffs] == [8, 8]

    def test_mixed_precision_elements_keep_the_smallest(self):
        # one coefficient at 8 digits sets the precision of every result
        # coefficient; the rationals stay exact
        ctx = make_context(3, 32, [3, 0, 1])
        a, b = [1, Fraction(1, 3)], [Fraction(2, 5), 7]
        x = ctx.element(a)
        y = ctx.element([b[0], PadicScalar.from_fraction(Fraction(b[1]), p=3, precision=8)])
        modulus = [c.to_fraction() for c in ctx.modulus]
        for z, want in ((x + y, [u + v for u, v in zip(a, b)]),
                        (y - x, [v - u for u, v in zip(a, b)]),
                        (x * y, _schoolbook_mul(a, b, modulus))):
            assert z.fractions() == want
            assert [c.precision for c in z.coeffs] == [8, 8]
        assert [c.precision for c in (x * x).coeffs] == [32, 32]


class TestNormAndAbs:
    def test_norm_of_one(self, toy_ctx):
        n = field_norm(toy_ctx, toy_ctx.one())
        assert n == PadicScalar.from_rational(1, 1, p=2, precision=128)

    def test_norm_of_sqrt2(self, sqrt2_ctx):
        n = field_norm(sqrt2_ctx, sqrt2_ctx.gen())
        assert n == PadicScalar.from_rational(-2, 1, p=2, precision=64)
        assert n.valuation == 1

    def test_toy_generator_minus_one(self, toy_ctx):
        gamma = toy_ctx.gen() - toy_ctx.one()
        assert field_norm(toy_ctx, gamma).valuation == 1
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

    def test_norm_unit_multiplicative_window(self, sqrt2_ctx):
        x = sqrt2_ctx.element([3, 1])
        y = sqrt2_ctx.element([1, 2])
        lhs = field_norm(sqrt2_ctx, x * y)
        rhs = field_norm(sqrt2_ctx, x) * field_norm(sqrt2_ctx, y)
        assert lhs == rhs


# Eisenstein fields of degree <= 4, the first is Q_2[z]/(z^3 - 2); then
# moduli whose reduction mod p is not z^n, so the one-digit threshold test
# (a GF(p) gcd) meets nontrivial common factors: a benchmark public
# polynomial, F = (z + 2)^4 mod 5; z^4 + 2, which is (z - 1)(z + 1)(z^2 + 1)
# mod 3; and an Eisenstein modulus with p | n, where F' = 0 mod p
THRESHOLD_CTXS = [make_context(2, 64, [-2, 0, 0, 1]),
                  make_context(3, 64, [3, 0, 1]),
                  make_context(5, 64, [10, 5, 0, 5, 1]),
                  bench.make_instance(4, 5, random.Random(0), 64),
                  make_context(3, 64, [2, 0, 0, 0, 1]),
                  make_context(2, 64, [2, 2, 0, 0, 1])]


class TestThresholdQueries:
    """Threshold tests must agree with exact sizes, also for elements
    outside the ring of integers (negative norm valuation)."""

    @given(st.sampled_from(range(len(THRESHOLD_CTXS))),
           st.lists(st.tuples(st.integers(-30, 30), st.integers(0, 2)),
                    min_size=4, max_size=4),
           st.integers(-4, 4))
    @settings(max_examples=300, deadline=None)
    @example(0, [(1, 1), (0, 0), (0, 0), (0, 0)], 0)  # x = 1/2, v(N(x)) = -3
    def test_abs_less_than_agrees_with_abs_value(self, which, coeffs, offset):
        # coefficients a / p^k, so k > 0 makes the element non-integral;
        # the bound sits offset/(2n) away from |x|, fresh engines each time
        ctx = THRESHOLD_CTXS[which]
        x = ctx.element([Fraction(a, ctx.p ** k) for a, k in coeffs[:ctx.n]])
        if x.is_zero:
            return
        v = NormEngine(ctx).norm_valuation(x)
        bound = AbsValue(Fraction(2 * v + offset, 2 * ctx.n))
        exact = NormEngine(ctx).abs_value(x)
        assert NormEngine(ctx).abs_less_than(x, bound) == (exact < bound)

    def test_one_digit_attempt_matches_determinant(self):
        # the GF(p) gcd must leave the state a one-digit determinant implies
        from padiclat.fields import _Deeper, _det_valuation, _mult_rows_mod

        rng = random.Random(17)
        outcomes = set()
        for ctx in THRESHOLD_CTXS:
            p, n = ctx.p, ctx.n
            for _ in range(150):
                k = rng.choice([0, 0, 1])  # k > 0: non-integral element
                x = ctx.element([Fraction(rng.randrange(-2 * p, 2 * p), p ** k)
                                 for _ in range(n)])
                if x.is_zero:
                    continue
                eng = NormEngine(ctx)
                st = eng._state(x)
                resolved = eng._attempt(x, st, 1 - n * st.s)
                want_exact, want_lower = None, -n * st.s
                try:
                    v, _, _ = _det_valuation(_mult_rows_mod(ctx, x, 1, st.s), p, 1)
                    want_exact = v - n * st.s
                except _Deeper as d:
                    want_lower = d.bound - n * st.s
                assert (st.exact, st.lower) == (want_exact, want_lower)
                assert resolved == (want_exact is not None)
                outcomes.add((resolved, st.s > 0))
        assert len(outcomes) == 4  # units and non-units, both kinds of x

    def test_exact_queries_never_use_the_gcd(self, monkeypatch):
        # the determinant referees the gcd, so no exact valuation (and no
        # oracle answer) may be computed by it
        rng = random.Random(5)
        ctx, basis, _ = scheme_shaped_lattice(rng, 3, 4, 2)
        x = basis[0] + basis[1]

        def answers():
            oracle = lvp_oracle(ctx, Lattice(ctx, basis))
            return (NormEngine(ctx).abs_value(x),
                    NormEngine(ctx).resolve_min_valuation(basis),
                    field_norm(ctx, x),
                    (oracle.lambda1, oracle.lambda2, oracle.witness, oracle.classes))

        want = answers()

        def forbidden(*args):
            raise AssertionError("exact query reached the GF(p) gcd")

        monkeypatch.setattr(fields, "_gf_coprime", forbidden)
        with pytest.raises(AssertionError):
            NormEngine(ctx).norm_exceeds(ctx.one(), 0)  # the patch is live
        assert answers() == want


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
        coords = coordinates_in(toy_ctx, basis[0], basis)
        assert [c.to_fraction() for c in coords] == [1, 0, 0, 0]

    def test_affine_combination(self, toy_ctx):
        one = toy_ctx.one()
        z = toy_ctx.gen()
        coords = coordinates_in(toy_ctx, z, [one, z - one])
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
        coords = coordinates_in(toy_ctx, target, vectors, as_fractions=True)
        assert coords == weights

    def test_negative_valuation_coordinates(self, sqrt2_ctx):
        # target = (1/2) * sqrt2 has a coordinate outside Z_p
        z = sqrt2_ctx.gen()
        target = z * Fraction(1, 2)
        coords = coordinates_in(sqrt2_ctx, target, [z], as_fractions=True)
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
            one_by_one = [coordinates_in(ctx, t, vectors, as_fractions=True)
                          for t in targets]
            # the vectors are independent (no SingularSystem), so the exact
            # recombination pins the unique answer
            for t, got in zip(targets, one_by_one):
                assert self._combine(ctx, cols, got) == t
            assert one_by_one == coords
            assert _solve_exact(cols, [t.fractions() for t in targets]) == one_by_one
            scalars = coordinates_in(ctx, targets[0], vectors)
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
                _solve_exact(cols, [inside.fractions(), outside.fractions()])
            checked += 1


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
            got_v, got_u, uprec = _det_valuation(reduced, p, digits)
            assert got_v == v
            unit = det // p ** v
            assert got_u % p ** uprec == unit % p ** uprec
            checked += 1

    def test_valuation_agrees_with_exact_beyond_int64(self):
        # digit counts past the int64 bound run the same elimination on
        # Python ints; every unit digit must still match the exact value
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
            got_v, got_u, uprec = _det_valuation(
                [[x % mod for x in r] for r in rows], p, digits)
            assert (got_v, uprec) == (v, 40)
            assert got_u == det // p ** v % p ** 40
            checked += 1

    def test_vanishing_block_signals_deeper(self):
        from padiclat.fields import _Deeper, _det_valuation

        rows = [[4, 8], [12, 4]]  # det = -80, valuation 4 at p=2
        with pytest.raises(_Deeper):
            _det_valuation([[x % 4 for x in r] for r in rows], 2, 2)

    def test_norm_matches_exact_determinant(self, sqrt2_ctx):
        # N(a + b*sqrt2) = a^2 - 2 b^2 exactly
        rng = random.Random(7)
        for _ in range(50):
            a, b = rng.randrange(-99, 99), rng.randrange(-99, 99)
            if a == 0 and b == 0:
                continue
            x = sqrt2_ctx.element([a, b])
            got = field_norm(sqrt2_ctx, x)
            want = PadicScalar.from_rational(a * a - 2 * b * b, 1, p=2, precision=64)
            assert got == want


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
        (2, 4, np.int64),
        (3, 3, np.int64),
        (5, 3, np.int64),
        (2, 40, object),
        (3, 30, object),
    ])
    def test_stack_matches_single_calls_and_exact(self, p, digits, dtype):
        from padiclat.fields import _Deeper, _det_valuation, _kernel_dtype
        from padiclat.scalars import int_valuation

        n = 4
        assert _kernel_dtype(p, n, digits) is dtype
        rng = random.Random(f"stack:{p}:{digits}")
        mod = p ** digits
        mats, exps = [], []
        for i in range(40):
            # an exponent of ``digits`` makes the block vanish: _Deeper
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
            try:
                single, unit, uprec = _det_valuation(red, p, digits)
            except _Deeper as d:
                assert deep and got == d.bound <= want and want >= digits
            else:
                assert not deep and got == single == want
                assert unit == (det // p ** want % p ** uprec if uprec else 1)
            outcomes.add((deep, max(e) > 0))
        # resolved and _Deeper matrices in one stack, with unit pivots and
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
        for m, red in zip(mats, reduced):
            det = TestDeterminantEngine._exact_det(m)
            assert _det_valuation(red, p, digits) == (0, det % mod, digits)
