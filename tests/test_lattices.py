import random
import tracemalloc
from fractions import Fraction

import pytest

from conftest import scheme_shaped_lattice
from oracle_reference import is_orthogonal_reference, lvp_oracle_reference
from padiclat import lattices
from padiclat.errors import (
    BudgetExceeded,
    ClassCollision,
    OracleInconclusive,
)
from padiclat.fields import AbsValue, FieldElement, NormEngine
from padiclat.lattices import (
    Lattice,
    complete_orthogonal,
    cvp_orthogonal,
    is_orthogonal,
    lvp_oracle,
    successive_maxima,
    zp_split,
)


class TestZpSplit:
    def test_integral_untouched(self):
        i, f = zp_split(Fraction(7, 3), 2)
        assert (i, f) == (Fraction(7, 3), 0)

    def test_half(self):
        i, f = zp_split(Fraction(1, 2), 2)
        assert f == Fraction(1, 2) and i == 0

    def test_mixed(self):
        # 5/6 = (1/2) * (5/3): tail is the 2-adic fractional digit
        i, f = zp_split(Fraction(5, 6), 2)
        assert i + f == Fraction(5, 6)
        assert f.denominator == 2 and i.denominator % 2 == 1

    def test_random_reassembly(self):
        rng = random.Random(0)
        for p in (2, 3, 5):
            for _ in range(200):
                x = Fraction(rng.randrange(-999, 999), rng.randrange(1, 999))
                i, f = zp_split(x, p)
                assert i + f == x
                assert i.denominator % p != 0
                if f:
                    assert f.denominator % p == 0 and 0 < f < 1


class TestIsOrthogonal:
    def test_single_vector(self, toy_ctx):
        assert is_orthogonal(toy_ctx, [toy_ctx.element([3, 1, 4])])

    def test_one_and_generator_fails(self, toy_ctx):
        # witnessed by |z - 1| < 1
        assert not is_orthogonal(toy_ctx, [toy_ctx.one(), toy_ctx.gen()],
                                 force_exhaustive=True)

    def test_gamma_powers_fast_path(self, toy_ctx):
        gamma = toy_ctx.gen() - toy_ctx.one()
        basis = [gamma ** i for i in range(20)]
        assert is_orthogonal(toy_ctx, basis)

    def test_budget_guard(self, toy_ctx):
        vecs = [toy_ctx.one(), toy_ctx.gen()]
        with pytest.raises(BudgetExceeded):
            is_orthogonal(toy_ctx, vecs, budget=1, force_exhaustive=True)

    def test_fast_path_implies_exhaustive(self):
        rng = random.Random(21)
        for _ in range(10):
            p = rng.choice([2, 3])
            ctx, basis, _ = scheme_shaped_lattice(rng, p, rng.randrange(2, 5), 2)
            eng = NormEngine(ctx)
            exps = [eng.abs_value(b).exponent for b in basis]
            classes = {e - (e.numerator // e.denominator) for e in exps}
            if len(classes) == len(basis):  # fast path would fire
                assert is_orthogonal(ctx, basis, force_exhaustive=True)


class TestOracle:
    def test_rank_one(self, toy_ctx):
        res = lvp_oracle(toy_ctx, Lattice(toy_ctx, [toy_ctx.one()]))
        assert res.lambda1 == AbsValue.of(0)
        assert res.lambda2 == AbsValue.of(1)
        assert res.witness == toy_ctx.element([2])

    def test_sqrt2_mixed_basis(self, sqrt2_ctx):
        one, z = sqrt2_ctx.one(), sqrt2_ctx.gen()
        res = lvp_oracle(sqrt2_ctx, Lattice(sqrt2_ctx, [one, one + z]))
        assert res.lambda1 == AbsValue.of(0)
        assert res.lambda2 == AbsValue.of(1, 2)

    def test_scaled_second_vector(self, sqrt2_ctx):
        # L(1, 2*sqrt2): lambda2 = |p*1| = 1/2 > |2 sqrt2| = 2^(-3/2)
        one, z = sqrt2_ctx.one(), sqrt2_ctx.gen()
        res = lvp_oracle(sqrt2_ctx, Lattice(sqrt2_ctx, [one, z * 2]))
        assert res.lambda2 == AbsValue.of(1)
        assert res.witness == sqrt2_ctx.element([2])

    def test_budget(self, toy_ctx):
        lat = Lattice(toy_ctx, [toy_ctx.monomial(i) for i in range(8)])
        with pytest.raises(BudgetExceeded):
            lvp_oracle(toy_ctx, lat, budget=100)

    def test_inconclusive_at_depth_zero(self, sqrt2_ctx):
        lat = Lattice(sqrt2_ctx, [sqrt2_ctx.one()])
        with pytest.raises(OracleInconclusive):
            lvp_oracle(sqrt2_ctx, lat, depth=0)


def _outputs(res):
    return (res.lambda1, res.lambda2, res.witness.fractions(), res.classes)


def _reference_outputs(ctx, basis, depth=2):
    lam1, lam2, witness, classes = lvp_oracle_reference(ctx, basis, depth)
    return (lam1, lam2, witness.fractions(), classes)


class TestOracleDifferential:
    """The chunked, batched enumeration against the per-sum loop it
    replaced (``oracle_reference``), on seeded cells."""

    @pytest.mark.parametrize("p, n, m, depth, scale", [
        (2, 3, 2, 2, 1),
        (3, 4, 2, 1, 1),
        (2, 4, 2, 3, 1),
        (5, 4, 2, 1, 1),
        (2, 4, 2, 2, Fraction(1, 4)),    # p-power denominators
        (3, 3, 2, 2, Fraction(5, 9)),
        (3, 4, 2, 2, Fraction(1, 7)),    # p-free denominators
        (5, 3, 1, 3, Fraction(2, 11)),
        (3, 4, 3, 2, 1),                 # 729 tuples: several chunks
        (2, 5, 3, 3, Fraction(3, 2)),    # 512 tuples, p-power denominators
    ])
    def test_matches_per_sum_loop(self, p, n, m, depth, scale):
        rng = random.Random(f"oracle-diff:{p}:{n}:{m}:{depth}")
        for _ in range(2):
            ctx, basis, _ = scheme_shaped_lattice(rng, p, n, m)
            # mixed denominators: only some vectors are rescaled
            basis = [b * scale if i % 2 == 0 else b for i, b in enumerate(basis)]
            got = lvp_oracle(ctx, Lattice(ctx, basis), depth)
            assert _outputs(got) == _reference_outputs(ctx, basis, depth)
            assert isinstance(got.witness, FieldElement)

    @pytest.mark.parametrize("p", [2, 3])
    def test_dependent_basis_skips_zero_sums(self, p):
        # b0 and -b0 cancel whenever their digits agree; b0 + b1 and -b1
        # likewise
        rng = random.Random(f"oracle-dependent:{p}")
        ctx, basis, _ = scheme_shaped_lattice(rng, p, 4, 2)
        b0, b1 = basis
        for dependent in ([b0, -b0, b1], [b0 + b1, -b1 * Fraction(1, p), b1]):
            got = lvp_oracle(ctx, Lattice(ctx, dependent))
            assert _outputs(got) == _reference_outputs(ctx, dependent)

    def test_chunk_boundaries_do_not_matter(self, monkeypatch):
        rng = random.Random("oracle-chunks")
        ctx, basis, _ = scheme_shaped_lattice(rng, 3, 4, 3)
        want = _outputs(lvp_oracle(ctx, Lattice(ctx, basis)))
        for chunk in (1, 7, 100):
            monkeypatch.setattr(lattices, "_CHUNK", chunk)
            assert _outputs(lvp_oracle(ctx, Lattice(ctx, basis))) == want

    def test_is_orthogonal_matches_per_sum_loop(self):
        rng = random.Random(41)
        seen = set()
        for _ in range(16):
            p = rng.choice([2, 3, 5])
            n = rng.randrange(2, 5)
            ctx, basis, _ = scheme_shaped_lattice(rng, p, n, rng.randrange(1, min(n, 3) + 1))
            scale = rng.choice([1, Fraction(1, p), Fraction(1, 7)])
            vectors = [basis[0] * scale] + basis[1:] + [ctx.monomial(0)]
            want = is_orthogonal_reference(ctx, vectors)
            assert is_orthogonal(ctx, vectors, force_exhaustive=True) == want
            seen.add(want)
        assert seen == {True, False}

    def test_memory_stays_bounded(self):
        # 5^6 = 15625 tuples at n = 6: their multiplication matrices alone
        # take 4.5 MB, the chunked enumeration never holds more than a chunk
        rng = random.Random("oracle-memory")
        ctx, basis, _ = scheme_shaped_lattice(rng, 5, 6, 3)
        lattice = Lattice(ctx, basis)
        lvp_oracle(ctx, lattice)
        tracemalloc.start()
        try:
            lvp_oracle(ctx, lattice)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_500_000


class TestSuccessiveMaxima:
    def test_rank_one(self, toy_ctx):
        assert successive_maxima(toy_ctx, Lattice(toy_ctx, [toy_ctx.one()])) == \
            [AbsValue.of(0)]

    def test_sqrt2_pair(self, sqrt2_ctx):
        lat = Lattice(sqrt2_ctx, [sqrt2_ctx.one(), sqrt2_ctx.one() + sqrt2_ctx.gen()])
        assert successive_maxima(sqrt2_ctx, lat) == [AbsValue.of(0), AbsValue.of(1, 2)]

    def test_toy_ring_of_integers(self, toy_ctx):
        lat = Lattice(toy_ctx, [toy_ctx.monomial(i) for i in range(20)])
        got = successive_maxima(toy_ctx, lat)
        assert got == [AbsValue.of(j, 20) for j in range(20)]

    def test_unimodular_invariance(self):
        rng = random.Random(31)
        from conftest import random_unimodular

        ctx, basis, _ = scheme_shaped_lattice(rng, 3, 5, 3)
        lat = Lattice(ctx, basis)
        ref = successive_maxima(ctx, lat)
        for _ in range(3):
            U = random_unimodular(rng, 3, 3)
            mixed = []
            for row in U:
                acc = ctx.zero()
                for a, b in zip(row, basis):
                    if a:
                        acc = acc + b * a
                mixed.append(acc)
            assert successive_maxima(ctx, Lattice(ctx, mixed)) == ref


class TestCompleteOrthogonal:
    def test_empty_partial(self, sqrt2_ctx):
        out = complete_orthogonal(sqrt2_ctx, [], sqrt2_ctx.gen())
        assert out == [sqrt2_ctx.one(), sqrt2_ctx.gen()]

    def test_collision(self, toy_ctx):
        gamma = toy_ctx.gen() - toy_ctx.one()
        with pytest.raises(ClassCollision):
            complete_orthogonal(toy_ctx, [toy_ctx.one(), toy_ctx.element([3])], gamma)

    def test_not_uniformizer(self, toy_ctx):
        with pytest.raises(ValueError):
            complete_orthogonal(toy_ctx, [], toy_ctx.one())

    def test_output_is_orthogonal_basis(self, toy_ctx):
        gamma = toy_ctx.gen() - toy_ctx.one()
        partial = [toy_ctx.one(), gamma * gamma]
        out = complete_orthogonal(toy_ctx, partial, gamma)
        assert len(out) == 20
        assert is_orthogonal(toy_ctx, out)  # fast path: distinct classes


class TestCvp:
    def test_target_in_lattice(self, sqrt2_ctx):
        one, z = sqrt2_ctx.one(), sqrt2_ctx.gen()
        t = one * 3 + z * 2
        res = cvp_orthogonal(sqrt2_ctx, [one, z], [], t)
        assert res.distance.is_zero
        assert res.vector == t

    def test_rank_one_projection(self, sqrt2_ctx):
        one, z = sqrt2_ctx.one(), sqrt2_ctx.gen()
        res = cvp_orthogonal(sqrt2_ctx, [one], [z], one + z)
        assert res.vector == one
        assert res.distance == AbsValue.of(1, 2)

    def test_idempotence(self, sqrt2_ctx):
        one, z = sqrt2_ctx.one(), sqrt2_ctx.gen()
        t = sqrt2_ctx.element([Fraction(7, 2), Fraction(5, 3)])
        res = cvp_orthogonal(sqrt2_ctx, [one, z], [], t)
        res2 = cvp_orthogonal(sqrt2_ctx, [one, z], [], t - res.vector)
        assert res2.distance == res.distance
        assert all(c.is_zero for c in res2.lattice_coords)

    def test_optimality_random(self):
        rng = random.Random(77)
        from padiclat.reduction import orthogonalize

        for _ in range(8):
            p = rng.choice([2, 3])
            ctx, basis, _ = scheme_shaped_lattice(rng, p, 4, 2)
            ortho = orthogonalize(ctx, basis).basis
            gamma = ctx.gen()
            full = complete_orthogonal(ctx, ortho, gamma)
            eng = NormEngine(ctx)
            t = ctx.element([Fraction(rng.randrange(-50, 50), rng.choice([1, 1, p]))
                             for _ in range(4)])
            res = cvp_orthogonal(ctx, ortho, full[2:], t, engine=eng)
            dist = res.distance
            # no digit combination up to depth 2 beats the reported distance
            for a in range(p * p):
                for b in range(p * p):
                    w = basis[0] * a + basis[1] * b
                    diff = t - w
                    if diff.is_zero:
                        assert dist.is_zero
                    else:
                        assert not eng.abs_value(diff) < dist


class TestToyCompletion:
    def test_orthogonalized_public_basis_completes_with_sixteen_powers(self):
        from padiclat.fixtures import toy_public_key
        from padiclat.reduction import orthogonalize

        pk = toy_public_key()
        eng = NormEngine(pk.ctx)
        ortho = orthogonalize(pk.ctx, pk.basis, engine=eng)
        gamma = pk.ctx.gen() - pk.ctx.one()
        full = complete_orthogonal(pk.ctx, ortho.basis, gamma, engine=eng)
        assert len(full) == 20
        powers = {(gamma ** j).key() for j in range(20)}
        appended = full[4:]
        assert len(appended) == 16
        assert all(v.key() in powers for v in appended)
