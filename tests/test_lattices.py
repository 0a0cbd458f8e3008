import random
import tracemalloc
from fractions import Fraction

import pytest

from conftest import scheme_shaped_lattice
from oracle_reference import is_orthogonal_reference, lvp_oracle_reference
from padiclat import fields, lattices
from padiclat.errors import (
    BudgetExceeded,
    ClassCollision,
    OracleInconclusive,
)
from padiclat.fields import AbsValue, FieldElement, NormEngine, make_context
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
    return (res.lambda1, res.lambda2, list(res.witness.fracs), res.classes)


def _reference_outputs(ctx, basis, depth=2):
    lam1, lam2, witness, classes = lvp_oracle_reference(ctx, basis, depth)
    return (lam1, lam2, list(witness.fracs), classes)


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
        (3, 4, 3, 2, 1),                 # 729 tuples and 3 unit tuples
        (2, 5, 3, 3, Fraction(3, 2)),    # 512 tuples, p-power denominators
        (2, 6, 5, 2, 1),                 # 1024 tuples: two chunks of <= 910
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

    @pytest.mark.parametrize("p, n, m", [(2, 4, 2), (3, 5, 3), (5, 3, 2)])
    def test_depth_zero_sees_only_p_multiples(self, p, n, m):
        # span 1: the zero tuple is the only digit tuple, so every class
        # comes from a vector p*b_i, read as n + v(N(b_i))
        rng = random.Random(f"oracle-depth0:{p}:{n}:{m}")
        ctx, basis, j = scheme_shaped_lattice(rng, p, n, m)
        hidden = [ctx.monomial(k) for k in j]
        got = lvp_oracle(ctx, Lattice(ctx, hidden), 0)
        assert _outputs(got) == _reference_outputs(ctx, hidden, 0)
        assert got.classes == tuple(AbsValue.of(n + k, n) for k in j)
        assert got.witness == hidden[1] * p
        scaled = [hidden[0] * Fraction(1, p)] + basis[1:]
        got = lvp_oracle(ctx, Lattice(ctx, scaled), 0)
        assert _outputs(got) == _reference_outputs(ctx, scaled, 0)

    @pytest.mark.parametrize("depth", [0, 2])
    def test_dependent_basis_p_multiples(self, depth):
        # p*(-p b) = -p^2 b: two unit tuples' classes differ by exactly 1,
        # and at depth 2 the sums p*b + (-p b) vanish among the digit tuples
        rng = random.Random(f"oracle-dependent-units:{depth}")
        ctx, basis, _ = scheme_shaped_lattice(rng, 3, 4, 2)
        b, c = basis
        dependent = [b, -b * 3, c]
        got = lvp_oracle(ctx, Lattice(ctx, dependent), depth)
        assert _outputs(got) == _reference_outputs(ctx, dependent, depth)

    def test_chunk_boundaries_do_not_matter(self, monkeypatch):
        # 729 digit tuples, then the 3 unit tuples (rows 729..731); at n = 4
        # a stack bound of 16 * c entries makes chunks of c tuples, and c =
        # 730 puts a boundary inside the unit tuples
        rng = random.Random("oracle-chunks")
        ctx, basis, _ = scheme_shaped_lattice(rng, 3, 4, 3)
        want = _outputs(lvp_oracle(ctx, Lattice(ctx, basis)))
        for chunk in (1, 7, 100, 730):
            monkeypatch.setattr(fields, "_STACK_ENTRIES", 16 * chunk)
            assert _outputs(lvp_oracle(ctx, Lattice(ctx, basis))) == want

    def test_one_stack_per_escalation_level(self, monkeypatch):
        # 3^6 digit tuples and 3 unit tuples at n = 6 fit one chunk of 910:
        # the oracle eliminates the 731 nonzero rows as one stack, then the
        # open ones once per deeper level
        rng = random.Random("oracle-det-calls")
        ctx, basis, _ = scheme_shaped_lattice(rng, 3, 6, 3)
        calls = []
        det = fields._det_valuation

        def recorded(stack, p, digits):
            calls.append((len(stack), digits))
            return det(stack, p, digits)

        monkeypatch.setattr(fields, "_det_valuation", recorded)
        lvp_oracle(ctx, Lattice(ctx, basis))
        assert calls == [(731, 2), (8, 4)]

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
        # (one elimination stack: 910 tuples)
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

    def test_zero_vector(self):
        ctx = make_context(3, 20, [3, 0, 0, 1])
        with pytest.raises(ValueError, match="zero vector"):
            complete_orthogonal(ctx, [ctx.zero()], ctx.gen())

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


def _count_exact_solves(monkeypatch):
    """A list that grows by one with each ``fields._solve_exact`` call."""
    calls = []
    solve = fields._solve_exact

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(fields, "_solve_exact", counted)
    return calls


def _exact_cvp(monkeypatch, *args):
    """cvp_orthogonal with every modular level skipped: the exact solve."""
    with monkeypatch.context() as mp:
        mp.setattr(lattices, "_coordinates_mod", lambda *_: None)
        return cvp_orthogonal(*args)


def _cvp_record(res):
    return (res.vector.identity, res.distance, [c.key() for c in res.lattice_coords])


class TestModularCvp:
    """CVP coordinates solved modulo p^N against the exact solve."""

    # from one digit, most first levels know too little and must double
    @pytest.mark.parametrize("start", [1, lattices._CVP_DIGITS])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_random_targets_match_the_exact_solve(self, p, start, monkeypatch):
        from padiclat.reduction import orthogonalize

        rng = random.Random(f"modular-cvp:{p}")
        monkeypatch.setattr(lattices, "_CVP_DIGITS", start)
        solves = _count_exact_solves(monkeypatch)
        for _ in range(4):
            n = rng.randrange(3, 9)
            m = rng.randrange(1, n)
            ctx, basis, _ = scheme_shaped_lattice(rng, p, n, m)
            ortho = orthogonalize(ctx, basis).basis
            completion = complete_orthogonal(ctx, ortho, ctx.gen())[m:]
            # integral targets, then p (and a unit) in the denominators
            for den in (1, p, 7 * p ** 3):
                t = ctx.element([Fraction(rng.randrange(-p ** 6, p ** 6), den)
                                 for _ in range(n)])
                before = len(solves)
                got = cvp_orthogonal(ctx, ortho, completion, t)
                assert len(solves) == before  # certified modulo p^N
                assert _cvp_record(got) == \
                    _cvp_record(_exact_cvp(monkeypatch, ctx, ortho, completion, t))

    def test_certificate_conditions(self):
        # two lattice coordinates (exponents 0 and 1/2), one completion
        # coordinate; ``known`` digits per coordinate, bound N - s = 4
        def certified(dist, known, completion_residue=1):
            res = lattices.CvpResult(None, dist, ())
            return lattices._certified(res, [Fraction(0), Fraction(1, 2)], known,
                                       [completion_residue], 4)

        assert certified(AbsValue.of(5, 2), [3, 2])
        assert not certified(AbsValue.zero(), [3, 2])  # a member, or unknown
        assert certified(AbsValue.of(-3, 2), [3, 0])
        assert not certified(AbsValue.of(-3, 2), [3, -1])  # a tail is unknown
        assert not certified(AbsValue.of(5, 2), [2, 2])  # ceil(5/2 - 0) digits kept
        assert certified(AbsValue.of(7, 2), [4, 3], completion_residue=0)
        # a coordinate that vanishes mod p^N may still reach p^-4
        assert not certified(AbsValue.of(4), [4, 4], completion_residue=0)

    def test_members_and_zero_take_the_exact_solve(self, monkeypatch):
        from padiclat.reduction import orthogonalize

        rng = random.Random("modular-cvp:members")
        ctx, basis, _ = scheme_shaped_lattice(rng, 3, 6, 3)
        ortho = orthogonalize(ctx, basis).basis
        completion = complete_orthogonal(ctx, ortho, ctx.gen())[3:]
        members = [ctx.zero(),
                   basis[0] * 5 - basis[2] * 4,
                   basis[0] * Fraction(2, 7) + basis[1] * 81]
        solves = _count_exact_solves(monkeypatch)
        for t in members:
            before = len(solves)
            got = cvp_orthogonal(ctx, ortho, completion, t)
            assert len(solves) == before + 1
            assert got.distance.is_zero and got.vector.identity == t.identity

    def test_a_zero_reading_jumps_to_the_last_level(self, monkeypatch):
        # a level that reads distance zero goes on at once to the last one:
        # a member reads zero there too and takes the exact solve, and a
        # target whose completion coordinate vanishes only mod p^8 (as
        # ciphertext noise scaled by p^8 does) is certified there
        from padiclat.reduction import orthogonalize

        rng = random.Random("modular-cvp:one-level")
        ctx, basis, _ = scheme_shaped_lattice(rng, 3, 8, 3)
        ortho = orthogonalize(ctx, basis).basis
        completion = complete_orthogonal(ctx, ortho, ctx.gen())[3:]
        levels = []
        coordinates = lattices._coordinates_mod

        def recorded(columns, target, digits):
            levels.append(digits)
            return coordinates(columns, target, digits)

        monkeypatch.setattr(lattices, "_coordinates_mod", recorded)
        solves = _count_exact_solves(monkeypatch)
        member = basis[0] * 5 - basis[1] * Fraction(4, 7) + basis[2] * 3 ** 9
        first, last = lattices._CVP_DIGITS, lattices._CVP_DIGITS_CAP
        for t, exact, want in ((member, 1, [first, last]),
                               (member + completion[0], 0, [first]),
                               (member + completion[0] * 3 ** 8, 0, [first, last]),
                               (member + completion[0] * 3 ** 40, 0, [first, last])):
            before = len(solves)
            levels.clear()
            got = cvp_orthogonal(ctx, ortho, completion, t)
            assert levels == want
            assert len(solves) == before + exact
            assert _cvp_record(got) == \
                _cvp_record(_exact_cvp(monkeypatch, ctx, ortho, completion, t))

    def test_basis_singular_mod_p_takes_the_exact_solve(self, monkeypatch):
        # x^2 - 8 at p = 2: 1 + z/2 (a unit) and z/2 (size 2^(-1/2)) are
        # orthogonal, but made primitive they are (2, 1) and (0, 1),
        # dependent mod 2
        ctx = make_context(2, 64, [-8, 0, 1])
        lattice, completion = ctx.element([1, Fraction(1, 2)]), ctx.element([0, Fraction(1, 2)])
        assert lattices._coordinates_mod([lattice, completion], ctx.one(), 8) is None
        eng = NormEngine(ctx)
        solves = _count_exact_solves(monkeypatch)
        for t in (ctx.element([Fraction(1, 3), 5]), ctx.element([Fraction(3, 4), 1]),
                  ctx.element([7, Fraction(1, 8)])):
            before = len(solves)
            got = cvp_orthogonal(ctx, [lattice], [completion], t, engine=eng)
            assert len(solves) == before + 1
            assert eng.abs_value(t - got.vector) == got.distance
            assert all(c.is_zero or c.valuation >= 0 for c in got.lattice_coords)


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
