import hashlib
import random
from fractions import Fraction

import pytest

from conftest import scheme_shaped_lattice, unframed
from padiclat import fields, reduction
from padiclat.errors import BudgetExceeded, ReductionFailed, SingularSystem
from padiclat.fields import (
    AbsValue,
    NormEngine,
    _linear_combination,
    coordinates_in,
    make_context,
)
from padiclat.lattices import Lattice, is_orthogonal, lvp_oracle
from padiclat.reduction import (
    find_second_longest,
    find_second_longest_general,
    orthogonalize,
)


def in_lattice(ctx, x, basis):
    coords = coordinates_in(ctx, x, basis)
    return all(c.denominator % ctx.p != 0 for c in coords)


def mixed_quartic():
    """The e = f = 2 quartic at p = 2 and the basis [1, w, sqrt2, w*sqrt2]."""
    # char poly of w + sqrt2 where w^2 + w + 1 = 0
    ctx = make_context(2, 64, [7, -2, -1, 2, 1],
                       ramification=2, residue_degree=2)
    xi = ctx.gen()
    # w = (xi^2 - 3) / (2 xi + 1)
    w_coords = coordinates_in(
        ctx, xi * xi - ctx.element([3]),
        [(xi * 2 + ctx.one()) * ctx.monomial(k) for k in range(4)])
    w = ctx.element(w_coords)
    assert (w * w + w + ctx.one()).is_zero
    sqrt2 = xi - w
    assert (sqrt2 * sqrt2) == ctx.element([2])
    return ctx, [ctx.one(), w, sqrt2, w * sqrt2]


class TestFindSecondLongest:
    def test_toy_ring_of_integers(self, toy_ctx):
        basis = [toy_ctx.monomial(i) for i in range(20)]
        res = find_second_longest(toy_ctx, basis)
        assert res.lambda2 == AbsValue.of(1, 20)
        assert res.witness == toy_ctx.gen() - toy_ctx.one()
        assert res.abs_count <= 20 + 2 * 19

    def test_sqrt2_pair(self, sqrt2_ctx):
        one, z = sqrt2_ctx.one(), sqrt2_ctx.gen()
        res = find_second_longest(sqrt2_ctx, [one, one + z])
        assert res.lambda2 == AbsValue.of(1, 2)
        assert res.witness == z
        assert list(res.reduced) == [one, z]

    def test_rank_one_degenerate(self, toy_ctx):
        res = find_second_longest(toy_ctx, [toy_ctx.one()])
        assert res.lambda2 == AbsValue.of(1)
        assert res.witness == toy_ctx.element([2])

    def test_rank_one_builds_no_digit_multiples(self, toy_ctx, monkeypatch):
        # a lone vector has nothing to reduce, so its p multiples (p may be
        # huge) are never formed
        def refuse(*args):
            raise AssertionError("digit multiples built for a rank-one basis")

        monkeypatch.setattr(reduction, "_multiples", refuse)
        res = find_second_longest(toy_ctx, [toy_ctx.one()])
        assert res.lambda2 == AbsValue.of(1) and res.abs_count == 1

    def test_unramified_fails(self, unram_ctx):
        with pytest.raises(ReductionFailed):
            find_second_longest(unram_ctx, [unram_ctx.one(), unram_ctx.gen()])

    def test_dependent_basis_detected(self, sqrt2_ctx):
        one = sqrt2_ctx.one()
        with pytest.raises(SingularSystem):
            find_second_longest(sqrt2_ctx, [one, one])

    def test_lattice_preserved(self):
        rng = random.Random(13)
        for _ in range(10):
            p = rng.choice([2, 3, 5])
            n = rng.randrange(2, 6)
            m = rng.randrange(1, min(4, n) + 1)
            ctx, basis, _ = scheme_shaped_lattice(rng, p, n, m)
            res = find_second_longest(ctx, basis)
            assert all(in_lattice(ctx, v, basis) for v in res.reduced)
            assert all(in_lattice(ctx, v, list(res.reduced)) for v in basis)
            assert in_lattice(ctx, res.witness, basis)

    def test_oracle_agreement_quick(self):
        rng = random.Random(14)
        for _ in range(15):
            p = rng.choice([2, 3])
            n = rng.randrange(2, 6)
            m = rng.randrange(1, min(3, n) + 1)
            ctx, basis, _ = scheme_shaped_lattice(rng, p, n, m)
            res = find_second_longest(ctx, basis)
            oracle = lvp_oracle(ctx, Lattice(ctx, basis))
            assert res.lambda2 == oracle.lambda2
            eng = NormEngine(ctx)
            assert eng.abs_value(res.witness) == res.lambda2


class TestOrthogonalize:
    def test_toy_powers(self, toy_ctx):
        basis = [toy_ctx.monomial(i) for i in range(20)]
        res = orthogonalize(toy_ctx, basis)
        assert [e.exponent for e in res.exponents] == \
            [Fraction(j, 20) for j in range(20)]
        assert res.abs_count <= 20 * 19 + 2 * 19 ** 2

    def test_already_orthogonal_fixed_point(self, toy_ctx):
        gamma = toy_ctx.gen() - toy_ctx.one()
        basis = [toy_ctx.one(), gamma, gamma * gamma]
        res = orthogonalize(toy_ctx, basis)
        eng = NormEngine(toy_ctx)
        assert [e for e in res.exponents] == [eng.abs_value(b) for b in basis]

    def test_strictly_decreasing_and_same_lattice(self):
        rng = random.Random(15)
        for _ in range(10):
            p = rng.choice([2, 3, 5])
            n = rng.randrange(2, 6)
            m = rng.randrange(2, min(4, n) + 1)
            ctx, basis, _ = scheme_shaped_lattice(rng, p, n, m)
            res = orthogonalize(ctx, basis)
            exps = [e.exponent for e in res.exponents]
            assert exps == sorted(exps) and len(set(exps)) == m
            assert all(in_lattice(ctx, v, basis) for v in res.basis)
            assert all(in_lattice(ctx, v, list(res.basis)) for v in basis)

    def test_transform_is_exact_on_the_oracle_cells(self):
        # ortho[k] = sum_j U[k][j] * basis[j] exactly, U an integer matrix
        # of determinant +-1, on one lattice per cell of the oracle battery
        rng = random.Random(19)
        cells = ([(2, n, m) for n in (2, 3, 4, 5, 6) for m in (1, 2, 3, 4) if m <= n]
                 + [(3, n, m) for n in (3, 4, 5, 6) for m in (1, 2, 3, 4) if m <= n]
                 + [(5, n, m) for n in (4, 5, 6) for m in (1, 2, 3)])
        moved = 0
        for p, n, m in cells:
            ctx, basis, _ = scheme_shaped_lattice(rng, p, n, m)
            res = orthogonalize(ctx, basis)
            U = res.transform
            assert all(type(u) is int for row in U for u in row)
            assert [_linear_combination(ctx, row, basis).identity for row in U] == \
                [v.identity for v in res.basis]
            assert abs(_det(U)) == 1
            moved += any(u not in (0, 1) for row in U for u in row)
        assert moved > len(cells) // 2  # most cells subtract digit multiples

    def test_cost_bound(self):
        rng = random.Random(16)
        for _ in range(10):
            p = rng.choice([2, 3, 5])
            n = rng.randrange(3, 7)
            m = rng.randrange(2, min(4, n) + 1)
            ctx, basis, _ = scheme_shaped_lattice(rng, p, n, m)
            res = orthogonalize(ctx, basis)
            assert res.abs_count <= m * (m - 1) + p * (m - 1) ** 2


class TestGeneralVariant:
    def test_unramified_quadratic(self, unram_ctx):
        one, w = unram_ctx.one(), unram_ctx.gen()
        res = find_second_longest_general(unram_ctx, [one, w], 2)
        assert res.lambda2 == AbsValue.of(1)
        assert res.witness == unram_ctx.element([2])

    def test_f1_matches_algorithm_one(self, toy_ctx):
        basis = [toy_ctx.one(), toy_ctx.gen()]
        general = find_second_longest_general(toy_ctx, basis, 1)
        plain = find_second_longest(toy_ctx, basis)
        assert general.lambda2 == plain.lambda2 == AbsValue.of(1, 20)

    def test_mixed_quartic(self):
        ctx, basis = mixed_quartic()
        res = find_second_longest_general(ctx, basis, 2)
        assert res.lambda2 == AbsValue.of(1, 2)
        oracle = lvp_oracle(ctx, Lattice(ctx, basis))
        assert oracle.lambda2 == res.lambda2

    def test_budget(self, unram_ctx):
        one, w = unram_ctx.one(), unram_ctx.gen()
        with pytest.raises(BudgetExceeded):
            find_second_longest_general(unram_ctx, [one, w], 2, budget=1)

    def test_extra_maximal_vector_fails_before_the_search_grows(self):
        # the second vector of the quartic basis stays at the maximal norm;
        # at residue degree 1 that is already a failure, so the p^2 search
        # over two maximal vectors that the budget forbids never starts
        ctx, basis = mixed_quartic()
        with pytest.raises(ReductionFailed):
            find_second_longest_general(ctx, basis, 1, budget=2)

    def test_negative_budget_is_an_input_error(self, toy_ctx, unram_ctx):
        one, w = unram_ctx.one(), unram_ctx.gen()
        with pytest.raises(ValueError):
            find_second_longest_general(unram_ctx, [one, w], 2, budget=-1)
        # fast path (distinct norm classes) and exhaustive path alike
        for force in (False, True):
            with pytest.raises(ValueError):
                is_orthogonal(toy_ctx, [toy_ctx.one(), toy_ctx.gen()],
                              budget=-1, force_exhaustive=force)

    def test_wrong_residue_degree_detected(self, unram_ctx):
        one, w = unram_ctx.one(), unram_ctx.gen()
        with pytest.raises(ReductionFailed):
            find_second_longest_general(unram_ctx, [one, w], 1)

    def test_random_f1_agreement(self):
        rng = random.Random(17)
        for _ in range(10):
            p = rng.choice([2, 3])
            n = rng.randrange(2, 6)
            m = rng.randrange(1, min(3, n) + 1)
            ctx, basis, _ = scheme_shaped_lattice(rng, p, n, m)
            a = find_second_longest(ctx, basis)
            b = find_second_longest_general(ctx, basis, 1)
            assert a.lambda2 == b.lambda2


def _full_pick(ctx, basis):
    """What find_second_longest_general(ctx, basis, 1) returns when its
    final pick reads the exact norms of every reduced vector as one batch
    and takes the lowest-index argmax, as (lambda2, witness, reduced,
    abs_count)."""
    counter = reduction.AbsCounter(NormEngine(ctx))
    exps = counter.abs_values(basis)
    out, _, reduced, _ = reduction._reduce_pass(ctx, basis, exps, counter)
    final = counter.abs_values(reduced)
    idx = max(range(len(final)), key=lambda i: (final[i], -i))
    return final[idx], reduced[idx], tuple(out), counter.count


def _picked(ctx, basis):
    res = find_second_longest_general(ctx, basis, 1)
    return res.lambda2, res.witness, res.reduced, res.abs_count


def _recorded_dets(monkeypatch):
    """Patch fields._det_valuation to log (matrices, digits) per call."""
    calls = []
    det = fields._det_valuation

    def recorded(stack, p, digits):
        calls.append((len(stack), digits))
        return det(stack, p, digits)

    monkeypatch.setattr(fields, "_det_valuation", recorded)
    return calls


class TestFinalPick:
    # the pick reads the reduced vectors' exact norms one stack at a time
    # and stops after the first stack holding lambda1 * p^(-1/n); in the
    # toy field |z - 1| = |z^3 - 1| = 2^(-1/20) reach it, while z^2 - 1,
    # z^4 - 1 and z^6 - 1 stay at 2^(-2/20) or below.  A stack bound of
    # 400 * c entries at n = 20 makes stacks of c matrices.  Where the
    # determinant calls are pinned, the field is taken without its own
    # frame

    def test_holder_beyond_the_first_stack(self, toy_ctx, monkeypatch):
        toy_ctx = unframed(toy_ctx)
        one, z = toy_ctx.one(), toy_ctx.gen()
        basis = [one, z ** 2, z, z ** 4, z ** 6]
        want = _full_pick(toy_ctx, basis)
        assert want[1] == z - one
        calls = _recorded_dets(monkeypatch)
        # the four reduced vectors need four matrices; the pick stops after
        # the stack holding z - 1, the second of them
        for chunk, dets in ((1, [(1, 2), (1, 2)]), (2, [(2, 2)]), (3, [(3, 2)])):
            monkeypatch.setattr(fields, "_STACK_ENTRIES", 400 * chunk)
            calls.clear()
            assert _picked(toy_ctx, basis) == want
            assert calls == dets

    def test_no_holder_runs_every_stack(self, monkeypatch):
        # with j_2 >= j_1 + 2 every reduced vector lies below the holder's
        # norm, so every stack runs: the same matrices at the same digit
        # levels as the full pick, and at the default bound (one stack) the
        # same calls.  Smaller stacks split at chunk boundaries, and here
        # reduced[0] and reduced[3] are basis vectors whose norms are
        # cached, so the uncached ones can group differently
        from collections import Counter

        def per_level(calls):
            levels = Counter()
            for size, digits in calls:
                levels[digits] += size
            return levels

        rng = random.Random("no-holder")
        ctx, basis, j = scheme_shaped_lattice(rng, 5, 10, 5)
        ctx = unframed(ctx)
        assert j[1] >= j[0] + 2
        calls = _recorded_dets(monkeypatch)
        for chunk in (None, 1, 2, 3):
            if chunk is not None:
                monkeypatch.setattr(fields, "_STACK_ENTRIES", 100 * chunk)
            calls.clear()
            got = _picked(ctx, basis)
            ours = list(calls)
            calls.clear()
            assert got == _full_pick(ctx, basis)
            assert ours and per_level(ours) == per_level(calls)
            if chunk is None:
                assert ours == calls

    def test_tie_inside_the_holding_stack(self, toy_ctx, monkeypatch):
        # z^3 - 1 and z - 1 both hold; the lower index wins, whether the
        # other is in the same stack (3, default) or never read (2)
        one, z = toy_ctx.one(), toy_ctx.gen()
        basis = [one, z ** 2, z ** 3, z, z ** 4]
        want = _full_pick(toy_ctx, basis)
        assert want[1] == z ** 3 - one
        assert _picked(toy_ctx, basis) == want
        for chunk in (2, 3):
            monkeypatch.setattr(fields, "_STACK_ENTRIES", 400 * chunk)
            assert _picked(toy_ctx, basis) == want


class TestToyPublicBasis:
    def test_orthogonalize_fixture_basis(self):
        from padiclat.fixtures import toy_public_key

        pk = toy_public_key()
        res = orthogonalize(pk.ctx, pk.basis)
        exps = [e.exponent for e in res.exponents]
        assert len(set(exps)) == 4
        assert all(0 <= e < 1 and e.denominator in (1, 2, 4, 5, 10, 20)
                   for e in exps)
        # same lattice both ways
        assert all(in_lattice(pk.ctx, v, list(pk.basis)) for v in res.basis)
        assert all(in_lattice(pk.ctx, v, list(res.basis)) for v in pk.basis)


def _det(rows):
    """Determinant of a square integer matrix, by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        piv = next((i for i in range(k, len(a)) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def _outcome(fn):
    """What fn returns, or the class name of the reduction error it raises."""
    try:
        return fn()
    except (ReductionFailed, SingularSystem) as exc:
        return type(exc).__name__


def _reduction_record(ctx, basis):
    """Every output of the three reductions on one basis: witnesses and
    bases as element keys, norms as exponents, and the abs_counts."""

    def second(res):
        return (res.lambda2.exponent, res.witness.key(),
                [v.key() for v in res.reduced], res.abs_count)

    def ortho():
        res = orthogonalize(ctx, basis)
        return ([v.key() for v in res.basis],
                [e.exponent for e in res.exponents], res.abs_count)

    return (_outcome(lambda: second(find_second_longest(ctx, basis))),
            _outcome(ortho),
            _outcome(lambda: second(find_second_longest_general(ctx, basis, 1))),
            _outcome(lambda: second(find_second_longest_general(ctx, basis, 2))))


class TestPinnedReductionOutputs:
    # SHA-256 of every witness, reduced basis, exponent list and abs_count
    # the three reductions return on seeded scheme-shaped lattices and the
    # fixture fields: however the digit search is organised, it must try
    # the same candidates in the same order
    DIGEST = "8920e23b1478428abd56ddfd7f5ddf6a41b321757a6a1fa320a51ba2c7cf881d"

    def test_pinned_reduction_outputs(self, toy_ctx, sqrt2_ctx, unram_ctx):
        rng = random.Random(18)
        instances = []
        for _ in range(12):
            p = rng.choice([2, 3, 5])
            n = rng.randrange(2, 7)
            m = rng.randrange(1, min(4, n) + 1)
            ctx, basis, _ = scheme_shaped_lattice(rng, p, n, m)
            instances.append((ctx, basis))
        one, z = sqrt2_ctx.one(), sqrt2_ctx.gen()
        instances += [
            (toy_ctx, [toy_ctx.monomial(i) for i in range(6)]),
            (sqrt2_ctx, [one, one + z]),
            (unram_ctx, [unram_ctx.one(), unram_ctx.gen()]),
            mixed_quartic(),
        ]
        record = [_reduction_record(ctx, basis) for ctx, basis in instances]
        assert hashlib.sha256(repr(record).encode()).hexdigest() == self.DIGEST
