import hashlib
import random
from fractions import Fraction

import pytest

from conftest import scheme_shaped_lattice, unframed
from padiclat import bench, fields, reduction
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
        # a lone vector has nothing to reduce, so no candidate among its p
        # digit multiples (p may be huge) is ever formed, on either route
        def refuse(*args):
            raise AssertionError("a candidate built for a rank-one basis")

        monkeypatch.setattr(reduction, "_linear_combination", refuse)
        for ctx in (toy_ctx, unframed(toy_ctx)):
            res = find_second_longest(ctx, [ctx.one()])
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
    res = reduction._reduce_pass(counter, basis, exps)
    reduced = [res.data[k] for k in res.reduced]
    final = counter.abs_values(reduced)
    idx = max(range(len(final)), key=lambda i: (final[i], -i))
    return final[idx], reduced[idx], tuple(res.data), counter.count


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
        # norm, so every stack runs: the same calls as the full pick at
        # every stack size.  reduced[0] and reduced[3] are basis vectors
        # whose norms the engine holds, and the pick's stacks hold only the
        # others, as the full pick's batch does
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
            assert ours and ours == calls

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


def _identities(ctx, basis):
    """Every output of the reductions on one basis, elements by identity:
    witnesses, reduced vectors, second maxima and counts of both second-
    maximum searches (residue degrees 1 and 2), and orthogonalize's basis,
    exponents, transform and count; a reduction error by its class name."""

    def second(res):
        return (res.lambda2, res.witness.identity, [v.identity for v in res.reduced],
                res.abs_count)

    def ortho():
        res = orthogonalize(ctx, basis)
        return ([v.identity for v in res.basis], res.exponents, res.transform, res.abs_count)

    return (_outcome(lambda: second(find_second_longest(ctx, basis))),
            _outcome(ortho),
            _outcome(lambda: second(find_second_longest_general(ctx, basis, 1))),
            _outcome(lambda: second(find_second_longest_general(ctx, basis, 2))))


class TestRowRoute:
    # the row route (framed engines: coordinates mod p, no candidate
    # element) against the element route on the same field taken without
    # its frame: the same outputs, transforms and counts, and the same
    # errors.  ``searches`` counts the operations run on the element
    # route; on a framed field, those whose basis the row route could not
    # certify

    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []
        start = reduction._start

        def counted(counter, basis, frame):
            if frame is None:
                calls.append(1)
            return start(counter, basis, frame)

        monkeypatch.setattr(reduction, "_start", counted)
        return calls

    def _agree(self, ctx, basis, searches):
        """The two routes' records, asserted equal; returns how many
        operations the framed side ran on the element route."""
        searches.clear()
        framed = _identities(ctx, basis)
        fallbacks = len(searches)
        assert framed == _identities(unframed(ctx), basis)
        return fallbacks

    def test_scheme_shaped_lattices(self, searches, unram_ctx):
        rng = random.Random("row-route")
        row_only = total = 0
        for p in (2, 3, 5, 7):
            for _ in range(8):
                n = rng.randrange(2, 15)
                m = rng.randrange(1, min(5, n) + 1)
                ctx, basis, _ = scheme_shaped_lattice(rng, p, n, m)
                assert ctx._frame is not None
                fallbacks = self._agree(ctx, basis, searches)
                if m > 1:  # a lone vector has no pass to run on rows
                    row_only += fallbacks == 0
                    total += 1
        assert row_only >= total * 3 // 4
        # residue degree 2 on fields that have no frame: one route only
        for ctx, basis in (mixed_quartic(), (unram_ctx, [unram_ctx.one(), unram_ctx.gen()])):
            assert ctx._frame is None
            self._agree(ctx, basis, searches)

    def test_non_integral_inputs(self, searches):
        # one scale for every vector (S > 0) stays on the row route; mixed
        # scales leave the lower-scale rows zero mod p, and the element
        # route takes over
        rng = random.Random("row-route-scales")
        uniform = 0
        for p in (2, 3, 5, 7):
            for _ in range(4):
                n = rng.randrange(3, 12)
                m = rng.randrange(2, min(4, n) + 1)
                ctx, basis, _ = scheme_shaped_lattice(rng, p, n, m)
                k = rng.randrange(1, 4)
                uniform += self._agree(ctx, [v * Fraction(1, p ** k) for v in basis],
                                       searches) == 0
                mixed = [v * Fraction(1, p ** rng.randrange(0, 3)) for v in basis]
                mixed[0] = mixed[0] * Fraction(1, p ** 3)
                assert self._agree(ctx, mixed, searches) > 0
        assert uniform >= 12

    def test_vanishing_row_takes_the_element_route(self, searches, toy_ctx, sqrt2_ctx):
        # z + p reduces against z at d = 1 to p, whose coordinates vanish
        # mod p: its exact norm needs the frame's deeper levels
        for ctx in (toy_ctx, sqrt2_ctx):
            z, p = ctx.gen(), ctx.element([ctx.p])
            basis = [z, z + p]
            assert self._agree(ctx, basis, searches) > 0
            assert find_second_longest(ctx, basis).witness == p

    def test_dependent_bases_raise_on_both_routes(self, searches, toy_ctx):
        rng = random.Random("row-route-dependent")
        for p in (3, 5, 7):
            ctx, basis, _ = scheme_shaped_lattice(rng, p, 6, 2)
            b, c = basis
            # a repeated longest vector or a zero vector stops all four; a
            # repeated vector below the longest, only the recursion, where
            # the repeat meets itself
            for dependent, every in (([b, b], True), ([c, b, c], False),
                                     ([b, c, c], False), ([b, ctx.zero()], True)):
                searches.clear()
                record = _identities(ctx, dependent)
                assert searches  # the row route certified none of them
                assert record == _identities(unframed(ctx), dependent)
                assert record[1] == "SingularSystem"
                if every:
                    assert record == ("SingularSystem",) * 4
        # dependent bases whose search meets no zero candidate: orthogonalize
        # refuses them before its passes on both routes
        b, z = toy_ctx.element([1, 2, 3]), toy_ctx.gen()
        for dependent in ([b, b * 2], [toy_ctx.one(), z, toy_ctx.one() + z],
                          [toy_ctx.monomial(i) for i in range(toy_ctx.n)] + [b]):
            searches.clear()
            record = _identities(toy_ctx, dependent)
            assert searches
            assert record == _identities(unframed(toy_ctx), dependent)
            assert record[1] == "SingularSystem"

    @staticmethod
    def _framed_cases():
        """Framed bases the row route takes: scheme-shaped lattices, the
        n = 64 recovery instance and the recovery basis of a (2, 14, 4)
        ``keygen`` key, where p | n, each as (ctx, basis)."""
        rng = random.Random("row-route-work")
        cases = [scheme_shaped_lattice(rng, p, n, m)[:2]
                 for p, n, m in ((2, 12, 5), (3, 10, 4), (5, 8, 4), (7, 14, 5))]
        ctx64 = bench.make_instance(64, 5, random.Random("0:recover:0"))
        pk = bench.break_key(2, 14, 4, 7)
        for ctx in (ctx64, pk.ctx):
            cases.append((ctx, [ctx.monomial(i) for i in range(ctx.n)]))
        return cases

    def test_framed_second_maximum_matches_the_element_route(self, searches):
        # the row route reads its pick off the pass's norms and builds only
        # the witness, whose norm it caches; the witness, second maximum,
        # count and the reduced basis read afterwards are the element
        # route's on the field without its frame
        for ctx, basis in self._framed_cases():
            engine = NormEngine(ctx)
            searches.clear()
            res = find_second_longest(ctx, basis, engine=engine)
            assert not searches
            assert engine.known_abs_values([res.witness]) == [res.lambda2]
            ref = find_second_longest(unframed(ctx), basis)
            assert (res.witness.identity, res.lambda2, res.abs_count) == \
                (ref.witness.identity, ref.lambda2, ref.abs_count)
            assert [v.identity for v in res.reduced] == [v.identity for v in ref.reduced]
            assert res.witness in res.reduced

    def test_framed_pass_builds_only_its_outputs(self, monkeypatch):
        # on the row route no candidate becomes an element.  The second-
        # maximum search builds one element, its witness (none when that is
        # a basis vector); the first read of its reduced basis builds each
        # other output that is not a basis vector once, and a second read
        # nothing.  orthogonalize builds its m outputs, and no determinant
        # or gcd runs
        def forbidden(*args):
            raise AssertionError("a determinant or GF(p) gcd on a framed engine")

        built = []
        canonical = fields._canonical

        def counted(*args):
            built.append(1)
            return canonical(*args)

        cases = self._framed_cases()
        monkeypatch.setattr(fields, "_det_valuation", forbidden)
        monkeypatch.setattr(fields, "_gf_coprime", forbidden)
        monkeypatch.setattr(fields, "_canonical", counted)
        for ctx, basis in cases:
            inputs = {v.identity for v in basis}
            built.clear()
            res = find_second_longest(ctx, basis)
            witness = res.witness.identity not in inputs
            assert len(built) == witness
            built.clear()
            outputs = sum(v.identity not in inputs for v in res.reduced)
            assert len(built) == outputs - witness
            built.clear()
            res.reduced
            assert not built
            built.clear()
            ortho = orthogonalize(ctx, basis)
            assert len(built) == len(basis)
            assert NormEngine(ctx).abs_values(ortho.basis) == list(ortho.exponents)
