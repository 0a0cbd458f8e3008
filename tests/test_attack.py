import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_eisenstein, random_signature_key, unframed, unframed_key
from padiclat import bench, fields, fixtures
from padiclat.attack import (
    BrokenKey,
    attack_decrypt,
    attack_decrypt_detailed,
    find_uniformizer,
    forge_signature,
    recover_uniformizer,
    uniformizer_shortcut,
)
from padiclat.errors import NotCoprime, ReductionFailed
from padiclat.fields import AbsValue, NormEngine, coordinates_in, make_context
from padiclat.schemes import Ciphertext, decrypt, encrypt, keygen, random_zeta, verify, in_lattice
from solve_reference import minimal_poly_reference


class TestRecoverUniformizer:
    # (n, p, seed) -> (c, abs_count) for gamma = z + c, recorded with a
    # determinant answering every norm query; no faster kernel may move them
    PINNED = {(16, 5, 1): (-1, 31), (24, 7, 2): (-6, 107),
              (32, 5, 3): (-3, 111), (32, 7, 4): (-6, 143)}

    @pytest.mark.parametrize("cell", sorted(PINNED))
    def test_pinned_recovery_outputs(self, cell):
        n, p, seed = cell
        ctx = bench.make_instance(n, p, random.Random(f"pin:{n}:{p}:{seed}"))
        res = recover_uniformizer(ctx)
        c, count = self.PINNED[cell]
        assert res.gamma.key() == ((c, 1), (1, 1)) + ((0, 1),) * (n - 2)
        assert res.lambda2 == AbsValue.of(1, n)
        assert res.abs_count == count

    def test_quadratic_example(self):
        ctx = make_context(3, 64, [-2, -2, 1])
        res = recover_uniformizer(ctx)
        assert res.lambda2 == AbsValue.of(1, 2)
        assert NormEngine(ctx).abs_value(res.gamma) == AbsValue.of(1, 2)

    def test_unramified_rejected(self, unram_ctx):
        with pytest.raises(ReductionFailed):
            recover_uniformizer(unram_ctx)

    def test_count_bound(self):
        rng = random.Random(30)
        for p, n in [(2, 4), (3, 5), (5, 4)]:
            kp = random_signature_key(rng, p, n, 2)
            res = recover_uniformizer(kp.public)
            assert res.abs_count <= n + p * (n - 1)
            assert res.lambda2 == AbsValue.of(1, n)


class TestBenchInstances:
    # (n, p, seed) -> SHA-256 of the public modulus bench.make_instance
    # draws, recorded before its polynomial products moved onto the
    # integer kernel shared with element multiplication
    PINNED = {
        (8, 2, 1): "c9c159842447f979f54fa47881fe80e53c2af360befab94abc33ed86d444e006",
        (16, 3, 2): "4c8900de59f8ebdc2f794b836b1fc286f8b2696f2dcdf3ed8391abb5a2b3881b",
        (32, 5, 3): "66f5d8c2a791cc0387abf017641471f3d6d3f90b7f2b81bb0bd70b8a235b50f1",
        (64, 5, 4): "94e03c738d9337499cb310876489252c9245bfb411382d04b47e3b45dfe05e4d",
        (64, 7, 5): "088fe596c4e93c00d8e123aef599279a95bab9eb9a13fde4d38aaa0f983bd7d1",
    }

    @pytest.mark.parametrize("cell", sorted(PINNED))
    def test_pinned_moduli(self, cell):
        n, p, seed = cell
        ctx = bench.make_instance(n, p, random.Random(seed))
        text = ",".join(str(c.to_fraction()) for c in ctx.modulus)
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED[cell]

    # 65537: p^4 * n passes 2^61, so the lifting runs in object dtype
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 65537])
    def test_lifting_matches_a_direct_solve(self, p):
        rng = random.Random(f"lifting:{p}")
        for n in ((2, 3, 9) if p > 7 else (2, 3, 17, 40)):
            k = fields._int64_level(p, n)
            assert (fields._kernel_dtype(p, n, k) is object) == (p > 7)
            fcoeffs = [p] * n + [1]
            # a generator, then one singular mod p: no unit linear coefficient
            zetas = [random_zeta(rng, p, n), [rng.randrange(p ** 3) for _ in range(n)]]
            zetas[1][1] = p * rng.randrange(p)
            for digits in sorted({1, k - 1, k, k + 1, 128}):
                for zeta, singular in zip(zetas, (False, True)):
                    got = bench._minimal_poly_mod(p, digits, fcoeffs, zeta)
                    assert got == minimal_poly_reference(p, digits, fcoeffs, zeta)
                    assert (got is None) == singular

    def test_instance_solves_stay_int64(self, monkeypatch):
        # the inverse comes from one _solve_mod at the int64 level; every
        # deeper digit is lifted
        levels = []
        solve = bench._solve_mod

        def recorded(rows, p, digits, *args):
            levels.append(digits)
            return solve(rows, p, digits, *args)

        monkeypatch.setattr(bench, "_solve_mod", recorded)
        bench.make_instance(64, 5, random.Random(4))
        k = fields._int64_level(5, 64)
        assert levels and set(levels) == {k}
        assert fields._kernel_dtype(5, 64, k) is np.int64


class TestShortcut:
    def test_quadratic_shift(self):
        ctx = make_context(3, 64, [-2, -2, 1])
        g = uniformizer_shortcut(ctx)
        assert [c.to_fraction() for c in g.coeffs] == [2, 1]

    def test_eisenstein_public_polynomial_shift_zero(self):
        # when the public polynomial is itself Eisenstein the generator is
        # already a uniformizer and the shift vanishes
        ctx = make_context(2, 64, [-2, 0, 0, 1])  # x^3 - 2, gcd(3, 2) = 1
        g = uniformizer_shortcut(ctx)
        assert g == ctx.gen()

    def test_not_coprime(self, toy_ctx):
        with pytest.raises(NotCoprime):
            uniformizer_shortcut(toy_ctx)

    def test_agreement_with_reduction(self):
        rng = random.Random(31)
        for _ in range(10):
            p = rng.choice([2, 3, 5])
            n = rng.choice([x for x in range(2, 7) if x % p])
            kp = random_signature_key(rng, p, n, 1)
            eng = NormEngine(kp.public.ctx)
            a = uniformizer_shortcut(kp.public)
            b = recover_uniformizer(kp.public).gamma
            assert eng.abs_value(a) == eng.abs_value(b) == AbsValue.of(1, n)

    def test_check_lands_in_the_passed_engine(self, monkeypatch):
        # the shortcut's size check is the break's first query: asked again
        # on the same engine, it needs no kernel
        kp = random_signature_key(random.Random(5), 3, 14, 6)
        ctx = kp.public.ctx
        shortcut_engine, driver_engine = NormEngine(ctx), NormEngine(ctx)
        g = uniformizer_shortcut(kp.public, engine=shortcut_engine)
        assert find_uniformizer(kp.public, engine=driver_engine) == g

        def forbidden(*args):
            raise AssertionError("the check was not cached on the passed engine")

        monkeypatch.setattr(fields, "_det_valuation", forbidden)
        monkeypatch.setattr(fields, "_gf_coprime", forbidden)
        assert shortcut_engine.abs_value(g) == driver_engine.abs_value(g) == AbsValue.of(1, 14)

    def test_driver_fallback(self, toy_ctx):
        # gcd(n, p) != 1: the driver silently falls back to the reduction
        g = find_uniformizer(toy_ctx)
        assert NormEngine(toy_ctx).abs_value(g) == AbsValue.of(1, 20)


class TestAttackDecrypt:
    def test_zero_ciphertext(self):
        rng = random.Random(32)
        kp = random_signature_key(rng, 3, 4, 2, delta=Fraction(1, 2))
        pk = kp.public
        assert attack_decrypt(pk, Ciphertext(pk.ctx.zero())) == (0, 0)

    def test_matches_decrypt_everywhere(self):
        rng = random.Random(33)
        kp = random_signature_key(rng, 3, 4, 2, delta=Fraction(1, 2))
        for pt in itertools.product(range(3), repeat=2):
            ct = encrypt(kp.public, pt, rng=rng)
            assert attack_decrypt(kp.public, ct) == pt
            assert decrypt(kp.private, ct) == pt

    def test_detailed_witness_is_lattice_vector(self):
        rng = random.Random(34)
        kp = random_signature_key(rng, 2, 5, 2, delta=Fraction(1, 2))
        ct = encrypt(kp.public, (1, 1), rng=rng)
        res = attack_decrypt_detailed(kp.public, ct)
        assert all(c.is_zero or c.valuation >= 0 for c in res.basis_coords)
        assert in_lattice(kp.public, res.lattice_vector)


class TestForgery:
    def test_forged_signatures_verify(self):
        rng = random.Random(35)
        kp = random_signature_key(rng, 3, 4, 2)
        for msg in [b"alpha", b"beta", b"gamma"]:
            sig = forge_signature(kp.public, msg, rng=rng)
            assert verify(kp.public, msg, sig)

    def test_forged_vector_in_lattice_and_close(self):
        rng = random.Random(36)
        kp = random_signature_key(rng, 2, 6, 3)
        eng = NormEngine(kp.public.ctx)
        for i in range(10):
            msg = b"m%d" % i
            sig = forge_signature(kp.public, msg, rng=rng)
            assert in_lattice(kp.public, sig.vector)
            from padiclat.schemes import hash_to_target
            t = hash_to_target(kp.public, msg, sig.salt)
            diff = t - sig.vector
            assert diff.is_zero or eng.abs_value(diff) < AbsValue.of(0)

    def test_broken_key_reusable(self):
        rng = random.Random(37)
        kp = random_signature_key(rng, 3, 4, 2, delta=Fraction(1, 2))
        broken = BrokenKey.from_public(kp.public)
        for pt in [(0, 1), (2, 2), (1, 0)]:
            ct = encrypt(kp.public, pt, rng=rng)
            res = broken.closest(ct.vector)
            assert not res.distance > AbsValue.of(Fraction(1, 2))


def test_attack_with_a_broken_key_makes_no_solve(monkeypatch):
    # with a precomputed break, attack decryption and forgery solve their
    # CVPs modulo p^N and read public-basis coordinates off the break's
    # transform: no exact solve, and no second break
    from padiclat import fields

    rng = random.Random(11)
    kp = random_signature_key(rng, 3, 14, 6, delta=Fraction(1, 2))
    pk = kp.public
    broken = BrokenKey.from_public(pk)
    plain = [tuple(rng.randrange(3) for _ in range(6)) for _ in range(3)]
    cts = [encrypt(pk, pt, rng=rng) for pt in plain]
    messages = [b"m%d" % i for i in range(3)]

    def refuse(*args, **kwargs):
        raise AssertionError("an exact solve or a second break was made")

    with monkeypatch.context() as mp:
        mp.setattr(fields, "_solve_exact", refuse)
        mp.setattr(BrokenKey, "from_public", refuse)
        got = [attack_decrypt_detailed(pk, ct, broken=broken) for ct in cts]
        sigs = [forge_signature(pk, msg, rng=rng, broken=broken) for msg in messages]
    assert [res.plaintext for res in got] == plain
    assert [[c.to_fraction() for c in res.basis_coords] for res in got] == \
        [coordinates_in(pk.ctx, res.lattice_vector, pk.basis) for res in got]
    assert all(verify(pk, msg, sig) for msg, sig in zip(messages, sigs))


@pytest.mark.parametrize("delta", [7, 20])
def test_high_delta_attack_decryption_makes_no_exact_solve(delta, monkeypatch):
    # encrypt scales its noise by p^(floor(delta) + 1), so every noise
    # completion coordinate vanishes at the first CVP level: the last
    # modular level still certifies the result
    rng = random.Random(12)
    kp = random_signature_key(rng, 3, 14, 6, delta=delta)
    pk = kp.public
    broken = BrokenKey.from_public(pk)
    plain = [tuple(rng.randrange(3) for _ in range(6)) for _ in range(3)]
    cts = [encrypt(pk, pt, rng=rng) for pt in plain]

    def refuse(*args, **kwargs):
        raise AssertionError("an exact solve was made")

    monkeypatch.setattr(fields, "_solve_exact", refuse)
    assert [attack_decrypt_detailed(pk, ct, broken=broken).plaintext for ct in cts] == plain


def test_broken_key_of_another_key_is_refused():
    rng = random.Random(38)
    a, b = (random_signature_key(rng, 3, 4, 2, delta=Fraction(1, 2)) for _ in range(2))
    broken = BrokenKey.from_public(a.public)
    ct = encrypt(b.public, (1, 0), rng=rng)
    with pytest.raises(ValueError, match="another public key"):
        attack_decrypt_detailed(b.public, ct, broken=broken)
    with pytest.raises(ValueError, match="another public key"):
        forge_signature(b.public, b"msg", rng=rng, broken=broken)


def test_break_builds_gamma_powers_once(monkeypatch):
    # on a field without a frame of its own, the frame's certificate builds
    # gamma^0 .. gamma^n, and the completion takes its gamma^0 .. gamma^(n-1)
    # from the adopted frame
    from padiclat import lattices

    kp = random_signature_key(random.Random(22), 3, 14, 6, delta=Fraction(1, 2))
    pk = unframed_key(kp.public)
    counts = []
    powers = fields._powers

    def counted(x, count):
        counts.append(count)
        return powers(x, count)

    monkeypatch.setattr(fields, "_powers", counted)
    monkeypatch.setattr(lattices, "_powers", counted, raising=False)
    broken = BrokenKey.from_public(pk)
    assert counts == [15]
    assert broken.engine._frame is not None
    own = {g.identity for g in powers(broken.gamma, 14)}
    assert len(broken.completion) == 8 and all(g.identity in own for g in broken.completion)


def test_broken_key_engine_cache_stays_flat():
    # a break's engine caches norms of the public basis, the vectors of the
    # reduction, the orthogonal basis and the completion; CVPs ask only the
    # last two, so many attack decryptions and forgeries add no entry
    # beyond them
    rng = random.Random(39)
    kp = random_signature_key(rng, 3, 14, 6, delta=Fraction(1, 2))
    pk = kp.public
    broken = BrokenKey.from_public(pk)
    bound = set(broken.engine._states) | {v.identity for v in broken.ortho + broken.completion}
    for i in range(120):
        plain = tuple(rng.randrange(3) for _ in range(6))
        assert attack_decrypt_detailed(pk, encrypt(pk, plain, rng=rng),
                                       broken=broken).plaintext == plain
        if i % 3 == 0:
            forge_signature(pk, b"flat-%d" % i, rng=rng, broken=broken)
    assert set(broken.engine._states) <= bound
    assert len(broken.engine._states) > len(broken.ortho)


def test_two_loads_of_one_key_share_a_break():
    a, b = fixtures.toy_public_key(), fixtures.toy_public_key()
    assert a == b and a.ctx == b.ctx and hash(a.ctx) == hash(b.ctx)
    broken = BrokenKey.from_public(a)
    ct = fixtures.toy_ciphertext(b)
    assert attack_decrypt_detailed(b, ct, broken=broken).plaintext == (1, 1, 0, 1)


class TestUniformizerFrame:
    """After the break adopts its uniformizer, every norm comes from the
    power basis of gamma; it must give what determinants give.  The keys'
    fields are taken without their own frames, so the break certifies
    gamma's and a fresh engine takes determinants."""

    @staticmethod
    def _broken(shape):
        if shape == "toy":
            return BrokenKey.from_public(unframed_key(fixtures.toy_public_key()))
        seed, p, n, m = shape
        kp = random_signature_key(random.Random(seed), p, n, m, delta=Fraction(1, 2))
        return BrokenKey.from_public(unframed_key(kp.public))

    @staticmethod
    def _elements(broken, rng):
        # the break's own vectors, then integral, non-integral (scale 1 to
        # 3, with a unit in the denominator) and elements so small that no
        # coordinate survives the frame's first level
        ctx = broken.pk.ctx
        p, n = ctx.p, ctx.n
        tiny = p ** (fields._int64_level(p, n) + 2)
        xs = list(broken.pk.basis) + list(broken.ortho) + list(broken.completion)
        for k in range(12):
            x = ctx.element([rng.randrange(-p ** 3, p ** 3) for _ in range(n)])
            if x.is_zero:
                continue
            if k % 3 == 1:
                x = x * Fraction(1, p ** rng.randrange(1, 4) * (p + 1))
            elif k % 3 == 2 and k < 9:
                x = x * tiny * rng.choice([1, Fraction(1, p)])
            xs.append(x)
        return xs

    @pytest.mark.parametrize("shape", [(21, 2, 14, 4), (22, 3, 14, 6), "toy"])
    def test_frame_agrees_with_determinants(self, shape, monkeypatch):
        broken = self._broken(shape)
        ctx = broken.pk.ctx
        xs = self._elements(broken, random.Random(str(shape)))
        solves = []
        solve = fields._solve_mod

        def recorded(rows, p, digits, *args):
            solves.append(digits)
            return solve(rows, p, digits, *args)

        monkeypatch.setattr(fields, "_solve_mod", recorded)
        framed = NormEngine(ctx)
        assert framed.adopt_uniformizer(broken.gamma)
        want = NormEngine(ctx).norm_valuations(xs)
        assert framed.norm_valuations(xs) == want
        assert broken.engine.norm_valuations(xs) == want
        # the tiny elements escalated past the first level, on both frames
        first = fields._int64_level(ctx.p, ctx.n)
        assert solves == [first, 2 * first, 2 * first]
        # thresholds below, at and above each valuation, each on a fresh
        # engine so the framed test is the element's first query
        for i, (x, v) in enumerate(zip(xs, want)):
            bound = v + i % 3 - 1
            framed = NormEngine(ctx)
            framed.adopt_uniformizer(broken.gamma)
            assert framed.norm_exceeds(x, bound) == NormEngine(ctx).norm_exceeds(x, bound)
            size = AbsValue(Fraction(2 * v + i % 5 - 2, 2 * ctx.n))
            assert framed.abs_less_than(x, size) == NormEngine(ctx).abs_less_than(x, size)

    def test_adopted_engine_runs_no_determinant(self, monkeypatch):
        # orthogonalize, complete_orthogonal and the CVP exponents read
        # every norm in gamma's power basis, and give what a determinant
        # engine gives
        from padiclat.lattices import complete_orthogonal, cvp_orthogonal
        from padiclat.reduction import orthogonalize

        rng = random.Random(23)
        kp = random_signature_key(rng, 3, 14, 6, delta=Fraction(1, 2))
        pk = kp.public
        gamma = find_uniformizer(pk)
        targets = [encrypt(pk, [rng.randrange(3) for _ in range(6)], rng=rng).vector
                   for _ in range(3)]

        def attack(engine):
            res = orthogonalize(pk.ctx, pk.basis, engine=engine)
            full = complete_orthogonal(pk.ctx, res.basis, gamma, engine=engine)
            closest = [cvp_orthogonal(pk.ctx, res.basis, full[6:], t, engine=engine)
                       for t in targets]
            return res, full, closest

        want = attack(NormEngine(pk.ctx))
        framed = NormEngine(pk.ctx)
        assert framed.adopt_uniformizer(gamma)

        def forbidden(*args):
            raise AssertionError("a determinant or GF(p) gcd after adoption")

        monkeypatch.setattr(fields, "_det_valuation", forbidden)
        monkeypatch.setattr(fields, "_gf_coprime", forbidden)
        assert attack(framed) == want


class TestPinnedAttackOutputs:
    # SHA-256 of the attack's decryptions (plaintext and public-basis
    # coordinates) and of a forged signature for seeded keys, recorded with
    # a per-entry Fraction elimination behind every exact solve
    @pytest.mark.parametrize("seed, p, n, m, digest", [
        (11, 3, 14, 6,
         "79e9d5d62fe53b224103e6c46020b2e9695a72c571b84f553f31d0940879f29d"),
        (12, 3, 14, 6,
         "755b67542b11caa868620472f169377c2e09ab27aa747929b49fa79c8ae2a452"),
        (13, 2, 14, 4,
         "9b7fcf84d538f93b7c4d20c69777b243e0767c33f85c1faed9d0d48359ddaa25"),
        (14, 2, 14, 4,
         "858f228956c73d38f367683ae97c602ca1422080b9f2f32927703b42e0f8895c"),
    ])
    def test_pinned_attack_decrypt_and_forgery(self, seed, p, n, m, digest):
        rng = random.Random(seed)
        kp = random_signature_key(rng, p, n, m, delta=Fraction(1, 2))
        broken = BrokenKey.from_public(kp.public)
        record = []
        for _ in range(2):
            ct = encrypt(kp.public, [rng.randrange(p) for _ in range(m)], rng=rng)
            res = attack_decrypt_detailed(kp.public, ct, broken=broken)
            record.append((res.plaintext, tuple(c.key() for c in res.basis_coords)))
        sig = forge_signature(kp.public, b"pinned", rng=rng)
        record.append((sig.salt.hex(), sig.vector.key()))
        assert hashlib.sha256(repr(record).encode()).hexdigest() == digest


def test_break_determinant_work_is_pinned(monkeypatch):
    # the determinants (matrices per digit level) and GF(p) gcds the break
    # of one seeded key runs on its field without a frame of its own; a
    # change to the norm engine's memo or escalation shows here before it
    # shows in wall time.  All of them come from the uniformizer recovery:
    # once gamma is adopted, orthogonalize, complete_orthogonal and the CVP
    # exponents read norms in its power basis.  The key's own field is
    # framed from the start, and its break runs neither
    from collections import Counter

    from padiclat import fields
    from padiclat.schemes import random_eisenstein, random_zeta

    levels, gcds = Counter(), []
    det, coprime = fields._det_valuation, fields._gf_coprime

    def counted_det(stack, p, digits):
        levels[digits] += len(stack)
        return det(stack, p, digits)

    def counted_coprime(*args):
        gcds.append(1)
        return coprime(*args)

    rng = random.Random(7)
    p, n, m = 3, 30, 15
    kp = keygen(p, n, m, range(n), random_eisenstein(rng, p, n), random_zeta(rng, p, n),
                delta=Fraction(1, 2), rng=rng)
    monkeypatch.setattr(fields, "_det_valuation", counted_det)
    monkeypatch.setattr(fields, "_gf_coprime", counted_coprime)
    unframed_broken = BrokenKey.from_public(unframed_key(kp.public))
    assert dict(levels) == {2: 29}
    assert len(gcds) == 44
    levels.clear()
    gcds.clear()
    broken = BrokenKey.from_public(kp.public)
    assert not levels and not gcds
    assert broken.gamma == unframed_broken.gamma
    assert (broken.ortho, broken.transform) == (unframed_broken.ortho, unframed_broken.transform)


def test_recover_stacks_its_exact_queries(monkeypatch):
    # on the instance's field without a frame of its own, the reduction's
    # exact norms go to the kernel in bounded stacks, 8 matrices at n = 64,
    # while each matrix keeps the digit level it has alone; the first
    # exponents are monomials (no determinant), and the final pick stops
    # after its first stack, whose reduced[0] reaches lambda1 * p^(-1/n).
    # The instance's own field is framed: its recovery runs no determinant
    # and no gcd, for the same outputs
    from collections import Counter

    from padiclat import fields

    framed = bench.make_instance(64, 5, random.Random("0:recover:0"))
    ctx = unframed(framed)
    levels, stacks, gcds = Counter(), [], []
    det, coprime = fields._det_valuation, fields._gf_coprime

    def counted_det(stack, p, digits):
        levels[digits] += len(stack)
        stacks.append(len(stack))
        return det(stack, p, digits)

    def counted_coprime(*args):
        gcds.append(1)
        return coprime(*args)

    monkeypatch.setattr(fields, "_det_valuation", counted_det)
    monkeypatch.setattr(fields, "_gf_coprime", counted_coprime)
    res = recover_uniformizer(ctx)
    assert res.abs_count == 223
    assert dict(levels) == {2: 8}
    assert len(gcds) == 159
    assert len(stacks) == 1
    stacks.clear()
    gcds.clear()
    assert recover_uniformizer(framed) == res
    assert not stacks and not gcds
