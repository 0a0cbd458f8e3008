import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest

from padiclat import fields, lattices, schemes
from padiclat.attack import forge_signature
from padiclat.errors import (
    BadExponents,
    BadMatrix,
    DecryptionAmbiguous,
    DegenerateGenerator,
    DeltaTooSmall,
    NoiseOutOfRange,
    NotEisenstein,
)
from padiclat.fields import AbsValue, NormEngine, make_context
from padiclat.fileio import emit_key_pair
from padiclat.lattices import cvp_orthogonal
from padiclat.schemes import (
    Ciphertext,
    PublicKey,
    Signature,
    _outside_mod_p,
    _private_cvp,
    decrypt,
    encrypt,
    hash_to_target,
    in_lattice,
    keygen,
    random_eisenstein,
    random_zeta,
    sign,
    sign_detailed,
    verify,
)


@pytest.fixture(scope="module")
def small_key():
    # p=3, x^2-3, zeta = theta + 1: public polynomial x^2 - 2x - 2, m=1
    return keygen(3, 2, 1, (0, 1), [-3, 0, 1], [1, 1],
                  matrix=[[1]], delta=Fraction(1, 2))


@pytest.fixture(scope="module")
def mid_key():
    rng = random.Random(2024)
    return keygen(3, 4, 2, (0, 1, 2, 3), [3, 3, 3, 3, 1], [1, 1, 0, 0],
                  rng=rng, delta=Fraction(1, 2))


class TestKeygen:
    def test_public_polynomial(self, small_key):
        assert [c.to_fraction() for c in small_key.public.ctx.modulus] == [-2, -2, 1]
        assert small_key.public.basis[0] == small_key.public.ctx.one()

    def test_degenerate_generator(self):
        with pytest.raises(DegenerateGenerator):
            keygen(3, 2, 1, (0, 1), [-3, 0, 1], [1, 3], matrix=[[1]])

    def test_delta_too_small(self):
        with pytest.raises(DeltaTooSmall):
            keygen(2, 4, 2, (0, 3, 1, 2), [2, 2, 0, 0, 1], [0, 1],
                   matrix=[[1, 0], [0, 1]], delta=Fraction(1, 2))

    def test_not_eisenstein(self):
        with pytest.raises(NotEisenstein):
            keygen(3, 2, 1, (0, 1), [-1, 0, 1], [1, 1], matrix=[[1]])

    def test_bad_exponents(self):
        with pytest.raises(BadExponents):
            keygen(3, 2, 1, (1, 0), [-3, 0, 1], [1, 1], matrix=[[1]])
        with pytest.raises(BadExponents):
            keygen(3, 2, 1, (0, 0), [-3, 0, 1], [1, 1], matrix=[[1]])

    def test_bad_matrix(self):
        with pytest.raises(BadMatrix):
            keygen(3, 4, 2, (0, 1, 2, 3), [3, 3, 3, 3, 1], [1, 1, 0, 0],
                   matrix=[[1, 1], [1, 1]], delta=1)
        with pytest.raises(BadMatrix):
            # first column unit condition: beta norms must all be 1
            keygen(3, 4, 2, (0, 1, 2, 3), [3, 3, 3, 3, 1], [1, 1, 0, 0],
                   matrix=[[1, 0], [3, 1]], delta=1)

    def test_public_basis_unit_norm(self, mid_key):
        eng = NormEngine(mid_key.public.ctx)
        for b in mid_key.public.basis:
            assert eng.abs_value(b) == AbsValue.of(0)

    def test_acceptance_rate_tracks_unit_density(self):
        # acceptance of zeta is the unit condition on its linear coefficient
        rng = random.Random(5)
        p, n = 3, 3
        accepted = 0
        trials = 120
        for _ in range(trials):
            zeta = [rng.randrange(p) for _ in range(n)]
            try:
                keygen(p, n, 1, (0, 1, 2), [3, 3, 3, 1], zeta, matrix=[[1]])
                accepted += 1
            except DegenerateGenerator:
                assert zeta[1] % p == 0
        assert abs(accepted / trials - (1 - 1 / p)) < 0.15


def _seeded_key_inputs(seed, p, n, m, den):
    """Exponents, Eisenstein f and generator zeta for a seeded key, plus the
    rng that keygen goes on to sample its mixing matrix from.  zeta's
    entries are a/den for a p-unit den; its theta-coefficient is a unit."""
    rng = random.Random(seed)
    f = [p * rng.randrange(1, p)] + [p * rng.randrange(p) for _ in range(n - 1)] + [1]
    while True:
        zeta = [Fraction(rng.randrange(p * den), den) for _ in range(n)]
        if zeta[1].numerator % p:
            break
    first = [0] + sorted(rng.sample(range(1, n // 2 + 1), m - 1))
    rest = [x for x in range(n) if x not in first]
    return first + rest, f, zeta, rng


class TestPublicPolynomial:
    @pytest.mark.parametrize("seed, p, n, m, den", [
        (100, 2, 2, 1, 1), (101, 2, 5, 2, 3), (102, 2, 8, 3, 5),
        (103, 3, 3, 2, 1), (104, 3, 6, 3, 4), (105, 3, 8, 4, 2),
        (106, 5, 4, 2, 1), (107, 5, 5, 3, 6), (108, 5, 7, 2, 2),
        (109, 3, 7, 3, 1),
    ])
    def test_F_is_minimal_polynomial_of_zeta(self, seed, p, n, m, den):
        # zeta generates K, so a monic degree-n F with F(zeta) = 0 is its
        # minimal polynomial
        j, f, zeta, rng = _seeded_key_inputs(seed, p, n, m, den)
        kp = keygen(p, n, m, j, f, zeta, rng=rng)
        F = kp.public.ctx.modulus
        assert len(F) == n + 1 and F[-1].to_fraction() == 1
        theta_ctx = make_context(p, kp.public.ctx.precision, f)
        x, acc = theta_ctx.element(zeta), theta_ctx.zero()
        for c in reversed(F):  # Horner
            acc = acc * x + theta_ctx.element([c])
        assert acc.is_zero

    # SHA-256 of the emitted key pair: how keygen computes F must not
    # change a byte of the key text (parse_key_file compares stored F)
    @pytest.mark.parametrize("seed, p, n, m, den, sampled, digest", [
        (1, 3, 14, 6, 1, True,
         "d65c0ac06f0587238b1ab3d23054eabda313013f0ede854689c57f7929935ff6"),
        (2, 2, 14, 4, 1, True,
         "66566a58f08b4074bbdd46354d353f92792ff050c9052f2f8ff4bbdcafb95149"),
        (3, 5, 6, 3, 6, True,
         "6521b5d3e16b5080138c5807d03e2a6c79e3c93e2b1e534021b65ce6715a683a"),
        (4, 3, 8, 4, 4, False,
         "20825b656c2679a33c28a0673813fbdf35f7c74173fe1460b7494bc0fb1d0127"),
        (5, 2, 8, 3, 3, True,
         "ec6e3727cbc78b1a4cec42ada06fc78359896762489c5ce620dcdb7fddcb3566"),
        (6, 7, 5, 2, 8, False,
         "8f162494d81cb4a9dc903c133f5a2a7d0726f12a7e1f57287ff148593f95d4e9"),
    ])
    def test_pinned_key_pair_digests(self, seed, p, n, m, den, sampled, digest):
        j, f, zeta, rng = _seeded_key_inputs(seed, p, n, m, den)
        # explicit: all-ones first column, identity elsewhere (determinant 1)
        matrix = None if sampled else [
            [1] + [int(k == i) for k in range(1, m)] for i in range(m)]
        kp = keygen(p, n, m, j, f, zeta, delta=Fraction(1, 2), rng=rng,
                    matrix=matrix)
        text = emit_key_pair(kp)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestPinnedSolveOutputs:
    # SHA-256 of what sign, verify and decrypt return for seeded keys,
    # recorded with a per-entry Fraction elimination behind every exact
    # solve: no faster solver may change a single output
    @pytest.mark.parametrize("seed, p, n, m, digest", [
        (11, 3, 14, 6,
         "14f7ccc2dc23350dde9418c60300c2a0652afb461cb25b88108d24052f607321"),
        (12, 3, 14, 6,
         "638c61d84cd10e5b5a274d2094d344f32f3210e2f4346e355db36745ebb04eef"),
        (13, 2, 14, 4,
         "061dd001bb52da5e0b070236d95d3ef40457e013dc13bb4fa4eb1b6bdede79fb"),
        (14, 2, 14, 4,
         "1702425418196fa4f9bbaa53a2f8da2e6d828406bbc16b8edb376401ecb5d29a"),
    ])
    def test_pinned_sign_verify_decrypt(self, seed, p, n, m, digest):
        j, f, zeta, rng = _seeded_key_inputs(seed, p, n, m, 1)
        kp = keygen(p, n, m, j, f, zeta, delta=Fraction(1, 2), rng=rng)
        record = []
        for i in range(2):
            msg = b"pin%d" % i
            sig = sign(kp.private, kp.public, msg, rng=rng)
            ct = encrypt(kp.public, [rng.randrange(p) for _ in range(m)], rng=rng)
            record.append((sig.salt.hex(), sig.vector.key(),
                           verify(kp.public, msg, sig),
                           verify(kp.public, msg + b"!", sig),
                           decrypt(kp.private, ct)))
        assert hashlib.sha256(repr(record).encode()).hexdigest() == digest


class TestHashToTarget:
    def test_deterministic(self, mid_key):
        pk = mid_key.public
        t1 = hash_to_target(pk, b"msg", b"\x01" * 32)
        t2 = hash_to_target(pk, b"msg", b"\x01" * 32)
        assert t1 == t2

    def test_distinct_salts_differ(self, mid_key):
        pk = mid_key.public
        t1 = hash_to_target(pk, b"msg", b"\x01" * 32)
        t2 = hash_to_target(pk, b"msg", b"\x02" * 32)
        assert t1 != t2

    def test_output_contract(self, mid_key):
        pk = mid_key.public
        eng = NormEngine(pk.ctx)
        for i in range(5):
            t = hash_to_target(pk, b"m%d" % i, bytes([i]) * 32)
            assert eng.abs_value(t) == AbsValue.of(0)
            assert not in_lattice(pk, t)

    def test_zero_candidates_rejected(self, mid_key):
        # a stream of zero digits never yields |t| = 1, then real bytes do
        pk = mid_key.public
        zeros = pk.ctx.n * 2

        def xof(seed, nbytes):
            import hashlib
            tail = hashlib.shake_256(seed).digest(max(nbytes, 1))
            return (b"\x00" * zeros + tail)[:nbytes]

        t = hash_to_target(pk, b"msg", b"\x03" * 32, xof=xof)
        eng = NormEngine(pk.ctx)
        assert eng.abs_value(t) == AbsValue.of(0)

    def test_full_rank_rejected(self):
        kp = keygen(3, 2, 2, (0, 1), [-3, 0, 1], [1, 1],
                    matrix=[[1, 0], [1, 1]])
        with pytest.raises(ValueError):
            hash_to_target(kp.public, b"m", b"\x00" * 32)

    def test_accepted_candidate_example(self, small_key):
        # 1 + zeta has norm F(-1)=1 (unit) and is outside Z_p * 1
        pk = small_key.public
        calls = []

        def xof(seed, nbytes):
            return (bytes([1, 1]) * nbytes)[:nbytes]

        t = hash_to_target(pk, b"", b"\x00" * 32, xof=xof)
        assert t == pk.ctx.element([1, 1])

    def test_unit_test_needs_no_determinant(self, monkeypatch):
        # candidates are integral digit vectors, so "is N(t) a unit?" is
        # one GF(p) gcd and never a determinant
        rng = random.Random(3)
        pk = keygen(3, 8, 4, range(8), random_eisenstein(rng, 3, 8),
                    random_zeta(rng, 3, 8), rng=rng).public
        salts = [bytes([i]) * 32 for i in range(30)]
        want = [hash_to_target(pk, b"unit", s).key() for s in salts]

        def forbidden(*args):
            raise AssertionError("a hash candidate reached the determinant")

        monkeypatch.setattr(fields, "_det_valuation", forbidden)
        assert [hash_to_target(pk, b"unit", s).key() for s in salts] == want


class TestSignVerify:
    def test_roundtrip(self, mid_key):
        rng = random.Random(8)
        sig = sign(mid_key.private, mid_key.public, b"hello", rng=rng)
        assert verify(mid_key.public, b"hello", sig)
        # the same rationals over another prime
        other = make_context(5, 32, [5, 0, 0, 0, 1]).element(sig.vector.fracs)
        assert not verify(mid_key.public, b"hello", Signature(sig.salt, other))

    def test_same_salt_same_signature(self, mid_key):
        s1 = sign(mid_key.private, mid_key.public, b"m", rng=random.Random(4))
        s2 = sign(mid_key.private, mid_key.public, b"m", rng=random.Random(4))
        assert s1 == s2

    def test_single_attempt(self, mid_key):
        rng = random.Random(9)
        for i in range(50):
            _, attempts = sign_detailed(mid_key.private, mid_key.public,
                                        b"m%d" % i, rng=rng)
            assert attempts == 1

    def test_tampered_vector_fails(self, mid_key):
        rng = random.Random(10)
        sig = sign(mid_key.private, mid_key.public, b"msg", rng=rng)
        # shift by a basis vector: still in the lattice, distance reaches 1
        bad = Signature(sig.salt, sig.vector + mid_key.public.ctx.one())
        assert not verify(mid_key.public, b"msg", bad)

    def test_vector_outside_lattice_fails(self, mid_key):
        rng = random.Random(11)
        sig = sign(mid_key.private, mid_key.public, b"msg", rng=rng)
        bad = Signature(sig.salt, sig.vector * Fraction(1, 3))
        assert not verify(mid_key.public, b"msg", bad)

    def test_signature_in_lattice_and_close(self, mid_key):
        rng = random.Random(12)
        eng = NormEngine(mid_key.public.ctx)
        for i in range(10):
            msg = b"x%d" % i
            sig = sign(mid_key.private, mid_key.public, msg, rng=rng)
            assert in_lattice(mid_key.public, sig.vector)
            t = hash_to_target(mid_key.public, msg, sig.salt)
            diff = t - sig.vector
            assert diff.is_zero or eng.abs_value(diff) < AbsValue.of(0)


    @pytest.mark.parametrize("p", [257, 65537])
    def test_primes_past_one_byte(self, p):
        # a digit takes two or three hash bytes here; one byte held none
        rng = random.Random(p)
        kp = keygen(p, 3, 1, (0, 1, 2), random_eisenstein(rng, p, 3), random_zeta(rng, p, 3),
                    rng=rng, precision=16)
        sig = sign(kp.private, kp.public, b"wide", rng=rng)
        assert verify(kp.public, b"wide", sig)
        forged = forge_signature(kp.public, b"forged", rng=rng)
        assert verify(kp.public, b"forged", forged)
        assert not verify(kp.public, b"other", forged)


class TestEncryptDecrypt:
    def test_zero_plaintext_zero_noise(self, mid_key):
        ct = encrypt(mid_key.public, (0, 0), noise=mid_key.public.ctx.zero())
        assert ct.vector.is_zero
        assert decrypt(mid_key.private, ct) == (0, 0)

    def test_identity_key_formula(self, small_key):
        ct = encrypt(small_key.public, (2,), noise=small_key.public.ctx.zero())
        assert ct.vector == small_key.public.ctx.element([2])
        assert decrypt(small_key.private, ct) == (2,)

    def test_noise_family_rejection(self):
        # delta = 1/4 at p=2, n=4: |sqrt-scale| noise (exponent 1/2) is
        # outside the p^k-scaled sampler family even though it satisfies
        # the bare inequality; exponent-1 noise is accepted.
        kp = keygen(2, 4, 2, (0, 1, 2, 3), [2, 2, 0, 0, 1], [0, 1],
                    matrix=[[1, 0], [1, 1]], delta=Fraction(1, 4))
        ctx = kp.public.ctx
        theta_like = kp.private.alpha[1] ** 2  # theta^2: exponent 1/2
        with pytest.raises(NoiseOutOfRange):
            encrypt(kp.public, (1, 0), noise=theta_like)
        ct = encrypt(kp.public, (1, 0), noise=ctx.element([2]))
        assert decrypt(kp.private, ct) == (1, 0)

    def test_roundtrip_random(self, mid_key):
        rng = random.Random(13)
        for _ in range(40):
            pt = tuple(rng.randrange(3) for _ in range(2))
            ct = encrypt(mid_key.public, pt, rng=rng)
            assert decrypt(mid_key.private, ct) == pt

    def test_overwhelming_noise_detected(self, mid_key):
        # noise at the basis scale is outside the design bound
        ct = Ciphertext(mid_key.public.basis[0] * Fraction(1, 3))
        with pytest.raises(DecryptionAmbiguous):
            decrypt(mid_key.private, ct)

    def test_plaintext_validation(self, mid_key):
        with pytest.raises(ValueError):
            encrypt(mid_key.public, (1,))
        with pytest.raises(ValueError):
            encrypt(mid_key.public, (1, 7))

    def test_singular_matrix_rejected(self, small_key):
        sk = dataclasses.replace(small_key.private,
                                 matrix=((small_key.public.ctx.scalar(3),),))
        ct = encrypt(small_key.public, (1,), noise=small_key.public.ctx.zero())
        with pytest.raises(BadMatrix):
            decrypt(sk, ct)

    def test_signature_key_cannot_encrypt(self):
        kp = keygen(3, 2, 1, (0, 1), [-3, 0, 1], [1, 1], matrix=[[1]])
        with pytest.raises(ValueError):
            encrypt(kp.public, (1,))


@pytest.fixture(scope="module")
def trapdoor_keys():
    """Seeded encryption keys of the benchmark shapes, one with a
    non-integral generator change (zeta has denominator 2) and one with
    m = n - 1."""
    keys = []
    for seed, p, n, m, den in [(21, 3, 14, 6, 1), (22, 2, 14, 4, 1), (23, 5, 12, 6, 2)]:
        j, f, zeta, rng = _seeded_key_inputs(seed, p, n, m, den)
        keys.append(keygen(p, n, m, j, f, zeta, delta=Fraction(1, 2), rng=rng))
    rng = random.Random(24)
    keys.append(keygen(3, 6, 5, (0, 1, 2, 3, 5, 4), random_eisenstein(rng, 3, 6),
                       random_zeta(rng, 3, 6), delta=1, rng=rng))
    return keys


def _lattice_member(rng, pk, coefficient):
    acc = pk.ctx.zero()
    for b in pk.basis:
        acc = acc + b * coefficient(rng, pk.ctx.p)
    return acc


class TestTrapdoorCvp:
    """The private CVP reads coordinates off Z*t; the exact solve against
    the hidden basis (``cvp_orthogonal``) stays as its oracle."""

    def test_matches_exact_solve(self, trapdoor_keys):
        rng = random.Random(31)
        for kp in trapdoor_keys:
            pk, sk = kp.public, kp.private
            p, m = pk.ctx.p, pk.m
            # the completion theta^(j_k), k > m, from theta's own coordinates
            # in the zeta power basis, solved in the theta context
            theta_ctx = make_context(p, sk.ctx.precision, sk.eisenstein)
            zeta = theta_ctx.element(sk.zeta_over_theta)
            powers = [theta_ctx.one()]
            for _ in range(sk.ctx.n - 1):
                powers.append(powers[-1] * zeta)
            theta = sk.ctx.element(fields.coordinates_in(theta_ctx, theta_ctx.gen(), powers))
            assert [a.key() for a in sk.alpha] == [(theta ** jk).key() for jk in sk.exponents[:m]]
            completion = [theta ** jk for jk in sk.exponents[m:]]
            targets = [hash_to_target(pk, b"trapdoor", bytes([i]) * 32) for i in range(3)]
            targets += [encrypt(pk, [rng.randrange(p) for _ in range(m)], rng=rng).vector
                        for _ in range(3)]
            member = _lattice_member(rng, pk, lambda r, q: r.randrange(-q ** 3, q ** 3))
            targets.append(member)
            # a member whose coordinates have p-unit denominators
            targets.append(_lattice_member(rng, pk, lambda r, q: Fraction(r.randrange(1, q ** 2), q + 1)))
            # lattice coordinates with p in the denominator
            targets.append(member + pk.basis[0] * Fraction(1, p))
            targets.append(targets[0] + pk.basis[-1] * Fraction(2, p ** 2))
            for t in targets:
                got = _private_cvp(sk, t)
                want = cvp_orthogonal(sk.ctx, sk.alpha, completion, t)
                assert got.vector.key() == want.vector.key()
                assert got.distance == want.distance
                assert got.lattice_coords == want.lattice_coords
                assert ([c.to_fraction() for c in got.lattice_coords]
                        == [c.to_fraction() for c in want.lattice_coords])
                # the vector is its kept coordinates on alpha, summed term by term
                summed = sk.ctx.zero()
                for c, a in zip(got.lattice_coords, sk.alpha):
                    summed = summed + a * c.to_fraction()
                assert got.vector.key() == summed.key()
            assert _private_cvp(sk, member).distance.is_zero
            assert _private_cvp(sk, member).vector == member
            assert _private_cvp(sk, targets[-3]).distance.is_zero
            assert not _private_cvp(sk, targets[-2]).distance.is_zero

    def test_private_operations_make_no_solve(self, trapdoor_keys, monkeypatch):
        # sign's CVP and all of decrypt run without an exact solve, and
        # decrypt without a norm query
        kp = trapdoor_keys[0]
        pk, sk = kp.public, kp.private
        rng = random.Random(32)
        plain = [tuple(rng.randrange(pk.ctx.p) for _ in range(pk.m)) for _ in range(3)]
        cts = [encrypt(pk, pt, rng=rng) for pt in plain]
        targets = [hash_to_target(pk, b"pin", bytes([i]) * 32) for i in range(3)]
        want = [_private_cvp(sk, t).vector.key() for t in targets]

        def refuse(*args, **kwargs):
            raise AssertionError("an exact solve or a norm query was made")

        for module in (fields, lattices, schemes):
            monkeypatch.setattr(module, "coordinates_in", refuse)
        monkeypatch.setattr(fields, "_solve_exact", refuse)
        for name in ("norm_valuation", "norm_valuations", "norm_exceeds", "abs_value",
                     "abs_values", "abs_less_than"):
            monkeypatch.setattr(NormEngine, name, refuse)
        assert [decrypt(sk, ct) for ct in cts] == plain
        assert [_private_cvp(sk, t).vector.key() for t in targets] == want


class TestSchemeChecksTakeNoDeterminant:
    """keygen's unit-norm check is one GF(p) gcd per vector, and encrypt
    tests its sampled noise on the integral draw before scaling."""

    @pytest.mark.parametrize("seed, p, n, m", [(71, 3, 14, 6), (72, 2, 14, 4)])
    def test_keygen_and_encrypt(self, seed, p, n, m, monkeypatch):
        def refuse(*args):
            raise AssertionError("a determinant was taken")

        monkeypatch.setattr(fields, "_det_valuation", refuse)
        j, f, zeta, rng = _seeded_key_inputs(seed, p, n, m, 1)
        kp = keygen(p, n, m, j, f, zeta, delta=Fraction(1, 2), rng=rng)
        plains = [tuple(rng.randrange(p) for _ in range(m)) for _ in range(3)]
        cts = [encrypt(kp.public, plain, rng=rng) for plain in plains]
        monkeypatch.undo()
        assert [decrypt(kp.private, ct) for ct in cts] == plains


class TestKeygenDerivesOnce:
    """keygen solves for F and the lattice part of alpha only, and hands
    the private operations a trapdoor they never rebuild."""

    @pytest.mark.parametrize("seed, p, n, m", [(61, 3, 14, 6), (62, 2, 14, 4), (63, 5, 10, 5)])
    def test_one_block_solve_with_m_plus_one_targets(self, seed, p, n, m, monkeypatch):
        widths = []
        solve = schemes._solve_exact

        def counted(columns, targets):
            widths.append(len(targets))
            return solve(columns, targets)

        monkeypatch.setattr(schemes, "_solve_exact", counted)
        j, f, zeta, rng = _seeded_key_inputs(seed, p, n, m, 1)
        kp = keygen(p, n, m, j, f, zeta, rng=rng)
        assert widths == [m + 1]
        assert len(kp.private.alpha) == m

    def test_private_operations_reuse_the_trapdoor(self, monkeypatch):
        j, f, zeta, rng = _seeded_key_inputs(64, 3, 14, 6, 1)
        kp = keygen(3, 14, 6, j, f, zeta, delta=Fraction(1, 2), rng=rng)
        pk, sk = kp.public, kp.private
        assert dataclasses.replace(sk, delta=None).trapdoor is sk.trapdoor

        def refuse(*args, **kwargs):
            raise AssertionError("key material was derived again")

        monkeypatch.setattr(schemes, "make_context", refuse)
        monkeypatch.setattr(fields.FieldElement, "__mul__", refuse)
        sigs = [sign(sk, pk, b"once%d" % i, rng=rng) for i in range(3)]
        for _ in range(3):
            plain = tuple(rng.randrange(3) for _ in range(6))
            assert decrypt(sk, encrypt(pk, plain, rng=rng)) == plain
        monkeypatch.undo()
        assert all(verify(pk, b"once%d" % i, sig) for i, sig in enumerate(sigs))


def _count_solves_and_misses(monkeypatch):
    """Record every exact solve and every candidate the mod-p certificate
    leaves undecided."""
    seen = {"solves": 0, "misses": 0, "hits": 0}
    solve, certify = fields._solve_exact, schemes._outside_mod_p

    def counted_solve(*args, **kwargs):
        seen["solves"] += 1
        return solve(*args, **kwargs)

    def counted_certify(pk, x):
        out = certify(pk, x)
        seen["hits" if out else "misses"] += 1
        return out

    monkeypatch.setattr(fields, "_solve_exact", counted_solve)
    monkeypatch.setattr(schemes, "_outside_mod_p", counted_certify)
    return seen


class TestMembershipCertificate:
    """[beta | t] of rank m + 1 mod p certifies t outside L: never for a
    member, and never against ``in_lattice``."""

    COEFFICIENTS = [
        lambda r, p: r.randrange(-p ** 4, p ** 4),
        lambda r, p: p * r.randrange(1, p ** 2),           # non-unit
        lambda r, p: Fraction(r.randrange(-p ** 2, p ** 2), r.choice([1, p + 1, 2 * p + 1])),
        lambda r, p: p ** r.randrange(1, 4),                # p * beta_i sums
    ]

    def test_never_fires_on_a_member(self, trapdoor_keys):
        rng = random.Random(41)
        for kp in trapdoor_keys:
            pk = kp.public
            assert pk._kernel_mod_p is not None
            members = [b * pk.ctx.p for b in pk.basis]
            members += [_lattice_member(rng, pk, c) for c in self.COEFFICIENTS for _ in range(8)]
            members += [_lattice_member(rng, pk, rng.choice(self.COEFFICIENTS)) for _ in range(8)]
            for x in members:
                assert in_lattice(pk, x)
                assert not _outside_mod_p(pk, x)

    def test_fires_only_outside(self, trapdoor_keys):
        rng = random.Random(42)
        for kp in trapdoor_keys:
            pk = kp.public
            p, n = pk.ctx.p, pk.ctx.n
            fired = 0
            candidates = [pk.ctx.element([rng.randrange(p) for _ in range(n)])
                          for _ in range(40)]
            candidates += [pk.ctx.element([Fraction(rng.randrange(p ** 3), rng.choice([1, p + 1, p]))
                                           for _ in range(n)]) for _ in range(10)]
            # members nudged by p times a non-member stay undecided mod p
            candidates += [_lattice_member(rng, pk, self.COEFFICIENTS[0]) + c * p
                           for c in candidates[:5]]
            for x in candidates:
                if _outside_mod_p(pk, x):
                    fired += 1
                    assert not in_lattice(pk, x)
            # a share 1 - p^-(n-m) of the 40 digit vectors is expected to fire
            assert fired >= 20

    def test_p_in_a_basis_denominator_takes_the_exact_path(self, trapdoor_keys, monkeypatch):
        pk = trapdoor_keys[0].public
        p = pk.ctx.p
        odd = PublicKey(pk.ctx, (pk.basis[0] * Fraction(1, p),) + pk.basis[1:], pk.delta)
        assert odd._kernel_mod_p is None
        assert not _outside_mod_p(odd, pk.ctx.one() + pk.ctx.gen())
        seen = _count_solves_and_misses(monkeypatch)
        for i in range(3):
            t = hash_to_target(odd, b"odd", bytes([i]) * 32)
            assert not in_lattice(odd, t)
        assert seen["hits"] == 0
        assert seen["solves"] == seen["misses"] + 3 >= 6

    def test_same_targets_as_the_exact_path(self, trapdoor_keys, monkeypatch):
        for kp in trapdoor_keys:
            pk = kp.public
            salts = [bytes([i]) * 32 for i in range(4)]
            fast = [hash_to_target(pk, b"same", s).key() for s in salts]
            with monkeypatch.context() as patch:
                patch.setattr(schemes, "_outside_mod_p", lambda pk, x: False)
                assert [hash_to_target(pk, b"same", s).key() for s in salts] == fast


class TestSolveCounts:
    """Exact solves left in the schemes: one per candidate the certificate
    leaves undecided, plus the signature's membership in verify."""

    def test_hash_sign_verify(self, trapdoor_keys, monkeypatch):
        kp = trapdoor_keys[1]
        pk, sk = kp.public, kp.private
        rng = random.Random(51)
        seen = _count_solves_and_misses(monkeypatch)
        for i in range(4):
            hash_to_target(pk, b"count", bytes([i]) * 32)
        assert seen["solves"] == seen["misses"]
        assert seen["hits"] >= 4
        for i in range(4):
            before = dict(seen)
            sig = sign(sk, pk, b"count%d" % i, rng=rng)
            assert seen["solves"] - before["solves"] == seen["misses"] - before["misses"]
            before = dict(seen)
            assert verify(pk, b"count%d" % i, sig)
            assert seen["solves"] - before["solves"] == seen["misses"] - before["misses"] + 1

    def test_verify_builds_one_engine(self, trapdoor_keys, monkeypatch):
        kp = trapdoor_keys[1]
        sig = sign(kp.private, kp.public, b"one", rng=random.Random(52))
        built = []
        init = NormEngine.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(NormEngine, "__init__", counted)
        assert verify(kp.public, b"one", sig)
        assert len(built) == 1
