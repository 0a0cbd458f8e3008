import random
from fractions import Fraction

import pytest

from padiclat.errors import FixtureTampered, InconsistentHeader, ParseError
from padiclat.fields import NormEngine, coordinates_in, make_context
from padiclat.fileio import (
    emit_ciphertext,
    emit_key_pair,
    emit_public_key,
    emit_signature,
    parse_ciphertext,
    parse_key_file,
    parse_signature,
)
from padiclat.fixtures import _DIGESTS, fixture_text, toy_ciphertext, toy_public_key
from padiclat.schemes import KeyPair, PublicKey, encrypt, hash_to_target, keygen, sign


@pytest.fixture(scope="module")
def pair():
    rng = random.Random(99)
    return keygen(3, 4, 2, (0, 1, 2, 3), [3, 3, 3, 3, 1], [1, 1, 0, 0],
                  rng=rng, delta=Fraction(1, 2))


class TestKeyFiles:
    def test_public_roundtrip(self, pair):
        text = emit_public_key(pair.public)
        pk = parse_key_file(text)
        assert not isinstance(pk, KeyPair)
        assert pk.delta == pair.public.delta
        assert all(a == b for a, b in zip(pk.basis, pair.public.basis))
        assert emit_public_key(pk) == text
        # the re-parsed key hashes messages onto the same targets
        for message, salt in [(b"", b"\x00" * 32), (b"msg", b"\x01" * 32),
                              (b"x" * 40, b"\x7f" * 32)]:
            assert (hash_to_target(pk, message, salt).key()
                    == hash_to_target(pair.public, message, salt).key())

    def test_public_roundtrip_with_uniformizer_block(self, pair):
        # zeta = a_0 + a_1 theta + ..., a_1 a unit, so gamma = zeta - a_0 is a
        # uniformizer; in the public field zeta is the generator z
        ctx, n = pair.public.ctx, pair.public.ctx.n
        gamma = ctx.gen() - ctx.one() * pair.private.zeta_over_theta[0]
        assert NormEngine(ctx).norm_valuation(gamma) == 1
        powers = [gamma ** k for k in range(n)]
        coords = [coordinates_in(ctx, b, powers) for b in pair.public.basis]
        text = emit_public_key(pair.public, gamma, coords)
        assert text.startswith(emit_public_key(pair.public))
        assert f"gamma= {' '.join(str(f) for f in gamma.fracs)}\n" in text
        pk = parse_key_file(text)
        assert [b.identity for b in pk.basis] == [b.identity for b in pair.public.basis]
        lines = text.splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("beta_gamma.2= "))
        parts = lines[row].split()
        parts[1] = str(Fraction(parts[1]) + 1)
        lines[row] = " ".join(parts)
        with pytest.raises(ParseError, match="beta_gamma.2 disagrees with beta.2"):
            parse_key_file("\n".join(lines) + "\n")

    def test_pair_roundtrip(self, pair):
        text = emit_key_pair(pair)
        kp = parse_key_file(text)
        assert isinstance(kp, KeyPair)
        assert kp.private.exponents == pair.private.exponents
        assert all(a == b for a, b in zip(kp.public.basis, pair.public.basis))
        assert emit_key_pair(kp) == text

    def test_integers_past_the_string_limit(self):
        # str() and int() refuse more than 4300 decimal digits by default
        ctx = make_context(3, 128, [-6, 0, 1])
        big = 10 ** 4999 + 7
        pk = PublicKey(ctx, (ctx.element([big, Fraction(-2, big)]),))
        text = emit_public_key(pk)
        assert len(text) > 10000
        back = parse_key_file(text)
        assert back.basis[0].identity == pk.basis[0].identity
        assert emit_public_key(back) == text

    def test_wrong_vector_length(self, pair):
        text = emit_public_key(pair.public)
        bad = text.replace("beta.1= ", "beta.1= 7 ")
        with pytest.raises(ParseError):
            parse_key_file(bad)

    def test_unknown_line_rejected(self, pair):
        text = emit_public_key(pair.public) + "color=blue\n"
        with pytest.raises(ParseError):
            parse_key_file(text)

    def test_duplicate_line_rejected(self, pair):
        text = emit_public_key(pair.public)
        with pytest.raises(ParseError):
            parse_key_file(text + "p=3\n")

    def test_missing_field(self, pair):
        text = emit_public_key(pair.public).replace("m=2\n", "")
        with pytest.raises(ParseError):
            parse_key_file(text)

    def test_tampered_private_section(self, pair):
        text = emit_key_pair(pair)
        bad = text.replace("zeta= 1 1 0 0", "zeta= 1 2 0 0")
        with pytest.raises(InconsistentHeader):
            parse_key_file(bad)

    def test_header_dimension_check(self, pair):
        text = emit_public_key(pair.public).replace("m=2", "m=9")
        with pytest.raises((ParseError, InconsistentHeader)):
            parse_key_file(text)


class TestPayloadFiles:
    def test_ciphertext_roundtrip(self, pair):
        rng = random.Random(5)
        ct = encrypt(pair.public, (1, 2), rng=rng)
        text = emit_ciphertext(ct)
        again = parse_ciphertext(text, pair.public.ctx)
        assert again.vector == ct.vector
        assert emit_ciphertext(again) == text

    def test_ciphertext_header_mismatch(self, pair):
        ct = encrypt(pair.public, (1, 2), rng=random.Random(5))
        text = emit_ciphertext(ct).replace("p=3", "p=5")
        with pytest.raises(InconsistentHeader):
            parse_ciphertext(text, pair.public.ctx)

    def test_signature_roundtrip(self, pair):
        sig = sign(pair.private, pair.public, b"msg", rng=random.Random(6))
        text = emit_signature(sig)
        again = parse_signature(text, pair.public.ctx)
        assert again == sig
        assert emit_signature(again) == text

    def test_signature_bad_salt(self, pair):
        sig = sign(pair.private, pair.public, b"msg", rng=random.Random(6))
        text = emit_signature(sig).replace(f"r={sig.salt.hex()}", "r=zz")
        with pytest.raises(ParseError):
            parse_signature(text, pair.public.ctx)


class TestFixtures:
    def test_toy_public_key_loads(self):
        pk = toy_public_key()
        assert pk.ctx.p == 2 and pk.ctx.n == 20 and pk.m == 4
        assert pk.delta == Fraction(1, 5)

    def test_toy_ciphertext_loads(self):
        pk = toy_public_key()
        ct = toy_ciphertext(pk)
        assert len(ct.vector.coeffs) == 20

    def test_digest_pinning(self, monkeypatch):
        import padiclat.fixtures as fx

        monkeypatch.setitem(_DIGESTS, "toy.ct", "0" * 64)
        with pytest.raises(FixtureTampered):
            fx.fixture_text("toy.ct")

    def test_gamma_cross_check_fires(self):
        text = fixture_text("toy.pub")
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("beta_gamma.2= "):
                parts = line.split()
                parts[1] = "41"  # perturb one coefficient
                lines[i] = " ".join(parts)
        with pytest.raises(ParseError):
            parse_key_file("\n".join(lines) + "\n")


class TestToyCiphertextComposition:
    def test_ciphertext_is_basis_sum_plus_stated_noise(self):
        # the shipped ciphertext literally equals beta1 + beta2 + beta4 + r
        # for the documented noise polynomial
        pk = toy_public_key()
        ct = toy_ciphertext(pk)
        ctx = pk.ctx
        noise_coeffs = [0] * 20
        for i, c in [(19, 1), (18, 1), (16, 3), (15, 2), (14, 3), (13, 1),
                     (12, 3), (10, 2), (9, 3), (7, 2), (6, 2), (4, 3), (3, 3),
                     (0, 1)]:
            noise_coeffs[i] = c
        r = ctx.element(noise_coeffs)
        lhs = pk.basis[0] + pk.basis[1] + pk.basis[3] + r
        assert lhs == ct.vector
        # and the noise satisfies the key's bound |r| < p^-delta
        from padiclat.fields import NormEngine

        exp = NormEngine(ctx).abs_value(r).exponent
        assert exp == Fraction(1, 4) and exp > pk.delta
