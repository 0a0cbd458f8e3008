"""Key-recovery attack using only the public key.

The ring of integers is the lattice spanned by the powers of the public
generator, and its second successive maximum is attained by uniformizers.
Recovering one therefore costs a single reduction run (or a constant-time
shift when gcd(n, p) = 1), after which powers of the uniformizer complete
any orthogonalized public basis and CVP becomes easy: signatures can be
forged and ciphertexts decrypted without private material.

Nothing in this module accepts a private key.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from .errors import NotCoprime, ReductionFailed
from .fields import AbsValue, FieldContext, FieldElement, NormEngine
from .lattices import complete_orthogonal, cvp_orthogonal
from .reduction import find_second_longest, orthogonalize
from .schemes import PublicKey, Signature, _draw_salt, hash_to_target


@dataclass(frozen=True)
class UniformizerResult:
    gamma: FieldElement
    lambda2: AbsValue
    abs_count: int


def _context_of(pk) -> FieldContext:
    return pk.ctx if isinstance(pk, PublicKey) else pk


def recover_uniformizer(pk, *, engine: NormEngine | None = None) -> UniformizerResult:
    """Second-maximum reduction on (1, z, ..., z^(n-1)): the witness is a
    uniformizer whenever the public polynomial cuts out a totally ramified
    extension; anything else fails the reduction."""
    ctx = _context_of(pk)
    engine = engine or NormEngine(ctx)
    basis = [ctx.monomial(i) for i in range(ctx.n)]
    res = find_second_longest(ctx, basis, engine=engine)
    if res.lambda2 != AbsValue.of(1, ctx.n):
        raise ReductionFailed(
            f"second maximum {res.lambda2} is not p^(-1/n); the field is "
            "not totally ramified")
    return UniformizerResult(res.witness, res.lambda2, res.abs_count)


def uniformizer_shortcut(pk, *, engine: NormEngine | None = None) -> FieldElement:
    """Constant-time uniformizer z + (F_{n-1} * n^{-1} mod p), valid when
    gcd(n, p) = 1; its size is checked (and cached) on ``engine``."""
    ctx = _context_of(pk)
    n, p = ctx.n, ctx.p
    if gcd(n, p) != 1:
        raise NotCoprime(f"gcd({n}, {p}) != 1")
    shift = ctx._modulus_residues(1)[n - 1] * pow(n % p, -1, p) % p
    gamma = ctx.gen() + ctx.element([shift])
    engine = engine or NormEngine(ctx)
    if engine.abs_value(gamma) != AbsValue.of(1, n):
        raise ReductionFailed("shifted generator is not a uniformizer")
    return gamma


def find_uniformizer(pk, *, engine: NormEngine | None = None) -> FieldElement:
    """Shortcut when gcd(n, p) = 1, reduction otherwise."""
    ctx = _context_of(pk)
    if gcd(ctx.n, ctx.p) == 1:
        try:
            return uniformizer_shortcut(pk, engine=engine)
        except ReductionFailed:
            pass
    return recover_uniformizer(pk, engine=engine).gamma


@dataclass(frozen=True)
class BrokenKey:
    """Orthogonal basis of the public lattice, the integer matrix that
    takes the public basis to it (ortho[k] = sum_j transform[k][j] *
    basis[j]), and its completion, all derived from the public key alone."""

    pk: PublicKey
    gamma: FieldElement
    ortho: tuple
    transform: tuple
    completion: tuple
    engine: NormEngine

    @classmethod
    def from_public(cls, pk: PublicKey) -> "BrokenKey":
        engine = NormEngine(pk.ctx)
        gamma = find_uniformizer(pk, engine=engine)
        # the rest of the break reads norms in gamma's power basis
        engine.adopt_uniformizer(gamma)
        res = orthogonalize(pk.ctx, pk.basis, engine=engine)
        full = complete_orthogonal(pk.ctx, res.basis, gamma, engine=engine)
        return cls(pk, gamma, res.basis, res.transform, tuple(full[len(res.basis):]), engine)

    def closest(self, target: FieldElement):
        return cvp_orthogonal(self.pk.ctx, self.ortho, self.completion, target,
                              engine=self.engine)


def _broken_key(pk: PublicKey, broken: BrokenKey | None) -> BrokenKey:
    """``broken``, checked to be a break of ``pk``, or a fresh break."""
    if broken is None:
        return BrokenKey.from_public(pk)
    if broken.pk != pk:
        raise ValueError("the broken key belongs to another public key")
    return broken


@dataclass(frozen=True)
class AttackDecryption:
    plaintext: tuple
    lattice_vector: FieldElement
    basis_coords: tuple


def attack_decrypt_detailed(pk: PublicKey, ciphertext,
                            broken: BrokenKey | None = None) -> AttackDecryption:
    """Decrypt from the public key alone; also reports the CVP witness and
    its coordinates in the public basis (the kept CVP coordinates times the
    break's transform, with no solve).  Pass a precomputed ``broken`` key
    of ``pk`` when decrypting many ciphertexts under one public key."""
    broken = _broken_key(pk, broken)
    target = ciphertext.vector if hasattr(ciphertext, "vector") else ciphertext
    res = broken.closest(target)
    kept = [c.to_fraction() for c in res.lattice_coords]
    coords = [pk.ctx.scalar(sum(c * u for c, u in zip(kept, column)))
              for column in zip(*broken.transform)]
    plain = tuple(c.residue(1) for c in coords)
    return AttackDecryption(plain, res.vector, tuple(coords))


def attack_decrypt(pk: PublicKey, ciphertext):
    return attack_decrypt_detailed(pk, ciphertext).plaintext


def forge_signature(pk: PublicKey, message: bytes, *, rng=None, xof=None,
                    broken: BrokenKey | None = None) -> Signature:
    """Produce a verifying signature without the private key.  Pass a
    precomputed ``broken`` key of ``pk`` when forging several messages."""
    rng = rng or random.SystemRandom()
    broken = _broken_key(pk, broken)
    salt = _draw_salt(rng)
    t = hash_to_target(pk, message, salt, xof=xof)
    res = broken.closest(t)
    if not AbsValue.of(0) > res.distance:
        raise ReductionFailed("forged vector is not strictly closer than 1")
    return Signature(salt, res.vector)
