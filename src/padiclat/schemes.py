"""The lattice signature scheme and public-key cryptosystem over K.

Key generation picks a totally ramified field via an Eisenstein polynomial
f, re-expresses everything over a second generator zeta (whose minimal
polynomial F is the public description of the field), and hides an
orthogonal basis of uniformizer powers behind a unimodular mix.  Signing
and decryption solve CVP against the hidden orthogonal basis; verification
and encryption only ever touch the public data.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadExponents,
    BadMatrix,
    DecryptionAmbiguous,
    DegenerateGenerator,
    DeltaTooSmall,
    HashFailure,
    NoiseOutOfRange,
    NotEisenstein,
    NotInSpan,
    NotIntegral,
    PadicError,
)
from .fields import (
    AbsValue,
    FieldContext,
    FieldElement,
    NormEngine,
    _clear_denominators,
    _exact_fracs,
    _from_fracs,
    _solve_exact,
    coordinates_in,
    is_eisenstein,
    make_context,
)
from .lattices import cvp_orthogonal
from .scalars import DEFAULT_PRECISION, PadicScalar

DEFAULT_TAG = b"padiclat-hash-v1"
SALT_BYTES = 32
HASH_CANDIDATE_CAP = 1 << 16
SIGN_ATTEMPT_CAP = 64


def default_xof(seed: bytes, nbytes: int) -> bytes:
    """Extendable-output hash with consistent prefixes."""
    return hashlib.shake_256(seed).digest(nbytes)


@dataclass(frozen=True)
class PublicKey:
    """Public field polynomial (as a context), unit-norm basis, noise
    bound (encryption only) and hash domain tag."""

    ctx: FieldContext
    basis: tuple
    delta: Fraction | None = None
    tag: bytes = DEFAULT_TAG

    @property
    def m(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class PrivateKey:
    """Everything the legitimate party keeps: the Eisenstein polynomial,
    the generator change, the exponent list, the mixing matrix, and the
    derived orthogonal basis (lattice part first, completion after)."""

    eisenstein: tuple
    zeta_over_theta: tuple
    exponents: tuple
    matrix: tuple
    alpha: tuple
    m: int
    delta: Fraction | None = None

    @property
    def ctx(self) -> FieldContext:
        return self.alpha[0].ctx


@dataclass(frozen=True)
class KeyPair:
    public: PublicKey
    private: PrivateKey


@dataclass(frozen=True)
class Signature:
    salt: bytes
    vector: FieldElement


@dataclass(frozen=True)
class Ciphertext:
    vector: FieldElement


def keygen(p: int, n: int, m: int, exponents, eisenstein_coeffs, zeta_over_theta,
           *, delta=None, matrix=None, rng=None, precision: int = DEFAULT_PRECISION,
           tag: bytes = DEFAULT_TAG) -> KeyPair:
    """Generate a key pair.

    ``eisenstein_coeffs`` define f (constant term first), ``zeta_over_theta``
    gives the second generator as coefficients over theta, ``exponents`` is
    the full list j_1..j_n of uniformizer powers (j_1 = 0, distinct values
    in 0..n-1, first m sorted ascending), and ``matrix`` is an m x m
    unimodular mix (sampled from ``rng`` when omitted).  ``delta`` enables
    encryption keys and is checked against the exponents.
    """
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    j = tuple(int(x) for x in exponents)
    if len(j) != n or len(set(j)) != n or any(not 0 <= x < n for x in j):
        raise BadExponents("exponents must be n distinct values in 0..n-1")
    if j[0] != 0:
        raise BadExponents("the first exponent must be 0")
    if list(j[:m]) != sorted(j[:m]):
        raise BadExponents("the first m exponents must be ascending")
    if delta is not None:
        delta = Fraction(delta)
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        bad = [x for x in j[:m] if x > delta * n]
        if bad:
            raise DeltaTooSmall(
                f"exponent {bad[0]} exceeds delta*n = {delta * n}; decryption "
                "would be incorrect")

    theta_ctx = make_context(p, precision, eisenstein_coeffs,
                             ramification=n, residue_degree=1)
    if theta_ctx.n != n:
        raise ValueError("Eisenstein polynomial degree disagrees with n")
    if not is_eisenstein(p, theta_ctx.modulus):
        raise NotEisenstein("f must be Eisenstein at p")
    zeta = theta_ctx.element(zeta_over_theta)
    for cseries in zeta.coeffs:
        if not cseries.is_zero and cseries.valuation < 0:
            raise NotIntegral("zeta must be integral over theta")
    if zeta.coeffs[1].residue_digit() == 0:
        raise DegenerateGenerator(
            "the theta-coefficient of zeta is divisible by p, so zeta does "
            "not generate the ring of integers")

    # Every derived quantity comes from one exact block solve over the zeta
    # power basis.  zeta generates K (zeta - a_0 is a uniformizer), so its
    # minimal polynomial F is the monic relation among 1, zeta, ..., zeta^n,
    # and the coordinates of theta^k give the private basis.
    zeta_powers = [theta_ctx.one()]
    for _ in range(n - 1):
        zeta_powers.append(zeta_powers[-1] * zeta)
    targets = [(zeta_powers[-1] * zeta).fractions()]
    targets += [[int(i == k) for i in range(n)] for k in range(n)]  # theta^0..theta^(n-1)
    top, *theta_coords = _solve_exact([z.fractions() for z in zeta_powers], targets)
    F = [-c for c in top] + [1]
    ctx = make_context(p, precision, F, ramification=n, residue_degree=1)
    alpha = [ctx.element(theta_coords[jk]) for jk in j]

    A = _make_matrix(p, m, matrix, rng, precision)
    # beta_i = sum_k A_ik alpha_k as one integer dot product per vector:
    # alpha[:m] share one denominator, each row of A has its own
    alpha_ints, alpha_den = _clear_denominators(
        [c for jk in j[:m] for c in theta_coords[jk]])
    alpha_ints = [alpha_ints[k * n:(k + 1) * n] for k in range(m)]
    beta = []
    for row in A:
        (fracs,), row_precision = _exact_fracs(ctx, row)
        ints, den = _clear_denominators(fracs)
        vec = [sum(a * v[i] for a, v in zip(ints, alpha_ints)) for i in range(n)]
        beta.append(_from_fracs(ctx, [Fraction(x, den * alpha_den) for x in vec],
                                row_precision))
    engine = NormEngine(ctx)
    for b in beta:
        if engine.norm_valuation(b) != 0:
            raise BadMatrix("public basis vector is not unit-norm")

    public = PublicKey(ctx, tuple(beta), delta, tag)
    private = PrivateKey(
        eisenstein=theta_ctx.modulus,
        zeta_over_theta=zeta.coeffs,
        exponents=j,
        matrix=tuple(tuple(r) for r in A),
        alpha=tuple(alpha),
        m=m,
        delta=delta,
    )
    return KeyPair(public, private)


def _make_matrix(p, m, matrix, rng, precision):
    """Validate an explicit mixing matrix or sample one: unit determinant
    and an all-unit first column (which forces unit-norm public vectors)."""
    if matrix is not None:
        rows = [[PadicScalar.from_fraction(Fraction(x), p=p, precision=precision)
                 if not isinstance(x, PadicScalar) else x for x in row]
                for row in matrix]
        if len(rows) != m or any(len(r) != m for r in rows):
            raise BadMatrix(f"matrix must be {m}x{m}")
        res = [[x.residue_digit() if x.is_zero or x.valuation >= 0 else None
                for x in row] for row in rows]
        if any(x is None for row in res for x in row):
            raise BadMatrix("matrix entries must lie in Z_p")
        if _gf_inverse(res, p) is None:
            raise BadMatrix("matrix determinant is not a unit")
        if any(row[0] == 0 for row in res):
            raise BadMatrix("first column must be all units")
        return rows
    rng = rng or secrets.SystemRandom()
    bound = p ** precision
    while True:
        raw = [[rng.randrange(bound) for _ in range(m)] for _ in range(m)]
        res = [[x % p for x in row] for row in raw]
        if all(row[0] % p for row in raw) and _gf_inverse(res, p) is not None:
            return [[PadicScalar.from_fraction(Fraction(x), p=p, precision=precision)
                     for x in row] for row in raw]


def _gf_inverse(rows, p):
    """Inverse of a square matrix over GF(p); None when it is singular."""
    n = len(rows)
    a = [[rows[i][j] % p for j in range(n)] + [1 if k == i else 0 for k in range(n)]
         for i in range(n)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return None
        a[k], a[piv] = a[piv], a[k]
        inv = pow(a[k][k], -1, p)
        a[k] = [x * inv % p for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


class _DigitStream:
    """Unbiased base-p digits from an extendable-output hash."""

    def __init__(self, seed: bytes, p: int, xof=None):
        self.seed = seed
        self.p = p
        self.xof = xof or default_xof
        self.size = 256
        self.buf = self.xof(seed, self.size)
        self.pos = 0
        self.cut = 256 - 256 % p

    def _byte(self) -> int:
        rejected = 0
        while True:
            if self.pos >= len(self.buf):
                self.size *= 2
                self.buf = self.xof(self.seed, self.size)
            b = self.buf[self.pos]
            self.pos += 1
            if b < self.cut:
                return b
            rejected += 1
            if rejected > 4096:
                raise HashFailure("digit stream rejected 4096 bytes in a row")

    def digits(self, count: int):
        return [self._byte() % self.p for _ in range(count)]


def _hash_seed(pk: PublicKey, message: bytes, salt: bytes) -> bytes:
    return pk.tag + len(message).to_bytes(8, "big") + message + salt


def in_lattice(pk: PublicKey, x: FieldElement) -> bool:
    """Whether x is a Z_p-combination of the public basis."""
    try:
        coords = coordinates_in(pk.ctx, x, pk.basis)
    except NotInSpan:
        return False
    return all(c.is_zero or c.valuation >= 0 for c in coords)


def hash_to_target(pk: PublicKey, message: bytes, salt: bytes, *, xof=None,
                   engine: NormEngine | None = None) -> FieldElement:
    """Deterministic hash onto unit-norm field elements outside the public
    lattice, by rejection sampling candidate digit vectors from an XOF."""
    if pk.m >= pk.ctx.n:
        raise ValueError("hash target set is empty for full-rank lattices")
    engine = engine or NormEngine(pk.ctx)
    stream = _DigitStream(_hash_seed(pk, message, salt), pk.ctx.p, xof)
    for _ in range(HASH_CANDIDATE_CAP):
        t = pk.ctx.element(stream.digits(pk.ctx.n))
        if t.is_zero or engine.norm_valuation(t) != 0:
            continue
        if not in_lattice(pk, t):
            return t
    raise HashFailure("rejection sampling exceeded its candidate cap")


def _private_cvp(sk: PrivateKey, target: FieldElement):
    return cvp_orthogonal(sk.ctx, sk.alpha[:sk.m], sk.alpha[sk.m:], target)


def sign_detailed(sk: PrivateKey, pk: PublicKey, message: bytes, *, rng=None, xof=None):
    """(signature, salt attempts).  One salt always suffices because the
    identity lies in the lattice, so the CVP distance to any unit-norm hash
    output is below 1; the retry loop is kept for fidelity."""
    rng = rng or secrets.SystemRandom()
    for attempt in range(1, SIGN_ATTEMPT_CAP + 1):
        salt = _draw_salt(rng)
        t = hash_to_target(pk, message, salt, xof=xof)
        res = _private_cvp(sk, t)
        if AbsValue.of(0) > res.distance:
            return Signature(salt, res.vector), attempt
    raise PadicError("signing retry cap exceeded; key material is inconsistent")


def sign(sk: PrivateKey, pk: PublicKey, message: bytes, *, rng=None, xof=None) -> Signature:
    return sign_detailed(sk, pk, message, rng=rng, xof=xof)[0]


def _draw_salt(rng) -> bytes:
    if hasattr(rng, "randbytes"):
        return rng.randbytes(SALT_BYTES)
    return bytes(rng.randrange(256) for _ in range(SALT_BYTES))


def verify(pk: PublicKey, message: bytes, sig: Signature, *, xof=None) -> bool:
    """Recompute the hash target and check membership plus |t - v| < 1.
    Malformed inputs verify as False rather than raising."""
    try:
        if len(sig.vector.coeffs) != pk.ctx.n:
            return False
        vec = pk.ctx.element(sig.vector.coeffs)
        if not in_lattice(pk, vec):
            return False
        t = hash_to_target(pk, message, sig.salt, xof=xof)
        engine = NormEngine(pk.ctx)
        diff = t - vec
        return diff.is_zero or engine.norm_exceeds(diff, 0)
    except (PadicError, ValueError):
        return False


def encrypt(pk: PublicKey, plaintext, *, rng=None, noise: FieldElement | None = None) -> Ciphertext:
    """C = sum a_i beta_i + r with |r| < p^-delta.

    The sampler draws an integral element and scales it by p^k for the
    smallest integer k exceeding delta, so sampled noise always has
    exponent >= k; explicitly supplied noise outside that family is
    rejected even when it satisfies the bare inequality.
    """
    if pk.delta is None:
        raise ValueError("this key has no noise bound; encryption unsupported")
    digits = list(plaintext)
    if len(digits) != pk.m:
        raise ValueError(f"plaintext must have {pk.m} digits")
    if any(not 0 <= d < pk.ctx.p for d in digits):
        raise ValueError("plaintext digits must lie in 0..p-1")
    k = int(pk.delta) + 1  # floor(delta) + 1 > delta
    engine = NormEngine(pk.ctx)
    if noise is not None:
        exp = engine.abs_value(noise)
        if not exp.is_zero and exp.exponent < k:
            raise NoiseOutOfRange(
                f"noise exponent {exp.exponent} below the sampler scale {k}")
        r = noise
    else:
        rng = rng or secrets.SystemRandom()
        bound = pk.ctx.p ** pk.ctx.precision
        scale = Fraction(pk.ctx.p) ** k
        r = pk.ctx.element([Fraction(rng.randrange(bound)) * scale
                            for _ in range(pk.ctx.n)])
        exp = engine.abs_value(r)
        if not exp.is_zero and not exp.exponent > pk.delta:
            raise NoiseOutOfRange("sampled noise failed its own bound")
    acc = r
    for d, b in zip(digits, pk.basis):
        if d:
            acc = acc + b * d
    return Ciphertext(acc)


def decrypt(sk: PrivateKey, ct: Ciphertext):
    """Closest-vector decoding against the hidden orthogonal basis, then
    unmixing modulo p."""
    res = _private_cvp(sk, ct.vector)
    alpha_m = AbsValue.of(sk.exponents[sk.m - 1], sk.ctx.n)
    if not res.distance < alpha_m:
        raise DecryptionAmbiguous(
            "residual noise is at least |alpha_m|; outside the design bound")
    bbar = [c.residue_digit() for c in res.lattice_coords]
    res_rows = [[x.residue_digit() for x in row] for row in sk.matrix]
    inv = _gf_inverse(res_rows, sk.ctx.p)
    if inv is None:
        raise BadMatrix("matrix is singular mod p")
    p = sk.ctx.p
    return tuple(sum(bbar[k] * inv[k][i] for k in range(sk.m)) % p
                 for i in range(sk.m))
