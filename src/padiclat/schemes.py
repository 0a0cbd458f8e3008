"""The lattice signature scheme and public-key cryptosystem over K.

Key generation picks a totally ramified field via an Eisenstein polynomial
f, re-expresses everything over a second generator zeta (whose minimal
polynomial F is the public description of the field), and hides an
orthogonal basis of uniformizer powers behind a unimodular mix.  Signing
and decryption solve CVP against the hidden orthogonal basis through the
trapdoor: a target's coordinates in it are its theta-coordinates, one
integer matrix product away, so no linear system is solved.  Verification
and encryption only ever touch the public data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

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
    _element_residues,
    _element_scale,
    _integer_rows,
    _linear_combination,
    _powers,
    _scaled_norm_is_unit,
    _solve_exact,
    _solve_mod,
    coordinates_in,
    is_eisenstein,
    make_context,
)
from .lattices import _cvp_from_coordinates
from .scalars import DEFAULT_PRECISION, PadicScalar

DEFAULT_TAG = b"padiclat-hash-v1"
SALT_BYTES = 32
HASH_CANDIDATE_CAP = 1 << 16
SIGN_ATTEMPT_CAP = 64


def default_xof(seed: bytes, nbytes: int) -> bytes:
    """Extendable-output hash with consistent prefixes."""
    import hashlib  # loaded on first hash: it pulls in OpenSSL

    return hashlib.shake_256(seed).digest(nbytes)


@dataclass(frozen=True)
class PublicKey:
    """Public field polynomial (as a context), unit-norm basis and noise
    bound (encryption only)."""

    ctx: FieldContext
    basis: tuple
    delta: Fraction | None = None

    @property
    def m(self) -> int:
        return len(self.basis)

    @cached_property
    def _kernel_mod_p(self):
        """Rows spanning the left kernel of the basis mod p (y with
        y . beta_i = 0 mod p for every i), or None when a basis coordinate
        has p in its denominator or the basis is singular mod p.

        A member of L reduces mod p into the span of the reduced basis, so
        it passes every row; an element that fails one is outside L."""
        p, m = self.ctx.p, self.m
        if any(_element_scale(b) for b in self.basis):
            return None
        cols = [_element_residues(b, 1) for b in self.basis]
        rows = [[v[i] for v in cols]
                + [int(i == k) for k in range(self.ctx.n)]
                for i in range(self.ctx.n)]
        reduced = _solve_mod(rows, p, 1, width=m)
        return None if reduced is None else tuple(tuple(r) for r in reduced[m:])


@dataclass(frozen=True)
class PrivateKey:
    """Everything the legitimate party keeps: the Eisenstein polynomial,
    the generator change, the exponent list, the mixing matrix, the hidden
    lattice basis alpha_k = theta^(j_k), k = 1..m, and the trapdoor
    (rows, den): row k over den is row j_k of Z, whose columns are
    zeta^0 .. zeta^(n-1) over theta, so (Z*t)[j_k] is the k-th coordinate
    of t in the full orthogonal basis theta^(j_1) .. theta^(j_n)."""

    eisenstein: tuple
    zeta_over_theta: tuple
    exponents: tuple
    matrix: tuple
    alpha: tuple
    trapdoor: tuple = field(repr=False, compare=False)
    delta: Fraction | None = None

    @property
    def ctx(self) -> FieldContext:
        return self.alpha[0].ctx

    @property
    def m(self) -> int:
        return len(self.alpha)


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


def random_eisenstein(rng, p: int, n: int):
    """A random Eisenstein f of degree n, constant term first: p times a
    unit digit, then p times digits, then the leading 1."""
    coeffs = [p * rng.randrange(1, p)] + [p * rng.randrange(p) for _ in range(n - 1)]
    return coeffs + [1]


def random_zeta(rng, p: int, n: int):
    """Random digits of a generator over theta whose theta coefficient is a
    unit (``keygen`` rejects any other); redraws the whole vector until so."""
    while True:
        z = [rng.randrange(p) for _ in range(n)]
        if z[1] % p:
            return z


def check_delta(first, delta: Fraction, n: int):
    """DeltaTooSmall unless each of a key's first m exponents is at most
    delta * n, which correct decryption needs."""
    bad = [x for x in first if x > delta * n]
    if bad:
        raise DeltaTooSmall(
            f"exponent {bad[0]} exceeds delta*n = {delta * n}; decryption "
            "would be incorrect")


def keygen(p: int, n: int, m: int, exponents, eisenstein_coeffs, zeta_over_theta,
           *, delta=None, matrix=None, rng=None,
           precision: int = DEFAULT_PRECISION) -> KeyPair:
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
        check_delta(j[:m], delta, n)

    theta_ctx = make_context(p, precision, eisenstein_coeffs,
                             ramification=n, residue_degree=1)
    if theta_ctx.n != n:
        raise ValueError("Eisenstein polynomial degree disagrees with n")
    if not is_eisenstein(p, theta_ctx.modulus):
        raise NotEisenstein("f must be Eisenstein at p")
    zeta = theta_ctx.element(zeta_over_theta)
    if _element_scale(zeta):
        raise NotIntegral("zeta must be integral over theta")
    if _element_residues(zeta, 1)[1] == 0:
        raise DegenerateGenerator(
            "the theta-coefficient of zeta is divisible by p, so zeta does "
            "not generate the ring of integers")

    # The public data come from one exact block solve over the zeta power
    # basis.  zeta generates K (zeta - a_0 is a uniformizer), so its minimal
    # polynomial F is the monic relation among 1, zeta, ..., zeta^n, and the
    # coordinates of theta^(j_k), k <= m, give the hidden lattice basis.
    zeta_powers = _powers(zeta, n)
    targets = [zeta_powers[-1] * zeta] + [theta_ctx.monomial(jk) for jk in j[:m]]
    top, *alpha_coords = _solve_exact(zeta_powers, targets)
    F = [-c for c in top] + [1]
    ctx = make_context(p, precision, F, ramification=n, residue_degree=1)
    alpha = [ctx.element(c) for c in alpha_coords]
    rows, den = _integer_rows(zeta_powers)
    trapdoor = tuple(tuple(row[jk] for row in rows) for jk in j), den

    A = _make_matrix(p, m, matrix, rng, precision)
    beta = [_linear_combination(ctx, row, alpha) for row in A]
    # zeta generates O_K, so a unit-norm vector has scale 0 and a unit
    # norm mod p: one GF(p) gcd each, no determinant
    if any(_element_scale(b) or not _scaled_norm_is_unit(b) for b in beta):
        raise BadMatrix("public basis vector is not unit-norm")

    public = PublicKey(ctx, tuple(beta), delta)
    private = PrivateKey(
        eisenstein=theta_ctx.modulus,
        zeta_over_theta=zeta.coeffs,
        exponents=j,
        matrix=tuple(tuple(r) for r in A),
        alpha=tuple(alpha),
        trapdoor=trapdoor,
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
        if any(x.p != p for row in rows for x in row):
            raise ValueError("mixed primes")
        res = [[x.residue(1) if x.is_zero or x.valuation >= 0 else None
                for x in row] for row in rows]
        if any(x is None for row in res for x in row):
            raise BadMatrix("matrix entries must lie in Z_p")
        if _solve_mod(res, p, 1) is None:
            raise BadMatrix("matrix determinant is not a unit")
        if any(row[0] == 0 for row in res):
            raise BadMatrix("first column must be all units")
        return rows
    rng = rng or random.SystemRandom()
    bound = p ** precision
    while True:
        raw = [[rng.randrange(bound) for _ in range(m)] for _ in range(m)]
        if all(row[0] % p for row in raw) and _solve_mod(raw, p, 1) is not None:
            return [[PadicScalar.from_fraction(Fraction(x), p=p, precision=precision)
                     for x in row] for row in raw]


class _DigitStream:
    """Unbiased base-p digits from an extendable-output hash.  A digit is a
    draw of the fewest big-endian bytes that hold p (one for p < 256), mod
    p; draws at or above the largest multiple of p they can hold are
    rejected."""

    def __init__(self, seed: bytes, p: int, xof=None):
        self.seed = seed
        self.p = p
        self.xof = xof or default_xof
        self.size = 256
        self.buf = self.xof(seed, self.size)
        self.pos = 0
        self.width = -(-p.bit_length() // 8)
        span = 256 ** self.width
        self.cut = span - span % p

    def _draw(self) -> int:
        rejected = 0
        while True:
            end = self.pos + self.width
            while end > len(self.buf):
                self.size *= 2
                self.buf = self.xof(self.seed, self.size)
            x = int.from_bytes(self.buf[self.pos:end], "big")
            self.pos = end
            if x < self.cut:
                return x
            rejected += 1
            if rejected > 4096:
                raise HashFailure("digit stream rejected 4096 draws in a row")

    def digits(self, count: int):
        return [self._draw() % self.p for _ in range(count)]


def _hash_seed(message: bytes, salt: bytes) -> bytes:
    return DEFAULT_TAG + len(message).to_bytes(8, "big") + message + salt


def in_lattice(pk: PublicKey, x: FieldElement) -> bool:
    """Whether x is a Z_p-combination of the public basis."""
    try:
        coords = coordinates_in(pk.ctx, x, pk.basis)
    except NotInSpan:
        return False
    # a reduced rational lies in Z_p exactly when p does not divide its denominator
    return all(c.denominator % pk.ctx.p for c in coords)


def _outside_mod_p(pk: PublicKey, x: FieldElement) -> bool:
    """True only when x is certainly outside the public lattice: x is
    p-integral and [beta | x] has rank m + 1 mod p.  A member
    sum c_i beta_i (c_i in Z_p) has rank at most m there, so the answer
    is never True for one; False decides nothing."""
    kernel = pk._kernel_mod_p
    p = pk.ctx.p
    if kernel is None or _element_scale(x):
        return False
    xbar = _element_residues(x, 1)
    return any(sum(a * b for a, b in zip(row, xbar)) % p for row in kernel)


def hash_to_target(pk: PublicKey, message: bytes, salt: bytes, *, xof=None) -> FieldElement:
    """Deterministic hash onto unit-norm field elements outside the public
    lattice, by rejection sampling candidate digit vectors from an XOF.
    Almost every candidate is certified outside mod p; only the rest take
    the exact membership solve."""
    if pk.m >= pk.ctx.n:
        raise ValueError("hash target set is empty for full-rank lattices")
    stream = _DigitStream(_hash_seed(message, salt), pk.ctx.p, xof)
    for _ in range(HASH_CANDIDATE_CAP):
        t = pk.ctx.element(stream.digits(pk.ctx.n))
        if t.is_zero or not _scaled_norm_is_unit(t):  # t is integral: one GF(p) gcd
            continue
        if _outside_mod_p(pk, t) or not in_lattice(pk, t):
            return t
    raise HashFailure("rejection sampling exceeded its candidate cap")


def _private_cvp(sk: PrivateKey, target: FieldElement):
    """CVP against the hidden basis alpha: the target's coordinates are
    read off Z*t and the norm exponents are j_k / n, so neither a solve
    nor a norm query is needed."""
    rows, den = sk.trapdoor
    (ints,), tden = _integer_rows([target])
    den *= tden
    coords = [Fraction(sum(a * b for a, b in zip(row, ints)), den) for row in rows]
    n = sk.ctx.n
    exponents = [Fraction(jk, n) for jk in sk.exponents]
    return _cvp_from_coordinates(sk.ctx, sk.alpha, coords, exponents)


def sign_detailed(sk: PrivateKey, pk: PublicKey, message: bytes, *, rng=None, xof=None):
    """(signature, salt attempts).  One salt always suffices because the
    identity lies in the lattice, so the CVP distance to any unit-norm hash
    output is below 1; the retry loop is kept for fidelity."""
    rng = rng or random.SystemRandom()
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
        vec = pk.ctx.cast(sig.vector)
        if not in_lattice(pk, vec):
            return False
        diff = hash_to_target(pk, message, sig.salt, xof=xof) - vec
        return diff.is_zero or NormEngine(pk.ctx).norm_exceeds(diff, 0)
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
        rng = rng or random.SystemRandom()
        bound = pk.ctx.p ** pk.ctx.precision
        draws = [rng.randrange(bound) for _ in range(pk.ctx.n)]
        # |p^k u| < p^-delta exactly when |u| < p^(k - delta), which an
        # integral draw u meets with no determinant, as k > delta
        if not engine.abs_less_than(pk.ctx.element(draws), AbsValue(pk.delta - k)):
            raise NoiseOutOfRange("sampled noise failed its own bound")
        scale = pk.ctx.p ** k
        r = pk.ctx.element([d * scale for d in draws])
    return Ciphertext(_linear_combination(pk.ctx, [1] + digits, [r, *pk.basis]))


def decrypt(sk: PrivateKey, ct: Ciphertext):
    """Closest-vector decoding against the hidden orthogonal basis (through
    the trapdoor, with no solve and no norm query), then unmixing modulo p."""
    res = _private_cvp(sk, ct.vector)
    alpha_m = AbsValue.of(sk.exponents[sk.m - 1], sk.ctx.n)
    if not res.distance < alpha_m:
        raise DecryptionAmbiguous(
            "residual noise is at least |alpha_m|; outside the design bound")
    # the plaintext a has a*A = bbar mod p: solve A^T x = bbar
    bbar = [c.residue(1) for c in res.lattice_coords]
    rows = [[row[k].residue(1) for row in sk.matrix] + [bbar[k]]
            for k in range(sk.m)]
    x = _solve_mod(rows, sk.ctx.p, 1)
    if x is None:
        raise BadMatrix("matrix is singular mod p")
    return tuple(xi for xi, in x)
