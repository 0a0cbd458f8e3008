"""Arithmetic in K = Q_p[x]/(F(x)).

An element is one integer vector over one positive denominator, in
canonical form (no common factor); no other module reads that pair.  An
immutable context holds F once, in that format, and the one precision
every element of the field is read to.
Sums and scalar multiples are integer work plus one content gcd, a
product multiplies and reduces by F over Python ints (``_int_mul_mod``,
the one multiplier mod F, which ``bench`` shares), and a whole
combination sum c_k v_k (``_linear_combination``: public vectors, CVP
outputs, ciphertexts, the reduction's outputs) is one integer vector,
accumulated a term at a time, and one content gcd.  An
element's Fractions and :class:`PadicScalar` coefficients are built only
when read.  The extended absolute value |x| = |N(x)|^(1/n) is read in
the power basis of a uniformizer where the field has one at hand, and
otherwise from the valuation of the determinant of the multiplication
matrix, evaluated modulo p^M with full valuation pivoting.  M escalates
adaptively: a query only pays for as many digits as the answer needs,
which is what keeps the attack loops cheap at large degree.

Most contexts hold such a uniformizer from construction: when F is
p-integral, F mod p = (z - a)^n and F(z + a) is Eisenstein, gamma = z - a
is one (``_SelfFrame``: every keygen public key, every ``bench``
instance and every Eisenstein F).  z^j = (gamma + a)^j needs no
reduction for j < n, so the matrix to gamma's power basis has the closed
form C(j, k) a^(j-k) mod p^K, and every engine on the context starts
with that frame.

Every determinant valuation comes from one kernel: ``_det_valuation``,
one numpy elimination over a stack of matrices (a single matrix is a
stack of one), over int32 residues while p^(2M) * n < 2^30, int64 below
2^61 and Python ints beyond (``_kernel_dtype``), which eliminates its
caller's reduced stack in place.  Per matrix it returns the valuation, a
lower bound where flagged deeper.  One escalation loop, ``_escalate``,
doubles the digits of the items no level has certified yet, up to
PRECISION_CAP.  ``_norm_valuations`` runs
it on determinants of integer rows over one denominator, in stacks of at
most _STACK_ENTRIES matrix entries: ``NormEngine.norm_valuations`` once
per denominator scale for a batch of elements (a basis's absolute values;
a single query is a batch of one), the brute-force lattice oracle for a
whole chunk of digit sums at once; ``NormEngine`` remembers only exact
valuations.  A fresh monomial c z^i needs no elimination: the
multiplication-by-z matrix is F's companion matrix, so v(N(c z^i)) =
n v_p(c) + i v_p(F0), F0 F's constant term (``_monomial_valuation``;
when F0 = 0 monomials take the determinant path).  The one query that
needs a single digit, "is N(x) a unit?", is answered over GF(p) instead:
N(x) mod p = +-Res(F mod p, x mod p), so it is a unit exactly when x mod
p is coprime to F mod p, that is to its radical R, which the context
computes once (``_gf_radical``) with a table of z^i mod R.  A query
reduces x mod R by deg R dot products and takes one ``_gf_coprime``
against R; a totally ramified F has F mod p = (z - a)^n and R = z - a,
so the test costs O(n) instead of a Euclid's O(n^2) against F mod p.
Only the threshold tests of an engine without a frame
(``NormEngine.norm_exceeds``), keygen's unit-norm check and the hash's
unit test reach that path; on such an engine every other exact
valuation is a determinant, and the brute-force oracle calls
``_norm_valuations`` directly, so it keeps refereeing the frames, the
gcd and the monomial rule.

Once the break holds a uniformizer gamma it hands it to its engine
(``NormEngine.adopt_uniformizer``), which keeps the context's frame if it
has one and otherwise certifies gamma (v(N(gamma)) = 1 and an Eisenstein
characteristic polynomial).  A framed engine reads every uncached
valuation, threshold tests included, in the uniformizer's power basis
(``_UniformizerFrame``): one product of the elements' residues with the
matrix of z's powers in that basis mod p^K, K the largest int64 level
(``_UniformizerFrame.coordinates``, the one framed read), through the
same ``_escalate``.  No determinant and no gcd is left there.  The
reduction's passes read a whole basis through the frame at once
(``NormEngine.frame_coordinates``: one rank test, then the same product
mod p), and build no element for the candidates they test.

Coordinates in a basis (lattice membership, the key generator's change
of generator, and the attack's CVP where no modular level certifies it)
come from one exact kernel,
``_solve_exact``, Gauss-Jordan on the elements' primitive integer rows; a
block of right-hand sides shares one pass.  A tall system (membership:
m < n vectors) eliminates its first m rows, or every row where those are
dependent, and checks the solution on every coordinate with
``_linear_combination``.  The system has a unique exact solution, so
neither the rows eliminated nor the pivot rule can change an output.
Its modular twin ``_solve_mod`` (Gauss-Jordan over Z/p^digits on unit
pivots, GF(p) at one digit) is one numpy elimination, over int32
residues while p^(2*digits) < 2^30, int64 below 2^61 and Python ints
beyond.  It serves the mixing matrix, ``decrypt``, the left kernel of a
public basis mod p, the uniformizer frame, the inverse mod p^K (K the
largest int64 level, ``_int64_level``) from which ``bench`` lifts its
instances' minimal polynomials and, through ``_coordinates_mod`` (the
basis made primitive over Z_p), the attack's CVP coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm

import numpy as np

from .errors import (
    NotInSpan,
    NotIntegral,
    NotMonic,
    PrecisionExhausted,
    SingularSystem,
)
from .scalars import PRECISION_CAP, PadicScalar, _format_fraction, int_valuation

_INT32_SAFE = 2 ** 30
_INT64_SAFE = 2 ** 61
# up to this many row and column swaps per step, basic indexing (one matrix
# at a time) beats a fancy-indexed gather and scatter
_FEW_SWAPS = 4
# matrix entries per elimination stack: bounds a batch's memory (8 matrices
# at n = 64, 167 at n = 14, 910 at n = 6); the lattice oracle enumerates,
# and the reduction's final pick reads its exact norms, in chunks of one
# such stack
_STACK_ENTRIES = 2 ** 15


def _stack_size(n: int) -> int:
    """n x n matrices per elimination stack; reads _STACK_ENTRIES at call
    time."""
    return max(1, _STACK_ENTRIES // (n * n))


def frac_valuation(f: Fraction, p: int):
    """p-adic valuation of a rational; None for 0 (+infinity)."""
    if f == 0:
        return None
    return int_valuation(f.numerator, p) - int_valuation(f.denominator, p)


@total_ordering
@dataclass(frozen=True)
class AbsValue:
    """Exact ultrametric size |x| = p^(-exponent).

    ``exponent is None`` encodes |0| = 0 (exponent +infinity).  Ordering
    compares magnitudes, so the zero value is the smallest element.
    """

    exponent: Fraction | None

    @classmethod
    def of(cls, num, den=1) -> "AbsValue":
        return cls(Fraction(num, den))

    @classmethod
    def zero(cls) -> "AbsValue":
        return cls(None)

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def __lt__(self, other: "AbsValue") -> bool:
        if self.is_zero:
            return not other.is_zero
        if other.is_zero:
            return False
        return self.exponent > other.exponent

    def __mul__(self, other: "AbsValue") -> "AbsValue":
        if self.is_zero or other.is_zero:
            return AbsValue.zero()
        return AbsValue(self.exponent + other.exponent)

    def scaled(self, k) -> "AbsValue":
        """|p^k * x| for this |x|."""
        if self.is_zero:
            return self
        return AbsValue(self.exponent + k)

    def __repr__(self):
        return "AbsValue(0)" if self.is_zero else f"AbsValue(p^{-self.exponent})"


class FieldContext:
    """Immutable description of K = Q_p[x]/(F): p, degree, modulus, precision.

    F's non-leading coefficients are held once, in the element format
    (``_int_modulus``: one integer vector over one denominator), and every
    view of F is built from them on demand.  Construction also computes,
    once, what the one-digit unit test reads (``_radical``): the radical R
    of F mod p and the table of z^i mod R for deg R <= i < n.  When F is
    p-integral, R = z - a and F(z + a) is Eisenstein, gamma = z - a is a
    uniformizer and the context keeps its frame (``_frame``, a
    ``_SelfFrame``), from which every ``NormEngine`` starts; otherwise
    ``_frame`` is None.  The frame fills its matrix cache per digit level
    on first use, the same matrices on any thread.
    ``ramification`` and ``residue_degree`` are caller-declared metadata;
    the context never computes them.  Nothing else is mutated after
    construction, so instances are safe to share between threads, and two
    contexts are equal when p, the precision, F and the metadata are (R
    and the frame follow from p and F).
    """

    __slots__ = ("p", "n", "precision", "ramification", "residue_degree", "_int_modulus",
                 "_radical", "_frame")

    def __init__(self, p, precision, low, ramification=None, residue_degree=None):
        # ``low``: F's non-leading coefficients (rationals or scalars of the
        # prime p), constant term first
        self.p = p
        self.precision = precision
        self.n = len(low)
        self.ramification = ramification
        self.residue_degree = residue_degree
        self._int_modulus = self.element(low).identity
        self._radical = _radical_table(self)
        self._frame = _SelfFrame.of(self)

    @property
    def modulus(self) -> tuple:
        """F's coefficients as scalars, constant term first, leading 1 last."""
        return _canonical(self, *self._int_modulus).coeffs + (self.scalar(1),)

    # -- element constructors ------------------------------------------

    def scalar(self, value) -> PadicScalar:
        """A rational or a scalar of this prime, read to this precision."""
        return PadicScalar.from_fraction(self._exact(value), p=self.p, precision=self.precision)

    def _exact(self, value) -> Fraction:
        """The rational of a rational or of a scalar of this prime."""
        if not isinstance(value, PadicScalar):
            return Fraction(value)
        if value.p != self.p:
            raise ValueError("mixed primes")
        return value.to_fraction()

    def element(self, coeffs) -> "FieldElement":
        """Zero-padded coefficients: rationals or scalars of this prime."""
        fracs = [self._exact(c) for c in coeffs]
        if len(fracs) > self.n:
            raise ValueError(f"at most {self.n} coefficients expected")
        return FieldElement(self, fracs + [Fraction(0)] * (self.n - len(fracs)))

    def cast(self, x: "FieldElement") -> "FieldElement":
        """x's exact value as an element of this context; ValueError for
        another prime or degree."""
        if x.ctx.p != self.p or len(x.ints) != self.n:
            raise ValueError("mixed primes or degrees")
        return _canonical(self, x.ints, x.den)

    def zero(self) -> "FieldElement":
        return self.monomial(0, 0)

    def one(self) -> "FieldElement":
        return self.monomial(0)

    def gen(self) -> "FieldElement":
        return self.monomial(1)

    def monomial(self, k: int, coefficient=1) -> "FieldElement":
        if not 0 <= k < self.n:
            raise ValueError("monomial degree out of range")
        b = self._exact(coefficient)
        ints = [0] * self.n
        ints[k] = b.numerator
        return _canonical(self, ints, b.denominator)

    # -- plumbing --------------------------------------------------------

    def _fields(self):
        return self.p, self.precision, self._int_modulus, self.ramification, self.residue_degree

    def __eq__(self, other):
        """Equal contexts describe one field at one precision, with the same
        declared metadata: two loads of one key compare equal."""
        if not isinstance(other, FieldContext):
            return NotImplemented
        return self is other or self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def same_structure(self, other: "FieldContext") -> bool:
        return self is other or (self.p == other.p and self._int_modulus == other._int_modulus)

    def _modulus_residues(self, digits: int):
        """Residues mod p^digits of the non-leading modulus coefficients."""
        return _element_residues(_canonical(self, *self._int_modulus), digits)

    def __repr__(self):
        return f"FieldContext(p={self.p}, n={self.n}, N={self.precision})"


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the twelve prime bases 2..37: exact below 3.1e23 and
    a strong probable-prime test beyond, so even a huge p costs only
    twelve modular powers."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_parameters(p: int, precision: int):
    """ValueError unless p is a prime and precision at least one digit:
    valuations loop forever at p = 1 and mean nothing at composite p."""
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not a prime")
    if precision < 1:
        raise ValueError(f"precision must be at least 1, got {precision}")


def check_degree(n: int):
    """ValueError unless the field degree n is at least 2: samplers read a
    generator's linear coefficient."""
    if n < 2:
        raise ValueError(f"degree must be at least 2, got {n}")


def make_context(p: int, precision: int, coeffs, ramification=None,
                 residue_degree=None) -> FieldContext:
    """Validated context for the monic integral polynomial ``coeffs``
    (constant term first, leading coefficient last), given as rationals
    or as scalars of the prime p."""
    check_parameters(p, precision)
    coeffs = list(coeffs)
    check_degree(len(coeffs) - 1)
    ctx = FieldContext(p, precision, coeffs[:-1], ramification, residue_degree)
    lead = ctx._exact(coeffs[-1])
    # monic to the precision every element of the field is read to
    if lead != 1 and frac_valuation(lead - 1, p) < precision:
        raise NotMonic("leading coefficient must be 1")
    if ctx._int_modulus[1] % p == 0:
        raise NotIntegral("modulus coefficients must lie in Z_p")
    return ctx


class FieldElement:
    """Element of K: its power-basis coefficients as one integer vector
    ``ints`` over one positive denominator ``den``, in canonical form
    (gcd(*ints, den) = 1; zero is (0, ..., 0) over 1).  Its scalar view
    ``coeffs`` and ``==`` read them to the context's precision.  Equal
    rationals give one pair, ``identity``, which caches key on; ``fracs``,
    ``coeffs`` and ``key()`` are views built on each read."""

    __slots__ = ("ctx", "ints", "den")

    def __init__(self, ctx: FieldContext, rationals):
        # reduced rationals over the lcm of their denominators are canonical
        rationals = list(rationals)
        self.den = lcm(*(f.denominator for f in rationals))
        self.ints = tuple(f.numerator * (self.den // f.denominator) for f in rationals)
        self.ctx = ctx

    @property
    def fracs(self) -> tuple:
        """The exact coefficients as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.ints)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as scalars."""
        return tuple(self.ctx.scalar(f) for f in self.fracs)

    @property
    def identity(self):
        """The canonical pair: equal exactly when the exact values are."""
        return self.ints, self.den

    @property
    def is_zero(self) -> bool:
        return not any(self.ints)

    def key(self):
        return tuple((f.numerator, f.denominator) for f in self.fracs)

    def _check(self, other: "FieldElement"):
        if not self.ctx.same_structure(other.ctx):
            raise ValueError("elements from different contexts")

    def _sum(self, other, sign: int):
        """self + sign * other over the lcm of the two denominators."""
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        g = gcd(self.den, other.den)
        a, b = other.den // g, sign * (self.den // g)
        return _canonical(self.ctx, [x * a + y * b for x, y in zip(self.ints, other.ints)],
                          self.den * a)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return _canonical(self.ctx, [-a for a in self.ints], self.den)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            self._check(other)
            return _elem_mul(self, other)
        if isinstance(other, (int, Fraction, PadicScalar)):
            b = self.ctx._exact(other)
            return _canonical(self.ctx, [a * b.numerator for a in self.ints],
                              self.den * b.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers not supported")
        out = self.ctx.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        """Coefficientwise, as scalars compare: equal zeros, or equal
        valuations v with v(a - b) >= v + the smaller context precision."""
        if not isinstance(other, FieldElement):
            return NotImplemented
        if not self.ctx.same_structure(other.ctx):
            return False
        if self.identity == other.identity:
            return True
        p, digits = self.ctx.p, min(self.ctx.precision, other.ctx.precision)
        # over den * other.den both coefficients shift by one valuation
        for a, b in zip(self.ints, other.ints):
            a, b = a * other.den, b * self.den
            if a != b and (not a or (a - b) % p ** (int_valuation(a, p) + digits)):
                return False
        return True

    def __hash__(self):
        # what equality always inspects: the valuation of each coefficient
        p, t = self.ctx.p, int_valuation(self.den, self.ctx.p)
        return hash((p, self.ctx.n, tuple(a and int_valuation(a, p) - t for a in self.ints)))

    def __repr__(self):
        parts = [f"{_format_fraction(f)}*z^{i}" for i, f in enumerate(self.fracs) if f]
        return "FieldElement(" + (" + ".join(parts) if parts else "0") + ")"


def _canonical(ctx: FieldContext, ints, den: int) -> FieldElement:
    """The element ints/den (den > 0), divided by its content gcd: the one
    constructor of kernel results."""
    g = gcd(den, *ints)
    if g != 1:
        ints, den = [a // g for a in ints], den // g
    x = FieldElement.__new__(FieldElement)
    x.ctx, x.ints, x.den = ctx, tuple(ints), den
    return x


def _integer_rows(vectors):
    """(rows, den): the elements' integer vectors over one denominator."""
    den = lcm(*(v.den for v in vectors))
    return [[a * (den // v.den) for a in v.ints] for v in vectors], den


def _int_mul_mod(a, b, fbar, fden=1):
    """Product of two integer coefficient vectors modulo the monic
    z^n + fbar(z)/fden (fbar an integer vector of length n), over Python
    ints: returns r with a*b = r / fden^(n-1) mod F (so r is the product
    itself when F is integral).

    The product is scaled by fden^(n-1) up front; the top coefficient at
    the s-th reduction step is then divisible by fden^(n-s), so each step
    divides it by fden exactly and no Fraction is ever formed.
    """
    n = len(fbar)
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            prod[i:i + n] = [u + ai * v for u, v in zip(prod[i:i + n], b)]
    if fden != 1:
        scale = fden ** (n - 1)
        prod = [u * scale for u in prod]
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k] // fden
        if c:
            prod[k - n:k] = [u - c * f for u, f in zip(prod[k - n:k], fbar)]
    return prod[:n]


def _elem_mul(x: FieldElement, y: FieldElement) -> FieldElement:
    fbar, fden = x.ctx._int_modulus
    return _canonical(x.ctx, _int_mul_mod(x.ints, y.ints, fbar, fden),
                      x.den * y.den * fden ** (x.ctx.n - 1))


def _powers(x: FieldElement, count: int):
    """1, x, x^2, ..., x^(count - 1), for count >= 1."""
    out = [x.ctx.one()]
    while len(out) < count:
        out.append(out[-1] * x)
    return out


def _linear_combination(ctx: FieldContext, coeffs, vectors) -> FieldElement:
    """sum c_k v_k for ints, Fractions or scalars c_k, as one integer
    vector over the lcm of the terms' denominators, accumulated a term at a
    time (one pass over the coordinates per nonzero term) and reduced once.
    ValueError when any vector, under a zero coefficient too, belongs to a
    field other than ``ctx``'s."""
    vectors = list(vectors)
    if any(not ctx.same_structure(v.ctx) for v in vectors):
        raise ValueError("elements from different contexts")
    terms = [(c, v) for c, v in zip(map(ctx._exact, coeffs), vectors) if c]
    den = lcm(*(c.denominator * v.den for c, v in terms))
    ints = None
    for c, v in terms:
        s = c.numerator * (den // (c.denominator * v.den))
        ints = ([s * a for a in v.ints] if ints is None
                else [x + s * a for x, a in zip(ints, v.ints)])
    return _canonical(ctx, [0] * ctx.n if ints is None else ints, den)


# ---------------------------------------------------------------------------
# Norm engine: valuation of det(multiplication matrix) mod p^M.
# ---------------------------------------------------------------------------


def _element_scale(x: FieldElement) -> int:
    """Smallest s making p^s * x integral: v_p of the denominator, as the
    form is canonical."""
    return int_valuation(x.den, x.ctx.p)


def _element_residues(x: FieldElement, digits: int):
    """Residues mod p^digits of the coefficients of p^s * x, s the scale of
    x: one modular inverse per element."""
    mod = x.ctx.p ** digits
    inv = pow(x.den // x.ctx.p ** _element_scale(x), -1, mod)
    if inv == 1:
        return [a % mod for a in x.ints]
    return [a % mod * inv % mod for a in x.ints]


def _kernel_dtype(p: int, n: int, digits: int):
    """The narrowest dtype in which n products of two residues mod
    p^digits stay exact: int32 while they fit below 2^30, int64 below
    2^61, Python ints (object dtype) beyond."""
    bound = p ** (2 * digits) * n
    if bound < _INT32_SAFE:
        return np.int32
    return np.int64 if bound < _INT64_SAFE else object


def _mult_rows_mod(ctx: FieldContext, residues, digits: int):
    """For a B x n stack of residue vectors mod p^digits (those of p^s * x
    for elements x, ``_element_residues``), the B x n x n stack of rows
    spanning x*z^j (j = 0..n-1) mod p^digits: each determinant is that of
    the multiplication matrix of p^s * x."""
    p, n = ctx.p, ctx.n
    mod = p ** digits
    dtype = _kernel_dtype(p, n, digits)
    fold = -np.array(ctx._modulus_residues(digits), dtype=dtype)
    first = np.asarray(residues, dtype=dtype)
    rows = np.empty((len(first), n, n), dtype=dtype)
    rows[:, 0] = first
    for j in range(1, n):
        # row j is z * row j-1: fold z^n back with F, shift up one degree
        prev, row = rows[:, j - 1], rows[:, j]
        np.multiply(prev[:, -1:], fold, out=row)
        row[:, 1:] += prev[:, :-1]
        row %= mod
    return rows


def _pivot_search(blocks, sel, p: int, mod: int):
    """For the blocks ``sel`` of a stack, none with a unit top-left entry
    (entries are residues mod ``mod``, not necessarily reduced), as lists:
    the flat index of the first entry of minimal valuation, that
    valuation, and whether the block vanishes mod ``mod`` (then the other
    two are meaningless).  The last two are None when every block holds a
    unit."""
    # the first unit in row-major order lies in the first row when that
    # row holds one; its index is then positive, as the top-left entry is
    # not a unit
    first = blocks[:, 0] if len(sel) == len(blocks) else blocks[sel, 0]
    where = (first % p != 0).argmax(axis=1).tolist()
    if all(where):
        return where, None, None
    if len(sel) < len(blocks):
        blocks = blocks[sel]
    blocks %= mod  # in place: a view of the stack keeps equivalent residues
    flat = blocks.reshape(len(blocks), -1)
    # a block's gcd has the minimal valuation of its entries; it is 0 only
    # when the block vanishes
    gcds = np.gcd.reduce(flat, axis=1).tolist()
    level = [int_valuation(g, p) if g else 0 for g in gcds]
    above = np.array([p ** (v + 1) for v in level], dtype=flat.dtype)
    where = (flat % above[:, None] != 0).argmax(axis=1).tolist()
    return where, level, [g == 0 for g in gcds]


def _swap(A, k: int, rows, cols):
    """Swap row k (then column k) of stack A with row i (column j) of
    matrix b, for each (b, i) in ``rows`` ((b, j) in ``cols``), on the
    remaining block.  A few matrices are swapped one by one with basic
    indexing; more take one gather and one scatter each way."""
    if len(rows) + len(cols) <= _FEW_SWAPS:
        for b, i in rows:
            A[b, k, k:], A[b, i, k:] = A[b, i, k:], A[b, k, k:].copy()
        for b, j in cols:
            A[b, k:, k], A[b, k:, j] = A[b, k:, j], A[b, k:, k].copy()
        return
    if rows:
        b = [[x] for x, _ in rows]
        A[b, [[k, i] for _, i in rows], k:] = A[b, [[i, k] for _, i in rows], k:]
    if cols:
        b = [[x] for x, _ in cols]
        A[b, k:, [[k, j] for _, j in cols]] = A[b, k:, [[j, k] for _, j in cols]]


def _det_valuation(stack, p: int, digits: int):
    """Valuations of the determinants of a B x n x n stack of integer
    matrices with entries in [0, p^digits), computed mod p^digits.  An
    array of the kernel's dtype is eliminated in place (the stack is
    consumed); any other input, nested lists included, is copied once.

    Each step pivots every matrix on its diagonal entry when that is a unit
    (in place, with no search and no swap when the whole stack has one)
    and otherwise on the first minimal-valuation entry of its remaining
    block; either way the pivot has minimal valuation, which keeps every
    intermediate entry exact mod p^digits.  A matrix whose block vanishes
    mod p^digits has valuation at least vsum + digits; an identity block
    then carries it through the remaining steps.  Only the pivot row and
    column are reduced each step: the block takes at most n products of
    two residues, which ``_kernel_dtype`` keeps in range.

    Returns lists (v, deeper), one entry per matrix: the valuation, or
    where ``deeper`` is set a lower bound for it.
    """
    n = len(stack[0])
    mod = p ** digits
    A = np.asarray(stack, dtype=_kernel_dtype(p, n, digits))
    vsum = [0] * len(A)
    deeper = [False] * len(A)
    for k in range(n):
        units = A[:, k, k].tolist()  # not reduced: only their residues matter
        shift = None
        sel = [b for b, u in enumerate(units) if u % p == 0]
        if sel:
            where, pv, gone = _pivot_search(A[:, k:, k:], sel, p, mod)
            if gone is not None and any(gone):
                dead = [b for b, g in zip(sel, gone) if g]
                for b in dead:
                    vsum[b] += digits
                    deeper[b] = True
                if all(deeper):
                    break
                A[dead, k:, k:] = np.eye(n - k, dtype=np.int64)
                where = [0 if g else w for w, g in zip(where, gone)]
                pv = [0 if g else v for v, g in zip(pv, gone)]
            r = n - k
            row_swaps = [(b, k + w // r) for b, w in zip(sel, where) if w >= r]
            col_swaps = [(b, k + w % r) for b, w in zip(sel, where) if w % r]
            _swap(A, k, row_swaps, col_swaps)
            units = A[:, k, k].tolist()
            if pv is not None and any(pv):
                shift = [1] * len(A)
                for b, v in zip(sel, pv):
                    vsum[b] += v
                    shift[b] = p ** v
                units = [u % mod // d for u, d in zip(units, shift)]
                shift = np.array(shift, dtype=A.dtype)[:, None]
        if k + 1 < n:
            col = A[:, k + 1:, k] % mod
            if shift is not None:
                col //= shift
            if len(units) == 1:
                inv = pow(units[0], -1, mod)
            else:
                inv = np.array([pow(u, -1, mod) for u in units], dtype=A.dtype)[:, None]
            # f is exact mod p^(digits - pv) and row k is divisible by p^pv,
            # so each product is exact mod p^digits
            f = col * inv % mod
            A[:, k + 1:, k + 1:] -= f[:, :, None] * (A[:, k, None, k + 1:] % mod)
    return vsum, deeper


def _escalate(count: int, digits: int, cap: int, level):
    """Exact valuations of ``count`` items, as a list: the one escalation
    loop.  ``level(todo, digits)`` answers the open indices ``todo`` at
    ``digits`` digits, one valuation each, or None where that level
    certifies none; those go on at twice the digits, up to ``cap``, past
    which PrecisionExhausted."""
    out = [None] * count
    todo = list(range(count))
    while todo:
        deeper = []
        for i, v in zip(todo, level(todo, digits)):
            if v is None:
                deeper.append(i)
            else:
                out[i] = v
        todo = deeper
        if todo and digits >= cap:
            raise PrecisionExhausted(
                f"norm valuation not certified within {cap} digits "
                "(element extremely small, or modulus reducible)")
        digits = min(2 * digits, cap)
    return out


def _norm_valuations(ctx: FieldContext, rows, den: int, digits: int, cap: int):
    """Exact v(N(row / den)) for each nonzero row of an integer array
    (int64 or object), as a list, by determinants.  With den = p^t * u, u
    a unit, row / u is integral, its norm valuation n*t more.  Each level
    of ``_escalate`` eliminates the open rows at ``digits`` norm digits in
    stacks of at most _STACK_ENTRIES entries; the matrices that come back
    deeper go on at the next level."""
    p, n = ctx.p, ctx.n
    t = int_valuation(den, p)
    unit, shift = den // p ** t, n * t
    size = _stack_size(n)

    def level(todo, digits):
        total = digits + shift
        mod = p ** total
        inv = pow(unit, -1, mod)
        wide = _kernel_dtype(p, n, total) is object
        out = []
        for start in range(0, len(todo), size):
            open_rows = rows[todo[start:start + size]]
            if wide:
                open_rows = open_rows.astype(object)  # mod may pass int64
            v, deeper = _det_valuation(
                _mult_rows_mod(ctx, open_rows % mod * inv % mod, total), p, total)
            out += [None if d else vi - shift for vi, d in zip(v, deeper)]
        return out

    return _escalate(len(rows), digits, cap, level)


def _gf_trim(a) -> list:
    """A polynomial over GF(p) (coefficient list, constant term first)
    without its zero top coefficients: [] for zero."""
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_divmod(a, b, p: int):
    """(q, r) with a = q b + r and deg r < deg b over GF(p), for coefficient
    lists (constant term first, entries in [0, p)) and b with a nonzero top
    coefficient; r comes trimmed."""
    a = list(a)
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    q = [0] * max(0, len(a) - db)
    # clear the top coefficient of a each step
    for top in range(len(a) - 1, db - 1, -1):
        off = top - db
        c = q[off] = a.pop() * inv % p
        if c:
            a[off:top] = [(u - c * w) % p for u, w in zip(a[off:top], b)]
    return q, _gf_trim(a)


def _gf_gcd(a, b, p: int) -> list:
    """The monic gcd of two polynomials over GF(p) ([] when both are
    zero): Euclid's algorithm."""
    a, b = _gf_trim(a), _gf_trim(b)
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p) if a else 1
    return [u * inv % p for u in a]


def _gf_coprime(a, b, p: int) -> bool:
    """Whether two polynomials over GF(p) (coefficient lists, constant
    term first, entries in [0, p)) are coprime."""
    return len(_gf_gcd(a, b, p)) == 1


def _gf_mul(a, b, p: int) -> list:
    """The product of two nonzero polynomials over GF(p)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            out[i:i + len(b)] = [(s + u * w) % p for s, w in zip(out[i:i + len(b)], b)]
    return out


def _gf_radical(f, p: int) -> list:
    """The radical of a monic polynomial f over GF(p): the product of its
    distinct monic irreducible factors (von zur Gathen and Gerhard,
    *Modern Computer Algebra*, ch. 14).

    With f = prod P^e, gcd(f, f') keeps P^(e-1) where p does not divide e
    and all of P^e where it does, so w = f / gcd(f, f') is the product of
    the first kind of factor, once each.  Dividing them out of the gcd
    (by powers that double while they divide) leaves the second kind, a
    p-th power g(z^p) = g(z)^p, whose radical is g's."""
    if len(f) == 1:
        return f
    d = _gf_trim([i * a % p for i, a in enumerate(f)][1:])
    if not d:
        return _gf_radical(f[::p], p)
    c = _gf_gcd(f, d, p)
    w = _gf_divmod(f, c, p)[0]
    # y holds every factor of w left in c, so c has none when y = 1
    y = _gf_gcd(c, w, p)
    while len(y) > 1:
        q, r = _gf_divmod(c, y, p)
        if r:
            y = _gf_gcd(c, y, p)
        else:
            c, y = q, _gf_mul(y, y, p)
    return w if len(c) == 1 else _gf_mul(w, _gf_radical(c, p), p)


def _radical_table(ctx: FieldContext):
    """(R, columns): R the radical of F mod p (monic, constant term first)
    and, for j < d = deg R, column j of the table whose rows hold z^i mod
    R for d <= i < n (below d, z^i mod R is z^i itself), so that the
    residues of x mod R are d dot products of length n - d."""
    p = ctx.p
    radical = _gf_radical(ctx._modulus_residues(1) + [1], p)
    d = len(radical) - 1
    rows, row = [], [0] * (d - 1) + [1]
    while len(rows) < ctx.n - d:
        # z * row, with z^d folded back by R
        top = row[-1]
        row = [(u - top * r) % p for u, r in zip([0] + row[:-1], radical)]
        rows.append(row)
    return radical, [[row[j] for row in rows] for j in range(d)]


def _scaled_norm_is_unit(x: FieldElement) -> bool:
    """Whether N(p^s x) is a unit, s the scale of x, for nonzero x: as
    N(p^s x) mod p = +-Res(F mod p, p^s x mod p), exactly when the two
    residue polynomials are coprime, that is when p^s x mod p is coprime
    to R, the radical of F mod p.  The residues are reduced mod R with the
    context's table of z^i mod R (deg R dot products of length n - deg R)
    and meet R in one ``_gf_coprime``; a totally ramified F has R = z - a,
    so the test is whether p^s x mod p vanishes at a, and a squarefree
    F mod p is its own radical, with no reduction."""
    p = x.ctx.p
    radical, columns = x.ctx._radical
    xbar = _element_residues(x, 1)
    high = xbar[len(radical) - 1:]
    return _gf_coprime([(a + sum(u * w for u, w in zip(high, column))) % p
                        for a, column in zip(xbar, columns)], radical, p)


def _monomial_valuation(x: FieldElement):
    """v(N(x)) read off F's constant term F0 when x = c z^i has one nonzero
    coefficient: multiplication by z has F's companion matrix, so N(c z^i)
    = c^n ((-1)^n F0)^i and v(N(x)) = n v_p(c) + i v_p(F0).  None for any
    other element, and for every monomial when F0 = 0 (F reducible)."""
    terms = [(i, a) for i, a in enumerate(x.ints) if a]
    fbar, fden = x.ctx._int_modulus
    if len(terms) != 1 or not fbar[0]:
        return None
    (i, a), = terms
    p = x.ctx.p
    f0 = int_valuation(fbar[0], p) - int_valuation(fden, p)
    return x.ctx.n * (int_valuation(a, p) - _element_scale(x)) + i * f0


def _int64_level(p: int, n: int) -> int:
    """The most digits whose product of two residue vectors of length n
    stays in a machine dtype (``_kernel_dtype``, int64 at that level), and
    at least two: a uniformizer frame's first level (two digits certify the
    constant term of gamma's characteristic polynomial) and the lifting
    modulus of ``bench._minimal_poly_mod``."""
    digits = 2
    while _kernel_dtype(p, n, digits + 1) is not object:
        digits += 1
    return digits


class _UniformizerFrame:
    """Norm valuations in the power basis of a certified uniformizer gamma.

    When gamma's characteristic polynomial is Eisenstein, K is totally
    ramified, O_K = Z_p[gamma] and 1, gamma, ..., gamma^(n-1) is an
    orthogonal basis: |sum y_i gamma^i| = max |y_i| p^(-i/n).  For the
    integral p^s x (s the scale of x) with coordinates y in that basis,
    v(N(x)) = min_i (n v_p(y_i) + i) - n s.  Row j of ``_matrix(digits)``
    holds z^j in that basis mod p^digits, so y = (p^s x mod p^digits) H
    is one matrix product (``coordinates``), and a nonzero y certifies
    the minimum.
    """

    def __init__(self, ctx: FieldContext, powers, digits: int, solved):
        self.p, self.n = ctx.p, ctx.n
        self.powers = powers  # gamma^0 .. gamma^(n-1)
        self._first = digits
        self._matrices = {digits: self._coordinates(solved, digits)}

    @classmethod
    def certify(cls, ctx: FieldContext, gamma: FieldElement):
        """The frame of an integral gamma, or None unless its powers are
        invertible mod p and its characteristic polynomial is Eisenstein.
        Both come out of one ``_solve_mod``: the coordinates of z^0 ..
        z^(n-1) and of gamma^n in the basis of gamma's powers."""
        p, n = ctx.p, ctx.n
        if _element_scale(gamma):
            return None
        powers = _powers(gamma, n + 1)
        digits = _int64_level(p, n)
        solved = _solve_mod(cls._system(powers, digits), p, digits)
        if solved is None:
            return None
        # gamma^n = sum c_i gamma^i: Eisenstein when p divides every c_i
        # and p^2 does not divide c_0
        top = [row[n] for row in solved]
        if any(c % p for c in top) or top[0] % p ** 2 == 0:
            return None
        return cls(ctx, powers[:n], digits, solved)

    @staticmethod
    def _system(powers, digits: int):
        """Augmented rows [gamma^0 .. gamma^(n-1) | I | more powers], one
        per z-coordinate, mod p^digits."""
        n = powers[0].ctx.n
        columns = [_element_residues(g, digits) for g in powers]
        return [[c[j] for c in columns[:n]] + [int(j == k) for k in range(n)]
                + [c[j] for c in columns[n:]] for j in range(n)]

    def _coordinates(self, solved, digits: int):
        """H from the solved rows: H[j][i] is coordinate i of z^j."""
        p, n = self.p, self.n
        return np.array([row[:n] for row in solved], dtype=_kernel_dtype(p, n, digits)).T

    def _build(self, digits: int):
        solved = _solve_mod(self._system(self.powers, digits), self.p, digits)
        return self._coordinates(solved, digits)

    def _matrix(self, digits: int):
        H = self._matrices.get(digits)
        if H is None:
            H = self._matrices[digits] = self._build(digits)
        return H

    def coordinates(self, rows, digits: int):
        """The coordinates mod p^digits in gamma's power basis of the
        integral elements whose residue rows mod p^digits are ``rows``: R H
        mod p^digits, one product, as one array.  Every framed read is
        this product."""
        H = self._matrix(digits)
        return np.array(rows, dtype=H.dtype) @ H % self.p ** digits

    def valuations(self, xs) -> list:
        """Exact v(N(x)) for each nonzero element, as a list: each level of
        ``_escalate`` is one stacked ``coordinates`` product."""
        p, n = self.p, self.n
        shifts = [n * _element_scale(x) for x in xs]

        def level(todo, digits):
            y = self.coordinates([_element_residues(xs[i], digits) for i in todo], digits)
            units = y % p != 0
            first = units.argmax(axis=1)
            found_unit = units[np.arange(len(y)), first].tolist()
            out = []
            for i, k, unit, row in zip(todo, first.tolist(), found_unit, y):
                if unit:
                    out.append(k - shifts[i])
                    continue
                found = [n * int_valuation(int(a), p) + j for j, a in enumerate(row) if a]
                out.append(min(found) - shifts[i] if found else None)
            return out

        return _escalate(len(xs), self._first, PRECISION_CAP, level)


class _SelfFrame(_UniformizerFrame):
    """A context's own frame, gamma = z - a, when F is p-integral, the
    radical of F mod p is z - a and F(z + a) is Eisenstein: then gamma is
    a uniformizer and O_K = Z_p[gamma] (Serre, *Local Fields*, ch. I,
    section 6).  For j < n, z^j = (gamma + a)^j needs no reduction by F,
    so the matrix of each level has the closed form H[j][k] = C(j, k)
    a^(j-k) mod p^digits: no power of gamma and no solve, and the frame
    carries no powers."""

    powers = None

    def __init__(self, ctx: FieldContext, a: int):
        # p and n, not the context: the context holds its frame, and a
        # reference back would make a cycle only the garbage collector frees
        self.p, self.n = ctx.p, ctx.n
        self.shift = a
        self._first = _int64_level(self.p, self.n)
        self._matrices = {}

    @classmethod
    def of(cls, ctx: FieldContext):
        """The context's frame, or None when one of the three conditions
        fails.  F mod p = (z - a)^n already puts p in every non-leading
        coefficient of F(z + a) (its Hasse derivatives at a), so F(z + a)
        is Eisenstein exactly when F(a) is not 0 mod p^2: one Horner
        evaluation of F mod p^2."""
        p = ctx.p
        radical = ctx._radical[0]
        if ctx._int_modulus[1] % p == 0 or len(radical) != 2:
            return None
        a, mod = -radical[0] % p, p * p
        value = 0
        for c in reversed(ctx._modulus_residues(2) + [1]):
            value = (value * a + c) % mod
        return cls(ctx, a) if value else None

    def _build(self, digits: int):
        """H by Pascal's rule: row j holds (gamma + a) times row j - 1."""
        p, n = self.p, self.n
        mod = p ** digits
        H = np.zeros((n, n), dtype=_kernel_dtype(p, n, digits))
        H[0, 0] = 1
        for j in range(1, n):
            H[j, 1:] = H[j - 1, :-1]
            H[j] += self.shift * H[j - 1]
            H[j] %= mod
        return H


class NormEngine:
    """Memoized absolute-value queries against one context.

    The engine remembers one fact per distinct element: its exact norm
    valuation, once some query has resolved it; no lower bound is carried.
    Exact queries come in batches (``norm_valuations``, ``abs_values``; a
    single query is a batch of one), and an uncached monomial c z^i in one
    is read off F's constant term (``_monomial_valuation``).

    An engine starts with its context's frame when it has one
    (``FieldContext._frame``: every keygen public key, the toy fixture,
    every ``bench`` instance and every Eisenstein F), and takes a
    uniformizer's frame when the break adopts one
    (``adopt_uniformizer``).  A framed engine answers every other uncached
    query in the uniformizer's power basis, through the frame's one
    product (``_UniformizerFrame.coordinates``): an exact batch is one
    product mod p^K per level, and a threshold test reads and caches the
    exact valuation, a batch of one.

    On an engine without a frame the other uncached elements of a batch
    escalate together from two digits: each exact valuation is a
    determinant, at the digit levels it would take alone.  There a
    threshold test evaluates only the digits its bound needs, one level: a
    single digit is one GF(p) gcd against the radical of F mod p, and a
    level that comes back deeper answers the test and is forgotten.

    The reduction reads a framed engine without building its candidates:
    ``frame_coordinates`` gives Y, a basis's frame coordinates mod p (the
    engine holds the frame, the reduction the rows over the basis), for a
    basis whose Y has full rank mod p, from which u Y mod p and its first
    nonzero entry give the norm of the combination with integer row u,
    u nonzero mod p; ``remember`` caches the norms it
    certifies this way for its outputs, and ``known_abs_values`` reads
    the cache without a query.
    """

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        self._states: dict = {}  # x.identity -> v(N(x))
        self._frame: _UniformizerFrame | None = ctx._frame

    def adopt_uniformizer(self, gamma: FieldElement) -> bool:
        """Answer later queries in a uniformizer's power basis, when
        v(N(gamma)) = 1: the frame the engine already has, or else gamma's,
        when its characteristic polynomial is Eisenstein; otherwise keep
        the determinants.  Returns whether the engine is framed.  The
        first test (cached once gamma was recovered) turns most
        non-uniformizers away before the frame's solve."""
        if self.norm_valuation(gamma) != 1:
            return False
        if self._frame is None:
            self._frame = _UniformizerFrame.certify(self.ctx, gamma)
        return self._frame is not None

    def powers(self, gamma: FieldElement) -> list:
        """gamma^0 .. gamma^(n-1): the adopted frame's own when gamma is the
        adopted uniformizer (same value and context), else ``_powers``."""
        own = self._frame and self._frame.powers
        if own and own[1].identity == gamma.identity and own[1].ctx == gamma.ctx:
            return list(own)
        return _powers(gamma, self.ctx.n)

    def norm_valuations(self, xs) -> list:
        """Valuations of N(x) for each element (None for zero), as a list.
        An uncached monomial is read off F's constant term.  The other
        distinct uncached elements are one frame product on a framed
        engine; otherwise they are grouped by scale, each group one
        escalation: every matrix runs at the digit levels it would run at
        alone."""
        xs = list(xs)
        rest = {}
        for x in xs:
            key = x.identity
            if x.is_zero or key in self._states:
                continue
            v = _monomial_valuation(x)
            if v is None:
                rest[key] = x
            else:
                self._states[key] = v
        if self._frame is not None:
            self._states.update(zip(rest, self._frame.valuations(list(rest.values()))))
        else:
            groups: dict = {}  # scale -> {identity: element}
            for key, x in rest.items():
                groups.setdefault(_element_scale(x), {})[key] = x
            for group in groups.values():
                rows, den = _integer_rows(list(group.values()))
                self._states.update(zip(group, _norm_valuations(
                    self.ctx, np.array(rows, dtype=object), den, 2, PRECISION_CAP)))
        return [None if x.is_zero else self._states[x.identity] for x in xs]

    def norm_valuation(self, x: FieldElement):
        """Valuation of N(x); None for the zero element."""
        return self.norm_valuations([x])[0]

    def frame_coordinates(self, basis):
        """(Y, n*S) for a basis, S its largest scale, where row j of the
        array Y holds the frame coordinates mod p of p^S b_j; None on an
        engine without a frame, or where the rows of Y are dependent mod
        p.  The coordinates of p^S sum_j u_j b_j mod p are then u Y mod p
        for integer rows u, and where they are nonzero,
        v(N(sum_j u_j b_j)) is the index of the first nonzero one minus
        n*S: the other coordinates are multiples of p.  Y is R H for R
        the residues of p^S b_j (zero rows below the top scale), and the
        frame's H is invertible mod p (unitriangular on a context's own
        frame, the inverse of gamma's powers on an adopted one), so the
        rank test is one elimination of R (``_independent_mod``)."""
        if self._frame is None:
            return None
        n, p = self.ctx.n, self.ctx.p
        scales = [_element_scale(b) for b in basis]
        top = max(scales)
        R = [_element_residues(b, 1) if s == top else [0] * n for b, s in zip(basis, scales)]
        if not _independent_mod(R, p):
            return None
        return self._frame.coordinates(R, 1), n * top

    def remember(self, xs, norms):
        """Cache the exact norms |x| (nonzero AbsValues) that the caller has
        certified: the reduction reads them off frame coordinates."""
        n = self.ctx.n
        self._states.update((x.identity, e.exponent.numerator * n // e.exponent.denominator)
                            for x, e in zip(xs, norms))

    def known_abs_values(self, xs) -> list:
        """|x| for each element whose norm valuation the engine holds, None
        for the others; no query is made."""
        n = self.ctx.n
        return [None if v is None else AbsValue(Fraction(v, n))
                for v in map(self._states.get, (x.identity for x in xs))]

    def norm_exceeds(self, x: FieldElement, bound: int) -> bool:
        """Whether v(N(x)) > bound (True for the zero element)."""
        if x.is_zero:
            return True
        v = self._states.get(x.identity)
        if v is not None:
            return v > bound
        ctx = self.ctx
        shift = ctx.n * _element_scale(x)
        # the determinant of the integral p^s * x has valuation v + n*s >= 0
        total = bound + 1 + shift
        if total < 1:
            return True
        if self._frame is not None:
            return self.norm_valuation(x) > bound
        if total == 1:
            v, deeper = 0, not _scaled_norm_is_unit(x)
        else:
            rows = _mult_rows_mod(ctx, [_element_residues(x, total)], total)
            (v,), (deeper,) = _det_valuation(rows, ctx.p, total)
        if deeper:
            return True
        v = self._states[x.identity] = v - shift
        return v > bound

    def abs_values(self, xs) -> list:
        """|x| for each element, from one ``norm_valuations`` batch."""
        return [AbsValue.zero() if v is None else AbsValue(Fraction(v, self.ctx.n))
                for v in self.norm_valuations(xs)]

    def abs_value(self, x: FieldElement) -> AbsValue:
        return self.abs_values([x])[0]

    def abs_less_than(self, x: FieldElement, bound: AbsValue) -> bool:
        """|x| < bound, decided with as few digits as possible."""
        if bound.is_zero:
            return False
        e = bound.exponent
        return self.norm_exceeds(x, e.numerator * self.ctx.n // e.denominator)


def abs_value(ctx: FieldContext, x: FieldElement, engine: NormEngine | None = None) -> AbsValue:
    """Extended absolute value |x| = |N(x)|^(1/n) as an exact exponent."""
    return (engine or NormEngine(ctx)).abs_value(x)


# ---------------------------------------------------------------------------
# Linear algebra.  One exact kernel over Q_p eliminates primitive integer
# rows; one modular kernel eliminates over Z/p^digits on unit pivots.  Both
# answers are unique, so no pivot rule can change an output.
# ---------------------------------------------------------------------------


def _primitive(row):
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _gauss_jordan(rows, m: int):
    """Gauss-Jordan on the first m columns of primitive integer rows, in
    place: row k ends as the pivot row of column k.  Returns the first
    column without a pivot, None when every one has one.

    The update row * (a/g) - pivot_row * (b/g), g = gcd(a, b), then
    division by the gcd of the row, keeps every entry an integer.  The
    pivot is the nonzero entry of least magnitude, which keeps the
    multipliers small."""
    n = len(rows)
    for col in range(m):
        pivot = min((r for r in range(col, n) if rows[r][col]),
                    key=lambda r: abs(rows[r][col]), default=None)
        if pivot is None:
            return col
        rows[col], rows[pivot] = rows[pivot], rows[col]
        prow = rows[col]
        a = prow[col]
        for r in range(n):
            row = rows[r]
            b = row[col]
            if r == col or not b:
                continue
            g = gcd(a, b)
            sa, sb = a // g, b // g
            rows[r] = _primitive([sa * x - sb * y for x, y in zip(row, prow)])
    return None


def _solve_exact(columns, targets):
    """Exact coordinates of each target element in the span of the
    ``columns`` elements: one list of Fractions per target.

    The system has one integer row per power-basis position, m column
    entries then one per target, and ``_gauss_jordan`` reduces its first
    m rows, made primitive; no Fraction is formed until the coordinates
    are read off.  Where those rows are dependent (some column has no
    pivot among them) it reduces every row instead.  A tall system (more rows
    than columns) then checks each solution on every coordinate,
    sum c_k v_k == target by ``_linear_combination``, and raises NotInSpan
    where they differ.  The solution is unique, so neither the rows
    eliminated nor the pivot rule can change it.
    Raises SingularSystem at the first column dependent on the earlier
    ones and NotInSpan when some target lies outside their span.
    """
    columns, targets = list(columns), list(targets)
    m = len(columns)
    rows = list(zip(*_integer_rows(columns + targets)[0]))
    head = [_primitive(row) for row in rows[:m]]
    col = _gauss_jordan(head, m)
    if col is not None and len(rows) > m:
        head = [_primitive(row) for row in rows]
        col = _gauss_jordan(head, m)
    if col is not None:
        raise SingularSystem(f"vector {col} is dependent on the earlier ones")
    solutions = [[Fraction(head[i][m + t], head[i][i]) for i in range(m)]
                 for t in range(len(targets))]
    if len(rows) > m and any(_linear_combination(x.ctx, c, columns).identity != x.identity
                             for c, x in zip(solutions, targets)):
        raise NotInSpan("target lies outside the span of the vectors")
    return solutions


def _solve_mod(rows, p: int, digits: int, width: int | None = None):
    """X with A*X = B mod p^digits for integer rows [A | B], A square; None
    when A is singular mod p (B may have no columns).  Gauss-Jordan on the
    first unit pivot loses no digit, and the solution is unique.

    One numpy elimination: each step scales the pivot row and clears its
    column from every other row by one rank-one update.  An entry takes
    one product of two residues per step, so the residues take
    ``_kernel_dtype`` with one term: int32 while p^(2*digits) < 2^30,
    int64 below 2^61 and Python ints (object dtype) beyond.  Rows of
    Python ints go in and lists of Python ints come out, whatever the
    dtype.

    A tall A (more rows than its ``width`` columns) is eliminated the same
    way, with None when it has no unit pivot in some column.  The rows
    past ``width`` then come back as well: T*B for the rows T of the
    elimination that annihilate A, zero exactly when A*X = B is solvable.
    With B the identity they are the left kernel of A."""
    mod = p ** digits
    A = np.array([[x % mod for x in row] for row in rows], dtype=_kernel_dtype(p, 1, digits))
    width = len(A) if width is None else width
    for col in range(width):
        pivot = int(A[col, col])
        if pivot % p == 0:
            piv = next((r for r, a in enumerate(A[col:, col].tolist(), col) if a % p), None)
            if piv is None:
                return None
            # rows from col on are zero left of col, so only the block moves
            A[[col, piv], col:] = A[[piv, col], col:]
            pivot = int(A[col, col])
        prow = A[col, col:] * pow(pivot, -1, mod) % mod
        block = A[:, col:]
        block -= block[:, :1] * prow
        block[col] = prow
        block %= mod
    return A[:, width:].tolist()


def _independent_mod(rows, p: int) -> bool:
    """Whether integer rows, entries in [0, p), are independent mod p, by
    one elimination on lists: each row in turn is reduced by the rows kept
    so far, by the one whose first nonzero column is its own, until its
    first nonzero column is new (it is kept) or it vanishes (dependence).
    Rows whose first nonzero columns all differ, as the residues of
    distinct monomials do, are kept at once.  Lists, not numpy: most bases
    tested are a few rows, or rows kept at once, where an array step's
    fixed cost exceeds the whole elimination."""
    pivots = {}  # first nonzero column -> row
    for row in rows:
        while True:
            lead = next(filter(None, row), 0)
            if not lead:
                return False
            k = row.index(lead)
            pivot = pivots.get(k)
            if pivot is None:
                pivots[k] = row
                break
            f = lead * pow(pivot[k], -1, p) % p
            row = [(a - f * b) % p for a, b in zip(row, pivot)]
    return True


def _coordinates_mod(columns, target: FieldElement, digits: int):
    """The target's coordinates in the basis ``columns`` of K modulo a
    power of p, by one ``_solve_mod``: (scales, xs), or None when the
    columns made primitive are singular mod p (or one is zero).

    p^scales[k] * columns[k] is primitive over Z_p (integral, with a unit
    coefficient).  With s the target's scale, coordinate k is
    xs[k] * p^(scales[k] - s) modulo p^(digits + scales[k] - s), and
    xs[k] lies in [0, p^digits)."""
    p = target.ctx.p
    if any(v.is_zero for v in columns):
        return None
    mod = p ** digits
    scales, cols = [], []
    for v in columns:
        s, c = int_valuation(v.den, p), int_valuation(gcd(*v.ints), p)
        q, inv = p ** c, pow(v.den // p ** s, -1, mod)
        scales.append(s - c)
        cols.append([a // q % mod * inv % mod for a in v.ints])
    rows = [[*r, t] for r, t in zip(zip(*cols), _element_residues(target, digits))]
    solved = _solve_mod(rows, p, digits)
    return None if solved is None else (scales, [x for x, in solved])


def coordinates_in(ctx: FieldContext, target: FieldElement, vectors) -> list[Fraction]:
    """Exact coordinates of ``target`` in the Q_p-span of ``vectors``: a
    one-target ``_solve_exact``, with its errors.  ValueError when the
    target or a vector belongs to a field other than ``ctx``'s."""
    vectors = list(vectors)
    if any(not ctx.same_structure(v.ctx) for v in [target, *vectors]):
        raise ValueError("elements from different contexts")
    return _solve_exact(vectors, [target])[0]


def is_eisenstein(p: int, coeffs) -> bool:
    """True iff the monic polynomial (constant term first) is Eisenstein:
    every non-leading coefficient divisible by p, constant term exactly once."""
    fr = [c.to_fraction() if isinstance(c, PadicScalar) else Fraction(c) for c in coeffs]
    if fr[-1] != 1:
        raise NotMonic("Eisenstein test requires a monic polynomial")
    return frac_valuation(fr[0], p) == 1 and all(
        not c or frac_valuation(c, p) >= 1 for c in fr[1:-1])
