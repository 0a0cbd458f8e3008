"""Arithmetic in K = Q_p[x]/(F(x)).

Elements are coefficient vectors over :class:`PadicScalar` in the power
basis of the formal root.  Exact element arithmetic runs on integer
vectors: a product clears each operand's denominators once, multiplies
and reduces by F over Python ints (``_int_mul_mod``, the one polynomial
multiplier, which ``bench`` shares), and sums, differences and scalar
multiples combine the exact rationals directly; either way each output
scalar is built once, at the smallest precision among the operands and
the context.  The extended absolute value |x| = |N(x)|^(1/n)
is computed from the valuation of the determinant of the multiplication
matrix, evaluated modulo p^M with full valuation pivoting.  M escalates
adaptively: a query only pays for as many digits as the answer needs,
which is what keeps the attack loops cheap at large degree.

One kernel does every exact valuation: ``_det_valuation``, one numpy
elimination over a stack of matrices (a single matrix is a stack of one),
over int64 residues while p^(2M) * n < 2^61 and over Python ints beyond.
One escalation loop, ``_norm_valuations``, picks M for a batch of
elements: ``NormEngine.norm_valuation`` runs it for one element (absolute
values and :func:`field_norm`), the brute-force lattice oracle for a
whole chunk of digit sums at once.  The one query that needs a single
digit, "is N(x) a unit?", is answered over GF(p) instead:
N(x) mod p = +-Res(F mod p, x mod p), so it is a unit exactly when the
two residue polynomials are coprime (``_gf_coprime``, an O(n^2) Euclid).
Only threshold tests (``NormEngine.norm_exceeds``) reach that path; an
exact valuation is always a determinant, so the brute-force oracle keeps
refereeing the gcd.

Coordinates in a basis (CVP in the schemes and the attack, lattice
membership, and the key generator's change of generator) come from one
exact kernel, ``_solve_exact``.  It clears each row's denominators once,
runs Gauss-Jordan on primitive integer rows (every updated row is divided
by the gcd of its entries) and turns each coordinate into a Fraction once
at the end; a block of right-hand sides shares one pass.  The system has a
unique exact solution, so the pivot rule only affects speed, never an
output.
"""

from __future__ import annotations

import operator
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
from .scalars import PRECISION_CAP, PadicScalar, int_valuation

_INT64_SAFE = 2 ** 61
# up to this many row and column swaps per step, basic indexing (one matrix
# at a time) beats a fancy-indexed gather and scatter
_FEW_SWAPS = 4


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
        return "AbsValue(0)" if self.is_zero else f"AbsValue(p^-{self.exponent})"


class FieldContext:
    """Immutable description of K = Q_p[x]/(F): p, degree, modulus, precision.

    ``ramification``/``residue_degree`` are caller-declared metadata; the
    context never computes them.  Instances are safe to share between
    threads: the only mutation is an append-only residue cache.
    """

    __slots__ = ("p", "n", "precision", "modulus", "ramification",
                 "residue_degree", "_res_cache", "_int_modulus")

    def __init__(self, p, precision, modulus, ramification=None, residue_degree=None):
        self.p = p
        self.precision = precision
        self.modulus = tuple(modulus)
        self.n = len(self.modulus) - 1
        self.ramification = ramification
        self.residue_degree = residue_degree
        self._res_cache = {}
        # the non-leading coefficients as (integer vector, lcm of their
        # denominators) for exact products
        (fbar,), _ = _exact_fracs(self, self.modulus[:-1])
        self._int_modulus = _clear_denominators(fbar)

    # -- element constructors ------------------------------------------

    def scalar(self, value) -> PadicScalar:
        if isinstance(value, PadicScalar):
            return value
        return PadicScalar.from_fraction(Fraction(value), p=self.p, precision=self.precision)

    def element(self, coeffs) -> "FieldElement":
        coeffs = list(coeffs)
        if len(coeffs) > self.n:
            raise ValueError(f"at most {self.n} coefficients expected")
        coeffs += [0] * (self.n - len(coeffs))
        return FieldElement(self, tuple(self.scalar(c) for c in coeffs))

    def zero(self) -> "FieldElement":
        return self.element([])

    def one(self) -> "FieldElement":
        return self.monomial(0)

    def gen(self) -> "FieldElement":
        return self.monomial(1)

    def monomial(self, k: int, coefficient=1) -> "FieldElement":
        if not 0 <= k < self.n:
            raise ValueError("monomial degree out of range")
        coeffs = [0] * self.n
        coeffs[k] = coefficient
        return self.element(coeffs)

    # -- plumbing --------------------------------------------------------

    def same_structure(self, other: "FieldContext") -> bool:
        if self is other:
            return True
        return (self.p == other.p and self.n == other.n
                and all(a == b for a, b in zip(self.modulus, other.modulus)))

    def _modulus_residues(self, digits: int):
        """Residues mod p^digits of the non-leading modulus coefficients."""
        got = self._res_cache.get(digits)
        if got is None:
            got = [c.residue(digits) for c in self.modulus[:-1]]
            self._res_cache[digits] = got
        return got

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
    (constant term first, leading coefficient last)."""
    check_parameters(p, precision)
    sc = [c if isinstance(c, PadicScalar)
          else PadicScalar.from_fraction(Fraction(c), p=p, precision=precision)
          for c in coeffs]
    check_degree(len(sc) - 1)
    lead = sc[-1]
    if lead.is_zero or lead.valuation != 0 or lead.unit % lead.p ** lead.precision != 1:
        raise NotMonic("leading coefficient must be 1")
    for c in sc[:-1]:
        if not c.is_zero and c.valuation < 0:
            raise NotIntegral("modulus coefficients must lie in Z_p")
    return FieldContext(p, precision, sc, ramification, residue_degree)


class FieldElement:
    """Element of K as a coefficient vector in the power basis."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldContext, coeffs):
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def key(self):
        return tuple(c.key() for c in self.coeffs)

    def fractions(self) -> list[Fraction]:
        """Exact coefficient vector."""
        return [c.to_fraction() for c in self.coeffs]

    def _check(self, other: "FieldElement"):
        if not self.ctx.same_structure(other.ctx):
            raise ValueError("elements from different contexts")

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return _elem_combine(self, other, operator.add)

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return _elem_combine(self, other, operator.sub)

    def __neg__(self):
        return FieldElement(self.ctx, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            self._check(other)
            return _elem_mul(self, other)
        if isinstance(other, (int, Fraction, PadicScalar)):
            (a, (b,)), precision = _exact_fracs(self.ctx, self.coeffs, (self.ctx.scalar(other),))
            return _from_fracs(self.ctx, [c * b for c in a], precision)
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
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.ctx.same_structure(other.ctx) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.n, self.coeffs))

    def __repr__(self):
        parts = [f"{c.to_fraction()}*z^{i}" for i, c in enumerate(self.coeffs) if not c.is_zero]
        return "FieldElement(" + (" + ".join(parts) if parts else "0") + ")"


# ---------------------------------------------------------------------------
# Exact element arithmetic on integer vectors.  An element is a vector of
# Fractions; a product clears each operand's denominators once, multiplies
# and reduces over Python ints, and builds each output scalar once.
# ---------------------------------------------------------------------------


def _exact_fracs(ctx: FieldContext, *operands):
    """The rationals of each operand (a sequence of scalars), and the
    precision of a result built from them: the smallest among the
    operands' scalars and the context.  ValueError for a scalar of
    another prime."""
    p, precision = ctx.p, ctx.precision
    out = []
    for scalars in operands:
        fracs = []
        for c in scalars:
            if c.p != p:
                raise ValueError("mixed primes")
            if c.precision < precision:
                precision = c.precision
            fracs.append(c._frac)
        out.append(fracs)
    return out, precision


def _from_fracs(ctx: FieldContext, fracs, precision: int) -> FieldElement:
    p = ctx.p
    return FieldElement(ctx, tuple(PadicScalar.from_fraction(f, p=p, precision=precision)
                                   for f in fracs))


def _elem_combine(x: FieldElement, y: FieldElement, op) -> FieldElement:
    """Coefficient-wise x op y (op adds or subtracts)."""
    (a, b), precision = _exact_fracs(x.ctx, x.coeffs, y.coeffs)
    return _from_fracs(x.ctx, map(op, a, b), precision)


def _clear_denominators(fracs):
    """(integer vector, d) with fracs = vector / d, d the lcm of the
    denominators."""
    d = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (d // f.denominator) for f in fracs], d


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
    ctx = x.ctx
    (xf, yf), precision = _exact_fracs(ctx, x.coeffs, y.coeffs)
    (xn, xd), (yn, yd) = _clear_denominators(xf), _clear_denominators(yf)
    fbar, fden = ctx._int_modulus
    den = xd * yd * fden ** (ctx.n - 1)
    return _from_fracs(ctx, [Fraction(r, den) for r in _int_mul_mod(xn, yn, fbar, fden)],
                       precision)


# ---------------------------------------------------------------------------
# Norm engine: valuation of det(multiplication matrix) mod p^M.
# ---------------------------------------------------------------------------


class _Deeper(Exception):
    """Internal: determinant valuation is at least ``bound`` digits."""

    def __init__(self, bound):
        self.bound = bound


def _scaled_residue(c: PadicScalar, shift: int, digits: int, p: int) -> int:
    """Residue of c * p^shift mod p^digits (the product must be integral)."""
    if c.is_zero:
        return 0
    f = c.to_fraction()
    num, den = f.numerator, f.denominator
    vd = int_valuation(den, p) if den % p == 0 else 0
    den //= p ** vd
    t = shift - vd
    num = num * p ** t if t >= 0 else num // p ** (-t)
    mod = p ** digits
    return num * pow(den, -1, mod) % mod


def _element_scale(x: FieldElement) -> int:
    """Smallest s making every coefficient of p^s * x integral."""
    s = 0
    for c in x.coeffs:
        if not c.is_zero and c.valuation < 0:
            s = max(s, -c.valuation)
    return s


def _kernel_dtype(p: int, n: int, digits: int):
    """int64 while n products of two residues mod p^digits fit below 2^61,
    Python ints (object dtype) beyond."""
    return np.int64 if p ** (2 * digits) * n < _INT64_SAFE else object


def _mult_rows_mod(ctx: FieldContext, x, digits: int, s: int = 0):
    """Rows spanning x*z^j (j = 0..n-1) mod p^digits.

    ``x`` is either a FieldElement, giving the n x n rows of p^s * x with
    s = ``_element_scale(x)``, or a stack of residue vectors mod p^digits
    (B x n integers), giving a B x n x n stack.  det(rows) = det of the
    multiplication matrix of (p^s times) the element.
    """
    p, n = ctx.p, ctx.n
    if isinstance(x, FieldElement):
        return _mult_rows_mod(ctx, [[_scaled_residue(c, s, digits, p) for c in x.coeffs]],
                              digits)[0]
    mod = p ** digits
    dtype = _kernel_dtype(p, n, digits)
    fold = -np.array(ctx._modulus_residues(digits), dtype=dtype)
    first = np.asarray(x, dtype=dtype)
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


def _det_valuation(rows, p: int, digits: int):
    """Valuation of det(rows) computed mod p^digits, for one matrix or a
    stack of them.

    ``rows`` is a square integer matrix (array or list of lists) or a
    B x n x n stack.  Each step pivots every matrix on its diagonal entry
    when that is a unit (in place, with no search and no swap when the
    whole stack has one) and otherwise on the first minimal-valuation
    entry of its remaining block; either way the pivot has minimal
    valuation, which keeps every intermediate entry exact mod p^digits.
    A matrix whose block vanishes mod p^digits has valuation at least
    vsum + digits (its _Deeper bound); an identity block then carries it
    through the remaining steps.  Only the pivot row and column are
    reduced each step: the block takes at most n products of two
    residues, which ``_kernel_dtype`` keeps in range.

    One matrix: returns (valuation, unit, unit_digits) and raises _Deeper.
    A stack: returns lists (v, deeper), per matrix the valuation, or where
    ``deeper`` is set, the _Deeper bound.
    """
    A = np.asarray(rows, dtype=_kernel_dtype(p, len(rows[0]), digits))
    single = A.ndim == 2
    n = A.shape[-1]
    mod = p ** digits
    A = A.reshape(-1, n, n) % mod
    del rows  # the elimination works on its own copy
    vsum = [0] * len(A)
    deeper = [False] * len(A)
    sign = unit = 1  # of a single matrix
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
            if single:
                sign *= (-1) ** (len(row_swaps) + len(col_swaps))
            units = A[:, k, k].tolist()
            if pv is not None and any(pv):
                shift = [1] * len(A)
                for b, v in zip(sel, pv):
                    vsum[b] += v
                    shift[b] = p ** v
                units = [u % mod // d for u, d in zip(units, shift)]
                shift = np.array(shift, dtype=A.dtype)[:, None]
        if single:
            unit = unit * units[0] % mod
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
    if not single:
        return vsum, deeper
    v = vsum[0]
    if deeper[0]:
        raise _Deeper(v)
    uprec = digits - v
    if uprec <= 0:
        return v, 1, 0
    return v, sign * unit % p ** uprec, uprec


def _norm_valuations(ctx: FieldContext, residues, count: int, shift: int,
                     digits: int, cap: int):
    """Exact v(N(x_i)) for ``count`` elements with p^s * x_i integral,
    shift = n*s: the one escalation loop.

    ``residues(idx, total)`` returns the residue vectors mod p^total of
    p^s * x_i for the elements still open (a list of indices).  Every
    open element is eliminated at ``digits`` norm digits in one stack;
    only the matrices that come back _Deeper go on, at twice the digits,
    until ``cap``, past which PrecisionExhausted.  Returns a list.
    """
    p = ctx.p
    out = [0] * count
    todo = list(range(count))
    while todo:
        total = digits + shift
        v, deeper = _det_valuation(_mult_rows_mod(ctx, residues(todo, total), total),
                                   p, total)
        for i, vi in zip(todo, v):
            out[i] = vi - shift  # a _Deeper bound is overwritten once resolved
        todo = [i for i, d in zip(todo, deeper) if d]
        if todo and digits >= cap:
            raise PrecisionExhausted(
                f"norm valuation not certified within {cap} digits "
                "(element extremely small, or modulus reducible)")
        digits = min(2 * digits, cap)
    return out


def _gf_coprime(a, b, p: int) -> bool:
    """Whether two polynomials over GF(p) (coefficient lists, constant
    term first, entries in [0, p)) are coprime.  Euclid's algorithm."""
    a, b = list(a), list(b)
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    while b:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        # a <- a mod b, clearing the top coefficient of a each step
        for top in range(len(a) - 1, db - 1, -1):
            q = a.pop() * inv % p
            if q:
                off = top - db
                a[off:top] = [(u - q * w) % p for u, w in zip(a[off:top], b)]
        while a and a[-1] == 0:
            a.pop()
        a, b = b, a
    return len(a) == 1


class _NormState:
    """What one engine knows of v(N(x)): the exact value once resolved,
    a lower bound until then, and the scale s making p^s * x integral."""

    __slots__ = ("exact", "lower", "s")

    def __init__(self, s: int, n: int):
        self.exact = None
        self.s = s
        # p^s * x is integral, so v(N(x)) >= -n*s
        self.lower = -n * s


class NormEngine:
    """Memoized absolute-value queries against one context.

    Each distinct element pays only for the digits its answer needs;
    partial knowledge (valuation lower bounds) is carried across queries
    so threshold tests and later exact queries share work.  A threshold
    test that needs a single digit is a GF(p) gcd; ``norm_valuation`` and
    ``resolve_min_valuation`` never ask for fewer than two digits, so on
    a fresh engine every exact valuation is a determinant.
    """

    def __init__(self, ctx: FieldContext, digit_cap: int = PRECISION_CAP):
        self.ctx = ctx
        self.digit_cap = digit_cap
        self._states: dict = {}

    def _state(self, x: FieldElement) -> _NormState:
        k = x.key()
        st = self._states.get(k)
        if st is None:
            st = _NormState(_element_scale(x), self.ctx.n)
            self._states[k] = st
        return st

    def _attempt(self, x: FieldElement, st: _NormState, digits: int) -> bool:
        """One evaluation of ``digits`` norm digits; True when the
        valuation resolved, else the lower bound rises to at least
        ``digits``."""
        ctx = self.ctx
        p, shift = ctx.p, ctx.n * st.s
        total = digits + shift
        if total == 1:
            # N(p^s x) mod p = +-Res(F mod p, p^s x mod p): one digit of the
            # determinant is nonzero exactly when the residues are coprime
            xbar = [_scaled_residue(c, st.s, 1, p) for c in x.coeffs]
            if _gf_coprime(xbar, ctx._modulus_residues(1) + [1], p):
                st.exact = -shift
                return True
            st.lower = max(st.lower, 1 - shift)
            return False
        try:
            rows = _mult_rows_mod(ctx, x, total, st.s)
            v, _, _ = _det_valuation(rows, p, total)
        except _Deeper as d:
            st.lower = max(st.lower, d.bound - shift)
            return False
        st.exact = v - shift
        return True

    def norm_valuation(self, x: FieldElement):
        """Valuation of N(x); None for the zero element."""
        if x.is_zero:
            return None
        st = self._state(x)
        if st.exact is None:
            p, s = self.ctx.p, st.s

            def residues(_, total):
                return [[_scaled_residue(c, s, total, p) for c in x.coeffs]]

            st.exact = _norm_valuations(self.ctx, residues, 1, self.ctx.n * s,
                                        max(2, st.lower + 1), self.digit_cap)[0]
        return st.exact

    def norm_exceeds(self, x: FieldElement, bound: int) -> bool:
        """Whether v(N(x)) > bound (True for the zero element)."""
        if x.is_zero:
            return True
        st = self._state(x)
        if st.exact is not None:
            return st.exact > bound
        if st.lower > bound:
            return True
        if self._attempt(x, st, bound + 1):
            return st.exact > bound
        return True

    def abs_value(self, x: FieldElement) -> AbsValue:
        v = self.norm_valuation(x)
        if v is None:
            return AbsValue.zero()
        return AbsValue(Fraction(v, self.ctx.n))

    def abs_less_than(self, x: FieldElement, bound: AbsValue) -> bool:
        """|x| < bound, decided with as few digits as possible."""
        if bound.is_zero:
            return False
        t = bound.exponent * self.ctx.n
        return self.norm_exceeds(x, t.numerator // t.denominator)

    def resolve_min_valuation(self, elements):
        """(index, valuation) of the element with minimal norm valuation,
        i.e. the largest absolute value; lowest index wins ties."""
        states = [(i, x, self._state(x)) for i, x in enumerate(elements) if not x.is_zero]
        if not states:
            raise ValueError("all elements are zero")
        digits = 2
        while True:
            best = None
            for i, x, st in states:
                if st.exact is not None and (best is None or st.exact < best[1]):
                    best = (i, st.exact)
            if best is not None and all(
                    st.exact is not None or st.lower > best[1] for _, _, st in states):
                return best
            if digits > self.digit_cap:
                raise PrecisionExhausted("could not separate norm valuations")
            for _, x, st in states:
                if st.exact is None and st.lower < digits:
                    self._attempt(x, st, digits)
            digits *= 2


def abs_value(ctx: FieldContext, x: FieldElement, engine: NormEngine | None = None) -> AbsValue:
    """Extended absolute value |x| = |N(x)|^(1/n) as an exact exponent."""
    return (engine or NormEngine(ctx)).abs_value(x)


def field_norm(ctx: FieldContext, x: FieldElement) -> PadicScalar:
    """Norm N(x) = det of the multiplication-by-x matrix, with the unit
    part carried to the context precision.

    The result is the rational unit * p^v, v = v(N(x)), with ``unit`` the
    determinant's unit digits mod p^precision: its digits up to
    v + precision are N(x)'s, those past it the representative's."""
    if x.is_zero:
        return PadicScalar.zero(ctx.p, ctx.precision)
    v = NormEngine(ctx).norm_valuation(x)
    # the determinant of p^s * x has valuation v + n*s; these digits leave
    # exactly ``precision`` unit digits
    s = _element_scale(x)
    digits = v + ctx.n * s + ctx.precision
    if digits > PRECISION_CAP:
        raise PrecisionExhausted("norm unit not certified at the precision cap")
    rows = _mult_rows_mod(ctx, x, digits, s)
    _, unit, _ = _det_valuation(rows, ctx.p, digits)
    return PadicScalar.from_fraction(unit * Fraction(ctx.p) ** v, p=ctx.p,
                                     precision=ctx.precision)


# ---------------------------------------------------------------------------
# Exact linear algebra over Q_p (requires exact coefficients).  One kernel
# eliminates primitive integer rows; its answer is the unique exact
# solution, so no pivot rule can change an output.
# ---------------------------------------------------------------------------


def _primitive(row):
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _solve_exact(columns, targets):
    """Exact coordinates of each target in the span of ``columns``: one
    list of Fractions per target.  Columns and targets are coefficient
    lists of rationals (Fractions or ints) of one length.

    Each coordinate row (one per power-basis position) is cleared of
    denominators once, with the lcm of the row, and eliminated as a
    primitive integer row: Gauss-Jordan with the update
    row * (a/g) - pivot_row * (b/g), g = gcd(a, b), then division by the
    gcd of the row, so entries stay as small as reduced Fractions would
    without any Fraction arithmetic.  Each coordinate is read off once at
    the end.  The solution is unique and exact, so the pivot (the nonzero
    entry of least magnitude, which keeps the multipliers small) cannot
    change it.  Raises SingularSystem at the first column dependent on the
    earlier ones and NotInSpan when some target lies outside their span.
    """
    cols = list(columns) + list(targets)
    m = len(columns)
    rows = []
    for entries in zip(*cols):
        rows.append(_primitive(_clear_denominators(entries)[0]))
    n = len(rows)
    for col in range(m):
        pivot = min((r for r in range(col, n) if rows[r][col]),
                    key=lambda r: abs(rows[r][col]), default=None)
        if pivot is None:
            raise SingularSystem(f"vector {col} is dependent on the earlier ones")
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
    if any(any(row[m:]) for row in rows[m:]):
        raise NotInSpan("target lies outside the span of the vectors")
    return [[Fraction(rows[i][t], rows[i][i]) for i in range(m)]
            for t in range(m, len(cols))]


def coordinates_in(ctx: FieldContext, target: FieldElement, vectors,
                   as_fractions: bool = False):
    """Coordinates of ``target`` in the Q_p-span of ``vectors``.

    A one-target call into ``_solve_exact``: exact Gauss-Jordan on
    primitive integer rows.  The solution is unique, so the pivot rule
    cannot change it.  Raises SingularSystem for dependent vectors (naming
    the first) and NotInSpan when the system is inconsistent.
    """
    coords = _solve_exact([v.fractions() for v in vectors], [target.fractions()])[0]
    if as_fractions:
        return coords
    return [PadicScalar.from_fraction(c, p=ctx.p, precision=ctx.precision) for c in coords]


def is_eisenstein(p: int, coeffs) -> bool:
    """True iff the monic polynomial (constant term first) is Eisenstein:
    every non-leading coefficient divisible by p, constant term exactly once."""
    fr = [c.to_fraction() if isinstance(c, PadicScalar) else Fraction(c) for c in coeffs]
    if fr[-1] != 1:
        raise NotMonic("Eisenstein test requires a monic polynomial")
    v0 = frac_valuation(fr[0], p)
    if v0 != 1:
        return False
    for c in fr[1:-1]:
        v = frac_valuation(c, p)
        if v is not None and v < 1:
            return False
    return True


def evaluate_poly(ctx: FieldContext, coeffs, x: FieldElement) -> FieldElement:
    """Evaluate a polynomial (constant first, scalar coefficients) at x."""
    acc = ctx.zero()
    for c in reversed(list(coeffs)):
        acc = acc * x + ctx.element([c])
    return acc
