"""p-adic lattices: orthogonality, brute-force ground truth, and CVP.

The oracle here is deliberately independent of the reduction algorithms:
it enumerates every digit combination and resolves each sum's exact norm
valuation from determinants alone (no norm engine, no cache and never the
GF(p) gcd), so it can referee them.  The enumeration is vectorized: the
vectors are cleared of denominators once, each chunk of digit tuples
(taken in product order) becomes integer rows by one product with that
integer basis, and one batched escalation (``fields._norm_valuations``)
eliminates the chunk's multiplication matrices as one stack.  Only the
first witness of each norm class becomes a field element.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceeded, ClassCollision, OracleInconclusive
from .fields import (
    _INT64_SAFE,
    AbsValue,
    FieldContext,
    FieldElement,
    NormEngine,
    _clear_denominators,
    _from_fracs,
    _kernel_dtype,
    _norm_valuations,
    coordinates_in,
    frac_valuation,
)
from .scalars import PRECISION_CAP, PadicScalar, int_valuation

DEFAULT_BUDGET = 10 ** 7

# digit tuples per batch: bounds the enumeration's memory (its stacks take
# about 1.3 KB per tuple at n = 6)
_CHUNK = 64


@dataclass(frozen=True)
class Lattice:
    """Z_p-span of independent field elements."""

    ctx: FieldContext
    basis: tuple

    def __init__(self, ctx, basis):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "basis", tuple(basis))
        if not 1 <= len(self.basis) <= ctx.n:
            raise ValueError("rank must be between 1 and the field degree")

    @property
    def rank(self) -> int:
        return len(self.basis)


def is_orthogonal(ctx: FieldContext, vectors, *, budget: int = DEFAULT_BUDGET,
                  engine: NormEngine | None = None, force_exhaustive: bool = False) -> bool:
    """Whether the vectors are an orthogonal basis of their span.

    Fast path: pairwise-distinct norm exponents mod 1 suffice.  Otherwise
    every digit tuple with some entry pinned to 1 is checked for
    |sum a_i v_i| = max |a_i v_i|; BudgetExceeded if p^m is too large.
    """
    vectors = list(vectors)
    m = len(vectors)
    engine = engine or NormEngine(ctx)
    exps = [engine.abs_value(v) for v in vectors]
    if any(e.is_zero for e in exps):
        raise ValueError("zero vector")
    if m == 1:
        return True
    if not force_exhaustive:
        classes = [e.exponent - (e.exponent.numerator // e.exponent.denominator)
                   for e in exps]
        if len(set(classes)) == m:
            return True
    if ctx.p ** m > budget:
        raise BudgetExceeded(
            f"exhaustive orthogonality check needs p^{m} = {ctx.p ** m} "
            f"combinations, budget is {budget}")
    sums = _IntegerSums(ctx, vectors, ctx.p - 1)
    # expected v(N(sum)): the least valuation among its nonzero terms
    want = np.array([int(e.exponent * ctx.n) for e in exps])
    for tuples in _digit_tuples(ctx.p, m):
        tuples = tuples[(tuples == 1).any(axis=1)]
        rows = sums.rows(tuples)
        if not np.count_nonzero(rows, axis=1).all():
            return False
        expected = np.where(tuples != 0, want, np.iinfo(np.int64).max).min(axis=1)
        if (np.array(sums.valuations(rows)) != expected).any():
            return False
    return True


def _digit_tuples(span: int, m: int):
    """Every tuple of range(span)^m in ``itertools.product`` order, as
    int64 arrays of at most _CHUNK rows."""
    weights = span ** np.arange(m - 1, -1, -1, dtype=np.int64)
    total = span ** m
    for start in range(0, total, _CHUNK):
        index = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        yield index[:, None] // weights % span


class _IntegerSums:
    """Vectors cleared of denominators once: the sum of digit multiples
    sum_i t_i v_i is the integer row t @ basis over one denominator D.

    Rows are int64 while no such sum (digits up to ``largest``) can reach
    the kernel's 2^61 bound, Python ints beyond.
    """

    def __init__(self, ctx: FieldContext, vectors, largest: int):
        self.ctx = ctx
        n = ctx.n
        ints, self.den = _clear_denominators([f for v in vectors for f in v.fractions()])
        rows = [ints[i:i + n] for i in range(0, len(ints), n)]
        bound = largest * max(sum(abs(r[j]) for r in rows) for j in range(n))
        self.basis = np.array(rows, dtype=np.int64 if bound < _INT64_SAFE else object)
        # D = p^t * D' with D' a unit, so p^t * (row / D) = row / D' is integral
        self.t = int_valuation(self.den, ctx.p)
        self.unit_den = self.den // ctx.p ** self.t

    def rows(self, tuples):
        return tuples.astype(self.basis.dtype) @ self.basis

    def valuations(self, rows):
        """Exact v(N(row / D)) for each nonzero integer row, as a list."""
        p, n = self.ctx.p, self.ctx.n

        def residues(idx, total):
            mod = p ** total
            r = rows[idx]
            if _kernel_dtype(p, n, total) is object:
                r = r.astype(object)
            return r % mod * pow(self.unit_den, -1, mod) % mod

        return _norm_valuations(self.ctx, residues, len(rows), n * self.t, 2, PRECISION_CAP)

    def element(self, row) -> FieldElement:
        return _from_fracs(self.ctx, [Fraction(int(c), self.den) for c in row],
                           self.ctx.precision)


@dataclass(frozen=True)
class OracleResult:
    """Ground truth from exhaustive enumeration."""

    lambda1: AbsValue
    lambda2: AbsValue
    witness: FieldElement
    classes: tuple  # distinct norm values seen, decreasing magnitude


def lvp_oracle(ctx: FieldContext, lattice: Lattice, depth: int = 2, *,
               budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Brute-force second-maximum search over digit coefficients.

    Enumerates every sum a_i * b_i with a_i below p^depth, plus the vectors
    p*b_i, and returns the largest norm, the largest norm strictly below it
    with the first witness attaining it, and all norm classes seen.
    ValueError for a negative depth.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    m = lattice.rank
    p = ctx.p
    if p ** (depth * m) > budget:
        raise BudgetExceeded(
            f"enumeration p^{depth * m} exceeds budget {budget}")
    span = p ** depth
    sums = _IntegerSums(ctx, lattice.basis, max(span - 1, p))
    best: dict = {}
    # every digit tuple in product order, then the vectors p*b_i
    for tuples in itertools.chain(_digit_tuples(span, m), [p * np.eye(m, dtype=np.int64)]):
        rows = sums.rows(tuples)
        rows = rows[np.count_nonzero(rows, axis=1) > 0]
        for v, i in zip(*np.unique(sums.valuations(rows), return_index=True)):
            e = Fraction(int(v), ctx.n)
            if e not in best:
                best[e] = sums.element(rows[i])
    order = sorted(best)  # ascending exponent = decreasing magnitude
    if len(order) < 2:
        raise OracleInconclusive(
            "no norm class below the maximum at this depth; raise the depth")
    lam1, lam2 = AbsValue(order[0]), AbsValue(order[1])
    return OracleResult(lam1, lam2, best[order[1]],
                        tuple(AbsValue(e) for e in order))


def successive_maxima(ctx: FieldContext, lattice: Lattice):
    """Norm sequence of any orthogonal basis, exponents ascending
    (magnitudes descending); basis-independent."""
    from .reduction import orthogonalize

    res = orthogonalize(ctx, lattice.basis)
    return sorted(res.exponents, reverse=True)


def complete_orthogonal(ctx: FieldContext, partial, gamma: FieldElement, *,
                        engine: NormEngine | None = None):
    """Extend an orthogonal family to an orthogonal basis of the field by
    appending powers of the uniformizer ``gamma`` for every norm-exponent
    class mod 1 not already present."""
    engine = engine or NormEngine(ctx)
    if engine.abs_value(gamma) != AbsValue.of(1, ctx.n):
        raise ValueError("gamma is not a uniformizer (exponent 1/n)")
    present = set()
    for v in partial:
        e = engine.abs_value(v).exponent
        cls = e - (e.numerator // e.denominator)
        if cls in present:
            raise ClassCollision(f"two vectors share the exponent class {cls}")
        present.add(cls)
    out = list(partial)
    power = ctx.one()
    for j in range(ctx.n):
        if Fraction(j, ctx.n) not in present:
            out.append(power)
        power = power * gamma
    return out


@dataclass(frozen=True)
class CvpResult:
    """Closest vector, its distance, and its coordinates in the lattice part."""

    vector: FieldElement
    distance: AbsValue
    lattice_coords: tuple


def zp_split(frac: Fraction, p: int):
    """Split a rational in Q_p into integral + fractional part.

    The fractional part is the canonical finite tail sum_{i<0} d_i p^i; it
    is zero exactly when the rational lies in Z_p.
    """
    den = frac.denominator
    s = 0
    d = den
    while d % p == 0:
        d //= p
        s += 1
    if s == 0:
        return frac, Fraction(0)
    mod = p ** s
    tail = Fraction(frac.numerator * pow(d, -1, mod) % mod, mod)
    return frac - tail, tail


def cvp_orthogonal(ctx: FieldContext, lattice_basis, completion, target: FieldElement,
                   *, engine: NormEngine | None = None) -> CvpResult:
    """Closest vector of L(lattice_basis) to ``target``.

    (lattice_basis, completion) must together be an orthogonal basis of the
    field.  Each lattice coordinate of the target is split into integral
    and fractional parts; the fractional parts and the completion
    components fix the (optimal) distance, and the canonical closest
    vector keeps of each integral part only the digits that matter at that
    distance.  Digits whose contribution is <= the distance cannot change
    optimality, so zeroing them is what makes the output deterministic.
    """
    engine = engine or NormEngine(ctx)
    basis = list(lattice_basis)
    completion = list(completion)
    m = len(basis)
    coords = coordinates_in(ctx, target, basis + completion, as_fractions=True)
    gexp = [engine.abs_value(g).exponent for g in basis]
    ints = []
    parts = []
    for a, e in zip(coords[:m], gexp):
        ipart, tail = zp_split(a, ctx.p)
        ints.append(ipart)
        if tail:
            parts.append(AbsValue(Fraction(frac_valuation(tail, ctx.p)) + e))
    for b, h in zip(coords[m:], completion):
        if b:
            parts.append(AbsValue(Fraction(frac_valuation(b, ctx.p))
                                  + engine.abs_value(h).exponent))
    dist = max(parts) if parts else AbsValue.zero()
    kept = []
    for a, e in zip(ints, gexp):
        if dist.is_zero or a == 0:
            kept.append(a)
            continue
        margin = dist.exponent - e
        digits = max(0, -((-margin.numerator) // margin.denominator))  # ceil
        if digits == 0:
            kept.append(Fraction(0))
            continue
        mod = ctx.p ** digits
        kept.append(Fraction(a.numerator * pow(a.denominator, -1, mod) % mod))
    vec = ctx.zero()
    for a, g in zip(kept, basis):
        if a:
            vec = vec + g * a
    coords_out = tuple(PadicScalar.from_fraction(a, p=ctx.p, precision=ctx.precision)
                       for a in kept)
    return CvpResult(vec, dist, coords_out)
