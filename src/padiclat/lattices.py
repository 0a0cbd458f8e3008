"""p-adic lattices: orthogonality, brute-force ground truth, and CVP.

The oracle here is deliberately independent of the reduction algorithms:
it enumerates every digit combination and resolves each sum's exact norm
valuation from determinants alone (no norm engine, no cache and never the
GF(p) gcd), so it can referee them.  The enumeration is vectorized: the
vectors are cleared of denominators once, the digit tuples are taken in
product order in chunks of one first-level elimination stack
(``fields._stack_size``), each chunk becomes integer rows by one product
with that integer basis, and one batched escalation
(``fields._norm_valuations``) eliminates the chunk's multiplication
matrices.  The vectors p*b_i follow in the same stream as the m unit
tuples: N(p x) = p^n N(x), so v(N(p b_i)) = n + v(N(b_i)) comes from
b_i's own determinant.  Only the first witness of each norm class becomes a field
element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

import numpy as np

from .errors import BudgetExceeded, ClassCollision, OracleInconclusive
from .fields import (
    _INT64_SAFE,
    AbsValue,
    FieldContext,
    FieldElement,
    NormEngine,
    _canonical,
    _coordinates_mod,
    _element_scale,
    _integer_rows,
    _linear_combination,
    _norm_valuations,
    _stack_size,
    coordinates_in,
    frac_valuation,
)
from .reduction import DEFAULT_BUDGET, orthogonalize
from .scalars import PRECISION_CAP, int_valuation

# digits of the first modular coordinate solve in cvp_orthogonal, and of
# the last one before the exact solve
_CVP_DIGITS = 8
_CVP_DIGITS_CAP = 64


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
    |sum a_i v_i| = max |a_i v_i|; BudgetExceeded if p^m is too large,
    ValueError for a negative budget.
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    vectors = list(vectors)
    m = len(vectors)
    engine = engine or NormEngine(ctx)
    exps = engine.abs_values(vectors)
    if any(e.is_zero for e in exps):
        raise ValueError("zero vector")
    if m == 1:
        return True
    if not force_exhaustive:
        classes = [e.exponent % 1 for e in exps]
        if len(set(classes)) == m:
            return True
    if ctx.p ** m > budget:
        raise BudgetExceeded(
            f"exhaustive orthogonality check needs p^{m} = {ctx.p ** m} "
            f"combinations, budget is {budget}")
    sums = _IntegerSums(ctx, vectors, ctx.p - 1)
    # expected v(N(sum)): the least valuation among its nonzero terms
    want = np.array([int(e.exponent * ctx.n) for e in exps])
    for tuples, _ in _digit_tuples(ctx.p, m, ctx.n):
        tuples = tuples[(tuples == 1).any(axis=1)]
        rows = sums.rows(tuples)
        if not np.count_nonzero(rows, axis=1).all():
            return False
        expected = np.where(tuples != 0, want, np.iinfo(np.int64).max).min(axis=1)
        if (np.array(sums.valuations(rows)) != expected).any():
            return False
    return True


def _digit_tuples(span: int, m: int, n: int, units: bool = False):
    """Every tuple of range(span)^m in ``itertools.product`` order, then
    with ``units`` the m unit tuples, as (tuples, mask) chunks: int64
    arrays of as many rows as one elimination stack holds n x n matrices,
    and a mask marking the unit tuples."""
    size = _stack_size(n)
    weights = span ** np.arange(m - 1, -1, -1, dtype=np.int64)
    total = span ** m
    end = total + m if units else total
    for start in range(0, end, size):
        index = np.arange(start, min(start + size, end), dtype=np.int64)
        unit = index >= total
        tuples = index[:, None] // weights % span
        tuples[unit] = np.eye(m, dtype=np.int64)[index[unit] - total]
        yield tuples, unit


class _IntegerSums:
    """Vectors cleared of denominators once: the sum of digit multiples
    sum_i t_i v_i is the integer row t @ basis over one denominator D.

    Rows are int64 while no such sum (digits up to ``largest``) can reach
    the kernel's 2^61 bound, Python ints beyond.
    """

    def __init__(self, ctx: FieldContext, vectors, largest: int):
        self.ctx = ctx
        rows, self.den = _integer_rows(vectors)
        bound = largest * max(sum(abs(r[j]) for r in rows) for j in range(ctx.n))
        self.basis = np.array(rows, dtype=np.int64 if bound < _INT64_SAFE else object)

    def rows(self, tuples):
        return tuples.astype(self.basis.dtype) @ self.basis

    def valuations(self, rows):
        """Exact v(N(row / D)) for each nonzero integer row, as a list."""
        return _norm_valuations(self.ctx, rows, self.den, 2, PRECISION_CAP)

    def element(self, row) -> FieldElement:
        return _canonical(self.ctx, [int(c) for c in row], self.den)


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
    ValueError for a negative depth or budget.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    m = lattice.rank
    p = ctx.p
    if p ** (depth * m) > budget:
        raise BudgetExceeded(
            f"enumeration p^{depth * m} exceeds budget {budget}")
    span = p ** depth
    sums = _IntegerSums(ctx, lattice.basis, max(span - 1, p))  # p: witnesses p*b_i
    best: dict = {}
    # every digit tuple in product order, then the vectors p*b_i as the unit
    # tuples: their rows are b_i, and v(N(p b_i)) = n + v(N(b_i))
    for tuples, unit in _digit_tuples(span, m, ctx.n, units=True):
        rows = sums.rows(tuples)
        nonzero = np.count_nonzero(rows, axis=1) > 0
        rows, unit = rows[nonzero], unit[nonzero]
        values = np.array(sums.valuations(rows), dtype=np.int64) + ctx.n * unit
        for v, i in zip(*np.unique(values, return_index=True)):
            e = Fraction(int(v), ctx.n)
            if e not in best:
                best[e] = sums.element(p * rows[i] if unit[i] else rows[i])
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
    res = orthogonalize(ctx, lattice.basis)
    return sorted(res.exponents, reverse=True)


def complete_orthogonal(ctx: FieldContext, partial, gamma: FieldElement, *,
                        engine: NormEngine | None = None):
    """Extend an orthogonal family to an orthogonal basis of the field by
    appending powers of the uniformizer ``gamma`` for every norm-exponent
    class mod 1 not already present."""
    partial = list(partial)
    engine = engine or NormEngine(ctx)
    exps = engine.abs_values([gamma] + partial)
    if exps[0] != AbsValue.of(1, ctx.n):
        raise ValueError("gamma is not a uniformizer (exponent 1/n)")
    if any(e.is_zero for e in exps[1:]):
        raise ValueError("zero vector")
    present = set()
    for e in exps[1:]:
        cls = e.exponent % 1
        if cls in present:
            raise ClassCollision(f"two vectors share the exponent class {cls}")
        present.add(cls)
    return partial + [g for j, g in enumerate(engine.powers(gamma))
                      if Fraction(j, ctx.n) not in present]


@dataclass(frozen=True)
class CvpResult:
    """Closest vector, its distance, and its coordinates in the lattice part
    (scalars at the context's precision)."""

    vector: FieldElement
    distance: AbsValue
    lattice_coords: tuple


def zp_split(frac: Fraction, p: int):
    """Split a rational in Q_p into integral + fractional part.

    The fractional part is the canonical finite tail sum_{i<0} d_i p^i; it
    is zero exactly when the rational lies in Z_p.
    """
    s = int_valuation(frac.denominator, p)
    if s == 0:
        return frac, Fraction(0)
    mod = p ** s
    tail = Fraction(frac.numerator * pow(frac.denominator // mod, -1, mod) % mod, mod)
    return frac - tail, tail


def cvp_orthogonal(ctx: FieldContext, lattice_basis, completion, target: FieldElement,
                   *, engine: NormEngine | None = None) -> CvpResult:
    """Closest vector of L(lattice_basis) to ``target``.

    (lattice_basis, completion) must together be an orthogonal basis of the
    field.  The target's coordinates in it are solved modulo p^N, N
    doubling from _CVP_DIGITS to _CVP_DIGITS_CAP, until they certify the
    result (:func:`_certified`).  A target no level certifies takes one
    exact solve: the zero target, a basis singular mod p once made
    primitive, and a member of L.  A level that reads distance zero goes
    on at once to _CVP_DIGITS_CAP digits: a member reads zero at every
    level, and a non-member only while its completion coordinates vanish
    mod p^N (ciphertext noise scaled by p^k does at N <= k).  The
    basis norms come from ``engine`` (a completion vector's only where the
    target has a component along it); :func:`_cvp_from_coordinates` does
    the rest, so both paths give the same result.
    """
    engine = engine or NormEngine(ctx)
    basis = list(lattice_basis)
    completion = list(completion)
    m = len(basis)
    s = _element_scale(target)
    digits = _CVP_DIGITS
    while not target.is_zero and digits <= _CVP_DIGITS_CAP:
        solved = _coordinates_mod(basis + completion, target, digits)
        if solved is None:
            break
        scales, xs = solved
        coords = [Fraction(x) * Fraction(ctx.p) ** (a - s) for a, x in zip(scales, xs)]
        exponents = _exponents(engine, basis, completion, xs)
        res = _cvp_from_coordinates(ctx, basis, coords, exponents)
        if _certified(res, exponents[:m], [digits + a - s for a in scales[:m]], xs[m:],
                      digits - s):
            return res
        if res.distance.is_zero and digits < _CVP_DIGITS_CAP:
            digits = _CVP_DIGITS_CAP
        else:
            digits *= 2
    coords = coordinates_in(ctx, target, basis + completion)
    return _cvp_from_coordinates(ctx, basis, coords, _exponents(engine, basis, completion, coords))


def _exponents(engine: NormEngine, basis, completion, coords):
    """Norm exponents of the basis, then of each completion vector whose
    coordinate is nonzero (None for the others), as one engine batch."""
    m = len(basis)
    values = iter(engine.abs_values(basis + [h for b, h in zip(coords[m:], completion) if b]))
    return [next(values).exponent if k < m or coords[k] else None
            for k in range(len(coords))]


def _certified(res: CvpResult, lattice_exponents, known, completion_residues,
               bound: int) -> bool:
    """Whether coordinates known only modulo a power of p gave the exact
    result: lattice coordinate k is known mod p^known[k], and the
    completion coordinates' residues mod p^N (in the primitive basis) are
    ``completion_residues``.

    Every lattice tail must be known (known[k] >= 0).  The distance is
    then exact up to the completion coordinates that vanish mod p^N, and
    each of those contributes at most p^-bound (bound = N - s): p^a_k C_k
    is integral over the integral generator (F is integral, as
    make_context checks), so its size is at most 1.  A nonzero distance
    above that bound is exact, and a kept digit of lattice coordinate k is
    known when known[k] >= ceil(dist - e_k).
    """
    dist = res.distance.exponent
    if dist is None or min(known) < 0:
        return False
    if not all(completion_residues) and not dist < bound:
        return False
    return all(k >= ceil(dist - e) for k, e in zip(known, lattice_exponents))


def _cvp_from_coordinates(ctx: FieldContext, lattice_basis, coords, exponents) -> CvpResult:
    """CVP on an orthogonal basis from the target's coordinates in it.

    ``coords`` are the target's coordinates (Fractions) in an orthogonal
    basis of the field whose first vectors are ``lattice_basis``, and
    ``exponents[k]`` is the norm exponent of basis vector k (read for a
    completion vector only where its coordinate is nonzero).  Each lattice
    coordinate is split into integral and fractional parts; the fractional
    parts and the completion components fix the (optimal) distance, and
    the canonical closest vector keeps of each integral part only the
    digits that matter at that distance.  Digits whose contribution is <=
    the distance cannot change optimality, so zeroing them is what makes
    the output deterministic.
    """
    m = len(lattice_basis)
    gexp = exponents[:m]
    ints = []
    parts = []
    for a, e in zip(coords[:m], gexp):
        ipart, tail = zp_split(a, ctx.p)
        ints.append(ipart)
        if tail:
            parts.append(AbsValue(Fraction(frac_valuation(tail, ctx.p)) + e))
    for b, e in zip(coords[m:], exponents[m:]):
        if b:
            parts.append(AbsValue(Fraction(frac_valuation(b, ctx.p)) + e))
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
    vec = _linear_combination(ctx, kept, lattice_basis)
    return CvpResult(vec, dist, tuple(ctx.scalar(a) for a in kept))
