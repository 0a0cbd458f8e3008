"""p-adic lattices: orthogonality, brute-force ground truth, and CVP.

The oracle here is deliberately independent of the reduction algorithms:
it enumerates digit combinations and asks a fresh, uncached norm engine
for each sum, so it can referee them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, ClassCollision, OracleInconclusive
from .fields import (
    AbsValue,
    FieldContext,
    FieldElement,
    NormEngine,
    coordinates_in,
    frac_valuation,
)
from .scalars import PadicScalar

DEFAULT_BUDGET = 10 ** 7


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
    mults = [_multiples(v, ctx.p) for v in vectors]
    for combo in itertools.product(range(ctx.p), repeat=m):
        if 1 not in combo:
            continue
        acc = ctx.zero()
        expected = None
        for d, table, e in zip(combo, mults, exps):
            if d:
                acc = acc + table[d]
                if expected is None or expected < e:
                    expected = e
        if NormEngine(ctx).abs_value(acc) != expected:
            return False
    return True


def _multiples(x: FieldElement, count: int):
    out = [x.ctx.zero()]
    for _ in range(1, count):
        out.append(out[-1] + x)
    return out


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
    """
    m = lattice.rank
    p = ctx.p
    if p ** (depth * m) > budget:
        raise BudgetExceeded(
            f"enumeration p^{depth * m} exceeds budget {budget}")
    span = p ** depth
    tables = [_multiples(b, span) for b in lattice.basis]
    best: dict = {}
    for combo in itertools.product(range(span), repeat=m):
        acc = ctx.zero()
        for d, table in zip(combo, tables):
            if d:
                acc = acc + table[d]
        if acc.is_zero:
            continue
        e = NormEngine(ctx).abs_value(acc)
        if e.exponent not in best:
            best[e.exponent] = acc
    for b in lattice.basis:
        extra = b * p
        e = NormEngine(ctx).abs_value(extra)
        if e.exponent not in best:
            best[e.exponent] = extra
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
