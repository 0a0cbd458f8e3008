"""Polynomial-time basis reduction in totally ramified local fields.

Three operations, all counting p-adic absolute-value computations the way
the underlying cost claims are stated: each distinct element whose size
an algorithm inspects counts once, however many digits the engine later
spends refining it.

* :func:`find_second_longest` - the second successive maximum and a witness,
  for lattices with a strictly-decreasing orthogonal basis whose smallest
  vector is still longer than p times the largest.
* :func:`orthogonalize` - recursive reduction to an orthogonal basis.
* :func:`find_second_longest_general` - the variant for residue degree
  f >= 1, searching digit combinations of a growing maximal-norm list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, ReductionFailed, SingularSystem
from .fields import AbsValue, FieldContext, FieldElement, NormEngine

DEFAULT_BUDGET = 10 ** 7


@dataclass(frozen=True)
class ReductionResult:
    """Second maximum, a vector attaining it, the reduced basis, and the
    number of absolute-value computations spent."""

    lambda2: AbsValue
    witness: FieldElement
    reduced: tuple
    abs_count: int


@dataclass(frozen=True)
class OrthoResult:
    """Orthogonal basis (norms strictly decreasing), its exponents, and
    the number of absolute-value computations spent."""

    basis: tuple
    exponents: tuple
    abs_count: int


class AbsCounter:
    """Counts distinct elements whose absolute value was queried.

    Re-queries of an element already inspected (for example the final
    max-scan over reduced vectors the loop has just produced) refine the
    cached state without incrementing the count, matching how the cost
    bounds are accounted.
    """

    def __init__(self, engine: NormEngine):
        self.engine = engine
        self._seen = set()
        self.count = 0

    def _touch(self, x: FieldElement):
        k = x.key()
        if k not in self._seen:
            self._seen.add(k)
            self.count += 1

    def abs_value(self, x: FieldElement) -> AbsValue:
        self._touch(x)
        return self.engine.abs_value(x)

    def less_than(self, x: FieldElement, bound: AbsValue) -> bool:
        self._touch(x)
        return self.engine.abs_less_than(x, bound)

    def resolve_min(self, elements):
        for x in elements:
            self._touch(x)
        return self.engine.resolve_min_valuation(elements)


def _argmax_abs(exps) -> int:
    """Index of the largest absolute value; lowest index wins ties."""
    best = 0
    for i in range(1, len(exps)):
        if exps[best] < exps[i]:
            best = i
    return best


def _reduce_pass(ctx: FieldContext, vectors, exps, counter: AbsCounter):
    """One subtract-a-digit-multiple pass: move the longest vector to the
    front, then push every other vector strictly below its norm.

    Returns (new vectors, lambda1, number of vectors stuck at lambda1).
    """
    vectors = list(vectors)
    exps = list(exps)
    i0 = _argmax_abs(exps)
    if i0:
        vectors[0], vectors[i0] = vectors[i0], vectors[0]
        exps[0], exps[i0] = exps[i0], exps[0]
    lam1 = exps[0]
    head = vectors[0]
    out = [head]
    stuck = 0
    for i in range(1, len(vectors)):
        cand = vectors[i]
        hit = None
        for _ in range(ctx.p):
            if cand.is_zero:
                raise SingularSystem("basis vectors are dependent")
            if counter.less_than(cand, lam1):
                hit = cand
                break
            cand = cand - head
        if hit is None:
            out.append(vectors[i])
            stuck += 1
        else:
            out.append(hit)
    return out, lam1, stuck


def find_second_longest(ctx: FieldContext, basis, *, engine: NormEngine | None = None,
                        counter: AbsCounter | None = None) -> ReductionResult:
    """Second successive maximum of L(basis) with witness and reduced basis.

    Requires the lattice to admit an orthogonal basis with strictly
    decreasing norms, the smallest still above |p*largest|; a violation
    surfaces as ReductionFailed.  Rank one degenerates to lambda2 =
    |p*basis[0]|.  Spends at most m + p(m-1) absolute-value computations.
    """
    basis = list(basis)
    m = len(basis)
    if m == 0:
        raise ValueError("empty basis")
    counter = counter or AbsCounter(engine or NormEngine(ctx))
    exps = [counter.abs_value(b) for b in basis]
    if any(e.is_zero for e in exps):
        raise SingularSystem("zero vector in basis")
    if m == 1:
        witness = basis[0] * ctx.p
        return ReductionResult(exps[0].scaled(1), witness, tuple(basis), counter.count)
    out, lam1, stuck = _reduce_pass(ctx, basis, exps, counter)
    if stuck:
        raise ReductionFailed(
            f"{stuck + 1} basis vectors stuck at the maximal norm; the lattice "
            "has no strictly-decreasing orthogonal basis (residue degree > 1?)")
    idx, val = counter.resolve_min(out[1:])
    lam2 = AbsValue(Fraction(val, ctx.n))
    if lam2 < lam1.scaled(1):
        raise ReductionFailed("second maximum fell below |p*longest|")
    return ReductionResult(lam2, out[1 + idx], tuple(out), counter.count)


def orthogonalize(ctx: FieldContext, basis, *, engine: NormEngine | None = None) -> OrthoResult:
    """Orthogonal basis of L(basis) by recursive reduction passes.

    Output norms are strictly decreasing and equal the successive maxima.
    Spends at most m(m-1) + p(m-1)^2 absolute-value computations.
    """
    basis = list(basis)
    m = len(basis)
    if m == 0:
        raise ValueError("empty basis")
    engine = engine or NormEngine(ctx)
    if m == 1:
        # single vector: nothing to reduce, no counted queries
        exp = engine.abs_value(basis[0])
        if exp.is_zero:
            raise SingularSystem("zero vector in basis")
        return OrthoResult(tuple(basis), (exp,), 0)
    counter = AbsCounter(engine)
    B = basis[:]
    for i in range(m - 1):
        seg = B[i:]
        exps = [counter.abs_value(b) for b in seg]
        if any(e.is_zero for e in exps):
            raise SingularSystem("zero vector in basis")
        out, _, stuck = _reduce_pass(ctx, seg, exps, counter)
        if stuck:
            raise ReductionFailed(
                "reduction pass left several vectors at the maximal norm")
        B[i:] = out
    final = tuple(counter.abs_value(b) for b in B)
    for a, b in zip(final, final[1:]):
        if not b < a:
            raise ReductionFailed("output norms are not strictly decreasing")
    return OrthoResult(tuple(B), final, counter.count)


def _multiples(x: FieldElement, count: int):
    """0, x, 2x, ..., (count - 1) x."""
    out = [x.ctx.zero()]
    for _ in range(1, count):
        out.append(out[-1] + x)
    return out


def find_second_longest_general(ctx: FieldContext, basis, residue_degree: int, *,
                                budget: int = DEFAULT_BUDGET,
                                engine: NormEngine | None = None) -> ReductionResult:
    """Second successive maximum when up to ``residue_degree`` orthogonal
    vectors share the maximal norm.

    Maintains a list L of certified maximal-norm orthogonal vectors and
    searches digit combinations over L to reduce each remaining vector;
    takes O(m * p^f) absolute-value computations.  When every vector joins
    L the answer degenerates to lambda2 = |p*longest| with witness
    p*longest.
    """
    basis = list(basis)
    m = len(basis)
    if m == 0:
        raise ValueError("empty basis")
    if residue_degree < 1:
        raise ValueError("residue degree must be positive")
    p = ctx.p
    counter = AbsCounter(engine or NormEngine(ctx))
    exps = [counter.abs_value(b) for b in basis]
    if any(e.is_zero for e in exps):
        raise SingularSystem("zero vector in basis")
    if m == 1:
        witness = basis[0] * p
        return ReductionResult(exps[0].scaled(1), witness, tuple(basis), counter.count)
    B = list(basis)
    i0 = _argmax_abs(exps)
    if i0:
        B[0], B[i0] = B[i0], B[0]
        exps[0], exps[i0] = exps[i0], exps[0]
    lam1 = exps[0]
    maximal = [B[0]]
    multiples = [_multiples(B[0], p)]
    out = [B[0]]
    reduced = []
    for i in range(1, m):
        t = len(maximal)
        if p ** t > budget:
            raise BudgetExceeded(f"digit search p^{t} exceeds budget {budget}")
        hit = None
        for combo in itertools.product(range(p), repeat=t):
            cand = B[i]
            for k, d in enumerate(combo):
                if d:
                    cand = cand - multiples[k][d]
            if cand.is_zero:
                raise SingularSystem("basis vectors are dependent")
            if counter.less_than(cand, lam1):
                hit = cand
                break
        if hit is None:
            maximal.append(B[i])
            multiples.append(_multiples(B[i], p))
            out.append(B[i])
        else:
            out.append(hit)
            reduced.append(hit)
    if len(maximal) > residue_degree:
        raise ReductionFailed(
            f"{len(maximal)} orthogonal maximal-norm vectors exceed the "
            f"declared residue degree {residue_degree}")
    if not reduced:
        return ReductionResult(lam1.scaled(1), out[0] * p, tuple(out), counter.count)
    idx, val = counter.resolve_min(reduced)
    lam2 = AbsValue(Fraction(val, ctx.n))
    if lam2 < lam1.scaled(1):
        raise ReductionFailed("second maximum fell below |p*longest|")
    return ReductionResult(lam2, reduced[idx], tuple(out), counter.count)
