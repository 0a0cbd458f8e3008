"""Polynomial-time basis reduction in local fields.

All three operations run one digit-search pass (``_reduce_pass``): the
longest vector goes to the front, and every other vector is pushed below
its norm by subtracting a digit combination of the maximal-norm vectors
found so far.  With residue degree f the search tries up to p^f
combinations per vector; in the totally ramified case f = 1 that is the
p multiples d*longest, d = 0..p-1, and the pass is deterministic
polynomial time.  Absolute-value computations are counted the way the
underlying cost claims are stated: each distinct element whose size an
algorithm inspects counts once, however many digits the engine later
spends refining it.

* :func:`find_second_longest` - the second successive maximum and a witness,
  for lattices with a strictly-decreasing orthogonal basis whose smallest
  vector is still longer than p times the largest (the f = 1 case of
  :func:`find_second_longest_general`).
* :func:`orthogonalize` - recursive reduction to an orthogonal basis, one
  f = 1 pass per suffix.
* :func:`find_second_longest_general` - the variant for residue degree
  f >= 1, searching digit combinations of a growing maximal-norm list.

The second maximum is the largest of the reduced vectors' exact norms.
Every reduced vector passed |r| < lambda1, and norm exponents are
multiples of 1/n, so none exceeds top = lambda1 * p^(-1/n).  The pick
reads the exact norms in index order, one elimination stack
(``fields._stack_size``) at a time, and stops after the first stack
holding a vector of norm top: that vector is the lowest-index argmax, the
answer the full pick returns.  Every reduced vector was already counted
by its threshold test, so ``abs_count`` is the same either way.  In
every seeded uniformizer recovery measured, the first reduced vector
already has norm top, so the pick reads one stack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, ReductionFailed, SingularSystem
from .fields import AbsValue, FieldContext, FieldElement, NormEngine, _stack_size

# the most digit combinations a search or an enumeration may try
# (here and in ``lattices``) unless its caller says otherwise
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
    """Orthogonal basis (norms strictly decreasing), its exponents, the
    number of absolute-value computations spent, and the integer matrix U
    (rows of ints) with basis[k] = sum_j U[k][j] * input[j]."""

    basis: tuple
    exponents: tuple
    abs_count: int
    transform: tuple


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
        k = x.identity
        if k not in self._seen:
            self._seen.add(k)
            self.count += 1

    def abs_values(self, xs) -> list:
        """|x| for each element, as one engine batch."""
        xs = list(xs)
        for x in xs:
            self._touch(x)
        return self.engine.abs_values(xs)

    def abs_value(self, x: FieldElement) -> AbsValue:
        return self.abs_values([x])[0]

    def less_than(self, x: FieldElement, bound: AbsValue) -> bool:
        self._touch(x)
        return self.engine.abs_less_than(x, bound)


def _argmax_abs(exps) -> int:
    """Index of the largest absolute value; lowest index wins ties."""
    best = 0
    for i in range(1, len(exps)):
        if exps[best] < exps[i]:
            best = i
    return best


def _multiples(x: FieldElement, count: int):
    """0, x, 2x, ..., (count - 1) x, for count >= 2."""
    out = [x.ctx.zero(), x]
    while len(out) < count:
        out.append(out[-1] + x)
    return out


def _reduce_pass(ctx: FieldContext, vectors, exps, counter: AbsCounter,
                 residue_degree: int = 1, budget: int | None = None):
    """The digit-search pass of the module docstring, combinations tried in
    ``itertools.product`` order.  A vector no combination reduces joins
    the maximal list; more than ``residue_degree`` of them is a failure.

    Returns (new vectors, lambda1, the reduced vectors in order, steps):
    new vector k is input[src] - sum d * input[j] for steps[k] =
    (src, ((j, d), ...)), the input vectors j being maximal ones.
    """
    p = ctx.p
    vectors = list(vectors)
    exps = list(exps)
    order = list(range(len(vectors)))
    i0 = _argmax_abs(exps)
    if i0:
        for seq in (vectors, exps, order):
            seq[0], seq[i0] = seq[i0], seq[0]
    lam1 = exps[0]
    # a lone vector needs no table (p may be huge)
    multiples = [_multiples(vectors[0], p)] if len(vectors) > 1 else []
    maximal = [order[0]]  # input positions of the tables' vectors
    out = [vectors[0]]
    steps = [(order[0], ())]
    reduced = []
    for src, v in zip(order[1:], vectors[1:]):
        t = len(multiples)
        if budget is not None and p ** t > budget:
            raise BudgetExceeded(f"digit search p^{t} exceeds budget {budget}")
        hit = None
        for combo in itertools.product(range(p), repeat=t):
            cand = v
            for table, d in zip(multiples, combo):
                if d:
                    cand = cand - table[d]
            if cand.is_zero:
                raise SingularSystem("basis vectors are dependent")
            if counter.less_than(cand, lam1):
                hit = cand
                break
        if hit is None:
            if t == residue_degree:
                raise ReductionFailed(
                    f"{t + 1} orthogonal vectors share the maximal norm, more "
                    f"than the residue degree {residue_degree}")
            multiples.append(_multiples(v, p))
            maximal.append(src)
            out.append(v)
            steps.append((src, ()))
        else:
            out.append(hit)
            reduced.append(hit)
            steps.append((src, tuple((j, d) for j, d in zip(maximal, combo) if d)))
    return out, lam1, reduced, steps


def find_second_longest(ctx: FieldContext, basis, *,
                        engine: NormEngine | None = None) -> ReductionResult:
    """Second successive maximum of L(basis) with witness and reduced basis.

    Requires the lattice to admit an orthogonal basis with strictly
    decreasing norms, the smallest still above |p*largest|; a violation
    surfaces as ReductionFailed.  Rank one degenerates to lambda2 =
    |p*basis[0]|.  Spends at most m + p(m-1) absolute-value computations.
    """
    return find_second_longest_general(ctx, basis, 1, budget=None, engine=engine)


def orthogonalize(ctx: FieldContext, basis, *, engine: NormEngine | None = None) -> OrthoResult:
    """Orthogonal basis of L(basis) by recursive reduction passes.

    Output norms are strictly decreasing and equal the successive maxima.
    Spends at most m(m-1) + p(m-1)^2 absolute-value computations.  The
    transform U is built from the digits each pass subtracts, by integer
    row operations, so it is exact and unimodular.
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
        return OrthoResult(tuple(basis), (exp,), 0, ((1,),))
    counter = AbsCounter(engine)
    B = basis[:]
    U = [[int(j == k) for j in range(m)] for k in range(m)]
    for i in range(m - 1):
        seg = B[i:]
        exps = counter.abs_values(seg)
        if any(e.is_zero for e in exps):
            raise SingularSystem("zero vector in basis")
        B[i:], _, _, steps = _reduce_pass(ctx, seg, exps, counter)
        old = U[i:]
        for k, (src, digits) in enumerate(steps, i):
            row = old[src]
            for j, d in digits:
                row = [a - d * b for a, b in zip(row, old[j])]
            U[k] = row
    final = tuple(counter.abs_values(B))
    for a, b in zip(final, final[1:]):
        if not b < a:
            raise ReductionFailed("output norms are not strictly decreasing")
    return OrthoResult(tuple(B), final, counter.count, tuple(map(tuple, U)))


def find_second_longest_general(ctx: FieldContext, basis, residue_degree: int, *,
                                budget: int | None = DEFAULT_BUDGET,
                                engine: NormEngine | None = None) -> ReductionResult:
    """Second successive maximum when up to ``residue_degree`` orthogonal
    vectors share the maximal norm.

    One digit-search pass over a growing list of maximal-norm vectors;
    takes O(m * p^f) absolute-value computations, and a search over more
    than ``budget`` combinations (None: no limit) raises BudgetExceeded.
    When every vector is maximal the answer degenerates to
    lambda2 = |p*longest| with witness p*longest.  Otherwise the exact
    norms of the reduced vectors are read a stack at a time, stopping at
    the first stack that reaches lambda1 * p^(-1/n), which no reduced
    vector exceeds (module docstring); when none does, every stack is
    read.
    """
    basis = list(basis)
    m = len(basis)
    if m == 0:
        raise ValueError("empty basis")
    if residue_degree < 1:
        raise ValueError("residue degree must be positive")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    counter = AbsCounter(engine or NormEngine(ctx))
    exps = counter.abs_values(basis)
    if any(e.is_zero for e in exps):
        raise SingularSystem("zero vector in basis")
    out, lam1, reduced, _ = _reduce_pass(ctx, basis, exps, counter, residue_degree, budget)
    if not reduced:
        return ReductionResult(lam1.scaled(1), out[0] * ctx.p, tuple(out), counter.count)
    # none exceeds top, so the first vector that reaches it is the argmax
    top = lam1.scaled(Fraction(1, ctx.n))
    size = _stack_size(ctx.n)
    final = []
    for start in range(0, len(reduced), size):
        chunk = counter.abs_values(reduced[start:start + size])
        final += chunk
        if top in chunk:
            break
    idx = _argmax_abs(final)
    if final[idx] < lam1.scaled(1):
        raise ReductionFailed("second maximum fell below |p*longest|")
    return ReductionResult(final[idx], reduced[idx], tuple(out), counter.count)
