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

A pass works on integer rows over its operation's input basis (unit rows
for the second maximum, the rows of the transform U for
``orthogonalize``), and the engine decides how a candidate is read:

* Row route.  On a framed engine, for a basis whose frame coordinates
  have full rank mod p (``NormEngine.frame_coordinates``), a vector
  keeps only its frame coordinates mod p: those of p^S x, S the
  basis's largest scale, are u Y mod p for its row u, and where they are
  nonzero, v(N(x)) is the index of the first nonzero one minus n S.  A
  framed field is totally ramified, and with M the longest vector, its
  first nonzero coordinate at k, every other vector v has zeros below k,
  so v - d M drops below |M| exactly when coordinate k vanishes: the one
  hit among the p candidates is d = y_v[k] / y_M[k] mod p, the maximal
  list never grows, and the whole pass is a few array operations on the
  k x n coordinates, whatever the size of the basis's integers.  No
  candidate becomes an element.  ``orthogonalize`` builds its outputs
  once from their rows (``_linear_combination``) and puts their norms
  into the engine's cache, where ``complete_orthogonal`` and the CVPs
  read them.  The second maximum reads its pick off the pass's norms and
  builds one element, the witness, whose norm it caches; the other
  outputs are built from the pass's steps when ``reduced`` is first
  read.
* Element route.  Otherwise each candidate is built on demand and the
  engine's threshold test decides it (determinants or the GF(p) gcd).
  Its outputs, counts and errors are the reference.

The route is chosen once per operation, before it runs: the row route
takes a basis of two vectors or more whose Y has full rank mod p.  That
basis is independent, and every row the route reads is nonzero mod p: a
pass's rows come from the previous ones by unimodular steps mod p, so
they stay independent, each norm is read from the first digit, and
``orthogonalize``'s outputs, whose first nonzero coordinates rise pass by
pass, have strictly decreasing norms.  A basis with mixed scales (the
lower-scale rows vanish mod p), a dependent basis or one whose vectors
coincide mod p takes the element route.

Counting.  The element route keys ``AbsCounter`` on element identities.
The row route counts rows: over an independent basis distinct rows are
distinct elements, and in the basis of a pass's inputs a candidate is
e_v - d' e_M, a row that no earlier query of the operation touched (an
earlier pass's rows that lie in the span of this pass's inputs are those
inputs themselves).  So a vector reduced at digit d adds the d
candidates d' = 1..d, the ones ``itertools.product`` order tries before
and at its hit.

The second maximum is the largest of the reduced vectors' exact norms,
the lowest-index one among ties.  On the row route the pass holds every
norm, and the pick is their argmax.  On the element route it reads
fewer: every reduced vector passed |r| < lambda1, and norm exponents are
multiples of 1/n, so none exceeds top = lambda1 * p^(-1/n).  The pick
scans the norms in index order and stops at the first vector of norm
top, the lowest-index argmax.  Norms the pass or the engine already
holds are read from there, and the others one elimination stack
(``fields._stack_size``) at a time as the scan reaches them.  Every
reduced vector was already counted by its threshold test, so
``abs_count`` is the same either way.  In every seeded uniformizer
recovery measured, the first reduced vector already has norm top.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import BudgetExceeded, ReductionFailed, SingularSystem
from .fields import (AbsValue, FieldContext, FieldElement, NormEngine, _independent_mod,
                     _integer_rows, _linear_combination, _solve_exact, _stack_size)

# the most digit combinations a search or an enumeration may try
# (here and in ``lattices``) unless its caller says otherwise
DEFAULT_BUDGET = 10 ** 7


@dataclass(frozen=True)
class ReductionResult:
    """Second maximum, a vector attaining it, the number of absolute-value
    computations spent, and the reduced basis.  ``reduced`` is built on
    first read (on the row route, from the pass's steps) and then kept;
    equality compares the other three."""

    lambda2: AbsValue
    witness: FieldElement
    abs_count: int
    _build_reduced: Callable[[], tuple] = field(repr=False, compare=False)

    @cached_property
    def reduced(self) -> tuple:
        return self._build_reduced()


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
    """Counts distinct vectors whose absolute value was queried.

    The element route keys a vector by its element's identity: re-queries
    of an element already inspected (for example the final max-scan over
    reduced vectors the loop has just produced) refine the cached state
    without incrementing the count, matching how the cost bounds are
    accounted.  The row route counts vectors as integer rows over an
    independent basis, each a distinct element, and adds the rows that no
    earlier query touched by number (``fresh``; module docstring).
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

    def fresh(self, count: int):
        """Count ``count`` queried rows that no earlier query touched."""
        self.count += count

    def abs_values(self, xs) -> list:
        """|x| for each element, as one engine batch."""
        xs = list(xs)
        for x in xs:
            self._touch(x)
        return self.engine.abs_values(xs)

    def less_than(self, x: FieldElement, bound: AbsValue) -> bool:
        self._touch(x)
        return self.engine.abs_less_than(x, bound)


class _Pass(NamedTuple):
    """A pass's new vectors, in the form its inputs came in (``data``),
    with their norms where the pass read them exactly (None elsewhere);
    new vector k is input[src] - sum d * input[j] for steps[k] =
    (src, ((j, d), ...)), the input vectors j being maximal ones, and
    ``reduced`` lists the positions of the reduced vectors."""

    data: list
    exps: list
    steps: list
    reduced: list


def _argmax_abs(exps) -> int:
    """Index of the largest absolute value; lowest index wins ties."""
    best = 0
    for i in range(1, len(exps)):
        if exps[best] < exps[i]:
            best = i
    return best


def _check_budget(p: int, t: int, budget: int | None):
    if budget is not None and p ** t > budget:
        raise BudgetExceeded(f"digit search p^{t} exceeds budget {budget}")


def _combine(ctx: FieldContext, v: FieldElement, maximal, digits) -> FieldElement:
    """v - sum d * m over the maximal vectors m and their digits d: v
    itself when every digit is 0."""
    if not any(digits):
        return v
    return _linear_combination(ctx, (1, *(-d for d in digits)), (v, *maximal))


def _coordinate_norms(coords, shift: int, n: int):
    """|x| for each row of frame coordinates mod p (``frame_coordinates``),
    none of them zero, as a list: p^(-(k - shift)/n) for k the first
    nonzero coordinate."""
    first = (coords != 0).argmax(axis=1).tolist()
    norms = {k: AbsValue(Fraction(k - shift, n)) for k in set(first)}
    return [norms[k] for k in first]


def _reduce_pass(counter: AbsCounter, data, exps, shift: int | None = None,
                 residue_degree: int = 1, budget: int | None = None):
    """The digit-search pass of the module docstring.  The longest vector
    (lowest index among ties) swaps to the front; ``data`` holds the
    vectors as the route reads them: their elements on the element route
    (``shift`` None), their frame coordinates mod p on the row route
    (``shift`` = n*S).  Returns a ``_Pass``."""
    data, exps = list(data), list(exps)
    order = list(range(len(data)))
    i0 = _argmax_abs(exps)
    if i0:
        for seq in (data, exps, order):
            seq[0], seq[i0] = seq[i0], seq[0]
    if len(data) == 1:
        # a lone vector needs no search (p may be huge)
        return _Pass(data, exps, [(order[0], ())], [])
    if shift is None:
        return _element_search(counter, data, exps, order, residue_degree, budget)
    return _row_search(counter, data, exps, order, shift, budget)


def _element_search(counter, data, exps, order, residue_degree, budget) -> _Pass:
    """The element route: every candidate v - sum d * m is built, in
    ``itertools.product`` order, until the engine's threshold test finds
    one below lambda1.  A vector no combination reduces joins the maximal
    list; more than ``residue_degree`` of them is a failure."""
    ctx = counter.engine.ctx
    p = ctx.p
    lam1 = exps[0]
    maximal = [(order[0], data[0])]  # (input position, element)
    out = _Pass([data[0]], [lam1], [(order[0], ())], [])
    for src, v, exp in zip(order[1:], data[1:], exps[1:]):
        t = len(maximal)
        _check_budget(p, t, budget)
        hit = None
        for combo in itertools.product(range(p), repeat=t):
            cand = _combine(ctx, v, [m for _, m in maximal], combo)
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
            maximal.append((src, v))
            out.data.append(v)
            out.exps.append(exp)
            out.steps.append((src, ()))
        else:
            out.reduced.append(len(out.data))
            out.data.append(hit)
            out.exps.append(None)
            out.steps.append((src, tuple((j, d) for (j, _), d in zip(maximal, combo) if d)))
    return out


def _row_search(counter, data, exps, order, shift, budget) -> _Pass:
    """The row route: with y_M the longest vector's coordinates, first
    nonzero at k, vector v is reduced at the one digit d = y_v[k] / y_M[k]
    mod p, the first and only hit among its p candidates, so the maximal
    list never grows.  The d candidates d' = 1..d are fresh rows (module
    docstring)."""
    p, n = counter.engine.ctx.p, counter.engine.ctx.n
    _check_budget(p, 1, budget)
    coords = np.array(data)
    top = coords[0]
    k = int((top != 0).argmax())
    digits = coords[1:, k] * pow(int(top[k]), -1, p) % p
    rest = (coords[1:] - digits[:, None] * top) % p
    digits = digits.tolist()
    counter.fresh(sum(digits))
    steps = [(src, ((order[0], d),) if d else ()) for src, d in zip(order[1:], digits)]
    return _Pass([top, *rest], exps[:1] + _coordinate_norms(rest, shift, n),
                 [(order[0], ())] + steps, list(range(1, len(data))))


def _start(counter: AbsCounter, basis, frame):
    """A route's view of the basis and its norms: (data, exps, shift), on
    the row route where ``frame`` is the basis's full-rank coordinates
    (``frame_coordinates``), else on the element route."""
    if frame is None:
        exps = counter.abs_values(basis)
        if any(e.is_zero for e in exps):
            raise SingularSystem("zero vector in basis")
        return list(basis), exps, None
    coords, shift = frame
    counter.fresh(len(basis))
    return list(coords), _coordinate_norms(coords, shift, counter.engine.ctx.n), shift


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
    row operations, so it is exact and unimodular; on the row route the
    basis is built from it once, sum_j U[k][j] * basis[j].  A dependent
    basis raises SingularSystem on either route: the row route's rank test
    certifies independence, and before the element route runs,
    ``_check_independent`` does.
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
    frame = engine.frame_coordinates(basis)
    if frame is None:
        _check_independent(basis)
    data, exps, shift = _start(counter, basis, frame)
    U = [[int(j == k) for j in range(m)] for k in range(m)]
    for i in range(m - 1):
        if shift is None and i:
            exps[i:] = counter.abs_values(data[i:])
        res = _reduce_pass(counter, data[i:], exps[i:], shift)
        data[i:], exps[i:] = res.data, res.exps
        old = U[i:]
        for k, (src, digits) in enumerate(res.steps, i):
            row = old[src]
            for j, d in digits:
                row = [a - d * b for a, b in zip(row, old[j])]
            U[k] = row
    if shift is None:
        B, final = data, counter.abs_values(data)
    else:
        B, final = [_linear_combination(engine.ctx, row, basis) for row in U], exps
    if any(not b < a for a, b in zip(final, final[1:])):
        raise ReductionFailed("output norms are not strictly decreasing")
    if shift is not None:
        engine.remember(B, final)
    return OrthoResult(tuple(B), tuple(final), counter.count, tuple(map(tuple, U)))


def _check_independent(basis):
    """Raise SingularSystem on a dependent basis, which the element
    route's search refuses only where it meets a zero candidate.  Integer
    rows independent modulo a prime are independent, so one
    ``_independent_mod`` modulo q = 2^61 - 1 certifies almost every basis,
    and the exact solve decides the rest."""
    q = 2 ** 61 - 1
    rows, _ = _integer_rows(basis)
    if not _independent_mod([[a % q for a in row] for row in rows], q):
        _solve_exact(basis, [])


def find_second_longest_general(ctx: FieldContext, basis, residue_degree: int, *,
                                budget: int | None = DEFAULT_BUDGET,
                                engine: NormEngine | None = None) -> ReductionResult:
    """Second successive maximum when up to ``residue_degree`` orthogonal
    vectors share the maximal norm.

    One digit-search pass over a growing list of maximal-norm vectors;
    takes O(m * p^f) absolute-value computations, and a search over more
    than ``budget`` combinations (None: no limit) raises BudgetExceeded.
    When every vector is maximal the answer degenerates to
    lambda2 = |p*longest| with witness p*longest.  Otherwise the pick is
    the lowest-index argmax of the reduced vectors' exact norms.  On the
    row route the pass holds them all; it builds one element, the witness,
    and the other outputs when ``reduced`` is first read.  On the element
    route the pick reads the norms the engine does not hold a stack at a
    time, stopping once it holds lambda1 * p^(-1/n), which no reduced
    vector exceeds (module docstring), and every norm before it.
    """
    basis = list(basis)
    m = len(basis)
    if m == 0:
        raise ValueError("empty basis")
    if residue_degree < 1:
        raise ValueError("residue degree must be positive")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    engine = engine or NormEngine(ctx)
    counter = AbsCounter(engine)
    # a lone vector has no pass to run on rows
    data, exps, shift = _start(counter, basis, engine.frame_coordinates(basis) if m > 1 else None)
    res = _reduce_pass(counter, data, exps, shift, residue_degree, budget)
    lam1 = res.exps[0]
    final = [res.exps[k] for k in res.reduced]
    if shift is None:
        out = tuple(res.data)
        if not res.reduced:
            return ReductionResult(lam1.scaled(1), out[0] * ctx.p, counter.count, lambda: out)
        reduced = [out[k] for k in res.reduced]
        unread = [i for i, e in enumerate(final) if e is None]
        for i, e in zip(unread, engine.known_abs_values([reduced[i] for i in unread])):
            final[i] = e
        idx = _pick(counter, reduced, final, lam1.scaled(Fraction(1, ctx.n)))
        witness = reduced[idx]
        build = lambda: out
    else:
        # the pass read every norm, and it reduced every vector but the first
        idx = _argmax_abs(final)
        k = res.reduced[idx]
        witness = _output(ctx, basis, res.steps[k])
        engine.remember([witness], [final[idx]])
        build = lambda: tuple(witness if j == k else _output(ctx, basis, step)
                              for j, step in enumerate(res.steps))
    lam2 = final[idx]
    if lam2 < lam1.scaled(1):
        raise ReductionFailed("second maximum fell below |p*longest|")
    return ReductionResult(lam2, witness, counter.count, build)


def _output(ctx: FieldContext, basis, step) -> FieldElement:
    """The pass output that ``step`` = (src, ((j, d), ...)) describes,
    basis[src] - sum d * basis[j]: basis[src] itself when it has no digit."""
    src, digits = step
    return _combine(ctx, basis[src], [basis[j] for j, _ in digits], [d for _, d in digits])


def _pick(counter: AbsCounter, reduced, final, top: AbsValue) -> int:
    """Index of the lowest-index argmax of the reduced vectors' norms, none
    of which exceeds ``top``; ``final`` holds the norms known so far (None
    elsewhere) and is completed in place.  The norms are scanned in index
    order, and the unknown ones read one elimination stack
    (``fields._stack_size``) at a time as the scan reaches them: the first
    holder of ``top`` is the argmax, and the scan stops there."""
    todo = [i for i, e in enumerate(final) if e is None]
    size = _stack_size(counter.engine.ctx.n)
    read = 0
    for i, e in enumerate(final):
        if e is None:
            chunk = todo[read:read + size]
            read += size
            for j, v in zip(chunk, counter.abs_values([reduced[j] for j in chunk])):
                final[j] = v
        if final[i] == top:
            return i
    return _argmax_abs(final)
