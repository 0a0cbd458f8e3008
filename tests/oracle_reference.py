"""Per-sum brute-force loops, kept only as references for differential
tests of ``lattices.lvp_oracle`` and the exhaustive branch of
``lattices.is_orthogonal``: every digit tuple's sum is built by element
additions and measured by a fresh, uncached ``NormEngine``.
"""

import itertools

from padiclat.errors import OracleInconclusive
from padiclat.fields import AbsValue, NormEngine


def _multiples(x, count):
    out = [x.ctx.zero()]
    for _ in range(1, count):
        out.append(out[-1] + x)
    return out


def lvp_oracle_reference(ctx, basis, depth=2):
    """(lambda1, lambda2, witness, classes) as ``lvp_oracle`` reports them."""
    p = ctx.p
    span = p ** depth
    tables = [_multiples(b, span) for b in basis]
    best = {}
    for combo in itertools.product(range(span), repeat=len(basis)):
        acc = ctx.zero()
        for d, table in zip(combo, tables):
            if d:
                acc = acc + table[d]
        if acc.is_zero:
            continue
        e = NormEngine(ctx).abs_value(acc)
        if e.exponent not in best:
            best[e.exponent] = acc
    for b in basis:
        extra = b * p
        e = NormEngine(ctx).abs_value(extra)
        if e.exponent not in best:
            best[e.exponent] = extra
    order = sorted(best)
    if len(order) < 2:
        raise OracleInconclusive("no norm class below the maximum")
    return (AbsValue(order[0]), AbsValue(order[1]), best[order[1]],
            tuple(AbsValue(e) for e in order))


def is_orthogonal_reference(ctx, vectors):
    """The exhaustive check: |sum a_i v_i| = max |a_i v_i| for every digit
    tuple with some entry pinned to 1."""
    exps = [NormEngine(ctx).abs_value(v) for v in vectors]
    mults = [_multiples(v, ctx.p) for v in vectors]
    for combo in itertools.product(range(ctx.p), repeat=len(vectors)):
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
