"""Scaling harnesses for the break.

``bench_uniformizer`` generates the standard instance family (Eisenstein
polynomial x^n + p*(x^{n-1} + ... + 1), random generator), runs the
reduction-based recovery, and reports wall time together with the
absolute-value counter.  ``bench_break`` breaks one seeded ``keygen`` key
per (p, n, m) shape, the steps of the break (``attack.break_steps``,
which ``BrokenKey.from_public`` runs) timed one by one: uniformizer recovery (with the adoption of its frame),
``orthogonalize`` and ``complete_orthogonal``.  Wall times are
hardware-dependent and never asserted; the counters are the quantities
with a provable bound (n + p(n-1) for a recovery, m(m-1) + p(m-1)^2 for
orthogonalize).

An instance's public polynomial is the generator's minimal polynomial to
the full precision: its powers come from the shared integer multiplier
and the linear dependency among them from Dixon's p-adic lifting on one
inverse modulo an int64-sized power of p (``_minimal_poly_mod``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .attack import break_steps, recover_uniformizer
from .fields import (FieldContext, _int64_level, _int_mul_mod, _kernel_dtype, _solve_mod,
                     check_degree, check_parameters, make_context)
from .scalars import DEFAULT_PRECISION
from .schemes import PublicKey, check_delta, keygen, random_eisenstein, random_zeta


@dataclass(frozen=True)
class BenchRow:
    n: int
    p: int
    rep: int
    wall_ms: float
    abs_count: int

    def csv(self) -> str:
        return f"{self.n},{self.p},{self.rep},{self.wall_ms:.3f},{self.abs_count}"


CSV_HEADER = "n,p,rep,wall_ms,abs_count"


def _minimal_poly_mod(p, digits, fcoeffs, zeta):
    """Minimal polynomial of zeta over the Eisenstein field, with integer
    coefficients exact mod p^digits (ascending, monic).

    Solves the linear dependency A*x = zeta^n of the power matrix A = [1,
    zeta, ..., zeta^(n-1)] by Dixon's p-adic lifting.  A is unimodular
    exactly when zeta generates the ring of integers, so a singular one
    reports failure (caller resamples zeta); otherwise ``_solve_mod``
    inverts it once mod q = p^k, k the int64 level (``_int64_level``), and
    each of ceil(digits / k) steps takes the next base-q digit x_i =
    A^(-1)*r mod q (one matrix-vector product mod q) and updates the
    residual r <- (r - A*x_i) / q exactly, starting from r = zeta^n.
    """
    n = len(fcoeffs) - 1
    mod = p ** digits
    fbar = [c % mod for c in fcoeffs[:-1]]
    powers = [[1] + [0] * (n - 1)]
    z = [c % mod for c in zeta]
    for _ in range(n):
        # F is integral, so the exact product needs no scale
        powers.append([c % mod for c in _int_mul_mod(powers[-1], z, fbar)])
    k = _int64_level(p, n)
    q = p ** k
    rows = [[powers[j][i] for j in range(n)] for i in range(n)]
    inverse = _solve_mod([row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)],
                         p, k)
    if inverse is None:
        return None
    dtype = _kernel_dtype(p, n, k)
    inverse = np.array(inverse, dtype=dtype)
    A = np.array(rows, dtype=object)
    r = np.array(powers[n], dtype=object)
    x, scale = 0, 1
    for _ in range(-(-digits // k)):
        xi = (inverse @ (r % q).astype(dtype) % q).astype(object)
        r = (r - A @ xi) // q
        x, scale = x + xi * scale, scale * q
    return [(-xi) % mod for xi in x.tolist()] + [1]


def make_instance(n: int, p: int, rng: random.Random,
                  precision: int = DEFAULT_PRECISION) -> FieldContext:
    """Public polynomial for one benchmark cell: the fixed Eisenstein
    family with a random generator whose linear coefficient is a unit."""
    check_parameters(p, precision)
    check_degree(n)
    fcoeffs = [p] * n + [1]
    while True:
        F = _minimal_poly_mod(p, precision, fcoeffs, random_zeta(rng, p, n))
        if F is not None:
            return make_context(p, precision, F, ramification=n, residue_degree=1)


def bench_uniformizer(n_list, p_list, repetitions: int = 1, *, seed: int = 0,
                      precision: int = DEFAULT_PRECISION):
    """One row per (n, p, rep), ordered by (n, p, rep).  Every cell is
    checked (ValueError), as ``make_instance`` checks it, before any
    instance is built."""
    if repetitions < 0:
        raise ValueError(f"repetitions must be nonnegative, got {repetitions}")
    cells = [(n, p) for n in sorted(n_list) for p in sorted(p_list)]
    for n, p in cells:
        check_parameters(p, precision)
        check_degree(n)
    rows = []
    for n, p in cells:
        for rep in range(repetitions):
            rng = random.Random(f"{seed}:{n}:{p}:{rep}")
            ctx = make_instance(n, p, rng, precision)
            t0 = time.perf_counter()
            res = recover_uniformizer(ctx)
            wall = (time.perf_counter() - t0) * 1000.0
            rows.append(BenchRow(n, p, rep, wall, res.abs_count))
    return rows


@dataclass(frozen=True)
class BreakRow:
    p: int
    n: int
    m: int
    recovery_ms: float
    orthogonalize_ms: float
    complete_ms: float
    abs_count: int

    @property
    def break_ms(self) -> float:
        return self.recovery_ms + self.orthogonalize_ms + self.complete_ms

    @property
    def abs_bound(self) -> int:
        """orthogonalize's bound m(m-1) + p(m-1)^2."""
        return self.m * (self.m - 1) + self.p * (self.m - 1) ** 2

    def csv(self) -> str:
        return (f"{self.p},{self.n},{self.m},{self.break_ms:.3f},{self.recovery_ms:.3f},"
                f"{self.orthogonalize_ms:.3f},{self.complete_ms:.3f},{self.abs_count},"
                f"{self.abs_bound}")


BREAK_CSV_HEADER = ("p,n,m,break_ms,recovery_ms,orthogonalize_ms,complete_ms,abs_count,"
                    "abs_bound")


# the noise bound of every ``break_key`` key
BREAK_DELTA = Fraction(1, 2)


def break_key(p: int, n: int, m: int, seed: int,
              precision: int = DEFAULT_PRECISION) -> PublicKey:
    """The seeded key of one shape: ``Random(seed)`` draws an Eisenstein f
    and a generator, exponents 0..n-1 and delta ``BREAK_DELTA``, as
    ``keygen`` takes them (seed 7 gives the tests' (3, 30, 15) key)."""
    rng = random.Random(seed)
    return keygen(p, n, m, range(n), random_eisenstein(rng, p, n), random_zeta(rng, p, n),
                  delta=BREAK_DELTA, rng=rng, precision=precision).public


def time_break(pk: PublicKey) -> BreakRow:
    """The steps of the break (``attack.break_steps``) on one key, each
    timed."""
    clock = time.perf_counter
    steps = break_steps(pk)
    t0 = clock()
    next(steps)
    t1 = clock()
    res = next(steps)
    t2 = clock()
    next(steps)
    t3 = clock()
    ctx = pk.ctx
    return BreakRow(ctx.p, ctx.n, len(pk.basis), (t1 - t0) * 1000.0, (t2 - t1) * 1000.0,
                    (t3 - t2) * 1000.0, res.abs_count)


def bench_break(shapes, *, seed: int = 0, precision: int = DEFAULT_PRECISION):
    """One row per (p, n, m) shape, in the order given.  Every shape is
    checked before any key is drawn (``break_key``): ValueError for a p
    that is not a prime, a degree below 2 or m outside 1..n, and
    DeltaTooSmall, as ``keygen`` raises it, for exponents 0..m-1 above
    ``BREAK_DELTA`` * n.  Every key is drawn before any break is timed."""
    for p, n, m in shapes:
        check_parameters(p, precision)
        check_degree(n)
        if not 1 <= m <= n:
            raise ValueError(f"need 1 <= m <= n, got m = {m} at n = {n}")
        check_delta(range(m), BREAK_DELTA, n)
    keys = [break_key(p, n, m, seed, precision) for p, n, m in shapes]
    return [time_break(pk) for pk in keys]
