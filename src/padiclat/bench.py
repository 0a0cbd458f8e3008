"""Uniformizer-recovery scaling harness.

Generates the standard instance family (Eisenstein polynomial
x^n + p*(x^{n-1} + ... + 1), random generator), runs the reduction-based
recovery, and reports wall time together with the absolute-value counter.
Wall times are hardware-dependent and never asserted; the counter is the
quantity with a provable bound (n + p(n-1)).

An instance's public polynomial is the generator's minimal polynomial to
the full precision: its powers come from the shared integer multiplier
and the linear dependency among them from Dixon's p-adic lifting on one
inverse modulo an int64-sized power of p (``_minimal_poly_mod``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from .attack import recover_uniformizer
from .fields import (FieldContext, _int64_level, _int_mul_mod, _kernel_dtype, _solve_mod,
                     check_degree, check_parameters, make_context)
from .scalars import DEFAULT_PRECISION
from .schemes import random_zeta


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
    """One row per (n, p, rep), ordered by (n, p, rep)."""
    if repetitions < 0:
        raise ValueError(f"repetitions must be nonnegative, got {repetitions}")
    rows = []
    for n in sorted(n_list):
        for p in sorted(p_list):
            for rep in range(repetitions):
                rng = random.Random(f"{seed}:{n}:{p}:{rep}")
                ctx = make_instance(n, p, rng, precision)
                t0 = time.perf_counter()
                res = recover_uniformizer(ctx)
                wall = (time.perf_counter() - t0) * 1000.0
                rows.append(BenchRow(n, p, rep, wall, res.abs_count))
    return rows
