"""Uniformizer-recovery scaling harness.

Generates the standard instance family (Eisenstein polynomial
x^n + p*(x^{n-1} + ... + 1), random generator), runs the reduction-based
recovery, and reports wall time together with the absolute-value counter.
Wall times are hardware-dependent and never asserted; the counter is the
quantity with a provable bound (n + p(n-1)).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .attack import recover_uniformizer
from .fields import (FieldContext, _int_mul_mod, _solve_mod, check_degree,
                     check_parameters, make_context)
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

    Solves the linear dependency of 1, zeta, ..., zeta^n with the modular
    kernel ``_solve_mod``; the power matrix is unimodular exactly when zeta
    generates the ring of integers, so a singular one reports failure
    (caller resamples zeta).
    """
    n = len(fcoeffs) - 1
    mod = p ** digits
    fbar = [c % mod for c in fcoeffs[:-1]]
    powers = [[1] + [0] * (n - 1)]
    z = [c % mod for c in zeta]
    for _ in range(n):
        # F is integral, so the exact product needs no scale
        powers.append([c % mod for c in _int_mul_mod(powers[-1], z, fbar)])
    # solve sum x_k * powers[k] = powers[n] over Z/p^digits
    x = _solve_mod([[powers[k][i] for k in range(n + 1)] for i in range(n)], p, digits)
    return None if x is None else [(-xi) % mod for xi, in x] + [1]


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
