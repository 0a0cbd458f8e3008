import copy
import dataclasses
import random
from fractions import Fraction

import pytest

from padiclat.fields import _solve_mod, make_context
from padiclat.schemes import keygen, random_eisenstein


TOY_F = [-167, 3548, -21942, 79034, -200173, 370306, -502444, 504970, -378052,
         202684, -57366, -26650, 54972, -48500, 29670, -13470, 4555, -1120,
         190, -20, 1]


@pytest.fixture(scope="session")
def toy_ctx():
    return make_context(2, 128, TOY_F, ramification=20, residue_degree=1)


@pytest.fixture(scope="session")
def sqrt2_ctx():
    # x^2 - 2 at p = 2: Eisenstein, the root is a uniformizer
    return make_context(2, 64, [-2, 0, 1], ramification=2, residue_degree=1)


@pytest.fixture(scope="session")
def unram_ctx():
    # x^2 + x + 1 at p = 2: unramified quadratic
    return make_context(2, 64, [1, 1, 1], ramification=1, residue_degree=2)


def unframed(ctx):
    """The same field (equal, and of the same structure) without a frame of
    its own: its engines take the routes of a field whose shifted generator
    is no uniformizer, the determinants, the monomial rule and the radical
    gcd, until a uniformizer is adopted."""
    twin = copy.copy(ctx)
    twin._frame = None
    return twin


def unframed_key(pk):
    """The public key over ``unframed(pk.ctx)``: its break takes the routes
    of a field without a frame of its own."""
    return dataclasses.replace(pk, ctx=unframed(pk.ctx))


def random_unimodular(rng: random.Random, p: int, m: int, spread: int = 3):
    """Digit matrix with unit determinant mod p."""
    while True:
        rows = [[rng.randrange(p ** spread) for _ in range(m)] for _ in range(m)]
        if _solve_mod(rows, p, 1) is not None:
            return rows


def random_signature_key(rng: random.Random, p: int, n: int, m: int, delta=None):
    """A key pair from random keygen inputs: an Eisenstein f, a generator
    zeta whose theta-coefficient is a unit, and exponents whose first m
    fit delta * n when delta is given."""
    f = random_eisenstein(rng, p, n)
    while True:
        zeta = [rng.randrange(p) for _ in range(n)]
        if zeta[1] % p:
            break
    top = n - 1 if delta is None else min(n - 1, int(Fraction(delta) * n))
    first = [0] + sorted(rng.sample(range(1, top + 1), m - 1)) if m > 1 else [0]
    rest = sorted(set(range(n)) - set(first))
    return keygen(p, n, m, first + rest, f, zeta, delta=delta, rng=rng)


def scheme_shaped_lattice(rng: random.Random, p: int, n: int, m: int,
                          precision: int = 64):
    """A lattice with hidden orthogonal basis theta^(j_1) .. theta^(j_m),
    j strictly ascending, mixed by a random unimodular digit matrix.
    Returns (ctx, basis, hidden exponent list)."""
    ctx = make_context(p, precision, random_eisenstein(rng, p, n),
                       ramification=n, residue_degree=1)
    j = sorted(rng.sample(range(n), m))
    alphas = [ctx.monomial(k) for k in j]
    A = random_unimodular(rng, p, m)
    basis = []
    for row in A:
        acc = ctx.zero()
        for a, al in zip(row, alphas):
            if a:
                acc = acc + al * a
        basis.append(acc)
    return ctx, basis, j
