"""Slow paths kept only as references for differential tests: the
list-based modular Gauss-Jordan that ``fields._solve_mod`` does in numpy
(rows of Python ints, the first unit pivot of each column, every other
row cleared entry by entry), a bench instance's minimal polynomial by
one such elimination mod p^digits, which ``bench._minimal_poly_mod``
lifts instead, the plain Euclid over GF(p) against F mod p itself,
which ``fields._scaled_norm_is_unit`` replaces by one against F's radical,
and a Fraction Gaussian elimination over every row of a system, which
``fields._solve_exact`` replaces on tall systems by its first m rows.
"""

from fractions import Fraction

from padiclat.errors import NotInSpan, SingularSystem
from padiclat.fields import _int_mul_mod


def solve_exact_reference(columns, targets):
    """Coordinates of each target in the span of the columns (vectors of
    Fractions, one entry per row), by Gaussian elimination on Fractions over
    every row: SingularSystem naming the first column dependent on the
    earlier ones, NotInSpan when a target lies outside their span."""
    m = len(columns)
    rows = [[Fraction(x) for x in row] for row in zip(*columns, *targets)]
    for col in range(m):
        piv = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if piv is None:
            raise SingularSystem(f"vector {col} is dependent on the earlier ones")
        rows[col], rows[piv] = rows[piv], rows[col]
        prow = rows[col] = [x / rows[col][col] for x in rows[col]]
        for r, row in enumerate(rows):
            if r != col and row[col]:
                rows[r] = [x - row[col] * y for x, y in zip(row, prow)]
    if any(any(row[m:]) for row in rows[m:]):
        raise NotInSpan("target lies outside the span of the vectors")
    return [[rows[i][m + t] for i in range(m)] for t in range(len(targets))]


def solve_mod_reference(rows, p, digits, width=None):
    """X with A*X = B mod p^digits for rows [A | B], as ``_solve_mod``
    returns it: None when A is singular mod p; for a tall A, the rows past
    ``width`` too."""
    mod = p ** digits
    rows = [[x % mod for x in row] for row in rows]
    n = len(rows)
    width = n if width is None else width
    for col in range(width):
        piv = next((r for r in range(col, n) if rows[r][col] % p), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = pow(rows[col][col], -1, mod)
        prow = rows[col] = [x * inv % mod for x in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [(x - f * y) % mod for x, y in zip(rows[r], prow)]
    return [row[width:] for row in rows]


def minimal_poly_reference(p, digits, fcoeffs, zeta):
    """``bench._minimal_poly_mod`` by one elimination of the ζ-power system
    mod p^digits, with no lifting."""
    n = len(fcoeffs) - 1
    mod = p ** digits
    fbar = [c % mod for c in fcoeffs[:-1]]
    z = [c % mod for c in zeta]
    powers = [[1] + [0] * (n - 1)]
    for _ in range(n):
        powers.append([c % mod for c in _int_mul_mod(powers[-1], z, fbar)])
    x = solve_mod_reference([[powers[k][i] for k in range(n + 1)] for i in range(n)],
                            p, digits)
    return None if x is None else [(-xi) % mod for xi, in x] + [1]


def gf_coprime_reference(a, b, p):
    """Whether two polynomials over GF(p) (coefficient lists, constant term
    first, entries in [0, p)) are coprime, by Euclid's algorithm on lists."""
    a, b = list(a), list(b)
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    while b:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        # a <- a mod b, clearing the top coefficient of a each step
        for top in range(len(a) - 1, db - 1, -1):
            q = a.pop() * inv % p
            if q:
                off = top - db
                a[off:top] = [(u - q * w) % p for u, w in zip(a[off:top], b)]
        while a and a[-1] == 0:
            a.pop()
        a, b = b, a
    return len(a) == 1
