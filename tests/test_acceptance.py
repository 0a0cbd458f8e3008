"""Acceptance suite: every release criterion, one test each, one PASS/FAIL
line each.  Run with `pytest tests/test_acceptance.py -v -s`.

The toy criteria load digest-pinned fixtures and certify exact values; the
statistical criteria run randomized instances at fixed seeds.
"""

import itertools
import random
import sys
import time
from fractions import Fraction

from conftest import scheme_shaped_lattice
from padiclat.attack import (
    BrokenKey,
    attack_decrypt_detailed,
    forge_signature,
    recover_uniformizer,
    uniformizer_shortcut,
)
from padiclat.errors import NotCoprime
from padiclat.fields import AbsValue, NormEngine, make_context
from padiclat.fixtures import toy_ciphertext, toy_public_key
from padiclat.lattices import Lattice, lvp_oracle
from padiclat.reduction import (
    find_second_longest,
    find_second_longest_general,
    orthogonalize,
)
from padiclat.scalars import PadicScalar
from padiclat.schemes import decrypt, encrypt, sign_detailed, verify

from test_attack import random_signature_key


def report(criterion: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    line = f"[{tag}] {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.stderr)
    assert passed, line


def test_criterion_01_toy_uniformizer():
    pk = toy_public_key()
    t0 = time.perf_counter()
    res = recover_uniformizer(pk)
    wall = time.perf_counter() - t0
    ok = (res.lambda2 == AbsValue.of(1, 20)
          and NormEngine(pk.ctx).abs_value(res.gamma) == AbsValue.of(1, 20)
          and res.gamma == pk.ctx.gen() - pk.ctx.one()
          and wall < 10.0)
    report("1 toy uniformizer recovery: lambda2 = p^(-1/20), witness = z-1",
           ok, f"{wall:.2f}s, {res.abs_count} abs computations")


def test_criterion_02_toy_norm_table():
    pk = toy_public_key()
    eng = NormEngine(pk.ctx)
    one = pk.ctx.one()
    expected = {}
    for i in (1, 3, 5, 7, 9, 11, 13, 15, 17, 19):
        expected[i] = Fraction(1, 20)
    for i in (2, 6, 10, 14, 18):
        expected[i] = Fraction(1, 10)
    for i in (4, 12):
        expected[i] = Fraction(1, 5)
    expected[8] = Fraction(2, 5)
    expected[16] = Fraction(4, 5)
    power = one
    bad = []
    for i in range(1, 20):
        power = power * pk.ctx.gen()
        got = eng.abs_value(power - one).exponent
        if got != expected[i]:
            bad.append((i, got, expected[i]))
    report("2 toy norm table: all five exponent classes exact", not bad,
           f"19 powers checked{'' if not bad else ': ' + repr(bad)}")


def test_criterion_03_toy_ciphertext_break(tmp_path, capsys):
    pk = toy_public_key()
    ct = toy_ciphertext(pk)
    t0 = time.perf_counter()
    res = attack_decrypt_detailed(pk, ct)
    wall = time.perf_counter() - t0
    coords = [c.to_fraction() for c in res.basis_coords]
    ok = (res.plaintext == (1, 1, 0, 1)
          and coords == [-1, 1, 0, 1]
          and wall < 30.0)
    # the command-line surface must print the same digits
    from padiclat.cli import main
    from padiclat.fixtures import fixture_text

    pub = tmp_path / "toy.pub"
    ctf = tmp_path / "toy.ct"
    pub.write_text(fixture_text("toy.pub"))
    ctf.write_text(fixture_text("toy.ct"))
    code = main(["attack", "decrypt", "--pub", str(pub), "--ct", str(ctf)])
    out = capsys.readouterr().out.strip()
    ok = ok and code == 0 and out == "1 1 0 1"
    report("3 toy ciphertext break: plaintext (1,1,0,1), witness (-1,1,0,1)",
           ok, f"{wall:.2f}s, cli printed {out!r}")


# (p, n, m) cells for the randomized oracle-agreement battery; sizes keep
# the p^(2m) enumeration affordable while covering the full stated range.
_CELLS = ([(2, n, m) for n in (2, 3, 4, 5, 6) for m in (1, 2, 3, 4) if m <= n]
          + [(3, n, m) for n in (3, 4, 5, 6) for m in (1, 2, 3, 4) if m <= n]
          + [(5, n, m) for n in (4, 5, 6) for m in (1, 2, 3)])


def test_criterion_04_and_09_oracle_equivalence_and_cost_bounds():
    rng = random.Random(20260811)
    checked = 0
    alg1_ok = ortho_ok = bounds_ok = True
    while checked < 200:
        p, n, m = _CELLS[checked % len(_CELLS)]
        ctx, basis, _ = scheme_shaped_lattice(rng, p, n, m)
        res = find_second_longest(ctx, basis)
        oracle = lvp_oracle(ctx, Lattice(ctx, basis))
        if res.lambda2 != oracle.lambda2:
            alg1_ok = False
        ortho = orthogonalize(ctx, basis)
        maxima = sorted(ortho.exponents, reverse=True)
        top = list(oracle.classes[:m])
        if maxima != top:
            ortho_ok = False
        if res.abs_count > m + p * (m - 1):
            bounds_ok = False
        if ortho.abs_count > m * (m - 1) + p * (m - 1) ** 2:
            bounds_ok = False
        checked += 1
    report("4 oracle equivalence: lambda2 and successive maxima on 200 lattices",
           alg1_ok and ortho_ok, f"{checked} instances")
    report("9 cost bounds: m+p(m-1) and m(m-1)+p(m-1)^2 on every instance",
           bounds_ok, f"{checked} instances")


def test_criterion_05_general_variant():
    # unramified quadratic: every digit combination stays at norm 1
    unram = make_context(2, 64, [1, 1, 1], ramification=1, residue_degree=2)
    res = find_second_longest_general(unram, [unram.one(), unram.gen()], 2)
    oracle = lvp_oracle(unram, Lattice(unram, [unram.one(), unram.gen()]))
    ok_unram = res.lambda2 == oracle.lambda2 == AbsValue.of(1)

    # e = f = 2 quartic fixture (minimal polynomial of w + sqrt2)
    quart = make_context(2, 64, [7, -2, -1, 2, 1], ramification=2, residue_degree=2)
    from padiclat.fields import coordinates_in

    xi = quart.gen()
    w = quart.element(coordinates_in(
        quart, xi * xi - quart.element([3]),
        [(xi * 2 + quart.one()) * quart.monomial(k) for k in range(4)]))
    sqrt2 = xi - w
    basis = [quart.one(), w, sqrt2, w * sqrt2]
    res_q = find_second_longest_general(quart, basis, 2)
    oracle_q = lvp_oracle(quart, Lattice(quart, basis))
    ok_quart = res_q.lambda2 == oracle_q.lambda2 == AbsValue.of(1, 2)

    # f = 1 must agree with the strictly-decreasing variant
    rng = random.Random(55)
    ok_f1 = True
    for _ in range(25):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(2, 6)
        m = rng.randrange(1, min(3, n) + 1)
        ctx, b, _ = scheme_shaped_lattice(rng, p, n, m)
        if find_second_longest_general(ctx, b, 1).lambda2 != \
                find_second_longest(ctx, b).lambda2:
            ok_f1 = False
    report("5 general variant: unramified + e=f=2 fixtures match the oracle, "
           "f=1 matches the plain variant", ok_unram and ok_quart and ok_f1)


def test_criterion_06_scheme_roundtrips():
    rng = random.Random(6)
    sign_ok = enc_ok = salts_ok = True
    keys = []
    for spec in [(2, 4, 2), (2, 6, 3), (3, 4, 2), (3, 5, 2), (3, 8, 3),
                 (5, 4, 2), (5, 6, 2), (2, 8, 4), (3, 6, 3), (5, 5, 2)]:
        p, n, m = spec
        keys.append(random_signature_key(rng, p, n, m, delta=Fraction(1, 2)))
    for i in range(1000):
        kp = keys[i % len(keys)]
        msg = b"message-%d" % i
        sig, attempts = sign_detailed(kp.private, kp.public, msg, rng=rng)
        if attempts != 1:
            salts_ok = False
        if not verify(kp.public, msg, sig):
            sign_ok = False
        pt = tuple(rng.randrange(kp.public.ctx.p) for _ in range(kp.public.m))
        ct = encrypt(kp.public, pt, rng=rng)
        if decrypt(kp.private, ct) != pt:
            enc_ok = False
    report("6 scheme roundtrips: 1000 sign/verify and 1000 encrypt/decrypt",
           sign_ok and enc_ok, "10 desk-scale keys")
    report("6b single-salt signing: retry loop ran exactly once every time",
           salts_ok)


def test_criterion_07_attack_completeness():
    rng = random.Random(7)
    forge_ok = dec_ok = True
    specs = [(2, 4, 2), (2, 5, 2), (2, 6, 3), (3, 4, 2), (3, 5, 2),
             (3, 6, 3), (5, 4, 2), (5, 5, 2), (5, 6, 2), (2, 6, 2)]
    for i in range(50):
        p, n, m = specs[i % len(specs)]
        kp = random_signature_key(rng, p, n, m, delta=Fraction(1, 2))
        pk = kp.public
        broken = BrokenKey.from_public(pk)
        msg = b"forge-%d" % i
        sig = forge_signature(pk, msg, rng=rng)
        if not verify(pk, msg, sig):
            forge_ok = False
        for pt in itertools.product(range(p), repeat=m):
            ct = encrypt(pk, pt, rng=rng)
            att = attack_decrypt_detailed(pk, ct, broken=broken).plaintext
            if att != decrypt(kp.private, ct) or att != pt:
                dec_ok = False
    report("7 attack completeness: 50 keys, forged signatures verify and "
           "public-only decryption matches the private one on all p^m "
           "plaintexts", forge_ok and dec_ok)


def test_criterion_08_constant_shift_uniformizer():
    rng = random.Random(8)
    ok = True
    count = 0
    while count < 50:
        p = rng.choice([2, 3, 5])
        n = rng.randrange(2, 8)
        if n % p == 0:
            continue
        kp = random_signature_key(rng, p, n, 1)
        eng = NormEngine(kp.public.ctx)
        gamma = uniformizer_shortcut(kp.public)
        if eng.abs_value(gamma) != AbsValue.of(1, n):
            ok = False
        slow = recover_uniformizer(kp.public)
        if eng.abs_value(gamma) != eng.abs_value(slow.gamma):
            ok = False
        count += 1
    raises_ok = 0
    for p, n in [(2, 4), (3, 6), (5, 5)]:
        kp = random_signature_key(rng, p, n, 1)
        try:
            uniformizer_shortcut(kp.public)
        except NotCoprime:
            raises_ok += 1
    report("8 constant-shift uniformizer: exponent 1/n and norm agreement on "
           "50 coprime keys; NotCoprime otherwise",
           ok and raises_ok == 3, f"{count} keys")


def test_criterion_10_bench_counters_and_wall_time():
    from padiclat.bench import bench_uniformizer

    rows = bench_uniformizer([50, 100, 200], [5, 7], 1, seed=10)
    ok_counts = all(r.abs_count <= r.n + r.p * (r.n - 1) for r in rows)
    wall_200_5 = next(r.wall_ms for r in rows if (r.n, r.p) == (200, 5))
    ok_wall = wall_200_5 < 300_000.0
    detail = "; ".join(f"n={r.n},p={r.p}: {r.abs_count} ops, {r.wall_ms:.0f}ms"
                       for r in rows)
    report("10 bench: counters within n+p(n-1) on the full grid and the "
           "n=200,p=5 cell under five minutes", ok_counts and ok_wall, detail)


def test_criterion_11_arithmetic_property_battery():
    rng = random.Random(11)
    failures = 0
    # 6000 scalar checks: valuation multiplicativity + ultrametric bound
    for _ in range(3000):
        p = rng.choice([2, 3, 5, 7])
        a = Fraction(rng.randrange(-10 ** 6, 10 ** 6),
                     rng.randrange(1, 10 ** 4))
        b = Fraction(rng.randrange(-10 ** 6, 10 ** 6),
                     rng.randrange(1, 10 ** 4))
        x = PadicScalar.from_fraction(a, p=p)
        y = PadicScalar.from_fraction(b, p=p)
        if not (x.is_zero or y.is_zero):
            if (x * y).valuation != x.valuation + y.valuation:
                failures += 1
            s = x + y
            if not s.is_zero:
                if s.valuation < min(x.valuation, y.valuation):
                    failures += 1
                if x.valuation != y.valuation and \
                        s.valuation != min(x.valuation, y.valuation):
                    failures += 1
    # 4000 field-element checks on rotating small contexts
    ctxs = [make_context(2, 64, [2, 2, 0, 1]),
            make_context(3, 64, [3, 6, 3, 1]),
            make_context(5, 64, [5, 0, 10, 1]),
            make_context(2, 64, [2, 2, 0, 0, 1])]
    engines = [NormEngine(c) for c in ctxs]
    for i in range(2000):
        ctx = ctxs[i % len(ctxs)]
        eng = engines[i % len(ctxs)]
        x = ctx.element([rng.randrange(-50, 50) for _ in range(ctx.n)])
        y = ctx.element([rng.randrange(-50, 50) for _ in range(ctx.n)])
        if x.is_zero or y.is_zero:
            continue
        ex, ey = eng.abs_value(x), eng.abs_value(y)
        if eng.abs_value(x * y) != ex * ey:
            failures += 1
        s = x + y
        if not s.is_zero:
            es = eng.abs_value(s).exponent
            if es < min(ex.exponent, ey.exponent):
                failures += 1
            if ex != ey and es != min(ex.exponent, ey.exponent):
                failures += 1
    report("11 arithmetic battery: 10^4 multiplicativity/ultrametric checks",
           failures == 0, f"{failures} failures")
