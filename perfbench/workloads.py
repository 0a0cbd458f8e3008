"""The benchmark's three workloads, their seeded inputs and their checks.

Each workload is a closed loop with one client: a round builds fresh
inputs from ``Random(f"{seed}:{workload}:{index}")`` and then runs its
timed operations one after another.  Inputs come only from the public API
(``make_context``, ``keygen``, ``bench.make_instance`` and ``fixtures``).
No timed operation gets a ``NormEngine`` that an earlier one warmed, except
where the API shares one on purpose: a ``BrokenKey`` reused across
``attack_decrypt_detailed`` calls.

Checks run after the round's operations, outside the timed and traced
regions.  A failed check or an exception marks its operation failed.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from padiclat import attack, bench, fields, fixtures, lattices, reduction, schemes

# Time per query depends on the generator's residue class (which also sets
# abs_count to about n, 2n or 3.5n), so a run needs many recoveries for a
# steady median: n = 64 keeps a round near 1.5 s (0.25 s of make_instance),
# about 20 per 30 s run, where n = 100 gives five.
RECOVER_N = 64
RECOVER_PRIMES = (5, 7)

# (p, n, m) key shapes and messages per key; delta = 1/2 throughout.  The
# cost of a key varies by about 15% with its random polynomial, so keys are
# kept small enough (about 1 s per round) that a 30 s run sees 15 or more
# of each.
LIFECYCLE_SHAPES = ((3, 14, 6), (2, 14, 4))
LIFECYCLE_MESSAGES = 2
LIFECYCLE_DELTA = Fraction(1, 2)

# The scheme-shaped cell family of acceptance criterion 4 (p in {2, 3, 5},
# n <= 6, m <= 4), without the six cells whose p^(2m) enumeration reaches
# 6561: those take 28 of the 31 seconds of a full pass, so a run would
# hold a single pass, and they repeat the same code path at larger counts.
ORACLE_CELLS = tuple(
    (p, n, m)
    for p, ns, ms in ((2, (2, 3, 4, 5, 6), (1, 2, 3, 4)),
                      (3, (3, 4, 5, 6), (1, 2, 3, 4)),
                      (5, (4, 5, 6), (1, 2, 3)))
    for n in ns for m in ms
    if m <= n and p ** (2 * m) <= 729)
ORACLE_DEPTH = 2
ORACLE_PRECISION = 64


class OpFailed(Exception):
    """Aborts a round after an operation raised; already recorded."""


class SetupDone(Exception):
    """Ends a set-up-only round just before its first timed operation."""


class Recorder:
    """Timed operations, their outputs and their failures for one round.
    Operations are timed with ``clock``, a seconds counter."""

    def __init__(self, setup_only=False, clock=time.perf_counter):
        self.setup_only = setup_only
        self.clock = clock
        self.records = []   # [kind, shape, seconds, count]
        self.outputs = []   # canonical reprs compared between traced and untraced rounds
        self.failures = []
        self.attempted = 0
        self.first_op_at = None
        self._failed_ops = set()
        self._checks = []

    @property
    def failed(self) -> int:
        return len(self._failed_ops)

    def op(self, kind, shape, fn, *args, **kwargs):
        """Run one timed operation; returns (operation id, result)."""
        op_id = self.attempted
        self.attempted += 1
        if self.first_op_at is None:
            self.first_op_at = time.monotonic()
            if self.setup_only:
                raise SetupDone
        try:
            t0 = self.clock()
            result = fn(*args, **kwargs)
            seconds = self.clock() - t0
        except Exception as exc:
            self._fail(op_id, f"{kind} on {shape} raised {type(exc).__name__}: {exc}")
            raise OpFailed from exc
        self.records.append([kind, shape, seconds, 1])
        return op_id, result

    def count(self, units):
        """Set how many work units the last recorded operation did."""
        self.records[-1][3] = units

    def output(self, value):
        self.outputs.append(repr(value))

    def check(self, op_id, label, predicate):
        """Defer a check on an operation's output until the round ends."""
        self._checks.append((op_id, label, predicate))

    def run_checks(self):
        checks, self._checks = self._checks, []
        for op_id, label, predicate in checks:
            try:
                ok = predicate()
            except Exception as exc:
                ok = False
                label = f"{label} ({type(exc).__name__}: {exc})"
            if not ok:
                self._fail(op_id, f"check failed: {label}")

    def _fail(self, op_id, message):
        self._failed_ops.add(op_id)
        self.failures.append(message)


def _round_rng(seed, workload, index):
    return random.Random(f"{seed}:{workload}:{index}")


# -- recover ------------------------------------------------------------------


def recover_round(rec: Recorder, seed: int, index: int, first: bool):
    """One fresh public polynomial per round, alternating p.  Both primes
    share one shape: their time per query is the same."""
    p = RECOVER_PRIMES[index % len(RECOVER_PRIMES)]
    n = RECOVER_N
    shape = f"n{n}"
    ctx = bench.make_instance(n, p, _round_rng(seed, "recover", index))
    op_id, res = rec.op("recover", shape, attack.recover_uniformizer, ctx)
    rec.count(res.abs_count)
    rec.output((ctx.modulus[0].key(), res.gamma.key(), res.lambda2, res.abs_count))
    target = fields.AbsValue.of(1, n)
    label = f"n={n}, p={p}, round {index}"
    rec.check(op_id, f"{label}: lambda2 = p^(-1/n)", lambda: res.lambda2 == target)
    rec.check(op_id, f"{label}: |gamma| = p^(-1/n)",
              lambda: fields.NormEngine(ctx).abs_value(res.gamma) == target)
    rec.check(op_id, f"{label}: abs_count {res.abs_count} <= n + p(n-1)",
              lambda: res.abs_count <= n + p * (n - 1))


# -- lifecycle ----------------------------------------------------------------


def _key_inputs(rng, p, n, m):
    """keygen arguments: an Eisenstein f, a generator zeta whose theta
    coefficient is a unit, and exponents whose first m fit delta * n."""
    f = [p * rng.randrange(1, p)] + [p * rng.randrange(p) for _ in range(n - 1)] + [1]
    while True:
        zeta = [rng.randrange(p) for _ in range(n)]
        if zeta[1] % p:
            break
    top = min(n - 1, int(LIFECYCLE_DELTA * n))
    first = [0] + sorted(rng.sample(range(1, top + 1), m - 1))
    rest = sorted(set(range(n)) - set(first))
    return first + rest, f, zeta


def _toy_break(rec: Recorder):
    """Break the shipped fixture.  Its operations are timed for reading but
    count no work units: one fixed input, run cold as a worker's first
    operation, would only add noise to op_ms."""
    pk = fixtures.toy_public_key()
    ct = fixtures.toy_ciphertext(pk)
    _, bk = rec.op("break", "toy", attack.BrokenKey.from_public, pk)
    rec.count(0)
    op_id, res = rec.op("attack_decrypt", "toy", attack.attack_decrypt_detailed, pk, ct, broken=bk)
    rec.count(0)
    coords = [c.to_fraction() for c in res.basis_coords]
    rec.output((res.plaintext, coords))
    rec.check(op_id, "toy: plaintext (1, 1, 0, 1)", lambda: res.plaintext == (1, 1, 0, 1))
    rec.check(op_id, "toy: basis coordinates (-1, 1, 0, 1)", lambda: coords == [-1, 1, 0, 1])


def lifecycle_round(rec: Recorder, seed: int, index: int, first: bool):
    """A worker's first round breaks the shipped toy instance; every round
    runs one key through keygen, per-message scheme operations, the
    public-key break, attack decryption of each ciphertext and a forgery."""
    if first:
        _toy_break(rec)
    p, n, m = LIFECYCLE_SHAPES[index % len(LIFECYCLE_SHAPES)]
    shape = f"p{p}-n{n}-m{m}"
    rng = _round_rng(seed, "lifecycle", index)
    exponents, f, zeta = _key_inputs(rng, p, n, m)
    _, kp = rec.op("keygen", shape, schemes.keygen, p, n, m, exponents, f, zeta,
                   delta=LIFECYCLE_DELTA, rng=rng)
    pk, sk = kp.public, kp.private
    rec.output((pk.ctx.modulus[0].key(), [b.key() for b in pk.basis]))
    cts = []
    for k in range(LIFECYCLE_MESSAGES):
        msg = b"padiclat-bench-%d-%d" % (index, k)
        sid, (sig, attempts) = rec.op("sign", shape, schemes.sign_detailed, sk, pk, msg, rng=rng)
        vid, ok = rec.op("verify", shape, schemes.verify, pk, msg, sig)
        pt = tuple(rng.randrange(p) for _ in range(m))
        _, ct = rec.op("encrypt", shape, schemes.encrypt, pk, pt, rng=rng)
        did, dec = rec.op("decrypt", shape, schemes.decrypt, sk, ct)
        cts.append((pt, ct))
        rec.output((sig.salt, sig.vector.key(), attempts, ok, ct.vector.key(), dec))
        rec.check(sid, f"{shape}: signing took {attempts} salt attempts, expected 1",
                  lambda a=attempts: a == 1)
        rec.check(vid, f"{shape}: signature verifies", lambda v=ok: v is True)
        rec.check(did, f"{shape}: decrypt returns the plaintext", lambda d=dec, t=pt: d == t)
    _, bk = rec.op("break", shape, attack.BrokenKey.from_public, pk)
    rec.output((bk.gamma.key(), [v.key() for v in bk.ortho]))
    for pt, ct in cts:
        aid, res = rec.op("attack_decrypt", shape, attack.attack_decrypt_detailed, pk, ct, broken=bk)
        rec.output(res.plaintext)
        rec.check(aid, f"{shape}: attack decryption returns the plaintext",
                  lambda r=res.plaintext, t=pt: r == t)
    msg = b"padiclat-bench-forge-%d" % index
    fid, forged = rec.op("forge", shape, attack.forge_signature, pk, msg, rng=rng)
    rec.output((forged.salt, forged.vector.key()))
    rec.check(fid, f"{shape}: forged signature verifies",
              lambda: schemes.verify(pk, msg, forged) is True)


# -- oracle -------------------------------------------------------------------


def _det_mod_p(rows, p):
    """Determinant mod p; a local copy, since inputs come from the public
    API only and the package's own GF(p) helpers are private."""
    a = [[x % p for x in row] for row in rows]
    size = len(a)
    det = 1
    for k in range(size):
        piv = next((i for i in range(k, size) if a[i][k]), None)
        if piv is None:
            return 0
        a[k], a[piv] = a[piv], a[k]
        det = det * a[k][k] % p
        inv = pow(a[k][k], -1, p)
        for i in range(k + 1, size):
            f = a[i][k] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return det


def scheme_shaped_lattice(rng, p, n, m):
    """Hidden orthogonal basis theta^(j_1) .. theta^(j_m) (j ascending) of
    a random Eisenstein field, mixed by a digit matrix that is unimodular
    mod p."""
    f = [p * rng.randrange(1, p)] + [p * rng.randrange(p) for _ in range(n - 1)] + [1]
    ctx = fields.make_context(p, ORACLE_PRECISION, f, ramification=n, residue_degree=1)
    j = sorted(rng.sample(range(n), m))
    while True:
        mix = [[rng.randrange(p ** 3) for _ in range(m)] for _ in range(m)]
        if _det_mod_p(mix, p):
            break
    basis = []
    for row in mix:
        acc = ctx.zero()
        for a, k in zip(row, j):
            if a:
                acc = acc + ctx.monomial(k) * a
        basis.append(acc)
    return ctx, basis


def oracle_round(rec: Recorder, seed: int, index: int, first: bool):
    """One pass over the cell list: both reduction algorithms and the
    brute-force oracle on a fresh lattice per cell, then cross-checked."""
    rng = _round_rng(seed, "oracle", index)
    for p, n, m in ORACLE_CELLS:
        shape = f"p{p}-n{n}-m{m}"
        ctx, basis = scheme_shaped_lattice(rng, p, n, m)
        fid, res = rec.op("find_second_longest", shape, reduction.find_second_longest, ctx, basis)
        oid, ortho = rec.op("orthogonalize", shape, reduction.orthogonalize, ctx, basis)
        lid, oracle = rec.op("lvp_oracle", shape, lattices.lvp_oracle, ctx,
                             lattices.Lattice(ctx, basis), ORACLE_DEPTH)
        maxima = sorted(ortho.exponents, reverse=True)
        top = list(oracle.classes[:m])
        rec.output((res.lambda2, res.abs_count, maxima, ortho.abs_count, oracle.classes))
        rec.check(fid, f"{shape}: lambda2 equals the oracle's",
                  lambda r=res, o=oracle: r.lambda2 == o.lambda2)
        rec.check(oid, f"{shape}: successive maxima equal the top m oracle classes",
                  lambda a=maxima, b=top: a == b)
        rec.check(fid, f"{shape}: abs_count {res.abs_count} <= m + p(m-1)",
                  lambda c=res.abs_count, p=p, m=m: c <= m + p * (m - 1))
        rec.check(oid, f"{shape}: abs_count {ortho.abs_count} <= m(m-1) + p(m-1)^2",
                  lambda c=ortho.abs_count, p=p, m=m: c <= m * (m - 1) + p * (m - 1) ** 2)


ROUNDS = {"recover": recover_round, "lifecycle": lifecycle_round, "oracle": oracle_round}

# Rounds per traced run, each run once traced and once untraced: fixed, so
# counts repeat exactly for a seed; even, so each side runs first equally
# often; about 10-20 s in all, so trace.overhead_ratio is not dominated by
# the machine's noise.
TRACE_ROUNDS = {"recover": 6, "lifecycle": 8, "oracle": 2}
