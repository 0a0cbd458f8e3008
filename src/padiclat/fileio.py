"""Line-oriented text formats for keys, signatures and ciphertexts.

Canonical form: fixed field order, single spaces, LF endings, rationals as
``num/den`` (or a bare integer).  Parsing is strict: unknown keys and
malformed values are rejected with the offending line number, and the
p-adic interpretation happens at the declared precision.

Public keys may carry an optional cross-check block (``gamma=`` plus
``beta_gamma.i=`` lines): the basis re-expressed over a uniformizer.  When
present, the loader verifies both representations describe the same
elements and refuses the file otherwise.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InconsistentHeader, ParseError
from .fields import FieldContext, _linear_combination, _powers, make_context
from .scalars import _format_fraction, _parse_int
from .schemes import Ciphertext, KeyPair, PublicKey, Signature, keygen


def _format_vector(fracs) -> str:
    return " ".join(_format_fraction(f) for f in fracs)


def _format_scalars(scalars) -> str:
    return _format_vector(c.to_fraction() for c in scalars)


def _parse_fraction(tok: str, lineno: int) -> Fraction:
    try:
        num, sep, den = tok.partition("/")
        return Fraction(_parse_int(num), _parse_int(den) if sep else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {tok!r}: {exc}", lineno)


class _Lines:
    """key=value lines in order, with duplicate and unknown-key checks."""

    def __init__(self, text: str):
        self.fields = {}
        self.order = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError("expected key=value", lineno)
            key, _, value = line.partition("=")
            key = key.strip()
            if key in self.fields:
                raise ParseError(f"duplicate key {key!r}", lineno)
            self.fields[key] = (value.strip(), lineno)
            self.order.append(key)

    def take_int(self, key: str) -> int:
        value, lineno = self._take(key)
        try:
            return int(value)
        except ValueError:
            raise ParseError(f"bad integer for {key}: {value!r}", lineno)

    def take_fraction(self, key: str) -> Fraction:
        value, lineno = self._take(key)
        return _parse_fraction(value, lineno)

    def take_vector(self, key: str, length: int):
        value, lineno = self._take(key)
        toks = value.split()
        if len(toks) != length:
            raise ParseError(
                f"{key} has {len(toks)} coefficients, expected {length}", lineno)
        return [_parse_fraction(t, lineno) for t in toks]

    def take_raw(self, key: str) -> str:
        return self._take(key)[0]

    def _take(self, key: str):
        if key not in self.fields:
            raise ParseError(f"missing required line {key}=")
        self.order.remove(key)
        return self.fields.pop(key)

    def has(self, key: str) -> bool:
        return key in self.fields

    def finish(self):
        if self.fields:
            key = self.order[0]
            raise ParseError(f"unknown line {key!r}", self.fields[key][1])


def emit_public_key(pk: PublicKey, gamma=None, gamma_coords=None) -> str:
    """Canonical public-key text; optionally with the cross-check block."""
    out = [f"p={pk.ctx.p}", f"n={pk.ctx.n}", f"m={pk.m}"]
    if pk.delta is not None:
        out.append(f"delta={_format_fraction(pk.delta)}")
    out.append(f"precision={pk.ctx.precision}")
    out.append(f"F= {_format_scalars(pk.ctx.modulus)}")
    for i, b in enumerate(pk.basis, start=1):
        out.append(f"beta.{i}= {_format_vector(b.fracs)}")
    if gamma is not None:
        out.append(f"gamma= {_format_vector(gamma.fracs)}")
        for i, coords in enumerate(gamma_coords, start=1):
            row = " ".join(_format_fraction(Fraction(c)) for c in coords)
            out.append(f"beta_gamma.{i}= {row}")
    return "\n".join(out) + "\n"


def emit_key_pair(kp: KeyPair) -> str:
    sk = kp.private
    out = [emit_public_key(kp.public).rstrip("\n")]
    out.append(f"f= {_format_scalars(sk.eisenstein)}")
    out.append(f"zeta= {_format_scalars(sk.zeta_over_theta)}")
    out.append("j= " + " ".join(str(x) for x in sk.exponents))
    for i, row in enumerate(sk.matrix, start=1):
        out.append(f"A.row.{i}= {_format_scalars(row)}")
    return "\n".join(out) + "\n"


def parse_key_file(text: str):
    """PublicKey, or KeyPair when the private section is present."""
    lines = _Lines(text)
    p = lines.take_int("p")
    n = lines.take_int("n")
    m = lines.take_int("m")
    delta = lines.take_fraction("delta") if lines.has("delta") else None
    if delta is not None and delta < 0:
        raise ValueError("delta must be nonnegative")
    precision = lines.take_int("precision")
    if n < 2 or m < 1 or m > n:
        raise InconsistentHeader(f"bad dimensions n={n}, m={m}")
    fcoeffs = lines.take_vector("F", n + 1)
    ctx = make_context(p, precision, fcoeffs, ramification=n, residue_degree=1)
    basis = [ctx.element(lines.take_vector(f"beta.{i}", n)) for i in range(1, m + 1)]
    pk = PublicKey(ctx, tuple(basis), delta)
    if lines.has("gamma"):
        powers = _powers(ctx.element(lines.take_vector("gamma", n)), n)
        for i in range(1, m + 1):
            coords = lines.take_vector(f"beta_gamma.{i}", n)
            if _linear_combination(ctx, coords, powers) != basis[i - 1]:
                raise ParseError(
                    f"beta_gamma.{i} disagrees with beta.{i} under the "
                    "declared uniformizer")
    if not lines.has("f"):
        lines.finish()
        return pk
    f = lines.take_vector("f", n + 1)
    zeta = lines.take_vector("zeta", n)
    jline = lines.take_raw("j").split()
    if len(jline) != n:
        raise ParseError(f"j has {len(jline)} entries, expected {n}")
    j = [int(x) for x in jline]
    A = [lines.take_vector(f"A.row.{i}", m) for i in range(1, m + 1)]
    lines.finish()
    kp = keygen(p, n, m, j, f, zeta, delta=delta, matrix=A, precision=precision)
    if any(ours != theirs for ours, theirs in zip(kp.public.ctx.modulus, ctx.modulus)):
        raise InconsistentHeader("stored F disagrees with the private key")
    if any(ours != theirs for ours, theirs in zip(kp.public.basis, basis)):
        raise InconsistentHeader("stored basis disagrees with the private key")
    return kp


def _emit_header(ctx: FieldContext) -> list:
    return [f"p={ctx.p}", f"n={ctx.n}", f"precision={ctx.precision}"]


def _parse_header(lines: _Lines, ctx: FieldContext):
    p = lines.take_int("p")
    n = lines.take_int("n")
    precision = lines.take_int("precision")
    if (p, n) != (ctx.p, ctx.n):
        raise InconsistentHeader(
            f"file is for p={p}, n={n}; key has p={ctx.p}, n={ctx.n}")
    if precision != ctx.precision:
        raise InconsistentHeader(
            f"file precision {precision} != key precision {ctx.precision}")


def emit_ciphertext(ct: Ciphertext) -> str:
    ctx = ct.vector.ctx
    return "\n".join(_emit_header(ctx) + [f"C= {_format_vector(ct.vector.fracs)}"]) + "\n"


def parse_ciphertext(text: str, ctx: FieldContext) -> Ciphertext:
    lines = _Lines(text)
    _parse_header(lines, ctx)
    coeffs = lines.take_vector("C", ctx.n)
    lines.finish()
    return Ciphertext(ctx.element(coeffs))


def emit_signature(sig: Signature) -> str:
    ctx = sig.vector.ctx
    return "\n".join(_emit_header(ctx) + [
        f"r={sig.salt.hex()}",
        f"v= {_format_vector(sig.vector.fracs)}",
    ]) + "\n"


def parse_signature(text: str, ctx: FieldContext) -> Signature:
    lines = _Lines(text)
    _parse_header(lines, ctx)
    raw = lines.take_raw("r")
    try:
        salt = bytes.fromhex(raw)
    except ValueError:
        raise ParseError(f"bad hex salt {raw!r}")
    coeffs = lines.take_vector("v", ctx.n)
    lines.finish()
    return Signature(salt, ctx.element(coeffs))
