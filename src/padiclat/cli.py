"""Command-line surface.

Exit codes: 0 success, 1 verification/attack-check failure, 2 input error,
3 precision exhaustion at the cap.  Every command is deterministic given
--seed and --precision.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from . import bench as bench_mod
from . import fileio
from .attack import attack_decrypt_detailed, forge_signature, recover_uniformizer
from .errors import PadicError, ParseError, PrecisionExhausted
from .fields import check_degree, check_parameters
from .lattices import Lattice, lvp_oracle
from .schemes import KeyPair, decrypt, encrypt, keygen, sign, verify
from .scalars import DEFAULT_PRECISION


def _add_common(sp):
    sp.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                    help="base-p digits carried per scalar")
    sp.add_argument("--seed", type=int, default=None,
                    help="deterministic randomness seed")
    sp.add_argument("--budget", type=int, default=10 ** 7,
                    help="enumeration budget for exhaustive operations")


def _rng(args):
    return random.Random(args.seed) if args.seed is not None else None


def _ints(text):
    return [int(t) for t in text.replace(",", " ").split()]


def _fraction(tok):
    try:
        return Fraction(tok)
    except ZeroDivisionError as exc:
        raise ValueError(f"bad rational {tok!r}: {exc}")


def _fractions(text):
    return [_fraction(t) for t in text.replace(",", " ").split()]


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_public(path):
    key = fileio.parse_key_file(_read(path))
    return key.public if isinstance(key, KeyPair) else key


def _load_pair(path):
    key = fileio.parse_key_file(_read(path))
    if not isinstance(key, KeyPair):
        raise ParseError(f"{path} holds only a public key")
    return key


def _message(args) -> bytes:
    if args.message_file:
        with open(args.message_file, "rb") as fh:
            return fh.read()
    if args.message is None:
        raise ParseError("a message is required (--message or --message-file)")
    return args.message.encode("utf-8")


def _random_eisenstein(n, p, rng):
    rng = rng or random.Random()
    coeffs = [p * rng.randrange(1, p)] + [p * rng.randrange(p) for _ in range(n - 1)]
    return coeffs + [1]


def _random_zeta(n, p, rng):
    rng = rng or random.Random()
    while True:
        z = [rng.randrange(p) for _ in range(n)]
        if z[1] % p:
            return z


def cmd_keygen(args):
    check_parameters(args.p, args.precision)
    check_degree(args.n)
    rng = _rng(args)
    n, m = args.n, args.m
    j = _ints(args.j) if args.j else list(range(n))
    f = _fractions(args.f) if args.f else _random_eisenstein(n, args.p, rng)
    zeta = _fractions(args.zeta) if args.zeta else _random_zeta(n, args.p, rng)
    delta = _fraction(args.delta) if args.delta else None
    kp = keygen(args.p, n, m, j, f, zeta, delta=delta, rng=rng,
                precision=args.precision)
    _write(args.out, fileio.emit_key_pair(kp))
    if args.public_out:
        _write(args.public_out, fileio.emit_public_key(kp.public))
    print(f"wrote key pair to {args.out}")
    return 0


def cmd_sign(args):
    kp = _load_pair(args.key)
    sig = sign(kp.private, kp.public, _message(args), rng=_rng(args))
    _write(args.out, fileio.emit_signature(sig))
    print(f"wrote signature to {args.out}")
    return 0


def cmd_verify(args):
    pk = _load_public(args.pub)
    sig = fileio.parse_signature(_read(args.sig), pk.ctx)
    ok = verify(pk, _message(args), sig)
    print("valid" if ok else "invalid")
    return 0 if ok else 1


def cmd_encrypt(args):
    pk = _load_public(args.pub)
    digits = _ints(args.plaintext)
    ct = encrypt(pk, digits, rng=_rng(args))
    _write(args.out, fileio.emit_ciphertext(ct))
    print(f"wrote ciphertext to {args.out}")
    return 0


def cmd_decrypt(args):
    kp = _load_pair(args.key)
    ct = fileio.parse_ciphertext(_read(args.ct), kp.public.ctx)
    print(" ".join(str(d) for d in decrypt(kp.private, ct)))
    return 0


def cmd_attack_uniformizer(args):
    pk = _load_public(args.pub)
    res = recover_uniformizer(pk)
    coeffs = " ".join(str(c.to_fraction()) for c in res.gamma.coeffs)
    print(f"exponent={res.lambda2.exponent}")
    print(f"gamma= {coeffs}")
    print(f"abs_count={res.abs_count}")
    return 0


def cmd_attack_forge(args):
    pk = _load_public(args.pub)
    message = _message(args)
    sig = forge_signature(pk, message, rng=_rng(args))
    if not verify(pk, message, sig):
        print("forged signature failed verification", file=sys.stderr)
        return 1
    _write(args.out, fileio.emit_signature(sig))
    print(f"wrote forged signature to {args.out}")
    return 0


def cmd_attack_decrypt(args):
    pk = _load_public(args.pub)
    ct = fileio.parse_ciphertext(_read(args.ct), pk.ctx)
    res = attack_decrypt_detailed(pk, ct)
    print(" ".join(str(d) for d in res.plaintext))
    return 0


def cmd_oracle_lvp(args):
    pk = _load_public(args.pub)
    lattice = Lattice(pk.ctx, pk.basis)
    res = lvp_oracle(pk.ctx, lattice, depth=args.depth, budget=args.budget)
    print(f"lambda1_exponent={res.lambda1.exponent}")
    print(f"lambda2_exponent={res.lambda2.exponent}")
    coeffs = " ".join(str(c.to_fraction()) for c in res.witness.coeffs)
    print(f"witness= {coeffs}")
    return 0


def cmd_bench(args):
    rows = bench_mod.bench_uniformizer(
        _ints(args.n_list), _ints(args.p_list), args.reps,
        seed=args.seed if args.seed is not None else 0,
        precision=args.precision)
    lines = [bench_mod.CSV_HEADER] + [r.csv() for r in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, text)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="padiclat",
        description="p-adic lattice workbench: schemes, oracles, and the attack")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("keygen", help="generate a key pair")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--j", help="exponent list, e.g. '0,1,2,3'")
    sp.add_argument("--f", help="Eisenstein coefficients, constant first")
    sp.add_argument("--zeta", help="generator over theta, constant first")
    sp.add_argument("--delta", help="noise bound (enables encryption)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--public-out")
    _add_common(sp)
    sp.set_defaults(func=cmd_keygen)

    sp = sub.add_parser("sign", help="sign a message")
    sp.add_argument("--key", required=True)
    sp.add_argument("--message")
    sp.add_argument("--message-file")
    sp.add_argument("--out", required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_sign)

    sp = sub.add_parser("verify", help="verify a signature")
    sp.add_argument("--pub", required=True)
    sp.add_argument("--message")
    sp.add_argument("--message-file")
    sp.add_argument("--sig", required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("encrypt", help="encrypt a digit vector")
    sp.add_argument("--pub", required=True)
    sp.add_argument("--plaintext", required=True)
    sp.add_argument("--out", required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_encrypt)

    sp = sub.add_parser("decrypt", help="decrypt with the private key")
    sp.add_argument("--key", required=True)
    sp.add_argument("--ct", required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_decrypt)

    atk = sub.add_parser("attack", help="public-key-only attacks")
    atk_sub = atk.add_subparsers(dest="attack_command", required=True)

    sp = atk_sub.add_parser("uniformizer", help="recover a uniformizer")
    sp.add_argument("--pub", required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_attack_uniformizer)

    sp = atk_sub.add_parser("forge", help="forge a signature")
    sp.add_argument("--pub", required=True)
    sp.add_argument("--message")
    sp.add_argument("--message-file")
    sp.add_argument("--out", required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_attack_forge)

    sp = atk_sub.add_parser("decrypt", help="decrypt without the private key")
    sp.add_argument("--pub", required=True)
    sp.add_argument("--ct", required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_attack_decrypt)

    orc = sub.add_parser("oracle", help="brute-force ground truth")
    orc_sub = orc.add_subparsers(dest="oracle_command", required=True)
    sp = orc_sub.add_parser("lvp", help="exhaustive second-maximum search")
    sp.add_argument("--pub", required=True)
    sp.add_argument("--depth", type=int, default=2)
    _add_common(sp)
    sp.set_defaults(func=cmd_oracle_lvp)

    sp = sub.add_parser("bench", help="uniformizer-recovery scaling report")
    sp.add_argument("--n-list", default="50,100,200")
    sp.add_argument("--p-list", default="5,7")
    sp.add_argument("--reps", type=int, default=1)
    sp.add_argument("--out")
    _add_common(sp)
    sp.set_defaults(func=cmd_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except PadicError as exc:
        kind = type(exc).__name__
        if kind in ("ParseError", "InconsistentHeader", "NotMonic", "NotIntegral",
                    "BadExponents", "BadMatrix", "DeltaTooSmall", "NotEisenstein",
                    "DegenerateGenerator", "FixtureTampered", "NoiseOutOfRange"):
            print(f"input error: {exc}", file=sys.stderr)
            return 2
        print(f"{kind}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
