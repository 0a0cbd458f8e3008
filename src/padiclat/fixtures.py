"""Shipped desk-scale fixtures, digest-pinned.

The toy public key and ciphertext are the canonical small instance the
attack demonstrations and the acceptance suite run against.  Loaders
refuse modified files: tests that certify exact outputs are meaningless
against edited inputs.
"""

from __future__ import annotations

from importlib import resources

from .errors import FixtureTampered
from .fileio import parse_ciphertext, parse_key_file
from .schemes import Ciphertext, PublicKey

_DIGESTS = {
    "toy.pub": "bdf685b187381e1c99d8e541dc9ffa5cd42bca0b3452a1e09aaf057558674b23",
    "toy.ct": "3c986809ceaadcfeb6b14f2882d422b1c2ca9b1a736c15e76bbb60b885ad9bc7",
}


def fixture_text(name: str) -> str:
    if name not in _DIGESTS:
        raise KeyError(f"unknown fixture {name!r}")
    import hashlib  # loaded on first use: it pulls in OpenSSL

    data = resources.files("padiclat").joinpath("data").joinpath(name).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != _DIGESTS[name]:
        raise FixtureTampered(
            f"{name} has digest {digest}, expected {_DIGESTS[name]}")
    return data.decode("utf-8")


def toy_public_key() -> PublicKey:
    """Degree-20 public key at p=2 with four unit-norm basis vectors and
    noise bound 1/5; the basis is stored both over the generator and over
    a uniformizer, cross-validated at load."""
    return parse_key_file(fixture_text("toy.pub"))


def toy_ciphertext(pk: PublicKey | None = None) -> Ciphertext:
    """The matching ciphertext; encrypts (1, 1, 0, 1)."""
    pk = pk or toy_public_key()
    return parse_ciphertext(fixture_text("toy.ct"), pk.ctx)
