"""padiclat: p-adic lattice workbench.

Exact arithmetic in Q_p and its totally ramified extensions, lattice
reduction and CVP with orthogonal bases, the lattice-based signature and
encryption schemes built on them, and the public-key-only attack that
breaks both.
"""

from .errors import PadicError, PrecisionExhausted
from .fields import AbsValue, FieldContext, FieldElement, NormEngine, abs_value, coordinates_in, is_eisenstein, make_context
from .lattices import Lattice, complete_orthogonal, cvp_orthogonal, is_orthogonal, lvp_oracle, successive_maxima
from .reduction import find_second_longest, find_second_longest_general, orthogonalize
from .scalars import DEFAULT_PRECISION, PRECISION_CAP, PadicScalar
from .schemes import Ciphertext, KeyPair, PrivateKey, PublicKey, Signature, decrypt, encrypt, hash_to_target, keygen, sign, verify
from .attack import attack_decrypt, find_uniformizer, forge_signature, recover_uniformizer, uniformizer_shortcut

__version__ = "0.1.0"

__all__ = [
    "AbsValue", "Ciphertext", "DEFAULT_PRECISION", "FieldContext",
    "FieldElement", "KeyPair", "Lattice", "NormEngine", "PRECISION_CAP",
    "PadicError", "PadicScalar", "PrecisionExhausted", "PrivateKey",
    "PublicKey", "Signature", "abs_value", "attack_decrypt",
    "complete_orthogonal", "coordinates_in", "cvp_orthogonal", "decrypt",
    "encrypt", "find_second_longest",
    "find_second_longest_general", "find_uniformizer", "forge_signature",
    "hash_to_target", "is_eisenstein", "is_orthogonal", "keygen",
    "lvp_oracle", "make_context", "orthogonalize", "recover_uniformizer",
    "sign", "successive_maxima", "uniformizer_shortcut", "verify",
]
