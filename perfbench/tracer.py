"""Per-layer spans for padiclat, recorded from outside the package.

The tracer wraps the public functions of ``fields``, ``lattices``,
``reduction``, ``schemes``, ``attack`` and ``bench`` while it is installed
and restores them afterwards; no file of the package changes.

``from .x import name`` copies a binding into the importing module, so a
function is replaced in every ``padiclat`` module whose globals hold it,
not just where it is defined.  Methods and operators are replaced on their
class.

A layer's self time is the duration of its spans minus the part covered
by child spans.  A call made while a span of the same layer is open is
counted but opens no new span, so ``abs_value`` -> ``norm_valuation`` is
one ``NormEngine`` span.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array

# layer name -> "module:attribute" targets that belong to it
LAYERS = {
    "fields.NormEngine": [
        "fields:NormEngine.norm_valuation", "fields:NormEngine.norm_exceeds",
        "fields:NormEngine.abs_value", "fields:NormEngine.abs_less_than",
        "fields:NormEngine.resolve_min_valuation"],
    "fields.coordinates_in": ["fields:coordinates_in"],
    "fields.char_poly": ["fields:char_poly"],
    "fields.FieldElement.add": [
        "fields:FieldElement.__add__", "fields:FieldElement.__sub__",
        "fields:FieldElement.__neg__"],
    "fields.FieldElement.mul": [
        "fields:FieldElement.__mul__", "fields:FieldElement.__rmul__"],
    "lattices.lvp_oracle": ["lattices:lvp_oracle"],
    "lattices.cvp_orthogonal": ["lattices:cvp_orthogonal"],
    "lattices.complete_orthogonal": ["lattices:complete_orthogonal"],
    "reduction.find_second_longest": ["reduction:find_second_longest"],
    "reduction.orthogonalize": ["reduction:orthogonalize"],
    "schemes.keygen": ["schemes:keygen"],
    "schemes.sign": ["schemes:sign", "schemes:sign_detailed"],
    "schemes.verify": ["schemes:verify"],
    "schemes.encrypt": ["schemes:encrypt"],
    "schemes.decrypt": ["schemes:decrypt"],
    "schemes.hash_to_target": ["schemes:hash_to_target"],
    "schemes.in_lattice": ["schemes:in_lattice"],
    "attack.recover_uniformizer": ["attack:recover_uniformizer"],
    "attack.BrokenKey.from_public": ["attack:BrokenKey.from_public"],
    "attack.attack_decrypt": ["attack:attack_decrypt", "attack:attack_decrypt_detailed"],
    "attack.forge_signature": ["attack:forge_signature"],
    "bench.make_instance": ["bench:make_instance"],
}

# layers whose results carry the reduction cost counter
ABS_COUNTED = {"reduction.find_second_longest", "reduction.orthogonalize"}


class Tracer:
    """Counts calls and self time per layer while installed."""

    def __init__(self):
        self.names = list(LAYERS)
        size = len(self.names)
        self.calls = [0] * size
        self.self_s = [0.0] * size
        self._open = [0] * size
        self.abs_count = 0
        self.missing = []
        self.sites = {}
        self._stack = []  # [span id, seconds covered by child spans]
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._restore = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, idx, fn):
        counts_abs = self.names[idx] in ABS_COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[idx] += 1
            if self._open[idx]:
                result = fn(*args, **kwargs)
            else:
                result = self._span(idx, fn, args, kwargs)
            if counts_abs:
                self.abs_count += result.abs_count
            return result

        return traced

    def _span(self, idx, fn, args, kwargs):
        sid = len(self.span_layer)
        frame = [sid, 0.0]
        self.span_layer.append(idx)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(frame)
        self._open[idx] += 1
        start = time.perf_counter()
        self.span_start.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open[idx] -= 1
            self._stack.pop()
            self.span_end[sid] = end
            duration = end - start
            self.self_s[idx] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration

    # -- patching ----------------------------------------------------------

    def _install(self):
        self.missing = []
        for idx, layer in enumerate(self.names):
            for target in LAYERS[layer]:
                module_name, _, attr = target.partition(":")
                module = importlib.import_module(f"padiclat.{module_name}")
                owner_name, _, member = attr.rpartition(".")
                if owner_name:
                    self._patch_member(idx, getattr(module, owner_name, None), member, target)
                else:
                    self._patch_function(idx, getattr(module, member, None), target)

    def _patch_member(self, idx, owner, member, target):
        raw = vars(owner).get(member) if owner is not None else None
        if raw is None:
            self.missing.append(target)
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(idx, raw.__func__))
        else:
            wrapped = self._wrap(idx, raw)
        setattr(owner, member, wrapped)
        self._restore.append((owner, member, raw))
        self.sites[target] = 1

    def _patch_function(self, idx, fn, target):
        if fn is None:
            self.missing.append(target)
            return
        wrapped = self._wrap(idx, fn)
        sites = 0
        for name, module in list(sys.modules.items()):
            if name != "padiclat" and not name.startswith("padiclat."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._restore.append((module, attr, fn))
                    sites += 1
        self.sites[target] = sites

    def _uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced binding for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        out = {"reduction.abs_count": self.abs_count}
        for idx, layer in enumerate(self.names):
            out[f"{layer}.calls"] = self.calls[idx]
            out[f"{layer}.self_s"] = self.self_s[idx]
        return out

    def dump(self, path):
        """Write every recorded span: layer index, parent span (-1 for a
        root), start and end on the perf_counter clock."""
        with open(path, "w") as fh:
            json.dump({"layers": self.names,
                       "layer": self.span_layer.tolist(),
                       "parent": self.span_parent.tolist(),
                       "start": self.span_start.tolist(),
                       "end": self.span_end.tolist()}, fh)
