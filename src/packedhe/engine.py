"""Simulated multiparty packed-slot ciphertext engine.

A ``CryptoContext`` models an approximate-arithmetic SIMD cryptosystem at the
slot level: ciphertexts are vectors of ``ring_dim / 2`` real slots carrying a
remaining multiplicative level and a scale.  The exact backend stores slot
values as plain float64 so that every algebraic identity can be checked
bit-for-bit against plaintext oracles; an optional gaussian backend injects
i.i.d. noise after encryption and ciphertext products to emulate approximation
error.

Collective operations (``ddec``, ``dbootstrap``, ``dkey_switch``) enforce the
N-of-N contract: they refuse to run unless every holder of the key's secret
shares is presented.  Key material itself is symbolic (string tags mapped to
owner rosters); no lattice arithmetic is performed.

Every homomorphic call increments exactly one tally of the context's
``OpCounter`` by one, except ``mul_pt_sum``, which bumps ``mul_pt`` by k and
``adds`` by k - 1 for its k terms, the same as the ``mul_pt``/``add`` chain it
fuses.  The meter is the ground truth for all operation-count benchmarks.

``mul_pt_sum`` takes its 0/1 plaintexts as a ``MaskTable``: a read-only bool
table whose rows are checked once, when it is built, to select pairwise
disjoint slots.  Each slot of the sum then comes from at most one term, so the
kernel copies each term's selected slots into a zeroed accumulator
(``np.copyto(..., where=row)``) instead of multiplying and adding.

Ciphertexts and plaintexts are immutable, and every slot array the engine
puts in one is read-only.  Operations that leave slot values untouched
(``rescale``, ``dbootstrap``, ``dkey_switch``, ``ddec`` and exact-mode
``encrypt``) therefore share the input's array instead of copying it.  A
writable array in a hand-built ``SlotVector`` or ``Plaintext`` is copied
once, never frozen in place, so the caller keeps a writable array.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class EngineError(ValueError):
    """Base class for contract violations inside the slot engine."""


class MissingPartyError(EngineError):
    """A collective operation was invoked without the full share roster."""


class KeyMismatchError(EngineError):
    """Operands are bound to different or unknown key tags."""


class LevelExhaustedError(EngineError):
    """The ciphertext has no multiplicative budget left for this operation."""


class CapacityError(EngineError):
    """The requested payload does not fit the context's slot layout."""


COUNTER_FIELDS = (
    "adds",
    "subs",
    "mul_pt",
    "mul_ct",
    "rotations",
    "rescales",
    "bootstraps",
    "keyswitches",
)


class OpCounter:
    """Monotone tally of homomorphic operations within a metering scope."""

    __slots__ = COUNTER_FIELDS

    def __init__(self):
        for name in COUNTER_FIELDS:
            setattr(self, name, 0)

    def bump(self, name: str, times: int = 1) -> None:
        setattr(self, name, getattr(self, name) + times)

    def reset(self) -> None:
        """Zero all tallies, starting a fresh metering scope."""
        for name in COUNTER_FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in COUNTER_FIELDS}

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True)

    def __repr__(self):
        body = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"OpCounter({body})"


@dataclass(frozen=True)
class KeyShareSet:
    """Roster binding for a collective key pair.

    ``collective_key_tag`` is owned jointly by ``party_ids`` (all of them are
    required for decryption, bootstrapping and key switching) while
    ``server_key_tag`` is owned by the aggregation server alone.
    """

    party_ids: tuple
    collective_key_tag: str
    server_key_tag: str


@dataclass(frozen=True, eq=False)
class Plaintext:
    """Encoded (packed) plaintext vector at a fixed scale."""

    slots: np.ndarray
    scale: float
    context_id: str


_set_slot = object.__setattr__


class MaskTable:
    """Read-only 2-D bool table of 0/1 plaintext rows that never overlap.

    Handed whole to ``CryptoContext.mul_pt_sum``; the disjointness check runs
    here, once per table, never per call.  The constructor never casts: it
    raises ``EngineError`` for a non-bool dtype, for a table that is not 2-D
    and for two rows that select the same slot.  A writable array is copied
    once and the copy frozen, so the caller keeps a writable array.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = np.asarray(rows)
        if rows.dtype != np.bool_:
            raise EngineError(f"mask table must be bool, got {rows.dtype}")
        if rows.ndim != 2:
            raise EngineError(f"mask table must be 2-D, got shape {rows.shape}")
        if np.count_nonzero(rows) != np.count_nonzero(rows.any(axis=0)):
            raise EngineError("mask table rows overlap")
        _set_slot(self, "rows", _shared(rows))

    def __setattr__(self, name, value):
        raise AttributeError(f"MaskTable is immutable; cannot set {name!r}")


class SlotVector:
    """A packed ciphertext: slot values plus level/scale/key bookkeeping.

    Immutable: assigning or deleting an attribute raises ``AttributeError``.
    Records compare and hash by identity.
    """

    __slots__ = ("slots", "level", "scale", "context_id", "key_tag")

    def __init__(self, slots: np.ndarray, level: int, scale: float,
                 context_id: str, key_tag: str):
        if level < 0:
            raise LevelExhaustedError("ciphertext level may not be negative")
        if not 0 < scale < math.inf:
            raise EngineError("ciphertext scale must be finite and positive")
        _set_slot(self, "slots", slots)
        _set_slot(self, "level", level)
        _set_slot(self, "scale", scale)
        _set_slot(self, "context_id", context_id)
        _set_slot(self, "key_tag", key_tag)

    def __setattr__(self, name, value):
        raise AttributeError(f"SlotVector is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"SlotVector is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return SlotVector, (self.slots, self.level, self.scale,
                            self.context_id, self.key_tag)

    def __repr__(self):
        return (f"SlotVector(n={self.slots.size}, level={self.level}, "
                f"scale={self.scale!r}, key_tag={self.key_tag!r}, "
                f"context_id={self.context_id!r})")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _shared(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself when read-only, else a read-only copy of it."""
    return arr if not arr.flags.writeable else _freeze(arr.copy())


class _ScopeStacks(threading.local):
    """Per-thread stack of open meter scopes; every thread starts empty."""

    def __init__(self):
        self.stack = []


_context_ids = itertools.count()


class CryptoContext:
    """Ring/slot parameters, key roster, and the operation meter.

    Args:
        ring_dim: power-of-two ring dimension; slot_count is ring_dim / 2.
        initial_level: multiplicative budget of a fresh ciphertext.
        initial_scale: scale of a fresh ciphertext (default 2**40).
        party_count: number of secret-share holders of the collective key.
        noise_mode: "exact" (default) or "gaussian".
        noise_sigma: std-dev of slot noise injected after encrypt and mul_ct
            in gaussian mode.
        noise_seed: seed for the gaussian noise stream.
    """

    DEFAULT_KEY = "pk"
    SERVER_KEY = "pk-server"

    def __init__(self, ring_dim: int, initial_level: int = 6,
                 initial_scale: float = 2.0 ** 40, party_count: int = 1,
                 noise_mode: str = "exact", noise_sigma: float = 0.0,
                 noise_seed: int = 0):
        if ring_dim < 8 or ring_dim & (ring_dim - 1) != 0:
            raise EngineError(f"ring_dim must be a power of two >= 8, got {ring_dim}")
        if initial_level < 1:
            raise EngineError(f"initial_level must be >= 1, got {initial_level}")
        if initial_scale <= 1:
            raise EngineError(f"initial_scale must exceed 1, got {initial_scale}")
        if party_count < 1:
            raise EngineError(f"party_count must be >= 1, got {party_count}")
        if noise_mode not in ("exact", "gaussian"):
            raise EngineError(f"unknown noise_mode {noise_mode!r}")
        if noise_mode == "gaussian" and noise_sigma <= 0:
            raise EngineError("gaussian noise_mode requires noise_sigma > 0")

        self.ring_dim = ring_dim
        self.slot_count = ring_dim // 2
        self.initial_level = initial_level
        self.initial_scale = float(initial_scale)
        self.party_count = party_count
        self.noise_mode = noise_mode
        self.noise_sigma = float(noise_sigma)
        self._rng = np.random.default_rng(noise_seed)
        self.context_id = f"ctx{next(_context_ids)}-n{self.slot_count}"

        self.meter = OpCounter()
        self._meter_lock = threading.Lock()
        self._scopes = _ScopeStacks()

        parties = tuple(f"party-{i}" for i in range(party_count))
        self._key_owners: dict[str, tuple] = {}
        self.keyset = KeyShareSet(parties, self.DEFAULT_KEY, self.SERVER_KEY)
        self.register_key(self.DEFAULT_KEY, parties)
        self.register_key(self.SERVER_KEY, ("server",))

    # ------------------------------------------------------------------ keys

    @property
    def parties(self) -> tuple:
        return self.keyset.party_ids

    def register_key(self, tag: str, owners: Iterable[str]) -> None:
        owners = tuple(owners)
        if not owners:
            raise EngineError("a key must have at least one share owner")
        if len(set(owners)) != len(owners):
            raise EngineError(f"duplicate share owners for key {tag!r}")
        self._key_owners[tag] = owners

    def key_owners(self, tag: str) -> tuple:
        try:
            return self._key_owners[tag]
        except KeyError:
            raise KeyMismatchError(f"unknown key tag {tag!r}") from None

    def _require_roster(self, tag: str, roster: Iterable[str], op: str) -> None:
        owners = set(self.key_owners(tag))
        missing = owners - set(roster)
        if missing:
            raise MissingPartyError(
                f"{op} under key {tag!r} requires all share owners; "
                f"missing: {sorted(missing)}")

    # ----------------------------------------------------------------- meter

    def _tally(self, name: str, times: int = 1) -> None:
        meter = self.meter
        with self._meter_lock:
            setattr(meter, name, getattr(meter, name) + times)
        for counter in self._scopes.stack:
            setattr(counter, name, getattr(counter, name) + times)

    @contextmanager
    def meter_scope(self):
        """Private counter covering the ops issued by this thread inside the scope.

        Nested and concurrent scopes each see their own tallies; enclosing
        scopes (and the context-wide meter) accumulate the same events, so a
        scope's counts are already merged outward when it closes.
        """
        counter = OpCounter()
        stack = self._scopes.stack
        stack.append(counter)
        try:
            yield counter
        finally:
            stack.pop()

    # ------------------------------------------------------------ encode/dec

    def encode(self, values: Sequence[float]) -> Plaintext:
        """Pack ``values`` into slots, zero-padding up to slot_count."""
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size > self.slot_count:
            raise CapacityError(
                f"{arr.size} values exceed the {self.slot_count}-slot capacity")
        slots = np.zeros(self.slot_count, dtype=np.float64)
        slots[: arr.size] = arr
        return Plaintext(_freeze(slots), self.initial_scale, self.context_id)

    def decode(self, pt: Plaintext) -> np.ndarray:
        self._check_context(pt)
        return pt.slots.copy()

    def constant(self, value, key_tag: str | None = None) -> SlotVector:
        """Encrypt a constant (scalar broadcast or vector) under ``key_tag``.

        Convenience for polynomial evaluation, where plaintext constants enter
        additions as trivially encrypted vectors.
        """
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim == 0:
            arr = np.full(self.slot_count, float(arr))
        return self.encrypt(self.encode(arr), key_tag)

    # ------------------------------------------------------- encrypt/decrypt

    def encrypt(self, pt: Plaintext, key_tag: str | None = None) -> SlotVector:
        self._check_context(pt)
        tag = key_tag or self.DEFAULT_KEY
        self.key_owners(tag)
        if self.noise_mode == "gaussian":
            slots = _freeze(pt.slots + self._rng.normal(
                0.0, self.noise_sigma, self.slot_count))
        else:
            slots = _shared(pt.slots)
        return SlotVector(slots, self.initial_level, self.initial_scale,
                          self.context_id, tag)

    def ddec(self, ct: SlotVector, roster: Iterable[str]) -> Plaintext:
        """Collective decryption; requires every share owner of ct's key."""
        self._check_context(ct)
        self._require_roster(ct.key_tag, roster, "ddec")
        return Plaintext(_shared(ct.slots), ct.scale, self.context_id)

    # ------------------------------------------------------------ arithmetic

    def add(self, a: SlotVector, b: SlotVector) -> SlotVector:
        self._check_pair(a, b)
        self._tally("adds")
        return self._derive(a, a.slots + b.slots,
                            level=min(a.level, b.level),
                            scale=max(a.scale, b.scale))

    def sub(self, a: SlotVector, b: SlotVector) -> SlotVector:
        self._check_pair(a, b)
        self._tally("subs")
        return self._derive(a, a.slots - b.slots,
                            level=min(a.level, b.level),
                            scale=max(a.scale, b.scale))

    def mul_pt(self, ct: SlotVector, pt: Plaintext) -> SlotVector:
        self._check_context(ct)
        self._check_context(pt)
        if ct.level < 1:
            raise LevelExhaustedError("mul_pt requires level >= 1")
        self._tally("mul_pt")
        return self._derive(ct, ct.slots * pt.slots, scale=ct.scale * pt.scale)

    def mul_pt_sum(self, cts: Sequence[SlotVector], table: MaskTable) -> SlotVector:
        """Sum of ``cts[j] * table.rows[j]``, each row a 0/1 plaintext.

        Each row enters at the context scale, and the tallies are those of
        the chain ``mul_pt(cts[0], encode(rows[0])) + mul_pt(cts[1], ...) +
        ...``: ``len(cts)`` mul_pt and ``len(cts) - 1`` adds.  Because the
        rows are disjoint, the kernel copies the slots row j selects from
        ``cts[j]`` into a zeroed accumulator, and the result relates to the
        chain as follows:

        * every slot a row selects holds that term's value bit for bit.  It
          is byte-equal to the chain's whenever the chain's terms are
          finite, except for a selected -0.0 that the chain may turn into +0.0;
        * every slot no row selects is +0.0, as in ``apply_permutation``.
          The chain gave +-0.0 there, or NaN for an inf or NaN term;
        * so for finite terms the result equals the chain under IEEE
          equality.

        The operands must share key, level (>= 1) and scale, and the table
        must be a ``MaskTable`` of shape ``(len(cts), slot_count)``.  Every
        check runs before the tally, so a rejected call meters nothing.
        """
        if not cts:
            raise EngineError("mul_pt_sum needs at least one term")
        if not isinstance(table, MaskTable):
            raise EngineError(
                f"mul_pt_sum takes a MaskTable, got {type(table).__name__}")
        first = cts[0]
        for ct in cts:
            self._check_pair(first, ct)
            if ct.level != first.level or ct.scale != first.scale:
                raise EngineError("mul_pt_sum operands differ in level or scale")
        if first.level < 1:
            raise LevelExhaustedError("mul_pt_sum requires level >= 1")
        rows = table.rows
        if rows.shape != (len(cts), self.slot_count):
            raise CapacityError(
                f"mul_pt_sum rows have shape {rows.shape}, expected "
                f"{(len(cts), self.slot_count)}")
        self._tally("mul_pt", len(cts))
        self._tally("adds", len(cts) - 1)
        acc = np.zeros(self.slot_count)
        for ct, row in zip(cts, rows):
            np.copyto(acc, ct.slots, where=row)
        return self._derive(first, acc, scale=first.scale * self.initial_scale)

    def mul_ct(self, a: SlotVector, b: SlotVector) -> SlotVector:
        self._check_pair(a, b)
        if a.level < 1 or b.level < 1:
            raise LevelExhaustedError("mul_ct requires both operands at level >= 1")
        self._tally("mul_ct")
        slots = a.slots * b.slots
        if self.noise_mode == "gaussian":
            slots = slots + self._rng.normal(0.0, self.noise_sigma, self.slot_count)
        return self._derive(a, slots,
                            level=min(a.level, b.level),
                            scale=a.scale * b.scale)

    def rot(self, ct: SlotVector, k: int) -> SlotVector:
        """Cyclic left rotation: result slot i holds input slot (i + k) mod n."""
        self._check_context(ct)
        k = int(k) % self.slot_count
        self._tally("rotations")
        return self._derive(ct, np.concatenate((ct.slots[k:], ct.slots[:k])))

    def rescale(self, ct: SlotVector) -> SlotVector:
        self._check_context(ct)
        if ct.level < 1:
            raise LevelExhaustedError("rescale at level 0")
        self._tally("rescales")
        return self._derive(ct, _shared(ct.slots),
                            level=ct.level - 1,
                            scale=ct.scale / self.initial_scale)

    # ------------------------------------------------------------ collective

    def dbootstrap(self, ct: SlotVector, roster: Iterable[str]) -> SlotVector:
        """Collective refresh: level and scale reset, slots preserved."""
        self._check_context(ct)
        self._require_roster(ct.key_tag, roster, "dbootstrap")
        self._tally("bootstraps")
        return self._derive(ct, _shared(ct.slots),
                            level=self.initial_level, scale=self.initial_scale)

    def dkey_switch(self, ct: SlotVector, target_key_tag: str,
                    roster: Iterable[str]) -> SlotVector:
        """Re-key ``ct`` to ``target_key_tag`` without touching slot values."""
        self._check_context(ct)
        owners = self._key_owners.get(target_key_tag)
        if owners is None:
            raise KeyMismatchError(f"unknown target key {target_key_tag!r}")
        self._require_roster(ct.key_tag, roster, "dkey_switch")
        self._tally("keyswitches")
        return SlotVector(_shared(ct.slots), ct.level, ct.scale,
                          self.context_id, target_key_tag)

    # --------------------------------------------------------------- helpers

    def _derive(self, ct: SlotVector, slots: np.ndarray, level: int | None = None,
                scale: float | None = None) -> SlotVector:
        return SlotVector(
            _freeze(slots),
            ct.level if level is None else level,
            ct.scale if scale is None else scale,
            self.context_id,
            ct.key_tag,
        )

    def _check_context(self, obj) -> None:
        if obj.context_id != self.context_id:
            raise EngineError(
                f"value belongs to context {obj.context_id}, not {self.context_id}")

    def _check_pair(self, a: SlotVector, b: SlotVector) -> None:
        self._check_context(a)
        self._check_context(b)
        if a.key_tag != b.key_tag:
            raise KeyMismatchError(
                f"operands bound to different keys: {a.key_tag!r} vs {b.key_tag!r}")
        if a.slots.shape != b.slots.shape:
            raise CapacityError("operand slot counts differ")


def new_context(ring_dim: int, initial_level: int = 6,
                initial_scale: float = 2.0 ** 40, party_count: int = 1,
                noise_mode: str = "exact", **kwargs) -> CryptoContext:
    """Create a CryptoContext with a zeroed meter (see CryptoContext)."""
    return CryptoContext(ring_dim, initial_level, initial_scale, party_count,
                         noise_mode, **kwargs)
