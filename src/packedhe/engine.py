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
``OpCounter`` by one, except the three calls that fuse a chain and tally it:

* ``lin_trans`` runs a baby-step/giant-step transform described by a
  ``GatherPlan``: the baby rotations, then per giant step a masked sum of the
  baby terms (one ``mul_pt`` by a 0/1 plaintext per baby term, summed by
  ``add``) and one giant rotation, the giant terms summed by ``add``.  The
  plan composes that chain into one gather, built once, and derives the
  chain's tallies from the same description;
* ``shift_mul_sum`` runs the t column-shift stages of a packed product.  Per
  stage it meters the chain ``m = rescale(mul_pt(a0, mask))``, ``sub(a0,
  m)``, two rotations and an ``add`` for the shifted left factor, one
  rotation of ``b0`` and a ``mul_ct``; plus t - 1 ``adds`` for the sum;
* ``odd_poly_stage`` runs one stage of the composite sign approximation,
  ``m * (c_0 + c_1 u + ... + c_d u^d)`` with ``u = m*m``: the powers of
  ``u`` by ``mul_ct``, each times its coefficient plaintext by ``mul_pt``,
  the terms summed by ``add`` onto the trivially encrypted ``c_0``, and a
  last ``mul_ct`` by ``m``, every product rescaled.

The meter is the ground truth for all operation-count benchmarks.  Each fused
call makes every check of its chain before it tallies anything, and returns
the chain's bytes, level and scale.

The shifted left factor of stage k, ``add(rot(m, beta*k), rot(sub(a0, m),
beta*(k - h)))`` with ``m`` keeping the columns >= k of ``a0``, is slot for
slot the column window ``[beta*k, beta*k + beta*h)`` of each row of one
row-doubled image of ``a0``: ``a0[r] + (a0[r-1] - a0[r-1])`` beside ``0.0 +
(a0[r] - 0.0)``, operands in the chain's order and row -1 wrapping to row
h - 1.  ``shift_mul_sum`` builds that image once per call and multiplies
strided windows of it; it keeps the chain's operand order in every add, so
even the sign bits of NaN slots are the chain's.

A ``GatherPlan`` describes the 0/1 plaintexts of each giant step as one label
per slot: the baby term that the step keeps there, or -1 for none.  The masks
of one step are therefore disjoint by construction, and the plan refuses
giant steps whose images overlap.  Each output slot of the whole transform
then reads one input slot or none, so ``lin_trans`` is a single ``np.take``
and masked copy.

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
import weakref
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

# Byte budget of the one stage-product array of ``shift_mul_sum``, made once
# per call and reused by every block of stages.  Block size does not change
# the bytes.  Median exact-mode call at h = 64, t = 64 (2-vCPU VM): 0.68 ms
# at 128 KiB, 0.48-0.56 at 256 KiB, 0.45-0.56 at 512 KiB and 0.53 at 1 MiB;
# 256 KiB is the smallest budget within noise of the best.
_BLOCK_BYTES = 256 * 1024


class GatherPlan:
    """A baby-step/giant-step transform composed into one fixed gather.

    Describes the chain ``ct_j = rot(ct, baby[j])``, then per giant step
    ``(shift, labels)`` the term ``rot(sum_j mul_pt(ct_j, encode(labels ==
    j)), shift)``, the terms summed in order by ``add``.  A baby offset of
    ``None`` is ``ct`` itself and a shift of ``None`` no giant rotation; both
    cost no rotation.  ``labels`` is an int vector of ``slot_count`` entries:
    the baby index whose term the giant step keeps at that slot, or -1 for
    none.  The constructor raises ``EngineError`` for labels that are not
    ints and for giant steps whose images overlap, and ``CapacityError`` for
    labels of the wrong shape or outside ``[-1, len(baby))``.  Every output
    slot ``s`` then takes at most one input slot: ``idx[s]`` when
    ``selected[s]``, else +0.0.  Both arrays are read-only.

    ``tallies`` are the chain's: one rotation per rotated baby offset and
    giant shift, ``len(baby)`` mul_pt per giant step, and one add fewer than
    mul_pt.  ``plus_zero`` says the chain has giant-step adds, which turn
    every selected -0.0 into +0.0.
    """

    __slots__ = ("slot_count", "idx", "selected", "tallies", "plus_zero")

    def __init__(self, baby, giants, slot_count: int):
        baby, giants = list(baby), list(giants)
        if not baby or not giants:
            raise EngineError("a gather plan needs a baby and a giant step")
        n = slot_count
        labels = [np.asarray(step_labels) for _, step_labels in giants]
        for step_labels in labels:
            if not np.issubdtype(step_labels.dtype, np.integer):
                raise EngineError(
                    f"giant step labels must be ints, got {step_labels.dtype}")
            if step_labels.shape != (n,):
                raise CapacityError(f"giant step labels have shape "
                                    f"{step_labels.shape}, expected {(n,)}")
        table = np.stack(labels)
        if table.min() < -1 or table.max() >= len(baby):
            raise CapacityError(f"giant step labels must lie in [-1, {len(baby)})")
        step, u = np.nonzero(table >= 0)
        shifts = np.array([shift or 0 for shift, _ in giants], dtype=np.intp)
        offsets = np.array([b or 0 for b in baby], dtype=np.intp)
        out = (u - shifts[step]) % n
        selected = np.zeros(n, dtype=bool)
        selected[out] = True
        if np.count_nonzero(selected) != out.size:
            raise EngineError("giant step images overlap")
        idx = np.zeros(n, dtype=np.intp)
        idx[out] = (u + offsets[table[step, u]]) % n
        mul_pt = len(baby) * len(giants)
        rotations = (sum(b is not None for b in baby)
                     + sum(shift is not None for shift, _ in giants))
        _set_slot(self, "slot_count", n)
        _set_slot(self, "idx", _freeze(idx))
        _set_slot(self, "selected", _freeze(selected))
        _set_slot(self, "tallies", (("rotations", rotations),
                                    ("mul_pt", mul_pt), ("adds", mul_pt - 1)))
        _set_slot(self, "plus_zero", len(giants) > 1)

    def __setattr__(self, name, value):
        raise AttributeError(f"GatherPlan is immutable; cannot set {name!r}")


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
        _set_slot(self, "slots", slots)
        _set_slot(self, "level", level)
        _set_slot(self, "scale", _checked_scale(scale))
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


def _checked_scale(scale: float) -> float:
    if not 0 < scale < math.inf:
        raise EngineError("ciphertext scale must be finite and positive")
    return scale


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

# Every context enters itself here; an entry goes when its context is collected.
_live_contexts = weakref.WeakValueDictionary()


def context_of(context_id: str) -> CryptoContext:
    """The live context named ``context_id``; ``EngineError`` once it is gone."""
    ctx = _live_contexts.get(context_id)
    if ctx is None:
        raise EngineError(f"context {context_id} is not alive")
    return ctx


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
        _live_contexts[self.context_id] = self

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

    def lin_trans(self, ct: SlotVector, plan: GatherPlan) -> SlotVector:
        """The baby-step/giant-step chain ``plan`` describes, as one gather.

        Tallies the chain (``plan.tallies``) and returns its bytes, its level
        and its scale, ``ct.scale`` times the context scale of the 0/1 rows:
        each selected slot holds its input slot bit for bit, turned from
        -0.0 into +0.0 where the chain's giant-step adds would, and every
        other slot is +0.0, as in ``apply_permutation``.  The chain itself
        gives +-0.0 there, or NaN where a term holds inf or NaN.  Every check
        runs before the tally, so a rejected call meters nothing.
        """
        if not isinstance(plan, GatherPlan):
            raise EngineError(
                f"lin_trans takes a GatherPlan, got {type(plan).__name__}")
        self._check_context(ct)
        self.key_owners(ct.key_tag)
        if ct.slots.shape != (self.slot_count,) or plan.slot_count != self.slot_count:
            raise CapacityError(
                f"lin_trans needs {self.slot_count} slots, got a "
                f"{ct.slots.shape} ciphertext and a {plan.slot_count}-slot plan")
        if ct.level < 1:
            raise LevelExhaustedError("lin_trans requires level >= 1")
        for name, times in plan.tallies:
            self._tally(name, times)
        out = np.zeros(self.slot_count)
        np.copyto(out, ct.slots.take(plan.idx), where=plan.selected)
        if plan.plus_zero:
            out += 0.0
        return self._derive(ct, out, scale=ct.scale * self.initial_scale)

    def shift_mul_sum(self, a0: SlotVector, b0: SlotVector, h: int,
                      beta: int, t: int) -> SlotVector:
        """The ``t`` column-shift stages of a packed product, in one call.

        ``a0`` and ``b0`` hold ``beta`` interleaved ``h x h`` images that
        fill the ring exactly (``beta * h**2 == slot_count``), so a matrix
        row is ``w = beta * h`` slots.  With ``m_k = rescale(mul_pt(a0,
        encode(mask_k)))``, ``mask_k`` keeping columns >= k, stage k is
        ``mul_ct(add(rot(m_k, beta*k), rot(sub(a0, m_k), beta*(k - h))),
        rot(b0, w*k))``, and the stages are summed in order by ``add``: per
        stage one mul_pt, rescale, sub and mul_ct, three rotations and one
        add, plus ``t - 1`` adds for the sum.  The ``mul_pt`` is the masked
        copy of ``a0``: selected slots keep their value bit for bit and the
        rest are +0.0.  The result, its level, scale and tallies are the
        chain's.

        Stage k's shifted left factor is, slot for slot, the column window
        ``[beta*k, beta*k + w)`` of each row of the ``(h, 2w)`` row-doubled
        image ``D`` of ``a0``, with operands in the chain's order:
        ``D[r, :w] = a0[r] + (a0[r-1] - a0[r-1])`` (row -1 is row h - 1)
        and ``D[r, w:] = 0.0 + (a0[r] - 0.0)``.  So a block of stages is one
        multiply of strided views of ``D`` and of doubled ``b0``, then its
        noise rows (in gaussian mode, from the stream and in the order of
        the chain's ``mul_ct``) and an in-order sum whose operands, NaN
        payloads included, are added in the chain's order.  The blocks share
        one work array of at most ``_BLOCK_BYTES``.  Every check runs before
        the tally, so a rejected call meters nothing.
        """
        self._check_pair(a0, b0)
        if a0.level < 2 or b0.level < 1:
            raise LevelExhaustedError(
                "shift_mul_sum requires a0 at level >= 2 and b0 at level >= 1")
        n = self.slot_count
        if min(h, beta) < 1 or beta * h * h != n or a0.slots.shape != (n,):
            raise CapacityError(
                f"shift_mul_sum needs beta * h**2 == {n} slots; got beta "
                f"{beta}, h {h} and {a0.slots.shape} operands")
        if not 1 <= t <= h:
            raise CapacityError(f"stage count {t} outside [1, {h}]")
        masked_scale = a0.scale * self.initial_scale / self.initial_scale
        a_scale = max(a0.scale, masked_scale)
        for name, times in (("mul_pt", t), ("rescales", t), ("subs", t),
                            ("rotations", 3 * t), ("adds", 2 * t - 1),
                            ("mul_ct", t)):
            self._tally(name, times)

        w = beta * h
        a = a0.slots.reshape(h, w)
        d = np.empty((h, 2 * w))
        z = a - a
        np.add(a[1:], z[:-1], out=d[1:, :w])
        np.add(a[0], z[-1], out=d[0, :w])  # row -1 wraps to row h - 1
        np.add(0.0, a - 0.0, out=d[:, w:])
        b2 = np.concatenate((b0.slots, b0.slots))
        rows = max(1, min(t, _BLOCK_BYTES // (n * 8)))
        prod = np.empty((rows, n))
        acc = np.empty(n)
        for k in range(0, t, rows):
            r = min(rows, t - k)
            p = prod[:r]
            # Row q of a block is stage k + q.
            np.multiply(_windows(d, beta * k, beta, 2 * w, (r, h, w)),
                        _windows(b2, w * k, w, w, (r, h, w)),
                        out=p.reshape(r, h, w))
            if self.noise_mode == "gaussian":
                p += self._rng.normal(0.0, self.noise_sigma, (r, n))
            if k:
                np.add(acc, p[0], out=p[0])
            # Rows fold in order; -0.0 is the additive identity that keeps a
            # -0.0 sum as the chain's adds leave it (numpy starts from +0.0).
            np.add.reduce(p, axis=0, out=acc, initial=-0.0)
        return self._derive(a0, acc, level=min(a0.level - 1, b0.level),
                            scale=a_scale * b0.scale)

    def odd_poly_stage(self, m: SlotVector, coeffs: Sequence[Plaintext]) -> SlotVector:
        """One odd-polynomial stage ``m * sum_j c_j * (m*m)**j``, in one call.

        ``coeffs[j]`` holds ``c_j`` in every slot, for j = 0..d with d >= 1.
        The chain is ``p_1 = rescale(mul_ct(m, m))``, ``p_j =
        rescale(mul_ct(p_{j//2}, p_{j - j//2}))`` for j = 2..d, ``psum =
        constant(c_0)`` (``encrypt(coeffs[0])`` under ``m``'s key) plus each
        ``rescale(mul_pt(p_j, coeffs[j]))`` in order by ``add``, and last
        ``rescale(mul_ct(m, psum))``: d + 1 mul_ct, 2d + 1 rescales, d
        mul_pt and d adds.  ``m`` needs level ``3 + ceil(log2 d)``.

        The result's slots, level and scale are the chain's, the larger
        scale of every ``add`` included, and so is every operand order.  In
        gaussian mode the noise rows come from the stream in the chain's
        order: ``p_1``, ``p_2`` .. ``p_d``, the encryption of ``c_0``, then
        the last product.  Every check runs before the tally, so a rejected
        call meters nothing.
        """
        self._check_context(m)
        for pt in coeffs:
            self._check_context(pt)
        self.key_owners(m.key_tag)
        n, d = self.slot_count, len(coeffs) - 1
        if d < 1:
            raise EngineError("an odd-polynomial stage needs c_0 and c_1 at least")
        if m.slots.shape != (n,) or any(pt.slots.shape != (n,) for pt in coeffs):
            raise CapacityError(f"odd_poly_stage needs {n}-slot operands")

        def rescaled(level: int, scale: float) -> tuple:
            # (level, scale) of rescale(x) for a product x; checked like the
            # records that the chain would build.
            if level < 1:
                raise LevelExhaustedError(
                    f"a degree-{2 * d + 1} stage exhausts level {m.level}")
            return level - 1, _checked_scale(_checked_scale(scale)
                                             / self.initial_scale)

        powers = [None, rescaled(m.level, m.scale * m.scale)]
        for j in range(2, d + 1):
            (la, sa), (lb, sb) = powers[j // 2], powers[j - j // 2]
            powers.append(rescaled(min(la, lb), sa * sb))
        level, scale = self.initial_level, self.initial_scale
        for j in range(1, d + 1):
            lt, st = rescaled(powers[j][0], powers[j][1] * coeffs[j].scale)
            level, scale = min(level, lt), max(scale, st)
        level, scale = rescaled(min(m.level, level), m.scale * scale)
        for name, times in (("mul_ct", d + 1), ("rescales", 2 * d + 1),
                            ("mul_pt", d), ("adds", d)):
            self._tally(name, times)

        noise = (self._rng.normal(0.0, self.noise_sigma, (d + 2, n))
                 if self.noise_mode == "gaussian" else None)
        x = m.slots
        powers = [None]
        for j in range(1, d + 1):
            p = x * x if j == 1 else powers[j // 2] * powers[j - j // 2]
            if noise is not None:
                p += noise[j - 1]
            powers.append(p)
        c0 = coeffs[0].slots if noise is None else coeffs[0].slots + noise[d]
        psum = c0 + powers[1] * coeffs[1].slots
        for j in range(2, d + 1):
            psum += powers[j] * coeffs[j].slots
        out = x * psum
        if noise is not None:
            out += noise[d + 1]
        return self._derive(m, out, level=level, scale=scale)

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


def _windows(base: np.ndarray, start: int, step: int, row_stride: int,
             shape: tuple) -> np.ndarray:
    """``(count, rows, width)`` view of the contiguous ``base``: entry
    ``[q, i, j]`` is flat element ``start + q*step + i*row_stride + j``.

    ``np.ndarray`` refuses a view that would read past the end of ``base``.
    """
    item = base.itemsize
    return np.ndarray(shape, base.dtype, base, start * item,
                      (step * item, row_stride * item, item))


def new_context(ring_dim: int, initial_level: int = 6,
                initial_scale: float = 2.0 ** 40, party_count: int = 1,
                noise_mode: str = "exact", **kwargs) -> CryptoContext:
    """Create a CryptoContext with a zeroed meter (see CryptoContext)."""
    return CryptoContext(ring_dim, initial_level, initial_scale, party_count,
                         noise_mode, **kwargs)
