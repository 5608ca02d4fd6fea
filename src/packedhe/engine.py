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

Every op has one rule, ``CryptoContext._rule``: over the ``(level, scale)``
of its operands it makes the op's level and scale checks, gives its ``(level,
scale)`` out and books its meter row.  Each per-op method applies its rule
once.  Three calls fuse a chain of ops: ``lin_trans`` (the baby-step/giant-step
transform of a ``GatherPlan``), ``shift_mul_sum`` (the column-shift stages of a
packed product) and ``odd_poly_stage`` (one stage of the composite sign
approximation).  Each states its chain, given in its docstring, as rule
applications over metadata only (terms of a sum that share metadata as one
application times their count), then runs one slot kernel.

A chain's description depends only on metadata, so each context memoises
its ``(level, scale)`` out and meter rows (``_chain``), keyed by the call, its
counts (a plan's rotations and terms, or the stage count), each coefficient's
scale and each input's ``(level, scale)``; never by a plan object, which
callers may build afresh per call.  All checks run before anything is stored
or booked, so a rejected call stores and meters nothing.  The meter is the
ground truth for all operation-count benchmarks.

The shifted left factor of stage k, ``add(rot(m, beta*k), rot(sub(a0, m),
beta*(k - h)))`` with ``m`` keeping the columns >= k of ``a0``, is slot for
slot the column window ``[beta*k, beta*k + beta*h)`` of each row of one
row-doubled image of ``a0``: ``a0[r] + (a0[r-1] - a0[r-1])`` beside ``0.0 +
(a0[r] - 0.0)``, operands in the chain's order and row -1 wrapping to row
h - 1.  ``shift_mul_sum`` builds that image once per call.  It runs the
stages in chunks of at most 16: a chunk copies the image's rows into rows
padded by ``beta`` slots per further stage, beside doubled ``b0`` in rows of
the same stride, so that every stage's factors are contiguous runs and the
chunk is one multiply and one reduce over long rows.  The arrays are work
arrays of the calling thread, kept on the context per shape and never handed
out.  The kernel keeps the chain's operand order in every add, so even the
sign bits of NaN slots are the chain's.

``odd_poly_stage`` evaluates ``m * sum_j c_j * u**j`` with ``u = m*m`` as
``m * (A(u) + u**k * B(u))``, ``k = ceil(d/2)``: A holds c_0 .. c_(k-1) and
B holds c_k .. c_d, so only the powers up to ``u**k`` are products of
ciphertexts (Paterson-Stockmeyer).  A stage takes k + 2 ciphertext products
(2 at d = 1, where B would be a constant and ``u * c_1`` a plaintext
product) and ``4 + ceil(log2(d//2))`` levels (3 at d = 1).  In gaussian mode
its noise rows come from the stream in the chain's order: the powers of
``u``, the encryptions of c_0 and c_k, the product ``u**k * B``, then the
final product.

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
from functools import partial
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


@dataclass(frozen=True, eq=False)
class Plaintext:
    """Encoded (packed) plaintext vector at a fixed scale."""

    slots: np.ndarray
    scale: float
    context_id: str


_set_slot = object.__setattr__

# Most stages of ``shift_mul_sum`` in one chunk: one multiply and one reduce.
# A chunk of R stages reads its windows out of rows padded by ``beta*(R -
# 1)`` slots, so a larger R pads more and a smaller one makes more calls; at
# h = 32 and h = 64, 16 is the fastest of 8, 11, 16, 22 and 32.
_CHUNK = 16

_PAGE = 4096

_SCALE_RTOL = 1e-9  # see CryptoContext._rule


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

    ``rotations`` counts the rotated baby offsets and giant shifts, and
    ``terms`` the chain's ``mul_pt``: ``len(baby)`` per giant step.
    ``plus_zero`` says the chain has giant-step adds, which turn every
    selected -0.0 into +0.0.
    """

    __slots__ = ("slot_count", "idx", "selected", "rotations", "terms",
                 "plus_zero")

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
        _set_slot(self, "slot_count", n)
        _set_slot(self, "idx", _freeze(idx))
        _set_slot(self, "selected", _freeze(selected))
        _set_slot(self, "rotations", sum(b is not None for b in baby)
                  + sum(shift is not None for shift, _ in giants))
        _set_slot(self, "terms", len(baby) * len(giants))
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


class _ThreadState(threading.local):
    """Per-thread state of a context; every thread starts empty: its stack
    of open meter scopes, and the work arrays of ``shift_mul_sum`` by shape."""

    def __init__(self):
        self.stack = []
        self.work = {}


def _page_aligned(count: int) -> np.ndarray:
    """``count`` float64 zeros whose first byte starts a page."""
    raw = np.zeros(count * 8 + _PAGE, np.uint8)
    skip = -raw.ctypes.data % _PAGE
    return raw[skip:skip + count * 8].view(np.float64)


class _StageWork:
    """One thread's work arrays of ``shift_mul_sum`` for chunks of ``chunk``
    stages at one shape, each page-aligned and made zero once.

    ``stride`` is the padded row stride: ``w + beta*(chunk - 1)`` with ``w =
    beta*h``, rounded up so that a block row of ``h*stride`` slots is a
    multiple of 16.  numpy's vector loops then cover every slot: its scalar
    tail, which returns the second operand's NaN where both are NaN, runs on
    none.  ``d`` is the row-doubled image, ``stride`` columns wider than its
    ``2w`` so that every chunk's rows fit in it; ``bp`` is doubled ``b0``,
    rows of ``stride``; ``f`` holds one chunk's ``h`` left rows (``window``)
    and a tail of ``beta*(chunk - 1)`` slots.  The kernel writes only columns
    < 2w of ``d``, < w of ``bp`` and the rows of ``f``, so the rest stays
    0.0.  Row q of ``left`` is the left factor of a chunk's stage q, and row
    k of ``right`` the right factor of stage k.
    """

    def __init__(self, h: int, beta: int, chunk: int):
        w, pad = beta * h, beta * (chunk - 1)
        unit = 16 // math.gcd(h, 16)
        self.stride = s = -(-(w + pad) // unit) * unit
        self.d = _page_aligned(h * (2 * w + s)).reshape(h, 2 * w + s)
        bp = _page_aligned(2 * h * s)
        self.bp = bp.reshape(2, h, s)
        f = _page_aligned(h * s + pad)
        self.window = f[:h * s].reshape(h, s)
        self.left = np.ndarray((chunk, h * s), f.dtype, f, 0, (beta * 8, 8))
        self.right = np.ndarray((h, h * s), bp.dtype, bp, 0, (s * 8, 8))
        self.block = _page_aligned(chunk * h * s).reshape(chunk, h * s)
        self.acc = _page_aligned(h * s)


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
        self._thread = _ThreadState()
        self._chains: dict = {}  # chain memo, see the module docstring

        self.parties = tuple(f"party-{i}" for i in range(party_count))
        self._key_owners: dict[str, tuple] = {}
        self.register_key(self.DEFAULT_KEY, self.parties)
        self.register_key(self.SERVER_KEY, ("server",))

    # ------------------------------------------------------------------ keys

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

    def _rule(self, op: str, x: tuple, y: tuple | None = None, times: int = 1,
              rows: list | None = None) -> tuple:
        """``(level, scale)`` out of ``times`` ops ``op`` (a meter field) on
        ``(level, scale)`` operands ``x``, ``y`` (a plaintext at level inf);
        checks them, then books the row ``(op, x, y, times)`` or appends it
        to a chain's ``rows``.  One scale per add, as in CKKS: ``adds`` and
        ``subs`` raise ``EngineError`` when the scales differ by more than a
        relative ``_SCALE_RTOL``, else give the smaller level at ``x``'s scale."""
        level, scale = x  # conditional expressions: min and max are slower
        if op == "rotations" or op == "keyswitches":
            out = x
        elif op == "adds" or op == "subs":
            if y[1] != scale and not math.isclose(y[1], scale, rel_tol=_SCALE_RTOL):
                raise EngineError(f"{op} operands at scales {scale!r} and "
                                  f"{y[1]!r}; rescale one first")
            out = (y[0] if y[0] < level else level, scale)
        elif op == "bootstraps":
            out = self.initial_level, self.initial_scale
        elif level < 1 or y is not None and y[0] < 1:
            raise LevelExhaustedError(f"{op} requires operands at level >= 1")
        elif op == "rescales":
            out = level - 1, _checked_scale(scale / self.initial_scale)
        else:  # mul_pt and mul_ct
            out = y[0] if y[0] < level else level, _checked_scale(scale * y[1])
        if rows is None:
            self._book(((op, x, y, times),))
        else:
            rows.append((op, x, y, times))
        return out

    def _chain(self, key: tuple, describe) -> tuple:
        """``(level, scale)`` out of the chain ``describe(chain)`` states by
        ``_rule``, booked; memoised under ``key``, which names its inputs."""
        hit = self._chains.get(key)
        if hit is None:
            rows = []
            out = describe(partial(self._rule, rows=rows))
            hit = self._chains[key] = out, tuple(rows)
        self._book(hit[1])
        return hit[0]

    def _book(self, rows) -> None:
        """Tally each row ``(field, x, y, times)`` on the meter and open scopes."""
        with self._meter_lock:
            for counter in (self.meter, *self._thread.stack):
                for name, _, _, times in rows:
                    setattr(counter, name, getattr(counter, name) + times)

    def book_tallies(self, counts: dict) -> None:
        """Add ``{meter field: count}`` tallies, counted on a copy of this
        context in another process, to the meter and this thread's scopes."""
        self._book([(name, None, None, times) for name, times in counts.items()])

    @contextmanager
    def meter_scope(self):
        """Private counter covering the ops issued by this thread inside the scope.

        Nested and concurrent scopes each see their own tallies; enclosing
        scopes (and the context-wide meter) accumulate the same events, so a
        scope's counts are already merged outward when it closes.
        """
        counter = OpCounter()
        stack = self._thread.stack
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
        out = self._rule("adds", (a.level, a.scale), (b.level, b.scale))
        return self._derive(a, a.slots + b.slots, out)

    def sub(self, a: SlotVector, b: SlotVector) -> SlotVector:
        self._check_pair(a, b)
        out = self._rule("subs", (a.level, a.scale), (b.level, b.scale))
        return self._derive(a, a.slots - b.slots, out)

    def mul_pt(self, ct: SlotVector, pt: Plaintext) -> SlotVector:
        self._check_context(ct)
        self._check_context(pt)
        out = self._rule("mul_pt", (ct.level, ct.scale), (math.inf, pt.scale))
        return self._derive(ct, ct.slots * pt.slots, out)

    def lin_trans(self, ct: SlotVector, plan: GatherPlan) -> SlotVector:
        """The baby-step/giant-step chain ``plan`` describes, as one gather.

        Meters the chain and returns its bytes, its level and its scale,
        ``ct.scale`` times the context scale of the 0/1 rows: each selected
        slot holds its input slot bit for bit, turned from -0.0 into +0.0
        where the chain's giant-step adds would, and every other slot is
        +0.0, as in ``apply_permutation``.  The chain itself gives +-0.0
        there, or NaN where a term holds inf or NaN.
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
        x = (ct.level, ct.scale)

        def describe(chain):
            chain("rotations", x, times=plan.rotations)
            term = chain("mul_pt", x, (math.inf, self.initial_scale), times=plan.terms)
            return chain("adds", term, term, times=plan.terms - 1)
        meta = self._chain(("lin_trans", plan.rotations, plan.terms, x), describe)
        out = np.zeros(self.slot_count)
        np.copyto(out, ct.slots.take(plan.idx), where=plan.selected)
        if plan.plus_zero:
            out += 0.0
        return self._derive(ct, out, meta)

    def shift_mul_sum(self, a0: SlotVector, b0: SlotVector, h: int,
                      beta: int, t: int) -> SlotVector:
        """The ``t`` column-shift stages of a packed product, in one call.

        ``a0`` and ``b0`` hold ``beta`` interleaved ``h x h`` images that
        fill the ring exactly (``beta * h**2 == slot_count``), so a matrix
        row is ``w = beta * h`` slots.  With ``m_k = rescale(mul_pt(a0,
        encode(mask_k)))``, ``mask_k`` keeping columns >= k, stage k is
        ``mul_ct(add(rot(m_k, beta*k), rot(sub(a0, m_k), beta*(k - h))),
        rot(b0, w*k))``, and the stages are summed in order by ``add``.  The
        ``mul_pt`` is the masked copy of ``a0``: selected slots keep their
        value bit for bit and the rest are +0.0.  The result, its level,
        scale and tallies are the chain's.

        Stage k's shifted left factor is, slot for slot, the column window
        ``[beta*k, beta*k + w)`` of each row of the ``(h, 2w)`` row-doubled
        image ``D`` of ``a0``, with operands in the chain's order:
        ``D[r, :w] = a0[r] + (a0[r-1] - a0[r-1])`` (row -1 is row h - 1)
        and ``D[r, w:] = 0.0 + (a0[r] - 0.0)``.  The stages run in chunks of
        R = ``min(t, _CHUNK)`` or fewer.  For the chunk from stage k0, rows
        padded to a stride of ``w + beta*(R - 1)`` slots (rounded up, see
        ``_StageWork``) hold ``D``'s columns from ``beta*k0`` on, and rows of
        the same stride hold ``b0`` twice, zero past column w.  Each stage's left and right
        factors are then one contiguous run of ``h`` such rows, starting
        ``beta`` slots and one row later per stage.  So a chunk is one
        multiply of two row views into one block, then its noise (in
        gaussian mode, from the stream and in the order of the chain's
        ``mul_ct``) on the unpadded slots, and an in-order sum whose
        operands, NaN payloads included, are added in the chain's order.
        The padded slots are computed and dropped.  All these arrays are
        the calling thread's own, kept per shape and chunk on the context;
        the result is a fresh copy.
        """
        self._check_pair(a0, b0)
        n = self.slot_count
        if min(h, beta) < 1 or beta * h * h != n or a0.slots.shape != (n,):
            raise CapacityError(
                f"shift_mul_sum needs beta * h**2 == {n} slots; got beta "
                f"{beta}, h {h} and {a0.slots.shape} operands")
        if not 1 <= t <= h:
            raise CapacityError(f"stage count {t} outside [1, {h}]")
        a, b = (a0.level, a0.scale), (b0.level, b0.scale)

        def describe(chain):
            masked = chain("mul_pt", a, (math.inf, self.initial_scale), times=t)
            m = chain("rescales", masked, times=t)
            rest = chain("subs", a, m, times=t)
            chain("rotations", m, times=t)
            chain("rotations", rest, times=t)
            left = chain("adds", m, rest, times=t)
            chain("rotations", b, times=t)
            prod = chain("mul_ct", left, b, times=t)
            return chain("adds", prod, prod, times=t - 1)
        meta = self._chain(("shift_mul_sum", t, a, b), describe)

        w = beta * h
        chunk = min(t, _CHUNK)
        work = self._thread.work.get((h, beta, chunk))
        if work is None:
            work = self._thread.work[h, beta, chunk] = _StageWork(h, beta, chunk)
        d, acc = work.d, work.acc
        a = a0.slots.reshape(h, w)
        z = a - a
        np.add(a[1:], z[:-1], out=d[1:, :w])
        np.add(a[0], z[-1], out=d[0, :w])  # row -1 wraps to row h - 1
        np.add(0.0, a - 0.0, out=d[:, w:2 * w])
        work.bp[:, :, :w] = b0.slots.reshape(h, w)
        for k in range(0, t, chunk):
            r = min(chunk, t - k)
            p = work.block[:r]
            np.copyto(work.window, d[:, beta * k:beta * k + work.stride])
            # Row q of the block is stage k + q.
            np.multiply(work.left[:r], work.right[k:k + r], out=p)
            if self.noise_mode == "gaussian":
                p.reshape(r, h, -1)[:, :, :w] += self._rng.normal(
                    0.0, self.noise_sigma, (r, h, w))
            if k:
                np.add(acc, p[0], out=p[0])
            # Rows fold in order; -0.0 is the additive identity that keeps a
            # -0.0 sum as the chain's adds leave it (numpy starts from +0.0).
            np.add.reduce(p, axis=0, out=acc, initial=-0.0)
        return self._derive(a0, acc.reshape(h, -1)[:, :w].flatten(), meta)

    def odd_poly_stage(self, m: SlotVector, coeffs: Sequence[Plaintext]) -> SlotVector:
        """One odd-polynomial stage ``m * sum_j c_j * (m*m)**j``, in one call.

        ``coeffs[j]`` holds ``c_j`` in every slot, for j = 0..d with d >= 1.
        With ``u = m*m`` and ``k = ceil(d/2)`` the sum is split as ``A(u) +
        u**k * B(u)`` (Paterson-Stockmeyer).  The chain is ``u**1 =
        rescale(mul_ct(m, m))``, ``u**j = rescale(mul_ct(u**(j//2), u**(j -
        j//2)))`` for j = 2..k, ``A = constant(c_0)`` (``encrypt(coeffs[0])``
        under ``m``'s key) plus each ``rescale(mul_pt(u**j, coeffs[j]))``
        for j = 1..k-1 in order by ``add``, ``B = constant(c_k)`` plus each
        ``rescale(mul_pt(u**j, coeffs[k + j]))`` for j = 1..d-k likewise,
        ``psum = add(A, rescale(mul_ct(u**k, B)))`` and last
        ``rescale(mul_ct(m, psum))``: k + 2 mul_ct, d - 1 mul_pt, d + k + 1
        rescales and d adds.  At d = 1, where B would be the constant c_1
        alone, ``psum = add(constant(c_0), rescale(mul_pt(u, coeffs[1])))``:
        2 mul_ct, 1 mul_pt, 3 rescales and 1 add.  ``m`` needs level 3 at
        d = 1 and ``4 + ceil(log2(d//2))`` above: 3, 4, 4, 5, 5, 6, 6, 6 for
        d = 1..8.

        The result's slots, level and scale are the chain's, and so is every
        operand order.  The chain adds terms to the encryptions of c_0 and
        c_k, so it refuses ``m`` or coefficients off the context scale.  In
        gaussian mode the noise rows come from the stream in the chain's
        order: ``u**1`` .. ``u**k``, the encryption of ``c_0``, then (d > 1)
        the encryption of ``c_k`` and the product ``u**k * B``, and last the
        final product.
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
        m_meta = (m.level, m.scale)
        k = (d + 1) // 2

        def describe(chain):
            powers = [None, chain("rescales", chain("mul_ct", m_meta, m_meta))]
            for j in range(2, k + 1):
                powers.append(chain("rescales", chain(
                    "mul_ct", powers[j // 2], powers[j - j // 2])))

            def series(first, last):  # c_first + sum_j u**j * c_(first+j)
                acc = (self.initial_level, self.initial_scale)  # encrypt
                for j in range(1, last - first + 1):
                    term = chain("mul_pt", powers[j],
                                 (math.inf, coeffs[first + j].scale))
                    acc = chain("adds", acc, chain("rescales", term))
                return acc
            if d == 1:
                psum = series(0, 1)
            else:
                a = series(0, k - 1)
                top = chain("mul_ct", powers[k], series(k, d))
                psum = chain("adds", a, chain("rescales", top))
            return chain("rescales", chain("mul_ct", m_meta, psum))
        meta = self._chain(("odd_poly_stage", m_meta,
                            *[pt.scale for pt in coeffs]), describe)

        rows = k + 2 if d == 1 else k + 4
        noise = (iter(self._rng.normal(0.0, self.noise_sigma, (rows, n)))
                 if self.noise_mode == "gaussian" else None)
        x = m.slots
        powers = [None]
        for j in range(1, k + 1):
            p = x * x if j == 1 else powers[j // 2] * powers[j - j // 2]
            if noise is not None:
                p += next(noise)
            powers.append(p)

        def series(first, last):
            acc = coeffs[first].slots
            if noise is not None:
                acc = acc + next(noise)
            for j in range(1, last - first + 1):
                acc = acc + powers[j] * coeffs[first + j].slots
            return acc
        if d == 1:
            psum = series(0, 1)
        else:
            psum = series(0, k - 1)
            top = powers[k] * series(k, d)
            if noise is not None:
                top += next(noise)
            psum = psum + top
        out = x * psum
        if noise is not None:
            out += next(noise)
        return self._derive(m, out, meta)

    def mul_ct(self, a: SlotVector, b: SlotVector) -> SlotVector:
        self._check_pair(a, b)
        out = self._rule("mul_ct", (a.level, a.scale), (b.level, b.scale))
        slots = a.slots * b.slots
        if self.noise_mode == "gaussian":
            slots = slots + self._rng.normal(0.0, self.noise_sigma, self.slot_count)
        return self._derive(a, slots, out)

    def rot(self, ct: SlotVector, k: int) -> SlotVector:
        """Cyclic left rotation: result slot i holds input slot (i + k) mod n."""
        self._check_context(ct)
        k = int(k) % self.slot_count
        out = self._rule("rotations", (ct.level, ct.scale))
        return self._derive(ct, np.concatenate((ct.slots[k:], ct.slots[:k])), out)

    def rescale(self, ct: SlotVector) -> SlotVector:
        self._check_context(ct)
        out = self._rule("rescales", (ct.level, ct.scale))
        return self._derive(ct, _shared(ct.slots), out)

    # ------------------------------------------------------------ collective

    def dbootstrap(self, ct: SlotVector, roster: Iterable[str]) -> SlotVector:
        """Collective refresh: level and scale reset, slots preserved."""
        self._check_context(ct)
        self._require_roster(ct.key_tag, roster, "dbootstrap")
        out = self._rule("bootstraps", (ct.level, ct.scale))
        return self._derive(ct, _shared(ct.slots), out)

    def dkey_switch(self, ct: SlotVector, target_key_tag: str,
                    roster: Iterable[str]) -> SlotVector:
        """Re-key ``ct`` to ``target_key_tag`` without touching slot values."""
        self._check_context(ct)
        owners = self._key_owners.get(target_key_tag)
        if owners is None:
            raise KeyMismatchError(f"unknown target key {target_key_tag!r}")
        self._require_roster(ct.key_tag, roster, "dkey_switch")
        meta = self._rule("keyswitches", (ct.level, ct.scale))
        return SlotVector(_shared(ct.slots), *meta, self.context_id, target_key_tag)

    # --------------------------------------------------------------- helpers

    def _derive(self, ct: SlotVector, slots: np.ndarray, meta: tuple) -> SlotVector:
        return SlotVector(_freeze(slots), *meta, self.context_id, ct.key_tag)

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
