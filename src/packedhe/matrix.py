"""Packed-matrix algebra over slot-engine ciphertexts.

An h x h matrix is flattened row-major into h*h consecutive slots (entry (i,j)
at slot h*i+j); beta matrices can be interleaved at stride beta (entry (i,j) of
matrix k at slot beta*(h*i+j)+k).  Matrix products, transposes and rectangular
products are then compositions of masked rotations: a linear map U applied to
a packed vector m is

    U . m  =  sum_k  u_k  (.)  R(m, k)

where u_k is the k-th generalized diagonal of U and R is cyclic slot rotation.
The maps needed for multiplication are sparse in the diagonal basis, which is
what brings the rotation count of a full matrix product down to 3h + 5*sqrt(h)
instead of the O(h^2)..O(h^3) of generic approaches.

Row-aligning maps wrap around the h^2-slot window, so the product routines
require the matrix image to fill the ciphertext exactly (slot_count ==
beta * h^2).  Maps that never read across the window edge (row-diagonal
alignment, column shifts, transpose) work with any capacity.

A permutation is stored as one offset per window slot: the signed rotation
offset of the diagonal that selects the slot, taken from the map's index
map (``build_permutation``).  Its diagonals are the slots sharing an
offset, so they are disjoint by construction.  ``he_lin_trans_bsgs`` is the
one evaluator: it takes the baby-step/giant-step plan for the alignment and
transpose kinds, and one rotation per diagonal for the two shifts.  Each
plan is one gather per geometry.  Its description is the chain it stands
for: the baby rotation offsets, and per giant step a shift and a label
vector that names, for each slot, the baby rotation whose term keeps it
(or -1), slot-expanded and pre-rolled against that shift.  Both plans read
those labels off the offsets.  The images of the giant steps are disjoint
too, so ``engine.GatherPlan`` composes the whole chain into one map from
output to input slot and derives the chain's tallies from the same
description.
``ctx.lin_trans`` then meters that chain and computes one gather.  A
permutation's plans live on its spec, keyed by evaluation form, beta and
slot_count; ``build_permutation`` shares one spec per (kind, h, k).  The
plans hold no context, so a plan serves every context of its geometry.
Matrix ops find the context of a ciphertext by its ``context_id`` among the
live contexts (``engine.context_of``).

Two products share one product core, ``_product``, which reads the stage
count, the fold and the result's shape off its operands.  ``he_mat_mult``
takes a square left factor: by a square right factor it runs h stages; by a
stacked t x h one B, given the square image of A's transposed stack, it
gives ``A.T @ B`` in t stages.  ``he_rect_mat_mult`` takes a square right
factor: a stacked t x h left factor runs t stages and a fold.  The core
aligns the left factor by sigma_mu and the right one by tau_zeta, one level
each, but only an operand whose ``form`` does not name that alignment yet:
an owner can encrypt its image in form by one plaintext gather, ``he_align``
aligns a ciphertext once for many products, and ``he_refresh`` aligns one
inside a collective refresh, where each party permutes its own mask by that
gather: no rotation and no level.  ``he_transpose`` keeps the plain,
sigma_mu or tau_zeta form, of a square or stacked image, so ``A.T @ B`` is
``he_mat_mult(he_transpose(a), b)``.  A stacked t x h image repeats its rows
with period t, so its tau_zeta reads them with that period: t diagonals
instead of h, the same values.  Stage k shifts the aligned left factor a0 by
k columns: the masked term ``m_k`` (one ``mul_pt`` keeping columns >= k)
goes one way and ``a0 - m_k`` the other way round the row boundary.  ``m_k``
is rescaled before the subtraction, so every add and sub in a product sees
its operands at one scale, as CKKS requires.  All t stages are one engine
call, ``ctx.shift_mul_sum(a0, b0, h, beta, t)``, which meters each stage as
that chain and returns its bytes.  It needs no mask table: stage k's shifted
left factor is a column window of one row-doubled image of a0, so a block of
stages is a single strided multiply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, wraps

import numpy as np

from .engine import (CapacityError, CryptoContext, EngineError, GatherPlan,
                     LevelExhaustedError, SlotVector, context_of)

PERMUTATION_KINDS = ("sigma_mu", "tau_zeta", "col_shift", "row_shift",
                     "transpose", "tau_transpose", "sigma_transpose")

# Kinds whose diagonal decomposition reads across the h^2 window edge and
# therefore needs the packed image to wrap exactly at the slot boundary.
_WRAPPING_KINDS = ("tau_zeta", "row_shift", "tau_transpose", "sigma_transpose")

# Kinds evaluated baby-step/giant-step; the shift kinds take a rotation per
# diagonal.
_BSGS_KINDS = ("sigma_mu", "tau_zeta", "transpose", "tau_transpose",
               "sigma_transpose")

# The alignment an image can already carry: none, or a product's left
# (sigma_mu) or right (tau_zeta) alignment.
FORMS = (None, "sigma_mu", "tau_zeta")

# The transpose that takes each form of X to that form of X.T.
_TRANSPOSES = {None: "transpose", "sigma_mu": "sigma_transpose",
               "tau_zeta": "tau_transpose"}

# Multiplicative levels one packed product consumes: the sigma/tau alignment,
# the masked shift stages and the stage products, one rescale each.
PRODUCT_DEPTH = 3


@dataclass(frozen=True, eq=False)
class PermutationSpec:
    """Diagonal decomposition of one matrix permutation.

    ``offsets`` holds, for each slot of the h*h window, the signed rotation
    offset of the one diagonal that selects it: output slot t reads input
    slot t + offsets[t].  The constructor stores a read-only copy and raises
    ``EngineError`` for offsets that are not ints or not one per window slot.
    ``tables`` holds the gather plans and the form index built from them,
    so they live exactly as long as the spec.  Specs compare and hash by identity.
    """

    kind: str
    dim_h: int
    shift: int | None
    offsets: np.ndarray
    tables: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        offsets = np.array(self.offsets)
        if not np.issubdtype(offsets.dtype, np.integer):
            raise EngineError(f"diagonal offsets must be ints, got {offsets.dtype}")
        n = self.dim_h * self.dim_h
        if offsets.shape != (n,):
            raise EngineError(f"diagonal offsets have shape {offsets.shape}, "
                              f"expected {(n,)}")
        offsets.setflags(write=False)
        object.__setattr__(self, "offsets", offsets)

    @property
    def wraps_window(self) -> bool:
        return self.kind in _WRAPPING_KINDS

    @property
    def diagonals(self) -> dict:
        """Each offset in use mapped to its bool mask over the window."""
        return {int(o): self.offsets == o for o in np.unique(self.offsets)}


@lru_cache(maxsize=None)
def build_permutation(kind: str, h: int, k: int | None = None) -> PermutationSpec:
    """Build the diagonal offsets of one of the seven packed-matrix permutations.

    ``sigma_mu`` aligns each row of the left factor on its own diagonal
    (2h-1 nonzero diagonals), ``tau_zeta`` does the column analogue for the
    right factor (h diagonals), and ``tau_zeta`` with k = t, a divisor of h,
    does it for an image whose rows repeat with period t: it reads row
    i + (j mod t) where the plain one reads row i + j, the same value, so
    its offsets are h*s mod h*h for s < t (t diagonals).
    ``col_shift(k)``/``row_shift(k)`` are cyclic intra-row / block-row
    shifts (2 resp. 1 diagonals), ``transpose`` realizes the transpose map
    (2h-1 diagonals), ``tau_transpose`` turns
    tau_zeta(W) into tau_zeta(W.T): output entry (i, j) reads input entry
    (-i, i + j), mod h, which gives the offsets (h-1)**2 * m mod h*h for
    -h < m < h (2h-1 diagonals), and ``sigma_transpose`` turns sigma_mu(X)
    into sigma_mu(X.T): output entry (i, j) reads input entry (i + j, -j),
    mod h, which gives the offset 0 on column 0 and h + (h-2)*j on column
    j > 0 (h diagonals).  Where output entry (i, j) reads input entry
    (src_i, src_j), its offset is h*(src_i - i) + (src_j - j), taken mod h*h
    for the four kinds that wrap the window.
    """
    if kind not in PERMUTATION_KINDS:
        raise ValueError(f"unknown permutation kind {kind!r}")
    if h < 2:
        raise ValueError(f"matrix side must be >= 2, got {h}")
    if kind in ("col_shift", "row_shift"):
        if k is None or not 1 <= k < h:
            raise ValueError(f"{kind} requires a shift 1 <= k < h, got {k}")
    elif kind == "tau_zeta":
        if k is not None and not (1 <= k <= h and h % k == 0):
            raise ValueError(f"tau_zeta takes a row period t dividing h, "
                             f"got {k}")
    elif k is not None:
        raise ValueError(f"{kind} takes no shift parameter")

    i, j = np.divmod(np.arange(h * h), h)
    if kind == "sigma_mu":
        src_i, src_j = i, (i + j) % h
    elif kind == "tau_zeta":
        src_i, src_j = (i + j % (k or h)) % h, j
    elif kind == "col_shift":
        src_i, src_j = i, (j + k) % h
    elif kind == "row_shift":
        src_i, src_j = (i + k) % h, j
    elif kind == "tau_transpose":
        src_i, src_j = -i % h, (i + j) % h
    elif kind == "sigma_transpose":
        src_i, src_j = (i + j) % h, -j % h
    else:
        src_i, src_j = j, i
    offsets = h * (src_i - i) + (src_j - j)
    if kind in _WRAPPING_KINDS:
        offsets %= h * h
    return PermutationSpec(kind, h, k, offsets)


def apply_permutation(spec: PermutationSpec, vec) -> np.ndarray:
    """Plain-level reference: evaluate the masked-rotation sum on a window.

    Operates on the bare h*h window with cyclic index arithmetic, independent
    of any ciphertext ring, so it serves as the oracle for the homomorphic
    paths and runs symbolic cases at any h, power of two or not.  Encoding
    into a form takes the same map as one gather (``_form_index``).
    """
    arr = np.asarray(vec, dtype=np.float64).ravel()
    n = spec.dim_h * spec.dim_h
    if arr.size != n:
        raise ValueError(f"expected a {n}-slot window, got {arr.size}")
    out = np.zeros(n)
    for offset, mask in spec.diagonals.items():
        out += mask * np.roll(arr, -offset)
    return out


# --------------------------------------------------------------------- types


@dataclass(frozen=True)
class PackedMatrix:
    """A ciphertext holding beta row-major h x h matrix images.

    ``rows_t`` is the logical row count: h for square payloads, or t (with
    t | h) when the image holds h/t stacked copies of a t x h matrix, not
    batched.  ``form`` names the permutation the images already carry: None
    for the plain image of A, ``"sigma_mu"`` or ``"tau_zeta"`` for that
    alignment of A.  A product aligns only an operand that does not carry
    its form yet, so a formed operand needs one level less
    (``product_depth``); a left factor in tau_zeta form or a right factor
    in sigma_mu form is refused.  Products return the plain form;
    ``he_transpose`` keeps any form.  An unknown form, a ``rows_t`` that
    does not divide h, or a batched stacked image raises ``CapacityError``.
    """

    ct: SlotVector
    dim_h: int
    rows_t: int
    batch_beta: int = 1
    form: str | None = None

    def __post_init__(self):
        _check_form(self.form)
        if self.rows_t < 1 or self.dim_h % self.rows_t:
            raise CapacityError(f"logical row count {self.rows_t} must "
                                f"divide the side {self.dim_h}")
        if self.rows_t < self.dim_h and self.batch_beta != 1:
            raise CapacityError("rectangular products are not batched")

    @property
    def window(self) -> int:
        return self.batch_beta * self.dim_h * self.dim_h

    @property
    def product_depth(self) -> int:
        """Levels a product core takes of this operand: ``PRODUCT_DEPTH``,
        less the alignment's one level when the image carries its form."""
        return PRODUCT_DEPTH - (self.form is not None)


def _check_form(form) -> None:
    if form not in FORMS:
        raise CapacityError(f"unknown form {form!r}; expected one of {FORMS}")


def _validate_dims(ctx: CryptoContext, h: int, beta: int) -> None:
    if h < 2:
        raise CapacityError(f"matrix side must be >= 2, got {h}")
    if beta < 1:
        raise CapacityError(f"batch size must be >= 1, got {beta}")
    if beta * h * h > ctx.slot_count:
        raise CapacityError(
            f"{beta} matrix images of side {h} need {beta * h * h} slots; "
            f"context offers {ctx.slot_count}")


def _form_index(form: str, h: int) -> np.ndarray:
    """Slot t of the ``form`` image of an h x h window holds slot
    ``index[t]`` of the plain one."""
    return _gather(build_permutation(form, h), 1, h * h)


def _encrypt_image(ctx: CryptoContext, image: np.ndarray, rows_t: int,
                   form: str | None) -> PackedMatrix:
    """Encrypt the h x h ``image`` in ``form``, permuted by one gather."""
    h = image.shape[0]
    flat = image.ravel()
    _check_form(form)
    if form is not None:
        flat = flat[_form_index(form, h)]
    return PackedMatrix(ctx.encrypt(ctx.encode(flat)), h, rows_t, 1, form)


def encode_matrix(values, ctx: CryptoContext,
                  form: str | None = None) -> PackedMatrix:
    """Encrypt one square matrix, in ``form`` (see ``PackedMatrix``);
    ``pack_matrices`` interleaves several."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise CapacityError(f"expected a square matrix, got shape {arr.shape}")
    h = arr.shape[0]
    _validate_dims(ctx, h, 1)
    return _encrypt_image(ctx, arr, h, form)


def pack_matrices(matrices, ctx: CryptoContext) -> PackedMatrix:
    """Encrypt a list of equal-sized square matrices interleaved in one ciphertext."""
    mats = [np.asarray(m, dtype=np.float64) for m in matrices]
    beta = len(mats)
    h = mats[0].shape[0]
    for m in mats:
        if m.shape != (h, h):
            raise CapacityError("all batched matrices must share the same shape")
    _validate_dims(ctx, h, beta)
    window = np.zeros(beta * h * h)
    for slot, m in enumerate(mats):
        window[slot::beta][: h * h] = m.ravel()
    return PackedMatrix(ctx.encrypt(ctx.encode(window)), h, h, beta)


def encode_rect_matrix(values, ctx: CryptoContext,
                       form: str | None = None) -> PackedMatrix:
    """Encrypt a t x h matrix as h/t vertically stacked copies (t must divide
    h), the stacked image in ``form`` (see ``PackedMatrix``)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise CapacityError(f"expected a 2-d matrix, got shape {arr.shape}")
    t, h = arr.shape
    if h % t != 0:
        raise CapacityError(f"logical row count {t} must divide the side {h}")
    _validate_dims(ctx, h, 1)
    return _encrypt_image(ctx, np.tile(arr, (h // t, 1)), t, form)


def decode_matrix(pm: PackedMatrix, beta_slot: int = 0) -> np.ndarray:
    """Collectively decrypt one h x h image with every owner of its key;
    the plain image, whatever the form it carries."""
    ctx = _ctx_of(pm)
    if not 0 <= beta_slot < pm.batch_beta:
        raise CapacityError(f"batch position {beta_slot} outside the packing")
    slots = ctx.decode(ctx.ddec(pm.ct, ctx.key_owners(pm.ct.key_tag)))
    h = pm.dim_h
    window = slots[: pm.window][beta_slot::pm.batch_beta][: h * h]
    if pm.form is not None:
        plain = np.empty(h * h)
        plain[_form_index(pm.form, h)] = window
        window = plain
    return window.reshape(h, h)


def _ctx_of(pm_or_ct) -> CryptoContext:
    ct = pm_or_ct.ct if isinstance(pm_or_ct, PackedMatrix) else pm_or_ct
    return context_of(ct.context_id)


def register_context(ctx: CryptoContext) -> CryptoContext:
    """Return ``ctx``: matrix ops find every live context without help."""
    return ctx


# ------------------------------------------------------------ linear transform


def _expand(labels: np.ndarray, beta: int, slot_count: int) -> np.ndarray:
    """Repeat each window label ``beta`` times and pad with -1 to
    ``slot_count``."""
    full = np.full(slot_count, -1, dtype=np.intp)
    full[: labels.size * beta] = np.repeat(labels, beta)
    return full


def _per_spec(build):
    """Memoize ``build(spec, beta, slot_count)`` in ``spec.tables``."""
    @wraps(build)
    def cached(spec: PermutationSpec, beta: int, slot_count: int):
        key = (build.__name__, beta, slot_count)
        plan = spec.tables.get(key)
        if plan is None:
            plan = spec.tables[key] = build(spec, beta, slot_count)
        return plan
    return cached


@_per_spec
def _gather(spec: PermutationSpec, beta: int, slot_count: int) -> np.ndarray:
    """Output slot s of ``spec``'s map over ``beta`` interleaved windows
    reads input slot ``index[s]``; slots past the windows keep their own.
    Read-only."""
    window = spec.dim_h * spec.dim_h
    s = np.arange(beta * window)
    index = np.arange(slot_count)
    index[: s.size] = beta * ((s // beta + spec.offsets[s // beta]) % window) \
        + s % beta
    index.setflags(write=False)
    return index


@_per_spec
def _diagonal_plan(spec: PermutationSpec, beta: int,
                   slot_count: int) -> GatherPlan:
    """One rotation per nonzero diagonal, as a single giant step.

    The zero diagonal is the input itself, not rotated.
    """
    offsets, labels = np.unique(spec.offsets, return_inverse=True)
    baby = [None if offset == 0 else beta * int(offset) for offset in offsets]
    return GatherPlan(baby, [(None, _expand(labels, beta, slot_count))],
                      slot_count)


def _check_layout(ctx: CryptoContext, spec: PermutationSpec, beta: int) -> None:
    window = beta * spec.dim_h * spec.dim_h
    if window > ctx.slot_count:
        raise CapacityError(
            f"transform window {window} exceeds {ctx.slot_count} slots")
    if spec.wraps_window and window != ctx.slot_count:
        raise CapacityError(
            f"{spec.kind} aligns rows cyclically and needs an exact-fit "
            f"packing: window {window} != slot_count {ctx.slot_count}")


def bsgs_split(h: int) -> tuple[int, int]:
    """Factor h = baby * giant with baby the largest divisor <= sqrt(h)."""
    baby = 1
    for d in range(1, math.isqrt(h) + 1):
        if h % d == 0:
            baby = d
    return baby, h // baby


@_per_spec
def _bsgs_plan(spec: PermutationSpec, beta: int, slot_count: int) -> GatherPlan:
    """Baby rotations by unit*j and, per giant step, its shift and labels.

    Writing each slot's offset as base + unit*(baby_count*i + j), the slot
    takes label j in giant step i; each step's slot-expanded labels are
    rolled by -gshift so that they pre-compensate the outer giant rotation.
    Every baby offset, 0 included, is rotated.  A ``tau_transpose`` offset is
    that form only mod h*h, with unit (h-1)**2: its multiple comes from the
    offset times 1 + 2h, the inverse of (h-1)**2 mod h*h, so its plan holds
    in an exact-fit packing alone, as ``_check_layout`` demands.  A
    ``sigma_transpose`` offset is h + (h-2)*j on column j > 0, so base h and
    unit h - 2 (1 at h = 2, where every such offset is h), with giant steps
    i >= 0; its column 0 reads itself, in one more step without a giant
    rotation that keeps the term of baby offset 0.  Raises ``EngineError``
    for an offset outside that form.
    """
    h = spec.dim_h
    # A row-periodic tau_zeta has as many diagonals as its period.
    baby, giant = bsgs_split(spec.shift or h)
    giants = (range(0, giant) if spec.kind in ("tau_zeta", "sigma_transpose")
              else range(-giant, giant))
    base, fixed = 0, np.zeros(h * h, dtype=bool)
    if spec.kind == "tau_transpose":
        unit, n = (h - 1) ** 2, h * h
        quot, rem = (spec.offsets * (1 + 2 * h) + n // 2) % n - n // 2, 0
    else:
        if spec.kind == "sigma_transpose":
            unit, base, fixed = max(h - 2, 1), h, spec.offsets == 0
        else:
            unit = {"tau_zeta": h, "transpose": h - 1}.get(spec.kind, 1)
        quot, rem = np.divmod(np.where(fixed, base, spec.offsets) - base, unit)
    step, label = np.divmod(quot, baby)
    if np.any(rem) or step.min() < giants.start or step.max() >= giants.stop:
        form = f"{base} + {unit}" if base else f"{unit}"
        raise EngineError(f"{spec.kind} offsets must be {form}*({baby}*i + j) "
                          f"with i in {giants} and 0 <= j < {baby}")
    steps = []
    for i in giants:
        gshift = beta * (base + unit * baby * i)
        labels = _expand(np.where((step == i) & ~fixed, label, -1), beta,
                         slot_count)
        steps.append((gshift, np.roll(labels, gshift % slot_count)))
    if fixed.any():
        steps.append((None, _expand(np.where(fixed, 0, -1), beta, slot_count)))
    return GatherPlan(range(0, beta * unit * baby, beta * unit), steps,
                      slot_count)


def he_lin_trans_bsgs(ct: SlotVector, spec: PermutationSpec,
                      beta: int = 1) -> SlotVector:
    """Masked-rotation evaluation of a permutation; no rescale, so the
    result carries scale * mask-scale.

    sigma_mu, tau_zeta, transpose, tau_transpose and sigma_transpose run
    baby-step/giant-step: the baby rotations R(ct, unit*j) are shared
    across all giant steps, cutting the rotation tally to baby + giants,
    3*sqrt(h) for the signed-range kinds and 2*sqrt(h) for tau_zeta and
    sigma_transpose when h is a perfect square.  col_shift and row_shift
    take one rotation per nonzero diagonal, the zero diagonal unrotated.
    Either plan gives the same bytes as the other.
    """
    ctx = _ctx_of(ct)
    _check_layout(ctx, spec, beta)
    plan = _bsgs_plan if spec.kind in _BSGS_KINDS else _diagonal_plan
    return ctx.lin_trans(ct, plan(spec, beta, ctx.slot_count))


# ----------------------------------------------------------- matrix products


def _require_product_layout(a: PackedMatrix, b: PackedMatrix) -> CryptoContext:
    """The operands' context, once both fit one exact-fit product.

    Each operand needs its ``product_depth`` levels; ``a`` may not carry the
    tau_zeta form nor ``b`` the sigma_mu form.  Raises before anything is
    metered.
    """
    ctx = _ctx_of(a)
    if b.ct.context_id != a.ct.context_id:
        raise CapacityError("operands live in different contexts")
    if a.dim_h != b.dim_h:
        raise CapacityError(
            f"matrix sides differ: {a.dim_h} vs {b.dim_h}")
    if a.batch_beta != b.batch_beta:
        raise CapacityError(
            f"batch sizes differ: {a.batch_beta} vs {b.batch_beta}")
    if a.window != ctx.slot_count:
        raise CapacityError(
            f"matrix products need an exact-fit packing (cyclic row shifts): "
            f"window {a.window} != slot_count {ctx.slot_count}")
    if a.form == "tau_zeta" or b.form == "sigma_mu":
        raise CapacityError(
            f"a product aligns its left factor by sigma_mu and its right "
            f"factor by tau_zeta; got the forms {a.form} and {b.form}")
    for pm in (a, b):
        if pm.ct.level < pm.product_depth:
            raise LevelExhaustedError(
                f"operation consumes {pm.product_depth} multiplicative "
                f"levels; an operand is at level {pm.ct.level}")
    return ctx


def _aligned(ctx: CryptoContext, pm: PackedMatrix, form: str) -> SlotVector:
    """The image of ``pm`` in ``form``: its own if it carries that form, else
    its plain image permuted baby-step/giant-step and rescaled (one level).
    A stacked t x h image repeats its rows with period t, so its tau_zeta
    is the row-periodic one: t diagonals instead of h, the same values."""
    if pm.form == form:
        return pm.ct
    period = pm.rows_t if form == "tau_zeta" and pm.rows_t < pm.dim_h else None
    spec = build_permutation(form, pm.dim_h, period)
    return ctx.rescale(he_lin_trans_bsgs(pm.ct, spec, pm.batch_beta))


def he_align(pm: PackedMatrix, form: str) -> PackedMatrix:
    """``pm`` in ``form``, ``"sigma_mu"`` or ``"tau_zeta"``, aligned once
    where a product would align it each time, by the plan the product would
    take (the row-periodic tau_zeta for a stacked image).  Aligning a plain
    image takes one level; any other form than ``form`` raises
    ``CapacityError`` before anything is metered."""
    if form not in ("sigma_mu", "tau_zeta") or pm.form not in (None, form):
        raise CapacityError(f"cannot align a {pm.form or 'plain'} image "
                            f"to {form!r}")
    return replace(pm, ct=_aligned(_ctx_of(pm), pm, form), form=form)


def he_refresh(pm: PackedMatrix, roster, form: str | None = None) -> PackedMatrix:
    """``pm`` collectively refreshed by ``roster``, its image in ``form``.

    A plain image takes its alignment inside the refresh: each party
    permutes its own mask by the form's gather, so the alignment costs no
    rotation, no plaintext product and no level, only the one bootstrap.
    ``form`` None, or the form ``pm`` carries, refreshes the image as it
    is; any other raises ``CapacityError`` before anything is metered, and
    so does a form that ``FORMS`` does not name.
    """
    _check_form(form)
    if pm.form not in (None, form):
        raise CapacityError(f"cannot refresh a {pm.form} image into "
                            f"{form or 'plain'} form")
    ctx = _ctx_of(pm)
    gather = None
    if form != pm.form:
        gather = _gather(build_permutation(form, pm.dim_h), pm.batch_beta,
                         ctx.slot_count)
    return replace(pm, ct=ctx.dbootstrap(pm.ct, roster, gather), form=form)


def _product(a: PackedMatrix, b: PackedMatrix) -> PackedMatrix:
    """The product core: the sigma/tau alignment of each operand not yet
    in its form, ``min(a.rows_t, b.rows_t)`` column-shift stages and, for
    a stacked t x h left factor, a log2(h/t) rotate-and-add fold of its
    partial blocks (exact-fit packing wraps each rotation at the window
    edge, so every block receives the total).  Each stage costs one mul_pt,
    one sub, three rotations, one rescale and one mul_ct, all in one
    ``ctx.shift_mul_sum`` call.  Refuses before metering anything where
    ``_require_product_layout`` does.
    """
    ctx = _require_product_layout(a, b)
    h, rows = a.dim_h, a.rows_t
    t = min(rows, b.rows_t)
    a0 = _aligned(ctx, a, "sigma_mu")
    b0 = _aligned(ctx, b, "tau_zeta")
    acc = ctx.rescale(ctx.shift_mul_sum(a0, b0, h, a.batch_beta, t))
    for step in range(int(math.log2(h // rows))):
        acc = ctx.add(acc, ctx.rot(acc, rows * h * (1 << step)))
    return PackedMatrix(acc, h, rows, a.batch_beta)


def he_mat_mult(a: PackedMatrix, b: PackedMatrix) -> PackedMatrix:
    """Packed product of a (batched) square matrix by a square or stacked one.

    By a square ``b``: h stages, 3h + 2b + 3g rotations (3h + 5*sqrt(h)
    for perfect-square h), 4h mul_pt, h subs and h mul_ct.  By a stacked
    t x h ``b``, with ``a`` the square image of ``np.tile(A, (h // t,
    1)).T`` (``he_transpose`` of A's stacked image, or its owner's
    encryption): ``A.T @ B`` in t stages, which visit each repeated row
    once, after b's row-periodic tau_zeta (``bsgs_split(t)`` baby + giant
    rotations, t mul_pt).  Takes each factor's ``product_depth`` levels
    and returns the plain form at the context's base scale.  A stacked
    ``a`` raises ``CapacityError``; a refused call meters nothing.
    """
    if a.rows_t != a.dim_h:
        raise CapacityError("he_mat_mult expects a square left factor; "
                            "use he_rect_mat_mult for a stacked one")
    return _product(a, b)


def he_transpose(a: PackedMatrix) -> PackedMatrix:
    """The transpose of ``a``'s image in ``a``'s form, rescaled: one level.

    The form picks ``transpose``, ``sigma_transpose`` or ``tau_transpose``
    (2h-1, h or 2h-1 diagonals, baby-step/giant-step).  A stacked t x h
    image gives the square image of ``np.tile(A, (h // t, 1)).T``.  A formed
    image needs an exact-fit packing; without it, or at level 0, the call
    raises before anything is metered.
    """
    spec = build_permutation(_TRANSPOSES[a.form], a.dim_h)
    out = _ctx_of(a).rescale(he_lin_trans_bsgs(a.ct, spec, a.batch_beta))
    return PackedMatrix(out, a.dim_h, a.dim_h, a.batch_beta, a.form)


def he_rect_mat_mult(a: PackedMatrix, b: PackedMatrix) -> PackedMatrix:
    """Product of a stacked t x h matrix with an h x h matrix.

    The square product's core with only t shift stages: 3h + t mul_pt,
    t subs and t mul_ct.  A final log2(h/t) rotate-and-add fold sums the
    stacked partial blocks, leaving h/t vertical copies of the t x h product
    in the output image.  A stacked ``b`` raises ``CapacityError`` before
    anything is metered.
    """
    if b.rows_t != b.dim_h:
        raise CapacityError("he_rect_mat_mult expects a square right factor; "
                            "use he_mat_mult for a stacked one")
    return _product(a, b)


def matmul_rotation_formula(h: int) -> int:
    """Measured rotation count of he_mat_mult: 3h + 2*baby + 3*giant."""
    baby, giant = bsgs_split(h)
    return 3 * h + 2 * baby + 3 * giant


def pad_matrix(values, rows: int, cols: int) -> np.ndarray:
    """Zero-pad a 2-d matrix to ``rows`` x ``cols``.

    Raises ``CapacityError`` when the matrix does not fit.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] > rows or arr.shape[1] > cols:
        raise CapacityError(f"a matrix of shape {arr.shape} does not fit "
                            f"{rows} x {cols}")
    out = np.zeros((rows, cols))
    out[: arr.shape[0], : arr.shape[1]] = arr
    return out


# ----------------------------------------------------------------- CSV interop


def matrix_to_csv(values) -> str:
    arr = np.asarray(values, dtype=np.float64)
    return "\n".join(",".join(repr(float(x)) for x in row) for row in arr) + "\n"


def matrix_from_csv(text: str) -> np.ndarray:
    rows = [line.split(",") for line in text.strip().splitlines() if line.strip()]
    try:
        return np.array([[float(x) for x in row] for row in rows])
    except ValueError as exc:
        raise ValueError(f"malformed matrix CSV: {exc}") from None
