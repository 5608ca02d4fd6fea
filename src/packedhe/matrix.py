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
offset, so they are disjoint by construction.  Each permutation transform
is one gather plan per geometry.  Its description is the chain it stands
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

``he_mat_mult`` and ``he_rect_mat_mult`` share one product core.  Stage k
shifts the aligned left factor a0 by k columns: the masked term ``m_k``
(one ``mul_pt`` keeping columns >= k) goes one way and ``a0 - m_k`` the
other way round the row boundary.  ``m_k`` is rescaled before the
subtraction, so every add and sub in a product sees its operands at one
scale, as CKKS requires.  All t stages are one engine call,
``ctx.shift_mul_sum(a0, b0, h, beta, t)``, which meters each stage as that
chain and returns its bytes.  It needs no mask table: stage k's shifted
left factor is a column window of one row-doubled image of a0, so a block
of stages is a single strided multiply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, wraps

import numpy as np

from .engine import (CapacityError, CryptoContext, EngineError, GatherPlan,
                     LevelExhaustedError, SlotVector, context_of)

PERMUTATION_KINDS = ("sigma_mu", "tau_zeta", "col_shift", "row_shift", "transpose")

# Kinds whose diagonal decomposition reads across the h^2 window edge and
# therefore needs the packed image to wrap exactly at the slot boundary.
_WRAPPING_KINDS = ("tau_zeta", "row_shift")

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
    ``tables`` holds the gather plans built from them, so they live exactly
    as long as the spec.  Specs compare and hash by identity.
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
    """Build the diagonal offsets of one of the five packed-matrix permutations.

    ``sigma_mu`` aligns each row of the left factor on its own diagonal
    (2h-1 nonzero diagonals), ``tau_zeta`` does the column analogue for the
    right factor (h diagonals), ``col_shift(k)``/``row_shift(k)`` are cyclic
    intra-row / block-row shifts (2 resp. 1 diagonals), and ``transpose``
    realizes the transpose map (2h-1 diagonals).  Where output entry (i, j)
    reads input entry (src_i, src_j), its offset is h*(src_i - i) +
    (src_j - j), taken mod h*h for the two kinds that wrap the window.
    """
    if kind not in PERMUTATION_KINDS:
        raise ValueError(f"unknown permutation kind {kind!r}")
    if h < 2:
        raise ValueError(f"matrix side must be >= 2, got {h}")
    if kind in ("col_shift", "row_shift"):
        if k is None or not 1 <= k < h:
            raise ValueError(f"{kind} requires a shift 1 <= k < h, got {k}")
    elif k is not None:
        raise ValueError(f"{kind} takes no shift parameter")

    i, j = np.divmod(np.arange(h * h), h)
    if kind == "sigma_mu":
        src_i, src_j = i, (i + j) % h
    elif kind == "tau_zeta":
        src_i, src_j = (i + j) % h, j
    elif kind == "col_shift":
        src_i, src_j = i, (j + k) % h
    elif kind == "row_shift":
        src_i, src_j = (i + k) % h, j
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
    paths and runs symbolic cases at any h, power of two or not.
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
    t | h) when the image holds h/t stacked copies of a t x h matrix.
    """

    ct: SlotVector
    dim_h: int
    rows_t: int
    batch_beta: int = 1

    @property
    def window(self) -> int:
        return self.batch_beta * self.dim_h * self.dim_h


def _validate_dims(ctx: CryptoContext, h: int, beta: int) -> None:
    if h < 2:
        raise CapacityError(f"matrix side must be >= 2, got {h}")
    if beta < 1:
        raise CapacityError(f"batch size must be >= 1, got {beta}")
    if beta * h * h > ctx.slot_count:
        raise CapacityError(
            f"{beta} matrix images of side {h} need {beta * h * h} slots; "
            f"context offers {ctx.slot_count}")


def encode_matrix(values, ctx: CryptoContext) -> PackedMatrix:
    """Encrypt one square matrix; ``pack_matrices`` interleaves several."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise CapacityError(f"expected a square matrix, got shape {arr.shape}")
    h = arr.shape[0]
    _validate_dims(ctx, h, 1)
    return PackedMatrix(ctx.encrypt(ctx.encode(arr)), h, h, 1)


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


def encode_rect_matrix(values, ctx: CryptoContext) -> PackedMatrix:
    """Encrypt a t x h matrix as h/t vertically stacked copies (t must divide h)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise CapacityError(f"expected a 2-d matrix, got shape {arr.shape}")
    t, h = arr.shape
    if h % t != 0:
        raise CapacityError(f"logical row count {t} must divide the side {h}")
    _validate_dims(ctx, h, 1)
    image = np.tile(arr, (h // t, 1))
    return PackedMatrix(ctx.encrypt(ctx.encode(image.ravel())), h, t, 1)


def decode_matrix(pm: PackedMatrix, beta_slot: int = 0) -> np.ndarray:
    """Collectively decrypt one h x h image with every owner of its key."""
    ctx = _ctx_of(pm)
    if not 0 <= beta_slot < pm.batch_beta:
        raise CapacityError(f"batch position {beta_slot} outside the packing")
    slots = ctx.decode(ctx.ddec(pm.ct, ctx.key_owners(pm.ct.key_tag)))
    h = pm.dim_h
    window = slots[: pm.window][beta_slot::pm.batch_beta][: h * h]
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


def he_lin_trans(ct: SlotVector, spec: PermutationSpec, beta: int = 1) -> SlotVector:
    """Masked-rotation evaluation of a permutation, one rotation per diagonal.

    The zero diagonal, when present, is applied without a rotation, so the
    rotation tally equals the nonzero diagonal count minus one in that case.
    No rescale is performed; the result carries scale * mask-scale.
    """
    ctx = _ctx_of(ct)
    _check_layout(ctx, spec, beta)
    return ctx.lin_trans(ct, _diagonal_plan(spec, beta, ctx.slot_count))


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

    Writing each slot's offset as unit*(baby_count*i + j), the slot takes
    label j in giant step i; each step's slot-expanded labels are rolled by
    -gshift so that they pre-compensate the outer giant rotation.  Every
    baby offset, 0 included, is rotated.  Raises ``EngineError`` for an
    offset outside that form.
    """
    h = spec.dim_h
    baby, giant = bsgs_split(h)
    unit = h if spec.kind == "tau_zeta" else (h - 1 if spec.kind == "transpose" else 1)
    giants = range(0, giant) if spec.kind == "tau_zeta" else range(-giant, giant)
    quot, rem = np.divmod(spec.offsets, unit)
    step, label = np.divmod(quot, baby)
    if rem.any() or step.min() < giants.start or step.max() >= giants.stop:
        raise EngineError(f"{spec.kind} offsets must be {unit}*({baby}*i + j) "
                          f"with i in {giants} and 0 <= j < {baby}")
    steps = []
    for i in giants:
        gshift = beta * unit * baby * i
        labels = _expand(np.where(step == i, label, -1), beta, slot_count)
        steps.append((gshift, np.roll(labels, gshift % slot_count)))
    return GatherPlan(range(0, beta * unit * baby, beta * unit), steps,
                      slot_count)


def he_lin_trans_bsgs(ct: SlotVector, spec: PermutationSpec,
                      beta: int = 1) -> SlotVector:
    """Baby-step/giant-step evaluation of sigma_mu, tau_zeta or transpose.

    The baby rotations R(ct, unit*j) are shared across all giant steps,
    cutting the rotation tally to baby + giants: 3*sqrt(h) for the
    signed-range kinds and 2*sqrt(h) for tau_zeta when h is a perfect square.
    Output is identical to ``he_lin_trans``.
    """
    if spec.kind not in ("sigma_mu", "tau_zeta", "transpose"):
        return he_lin_trans(ct, spec, beta)
    ctx = _ctx_of(ct)
    _check_layout(ctx, spec, beta)
    return ctx.lin_trans(ct, _bsgs_plan(spec, beta, ctx.slot_count))


# ----------------------------------------------------------- matrix products


def _require_product_layout(a: PackedMatrix, b: PackedMatrix) -> CryptoContext:
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
    levels = min(a.ct.level, b.ct.level)
    if levels < PRODUCT_DEPTH:
        raise LevelExhaustedError(
            f"operation consumes {PRODUCT_DEPTH} multiplicative levels; "
            f"operands are at level {levels}")
    return ctx


def _product(ctx: CryptoContext, a: PackedMatrix, b: PackedMatrix,
             t: int) -> SlotVector:
    """sigma/tau alignment, then ``t`` column-shift stages; the rescaled sum.

    The stages are one ``ctx.shift_mul_sum`` call; each costs one mul_pt,
    one sub, three rotations, one rescale and one mul_ct (see the module
    docstring).
    """
    h, beta = a.dim_h, a.batch_beta
    a0 = ctx.rescale(he_lin_trans_bsgs(a.ct, build_permutation("sigma_mu", h), beta))
    b0 = ctx.rescale(he_lin_trans_bsgs(b.ct, build_permutation("tau_zeta", h), beta))
    return ctx.rescale(ctx.shift_mul_sum(a0, b0, h, beta, t))


def he_mat_mult(a: PackedMatrix, b: PackedMatrix) -> PackedMatrix:
    """Packed product of (batched) square matrices in 3h + 2b + 3g rotations.

    For perfect-square h the rotation tally is exactly 3h + 5*sqrt(h); the
    other tallies are 4h mul_pt, h subs and h mul_ct.  Consumes three
    multiplicative levels and returns the result at the context's base scale.
    """
    if a.rows_t != a.dim_h or b.rows_t != b.dim_h:
        raise CapacityError("he_mat_mult expects square payloads; "
                            "use he_rect_mat_mult for stacked rectangular forms")
    ctx = _require_product_layout(a, b)
    return PackedMatrix(_product(ctx, a, b, a.dim_h), a.dim_h, a.dim_h,
                        a.batch_beta)


def he_transpose(a: PackedMatrix) -> PackedMatrix:
    """Transpose a square packed matrix (2h-1 diagonals, bsgs rotations)."""
    if a.rows_t != a.dim_h:
        raise CapacityError("he_transpose expects a square payload")
    ctx = _ctx_of(a)
    spec = build_permutation("transpose", a.dim_h)
    out = ctx.rescale(he_lin_trans_bsgs(a.ct, spec, a.batch_beta))
    return PackedMatrix(out, a.dim_h, a.dim_h, a.batch_beta)


def he_rect_mat_mult(a: PackedMatrix, b: PackedMatrix) -> PackedMatrix:
    """Product of a stacked t x h matrix with an h x h matrix.

    The square product's core with only t shift stages: 3h + t mul_pt,
    t subs and t mul_ct.  A final log2(h/t) rotate-and-add fold sums the
    stacked partial blocks, leaving h/t vertical copies of the t x h product
    in the output image.
    """
    if a.batch_beta != 1 or b.batch_beta != 1:
        raise CapacityError("rectangular products are not batched")
    if b.rows_t != b.dim_h:
        raise CapacityError("right factor must be square")
    t = a.rows_t
    h = a.dim_h
    if h % t != 0:
        raise CapacityError(f"logical row count {t} must divide the side {h}")
    ctx = _require_product_layout(a, b)
    acc = _product(ctx, a, b, t)

    # Fold the h/t stacked partial blocks; exact-fit packing makes the
    # rotation wrap at the window edge, so every block receives the total.
    copies = h // t
    for step in range(int(math.log2(copies))):
        acc = ctx.add(acc, ctx.rot(acc, t * h * (1 << step)))
    return PackedMatrix(acc, h, t, 1)


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
