"""Reference matrix-product paths used as benchmark baselines.

Both references compute the same packed product as ``he_mat_mult`` but with
the rotation profiles of the approaches they stand in for:

* ``naive_mat_mult`` runs the generic masked-rotation linear transform over
  every diagonal index of the slot space for each of the 2h permutations the
  product decomposes into, i.e. O(h^3) rotations.
* ``diagonal_mat_mult`` re-encodes the operands into the
  one-ciphertext-per-diagonal / one-ciphertext-per-column layout and performs
  h encrypted matrix-vector products, i.e. O(h^2) rotations.  Since this
  library's matrices arrive as single packed ciphertexts, the conversion in
  and out of that layout is performed (and metered) under encryption as part
  of the method's cost.

Each masked-rotation sum of a baseline is one ``ctx.lin_trans`` over a
``GatherPlan`` with a single giant step, which meters the chain of
rotations, mul_pt and adds it stands for.  Outputs are exact and are
validated against the plain product in the tests; only the meters differ.
"""

from __future__ import annotations

import numpy as np

from .engine import CryptoContext, GatherPlan, SlotVector
from .matrix import PackedMatrix, _require_product_layout


def _generic_lin_trans(ctx: CryptoContext, ct: SlotVector,
                       perm: np.ndarray) -> SlotVector:
    """Masked rotation over every diagonal index of the slot space.

    ``perm[r]`` is the source slot feeding output slot r, so slot r belongs
    to diagonal ``(perm[r] - r) mod n`` alone, and that diagonal is its
    label.  No sparsity is exploited: all n diagonals are rotated and
    masked, zero masks included, as one giant step of one ``lin_trans``.
    Diagonal 0 is not rotated, so the tallies are n - 1 rotations, n mul_pt
    and n - 1 adds.
    """
    n = ctx.slot_count
    labels = (perm - np.arange(n)) % n
    plan = GatherPlan([None, *range(1, n)], [(None, labels)], n)
    return ctx.lin_trans(ct, plan)


def _perm_row_aligned(h: int, k: int, n: int) -> np.ndarray:
    """Source map of the k-shifted row-diagonal alignment of the left factor."""
    perm = np.arange(n)
    i, j = np.divmod(np.arange(h * h), h)
    perm[: h * h] = h * i + (i + j + k) % h
    return perm


def _perm_col_aligned(h: int, k: int, n: int) -> np.ndarray:
    """Source map of the k-shifted column-diagonal alignment of the right factor."""
    perm = np.arange(n)
    i, j = np.divmod(np.arange(h * h), h)
    perm[: h * h] = h * ((i + j + k) % h) + j
    return perm


def naive_mat_mult(a: PackedMatrix, b: PackedMatrix) -> PackedMatrix:
    """O(h^3)-rotation product: 2h generic transforms of h^2 diagonals each."""
    ctx = _require_product_layout(a, b)
    h, n = a.dim_h, ctx.slot_count
    acc = None
    for k in range(h):
        a_k = ctx.rescale(_generic_lin_trans(ctx, a.ct, _perm_row_aligned(h, k, n)))
        b_k = ctx.rescale(_generic_lin_trans(ctx, b.ct, _perm_col_aligned(h, k, n)))
        prod = ctx.mul_ct(a_k, b_k)
        acc = prod if acc is None else ctx.add(acc, prod)
    return PackedMatrix(ctx.rescale(acc), h, h, 1)


def _extract(ctx: CryptoContext, ct: SlotVector, sources: np.ndarray) -> SlotVector:
    """Gather scattered slots into positions 0..len(sources)-1, one rotation each.

    Slot i keeps the term of its own rotation, by ``sources[i] - i``; every
    offset is rotated, 0 included.
    """
    k, n = len(sources), ctx.slot_count
    labels = np.full(n, -1, dtype=np.intp)
    labels[:k] = np.arange(k)
    plan = GatherPlan(list(sources - np.arange(k)), [(None, labels)], n)
    return ctx.lin_trans(ct, plan)


def diagonal_mat_mult(a: PackedMatrix, b: PackedMatrix) -> PackedMatrix:
    """O(h^2)-rotation product via per-diagonal / per-column ciphertexts."""
    ctx = _require_product_layout(a, b)
    h = a.dim_h
    i = np.arange(h)

    # Left factor: one ciphertext per generalized diagonal.
    diags = []
    for k in range(h):
        sources = h * i + (i + k) % h
        diags.append(ctx.rescale(_extract(ctx, a.ct, sources)))

    # Right factor: one ciphertext per column, duplicated into a 2h window so
    # short cyclic rotations stay valid in the first h slots.
    cols = []
    for j in range(h):
        col = _extract(ctx, b.ct, h * i + j)
        cols.append(ctx.rescale(ctx.add(col, ctx.rot(col, -h))))

    # h encrypted matrix-vector products, h rotations each.
    out_cols = []
    for j in range(h):
        acc = None
        for k in range(h):
            term = ctx.mul_ct(diags[k], ctx.rot(cols[j], k))
            acc = term if acc is None else ctx.add(acc, term)
        out_cols.append(ctx.rescale(acc))

    # Re-pack the column ciphertexts into the row-major image.
    unit = np.zeros(ctx.slot_count)
    acc = None
    for j, col in enumerate(out_cols):
        for row in range(h):
            unit[:] = 0.0
            unit[row] = 1.0
            picked = ctx.mul_pt(col, ctx.encode(unit))
            term = ctx.rot(picked, -((h - 1) * row + j))
            acc = term if acc is None else ctx.add(acc, term)
    return PackedMatrix(ctx.rescale(acc), h, h, 1)


def alternating_packing_rotations(h: int, omega: int) -> int:
    """Analytic rotation-cost model of the replication-packing baseline.

    Evaluates omega * log2(h * omega); never executed, only reported.
    """
    return int(round(omega * np.log2(h * omega)))
