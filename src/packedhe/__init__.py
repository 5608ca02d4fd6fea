"""packedhe: packed-ciphertext linear algebra and encrypted federated training.

The package simulates a multiparty approximate-arithmetic SIMD cryptosystem at
the slot level (exact float64 backend, precise operation metering) and builds
on it:

* ``engine``     — slot vectors, level/scale bookkeeping, N-of-N collective ops
* ``matrix``     — packed matrix products, transpose, rectangular and batched
                   variants in O(h) rotations
* ``references`` — O(h^3) and O(h^2) rotation baselines for comparison
* ``approx``     — composite-polynomial sign/abs/max/ReLU and Chebyshev fits
* ``federated``  — N-party encrypted training protocol with wire transports
* ``cli``        — benchmark / training command line front end
"""

from .engine import (CapacityError, CryptoContext, EngineError, KeyMismatchError,
                     LevelExhaustedError, MissingPartyError, OpCounter,
                     Plaintext, SlotVector, new_context)
from .matrix import (PackedMatrix, PermutationSpec, apply_permutation,
                     build_permutation, decode_matrix, encode_matrix,
                     encode_rect_matrix, he_align, he_lin_trans_bsgs,
                     he_mat_mult, he_rect_mat_mult, he_refresh, he_transpose,
                     pack_matrices)
from .approx import (CompositePolySpec, IntervalMap, SmoothFit, app_abs,
                     app_max, app_relu, app_sign, eval_composite,
                     gd_coefficients, interval_denormalize, interval_normalize,
                     min_depth, pd_constant, smooth_fit, depth_bound_formula)
from .estimator import FederatedPolyMLP, NotFittedError

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
