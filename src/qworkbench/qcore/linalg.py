"""The matrix exponential, on numpy alone.

``expm`` has two routes, picked by one exact test of the input:

* an anti-Hermitian matrix (``a == -a^H`` elementwise, as every
  ``-1j * t * H`` with a Hermitian ``H`` is) is ``-i K`` with ``K = i a``
  Hermitian, so ``exp(a) = V diag(exp(-i w)) V^dag`` from one ``eigh`` of
  ``K``.  The result is unitary to rounding at any norm.
* any other matrix (a Liouvillian, a non-Hermitian ``-i J t``) goes
  through the [m/m] Pade approximant, m in {3, 5, 7, 9, 13}, with scaling
  and squaring: Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179, the
  method that scipy's ``expm`` refines (Al-Mohy & Higham 2009).  Without
  the 2009 refinements the scaling can overshoot on strongly non-normal
  inputs of large norm, where digits are lost; the generators exponentiated
  here are rates times times of order one.

The one Pade kernel acts on a lower block-triangular Toeplitz matrix T
(block (i, j) is B_(i-j) for i >= j, zero above), held as its first block
column, the ``(n, D, D)`` stack [B_0, ..., B_(n-1)].  Sums, products and
inverses of such matrices keep the form, so every step of the Pade
evaluation does too, and ``expm_block_toeplitz`` returns the first block
column of exp(T).  A product is one gemm of the left factor's dense
(n D)-square form, gathered through a cached read-only index, with the
right factor's (n D, D) block column: n^2 block products where dense
products take n^3.  The final solve is one ``np.linalg.solve`` with D
right-hand sides, and the 1-norm is read from the first block column,
which holds every block, so it is the dense matrix's and the degree and
scaling are the ones the dense matrix would get.  The Van Loan block
generator of the dissipative series (``openmaster``) is such a matrix,
and it is defective, so no eigendecomposition could serve it.  A dense
matrix is the one-block case, whose dense form is the matrix itself:
``expm`` calls the same kernel on ``a[None]``.
"""
from __future__ import annotations

import functools
import math

import numpy as np

# Pade numerator coefficients b_0..b_m (the denominator is the same with
# alternating signs) and the 1-norm below which degree m meets unit roundoff
# in double precision (Higham 2005, Table 2.3)
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
          (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_THETA_13 = 5.371920351148152e0


def expm(a) -> np.ndarray:
    """exp(a) for a square matrix ``a``.

    A complex, exactly anti-Hermitian ``a`` takes one ``eigh``; every other
    input takes Pade approximation with scaling and squaring (the one-block
    case of ``expm_block_toeplitz``), and a real input gives a real result.
    A matrix with a NaN or infinite entry raises ``ValueError``.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expm needs a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("expm needs a finite matrix: an entry is NaN or infinite")
    if np.iscomplexobj(a) and (a == -a.conj().T).all():
        w, v = np.linalg.eigh(1j * a)
        return (v * np.exp(-1j * w)) @ v.conj().T
    return _pade_expm(a[None])[0]


def expm_block_toeplitz(blocks) -> np.ndarray:
    """First block column of exp(T), T the lower block-triangular Toeplitz
    matrix whose first block column is the ``(n, D, D)`` stack ``blocks``
    (T[i, j] = blocks[i - j] for i >= j, 0 above the diagonal).

    The result is the ``(n, D, D)`` stack of exp(T)'s first block column,
    which fixes exp(T) as the same Toeplitz form.  Always the Pade route.
    """
    blocks = np.asarray(blocks)
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
        raise ValueError(f"expm_block_toeplitz needs an (n, D, D) stack, "
                         f"got shape {blocks.shape}")
    return _pade_expm(blocks)


@functools.lru_cache(maxsize=None)
def _toeplitz_index(n: int, d: int) -> tuple:
    """Gather indices of the dense form of an (n, d, d) stack padded with one
    zero block: entry (i, r, j, c) reads block i - j at row r, or the zero
    block n above the diagonal.  Read-only, as they are shared."""
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    lag[lag < 0] = n
    rows = np.arange(d)
    lag.flags.writeable = rows.flags.writeable = False
    return lag[:, None, :], rows[None, :, None]


def _lower_dense(a: np.ndarray) -> np.ndarray:
    """The dense (n D, n D) lower block-triangular Toeplitz matrix of the
    stack ``a``; one block is the matrix itself."""
    n, d = a.shape[:2]
    if n == 1:
        return a[0]
    padded = np.concatenate((a, np.zeros_like(a[:1])))
    return padded[_toeplitz_index(n, d)].reshape(n * d, n * d)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First block column of T(a) T(b): one gemm against b's block column."""
    n, d = a.shape[:2]
    return (_lower_dense(a) @ b.reshape(n * d, d)).reshape(n, d, d)


def _pade_expm(a: np.ndarray) -> np.ndarray:
    """exp of the Toeplitz stack ``a`` (see ``expm_block_toeplitz``) by the
    lowest Pade degree whose threshold the 1-norm of ``a`` meets, else by
    degree 13 on ``a / 2^s`` squared ``s`` times."""
    n, d = a.shape[:2]
    eye = np.zeros((n, d, d), dtype=a.dtype)
    eye[0] = np.eye(d, dtype=a.dtype)
    # the first block column holds every block, so its largest absolute
    # column sum is the 1-norm of the dense matrix
    norm = np.linalg.norm(a.reshape(n * d, d), 1)
    for m, theta in _THETA:
        if norm <= theta:
            a2 = _product(a, a)
            b = _PADE[m]
            powers = [eye, a2]
            while len(powers) <= m // 2:
                powers.append(_product(powers[-1], a2))
            u = _product(a, sum(b[2 * k + 1] * p for k, p in enumerate(powers)))
            v = sum(b[2 * k] * p for k, p in enumerate(powers))
            return _solve(v - u, v + u)
    # degree 13 on a / 2^s, then s squarings.  2^-s is a normal float for
    # every finite norm (s <= 1022), so the scaling is exact, and a2 is
    # formed from the scaled a, so no product overflows
    s = max(0, math.ceil(math.log2(norm / _THETA_13)))
    if s:
        a = a * np.ldexp(1.0, -s)
    a2 = _product(a, a)
    a4 = _product(a2, a2)
    a6 = _product(a4, a2)
    b = _PADE[13]
    u = _product(a, _product(a6, b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = _product(a6, b[12] * a6 + b[10] * a4 + b[8] * a2) \
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = _solve(v - u, v + u)
    for _ in range(s):
        r = _product(r, r)
    return r


def _solve(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """First block column of T(p)^-1 T(q): one solve with D right-hand sides."""
    n, d = p.shape[:2]
    return np.linalg.solve(_lower_dense(p), q.reshape(n * d, d)).reshape(n, d, d)
