"""The matrix exponential, on numpy alone.

``expm`` has two routes, picked by one exact test of the input:

* an anti-Hermitian matrix (``a == -a^H`` elementwise, as every
  ``-1j * t * H`` with a Hermitian ``H`` is) is ``-i K`` with ``K = i a``
  Hermitian, so ``exp(a) = V diag(exp(-i w)) V^dag`` from one ``eigh`` of
  ``K``.  The result is unitary to rounding at any norm.
* any other matrix (a Liouvillian, a Van Loan block, a non-Hermitian
  ``-i J t``) goes through the [m/m] Pade approximant, m in {3, 5, 7, 9, 13},
  with scaling and squaring: Higham, SIAM J. Matrix Anal. Appl. 26 (2005)
  1179, the method that scipy's ``expm`` refines (Al-Mohy & Higham 2009).
  An eigendecomposition cannot serve here: a Van Loan block is defective.
  Without the 2009 refinements the scaling can overshoot on strongly
  non-normal inputs of large norm, where digits are lost; the generators
  exponentiated here are rates times times of order one.
"""
from __future__ import annotations

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
    input takes Pade approximation with scaling and squaring, and a real
    input gives a real result.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expm needs a square matrix, got shape {a.shape}")
    if np.iscomplexobj(a) and (a == -a.conj().T).all():
        w, v = np.linalg.eigh(1j * a)
        return (v * np.exp(-1j * w)) @ v.conj().T
    return _pade_expm(a)


def _pade_expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by the lowest Pade degree whose threshold the 1-norm of ``a``
    meets, else by degree 13 on ``a / 2^s`` squared ``s`` times."""
    eye = np.eye(a.shape[0], dtype=a.dtype)
    norm = np.linalg.norm(a, 1)
    a2 = a @ a
    for m, theta in _THETA:
        if norm <= theta:
            b = _PADE[m]
            powers = [eye, a2]
            while len(powers) <= m // 2:
                powers.append(powers[-1] @ a2)
            u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
            v = sum(b[2 * k] * p for k, p in enumerate(powers))
            return np.linalg.solve(v - u, v + u)
    # degree 13 on a / 2^s, then s squarings
    s = max(0, math.ceil(math.log2(norm / _THETA_13)))
    if s:
        a = a / 2.0 ** s
        a2 = a2 / 4.0 ** s
    a4 = a2 @ a2
    a6 = a4 @ a2
    b = _PADE[13]
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) \
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r
