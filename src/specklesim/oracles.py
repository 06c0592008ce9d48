"""Brute-force oracles for the closed forms of :mod:`specklesim.twophoton`.

Production code never calls these routes; the tests and ``selftest``
check the closed forms and the medium against them:

- embed the 2x2 block in a unitary completion, propagate the pair with
  matrix permanents, and aggregate the absorbing loss channels;
- the two-photon coincidence of any pair of channels of a whole medium;
- propagation of a field through a whole medium;
- the dense input field of a phase pattern, for shaping's driven-channel products.
"""

from __future__ import annotations

import numpy as np

from .medium import TransmissionMatrix
from .shaping import PhasePattern
from .twophoton import EmbeddabilityError, check_embeddable, permanent

__all__ = ["unitary_completion", "outcome_distribution", "two_photon_coincidence", "transmit", "shaped_input"]


def unitary_completion(block: np.ndarray) -> np.ndarray:
    """Embed an ``r x c`` contraction as the top-left block of a unitary.

    Returns the ``(r+c) x (r+c)`` dilation::

        [[ M,                sqrt(I - M M^dag) ]
         [ sqrt(I - M^dag M),     -M^dag       ]]

    The first ``c`` columns are the physical inputs and the first ``r``
    rows the monitored outputs; the remaining channels absorb the loss.
    Both square roots are assembled from one SVD of ``M`` so that the
    off-diagonal blocks cancel exactly even when singular values sit at
    one (a lossless block keeps zero coupling to the loss channels).

    Raises
    ------
    EmbeddabilityError
        If :func:`check_embeddable` rejects ``block``.  Singular values
        inside its tolerance band are clipped to one.
    """
    m = np.asarray(block, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError("block must be a 2-d matrix")
    left, s, right_h = np.linalg.svd(m)
    check_embeddable(float(s.max(initial=0.0)))
    s = np.clip(s, 0.0, 1.0)
    r, c = m.shape
    s_rows, s_cols = (np.pad(s, (0, size - s.size)) for size in (r, c))
    upper_right = (left * np.sqrt(1.0 - s_rows**2)) @ left.conj().T
    lower_left = (right_h.conj().T * np.sqrt(1.0 - s_cols**2)) @ right_h
    rebuilt = (left[:, : s.size] * s) @ right_h[: s.size, :]
    u = np.block([[rebuilt, upper_right], [lower_left, -rebuilt.conj().T]])
    defect = np.max(np.abs(u.conj().T @ u - np.eye(r + c)))
    if defect > 1e-10:
        raise EmbeddabilityError(f"unitary completion failed, defect {defect:.3g}")
    return u


def outcome_distribution(block: np.ndarray, overlap: float) -> np.ndarray:
    """Brute-force oracle for :func:`pair_outcome_components`, mixed at ``overlap``.

    Propagates the pair through the unitary completion of ``block`` with
    permanents (``|perm|^2`` over the bunching factorial) and classical path
    counting, and aggregates the loss channels into the six-vector ordered
    as :data:`~specklesim.twophoton.OUTCOME_LABELS`.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must be in [0, 1], got {overlap}")
    u = unitary_completion(block)
    size = u.shape[0]
    ind = np.zeros(6)
    dist = np.zeros(6)
    for i in range(size):
        for j in range(i, size):
            sub = u[np.ix_((i, j), (0, 1))]
            if i == j:
                p_ind = abs(permanent(sub)) ** 2 / 2.0
                p_dist = abs(sub[0, 0] * sub[1, 1]) ** 2
            else:
                p_ind = abs(permanent(sub)) ** 2
                p_dist = abs(sub[0, 0] * sub[1, 1]) ** 2 + abs(sub[0, 1] * sub[1, 0]) ** 2
            slot = _outcome_slot(i, j)
            ind[slot] += p_ind
            dist[slot] += p_dist
    return overlap * ind + (1.0 - overlap) * dist


def _outcome_slot(i: int, j: int) -> int:
    """Map an output pair ``i <= j`` of the completion onto the six detection bins."""
    return {(0, 0): 0, (1, 1): 1, (0, 1): 2}.get((i, j), min(i, 2) + 3)


def two_photon_coincidence(matrix, inputs: tuple[int, int], outputs: tuple[int, int], overlap: float) -> float:
    """Joint detection probability for one photon in each of two inputs.

    Parameters
    ----------
    matrix:
        A :class:`~specklesim.medium.TransmissionMatrix` (or bare complex
        matrix) of any size.
    inputs:
        Distinct input channels ``(k, l)`` carrying one photon each.
    outputs:
        Output channels ``(m, n)``.  For ``m != n`` this is the
        coincidence probability; for ``m == n`` the bunched probability
        of both photons in that single channel.
    overlap:
        Indistinguishability ``x`` in [0, 1].  ``x = 1`` reproduces the
        permanent-squared quantum case, ``x = 0`` the classical baseline.

    Notes
    -----
    With ``A = T[m,k]*T[n,l]`` and ``B = T[m,l]*T[n,k]``::

        m != n:  |A|^2 + |B|^2 + 2 x Re(A conj(B))
        m == n:  (1 + x) |T[m,k]*T[m,l]|^2

    The bunched convention interpolates one classical path (``x = 0``)
    up to the factor-2 boson enhancement (``x = 1``).
    """
    t = matrix.entries if hasattr(matrix, "entries") else np.asarray(matrix, dtype=np.complex128)
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must be in [0, 1], got {overlap}")
    k, l = inputs
    m, n = outputs
    if k == l:
        raise ValueError("input channels must be distinct")
    n_out, n_in = t.shape
    for name, idx, limit in (("k", k, n_in), ("l", l, n_in), ("m", m, n_out), ("n", n, n_out)):
        if not 0 <= idx < limit:
            raise ValueError(f"channel {name} = {idx} out of range [0, {limit})")
    if m == n:
        return float((1.0 + overlap) * abs(t[m, k] * t[m, l]) ** 2)
    a = t[m, k] * t[n, l]
    b = t[m, l] * t[n, k]
    return float(abs(a) ** 2 + abs(b) ** 2 + 2.0 * overlap * (a * np.conj(b)).real)


def transmit(matrix: TransmissionMatrix, field: np.ndarray) -> np.ndarray:
    """Propagate an input field vector through the medium.

    ``field`` must have length ``matrix.n_in`` and finite entries; the
    result is the output field vector of length ``matrix.n_out``.
    """
    field = np.asarray(field, dtype=np.complex128)
    if field.ndim != 1 or field.shape[0] != matrix.n_in:
        raise ValueError(f"input field has length {field.shape}, expected ({matrix.n_in},)")
    if not np.all(np.isfinite(field.view(np.float64))):
        raise ValueError("input field must be finite")
    return matrix.entries @ field


def shaped_input(pattern: PhasePattern, n_in: int) -> np.ndarray:
    """Unit-power input field realizing a pattern, ``(..., n_in)`` for a stack of rows, zero off its channels."""
    field = np.zeros((*pattern.phases.shape[:-1], n_in), dtype=np.complex128)
    field[..., pattern.segment_to_channel] = np.exp(1j * pattern.phases) / np.sqrt(pattern.n_segments)
    return field
