"""Random transmission matrices of a multiple-scattering medium.

A thick scattering layer couples every input channel to every output
channel.  At the level of monochromatic fields that coupling is a single
complex matrix ``T``: output field amplitudes are ``T @ input``.  Two
ensembles are provided:

- ``gaussian_transmission_matrix`` draws i.i.d. circular complex Gaussian
  entries, the maximal-entropy model of a deeply multiple-scattering
  medium.  Entry variance is ``1/n_in`` so every row has unit expected
  power throughput and speckle statistics are dimension-free.
- ``haar_unitary`` draws a lossless medium from the uniform (rotation
  invariant) measure, the ground truth for checks that need exact photon
  number conservation.

All generation is deterministic in ``(kind, dims, seed)``, on the
streams of :mod:`specklesim.rng`.  A Gaussian medium draws its rows when
first read, as a prefix of its one row-major stream.
"""

from __future__ import annotations

import enum
import functools
import struct
import threading
from pathlib import Path

import numpy as np

from .rng import Stream, check_integer, check_seed, read_only_copy, rng_for

__all__ = [
    "MatrixKind",
    "TransmissionMatrix",
    "gaussian_transmission_matrix",
    "haar_unitary",
    "matrix_bytes",
    "save_matrix",
    "load_matrix",
]

_UNITARITY_TOL = 1e-10
DIM_RULE = (1, 2**32, "positive integer below 2**32")  # check_integer's range and text for a channel count


class MatrixKind(enum.Enum):
    GAUSSIAN = "gaussian"
    UNITARY = "unitary"


class TransmissionMatrix:
    """Complex channel-coupling matrix of a scattering medium.

    ``entries[i, j]`` is the field-transmission coefficient from input
    channel ``j`` to output channel ``i``.  A Gaussian medium draws rows
    on demand as a prefix of its one row-major stream: :meth:`rows` draws
    up to the last row it reads and ``entries`` the rest, with the bytes
    of one whole draw.  It holds exactly the rows drawn so far, so a medium
    read at a few rows costs a few rows of memory; a medium built from an
    array holds its own copy of every row.  The rows held are one read-only
    array, so instances are immutable, and a lock guards the draw, so they
    are safe to share across threads.
    """

    def __init__(self, entries, kind: MatrixKind, seed: int, *, _n_out: int | None = None, _fill=None) -> None:
        # a copy of its own; a Gaussian medium starts with no row, _fill draws them
        entries = read_only_copy(entries, np.complex128)
        shape = entries.shape if _n_out is None else (_n_out, *entries.shape[1:])
        if len(shape) != 2 or min(shape) < 1:
            raise ValueError(f"entries must be a 2-d matrix with positive dims, got shape {shape}")
        if not np.all(np.isfinite(entries.view(np.float64))):
            raise ValueError("entries must all be finite")
        self.kind = MatrixKind(kind)
        self.seed = check_seed(seed)
        self.n_out, self.n_in = shape
        self._entries = entries
        self._fill = _fill
        self._lock = threading.Lock()
        if self.kind is MatrixKind.UNITARY:
            if self.n_out != self.n_in:
                raise ValueError("unitary ensemble requires a square matrix")
            gram = entries.conj().T @ entries
            if np.max(np.abs(gram - np.eye(self.n_in))) > _UNITARITY_TOL:
                raise ValueError(f"matrix is not unitary within {_UNITARITY_TOL}")

    def __setattr__(self, name: str, value) -> None:
        if name != "_entries" and name in self.__dict__:  # all set once, in __init__
            raise AttributeError(f"cannot assign {name!r}: a medium is immutable")
        object.__setattr__(self, name, value)

    @property
    def entries(self) -> np.ndarray:
        return self._draw_to(self.n_out)

    def rows(self, idx) -> np.ndarray:
        """``entries[idx]`` for output rows ``idx``, drawing only up to ``max(idx) + 1``."""
        flat = np.asarray(idx)
        if flat.size == 0 or flat.dtype.kind not in "iu" or flat.min() < 0 or flat.max() >= self.n_out:
            raise ValueError(f"rows {idx!r} must be a non-empty selection of [0, {self.n_out})")
        return self._draw_to(int(flat.max()) + 1)[flat.tolist()]

    def _draw_to(self, stop: int) -> np.ndarray:
        """The held rows, after growing them to exactly ``stop`` if fewer are held."""
        with self._lock:
            held = self._entries
            if stop <= held.shape[0]:
                return held
            grown = np.empty((stop, self.n_in), dtype=np.complex128)
            grown[: held.shape[0]] = held
            self._fill(grown[held.shape[0]:])
            grown.flags.writeable = False
            self._entries = grown
            return grown


def gaussian_transmission_matrix(n_out: int, n_in: int, seed: int) -> TransmissionMatrix:
    """Draw a maximal-entropy (i.i.d. complex Gaussian) transmission matrix.

    Parameters
    ----------
    n_out, n_in:
        Positive channel counts (rows, columns).
    seed:
        64-bit unsigned seed; the same ``(dims, seed)`` regenerates
        bit-identical entries.

    Notes
    -----
    Each entry is circular complex Gaussian with mean 0 and total
    variance ``1/n_in``, i.e. real and imaginary parts are independent
    normal with variance ``1/(2 n_in)``.  Rows then have expected squared
    norm 1, so programmed-circuit amplitudes are O(1) at any width.  The
    medium is not lossless on average: a unit-power input leaves with
    expected total power ``n_out / n_in``.
    """
    n_out, n_in = check_integer("n_out", n_out, *DIM_RULE), check_integer("n_in", n_in, *DIM_RULE)
    # standard normals times sqrt(0.5 / n_in), 1 <= n_in < 2**32: always finite
    fill = functools.partial(_fill_normal, rng_for(seed, Stream.GAUSSIAN), np.sqrt(0.5 / n_in))
    return TransmissionMatrix(np.empty((0, n_in)), MatrixKind.GAUSSIAN, seed, _n_out=n_out, _fill=fill)


def haar_unitary(n: int, seed: int) -> TransmissionMatrix:
    """Draw an ``n x n`` unitary from the uniform (Haar) measure.

    QR-orthonormalizes a complex Ginibre matrix and then rephases each
    column by the phase of the corresponding diagonal entry of the
    triangular factor.  The rephasing is mandatory: without it the raw QR
    output is biased and entry statistics drift away from the uniform
    measure.
    """
    n = check_integer("n", n, *DIM_RULE)
    rng = rng_for(seed, Stream.UNITARY)
    ginibre = _fill_normal(rng, np.sqrt(0.5), np.empty((n, n), dtype=np.complex128))
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r)
    # diag entries vanish only on a measure-zero set; guard anyway
    mag = np.abs(diag)
    phase = np.where(mag > 0, diag / np.where(mag > 0, mag, 1.0), 1.0)
    entries = q * phase
    return TransmissionMatrix(entries=entries, kind=MatrixKind.UNITARY, seed=seed)


def _fill_normal(rng: np.random.Generator, scale: float, out: np.ndarray) -> np.ndarray:
    """Fill a complex128 array in place with complex normals ``scale * (x + i y)``.

    The draws come in row-major (real, imaginary) pairs, the layout of a
    complex128 array, so the float view of ``out`` is filled and scaled
    with no temporary copy.  The stream is the one ``(rows, n_in, 2)``
    normals give, the bytes equal those of ``(x + 1j * y) * scale``, and
    filling consecutive row blocks continues the same stream.
    """
    floats = out.view(np.float64)
    rng.standard_normal(out=floats)
    floats *= scale
    return out


# ---------------------------------------------------------------------------
# Binary container
#
# Layout (all little-endian):
#   bytes  0..7   magic  b"SPKLTMAT"
#   bytes  8..11  format version (u32, currently 1)
#   bytes 12..15  reserved (u32, zero)
#   bytes 16..31  n_out (u64), n_in (u64)
#   bytes 32..39  kind tag (u32: 0 gaussian, 1 unitary), reserved (u32)
#   bytes 40..47  seed (u64)
#   payload       n_out*n_in complex values, row-major, interleaved
#                 (real, imaginary) float64
# ---------------------------------------------------------------------------

_MAGIC = b"SPKLTMAT"
_VERSION = 1
_KIND_CODES = {MatrixKind.GAUSSIAN: 0, MatrixKind.UNITARY: 1}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}


def matrix_bytes(matrix: TransmissionMatrix) -> bytes:
    """A matrix as binary container bytes; round-trips bit-exactly."""
    header = struct.pack("<8sII", _MAGIC, _VERSION, 0)
    dims = struct.pack("<QQ", matrix.n_out, matrix.n_in)
    meta = struct.pack("<IIQ", _KIND_CODES[matrix.kind], 0, matrix.seed)
    payload = np.ascontiguousarray(matrix.entries, dtype="<c16").tobytes()
    return header + dims + meta + payload


def save_matrix(matrix: TransmissionMatrix, path: str | Path) -> None:
    """Write :func:`matrix_bytes` of a matrix to ``path``."""
    Path(path).write_bytes(matrix_bytes(matrix))


def load_matrix(path: str | Path) -> TransmissionMatrix:
    """Read a matrix from a container written by :func:`save_matrix`."""
    blob = Path(path).read_bytes()
    if len(blob) < 48:
        raise ValueError(f"{path}: truncated container")
    magic, version, _ = struct.unpack_from("<8sII", blob, 0)
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported container version {version}")
    n_out, n_in = struct.unpack_from("<QQ", blob, 16)
    kind_code, _, seed = struct.unpack_from("<IIQ", blob, 32)
    if kind_code not in _CODE_KINDS:
        raise ValueError(f"{path}: unknown kind tag {kind_code}")
    expected = 48 + 16 * n_out * n_in
    if len(blob) != expected:
        raise ValueError(f"{path}: payload size {len(blob) - 48} does not match dims {n_out}x{n_in}")
    entries = np.frombuffer(blob, dtype="<c16", offset=48).reshape(n_out, n_in)
    return TransmissionMatrix(entries=entries, kind=_CODE_KINDS[kind_code], seed=seed)
