"""Two-photon output statistics of a programmed 2x2 circuit.

A 2x2 circuit carved out of a scattering medium maps input modes
``(k, l)`` to output modes ``(m, n)`` with the field matrix
``t * [[1, 1], [1, exp(i*alpha)]]``.  Because the two monitored outputs
are a tiny sub-space of the medium, the circuit is in general lossy and
non-unitary; it is embeddable in a physical (unitary) medium only while
its largest singular value stays at or below one.

For one photon in each input, this module provides:

- the closed-form six-outcome distribution, a six-array in the order of
  :data:`OUTCOME_LABELS` ``(2m0n, 0m2n, 1m1n, 1m0n, 0m1n, 0m0n)``, the one
  form of the outcome law that delay scans and counting use;
- partial distinguishability as a scalar overlap ``x`` in [0, 1] that
  weights the two-photon interference cross term (exact for pure photons
  with identical Gaussian envelopes and a relative delay);
- analytic Hong-Ou-Mandel delay scans and Monte Carlo coincidence
  counting with Poisson multi-pair emission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .rng import Stream, check_integer, read_only_copy, rng_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .shaping import ProgrammedCircuit

__all__ = [
    "EmbeddabilityError",
    "UndefinedVisibilityError",
    "OUTCOME_LABELS",
    "PhotonPairSource",
    "SOURCE_PRESETS",
    "VisibilityResult",
    "CoincidenceScan",
    "embeddability_bound",
    "check_embeddable",
    "outcome_probabilities",
    "permanent",
    "pair_outcome_components",
    "overlap_from_delay",
    "rms_bandwidth_from_filter_fwhm",
    "source_preset",
    "visibility",
    "hom_scan",
    "montecarlo_counts",
]

_SPEED_OF_LIGHT = 299_792_458.0
_CENTER_WAVELENGTH_M = 790e-9  # signal and idler centre wavelength
PULSE_RATE_HZ = 76e6  # pump laser repetition rate
# mean_pairs_per_pulse's (text, test); the 2 covers click probabilities above 1 in the embeddability band
PAIR_RATE_RULE = ("nonnegative number with a finite pair rate", lambda x: 0.0 <= x and 2 * x * PULSE_RATE_HZ < math.inf)

_PERMANENT_MAX_SIDE = 20
_MC_CHUNK = 1 << 16  # pulses per substream, and most pairs per draw; fixed, part of the stream contract


class EmbeddabilityError(ValueError):
    """Circuit parameters cannot sit inside any unitary medium."""


class UndefinedVisibilityError(ValueError):
    """Visibility is undefined when the reference rate is zero."""


class DegenerateFitError(ValueError):
    """Least-squares fit has singular normal equations."""


OUTCOME_LABELS = ("2m0n", "0m2n", "1m1n", "1m0n", "0m1n", "0m0n")

# whether detector m, and detector n, clicks for each outcome label above
_CLICKS_M = np.array([label[0] != "0" for label in OUTCOME_LABELS])
_CLICKS_N = np.array([label[2] != "0" for label in OUTCOME_LABELS])


def _click_runs(clicks: np.ndarray) -> np.ndarray:
    """Rows ``(start, stop)``: the runs of consecutive outcomes ``start..stop-1`` on which a detector clicks."""
    return np.flatnonzero(np.diff(clicks, prepend=False, append=False)).reshape(-1, 2)


_RUNS_M = _click_runs(_CLICKS_M)
_RUNS_N = _click_runs(_CLICKS_N)


def embeddability_bound(alpha: float) -> float:
    """Largest splitting amplitude ``t`` embeddable at a given phase.

    The 2x2 form ``t*[[1, 1], [1, exp(i*alpha)]]`` has largest singular
    value ``t*sqrt(2 + 2*|cos(alpha/2)|)``; requiring it to stay at or
    below one gives ``t_max = 1/sqrt(2 + 2*|cos(alpha/2)|)``.  Only at
    ``alpha = pi`` does the bound reach ``1/sqrt(2)``, the lossless 50:50
    splitter.
    """
    return 1.0 / math.sqrt(2.0 + 2.0 * abs(math.cos(alpha / 2.0)))


def check_embeddable(sigma: float) -> None:
    """Raise :class:`EmbeddabilityError` if a block's largest singular value exceeds ``1 + 1e-9``.

    The band above 1 absorbs rounding at the bound.  Ideal settings meet
    :func:`embeddability_bound` exactly in :func:`outcome_probabilities`.
    """
    if sigma > 1.0 + 1e-9:
        raise EmbeddabilityError(f"largest singular value {sigma:.17g} exceeds 1: block is not embeddable")


def check_amplitude(t: float) -> None:
    """Raise ``ValueError`` unless the splitter amplitude ``t`` is nonnegative; NaN is not."""
    if not t >= 0:
        raise ValueError(f"t must be nonnegative, got {t}")


def outcome_probabilities(t: float, alpha: float) -> np.ndarray:
    """Closed-form outcome distribution for two indistinguishable photons.

    Parameters
    ----------
    t:
        Common field amplitude of the programmed splitter, ``t >= 0``.
    alpha:
        Programmed relative phase in radians.

    Returns
    -------
    numpy.ndarray
        A read-only float64 ``(6,)`` array ``[p20, p02, p11, p10, p01,
        p00]`` in the order of :data:`OUTCOME_LABELS`, with ``u = t**2``::

            p20 = p02 = 2 u**2
            p11 = 2 u**2 (1 + cos alpha)
            p10 = p01 = 2 u - 2 u**2 (3 + cos alpha)
            p00 = 1 - 4 u + 2 u**2 (3 + cos alpha)

        The six components always sum to one.  Each is clipped to
        ``[0, 1]``: IEEE residue at the bound may dip a hair below zero.

    Raises
    ------
    EmbeddabilityError
        If ``t`` exceeds :func:`embeddability_bound` for this ``alpha``
        (exactly the parameter region that would produce negative
        probabilities).
    """
    check_amplitude(t)
    bound = embeddability_bound(alpha)
    if t > bound:
        raise EmbeddabilityError(
            f"t = {t:.17g} violates the embeddability bound t <= {bound:.17g} "
            f"at alpha = {alpha:.17g} rad (largest singular value would exceed 1)"
        )
    u = t * t
    c = math.cos(alpha)
    p20 = 2.0 * u * u
    p11 = 2.0 * u * u * (1.0 + c)
    p10 = 2.0 * u - 2.0 * u * u * (3.0 + c)
    p00 = 1.0 - 4.0 * u + 2.0 * u * u * (3.0 + c)
    return read_only_copy(np.clip([p20, p20, p11, p10, p10, p00], 0.0, 1.0))


# An oracle like those of specklesim.oracles, kept here because the benchmark
# traces it as twophoton.permanent.
def permanent(matrix: np.ndarray) -> complex:
    """Exact matrix permanent by subset-sum inclusion-exclusion.

    ``perm(A) = (-1)^n sum_{S != {}} (-1)^{|S|} prod_i sum_{j in S} A[i, j]``

    Cost is ``O(2^n * n)``; the side is capped at 20.  Subsets are
    processed in vectorized blocks.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"permanent requires a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > _PERMANENT_MAX_SIDE:
        raise ValueError(f"matrix side {n} exceeds the supported maximum {_PERMANENT_MAX_SIDE}")
    if n == 0:
        return 1.0 + 0.0j
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError("matrix entries must be finite")

    bit_index = np.arange(n, dtype=np.uint64)
    total = 0.0 + 0.0j
    block = 1 << 14
    for start in range(1, 1 << n, block):
        stop = min(start + block, 1 << n)
        subsets = np.arange(start, stop, dtype=np.uint64)
        masks = ((subsets[:, None] >> bit_index[None, :]) & np.uint64(1)).astype(np.float64)
        row_sums = masks @ a.T
        products = row_sums.prod(axis=1)
        parity = (n - masks.sum(axis=1)) % 2
        signs = 1.0 - 2.0 * parity
        total += (signs * products).sum()
    return complex(total)


def pair_outcome_components(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form six-outcome probabilities for one photon per input.

    Returns ``(indistinguishable, distinguishable)`` six-vectors ordered as
    :data:`OUTCOME_LABELS`, mixed as ``x*ind + (1-x)*dist`` at overlap ``x``.
    For ``block = [[a, b], [c, d]]`` (rows m, n; columns k, l), ``(p20, p02,
    p11)`` is ``(2|ab|^2, 2|cd|^2, |ad + bc|^2)`` for indistinguishable and
    ``(|ab|^2, |cd|^2, |ad|^2 + |bc|^2)`` for distinguishable photons.  The
    mean photon number at m, ``|a|^2 + |b|^2 = 2 p20 + p11 + p10``, does not
    depend on distinguishability and fixes ``p10`` (likewise ``p01``);
    ``p00`` completes the sum.  A stack ``(..., 2, 2)`` gives ``(..., 6)``
    rows with each block's own bits.  Raises :class:`EmbeddabilityError`
    if :func:`check_embeddable` rejects any block.
    """
    m = np.asarray(block, dtype=np.complex128)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"block must be 2x2, got shape {m.shape}")
    check_embeddable(float(np.max(np.linalg.svd(m, compute_uv=False))))
    a, b, c, d = m.reshape(-1, 4).T
    bunch_m = np.abs(a * b) ** 2
    bunch_n = np.abs(c * d) ** 2
    power_m = np.abs(a) ** 2 + np.abs(b) ** 2
    power_n = np.abs(c) ** 2 + np.abs(d) ** 2

    def outcomes(p20: np.ndarray, p02: np.ndarray, p11: np.ndarray) -> np.ndarray:
        p10 = power_m - 2.0 * p20 - p11
        p01 = power_n - 2.0 * p02 - p11
        return np.stack([p20, p02, p11, p10, p01, 1.0 - (p20 + p02 + p11 + p10 + p01)], axis=-1)

    ind = outcomes(2.0 * bunch_m, 2.0 * bunch_n, np.abs(a * d + b * c) ** 2)
    dist = outcomes(bunch_m, bunch_n, np.abs(a * d) ** 2 + np.abs(b * c) ** 2)
    return ind.reshape(*m.shape[:-2], 6), dist.reshape(*m.shape[:-2], 6)


# ---------------------------------------------------------------------------
# Photon-pair source
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhotonPairSource:
    """Spectral and emission model of a pulsed down-conversion pair source.

    ``intrinsic_overlap`` is the indistinguishability of the two photons
    at zero delay (residual spectral mismatch keeps it below one);
    ``rms_angular_bandwidth`` sets how fast the overlap decays with
    delay; ``mean_pairs_per_pulse`` is the Poisson mean of the number of
    pairs emitted per pump pulse.
    """

    rms_angular_bandwidth: float
    intrinsic_overlap: float
    mean_pairs_per_pulse: float

    def __post_init__(self) -> None:
        for name, expected, ok in (
            ("rms_angular_bandwidth", "positive number", 0.0 < self.rms_angular_bandwidth < math.inf),
            ("intrinsic_overlap", "number in [0, 1]", 0.0 <= self.intrinsic_overlap <= 1.0),
            ("mean_pairs_per_pulse", PAIR_RATE_RULE[0], PAIR_RATE_RULE[1](self.mean_pairs_per_pulse)),
        ):
            if not ok:
                raise ValueError(f"{name}: expected {expected}, got {getattr(self, name)!r}")


def rms_bandwidth_from_filter_fwhm(fwhm_nm: float) -> float:
    """Convert a Gaussian bandpass FWHM in nm at 790 nm to an rms angular bandwidth.

    Conversion chain:
      sigma_lambda = FWHM / (2 sqrt(2 ln 2))   (Gaussian FWHM to rms)
      sigma_nu     = c * sigma_lambda / lambda^2
      sigma_omega  = 2 pi * sigma_nu           (rad/s)
    """
    if not 0.0 < fwhm_nm < math.inf:
        raise ValueError(f"fwhm_nm: expected positive number, got {fwhm_nm!r}")
    sigma_lambda = fwhm_nm * 1e-9 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    sigma_nu = _SPEED_OF_LIGHT * sigma_lambda / _CENTER_WAVELENGTH_M**2
    return 2.0 * math.pi * sigma_nu


# Named source calibrations used by the reference scenarios.  The overlap
# values are configuration, chosen to reproduce the visibility levels of
# an unfiltered and a 1.5 nm filtered down-conversion source; the
# unfiltered spectral width is a modeling default, only its ratio to the
# filtered width matters downstream.
SOURCE_PRESETS: dict[str, dict[str, float]] = {
    "broadband": {"overlap": 0.64, "filter_fwhm_nm": 4.5, "mean_pairs_per_pulse": 0.01},
    "filtered": {"overlap": 0.86, "filter_fwhm_nm": 1.5, "mean_pairs_per_pulse": 0.01},
    "highpower": {"overlap": 0.64, "filter_fwhm_nm": 4.5, "mean_pairs_per_pulse": 0.5},
}


def source_preset(
    name: str,
    *,
    overlap: float | None = None,
    filter_fwhm_nm: float | None = None,
    mean_pairs_per_pulse: float | None = None,
) -> PhotonPairSource:
    """Build a pair source from a named preset, with optional overrides."""
    if name not in SOURCE_PRESETS:
        known = ", ".join(sorted(SOURCE_PRESETS))
        raise ValueError(f"unknown source preset {name!r}; known presets: {known}")
    preset = SOURCE_PRESETS[name]
    fwhm = preset["filter_fwhm_nm"] if filter_fwhm_nm is None else filter_fwhm_nm
    return PhotonPairSource(
        rms_angular_bandwidth=rms_bandwidth_from_filter_fwhm(fwhm),
        intrinsic_overlap=preset["overlap"] if overlap is None else overlap,
        mean_pairs_per_pulse=(
            preset["mean_pairs_per_pulse"] if mean_pairs_per_pulse is None else mean_pairs_per_pulse
        ),
    )


def overlap_from_delay(source: PhotonPairSource, delay_s):
    """Indistinguishability overlap at a relative delay.

    ``x(tau) = intrinsic_overlap * exp(-(sigma_omega * tau)^2)`` for a
    Gaussian spectral envelope: unity-minus-mismatch at zero delay,
    monotonically decaying to zero.  Accepts scalar or array delays,
    which must be finite.
    """
    tau = np.asarray(delay_s, dtype=float)
    if not np.isfinite(tau).all():
        raise ValueError(f"delay_s: expected finite delays, got {float(tau[~np.isfinite(tau)][0])!r}")
    x = source.intrinsic_overlap * np.exp(-((source.rms_angular_bandwidth * tau) ** 2))
    return float(x) if np.isscalar(delay_s) or tau.ndim == 0 else x


# ---------------------------------------------------------------------------
# Visibility and scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class VisibilityResult:
    """A visibility ``v`` from :func:`visibility`, a float or an array over a stack, and its standard error."""

    v: float | np.ndarray
    std_err: float = 0.0

    def __post_init__(self) -> None:
        if not self.std_err >= 0:  # NaN fails too
            raise ValueError("std_err must be nonnegative")


def visibility(r_indist, r_dist, std_err: float = 0.0) -> VisibilityResult:
    """Normalized dip/peak depth ``v = (r_indist - r_dist) / r_dist`` of two coincidence rates.

    Negative values are dips, positive values peaks.  Takes floats or arrays; raises
    :class:`UndefinedVisibilityError` unless every reference rate ``r_dist`` is positive.
    """
    r_indist, r_dist = (np.asarray(rate, dtype=float)[()] for rate in (r_indist, r_dist))
    if np.any(r_dist <= 0):
        raise UndefinedVisibilityError(f"r_dist = {r_dist} must be positive")
    return VisibilityResult((r_indist - r_dist) / r_dist, std_err)


def cosine_design(alphas: np.ndarray) -> tuple[np.ndarray, float]:
    """``(cos(alphas), sum(cos(alphas)**2))`` to fit ``V0 * cos(alpha)``; raises if every ``cos(alpha)`` vanishes."""
    cos = np.cos(alphas)
    norm = float(np.sum(cos * cos))
    if norm < 1e-20:  # cos(pi/2) is ~6e-17 in floats: rounding, not signal
        raise DegenerateFitError("all cos(alpha) vanish; V0 is unconstrained")
    return cos, norm


def check_grid(name: str, values) -> np.ndarray:
    """A read-only copy of a scan grid, which must be a non-empty, finite, 1-d array: the one grid rule."""
    grid = read_only_copy(values)
    if grid.ndim != 1 or grid.size == 0 or not np.isfinite(grid).all():
        raise ValueError(f"{name}: expected a non-empty, finite, 1-d array, got {values!r}")
    return grid


def check_scan(record, grid: str, *columns: str, signed: tuple[str, ...] = (), stacked: bool = False) -> None:
    """The one scan-record rule: give a frozen ``record`` read-only copies of its grid and columns.

    The grid follows :func:`check_grid`.  Each column must be finite and
    have the grid's shape, or end in it for a ``(..., grid)`` stack when
    ``stacked``; columns not named in ``signed`` must be nonnegative.
    """
    object.__setattr__(record, grid, check_grid(grid, getattr(record, grid)))
    shape = getattr(record, grid).shape
    for name in columns:
        column = read_only_copy(getattr(record, name))
        object.__setattr__(record, name, column)
        if (column.shape[-1:] if stacked else column.shape) != shape:
            raise ValueError(f"{name} must match the {grid} grid of shape {shape}, got shape {column.shape}")
        if not np.all(np.isfinite(column) & (column >= (-np.inf if name in signed else 0.0))):
            raise ValueError(f"{name} must be finite" + ("" if name in signed else " and nonnegative"))


@dataclass(frozen=True, eq=False)
class CoincidenceScan:
    """Coincidence and singles rates versus relative delay, ``(..., delays)`` for a stack, as read-only copies."""

    delays: np.ndarray
    coincidence_rate: np.ndarray
    singles_m: np.ndarray
    singles_n: np.ndarray

    def __post_init__(self) -> None:
        check_scan(self, "delays", "coincidence_rate", "singles_m", "singles_n", stacked=True)


def hom_scan(circuit: "ProgrammedCircuit", source: PhotonPairSource, delays) -> CoincidenceScan:
    """Noiseless Hong-Ou-Mandel delay scan of a programmed circuit, one row per phase of a grid.

    At each delay the pair overlap follows :func:`overlap_from_delay`;
    coincidence and singles rates are the corresponding per-pulse outcome
    probabilities scaled by the pair emission rate at the fixed 76 MHz
    pulse rate.  At large delay the coincidence rate settles on the
    distinguishable baseline; at zero delay the relative modulation is
    ``intrinsic_overlap * cos(alpha)`` for an ideally programmed circuit.

    The rates are linear in ``mean_pairs_per_pulse``: this is the
    ``mu -> 0`` limit, which ignores multi-pair emission.
    :func:`montecarlo_counts` samples Poisson multi-pair emission and shows the
    multi-pair loss of visibility.
    """
    delays = check_grid("delays", delays)
    ind, dist = pair_outcome_components(circuit.sub_matrix)
    x = overlap_from_delay(source, delays)[:, None]
    probs = x * ind[..., None, :] + (1.0 - x) * dist[..., None, :]
    scale = source.mean_pairs_per_pulse * PULSE_RATE_HZ
    click_m, click_n, both = (
        scale * probs[..., clicks].sum(axis=-1) for clicks in (_CLICKS_M, _CLICKS_N, _CLICKS_M & _CLICKS_N)
    )
    return CoincidenceScan(delays=delays, coincidence_rate=both, singles_m=click_m, singles_n=click_n)


def montecarlo_counts(
    circuit: "ProgrammedCircuit", source: PhotonPairSource, n_pulses: int, seed: int, *, delay_s: float = 0.0
) -> tuple[int, int, int]:
    """Sampled click statistics of one 2x2 circuit, not a stack, over a train of pump pulses.

    Per pulse the pair count is Poisson with the source mean; each pair
    propagates through the circuit independently (no spectral correlation
    between pairs), photons leaving through unselected channels are
    absorbed, and the two ideal detectors are non-number-resolving per pulse.
    A coincidence is a pulse in which both detectors click.

    Returns ``(singles_m, singles_n, coincidences)`` as integer counts.

    Stream contract: pulses come in chunks of 65536, chunk ``c`` drawing
    from ``rng_for(seed, Stream.MONTECARLO, c)``; the fixed chunk size
    fixes the stream and bounds memory.  A chunk of ``size`` pulses draws
    its total pair count as one ``poisson(mu * size)`` variate, which by
    Poisson splitting leaves the pulses' pair counts i.i.d. Poisson(mu).
    Then, in pieces of at most 65536 pairs, a piece of ``n`` pairs draws
    ``integers(size, size=n)`` (each pair's pulse) and then ``random(n)``
    (its outcome, by inverse transform of the cumulative six-outcome
    mixture ``x*ind/ind.sum() + (1-x)*dist/dist.sum()`` at overlap ``x``).

    The inverse transform is read by threshold comparisons, not by a
    search: outcome ``k`` holds ``cum[k-1] <= u < cum[k]``, so a detector
    clicks on a draw in one of its runs of clicking outcomes (m:
    ``u < cum[0]`` or ``cum[1] <= u < cum[3]``); ``np.compress`` gathers
    the clicking pulses.  Both equal ``searchsorted(cum, u, "right")`` read
    through the click tables, draw for draw: the counts kept their bytes.
    """
    n_pulses = check_integer("n_pulses", n_pulses)
    circuit._check_one_block("circuit")
    mu = source.mean_pairs_per_pulse
    x = overlap_from_delay(source, delay_s)
    ind, dist = pair_outcome_components(circuit.sub_matrix)
    bounds = _outcome_bounds(x * ind / ind.sum() + (1.0 - x) * dist / dist.sum())

    singles_m = singles_n = coincidences = 0
    for chunk_index, start in enumerate(range(0, n_pulses, _MC_CHUNK)):
        size = min(_MC_CHUNK, n_pulses - start)
        rng = rng_for(seed, Stream.MONTECARLO, chunk_index)
        click_m = np.zeros(size, dtype=bool)
        click_n = np.zeros(size, dtype=bool)
        pairs = int(rng.poisson(mu * size))
        for done in range(0, pairs, _MC_CHUNK):
            count = min(_MC_CHUNK, pairs - done)
            pulse = rng.integers(size, size=count)
            u = rng.random(count)
            click_m[np.compress(_in_runs(u, bounds, _RUNS_M), pulse)] = True
            click_n[np.compress(_in_runs(u, bounds, _RUNS_N), pulse)] = True
        singles_m += int(np.count_nonzero(click_m))
        singles_n += int(np.count_nonzero(click_n))
        coincidences += int(np.count_nonzero(click_m & click_n))
    return singles_m, singles_n, coincidences


def _outcome_bounds(probs: np.ndarray) -> np.ndarray:
    """``[0, cum[0], ..., cum[5]]``: outcome ``k`` of the inverse transform holds ``bounds[k] <= u < bounds[k+1]``."""
    bounds = np.concatenate(([0.0], np.cumsum(probs / probs.sum())))
    bounds[-1] = 1.0
    return bounds


def _in_runs(u: np.ndarray, bounds: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """Whether each draw ``u`` in [0, 1) falls in an outcome of ``runs``, by two comparisons per run."""
    inside = np.zeros(u.shape, dtype=bool)
    for start, stop in runs:
        inside |= (bounds[start] <= u) & (u < bounds[stop])
    return inside
