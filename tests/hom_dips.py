"""Half width of a Hong-Ou-Mandel dip, read off a sampled delay scan."""

import numpy as np

from specklesim.twophoton import CoincidenceScan


def dip_half_width(scan: CoincidenceScan) -> float:
    """Half width at half depth of a coincidence dip, by interpolation.

    The baseline is the average of the scan's end points; the dip depth
    is measured at the deepest sample and the crossings of the half-depth
    level are located by linear interpolation on both flanks.
    """
    c = scan.coincidence_rate
    tau = scan.delays
    baseline = 0.5 * (c[0] + c[-1])
    bottom = int(np.argmin(c))
    depth = baseline - c[bottom]
    if depth <= 0:
        raise ValueError("scan has no dip")
    level = baseline - 0.5 * depth
    left = _crossing(tau, c, bottom, -1, level)
    right = _crossing(tau, c, bottom, +1, level)
    return 0.5 * (right - left)


def _crossing(tau: np.ndarray, c: np.ndarray, start: int, step: int, level: float) -> float:
    i = start
    while 0 <= i + step < c.size and c[i + step] < level:
        i += step
    j = i + step
    if not 0 <= j < c.size:
        raise ValueError("dip is not resolved inside the scan window")
    # linear interpolation between the bracketing samples
    frac = (level - c[i]) / (c[j] - c[i])
    return float(tau[i] + frac * (tau[j] - tau[i]))
