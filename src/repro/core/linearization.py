"""GORDIAN-L style net-weight linearization [14].

A quadratic objective over-penalizes long nets relative to the linear
half-perimeter metric actually measured.  Sigl/Doll/Johannes observed that
re-weighting each net by the inverse of its current extent turns the
quadratic solve into one Gauss-Seidel step toward the *linear* optimum:

    w_net_axis  <-  w_net / max(span_axis, gamma)

computed separately per axis.  The factors are normalized to mean one so the
overall stiffness of the spring system — and with it the balance against the
(absolute) additional forces — stays comparable between iterations.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..netlist import Placement


def linearization_factors(
    placement: Placement, gamma: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-net, per-axis factors ``1 / max(span, gamma)``, mean-normalized.

    ``gamma`` guards against division by ~zero spans; a good choice is a
    small fraction of the region dimension or the average cell width.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    nl = placement.netlist
    if nl.num_pins == 0:
        return np.ones(nl.num_nets), np.ones(nl.num_nets)
    px, py = placement.pin_coords()
    seg = nl.net_ptr[:-1]
    span_x = np.maximum.reduceat(px, seg) - np.minimum.reduceat(px, seg)
    span_y = np.maximum.reduceat(py, seg) - np.minimum.reduceat(py, seg)
    fx = 1.0 / np.maximum(span_x, gamma)
    fy = 1.0 / np.maximum(span_y, gamma)
    fx /= fx.mean()
    fy /= fy.mean()
    # Cap the relative spread: un-capped, a pile of coincident cells gets
    # quasi-rigid springs (factor ~ region/γ above the mean) that no density
    # force can pull apart, and the pile never legalizes.
    fx = np.clip(fx, 0.1, 10.0)
    fy = np.clip(fy, 0.1, 10.0)
    return fx, fy
