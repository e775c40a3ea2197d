"""Lambertian line-of-sight channel and fingerprint matrices.

A downward LED and an upward photodetector both face vertically, so with
vertical separation ``dz`` and link distance ``d`` the emission and
incidence cosines are both ``dz / d``, and the Lambertian link gain (Kahn
and Barry 1997) is

    g = C dz^(m+1) / d^(m+3),   C = (m+1)/(2 pi) * area * filter * concentrator

and exactly 0 where ``dz / d < cos(fov)``; ``gain_to_range`` inverts it for
``d``.  Gains are real and nonnegative;
the correlation fingerprint takes products over anchor pairs, and its
i == j rows, the squared gains, are the power fingerprint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import PdOptics


def lambertian_order(half_power_angle_deg: float) -> float:
    """Lambertian order from the half-power angle: -ln 2 / ln cos(angle)."""
    if not 0 < half_power_angle_deg < 90:
        raise ValueError("half-power angle must be in (0, 90) degrees")
    return -math.log(2.0) / math.log(math.cos(math.radians(half_power_angle_deg)))


def gain_coefficient(pd: PdOptics, m: float) -> float:
    """The link law's ``C = (m+1)/(2 pi) * area * filter * concentrator``."""
    return (m + 1.0) / (2.0 * math.pi) * pd.detector_area * pd.filter_gain \
        * pd.concentrator_gain


def _links(anchors: np.ndarray, points: np.ndarray, pd: PdOptics, m: float):
    """Offsets ``anchor - point`` (M, P, 3), squared distances and gains (M, P)."""
    delta = anchors[:, None, :] - points[None, :, :]
    dz = delta[:, :, 2]
    if np.any(dz <= 0):
        raise ValueError("receiver points must lie strictly below the LED plane")
    dist_sq = np.sum(delta * delta, axis=2)
    gains = gain_coefficient(pd, m) * dz ** (m + 1.0) / np.sqrt(dist_sq) ** (m + 3.0)
    # sin(90 - fov) is cos(fov), and exactly 0 at fov = 90 degrees
    gains[dz * dz < math.sin(math.radians(90.0 - pd.fov)) ** 2 * dist_sq] = 0.0
    return delta, dist_sq, gains


def gain_to_range(gain, vertical_gap, pd: PdOptics, m: float):
    """The law inverted: link distance ``d`` from a gain and its vertical gap,
    ``d = (C dz^(m+1) / g)^(1/(m+3))``."""
    return (gain_coefficient(pd, m) * vertical_gap ** (m + 1.0) / gain) \
        ** (1.0 / (m + 3.0))


def gains_to_points(anchors: np.ndarray, points: np.ndarray,
                    pd: PdOptics, m: float) -> np.ndarray:
    """Channel gains from every anchor (M, 3) to every receiver point (P, 3).

    Returns (M, P) with entry (i, p) the gain of the link from anchor i to
    point p.  Points must lie strictly below the LEDs.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return _links(anchors, points, pd, m)[2]


@dataclass(frozen=True, eq=False)
class GainModel:
    """Continuous gain law of a scene: the links to any receiver position.

    The one home of the anchors (M, 3), of the law's parameters and of the
    receiver height.  Fingerprints sample it at cell centers, refinement
    evaluates it and its gradient at free positions on the receiver plane,
    lateration inverts it.
    """

    anchors: np.ndarray
    pd: PdOptics
    m: float
    height: float  # receiver plane

    def _points(self, xy: np.ndarray) -> np.ndarray:
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        return np.column_stack([xy, np.full(xy.shape[0], self.height)])

    def gains(self, xy: np.ndarray) -> np.ndarray:
        """Gains (M, P) at receiver positions ``xy`` (P, 2)."""
        return _links(self.anchors, self._points(xy), self.pd, self.m)[2]

    def gains_and_gradients(self, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gains (M, P) at receiver positions ``xy`` (P, 2) and their gradients.

        The gradient of the link law with respect to the receiver position is
        ``(m+3) g (a - p) / d^2``, zero wherever the gain is.  Returns the
        gradients as (M, P, 2).
        """
        delta, dist_sq, gains = _links(self.anchors, self._points(xy), self.pd, self.m)
        grads = ((self.m + 3.0) * gains / dist_sq)[:, :, None] * delta[:, :, :2]
        return gains, grads


@dataclass(frozen=True)
class PairIndexMap:
    """Bijection between unordered anchor pairs (i <= j) and matrix rows.

    Rows follow lexicographic pair order: (0,0), (0,1), ..., (0,M-1), (1,1),
    ..., (M-1,M-1), so there are ``len(first)`` of them.  ``diagonal_rows``
    marks the rows that carry the noise floor in correlation measurements.
    """

    first: np.ndarray  # (M(M+1)/2,) anchor i of each row
    second: np.ndarray  # (M(M+1)/2,) anchor j of each row
    diagonal_rows: np.ndarray  # (M,) rows with i == j

    @classmethod
    def for_anchor_count(cls, m: int) -> "PairIndexMap":
        first, second = np.triu_indices(m)
        diagonal = np.nonzero(first == second)[0]
        for index in (first, second, diagonal):
            index.setflags(write=False)
        return cls(first=first, second=second, diagonal_rows=diagonal)


def build_correlation_fingerprint(gains: np.ndarray) -> tuple[np.ndarray, PairIndexMap]:
    """Correlation fingerprint over anchor pairs.

    Row for pair (i, j) holds ``gains[i] * gains[j]`` columnwise, so the
    (M(M+1)/2, N) result contains the power fingerprint on its i == j rows.
    """
    pairs = PairIndexMap.for_anchor_count(gains.shape[0])
    return gains[pairs.first] * gains[pairs.second], pairs
