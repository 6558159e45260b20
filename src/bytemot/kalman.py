"""Constant-velocity Kalman filter over batches of (cx, cy, aspect, height) box states.

The 8-dimensional state is (cx, cy, a, h, vcx, vcy, va, vh): box center,
aspect ratio w/h, height, and their per-frame velocities with dt fixed at one
frame. Process and measurement noise are diagonal with standard deviations
proportional to the box height (position-like components) except for the
dimensionless aspect ratio, which uses small constant stds.

There is one code path. A MotionState is a batch of N beliefs, mean (N, 8) and
cov (N, 8, 8), and ``initiate``, ``predict_many`` and ``update_many`` compute
every row with the same numpy operations, so a row's result does not depend on
the other rows of its batch. A single belief (mean (8,), cov (8, 8)) runs
through the same code; ``predict`` and ``update`` are the names for that use.
The operations never write to the state they are given and return fresh
arrays that the caller owns: the tracker keeps them as its track table and
scatters updated rows back into it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MotionState", "KalmanFilter"]

NDIM = 4
_DIAG = np.arange(2 * NDIM)


@dataclass(frozen=True)
class MotionState:
    """Gaussian beliefs over box states: mean (N, 8) and cov (N, 8, 8) for a
    batch of N, or mean (8,) and cov (8, 8) for one belief.

    The arrays are held as given (converted to float, not copied); indexing
    with rows returns the batch of those rows.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim not in (1, 2) or mean.shape[-1:] != (2 * NDIM,) or (
            cov.shape != mean.shape + (2 * NDIM,)
        ):
            raise ValueError(
                f"expected mean (N, 8) or (8,) and cov (N, 8, 8) or (8, 8), "
                f"got {mean.shape} and {cov.shape}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def __len__(self) -> int:
        if self.mean.ndim != 2:
            raise TypeError("a single MotionState has no len()")
        return len(self.mean)

    def __getitem__(self, rows) -> MotionState:
        return MotionState(self.mean[rows], self.cov[rows])


def _symmetric(cov: np.ndarray) -> np.ndarray:
    return (cov + cov.swapaxes(-1, -2)) / 2.0


class KalmanFilter:
    """Constant-velocity filter with height-scaled noise.

    pos_weight scales position-like stds, vel_weight velocity-like stds, both
    relative to the current box height. Initiation inflates position stds by
    2x and velocity stds by 10x. Aspect-ratio components use the constant
    stds aspect_pos_std / aspect_vel_std instead of height scaling.
    """

    def __init__(
        self,
        pos_weight: float = 1.0 / 20.0,
        vel_weight: float = 1.0 / 160.0,
        aspect_pos_std: float = 1e-2,
        aspect_vel_std: float = 1e-5,
    ):
        self.pos_weight = float(pos_weight)
        self.vel_weight = float(vel_weight)
        self.aspect_pos_std = float(aspect_pos_std)
        self.aspect_vel_std = float(aspect_vel_std)

        self._motion = np.eye(2 * NDIM)
        self._motion[:NDIM, NDIM:] = np.eye(NDIM)

    def _stds(self, h: np.ndarray, pos_scale: float = 1.0, vel_scale: float = 1.0) -> np.ndarray:
        """Per-row noise stds (..., 8) for heights h; the aspect stds are
        constant and never scaled."""
        std = np.empty(np.shape(h) + (2 * NDIM,))
        std[..., 0] = std[..., 1] = std[..., 3] = self.pos_weight * h * pos_scale
        std[..., 4] = std[..., 5] = std[..., 7] = self.vel_weight * h * vel_scale
        std[..., 2] = self.aspect_pos_std
        std[..., 6] = self.aspect_vel_std
        return std

    def initiate(self, measurements) -> MotionState:
        """Create states from unassociated (cx, cy, a, h) measurements, one
        per row of an (N, 4) array (or one 4-vector).

        Velocities start at exactly zero with inflated uncertainty.
        """
        m = np.asarray(measurements, dtype=float)
        if m.ndim not in (1, 2) or m.shape[-1:] != (NDIM,):
            raise ValueError(f"expected (N, 4) or (4,) measurements, got shape {m.shape}")
        if np.any(m[..., 3] <= 0.0):
            raise ValueError(f"measurement heights must be positive, got {m[..., 3]}")
        std = self._stds(m[..., 3], 2.0, 10.0)
        mean = np.zeros(std.shape)
        mean[..., :NDIM] = m
        cov = np.zeros(std.shape + (2 * NDIM,))
        cov[..., _DIAG, _DIAG] = std * std
        return MotionState(mean, cov)

    def predict_many(self, states: MotionState) -> MotionState:
        """Advance every belief one frame under the constant-velocity model."""
        # noise scales must stay positive even for degraded predicted states
        std = self._stds(np.maximum(states.mean[..., 3], 1e-3))
        mean = states.mean @ self._motion.T
        cov = self._motion @ states.cov @ self._motion.T
        cov[..., _DIAG, _DIAG] += std * std
        return MotionState(mean, _symmetric(cov))

    def update_many(self, states: MotionState, measurements) -> MotionState:
        """Correct every belief with its associated (cx, cy, a, h) measurement,
        one row of measurements per state.

        Raises numpy.linalg.LinAlgError if an innovation covariance is
        singular, which cannot happen with the positive-definite default noise.
        """
        means, covs = states.mean, states.cov
        zs = np.asarray(measurements, dtype=float).reshape(means.shape[:-1] + (NDIM,))
        r_std = self._stds(np.maximum(means[..., 3], 1e-3))[..., :NDIM]

        # innovation covariance S = H cov H' + R, with H selecting the position block
        proj_cov = covs[..., :NDIM, :NDIM].copy()
        proj_cov[..., _DIAG[:NDIM], _DIAG[:NDIM]] += r_std * r_std
        # gain K = cov H' S^-1
        b = covs[..., :, :NDIM]
        gain = np.linalg.solve(proj_cov, b.swapaxes(-1, -2)).swapaxes(-1, -2)
        mean = means + np.einsum("...ij,...j->...i", gain, zs - means[..., :NDIM])
        cov = covs - gain @ proj_cov @ gain.swapaxes(-1, -2)
        return MotionState(mean, _symmetric(cov))

    predict = predict_many
    update = update_many
