"""Constant-velocity Kalman filter over batches of (cx, cy, aspect, height) box states.

The 8-dimensional state is (cx, cy, a, h, vcx, vcy, va, vh): box center,
aspect ratio w/h, height, and their per-frame velocities with dt fixed at one
frame. Process and measurement noise are diagonal with standard deviations
proportional to the box height (position-like components) except for the
dimensionless aspect ratio, which uses small constant stds.

Each component moves only with its own velocity and all noise is diagonal,
so the 8x8 covariance is four independent 2x2 (component, velocity) blocks
with exact zeros elsewhere. A belief keeps only the blocks, as cov rows p_xx,
p_xv and p_vv with one column per axis. The elementwise formulas below are
the 8x8 ones with the zero terms dropped and every sum taken in the same
order, so they give the same bytes.

A batch of beliefs and a single one run through the same code (``predict``
and ``update`` are the names for single use), and a row's result does not
depend on the other rows of its batch. The operations never write to the
state they are given and return fresh arrays that the caller owns.

``MotionState(mean, cov)`` checks its arrays. The filter's results and the
tracker's gathers of them are float64 of matching shapes by construction, so
``MotionState._of`` holds them without checking them again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MotionState", "KalmanFilter"]

NDIM = 4
_INIT_SCALE = np.array([2.0, 2.0, 1.0, 2.0, 10.0, 10.0, 1.0, 10.0])  # initiate's std inflation


@dataclass(frozen=True)
class MotionState:
    """Gaussian beliefs over box states: mean (N, 8) and cov (N, 3, 4) for a
    batch of N, or mean (8,) and cov (3, 4) for one belief.

    The arrays are held as given (converted to float, not copied); indexing
    with rows returns the batch of those rows.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim not in (1, 2) or mean.shape[-1:] != (2 * NDIM,) or (
            cov.shape != mean.shape[:-1] + (3, NDIM)
        ):
            raise ValueError(
                f"expected mean (N, 8) or (8,) and cov (N, 3, 4) or (3, 4), "
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

    @classmethod
    def _of(cls, mean: np.ndarray, cov: np.ndarray) -> MotionState:
        """Hold built float64 arrays of matching shapes without the checks."""
        state = object.__new__(cls)
        object.__setattr__(state, "mean", mean)
        object.__setattr__(state, "cov", cov)
        return state


class KalmanFilter:
    """Constant-velocity filter with height-scaled noise.

    pos_weight scales position-like stds, vel_weight velocity-like stds, both
    relative to the current box height (both read at construction). Initiation
    inflates position stds by 2x and velocity stds by 10x. Aspect-ratio
    components use the constant stds aspect_pos_std / aspect_vel_std instead.
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
        pw, vw = self.pos_weight, self.vel_weight  # the stds' height factors
        self._weights = np.array([pw, pw, 0.0, pw, vw, vw, 0.0, vw])

    def _variances(self, h, scale=None) -> np.ndarray:
        """Per-row noise variances (..., 8) for heights h, positions first:
        each std is (weight * h) * scale, except the aspect stds, which are
        constant and never scaled."""
        std = h[..., None] * self._weights
        if scale is not None:
            std *= scale
        std[..., 2] = self.aspect_pos_std
        std[..., 6] = self.aspect_vel_std
        return np.square(std, out=std)

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
        mean = np.zeros(m.shape[:-1] + (2 * NDIM,))
        mean[..., :NDIM] = m
        cov = np.zeros(m.shape[:-1] + (3, NDIM))
        cov[..., ::2, :] = self._variances(m[..., 3], _INIT_SCALE).reshape(cov[..., ::2, :].shape)
        return MotionState._of(mean, cov)

    def predict_many(self, states: MotionState) -> MotionState:
        """Advance every belief one frame under the constant-velocity model."""
        # noise scales must stay positive even for degraded predicted states
        q = self._variances(np.maximum(states.mean[..., 3], 1e-3))
        mean = states.mean.copy()
        mean[..., :NDIM] += mean[..., NDIM:]
        # the rows p_xx, p_xv and p_vv, of one belief or across the batch;
        # p_xv + p_vv is row 1 and a term of row 0
        p_xx, p_xv, p_vv = states.cov.swapaxes(0, -2)
        cov = np.empty_like(states.cov)
        cov[..., 1, :] = xv = p_xv + p_vv
        cov[..., 0, :] = (p_xx + p_xv) + xv + q[..., :NDIM]
        cov[..., 2, :] = p_vv + q[..., NDIM:]
        return MotionState._of(mean, cov)

    def update_many(self, states: MotionState, measurements) -> MotionState:
        """Correct every belief with its associated (cx, cy, a, h) measurement,
        one row of measurements per state."""
        zs = np.asarray(measurements, dtype=float).reshape(states.mean.shape[:-1] + (NDIM,))
        p_xx, p_xv, p_vv = states.cov.swapaxes(0, -2)
        s = p_xx + self._variances(np.maximum(states.mean[..., 3], 1e-3))[..., :NDIM]
        # p * (1 / s) rather than p / s, and p_xv as the average of the two
        # unequal off-diagonal products, give the 8x8 reference filter's bytes
        inv = 1.0 / s
        k_x, k_v = p_xx * inv, p_xv * inv
        innovation = zs - states.mean[..., :NDIM]
        mean = states.mean + np.concatenate([k_x * innovation, k_v * innovation], axis=-1)
        xs, vs = k_x * s, k_v * s
        cov = np.empty_like(states.cov)
        cov[..., 0, :] = p_xx - xs * k_x
        cov[..., 1, :] = ((p_xv - xs * k_v) + (p_xv - vs * k_x)) / 2.0
        cov[..., 2, :] = p_vv - vs * k_v
        return MotionState._of(mean, cov)

    predict = predict_many
    update = update_many
