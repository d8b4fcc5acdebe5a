"""Seeded k-means with farthest-point initialization.

Deterministic for a fixed (points, k, seed): restart sub-seeds are spawned
from the master seed in a fixed order, argmin/argmax ties resolve to the
lowest index, and the best restart is chosen by strict inertia improvement
so equal-inertia runs keep the earliest one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence

MAX_ITER = 300
DEFAULT_RESTARTS = 8
# extra sub-seeds available to replace restarts that collapse a cluster
_ATTEMPT_FACTOR = 8


@dataclass(frozen=True)
class KMeansResult:
    labels: np.ndarray
    inertia: float
    n_iter: int
    converged: bool


def _farthest_point_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    chosen = [int(rng.integers(points.shape[0]))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        d2 = np.minimum(d2, ((points - points[nxt]) ** 2).sum(axis=1))
    return points[chosen].copy()


def _lloyd(points: np.ndarray, centers: np.ndarray):
    """Run assignment/update rounds until assignments are stable.

    Returns (labels, centers, n_iter, state) with state True when converged,
    False when MAX_ITER was exhausted, None when a cluster emptied.
    """
    labels = None
    for it in range(1, MAX_ITER + 1):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            return labels, centers, it, True
        labels = new_labels
        for c in range(centers.shape[0]):
            members = points[labels == c]
            if members.shape[0] == 0:
                return labels, centers, it, None
            centers[c] = members.mean(axis=0)
    return labels, centers, MAX_ITER, False


def kmeans(points: np.ndarray, k: int, seed: int) -> KMeansResult:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < k:
        raise ValueError(f"need at least k={k} points, got shape {points.shape}")
    pool = np.random.SeedSequence(seed).spawn(DEFAULT_RESTARTS * _ATTEMPT_FACTOR)
    best = None
    successes = 0
    attempts = 0
    for sub_seed in pool:
        if successes >= DEFAULT_RESTARTS:
            break
        attempts += 1
        rng = np.random.default_rng(sub_seed)
        init = _farthest_point_init(points, k, rng)
        labels, centers, n_iter, state = _lloyd(points, init)
        if state is None:
            continue
        successes += 1
        inertia = float(((points - centers[labels]) ** 2).sum())
        if best is None or inertia < best.inertia:
            best = KMeansResult(
                labels=labels,
                inertia=inertia,
                n_iter=n_iter,
                converged=bool(state),
            )
    if best is None:
        raise NonConvergence(
            f"every restart produced an empty cluster after {attempts} attempts"
        )
    return best
