"""Brute-force 3D reference for the ball probability: |A|^2 summed over the
ball's cells, so it shares no geometry with the library's reduction to one
radial integral against the sphere-cap weight."""

import itertools
import math

import numpy as np

from lcdisc import amplitude_on_radii

# subcell centres about the centre of a unit cell, 8 per axis
SUBCELLS = np.stack(np.meshgrid(*[(np.arange(8) + 0.5) / 8 - 0.5] * 3,
                                indexing="ij"), -1).reshape(-1, 3)


def cells(R: float, grid_n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Centres of the interior and of the boundary cells among grid_n^3
    cubes of side h = 2 R / grid_n tiling the ball's bounding box, and h."""
    h = 2.0 * R / grid_n
    axis = ((np.arange(grid_n) + 0.5) - grid_n / 2) * h
    centres = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1)
    dist = np.sqrt(np.sum(centres * centres, axis=-1))
    half_diag = 0.5 * math.sqrt(3.0) * h
    return (centres[dist + half_diag <= R],
            centres[np.abs(dist - R) < half_diag], h)


def inside_probability_3d(profile, R: float, t: float, grid_n: int) -> float:
    """P_in of the ball of radius R about the origin at time t, the packet
    centre at (0, 0, offset_d).  Interior cells take a 2x2x2 Gauss rule
    (cell centres alone leave an O(h^2) volume term); a boundary cell its
    volume fraction inside at that portion's centroid (no staircase)."""
    inner, boundary, h = cells(R, grid_n)
    frac, centroid = cell_inside_fractions(boundary, R, h)

    def distance(points):
        points[:, 2] -= profile.offset_d
        return np.sqrt(np.sum(points * points, axis=1))

    g = 0.5 * h / math.sqrt(3.0)
    rho = [distance(inner + s) for s in itertools.product((-g, g), repeat=3)]
    rho.append(distance(centroid[frac > 0.0]))
    weights = np.concatenate((np.full(8 * len(inner), 0.125),
                              frac[frac > 0.0]))
    # the cells' mirror symmetry repeats most radii many times over
    radii, index = np.unique(np.concatenate(rho), return_inverse=True)
    amp = amplitude_on_radii(profile, radii, t)[index]
    return float(h ** 3 * np.dot(weights, amp.real ** 2 + amp.imag ** 2))


def cell_inside_fractions(centres: np.ndarray, R: float,
                          h: float) -> tuple[np.ndarray, np.ndarray]:
    """Volume fraction inside the ball of radius R about the origin of each
    cube of side h about ``centres``, counted on its subcells, and the
    centroid of that portion (the cube's centre where it is empty).  Of
    each class of mirrored and axis-swapped cubes only the one whose centre
    holds their sorted |coordinates| is counted; its centroid maps back
    through each cube's axis order and signs."""
    magnitudes = np.abs(centres)
    order = np.argsort(magnitudes, axis=1, kind="stable")
    classes, which = np.unique(np.take_along_axis(magnitudes, order, axis=1),
                               axis=0, return_inverse=True)
    points = classes[:, None, :] + h * SUBCELLS
    inside = np.sum(points * points, axis=2) <= R * R
    counts = inside.sum(axis=1)
    sums = np.sum(points * inside[:, :, None], axis=1)
    class_centroid = np.where(counts[:, None] > 0,
                              sums / np.maximum(counts, 1)[:, None], classes)
    centroid = np.empty_like(centres)
    np.put_along_axis(centroid, order, class_centroid[which], axis=1)
    centroid *= np.where(centres < 0.0, -1.0, 1.0)
    return counts[which] / len(SUBCELLS), centroid
