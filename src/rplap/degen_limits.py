"""Degenerate-limit experiments: folds collapsing caps and Moebius collapse.

Volumes of folded or Moebius-translated surface charts are computed with the
exact conformal stretch factors (1 inside a cap / the reflection stretch
outside; the Moebius stretch (1-|x|^2)/(1+|x|^2+2x.s)), integrated on
parameter rules geometrically refined toward the concentration point.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import DomainError
from .quadrature import (
    ParamSurface,
    _tensor_rule,
    graded_interval_rule,
    interval_rule,
    product_rectangle_rule,
    sphere_volume,
    surface_measure,
)
from .sphere_geom import SphericalCap, as_unit, fold_factor, moebius_apply, moebius_factor
from .veronese import veronese_apply, veronese_jacobian

__all__ = [
    "circle_arc",
    "veronese_patch",
    "cap_patch",
    "LimitRow",
    "fold_limit_volume",
    "moebius_limit_volume",
    "moebius_area_two_routes",
]

GRADED_LEVELS = 26  # refinement levels toward the focus on a one-parameter chart
GRADED_TENSOR_LEVELS = 14  # per axis of a two-parameter chart, keeping the node count sane
GRADED_PANEL_POINTS = 12  # Gauss-Legendre points per panel


def circle_arc(through, toward, angle_range=(-math.pi, math.pi), count=64, name=""):
    """Unit-speed great-circle arc through `through` heading toward `toward`.

    The chart is theta -> cos(theta) a + sin(theta) b with a = through and b
    the unit component of `toward` orthogonal to a; theta runs over
    angle_range; the full circle is (-pi, pi].
    """
    a = as_unit(np.asarray(through, dtype=float))
    b = np.asarray(toward, dtype=float)
    b = b - (b @ a) * a
    norm = np.linalg.norm(b)
    if norm < 1e-12:
        raise DomainError("arc direction parallel to its base point")
    b = b / norm

    def chart(params):
        theta = np.atleast_2d(params)[:, 0]
        return np.cos(theta)[:, None] * a + np.sin(theta)[:, None] * b

    def jacobian(params):
        theta = np.atleast_2d(params)[:, 0]
        vel = -np.sin(theta)[:, None] * a + np.cos(theta)[:, None] * b
        return vel[:, :, None]

    nodes, weights = interval_rule(angle_range[0], angle_range[1], count)
    return ParamSurface(
        param_dim=1,
        chart=chart,
        nodes=nodes,
        weights=weights,
        jacobian=jacobian,
        name=name or "circle-arc",
        param_range=(float(angle_range[0]), float(angle_range[1])),
    )


def veronese_patch(polar_range, azimuth_range, counts=(20, 20), name="veronese-patch"):
    """Veronese image of a (polar, azimuth) rectangle on S^2, as a chart into S^4."""

    def sphere_point(params):
        params = np.atleast_2d(params)
        polar, azimuth = params[:, 0], params[:, 1]
        return np.stack(
            [
                np.sin(polar) * np.cos(azimuth),
                np.sin(polar) * np.sin(azimuth),
                np.cos(polar),
            ],
            axis=-1,
        )

    def chart(params):
        return veronese_apply(2, sphere_point(params))

    def jacobian(params):
        params = np.atleast_2d(params)
        polar, azimuth = params[:, 0], params[:, 1]
        base = sphere_point(params)
        d_polar = np.stack(
            [
                np.cos(polar) * np.cos(azimuth),
                np.cos(polar) * np.sin(azimuth),
                -np.sin(polar),
            ],
            axis=-1,
        )
        d_azimuth = np.stack(
            [
                -np.sin(polar) * np.sin(azimuth),
                np.sin(polar) * np.cos(azimuth),
                np.zeros_like(polar),
            ],
            axis=-1,
        )
        jac = veronese_jacobian(2, base)
        return np.stack(
            [
                np.einsum("kmi,ki->km", jac, d_polar),
                np.einsum("kmi,ki->km", jac, d_azimuth),
            ],
            axis=-1,
        )

    nodes, weights = product_rectangle_rule(polar_range, azimuth_range, *counts)
    return ParamSurface(
        param_dim=2,
        chart=chart,
        nodes=nodes,
        weights=weights,
        jacobian=jacobian,
        name=name,
        param_range=(tuple(map(float, polar_range)), tuple(map(float, azimuth_range))),
    )


def cap_patch(pole, opening_angle, counts=(16, 32), name="cap-patch"):
    """Geodesic cap around `pole` on S^2 charted over a flat rectangle."""
    pole = as_unit(np.asarray(pole, dtype=float))
    if pole.shape[0] != 3:
        raise DomainError("cap_patch builds surfaces on S^2")
    seed_dir = np.eye(3)[0] if abs(pole[0]) < 0.9 else np.eye(3)[1]
    u = seed_dir - (seed_dir @ pole) * pole
    u /= np.linalg.norm(u)
    v = np.cross(pole, u)

    def chart(params):
        params = np.atleast_2d(params)
        radial = params[:, 0] * opening_angle
        angle = params[:, 1]
        rim = np.cos(angle)[:, None] * u + np.sin(angle)[:, None] * v
        return np.cos(radial)[:, None] * pole + np.sin(radial)[:, None] * rim

    def jacobian(params):
        params = np.atleast_2d(params)
        radial = params[:, 0] * opening_angle
        angle = params[:, 1]
        rim = np.cos(angle)[:, None] * u + np.sin(angle)[:, None] * v
        d_rim = -np.sin(angle)[:, None] * u + np.cos(angle)[:, None] * v
        d_radial = opening_angle * (
            -np.sin(radial)[:, None] * pole + np.cos(radial)[:, None] * rim
        )
        d_angle = np.sin(radial)[:, None] * d_rim
        return np.stack([d_radial, d_angle], axis=-1)

    nodes, weights = product_rectangle_rule((0.0, 1.0), (0.0, 2.0 * math.pi), *counts)
    return ParamSurface(
        param_dim=2,
        chart=chart,
        nodes=nodes,
        weights=weights,
        jacobian=jacobian,
        name=name,
        param_range=((0.0, 1.0), (0.0, 2.0 * math.pi)),
    )


@dataclass(frozen=True)
class LimitRow:
    parameter: float
    volume: float
    quad_error: float
    bound: float
    within_bound: bool


def _param_box(surface):
    """Per-axis (lo, hi) parameter bounds, from the stored range or the nodes."""
    rng = surface.param_range
    if rng is not None:
        if np.ndim(rng[0]) == 0:
            return [(float(rng[0]), float(rng[1]))]
        return [(float(lo), float(hi)) for lo, hi in rng]
    return [
        (float(np.min(surface.nodes[:, j])), float(np.max(surface.nodes[:, j])))
        for j in range(surface.param_dim)
    ]


def _focus_point(surface, score):
    """Parameter point maximizing `score(chart(z))` on a dense scan of the box."""
    box = _param_box(surface)
    if len(box) == 1:
        dense = np.linspace(box[0][0], box[0][1], 4001)[:, None]
    else:
        axes = [np.linspace(lo, hi, 201) for lo, hi in box]
        grid = np.meshgrid(*axes, indexing="ij")
        dense = np.stack([g.ravel() for g in grid], axis=-1)
    values = score(surface.chart(dense))
    return dense[int(np.argmax(values))]


def _graded_nodes(box, focus, levels, panel_points):
    per_axis = [
        graded_interval_rule(lo, hi, float(f), levels=levels, panel_points=panel_points)
        for (lo, hi), f in zip(box, focus)
    ]
    return per_axis[0] if len(per_axis) == 1 else _tensor_rule(*per_axis)


def _weighted_volume(surface, weight, focus):
    box = _param_box(surface)
    levels = GRADED_LEVELS if len(box) == 1 else GRADED_TENSOR_LEVELS
    nodes, weights = _graded_nodes(box, focus, levels, GRADED_PANEL_POINTS)
    coarse = surface_measure(surface, weight=weight, nodes=nodes, weights=weights)
    nodes2, weights2 = _graded_nodes(box, focus, levels + 6, GRADED_PANEL_POINTS + 4)
    fine = surface_measure(surface, weight=weight, nodes=nodes2, weights=weights2)
    return fine, abs(fine - coarse)


def fold_limit_volume(surface, pole, t_values, band=0.02):
    """Volume of the folded surface for each cap parameter t.

    The bound column is volume(full sphere) + volume(surface): the fold can
    at most add one copy of the sphere as the complement cap collapses.
    """
    pole = as_unit(np.asarray(pole, dtype=float))
    dim = surface.param_dim
    base_area = surface_measure(surface)
    bound = sphere_volume(dim) + base_area
    focus = _focus_point(surface, lambda pts: pts @ pole)
    rows = []
    for t in t_values:
        cap = SphericalCap(pole, float(t))

        def weight(points, cap=cap):
            return fold_factor(cap, points) ** dim

        volume, err = _weighted_volume(surface, weight, focus)
        rows.append(
            LimitRow(
                parameter=float(t),
                volume=volume,
                quad_error=err,
                bound=bound,
                within_bound=bool(volume <= bound * (1.0 + band)),
            )
        )
    return rows


def moebius_limit_volume(surface, ball_points, band=0.02):
    """Volume of the Moebius-translated surface for each ball point x.

    The bound column is the sphere volume: as |x| -> 1 the image volume can
    approach at most one full sphere (attained only by surfaces through the
    point antipodal to the limit direction).
    """
    dim = surface.param_dim
    bound = sphere_volume(dim)
    rows = []
    for x in ball_points:
        x = np.asarray(x, dtype=float)

        def weight(points, x=x):
            return moebius_factor(x, points) ** dim

        focus = _focus_point(surface, lambda pts: -(pts @ x))
        volume, err = _weighted_volume(surface, weight, focus)
        rows.append(
            LimitRow(
                parameter=float(np.linalg.norm(x)),
                volume=volume,
                quad_error=err,
                bound=bound,
                within_bound=bool(volume <= bound * (1.0 + band)),
            )
        )
    return rows


def moebius_area_two_routes(surface, ball_point):
    """Image volume under T_x computed two independent ways.

    Route one weights the original chart by the conformal stretch to the
    appropriate power; route two differentiates the composed chart directly.
    Both use the surface's own parameter rule.
    """
    x = np.asarray(ball_point, dtype=float)
    dim = surface.param_dim

    def weight(points):
        return moebius_factor(x, points) ** dim

    weighted = surface_measure(surface, weight=weight)

    composed = ParamSurface(
        param_dim=surface.param_dim,
        chart=lambda params: moebius_apply(x, surface.chart(params)),
        nodes=surface.nodes,
        weights=surface.weights,
        jacobian=None,
        name=surface.name + "+moebius",
    )
    direct = surface_measure(composed)
    return weighted, direct
