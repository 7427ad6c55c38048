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
    _chart_density,
    _tensor_rule,
    _weighted_area,
    graded_interval_rule,
    interval_rule,
    product_rectangle_rule,
    sphere_volume,
    surface_measure,
)
from .sphere_geom import SphericalCap, as_unit, fold_factor, moebius_factor
from .veronese import veronese_apply, veronese_jacobian

__all__ = [
    "circle_arc",
    "veronese_patch",
    "cap_patch",
    "LimitRow",
    "fold_limit_volume",
    "moebius_limit_volume",
]

GRADED_LEVELS = 26  # refinement levels toward the focus on a one-parameter chart
GRADED_TENSOR_LEVELS = 14  # per axis of a two-parameter chart, keeping the node count sane
GRADED_PANEL_POINTS = 12  # Gauss-Legendre points per panel
CIRCLE_ARC_NODES = 64  # Gauss-Legendre nodes of circle_arc's own rule
VERONESE_PATCH_NODES = (20, 20)  # (polar, azimuth) nodes of veronese_patch's rule
CAP_PATCH_NODES = (16, 32)  # (radial, angular) nodes of cap_patch's rule


def circle_arc(through, toward, angle_range=(-math.pi, math.pi), name=""):
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

    nodes, weights = interval_rule(angle_range[0], angle_range[1], CIRCLE_ARC_NODES)
    return ParamSurface(
        param_dim=1,
        chart=chart,
        nodes=nodes,
        weights=weights,
        jacobian=jacobian,
        name=name or "circle-arc",
        param_range=(float(angle_range[0]), float(angle_range[1])),
    )


def veronese_patch(polar_range, azimuth_range, name="veronese-patch"):
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

    nodes, weights = product_rectangle_rule(polar_range, azimuth_range, *VERONESE_PATCH_NODES)
    return ParamSurface(
        param_dim=2,
        chart=chart,
        nodes=nodes,
        weights=weights,
        jacobian=jacobian,
        name=name,
        param_range=(tuple(map(float, polar_range)), tuple(map(float, azimuth_range))),
    )


def cap_patch(pole, opening_angle, name="cap-patch"):
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

    nodes, weights = product_rectangle_rule((0.0, 1.0), (0.0, 2.0 * math.pi), *CAP_PATCH_NODES)
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
    """Per-axis (lo, hi) parameter bounds from the surface's param_range."""
    rng = surface.param_range
    if rng is None:
        raise DomainError(f"surface {surface.name!r} has no param_range")
    if np.ndim(rng[0]) == 0:
        return [(float(rng[0]), float(rng[1]))]
    return [(float(lo), float(hi)) for lo, hi in rng]


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


def _limit_rows(surface, table, bound, band):
    """One LimitRow per (parameter, focus, weight) triple of `table`.

    Each distinct focus gets a coarse and a fine graded rule, built once with
    the chart points and area densities at their nodes.  A row's volume is
    its weighted area on the fine rule; the coarse-fine gap is its error.
    A row is within its bound up to the relative slack band >= 0.
    """
    if not band >= 0.0:
        raise DomainError(f"band must be a nonnegative relative slack, got {band!r}")
    box = _param_box(surface)
    levels = GRADED_LEVELS if len(box) == 1 else GRADED_TENSOR_LEVELS

    def graded(focus, depth, panel_points):
        per_axis = [
            graded_interval_rule(lo, hi, float(f), levels=depth, panel_points=panel_points)
            for (lo, hi), f in zip(box, focus)
        ]
        ruled = surface.with_rule(*(per_axis[0] if len(box) == 1 else _tensor_rule(*per_axis)))
        return (ruled, *_chart_density(ruled))

    rules, rows = {}, []
    for parameter, focus, weight in table:
        key = tuple(focus)
        if key not in rules:
            rules[key] = (
                graded(focus, levels, GRADED_PANEL_POINTS),
                graded(focus, levels + 6, GRADED_PANEL_POINTS + 4),
            )
        coarse, fine = (_weighted_area(*rule, weight) for rule in rules[key])
        within = bool(fine <= bound * (1.0 + band))
        rows.append(LimitRow(parameter, fine, abs(fine - coarse), bound, within))
    return rows


def fold_limit_volume(surface, pole, t_values, band=0.02):
    """Volume of the folded surface for each cap parameter t.

    The bound column is volume(full sphere) + volume(surface): the fold can
    at most add one copy of the sphere as the complement cap collapses.
    """
    pole = as_unit(np.asarray(pole, dtype=float))
    dim = surface.param_dim
    bound = sphere_volume(dim) + surface_measure(surface)
    focus = _focus_point(surface, lambda pts: pts @ pole)
    caps = [SphericalCap(pole, float(t)) for t in t_values]
    table = [(cap.t, focus, lambda pts, cap=cap: fold_factor(cap, pts) ** dim) for cap in caps]
    return _limit_rows(surface, table, bound, band)


def moebius_limit_volume(surface, ball_points, band=0.02):
    """Volume of the Moebius-translated surface for each ball point x.

    The bound column is the sphere volume: as |x| -> 1 the image volume can
    approach at most one full sphere (attained only by surfaces through the
    point antipodal to the limit direction).  Collinear ball points share a
    focus, and with it their graded rules.
    """
    dim = surface.param_dim
    table = []
    for x in ball_points:
        x = np.asarray(x, dtype=float)

        def weight(points, x=x):
            return moebius_factor(x, points) ** dim

        focus = _focus_point(surface, lambda pts: -(pts @ x))
        table.append((float(np.linalg.norm(x)), focus, weight))
    return _limit_rows(surface, table, sphere_volume(dim), band)
