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


def _frame_surface(frame, ranges, counts, name, scale=1.0, veronese=False):
    """Spherical coordinates (r[, phi]) in the orthonormal frame (e0, e1[, e2]).

    The chart is s = cos(scale r) e0 + sin(scale r)(cos phi e1 + sin phi e2),
    with phi = 0 on a one-parameter chart, or veronese_apply(2, s) when
    `veronese` is set.  Axis i carries a counts[i]-node Gauss-Legendre rule
    on ranges[i].
    """
    ranges = tuple(tuple(map(float, axis)) for axis in ranges)

    def polar(params):
        """(scale r, phi, cos phi e1 + sin phi e2); phi is None on one-parameter charts."""
        params = np.atleast_2d(params)
        radial = params[:, 0] * scale
        if len(ranges) == 1:
            return radial, None, frame[1]
        phi = params[:, 1]
        return radial, phi, np.cos(phi)[:, None] * frame[1] + np.sin(phi)[:, None] * frame[2]

    def sphere(radial, rim):
        return np.cos(radial)[:, None] * frame[0] + np.sin(radial)[:, None] * rim

    def chart(params):
        radial, _, rim = polar(params)
        points = sphere(radial, rim)
        return veronese_apply(2, points) if veronese else points

    def jacobian(params):
        radial, phi, rim = polar(params)
        outer = veronese_jacobian(2, sphere(radial, rim)) if veronese else None

        def pushed(column):
            # one contiguous column at a time keeps the sums' rounding fixed
            return column if outer is None else np.einsum("kmi,ki->km", outer, column)

        columns = [
            pushed(scale * (-np.sin(radial)[:, None] * frame[0] + np.cos(radial)[:, None] * rim))
        ]
        if phi is not None:
            d_rim = -np.sin(phi)[:, None] * frame[1] + np.cos(phi)[:, None] * frame[2]
            columns.append(pushed(np.sin(radial)[:, None] * d_rim))
        return np.stack(columns, axis=-1)

    if len(ranges) == 1:
        nodes, weights = interval_rule(*ranges[0], counts[0])
    else:
        nodes, weights = product_rectangle_rule(*ranges, *counts)
    return ParamSurface(
        param_dim=len(ranges),
        chart=chart,
        nodes=nodes,
        weights=weights,
        jacobian=jacobian,
        name=name,
        param_range=ranges[0] if len(ranges) == 1 else ranges,
    )


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
    return _frame_surface((a, b / norm), [angle_range], [CIRCLE_ARC_NODES], name or "circle-arc")


def veronese_patch(polar_range, azimuth_range, name="veronese-patch"):
    """Veronese image of a (polar, azimuth) rectangle on S^2, as a chart into S^4.

    The polar angle is measured from e3 and the azimuth from e1 toward e2.
    """
    ranges = [polar_range, azimuth_range]
    return _frame_surface(np.eye(3)[[2, 0, 1]], ranges, VERONESE_PATCH_NODES, name, veronese=True)


def cap_patch(pole, opening_angle, name="cap-patch"):
    """Geodesic cap around `pole` on S^2 charted over a flat rectangle.

    The parameters are (polar angle / opening_angle, azimuth) in [0, 1] x [0, 2 pi].
    """
    pole = as_unit(np.asarray(pole, dtype=float))
    if pole.shape[0] != 3:
        raise DomainError("cap_patch builds surfaces on S^2")
    seed_dir = np.eye(3)[0] if abs(pole[0]) < 0.9 else np.eye(3)[1]
    u = seed_dir - (seed_dir @ pole) * pole
    u /= np.linalg.norm(u)
    frame, ranges = (pole, u, np.cross(pole, u)), [(0.0, 1.0), (0.0, 2.0 * math.pi)]
    return _frame_surface(frame, ranges, CAP_PATCH_NODES, name, scale=opening_angle)


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
    axes = [np.linspace(lo, hi, 4001 if len(box) == 1 else 201) for lo, hi in box]
    dense = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    return dense[int(np.argmax(score(surface.chart(dense))))]


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
