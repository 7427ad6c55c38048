"""Degenerate-limit experiments: folds collapsing caps and Moebius collapse.

Volumes of folded or Moebius-translated surface charts are computed with the
exact conformal stretch factors (1 inside a cap / the reflection stretch
outside; the Moebius stretch (1-|x|^2)/(1+|x|^2+2x.s)).  Each depends on a
height chart . e alone, a closed form on the chart's lines, so each row's
rule splits them at the fold's kink and grades toward the stretch's peak.
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .errors import DomainError
from .quadrature import (
    _chart_density,
    _graded_panels,
    _weighted_area,
    interval_rule,
    product_rectangle_rule,
    sphere_volume,
    surface_measure,
)
from .sphere_geom import SphericalCap, as_ball, as_unit, fold_factor, moebius_factor
from .veronese import veronese_apply, veronese_jacobian

__all__ = [
    "FrameChart",
    "circle_arc",
    "veronese_patch",
    "cap_patch",
    "LimitRow",
    "fold_limit_volume",
    "moebius_limit_volume",
]

GRADED_PANEL_POINTS = (6, 10)  # Gauss-Legendre points per panel of a row's coarse and fine rule
GRADING_MARGIN = 2  # halvings past the panel that spans the weight's peak width
EVENT_SCAN = 1024  # closed-form samples of the phi axis that bracket its kink events
CIRCLE_ARC_NODES = 64  # Gauss-Legendre nodes of circle_arc's own rule
VERONESE_PATCH_NODES = (20, 20)  # (polar, azimuth) nodes of veronese_patch's rule
CAP_PATCH_NODES = (16, 32)  # (radial, angular) nodes of cap_patch's rule


@dataclass(frozen=True)
class FrameChart:
    """Spherical coordinates (r[, phi]) in the orthonormal frame (e0, e1, e2).

    The chart is s = cos(scale r) e0 + sin(scale r)(cos phi e1 + sin phi e2),
    with e2 = 0 and phi = 0 on a one-parameter chart, or veronese_apply(2, s)
    when `veronese` is set.  Axis i runs over ranges[i] = (lo, hi), and
    (nodes, weights) is a quadrature rule on those parameters.  On the line
    of fixed phi, lift(r, phi) has the one `frequency` in r.
    """

    frame: np.ndarray
    ranges: tuple
    nodes: np.ndarray
    weights: np.ndarray
    name: str
    scale: float = 1.0
    veronese: bool = False

    @property
    def param_dim(self):
        return len(self.ranges)

    @property
    def frequency(self):
        return (2.0 if self.veronese else 1.0) * self.scale

    def with_rule(self, nodes, weights):
        """This chart with the parameter rule (nodes, weights) in place of its own."""
        return replace(self, nodes=nodes, weights=weights)

    def _rims(self, phi):
        """cos phi e1 + sin phi e2 and its phi-derivative."""
        c, s = np.cos(phi)[..., None], np.sin(phi)[..., None]
        return c * self.frame[1] + s * self.frame[2], c * self.frame[2] - s * self.frame[1]

    def _polar(self, params):
        params = np.atleast_2d(params)
        return params[:, 0], params[:, 1] if self.param_dim == 2 else np.zeros(len(params))

    def lift(self, r, phi):
        radial = r * self.scale
        rim = self._rims(phi)[0]
        points = np.cos(radial)[..., None] * self.frame[0] + np.sin(radial)[..., None] * rim
        return veronese_apply(2, points) if self.veronese else points

    def chart(self, params):
        """Parameter rows (N, param_dim) -> ambient rows (N, M+1)."""
        return self.lift(*self._polar(params))

    def jacobian(self, params):
        """Parameter rows (N, param_dim) -> the chart's Jacobian (N, M+1, param_dim)."""
        r, phi = self._polar(params)
        (rim, d_rim), radial = self._rims(phi), r[:, None] * self.scale
        e0, sin = self.frame[0], np.sin(radial)
        outer = self.veronese and veronese_jacobian(2, np.cos(radial) * e0 + sin * rim)
        # one contiguous column at a time keeps the sums' rounding fixed
        push = lambda column: np.einsum("kmi,ki->km", outer, column) if self.veronese else column
        columns = [push(self.scale * (-sin * e0 + np.cos(radial) * rim))]
        if self.param_dim == 2:
            columns.append(push(sin * d_rim))
        return np.stack(columns, axis=-1)


def _frame_chart(frame, ranges, counts, name, **shape):
    """A FrameChart with a counts[i]-node Gauss-Legendre rule on ranges[i]."""
    ranges = tuple(tuple(map(float, axis)) for axis in ranges)
    frame = np.array([*frame, *[0.0 * frame[0]] * (3 - len(frame))])  # e2 = 0 on arcs
    if len(ranges) == 1:
        rule = interval_rule(*ranges[0], counts[0])
    else:
        rule = product_rectangle_rule(*ranges, *counts)
    return FrameChart(frame, ranges, *rule, name, **shape)


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
    return _frame_chart((a, b / norm), [angle_range], [CIRCLE_ARC_NODES], name or "circle-arc")


def veronese_patch(polar_range, azimuth_range, name="veronese-patch"):
    """Veronese image of a (polar, azimuth) rectangle on S^2, as a chart into S^4.

    The polar angle is measured from e3 and the azimuth from e1 toward e2.
    """
    ranges = [polar_range, azimuth_range]
    return _frame_chart(np.eye(3)[[2, 0, 1]], ranges, VERONESE_PATCH_NODES, name, veronese=True)


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
    return _frame_chart(frame, ranges, CAP_PATCH_NODES, name, scale=opening_angle)


@dataclass(frozen=True)
class LimitRow:
    parameter: float
    volume: float
    quad_error: float
    bound: float
    within_bound: bool


def _height_lines(surface, direction):
    """(frequency, lines): lines(phi) = (mean, amp, psi) with chart . direction =
    mean + amp cos(tau - psi) at tau = frequency r on the line of fixed phi."""

    def lines(phi):
        quarters = np.arange(3.0).reshape(-1, *[1] * np.ndim(phi)) * 0.5 * math.pi
        h0, h1, h2 = surface.lift(quarters / surface.frequency, phi) @ direction
        mean = 0.5 * (h0 + h2)
        return mean, np.hypot(h0 - mean, h1 - mean), np.arctan2(h1 - mean, h0 - mean)

    return surface.frequency, lines


def _height(lines, tau):
    return lines[0] + lines[1] * np.cos(tau - lines[2])


def _cuts(lines, span, level):
    """Per line, the height's extrema and its `level` crossings inside span, NaN padded."""
    mean, amp, psi = (v[:, None] for v in lines)
    branch = np.floor((span[0] - psi) / math.pi) + np.arange(int((span[1] - span[0]) / math.pi) + 2)
    start = psi + branch * math.pi  # branch k runs down from a peak (k even) or up from a trough
    with np.errstate(invalid="ignore", divide="ignore"):
        alpha = np.arccos((level - mean) / amp)
    cuts = np.stack([start, start + np.where(branch % 2 == 0, alpha, math.pi - alpha)])
    return np.where((cuts > span[0]) & (cuts < span[1]), cuts, np.nan)


def _line_top(lines, span):
    """Highest height on each line: an interior peak, or else the higher end."""
    peak = lines[2] + 2.0 * math.pi * np.ceil((span[0] - lines[2]) / (2.0 * math.pi))
    ends = np.maximum(_height(lines, span[0]), _height(lines, span[1]))
    return np.where(peak < span[1], lines[0] + lines[1], ends)


def _graded(lo, hi, profile, points, graded=True):
    """Panels on the pieces [lo, hi], each graded toward its end of higher `profile`
    (1 where the weight is singular) until its last panel ends GRADING_MARGIN
    halvings inside the nearest point where 1 - profile doubles."""
    up = profile(hi[:, None])[:, 0] >= profile(lo[:, None])[:, 0]
    high, low = np.where(up, hi, lo), np.where(up, lo, hi)
    probes = high[:, None] + (low - high)[:, None] * 0.5 ** np.arange(64)  # to float resolution
    below = profile(probes) < 2.0 * profile(high[:, None]) - 1.0
    nearest = np.where(below.any(axis=1), 64 - np.argmax(below[:, ::-1], axis=1), 0)
    return _graded_panels(lo, hi, high, graded * (nearest + GRADING_MARGIN - 1), points)


def _line_rule(lines, span, level, width, points):
    """Rule in tau on each line, cut at its extrema and kink roots and graded
    where the weight is not 1; returns nodes, weights and each node's line."""
    cuts = np.sort(np.hstack([*_cuts(lines, span, level), 0 * lines[0][:, None] + span]), axis=1)
    valid = cuts[:, 1:] > cuts[:, :-1]  # NaN padding compares False
    line = np.nonzero(valid)[0]
    lo, hi = cuts[:, :-1][valid], cuts[:, 1:][valid]
    own = tuple(v[line, None] for v in lines)
    above = _height(own, 0.5 * (lo + hi)[:, None])[:, 0] > level
    nodes, weights, counts = _graded(lo, hi, lambda t: _height(own, t) / (1 + width), points, above)
    return nodes, weights, np.repeat(line, counts)


def _phi_cuts(lines, span, box, level, top):
    """Cuts of the phi box at the turns of the line tops and at (returned) events, where a kink
    root meets an r-edge or two merge; a full turn starts at its lowest top."""
    grid = np.linspace(*box, EVENT_SCAN + 1)
    if abs(box[1] - box[0] - 2.0 * math.pi) < 1e-12:
        grid += grid[np.argmin(top(grid))] - box[0]
    count = lambda phi: np.sum(np.isfinite(_cuts(lines(phi), span, level)[1]), axis=1)
    jump = np.nonzero(np.diff(counts := count(grid)))[0]
    lo, hi = grid[jump], grid[jump + 1]
    for _ in range(44 if jump.size else 0):  # bisect the root count's jumps
        mid = 0.5 * (lo + hi)
        same = count(mid) == counts[jump]
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    slope = np.sign(np.round(np.diff(top(grid)), 14))  # flat where it moves less than 1e-14
    turn = np.nonzero(slope[:-1] * slope[1:] < 0)[0] + 1
    phi, step, sense = grid[turn], grid[1] - grid[0], slope[turn - 1, None]
    for _ in range(22 if turn.size else 0):  # zoom in on each turn by factors of 4
        trial = np.clip(phi[:, None] + step * np.linspace(-1.0, 1.0, 9), grid[0], grid[-1])
        phi, step = trial[np.arange(turn.size), np.argmax(sense * top(trial), axis=1)], step / 4
    return np.unique(np.concatenate([grid[[0, -1]], hi, phi])), hi


def _phi_rule(cuts, events, top, points):
    """Graded rule between the phi cuts; one ending at an event runs in u with phi =
    a + (b - a)(1 - cos pi u) / 2, which smooths the square root of merging roots."""
    a, b = cuts[:-1], cuts[1:]
    mapped = np.isin(a, events) | np.isin(b, events)
    warp = lambda u, a, b, m: np.where(m, a + (b - a) * 0.5 * (1.0 - np.cos(math.pi * u)), u)
    profile = lambda u: top(warp(u, a[:, None], b[:, None], mapped[:, None]))
    u, w, counts = _graded(np.where(mapped, 0.0, a), np.where(mapped, 1.0, b), profile, points)
    i = np.repeat(np.arange(a.size), counts)
    stretch = np.where(mapped[i], (b - a)[i] * 0.5 * math.pi * np.sin(math.pi * u), 1.0)
    return warp(u, a[i], b[i], mapped[i]), w * stretch


def _row_rules(surface, direction, width, level):
    """Coarse and fine rules, with chart points and area densities, for weights of
    kink `level` and peak `width` along `direction`; None if the weight is 1."""
    frequency, lines = _height_lines(surface, np.asarray(direction, dtype=float))
    box = surface.ranges
    span = sorted(frequency * np.asarray(box[0]))
    top = lambda phi: _line_top(lines(phi), span) / (1.0 + width)
    cuts, events = _phi_cuts(lines, span, box[1], level, top) if box[1:] else (np.zeros(1), None)
    if not np.max(_line_top(lines(cuts), span)) > level:
        return None
    rules = []
    for points in GRADED_PANEL_POINTS:
        phi, phi_weights = _phi_rule(cuts, events, top, points) if box[1:] else (cuts, np.ones(1))
        tau, weights, line = _line_rule(lines(phi), span, level, width, points)
        nodes = np.stack([tau / frequency, phi[line]], axis=-1)[:, : len(box)]
        ruled = surface.with_rule(nodes, weights * phi_weights[line] / abs(frequency))
        rules.append((ruled, *_chart_density(ruled)))
    return rules


def _limit_rows(surface, table, bound, band, measure=None):
    """One LimitRow per (parameter, direction, level, width, weight) in `table`: a
    weight is 1 up to the height `level` along `direction`, then peaks like
    1 / (width + 1 - height).  Rows of one direction and level share a coarse and
    a fine rule; the fine area is the volume, the gap its error, a finite band >= 0 the slack."""
    if not 0.0 <= band < math.inf:
        raise DomainError(f"band must be a finite nonnegative relative slack, got {band!r}")
    rules, rows = {}, [None] * len(table)
    for i in sorted(range(len(table)), key=lambda i: table[i][3]):  # narrowest peaks first
        parameter, direction, level, width, weight = table[i]
        key = (tuple(np.round(direction, 12) + 0.0), level)
        if key not in rules:
            rules[key] = width < math.inf and _row_rules(surface, direction, width, level)
        if not rules[key] or width == math.inf:
            measure = coarse = volume = surface_measure(surface) if measure is None else measure
        else:
            coarse, volume = (_weighted_area(*rule, weight) for rule in rules[key])
        within = bool(volume <= bound * (1.0 + band))
        rows[i] = LimitRow(parameter, volume, abs(volume - coarse), bound, within)
    return rows


def fold_limit_volume(surface, pole, t_values, band=0.02):
    """Volume of the folded surface for each cap parameter t.

    The bound column is volume(full sphere) + volume(surface): the fold can
    at most add one copy of the sphere as the complement cap collapses.
    """
    pole = as_unit(np.asarray(pole, dtype=float))
    dim, measure, table = surface.param_dim, surface_measure(surface), []
    for cap in (SphericalCap(pole, float(t)) for t in t_values):
        # past the kink the stretch is (1-t^2)^2 / ((1-t)^4 + 4t(1+t^2)(1-h)), h = s.pole
        width = (1.0 - cap.t) ** 4 / (4.0 * cap.t * (1.0 + cap.t**2)) if cap.t else math.inf
        table.append((cap.t, pole, cap.threshold, width, lambda s, c=cap: fold_factor(c, s) ** dim))
    return _limit_rows(surface, table, sphere_volume(dim) + measure, band, measure)


def moebius_limit_volume(surface, ball_points, band=0.02):
    """Volume of the Moebius-translated surface for each ball point x.

    The bound column is the sphere volume: as |x| -> 1 the image volume can
    approach at most one full sphere (attained only by surfaces through the
    point antipodal to the limit direction).  Collinear points share rules.
    """
    dim, table = surface.param_dim, []
    for x in (as_ball(np.asarray(x, dtype=float)) for x in ball_points):
        radius = float(np.linalg.norm(x))
        # the stretch is (1-|x|^2) / ((1-|x|)^2 + 2|x|(1-h)), h = -s.x/|x|
        width = (1.0 - radius) ** 2 / (2.0 * radius) if radius else math.inf
        weight = lambda s, x=x: moebius_factor(x, s) ** dim
        table.append((radius, -x / (radius or 1.0), -math.inf, width, weight))
    return _limit_rows(surface, table, sphere_volume(dim), band)
