"""Moebius transformations, reflections, caps and folds on round spheres.

Points are numpy arrays with the ambient coordinate on the last axis; every
map broadcasts over leading axes.  Tangent vectors are rows too: the
differential kernels take k of them at each of N points as (N, k, m), with
the ambient coordinate last, so each contraction runs over contiguous rows.
Maps that receive a point on the unit sphere return a point renormalized
onto the unit sphere, so errors do not accumulate through compositions.

The public maps validate their inputs (open-ball shifts, unit sphere points)
and snap sphere rows back onto the sphere.  Each has a private kernel with
the same arithmetic that trusts its caller: no conversion, no validation, and
renormalization only of the rows its `unit` argument (True, False or a per-row
mask) flags; the cap maps take unit rows only and always renormalize.  Inner
loops call the kernels on points they made themselves.
"""

import numpy as np

from .errors import DomainError

__all__ = [
    "UNIT_TOL",
    "CAP_T_MAX",
    "as_unit",
    "as_ball",
    "moebius_apply",
    "moebius_factor",
    "tangent_basis",
    "SphericalCap",
    "cap_reflect",
    "fold_apply",
    "fold_factor",
]

UNIT_TOL = 1e-12          # admissible deviation of |y| from 1 at validation
SPHERE_DETECT_TOL = 1e-9  # inputs this close to the sphere get renormalized outputs
MEMBERSHIP_TOL = 1e-14    # inclusive slack for cap membership
CAP_T_MAX = 1.0 - 1e-6    # caps are only formed this far along the family
_DENOM_TOL = 1e-14


def _dot(a, b):
    # Row dot products over the coordinate axis, broadcasting the leading axes.
    # A ufunc reduction over an axis of 3 to 9 entries costs many times the
    # products it sums; einsum contracts it in one pass without the temporary.
    return np.einsum("...i,...i->...", a, b)


def _norm(y):
    return np.sqrt(_dot(y, y))


def as_unit(y, tol=UNIT_TOL):
    """Validate that y lies on the unit sphere (within tol) and renormalize."""
    y = np.asarray(y, dtype=float)
    r = _norm(y)
    dev = np.max(np.abs(r - 1.0)) if r.size else 0.0
    if not dev <= tol:  # a NaN deviation fails too
        raise DomainError(f"point not on the unit sphere: | |y| - 1 | = {dev:.3g}")
    return y / r[..., None]


def as_ball(x):
    """Validate that x lies in the open unit ball."""
    x = np.asarray(x, dtype=float)
    r = _norm(x)
    if r.size and not np.max(r) < 1.0:  # a NaN norm fails too
        raise DomainError(f"point not in the open unit ball: |x| = {np.max(r):.17g}")
    return x


def _on_sphere(y):
    return np.abs(_norm(y) - 1.0) <= SPHERE_DETECT_TOL


def _snap(out, unit):
    # Rows flagged unit (True, False or a per-row mask) are renormalized.
    if unit is True:
        return out / _norm(out)[..., None]
    if not np.any(unit):
        return out
    return out / np.where(unit, _norm(out), 1.0)[..., None]


def _moebius(x, y, unit, strict=True):
    # strict=False returns NaN rows where the denominator degenerates
    xy = _dot(x, y)[..., None]
    yy = _dot(y, y)[..., None]
    xx = _dot(x, x)[..., None]
    denom = 1.0 + 2.0 * xy + xx * yy
    degenerate = denom <= _DENOM_TOL
    if np.any(degenerate):
        if strict:
            raise DomainError(
                f"Moebius translation degenerate: denominator {np.min(denom):.3g}"
            )
        denom = np.where(degenerate, np.nan, denom)
    out = ((1.0 + 2.0 * xy + yy) * x + (1.0 - xx) * y) / denom
    return _snap(out, unit)


def moebius_apply(x, y):
    """Moebius translation of the closed unit ball by x.

    T_x(y) = ((1 + 2 x.y + |y|^2) x + (1 - |x|^2) y) / (1 + 2 x.y + |x|^2 |y|^2)

    with x in the open ball and y in the closed ball.  T_0 is the identity,
    T_x(0) = x, T_{-x} inverts T_x, and the boundary sphere maps to itself
    with +-x/|x| fixed.
    """
    x = as_ball(x)
    y = np.asarray(y, dtype=float)
    return _moebius(x, y, _on_sphere(y))


def _moebius_differential(x, y, v):
    # D T_x(y) v = (2x ((x + y).v) + (1 - |x|^2) v - T_x(y) (grad D . v)) / D on
    # rows v (N, k, m) at rows y (N, m) of the closed ball, where
    # D = 1 + 2 x.y + |x|^2 |y|^2 and grad D = 2x + 2 |x|^2 y
    xx = _dot(x, x)[..., None]
    yy = _dot(y, y)[..., None]
    denom = 1.0 + 2.0 * _dot(x, y)[..., None] + xx * yy
    along = _dot((x + y)[..., None, :], v)[..., None]
    slope = _dot((2.0 * (x + xx * y))[..., None, :], v)[..., None]
    out = 2.0 * x[..., None, :] * along
    out += (1.0 - xx)[..., None] * v
    out -= _moebius(x, y, False)[..., None, :] * slope
    out /= denom[..., None]
    return out


def _moebius_factor(x, s):
    xx = _dot(x, x)
    gap = x + s
    denom = _dot(gap, gap)
    if np.min(denom) <= _DENOM_TOL:
        raise DomainError("Moebius factor degenerate: s antipodal to x at |x| -> 1")
    return (1.0 - xx) / denom


def moebius_factor(x, s):
    """Conformal stretch of T_x on the unit sphere at the point s.

    |D T_x(s) u| = factor * |u| for u tangent at s, with
    factor = (1 - |x|^2) / (1 + |x|^2 + 2 x.s).  The two denominators are
    equal for unit s; |x + s|^2 is the one computed, since it does not cancel
    as |x| -> 1 with s near -x/|x|.
    """
    return _moebius_factor(as_ball(x), as_unit(s, tol=SPHERE_DETECT_TOL))


def _reflect(y, mirror, unit):
    m2 = _dot(mirror, mirror)[..., None]
    if m2.size and np.min(m2) <= 1e-28:
        raise DomainError("reflection mirror vector is zero")
    out = y - 2.0 * _dot(y, mirror)[..., None] * mirror / m2
    return _snap(out, unit)


def tangent_basis(x):
    """Deterministic orthonormal basis of the tangent space x^perp.

    Returns an array of shape x.shape + (m-1,), columns orthonormal and
    orthogonal to x (Householder completion; stable for every x).
    """
    x = as_unit(x, tol=SPHERE_DETECT_TOL)
    m = x.shape[-1]
    sign = np.where(x[..., 0] >= 0.0, 1.0, -1.0)
    v = x.copy()
    v[..., 0] += sign
    nv2 = _dot(v, v)  # = 2 (1 + |x_0|) >= 2
    eye_cols = np.zeros(x.shape[:-1] + (m, m - 1))
    eye_cols[...] = np.eye(m)[:, 1:]
    basis = eye_cols - v[..., :, None] * (2.0 * v[..., None, 1:] / nv2[..., None, None])
    return basis


def _tangent_retract(points, steps):
    """Unit rows moved by tangent_basis coordinates and renormalized (NaN at the origin)."""
    moved = points + (tangent_basis(points) @ steps[..., None])[..., 0]
    norms = _norm(moved)[:, None]
    return moved / np.where(norms >= 1e-12, norms, np.nan)


def _central_differences(func, points, directions, step, on_sphere):
    """Central differences of func at points (N, m) along directions (N or 1, m, k).

    The 2k probes points +- step * u, renormalized onto the sphere when
    on_sphere, go through func in one call; returns (N, out, k) columns.
    """
    count, m = points.shape
    k = directions.shape[-1]
    offsets = step * np.moveaxis(directions, -1, 0)
    probes = np.concatenate([points + offsets, points - offsets])
    if on_sphere:
        probes /= _norm(probes)[..., None]
    values = np.asarray(func(probes.reshape(-1, m)), dtype=float).reshape(2, k, count, -1)
    return np.moveaxis((values[0] - values[1]) / (2.0 * step), 0, -1)


class SphericalCap:
    """Cap obtained by sliding the hemisphere {y.pole <= 0} along its pole.

    The cap at parameter t in [0, 1) is the Moebius image T_{t*pole} of that
    hemisphere, which is the set {y : y.pole <= 2t/(1+t^2)}.  t = 0 gives the
    hemisphere itself; as t -> 1 the cap exhausts the sphere.  A pole (K, 1, m)
    with t (K, 1, 1) stacks K caps, whose methods map (N, m) points to (K, N, ...).
    """

    __slots__ = ("pole", "t")

    def __init__(self, pole, t):
        self.pole = as_unit(np.asarray(pole, dtype=float))
        t = np.asarray(t, dtype=float)
        outside = t[~((0.0 <= t) & (t <= CAP_T_MAX))]
        if outside.size:
            raise DomainError(f"cap parameter t = {float(outside[0])!r} outside [0, {CAP_T_MAX}]")
        self.t = float(t) if t.ndim == 0 else t

    @property
    def threshold(self):
        """Membership threshold 2t/(1+t^2) on y.pole."""
        return 2.0 * self.t / (1.0 + self.t * self.t)

    def signed_margin(self, y):
        """threshold - y.pole; nonnegative (up to tolerance) inside the cap."""
        y = np.asarray(y, dtype=float)
        return (self.threshold - _dot(y, self.pole)[..., None])[..., 0]

    def contains(self, y):
        """Inclusive membership test (boundary points count as inside)."""
        return self.signed_margin(y) >= -MEMBERSHIP_TOL

    def __repr__(self):
        return f"SphericalCap(pole={self.pole!r}, t={self.t!r})"


def _cap_terms(cap, y):
    # the half-step distances m = y - tp, d = y - p, q = y + p at unit rows y,
    # their squared norms, and D = |m|^4 + t^2 |d|^2 |q|^2, which equals
    # (1 + t^2)^2 |y - sp|^2 with s = 2t / (1 + t^2) but is a sum of two
    # non-negative terms, so it does not cancel as t -> 1
    m, d, q = y - cap.t * cap.pole, y - cap.pole, y + cap.pole
    mm, dd, qq = (_dot(a, a)[..., None] for a in (m, d, q))
    return m, d, q, mm, dd, qq, mm * mm + cap.t**2 * dd * qq


def _cap_image(cap, d, dd, denom):
    # R(y) = ((1 - t^2)^2 d + ((1 + t^2)^2 |d|^2 - (1 - t)^4) p) / D, unsnapped
    t = cap.t
    return ((1.0 - t * t) ** 2 * d + ((1.0 + t * t) ** 2 * dd - (1.0 - t) ** 4) * cap.pole) / denom


def _cap_reflect(cap, y):
    _, d, _, _, dd, _, denom = _cap_terms(cap, y)
    return _snap(_cap_image(cap, d, dd, denom), True)


def cap_reflect(cap, y):
    """Conformal reflection across the cap boundary, sending pole -> -pole.

    Conjugate T_{tp} o L_p o T_{-tp} of the linear reflection L_p across
    pole^perp by the Moebius translation T_{tp}; since T_{-tp} o T_{-tp} =
    T_{-sp} with s = 2t / (1 + t^2) and L_p T_{tp} L_p = T_{-tp}, it equals
    L_p o T_{-sp}, computed in closed form.  Fixes the boundary circle of the
    cap pointwise and swaps the cap with its complement.  Unit rows only.
    """
    return _cap_reflect(cap, as_unit(y, tol=SPHERE_DETECT_TOL))


def _cap_reflect_differential(cap, y, v):
    # DR(y) v = (2 (1 + t^2)^2 (d.v) p + (1 - t^2)^2 v - R(y) (grad D . v)) / D
    # on rows v (N, k, m) tangent at unit rows y (N, m), where
    # grad D . v = 4 |m|^2 (m.v) + 2 t^2 (|q|^2 (d.v) + |d|^2 (q.v))
    m, d, q, mm, dd, qq, denom = _cap_terms(cap, y)
    t2 = cap.t * cap.t
    mv, dv, qv = (_dot(a[..., None, :], v)[..., None] for a in (m, d, q))
    slope = 4.0 * mm[..., None] * mv + 2.0 * t2 * (qq[..., None] * dv + dd[..., None] * qv)
    out = 2.0 * (1.0 + t2) ** 2 * cap.pole[..., None, :] * dv
    out += (1.0 - t2) ** 2 * v
    out -= _cap_image(cap, d, dd, denom)[..., None, :] * slope
    out /= denom[..., None]
    return out


def _cap_reflect_factor(cap, s):
    # the stretch (1 - t^2)^2 / D at unit rows s
    return ((1.0 - cap.t**2) ** 2 / _cap_terms(cap, s)[-1])[..., 0]


def _fold(cap, y):
    reflected = _cap_reflect(cap, y)
    return np.where(cap.contains(y)[..., None], y, reflected)


def fold_apply(cap, y):
    """Fold the sphere onto the cap: identity inside, cap_reflect outside."""
    return _fold(cap, as_unit(y, tol=SPHERE_DETECT_TOL))


def _fold_factor(cap, s):
    return np.where(cap.contains(s), 1.0, _cap_reflect_factor(cap, s))


def fold_factor(cap, s):
    """Conformal stretch of the fold at s (1 inside the cap).

    The stretch extends continuously across the cap boundary, where the
    reflection acts as an isometry.
    """
    return _fold_factor(cap, as_unit(s, tol=SPHERE_DETECT_TOL))
