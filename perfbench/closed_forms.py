"""Closed forms and independent formulas the benchmark checks results against.

Nothing here calls rplap: every value is written out from the mathematics, so
a check fails when the program's answer is wrong, not when it changes.
"""

import math

import numpy as np


def coarse_bound(n):
    """The paper's bound on the normalized second eigenvalue: 2^(2/n) (2n+2)."""
    return 2.0 ** (2.0 / n) * (2.0 * n + 2.0)


def projective_volume(n):
    """Round volume of RP^n: half the volume of the unit n-sphere."""
    return math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def final_chain_bound(n):
    """End of the energy chain: 2 (2n+2)^(n/2) vol(RP^n)."""
    return 2.0 * (2.0 * n + 2.0) ** (n / 2.0) * projective_volume(n)


def harmonic_dim(n, degree):
    """Dimension of degree-`degree` harmonics on S^n: C(d+n, n) - C(d+n-2, n)."""
    lower = math.comb(degree + n - 2, n) if degree >= 2 else 0
    return math.comb(degree + n, n) - lower


def round_projective_spectrum(n, count):
    """The first `count` eigenvalues of round RP^n with multiplicity.

    Even degrees 2k only: value 2k(2k+n-1), multiplicity harmonic_dim(n, 2k).
    """
    values = []
    k = 0
    while len(values) < count:
        values.extend([2.0 * k * (2.0 * k + n - 1.0)] * harmonic_dim(n, 2 * k))
        k += 1
    return values[:count]


def moebius(x, y):
    """Moebius translation T_x of the closed unit ball, applied row-wise to y."""
    x = np.asarray(x, dtype=float)
    xy = y @ x
    yy = np.einsum("ij,ij->i", y, y)
    xx = float(x @ x)
    numerator = (1.0 + 2.0 * xy + yy)[:, None] * x[None, :] + (1.0 - xx) * y
    return numerator / (1.0 + 2.0 * xy + xx * yy)[:, None]


def fold(pole, t, y):
    """Fold of unit rows y onto the cap {y . pole <= 2t/(1+t^2)}.

    Points outside are sent through T_{t pole} o (reflection across pole^perp)
    o T_{-t pole}.
    """
    pole = np.asarray(pole, dtype=float)
    shift = t * pole
    inner = moebius(-shift, y)
    mirrored = inner - 2.0 * (inner @ pole)[:, None] * pole[None, :]
    reflected = moebius(shift, mirrored)
    inside = y @ pole <= 2.0 * t / (1.0 + t * t) + 1e-14
    return np.where(inside[:, None], y, reflected)


def cap_angle(t):
    """Angle from the pole to the boundary of the cap at parameter t."""
    return math.acos(2.0 * t / (1.0 + t * t))


def half_circle_fold_length(t):
    """Folded length of the half great circle centred on the pole.

    The arc inside the cap keeps its length pi - 2a (a = cap_angle(t)); the
    arc outside is reflected onto the rest of the great circle, 2pi - 2a.
    """
    a = cap_angle(t)
    return (math.pi - 2.0 * a) + (2.0 * math.pi - 2.0 * a)


def _reflected_polar_angle(t, theta):
    # The cap reflection along a meridian, in half-angle tangents: T_{-t pole}
    # scales tan(theta/2) by (1+t)/(1-t), the mirror sends theta to pi - theta,
    # and T_{t pole} scales by (1-t)/(1+t).
    moved = 2.0 * math.atan((1.0 + t) / (1.0 - t) * math.tan(0.5 * theta))
    return 2.0 * math.atan((1.0 - t) / (1.0 + t) * math.tan(0.5 * (math.pi - moved)))


def cap_patch_fold_area(t, alpha):
    """Folded area of the geodesic disc of radius alpha around the pole.

    Disc areas are 2pi(1 - cos r).  The part of the disc outside the cap (the
    polar disc of radius min(alpha, a)) is reflected onto a disc around the
    antipode; the part inside the cap keeps its area.
    """
    a = cap_angle(t)
    if alpha <= a:
        return 2.0 * math.pi * (1.0 + math.cos(_reflected_polar_angle(t, alpha)))
    return 2.0 * math.pi * (math.cos(a) - math.cos(alpha)) + 2.0 * math.pi * (1.0 + math.cos(a))


def veronese_patch_area(polar_half_width, azimuth_half_width, n=2):
    """Area of the Veronese image of an equatorial (polar, azimuth) rectangle.

    The quadratic map stretches lengths by sqrt(2(n+1)/n), so areas of S^2
    patches scale by 3; the patch itself has area 2 sin(w_polar) 2 w_azimuth.
    """
    stretch_sq = 2.0 * (n + 1) / n
    return stretch_sq * 2.0 * math.sin(polar_half_width) * 2.0 * azimuth_half_width


def moebius_arc_length(r, half_angle):
    """Length of T_{r d}(arc of half-angle `half_angle` centred on d).

    Along the great circle through d, T_{r d} scales tan(theta/2) by
    (1-r)/(1+r), theta measured from d.
    """
    image = 2.0 * math.atan((1.0 - r) / (1.0 + r) * math.tan(0.5 * half_angle))
    return 2.0 * image


def sphere_map_degree(name):
    """Topological degree of the named example maps.

    An orthogonal linear map has degree det: the identity 1, the antipodal
    map on S^d (-1)^(d+1), the b-block flip and rotation on S^3 +1.  The
    warped flip is homotopic to the flip (strength -> 0) and squaring on
    the circle wraps twice.
    """
    if name.startswith("identity-s"):
        return 1
    if name.startswith("antipodal-s"):
        dim = int(name[len("antipodal-s"):])
        return (-1) ** (dim + 1)
    return {"flip-b": 1, "rotate-b": 1, "warped-flip": 1, "doubling-s1": 2}[name]
