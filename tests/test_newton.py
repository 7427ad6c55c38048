import math

import numpy as np
import numpy.testing as npt

from rplap._newton import damped_newton


def _arctan_newton(starts, min_scale, retract=lambda x, s: x + s):
    """Newton on arctan(x) = 0, recording every point the residual sees."""
    seen = []

    def residual(rows, x, aux):
        seen.extend(x[:, 0].tolist())
        return np.arctan(x), aux

    def step(x, r, aux):
        return -r * (1.0 + x * x)  # -f / f'

    x = np.array(starts, dtype=float)[:, None]
    out = damped_newton(
        residual, step, retract, x, np.arctan(x), np.empty((len(x), 0)),
        tol=1e-12, max_rounds=50, step_cap=1e3, min_scale=min_scale,
    )
    return out, seen


def test_halving_recovers_where_full_newton_steps_diverge():
    # from x = 3 the full step lands at x = -9.5, where |arctan| is larger
    (x, res, _, rounds, history), seen = _arctan_newton([3.0], 2.0**-10)
    assert res[0] <= 1e-12
    assert abs(seen[0]) > 9.0 and abs(math.atan(seen[0])) > math.atan(3.0)
    assert np.all(np.diff([h[0] for h in history]) < 0.0)
    assert rounds[0] == len(history) - 1


def test_full_steps_only_stop_rather_than_accept_a_worse_point():
    (x, res, _, rounds, history), seen = _arctan_newton([3.0], 1.0)
    assert x[0, 0] == 3.0
    assert res[0] == math.atan(3.0)
    assert rounds[0] == 1 and len(seen) == 1
    assert [h[0] for h in history] == [math.atan(3.0)] * 2


def test_a_rejected_retraction_is_never_evaluated():
    def bounded(x, s):
        moved = x + s
        moved[np.abs(moved[:, 0]) > 5.0] = np.nan
        return moved

    (x, res, _, _, _), seen = _arctan_newton([3.0, 4.9, 0.5], 2.0**-10, bounded)
    assert np.all(np.isfinite(seen))
    assert np.all(res <= 1e-12)
    npt.assert_allclose(x[:, 0], 0.0, rtol=0, atol=1e-12)
