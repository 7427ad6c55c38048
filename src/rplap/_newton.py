"""One batched damped Newton loop for the centering, degree and search solvers.

K problems run in lockstep.  The callers supply only what differs between
them: the residual, the Newton step in the problem's own coordinates, and the
retraction that moves a point by such a step (retraction-based Newton as in
Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008,
ch. 4; step halving as in Dennis & Schnabel, 1983, ch. 6).
"""

import numpy as np


def damped_newton(
    residual, step, retract, x, r, aux, tol, max_rounds, step_cap, min_scale, progress=1.0
):
    """Damped Newton on every row of x at once; returns (x, |r|, aux, rounds, history).

    x (K, p) holds the points, r (K, q) their residuals and aux (K, ...) the
    residual's per-row data; all three are updated in place.  Each round, every
    row with |r| > tol takes the step s = step(x, r, aux), capped at |s| <=
    step_cap, and tries retract(x, scale * s) at scale = 1, 1/2, ... down to
    min_scale until |r| falls.  A trial with a non-finite coordinate is
    rejected without an evaluation; the others are evaluated by
    residual(rows, trials, aux) -> (r, aux), where rows index the batch.  A row
    stops at |r| <= tol, or when a round leaves |r| at or above `progress`
    times its value before the round.  rounds counts the rounds each row took
    part in; history holds |r| before the first round and after each one.
    """
    res = np.linalg.norm(r, axis=1)
    history = [res.copy()]
    rounds = np.zeros(res.size, dtype=int)
    active = res > tol
    for _ in range(max_rounds):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        rounds[rows] += 1
        steps = step(x[rows], r[rows], aux[rows])
        size = np.linalg.norm(steps, axis=1)
        steps *= (step_cap / np.fmax(size, step_cap))[:, None]
        before = res[rows]
        left, scale = np.flatnonzero(size > 0.0), 1.0  # positions in rows still halving
        while left.size and scale >= min_scale:
            trials = retract(x[rows[left]], scale * steps[left])
            ok = np.all(np.isfinite(trials), axis=1)  # a rejected retraction is not evaluated
            took = rows[left[ok]]
            if took.size:
                trial_r, trial_aux = residual(took, trials[ok], aux[took])
                trial_res = np.linalg.norm(trial_r, axis=1)
                better = trial_res < res[took]
                ok[ok], took = better, took[better]  # ok now marks the accepted trials
                x[took], r[took], res[took] = trials[ok], trial_r[better], trial_res[better]
                aux[took] = trial_aux[better]
            left, scale = left[~ok], 0.5 * scale
        active[rows] = (res[rows] > tol) & (res[rows] < progress * before)
        history.append(res.copy())
    return x, res, aux, rounds, history
