"""Independent reference implementations used as test oracles.

These deliberately use different algorithms than the library (algebraic
circle fit, closed-form planar arm, brute-force statistics) so agreement is
evidence of correctness rather than self-confirmation.
"""

import numpy as np


def kasa_fit(points):
    """Algebraic (Kasa) circle fit: linear least squares on x^2+y^2.

    The standard fast baseline; known to shrink the radius and drag the
    centre towards short arcs, which is exactly why the toolkit uses the
    angle-annotated fit instead.
    """
    p = np.asarray(points, dtype=float)
    A = np.column_stack([2.0 * p[:, 0], 2.0 * p[:, 1], np.ones(len(p))])
    b = (p**2).sum(axis=1)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    cx, cy, c = sol
    r = np.sqrt(c + cx * cx + cy * cy)
    return np.array([cx, cy]), float(r)


def circumcenter(p1, p2, p3):
    """Centre of the circle through three points (closed form)."""
    (ax, ay), (bx, by), (cx, cy) = p1, p2, p3
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
          + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
          + (cx**2 + cy**2) * (bx - ax)) / d
    return np.array([ux, uy])


def planar_2r_tip(l1, l2, t1, t2):
    """Tip position of a planar 2R arm (closed form)."""
    return np.array([l1 * np.cos(t1) + l2 * np.cos(t1 + t2),
                     l1 * np.sin(t1) + l2 * np.sin(t1 + t2), 0.0])


def planar_2r_force_hessian(l1, l2, t1, t2, fx, fy):
    """Exact 2x2 Hessian of U = F . p(t1, t2) for the planar 2R arm.

    Hand-derived: d2p/dt1^2 = -p, d2p/dt1dt2 = d2p/dt2^2 = -p_link2,
    where p_link2 is the second-link vector.
    """
    p = np.array([l1 * np.cos(t1) + l2 * np.cos(t1 + t2),
                  l1 * np.sin(t1) + l2 * np.sin(t1 + t2)])
    p2 = np.array([l2 * np.cos(t1 + t2), l2 * np.sin(t1 + t2)])
    f = np.array([fx, fy])
    h11 = -f @ p
    h12 = -f @ p2
    return np.array([[h11, h12], [h12, h12]])


def fd_gradient(fun, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def fd_jacobian(fun, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fun(x))
    J = np.zeros((f0.size, x.size))
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        J[:, i] = (np.asarray(fun(x + e)) - np.asarray(fun(x - e))) / (2.0 * h)
    return J


def fd_hessian(fun, x, h=3e-5):
    """Central second differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            ea = np.zeros(n)
            eb = np.zeros(n)
            ea[a] = h
            eb[b] = h
            H[a, b] = (fun(x + ea + eb) - fun(x + ea - eb)
                       - fun(x - ea + eb) + fun(x - ea - eb)) / (4.0 * h * h)
    return H


def point_jacobian_loop(st, point, n_cols):
    """Lever-arm Jacobian of one point at one chain state, by ``np.cross``."""
    w = st.joint_axis[:n_cols]
    J = np.zeros((6, 6))
    J[:3, :n_cols] = np.cross(w, point - st.joint_p[:n_cols]).T
    J[3:, :n_cols] = w.T
    return J


def _loaded_points_loop(st, loading, tool_wrench):
    if loading is not None:
        for j in range(1, 7):
            if loading.wrenches[j].any():
                yield st.node_p[j], loading.wrenches[j], j
    if tool_wrench is not None:
        yield st.tool_p, np.asarray(tool_wrench, dtype=float), 6


def load_torques_loop(st, loading, tool_wrench):
    """``sum_p J_p^T w_p``, one point Jacobian per loaded node, then the tool."""
    tau = np.zeros(6)
    for p, w, n in _loaded_points_loop(st, loading, tool_wrench):
        tau += point_jacobian_loop(st, p, n).T @ w
    return tau


def hessian_theta_loop(st, loading, tool_wrench):
    """Load Hessian accumulated point by point, cross products by ``np.cross``."""
    H = np.zeros((6, 6))
    for p, w, n in _loaded_points_loop(st, loading, tool_wrench):
        J = point_jacobian_loop(st, p, n)
        W = J[3:].T
        U = np.triu(W @ np.cross(J[:3].T, w[:3]).T)
        U += 0.5 * np.triu(W @ np.cross(W, w[3:]).T, 1)
        H += U + np.triu(U, 1).T
    return H


def build_regressor_loop(model, records, layout):
    """The stage-one regressor one record at a time: marker and bucket checks
    in record order, one sensitivity block per distinct (q rounded to 1e-12,
    wrench, bucket) keyed in a dict, B assembled block by block."""
    from stiffcal.doe import sensitivity_rows
    from stiffcal.errors import DataLayoutError

    if not records:
        raise DataLayoutError("no deflection records to regress on")
    first = {}       # distinct (pose, wrench, bucket) -> its first record
    keys = []
    for i, rec in enumerate(records):
        m = rec.marker_id
        if not 0 <= m < len(model.markers):
            raise DataLayoutError(
                f"record {i}: marker id {m} outside model range "
                f"0..{len(model.markers) - 1}")
        bucket = layout.bucket_of(float(rec.q_rad[1]), context=f"record {i}")
        key = (tuple(np.round(rec.q_rad, 12)), tuple(rec.wrench), bucket)
        first.setdefault(key, rec)
        keys.append(key)
    rows = sensitivity_rows(model, [r.q_rad for r in first.values()],
                            [r.wrench for r in first.values()])
    blocks = {key: layout.place(A, key[2]) for key, A in zip(first, rows)}
    B = np.concatenate([blocks[key][3 * r.marker_id:3 * r.marker_id + 3]
                        for key, r in zip(keys, records)])
    return B, np.concatenate([r.deflection_mm for r in records])


def optimize_plan_sequential(model, test, bucket_q2_rad, constraints, noise, *,
                             configs_per_bucket=3, repeats=3, n_starts=20,
                             n_grid=7, n_levels=3, seed=0):
    """The plan search one start, one bucket, one config and one joint at a
    time, q1 included whatever the load; returns ``(plan, rho0^2,
    start_values_mm2, n_evaluations)``."""
    import math

    from stiffcal.doe import (_FREE_JOINTS, CalibrationPlan, PlanEntry,
                              _bucket_variance, _random_config, sensitivity_rows,
                              test_pose_accuracy)
    from stiffcal.elasto_id import ParameterLayout

    layout = ParameterLayout(tuple(sorted(map(float, bucket_q2_rad), reverse=True)))
    wrench = constraints.wrench()
    A0 = sensitivity_rows(model, test.q, test.w, tool_only=True)
    n_eval = 0

    def rows_for(q):
        nonlocal n_eval
        n_eval += q.size // 6
        return sensitivity_rows(model, q, wrench)

    def bucket_term(M):
        t = _bucket_variance(M, A0)
        return np.where(t >= 0, t, math.inf)

    def candidate_grid(joint, centre, span):
        windows = (constraints.q1_windows() if joint == 0
                   else (constraints.joint_limits_rad[joint],))
        pts = []
        for lo, hi in windows:
            c = min(max(centre, lo), hi)
            pts.extend(np.linspace(max(lo, c - span), min(hi, c + span), n_grid).tolist())
        return np.unique(np.array(pts))

    def descent(configs):
        rows = [[rows_for(qc) for qc in bucket]
                for bucket in configs]
        Ms = [sum(repeats * (A.T @ A) for A in bucket) for bucket in rows]
        terms = [float(bucket_term(M)) for M in Ms]
        total = start_total = sum(terms)
        spans = [constraints.joint_limits_rad[j][1] - constraints.joint_limits_rad[j][0]
                 for j in _FREE_JOINTS]
        for level in range(n_levels):
            improved, passes = True, 0
            while improved and passes < 3:
                improved = False
                passes += 1
                for b in range(len(configs)):
                    for c in range(configs_per_bucket):
                        for fj, j in enumerate(_FREE_JOINTS):
                            q_cur = configs[b][c]
                            span = spans[fj] / (2.0 * max(n_grid - 1, 1))**level
                            grid = candidate_grid(j, q_cur[j], span)
                            grid = grid[grid != q_cur[j]]
                            if not grid.size:
                                continue
                            base_M = Ms[b] - repeats * (rows[b][c].T @ rows[b][c])
                            q_try = np.repeat(q_cur[None], grid.size, axis=0)
                            q_try[:, j] = grid
                            A_try = rows_for(q_try)
                            M_try = base_M + repeats * (A_try.swapaxes(1, 2) @ A_try)
                            t_try = bucket_term(M_try)
                            best_val, best = total, None
                            for k, val in enumerate((total - terms[b] + t_try).tolist()):
                                if val < best_val * (1.0 - 1e-15):
                                    best_val, best = val, k
                            if best is not None:
                                configs[b][c] = q_try[best]
                                rows[b][c] = A_try[best]
                                Ms[b] = M_try[best]
                                terms[b] = float(t_try[best])
                                total = best_val
                                improved = True
        return start_total, total, configs

    best_total, best_configs, start_values = math.inf, None, []
    for start in range(n_starts):
        rng = np.random.default_rng((seed, start))
        configs = [[_random_config(rng, b, constraints) for _ in range(configs_per_bucket)]
                   for b in layout.bucket_q2_rad]
        start_total, total, configs = descent(configs)
        start_values.append(noise.sigma_mm**2 * start_total)
        if total < best_total:
            best_total, best_configs = total, configs
    plan = CalibrationPlan(tuple(PlanEntry(tuple(qc), tuple(wrench), repeats)
                                 for bucket in best_configs for qc in bucket))
    acc = test_pose_accuracy(model, plan, test, noise, layout=layout)
    return plan, acc.rho0_sq_mm2, tuple(start_values), n_eval


def solve_primal_loop(model, compensator, q, tool_wrench=None, include_gravity=True,
                      max_iter=100):
    """One pose's damped fixed point, as the solver ran before it took stacks:
    ``(theta, iterations, converged, residual_wrench_rel, lam_halvings)``."""
    from stiffcal.robot import chain_state, gravity_loading, load_torques
    from stiffcal.stiffness import joint_stiffnesses

    def residual(K, theta, tau):
        r = K @ theta - tau
        return float(np.linalg.norm(r) / max(1.0, np.linalg.norm(tau)))

    q = np.asarray(q, dtype=float)
    K = np.diag(joint_stiffnesses(model, compensator, q))
    loading = gravity_loading(model) if include_gravity else None
    F = np.zeros(6) if tool_wrench is None else np.asarray(tool_wrench, dtype=float)
    theta = np.zeros(6)
    tau = load_torques(model, chain_state(model, q, theta), loading, F)
    res = residual(K, theta, tau)
    converged, iterations, halvings = False, 0, 0
    for iterations in range(1, max_iter + 1):
        theta_star = np.linalg.solve(K, tau)
        lam = 1.0
        while True:
            cand = theta + lam * (theta_star - theta)
            tau_c = load_torques(model, chain_state(model, q, cand), loading, F)
            res_c = residual(K, cand, tau_c)
            if res_c <= res or lam < 1.0 / 1024.0:
                break
            lam *= 0.5
            halvings += 1
        step = float(np.linalg.norm(cand - theta))
        theta, tau, res = cand, tau_c, res_c
        if step < 1e-12 or res < 1e-12:
            converged = True
            break
    return theta, iterations, converged, res, halvings


def simulate_deflection_records_loop(model, plan, *, noise_mm=0.0, seed=0,
                                     response="nonlinear", include_gravity=True):
    """Deflection records one plan entry, one equilibrium, one marker and one
    repeat at a time; returns ``(q, wrench, marker_id, deflection, repeat)``
    tuples, or raises ``ConvergenceError`` naming the first failed entry."""
    import math

    from stiffcal.errors import ConvergenceError
    from stiffcal.robot import marker_positions
    from stiffcal.stiffness import predict_marker_deflections

    comp = model.compensator
    out = []
    for i, entry in enumerate(plan.entries):
        q, w = entry.q, entry.w
        if response == "linear":
            defl = predict_marker_deflections(model, comp, q, w)
        else:
            th0, _, ok0, _, _ = solve_primal_loop(model, comp, q, None, include_gravity)
            th1, _, ok1, _, _ = solve_primal_loop(model, comp, q, w, include_gravity)
            if not (ok0 and ok1):
                raise ConvergenceError(
                    f"equilibrium did not converge for plan entry {i} "
                    f"(q2={math.degrees(q[1]):.1f} deg)")
            defl = marker_positions(model, q, th1) - marker_positions(model, q, th0)
        rng = np.random.default_rng((seed, i))
        for rep in range(entry.repeats):
            for m in range(len(model.markers)):
                d = defl[m]
                if noise_mm > 0.0:
                    d = d + noise_mm * (rng.standard_normal(3) - rng.standard_normal(3))
                out.append((q, w, m, d, rep))
    return out


def confidence_intervals_geometry_loop(dataset, estimate, n_samples=200, seed=0):
    """The geometry resampler one sample and one pair of fits at a time:
    ``(L, ax, ay)`` 3-sigma half-widths.  One generator serves all samples,
    each taking its crank then satellite noise in turn."""
    from stiffcal.circle_fit import fit_circle_procrustes, fit_concentric_arcs
    from stiffcal.geometry_id import _clean_tracks, residual_noise_sigma

    s_crank, s_sat = residual_noise_sigma(estimate)
    crank_clean, sats_clean = _clean_tracks(dataset, estimate)
    sign = estimate.crank_fit.angle_sign
    out = np.empty((n_samples, 3))
    rng = np.random.default_rng(seed)
    for i in range(n_samples):
        crank_i = crank_clean + s_crank * rng.standard_normal(crank_clean.shape)
        sats_i = [s + s_sat * rng.standard_normal(s.shape) for s in sats_clean]
        cf = fit_circle_procrustes(crank_i, dataset.q2_rad, angle_sign=sign)
        sf = fit_concentric_arcs(sats_i)
        a_vec = cf.center - sf.center[:2]
        out[i] = (cf.radius, a_vec[0], a_vec[1])
    return 3.0 * out.std(axis=0, ddof=1)


def confidence_intervals_elasto_loop(model, estimate, n_samples=200, seed=0):
    """The elastostatic resampler one sample and one separation at a time:
    ``(halfwidth3, n_failed)``; raises as the library does when more than
    half of the resamples fail.  One generator serves all samples, each
    taking one standard normal per stage-one parameter in turn and mapping
    it through the fit's covariance root."""
    import warnings

    from stiffcal.elasto_id import separate_compensator
    from stiffcal.errors import IdentifiabilityError

    fit = estimate.fit
    layout = fit.layout
    comp = model.compensator
    nb = layout.n_buckets
    samples, failed = [], 0
    rng = np.random.default_rng(seed)
    for i in range(n_samples):
        w = rng.standard_normal(layout.n_params)
        k_star = fit.values + fit.sigma_hat_mm * (fit.root @ w)
        k2 = k_star[:nb]
        try:
            if np.any(k2 <= 0):
                raise IdentifiabilityError("non-positive resampled compliance")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                sep = separate_compensator(layout, 1.0 / k2, comp.geometry, comp.q2_sign)
        except IdentifiabilityError:
            failed += 1
            continue
        samples.append([sep.k2_rad_per_Nmm, *k_star[nb:], sep.Kc_N_per_mm, sep.s0_mm])
    if failed > n_samples // 2:
        raise IdentifiabilityError(f"{failed}/{n_samples} resamples failed")
    return 3.0 * np.std(np.array(samples), axis=0, ddof=1), failed
