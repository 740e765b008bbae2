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


def procrustes_svd(p, u):
    """:func:`stiffcal.circle_fit._procrustes_once` by the general SVD recipe
    (S. Umeyama, IEEE TPAMI 13(4), 1991): a batched SVD of the
    cross-covariance, a determinant and a reflection matrix in place of the
    library's planar closed form."""
    pbar = p.mean(axis=-2)
    ubar = u.mean(axis=0)
    ph = p - pbar[..., None, :]
    uh = u - ubar
    D = uh.T @ ph
    U, sv, Vt = np.linalg.svd(D)
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = ~((sv[..., 0] <= 0.0) | (sv[..., 1] / sv[..., 0] < 1e-12))
    V = Vt.swapaxes(-1, -2)
    d = np.sign(np.linalg.det(V @ U.swapaxes(-1, -2)))
    flip = np.zeros(d.shape + (2, 2))
    flip[..., 0, 0] = 1.0
    flip[..., 1, 1] = d
    R = V @ flip @ U.swapaxes(-1, -2)
    RD = R @ D
    mu = (RD[..., 0, 0] + RD[..., 1, 1]) / float((uh * uh).sum())
    resid = ph - mu[..., None, None] * (uh @ R.swapaxes(-1, -2))
    F = (resid * resid).reshape(resid.shape[:-2] + (-1,)).sum(axis=-1)
    t = pbar - mu[..., None] * (R @ ubar)
    return mu, R, t, F, ok


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


def spring_energy(params, q2_rad):
    """Elastic energy 0.5 * Kc * (s - s0)^2 stored in the compensator spring
    (N*mm), with the span s from the linkage triangle,
    s^2 = a^2 + L^2 + 2 a L cos(alpha - q2_sign * q2); minus its q2-gradient
    is the compensator torque."""
    g, el = params.geometry, params.elastics
    a = np.hypot(g.ax_mm, g.ay_mm)
    gamma = np.arctan2(g.ay_mm, g.ax_mm) - g.q2_sign * np.asarray(q2_rad, dtype=float)
    s = np.sqrt(a * a + g.L_mm ** 2 + 2.0 * a * g.L_mm * np.cos(gamma))
    return 0.5 * el.Kc_N_per_mm * (s - el.s0_mm) ** 2


def point_jacobian_loop(st, point):
    """Lever-arm Jacobian of one point at one chain state, by ``np.cross``."""
    J = np.zeros((6, 6))
    J[:3] = np.cross(st.joint_axis, point - st.joint_p).T
    J[3:] = st.joint_axis.T
    return J


def sensitivity_rows_loop(model, q, wrench, *, include_joint1=False, tool_only=False):
    """:func:`stiffcal.doe.sensitivity_rows` one configuration and one point at
    a time: each point's ``_point_jacobian`` at the configuration's own
    ``chain_state``, each marker at ``tool_R @ offset + tool_p``."""
    from stiffcal.robot import _point_jacobian, chain_state

    first = 0 if include_joint1 else 1
    q = np.asarray(q, dtype=float)
    w = np.broadcast_to(np.asarray(wrench, dtype=float), q.shape)
    blocks = []
    for qi, wi in zip(q.reshape(-1, 6), w.reshape(-1, 6)):
        st = chain_state(model, qi, np.zeros(6))
        tau = _point_jacobian(st, st.tool_p).T @ wi
        points = ([st.tool_p] if tool_only
                  else [st.tool_R @ off + st.tool_p for off in model.markers])
        blocks.append(np.concatenate([_point_jacobian(st, p)[:3, first:] * tau[first:]
                                      for p in points]))
    return np.reshape(blocks, q.shape[:-1] + blocks[0].shape)


def node_jacobian_loop(st, point, node):
    """:func:`point_jacobian_loop` of a point carried by link ``node``: the
    joints beyond it do not move it, so their columns are zero."""
    J = point_jacobian_loop(st, point)
    J[:, node:] = 0.0
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
        tau += node_jacobian_loop(st, p, n).T @ w
    return tau


def hessian_theta_loop(st, loading, tool_wrench):
    """Load Hessian accumulated point by point, cross products by ``np.cross``."""
    H = np.zeros((6, 6))
    for p, w, n in _loaded_points_loop(st, loading, tool_wrench):
        J = node_jacobian_loop(st, p, n)
        W = J[3:].T
        U = np.triu(W @ np.cross(J[:3].T, w[:3]).T)
        U += 0.5 * np.triu(W @ np.cross(W, w[3:]).T, 1)
        H += U + np.triu(U, 1).T
    return H


def bucket_of_loop(layout, q2_rad, context):
    """Index of the first bucket of ``layout`` within its tolerance of one
    joint-2 angle, bucket by bucket; raises naming ``context``."""
    import math

    from stiffcal.elasto_id import BUCKET_TOL_RAD
    from stiffcal.errors import DataLayoutError

    for i, b in enumerate(layout.bucket_q2_rad):
        if abs(q2_rad - b) <= BUCKET_TOL_RAD:
            return i
    have = ", ".join(f"{math.degrees(b):.2f}" for b in layout.bucket_q2_rad)
    raise DataLayoutError(
        f"{context}: joint-2 angle {math.degrees(q2_rad):.3f} deg matches no "
        f"layout bucket (have: {have} deg, tol "
        f"{math.degrees(BUCKET_TOL_RAD):.2f} deg)")


def layout_from_q2_loop(angles):
    """The joint-2 layout of ``angles`` record by record: an angle within
    ``BUCKET_TOL_RAD`` of no bucket opened so far opens one at itself."""
    from stiffcal.elasto_id import BUCKET_TOL_RAD, ParameterLayout

    buckets = []
    for q2 in angles:
        q2 = float(q2)
        if not any(abs(q2 - b) <= BUCKET_TOL_RAD for b in buckets):
            buckets.append(q2)
    buckets.sort(reverse=True)
    return ParameterLayout(tuple(buckets))


def build_regressor_loop(model, records, layout):
    """The stage-one regressor one record at a time: marker and bucket checks
    in record order, one sensitivity block per distinct (q rounded to 1e-12,
    wrench, bucket) keyed in a dict, B assembled block by block."""
    from stiffcal.doe import sensitivity_rows
    from stiffcal.errors import DataLayoutError

    if not len(records):
        raise DataLayoutError("no deflection records to regress on")
    first = {}       # distinct (pose, wrench, bucket) -> its first (q, wrench)
    keys = []
    markers = records.marker_id.tolist()
    for i, (q, w, m) in enumerate(zip(records.q_rad, records.wrench, markers)):
        if not 0 <= m < len(model.markers):
            raise DataLayoutError(
                f"record {i}: marker id {m} outside model range "
                f"0..{len(model.markers) - 1}")
        bucket = bucket_of_loop(layout, float(q[1]), f"record {i}")
        key = (tuple(np.round(q, 12)), tuple(w), bucket)
        first.setdefault(key, (q, w))
        keys.append(key)
    rows = sensitivity_rows(model, [q for q, _ in first.values()],
                            [w for _, w in first.values()])
    blocks = {key: layout.place(A, key[2]) for key, A in zip(first, rows)}
    B = np.concatenate([blocks[key][3 * m:3 * m + 3] for key, m in zip(keys, markers)])
    return B, np.concatenate(list(records.deflection_mm))


def optimize_plan_sequential(model, test, bucket_q2_rad, constraints, noise, *,
                             configs_per_bucket=3, repeats=3, n_starts=20,
                             n_grid=7, n_levels=3, seed=0):
    """The plan search one start, one bucket, one config and one joint at a
    time, each bucket descending until a pass leaves it unchanged, q1
    included whatever the load; returns ``(plan, rho0^2, start_values_mm2,
    n_evaluations)``."""
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
        terms = [float(_bucket_variance(M, A0)) for M in Ms]
        start_total = sum(terms)
        spans = [constraints.joint_limits_rad[j][1] - constraints.joint_limits_rad[j][0]
                 for j in _FREE_JOINTS]
        for level in range(n_levels):
            for b in range(len(configs)):
                improved, passes = True, 0
                while improved and passes < 3:
                    improved = False
                    passes += 1
                    for c in range(configs_per_bucket):
                        for fj, j in enumerate(_FREE_JOINTS):
                            q_cur = configs[b][c]
                            span = spans[fj] / (2.0 * (n_grid - 1))**level
                            grid = candidate_grid(j, q_cur[j], span)
                            grid = grid[grid != q_cur[j]]
                            if not grid.size:
                                continue
                            base_M = Ms[b] - repeats * (rows[b][c].T @ rows[b][c])
                            q_try = np.repeat(q_cur[None], grid.size, axis=0)
                            q_try[:, j] = grid
                            A_try = rows_for(q_try)
                            M_try = base_M + repeats * (A_try.swapaxes(1, 2) @ A_try)
                            t_try = _bucket_variance(M_try, A0)
                            best = int(np.argmin(t_try))
                            if t_try[best] < terms[b] * (1.0 - 1e-15):
                                configs[b][c] = q_try[best]
                                rows[b][c] = A_try[best]
                                Ms[b] = M_try[best]
                                terms[b] = float(t_try[best])
                                improved = True
        return start_total, sum(terms), configs

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
    acc = test_pose_accuracy(model, plan, test, noise)
    return plan, acc.rho0_sq_mm2, tuple(start_values), n_eval


def bucket_variance_qr(X, A0):
    """trace(A0 (X^T X)^-1 A0^T) as ||A0 R^-1||^2, with R the triangular QR
    factor of the rows ``X``: no SVD and no information matrix."""
    R = np.linalg.qr(X, mode="r")
    Y = np.linalg.solve(R.T, A0.T)
    return float(np.sum(Y * Y))


def solve_primal_loop(model, compensator, q, tool_wrench=None):
    """One pose's damped fixed point, as the solver ran before it took stacks,
    under the model's gravity and the solver's iteration cap:
    ``(theta, iterations, converged, residual_wrench_rel, lam_halvings)``."""
    from stiffcal import stiffness
    from stiffcal.robot import chain_state, gravity_loading, load_torques
    from stiffcal.stiffness import joint_stiffnesses

    def residual(K, theta, tau):
        r = K @ theta - tau
        return float(np.linalg.norm(r) / max(1.0, np.linalg.norm(tau)))

    q = np.asarray(q, dtype=float)
    K = np.diag(joint_stiffnesses(model, compensator, q))
    loading = gravity_loading(model)
    F = np.zeros(6) if tool_wrench is None else np.asarray(tool_wrench, dtype=float)
    theta = np.zeros(6)
    tau = load_torques(chain_state(model, q, theta), loading, F)
    res = residual(K, theta, tau)
    converged, iterations, halvings = False, 0, 0
    for iterations in range(1, stiffness._MAX_ITER + 1):
        theta_star = np.linalg.solve(K, tau)
        lam = 1.0
        while True:
            cand = theta + lam * (theta_star - theta)
            tau_c = load_torques(chain_state(model, q, cand), loading, F)
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


def solve_dual_loop(model, compensator, q, K, target):
    """The dual solve as it ran before it read each chain state's one
    loaded-Jacobian stack: the tool Jacobian and the gravity torques of each
    iteration from their own calls, and the stack of the returned state
    built again after the loop.  Takes and gives what
    :func:`stiffcal.stiffness._solve_dual` does."""
    from stiffcal.robot import (Pose, chain_state, load_torques, _loaded_jacobians,
                                _point_jacobian, _torques)
    from stiffcal.stiffness import (EquilibriumState, _MAX_ITER, _POSITION_TOL_MM,
                                    _THETA_TOL_RAD, _check_jacobian, _wrench_residual_rel)
    from stiffcal.transforms import pose_difference

    loading = model._gravity_loading
    theta = np.zeros(6)
    F = np.zeros(6)
    converged = False
    iterations = 0
    pos_res = np.inf
    st = chain_state(model, q, theta)
    for iterations in range(1, _MAX_ITER + 1):
        J = _point_jacobian(st, st.tool_p)
        _check_jacobian(J)
        tau_G = load_torques(st, loading, None)
        # J^T scaled by 1/K: the bits of OpenBLAS's solve against np.diag(K)
        A = J @ (J.T * (1.0 / K)[:, None])
        twist = pose_difference(target.p, target.R, st.tool_p, st.tool_R)
        rhs = twist + J @ theta - J @ (tau_G / K)
        F = np.linalg.solve(A, rhs)
        theta_next = (tau_G + J.T @ F) / K
        step = float(np.linalg.norm(theta_next - theta))
        theta = theta_next
        st = chain_state(model, q, theta)
        pos_res = float(np.linalg.norm(target.p - st.tool_p))
        if step < _THETA_TOL_RAD or pos_res < _POSITION_TOL_MM:
            converged = True
            break
    J, W = _loaded_jacobians(st, loading, F)
    res = float(_wrench_residual_rel(K, theta, _torques(J, W)))
    return EquilibriumState(q=q, theta=theta, tool_wrench=F, pose=Pose(st.tool_p, st.tool_R),
                            converged=converged, iterations=iterations,
                            residual_position_mm=pos_res,
                            residual_wrench_rel=res)._ended_on(model, compensator, K, J, W)


def simulate_deflection_records_loop(model, plan, *, noise_mm=0.0, seed=0,
                                     response="nonlinear"):
    """Deflection records one plan entry, one equilibrium, one marker and one
    repeat at a time; returns ``(q, wrench, marker_id, deflection, repeat)``
    tuples, or raises ``ConvergenceError`` naming the first failed entry.
    Each equilibrium is :func:`stiffcal.stiffness.solve_equilibrium`, a stack
    of one, so agreement checks that stacking the entries changes no bit."""
    import math

    from stiffcal.errors import ConvergenceError
    from stiffcal.robot import chain_state
    from stiffcal.stiffness import predict_marker_deflections, solve_equilibrium

    comp = model.compensator
    out = []
    for i, entry in enumerate(plan.entries):
        q, w = entry.q, entry.w
        if response == "linear":
            defl = predict_marker_deflections(model, comp, q, w)
        else:
            st0 = solve_equilibrium(model, comp, q, None)
            st1 = solve_equilibrium(model, comp, q, w)
            if not (st0.converged and st1.converged):
                stop = st0 if not st0.converged else st1
                raise ConvergenceError(
                    f"equilibrium did not converge for plan entry {i} "
                    f"(q2={math.degrees(q[1]):.1f} deg) after {stop.iterations} iterations")
            c1 = chain_state(model, q, st1.theta)
            c0 = chain_state(model, q, st0.theta)
            defl = [(c1.tool_R @ off + c1.tool_p) - (c0.tool_R @ off + c0.tool_p)
                    for off in model.markers]
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
        k_star = fit.values + fit.sigma_hat_mm * (fit.lsq.root @ w)
        k2 = k_star[:nb]
        try:
            if np.any(k2 <= 0):
                raise IdentifiabilityError("non-positive resampled compliance")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                sep = separate_compensator(layout, 1.0 / k2, comp.geometry)
        except IdentifiabilityError:
            failed += 1
            continue
        samples.append([1.0 / sep.K0_Nmm_per_rad, *k_star[nb:], sep.Kc_N_per_mm, sep.s0_mm])
    if failed > n_samples // 2:
        raise IdentifiabilityError(f"{failed}/{n_samples} resamples failed")
    return 3.0 * np.std(np.array(samples), axis=0, ddof=1), failed


# the writers' cell formats before write_table took one printf spec per column
_CELL = {".10g": lambda v: f"{v:.10g}", ".6f": lambda v: f"{v:.6f}", "d": str, "s": str}


def table_bytes_per_cell(header, formats, rows):
    """The bytes of a headed table formatted one cell at a time."""
    lines = [list(header)] + [[_CELL[f](v) for f, v in zip(formats, row)] for row in rows]
    return "".join(",".join(cells) + "\r\n" for cells in lines).encode("utf-8")


def read_table_loop(path, header=None, *, kind="", ints=(), row=list):
    """A headed CSV read one cell at a time with ``float``/``int``: its
    stripped header, one ``row(values)`` per non-blank row and each such
    row's line, raising ``DataLayoutError`` at the first bad header, row,
    cell or ``row`` ``ValueError`` in file order; a UTF-8 byte-order mark
    is ignored.  The reference the bulk pass of ``read_table`` must match."""
    import csv
    import math

    from stiffcal.errors import DataLayoutError

    def where():
        return f"{path}:{reader.line_num}"

    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                names = [h.strip() for h in next(reader)]
            except StopIteration:
                raise DataLayoutError(f"{path}: empty file") from None
            if header is not None and names != list(header):
                raise DataLayoutError(f"{path}: expected {kind} header "
                                      f"{','.join(header)}, got {names}")
            if len(set(names)) < len(names):
                raise DataLayoutError(f"{path}: duplicate column name in header {names}")
            out, lines = [], []
            for cells in reader:
                if not any(c.strip() for c in cells):
                    continue
                if len(cells) != len(names):
                    raise DataLayoutError(
                        f"{where()}: expected {len(names)} fields, got {len(cells)}")
                vals = []
                for name, cell in zip(names, cells):
                    try:
                        v = int(cell) if name in ints else float(cell)
                    except ValueError as exc:
                        raise DataLayoutError(f"{where()}: column {name}: {exc}") from exc
                    if not (name in ints or math.isfinite(v)):
                        raise DataLayoutError(
                            f"{where()}: column {name} must be finite, got {cell.strip()!r}")
                    vals.append(v)
                try:
                    out.append(row(vals))
                except ValueError as exc:
                    raise DataLayoutError(f"{where()}: {exc}") from exc
                lines.append(reader.line_num)
    except csv.Error as exc:
        raise DataLayoutError(f"{where()}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataLayoutError(f"{path}: not UTF-8 text: {exc}") from exc
    return names, out, lines


def load_deflection_csv_loop(path):
    """Deflection records through :func:`read_table_loop`, each row's
    ``marker_id`` and ``repeat`` checked as it is read."""
    from stiffcal.elasto_id import DEFLECTION_CSV_HEADER, INT64_MAX, DeflectionRecords
    from stiffcal.errors import DataLayoutError

    def checked(v):
        for i, name in ((12, "marker_id"), (16, "repeat")):
            if v[i] < 0:
                raise ValueError(f"column {name} must be >= 0, got {v[i]}")
            if v[i] > INT64_MAX:
                raise ValueError(f"column {name} must be <= {INT64_MAX}, got {v[i]}")
        return v

    _, rows, _ = read_table_loop(path, DEFLECTION_CSV_HEADER, kind="deflection",
                                 ints=("marker_id", "repeat"), row=checked)
    if not rows:
        raise DataLayoutError(f"{path}: no deflection records found")
    a = np.array(rows)
    ids = np.array([(v[12], v[16]) for v in rows])
    return DeflectionRecords(np.radians(a[:, :6]), a[:, 6:12], ids[:, 0], ids[:, 1],
                             a[:, 13:16])


def load_plan_csv_loop(path):
    """A plan through :func:`read_table_loop`, one entry built per row as it is read."""
    from stiffcal.doe import PLAN_CSV_HEADER, CalibrationPlan, PlanEntry
    from stiffcal.errors import DataLayoutError

    _, entries, _ = read_table_loop(
        path, PLAN_CSV_HEADER, kind="plan", ints=("repeats",),
        row=lambda v: PlanEntry(tuple(np.radians(v[:6])), tuple(v[6:12]), v[12]))
    if not entries:
        raise DataLayoutError(f"{path}: no plan entries found")
    return CalibrationPlan(tuple(entries))


def load_marker_csv_loop(path):
    """:func:`stiffcal.geometry_id.load_marker_csv` with its columns read by
    :func:`read_table_loop`: a marker sweep has no row checks, so only the
    reader differs."""
    from unittest import mock

    from stiffcal import geometry_id

    def columns(path):
        names, rows, lines = read_table_loop(path)
        values = list(zip(*rows)) if rows else [()] * len(names)
        return {n: np.array(v, dtype=float) for n, v in zip(names, values)}, np.array(lines)

    with mock.patch.object(geometry_id, "read_table", columns):
        return geometry_id.load_marker_csv(path)


def gravity_loading_loop(model):
    """:func:`stiffcal.robot.gravity_loading`'s node wrenches (7, 6), one
    link at a time: each link's weight split between its end nodes by the
    lever rule, a massless link skipped, a zero-length link split evenly."""
    W = np.zeros((7, 6))
    g = model.gravity
    for i, joint in enumerate(model.joints):
        if joint.mass_kg == 0.0:
            continue
        w = joint.mass_kg * g
        p_link = joint.link_translation_mm
        L2 = float(p_link @ p_link)
        t = float(joint.com_mm @ p_link) / L2 if L2 > 0.0 else 0.5
        W[i + 1, :3] += t * w
        W[i, :3] += (1.0 - t) * w
    return W
