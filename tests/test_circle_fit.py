import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import circumcenter, kasa_fit, procrustes_svd
from stiffcal import circle_fit
from stiffcal.circle_fit import fit_circle_procrustes, fit_concentric_arcs
from stiffcal.errors import AngleDirectionError, DegenerateGeometryError


def _arc(center, radius, angles, sign=1, phase=0.0, noise=0.0, seed=0):
    a = sign * np.asarray(angles) + phase
    pts = center + radius * np.stack([np.cos(a), np.sin(a)], axis=1)
    if noise:
        rng = np.random.default_rng(seed)
        pts = pts + noise * rng.standard_normal(pts.shape)
    return pts


class TestProcrustes:
    def test_exact_recovery(self):
        angles = np.radians(np.linspace(-140.0, 0.0, 7))
        c = np.array([12.5, -3.0])
        pts = _arc(c, 184.7, angles, phase=0.4)
        fit = fit_circle_procrustes(pts, angles)
        assert np.allclose(fit.center, c, atol=1e-10)
        assert np.isclose(fit.radius, 184.7, atol=1e-10)
        assert fit.angle_sign == 1
        assert fit.residual_rms < 1e-10

    def test_mirrored_direction_detected(self):
        angles = np.radians(np.linspace(-140.0, 0.0, 7))
        pts = _arc(np.array([0.0, 0.0]), 100.0, angles, sign=-1, phase=1.0)
        fit = fit_circle_procrustes(pts, angles, angle_sign="auto")
        assert fit.angle_sign == -1
        assert fit.residual_rms < 1e-10

    def test_forced_wrong_sign_raises(self):
        angles = np.radians(np.linspace(-140.0, 0.0, 9))
        pts = _arc(np.array([5.0, 5.0]), 150.0, angles, sign=-1)
        with pytest.raises(AngleDirectionError):
            fit_circle_procrustes(pts, angles, angle_sign=1)

    @pytest.mark.parametrize("angle_sign", ["auto", 1, -1])
    def test_each_sign_fitted_once(self, monkeypatch, angle_sign):
        """One Procrustes solve per angle sign, whatever ``angle_sign`` is:
        "auto" picks from the two fits the mirror check then reads."""
        calls = []
        solve = circle_fit._procrustes_once
        monkeypatch.setattr(circle_fit, "_procrustes_once",
                            lambda p, u: calls.append(1) or solve(p, u))
        angles = np.radians(np.linspace(-140.0, 0.0, 9))
        sign = -1 if angle_sign == "auto" else angle_sign
        fit = fit_circle_procrustes(_arc(np.array([5.0, 5.0]), 150.0, angles, sign=sign,
                                         noise=0.05), angles, angle_sign=angle_sign)
        assert fit.angle_sign == sign
        assert len(calls) == 2

    def test_three_d_input_drops_z(self):
        angles = np.radians([0.0, -40.0, -80.0, -120.0])
        pts2 = _arc(np.array([1.0, 2.0]), 50.0, angles)
        pts3 = np.column_stack([pts2, np.full(len(pts2), 7.7)])
        fit = fit_circle_procrustes(pts3, angles)
        assert np.allclose(fit.center[:2], [1.0, 2.0], atol=1e-9)

    def test_radius_positive_even_for_noisy_data(self):
        angles = np.radians(np.linspace(-90.0, 0.0, 12))
        pts = _arc(np.zeros(2), 30.0, angles, noise=2.0, seed=3)
        fit = fit_circle_procrustes(pts, angles)
        assert fit.radius > 0.0

    def test_too_few_points(self):
        angles = np.array([0.0, 1.0])
        pts = _arc(np.zeros(2), 10.0, angles)
        with pytest.raises(DegenerateGeometryError, match="at least 3"):
            fit_circle_procrustes(pts, angles)

    def test_equal_angles_degenerate(self):
        angles = np.zeros(5)
        pts = np.tile([[10.0, 0.0]], (5, 1))
        with pytest.raises(DegenerateGeometryError, match="angles equal"):
            fit_circle_procrustes(pts, angles)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_center_insensitive_to_rigid_motion(self, seed):
        rng = np.random.default_rng(seed)
        angles = np.sort(rng.uniform(-2.4, 0.0, 6))
        if np.ptp(angles) < 0.3:
            return
        pts = _arc(np.array([3.0, -8.0]), 120.0, angles,
                   phase=rng.uniform(-np.pi, np.pi), noise=0.05, seed=seed)
        fit = fit_circle_procrustes(pts, angles)
        shift = np.array([57.1, -13.9])
        fit2 = fit_circle_procrustes(pts + shift, angles)
        assert np.allclose(fit2.center - fit.center, shift, atol=1e-9)
        assert np.isclose(fit2.radius, fit.radius, atol=1e-9)

    @given(seed=st.integers(0, 2**32 - 1), stacked=st.booleans(),
           sign=st.sampled_from([1, -1]), data_sign=st.sampled_from([1, -1]),
           thin=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_svd_oracle(self, seed, stacked, sign, data_sign, thin):
        """The planar closed form gives the SVD recipe's similarity and
        residual to 1e-12 of the data scale, for one point set or a stack,
        in either angle convention; a ``thin`` embedding (its sine column
        squashed by 1e-9..1e-3) puts D near the 1e-12 rank threshold, where
        the rank flags agree unless the singular-value ratio is within 1 %
        of it."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 13))
        a = np.sort(rng.uniform(-np.pi, np.pi, m)) * rng.uniform(0.05, 1.0)
        squash = 10.0 ** rng.uniform(-9, -3) if thin else 1.0
        u, arc = (circle_fit._embed(a, sg) * [1.0, squash] for sg in (sign, data_sign))
        k = (4,) if stacked else ()
        r = 10.0 ** rng.uniform(-2, 3, k)
        phi = rng.uniform(-np.pi, np.pi, k)
        c, s = np.cos(phi), np.sin(phi)
        turn = np.stack([np.stack([c, s], -1), np.stack([-s, c], -1)], -2)
        noise = r * 10.0 ** rng.uniform(-8, -1, k)
        p = r[..., None, None] * (arc @ turn) + rng.uniform(-1e3, 1e3, k + (1, 2)) \
            + noise[..., None, None] * rng.standard_normal(k + (m, 2))

        (mu, R, t, F, ok), (mu_o, R_o, t_o, F_o, ok_o) = (
            fit(p, u) for fit in (circle_fit._procrustes_once, procrustes_svd))
        scale = np.abs(p).max(axis=(-2, -1))
        assert np.all(np.abs(mu - mu_o) <= 1e-12 * scale)
        assert np.all(np.abs(mu[..., None, None] * (R - R_o)).max(axis=(-2, -1))
                      <= 1e-12 * scale)
        assert np.all(np.abs(t - t_o).max(axis=-1) <= 1e-12 * scale)
        assert np.all(np.abs(F - F_o) <= 1e-12 * m * scale**2)
        D = (u - u.mean(axis=0)).T @ (p - p.mean(axis=-2)[..., None, :])
        sv = np.linalg.svd(D, compute_uv=False)
        far = np.abs(np.log(sv[..., 1] / sv[..., 0] / 1e-12)) > 0.01
        assert np.array_equal(ok[far], ok_o[far])

    @pytest.mark.parametrize("p, rank_ok", [
        ([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 1.0]], True),   # D = diag(2, -2)
        ([[3.0, 4.0]] * 4, False),                                     # D = 0
    ])
    def test_no_proper_rotation_fits(self, p, rank_ok):
        """A D with z = 0 (a pure reflection, or no spread at all) gives
        mu = 0, which ``_fit_signed`` refuses, and a finite R without a numpy
        warning; D = 0 is also flagged rank deficient."""
        u = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        with np.errstate(all="raise"):
            mu, R, t, F, ok = circle_fit._procrustes_once(np.array(p), u)
        assert mu == 0.0
        assert np.all(np.isfinite(R)) and np.isfinite(F)
        assert ok == rank_ok

    def test_beats_kasa_on_short_noisy_arcs(self):
        # the angle annotations keep short arcs honest; Kasa drifts
        rng = np.random.default_rng(42)
        wins = 0
        trials = 60
        for t in range(trials):
            angles = np.sort(rng.uniform(-np.pi / 3.0, 0.0, 10))
            if np.ptp(angles) < 0.2:
                angles[-1] = angles[0] + 0.2
            c = rng.uniform(-50.0, 50.0, 2)
            pts = _arc(c, 200.0, angles, noise=0.5, seed=1000 + t)
            fitp = fit_circle_procrustes(pts, angles)
            ck, _ = kasa_fit(pts)
            if np.linalg.norm(fitp.center - c) <= np.linalg.norm(ck - c):
                wins += 1
        assert wins > trials // 2


class TestConcentric:
    def test_two_sets_2d_exact(self):
        angles1 = np.radians(np.linspace(-30.0, 60.0, 8))
        angles2 = np.radians(np.linspace(10.0, 100.0, 6))
        c = np.array([-685.0, -118.0])
        s1 = _arc(c, 250.0, angles1)
        s2 = _arc(c, 410.0, angles2)
        fit = fit_concentric_arcs([s1, s2])
        assert np.allclose(fit.center, c, atol=1e-9)
        assert np.allclose(fit.radii, [250.0, 410.0], atol=1e-9)
        assert fit.axis is None

    def test_single_set_matches_circumcenter_oracle(self):
        angles = np.radians([0.0, 50.0, 110.0])
        c = np.array([4.0, -9.0])
        pts = _arc(c, 77.0, angles)
        fit = fit_concentric_arcs([pts])
        ref = circumcenter(pts[0], pts[1], pts[2])
        assert np.allclose(fit.center, ref, atol=1e-9)

    def test_3d_rank2_planar_data(self):
        # arcs in a tilted plane: centre and axis must be recovered
        rng = np.random.default_rng(5)
        n = np.array([0.2, -0.3, 0.933])
        n = n / np.linalg.norm(n)
        u = np.cross(n, [1.0, 0.0, 0.0])
        u /= np.linalg.norm(u)
        v = np.cross(n, u)
        c3 = np.array([100.0, -50.0, 30.0])
        sets = []
        for r in (120.0, 200.0):
            ang = np.sort(rng.uniform(0.0, 1.8, 7))
            sets.append(c3 + r * (np.outer(np.cos(ang), u)
                                  + np.outer(np.sin(ang), v)))
        fit = fit_concentric_arcs(sets)
        assert np.allclose(fit.center, c3, atol=1e-6)
        assert np.isclose(abs(fit.axis @ n), 1.0, atol=1e-9)
        assert np.allclose(fit.radii, [120.0, 200.0], atol=1e-6)

    def test_collinear_points_degenerate(self):
        line = np.stack([np.linspace(0, 10, 5), np.zeros(5)], axis=1)
        with pytest.raises(DegenerateGeometryError):
            fit_concentric_arcs([line])

    def test_mixed_dimensions_rejected(self):
        s2 = _arc(np.zeros(2), 10.0, np.radians([0, 45, 90]))
        s3 = np.column_stack([s2, np.zeros(3)])
        with pytest.raises(ValueError, match="same dimension"):
            fit_concentric_arcs([s2, s3])


def test_crank_fit_agrees_with_circumcenter_on_measured_data(table1_path):
    from stiffcal.geometry_id import load_marker_csv
    ds = load_marker_csv(table1_path)
    fit = fit_circle_procrustes(ds.crank, ds.q2_rad)
    ref = circumcenter(ds.crank[0], ds.crank[2], ds.crank[5])
    # both see the same circle through ~0.07 mm of tracker noise
    assert np.linalg.norm(fit.center - ref) < 0.5
    assert abs(fit.radius - 184.72) < 0.3
