import numpy as np
import pytest

from helmfem import (
    AcousticParams, CoefficientField, HalfPlaneError, NeumannBC, admissibility,
    assemble_system, auto_rotation_angle, build_grid, rotate,
)

UNIT = (0.0, 1.0, 0.0, 1.0)


def grid4():
    return build_grid(UNIT, 4, 4)


def brute_force_margin(values, theta):
    """Smallest angular distance of any rotated value to the real axis
    (negative when a value leaves the upper half-plane)."""
    phi = np.angle(np.asarray(values) * np.exp(1j * theta))
    return np.minimum(phi, np.pi - phi).min()


class TestAdmissibility:
    def test_reference_constant_pair(self):
        f = CoefficientField.constant(grid4(), 3 + 2j, 1 + 4j)
        rep = admissibility(f)
        assert rep.ok
        assert (rep.min_im_l, rep.min_im_m) == (2.0, 4.0)

    def test_real_l_is_inadmissible(self):
        rep = admissibility(CoefficientField.constant(grid4(), 1 + 0j, 1 + 1j))
        assert not rep.ok
        assert rep.min_im_l == 0.0

    def test_bar_phase_values(self):
        f = CoefficientField.constant(grid4(), -0.5 + 0.0027j, 63.9923 + 0.7039j)
        rep = admissibility(f)
        assert rep.ok
        assert (rep.min_im_l, rep.min_im_m) == pytest.approx((0.0027, 0.7039))

    def test_two_phase_margins(self):
        f = CoefficientField.layered(grid4(), "y", 0.5,
                                     low=(3 + 2j, 1 + 4j), high=(0.5 + 0.001j, 3 + 7j))
        rep = admissibility(f)
        assert rep.ok
        assert rep.min_im_l == pytest.approx(0.001)
        assert rep.min_im_m == pytest.approx(4.0)


class TestRotate:
    """The phase e^{i*theta}: ``admissibility`` reads a field at an angle,
    ``rotate`` turns its assembled system."""

    def system(self):
        g = grid4()
        return assemble_system(g, CoefficientField.constant(g, 3 + 2j, 1 + 4j),
                               NeumannBC(g=lambda x, y: np.exp(x) + 1j * np.asarray(y)))

    @staticmethod
    def assert_systems_close(s1, s2):
        for m1, m2 in ((s1.a1.mat, s2.a1.mat), (s1.a2, s2.a2)):
            np.testing.assert_allclose(m1.toarray(), m2.toarray(), rtol=0, atol=1e-14)
        np.testing.assert_allclose(s1.b1, s2.b1, rtol=0, atol=1e-14)
        np.testing.assert_allclose(s1.b2, s2.b2, rtol=0, atol=1e-14)

    def test_zero_rotation_identity(self):
        f = CoefficientField.constant(grid4(), 3 + 2j, 1 + 4j)
        assert admissibility(f, 0.0) == admissibility(f)
        s = self.system()
        assert rotate(s, 0.0) is s

    def test_quarter_turn(self):
        f = CoefficientField.constant(grid4(), 3 + 2j, 1 + 4j)
        rep = admissibility(f, np.pi / 2)   # L -> -2 + 3i, M -> -4 + 1i
        assert (rep.min_im_l, rep.min_im_m) == pytest.approx((3.0, 1.0), abs=1e-14)
        s = self.system()
        r = rotate(s, np.pi / 2)            # K -> i K: A1 -> A2, A2 -> -A1
        np.testing.assert_allclose(r.a1.mat.toarray(), s.a2.toarray(), rtol=0, atol=1e-14)
        np.testing.assert_allclose(r.a2.toarray(), -s.a1.mat.toarray(), rtol=0, atol=1e-14)
        np.testing.assert_allclose(r.b1, s.b2, rtol=0, atol=1e-14)
        np.testing.assert_allclose(r.b2, -s.b1, rtol=0, atol=1e-14)

    def test_small_negative_rotation_stays_admissible(self):
        f = CoefficientField.constant(grid4(), 3 + 2j, 1 + 4j)
        assert admissibility(f, -0.2).ok

    def test_composition(self):
        s = self.system()
        a, b = 0.37, -1.1
        self.assert_systems_close(rotate(rotate(s, a), b), rotate(s, a + b))

    def test_full_turn_identity(self):
        s = self.system()
        self.assert_systems_close(rotate(s, 2 * np.pi), s)


class TestAutoRotation:
    def test_centers_the_argument_spread(self):
        f = CoefficientField.constant(grid4(), 1 + 1j, 2 + 1j)
        rep0 = admissibility(f)
        theta = auto_rotation_angle(f.all_values())
        rotated = admissibility(f, theta)
        assert rotated.ok
        # centered: both extreme arguments sit at the same distance from the axis
        args = np.angle(f.all_values() * np.exp(1j * theta))
        assert args.min() == pytest.approx(np.pi - args.max(), abs=1e-12)
        assert (min(rotated.min_im_l, rotated.min_im_m)
                >= min(rep0.min_im_l, rep0.min_im_m))

    def test_lower_half_plane_recovered(self):
        f = CoefficientField.constant(grid4(), 2 - 0.003j, 3 - 0.0004j)
        assert not admissibility(f).ok
        theta = auto_rotation_angle(f.all_values())
        assert admissibility(f, theta).ok
        # the chosen angle matches a brute-force max-margin scan
        vals = f.all_values()
        scan = np.arange(-np.pi, np.pi, 1e-4)
        best = scan[np.argmax([brute_force_margin(vals, t) for t in scan])]
        assert brute_force_margin(vals, theta) >= brute_force_margin(vals, best) - 1e-4

    def test_antipodal_values_infeasible(self):
        f = CoefficientField.constant(grid4(), 1 + 0j, -1 + 0j)
        with pytest.raises(HalfPlaneError):
            auto_rotation_angle(f.all_values())

    def test_zero_value_infeasible(self):
        f = CoefficientField.constant(grid4(), 0j, 1 + 1j)
        with pytest.raises(HalfPlaneError):
            auto_rotation_angle(f.all_values())

    @pytest.mark.parametrize("bad", [complex(np.nan, 1.0), complex(1.0, np.inf)])
    def test_non_finite_value_infeasible(self, bad):
        f = CoefficientField.constant(grid4(), 1 + 1j, 2 + 1j)
        f.m[3] = bad
        with pytest.raises(HalfPlaneError, match="non-finite"):
            auto_rotation_angle(f.all_values())

    def test_random_half_plane_fields_become_admissible(self):
        rng = np.random.default_rng(11)
        g = grid4()
        for _ in range(25):
            base = rng.uniform(-np.pi, np.pi)
            spread = rng.uniform(0.05, 0.9) * np.pi
            args = base + rng.uniform(0, spread, size=2 * g.n_elements)
            mods = rng.uniform(0.1, 10, size=2 * g.n_elements)
            vals = mods * np.exp(1j * args)
            f = CoefficientField(lxx=vals[: g.n_elements].copy(),
                                 lyy=vals[: g.n_elements].copy(),
                                 m=vals[g.n_elements:].copy())
            theta = auto_rotation_angle(f.all_values())
            assert admissibility(f, theta).ok


class TestAcoustic:
    def test_l_from_density(self):
        f = AcousticParams(rho=2 + 2j, kappa=1.0, omega=1.0)(grid4())
        assert f.lxx[0] == pytest.approx(-0.25 + 0.25j)

    def test_m_from_modulus(self):
        f = AcousticParams(rho=1.0 + 1j, kappa=1 - 3j, omega=1.0)(grid4())
        assert f.m[0] == pytest.approx(0.1 + 0.3j)

    def test_reference_pair_admissible_for_all_omega(self):
        for omega in (0.5, 1.0, 10.0, 30.0):
            p = AcousticParams(rho=2 + 2j, kappa=1 - 3j, omega=omega)
            rep = admissibility(p(grid4()))
            assert rep.ok
            assert rep.min_im_l == pytest.approx(0.25)
            assert rep.min_im_m == pytest.approx(0.3 * omega ** 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            AcousticParams(rho=0.0, kappa=1.0, omega=1.0)
        with pytest.raises(ValueError):
            AcousticParams(rho=1.0, kappa=0.0, omega=1.0)
        with pytest.raises(ValueError):
            AcousticParams(rho=1.0, kappa=1.0, omega=0.0)
        with pytest.raises(ValueError, match="finite"):
            AcousticParams(rho=1.0, kappa=1.0, omega=float("inf"))


class TestConstructors:
    def test_diagonal_l(self):
        f = CoefficientField.constant(grid4(), (1 + 1j, 2 + 1j), 1 + 1j)
        assert not f.scalar_l
        assert f.lxx[0] != f.lyy[0]
        np.testing.assert_array_equal(
            f.diag_values(0), np.array([1 + 1j, 2 + 1j, 1 + 1j]))

    def test_diagonal_bar_indicator(self):
        g = build_grid(UNIT, 9, 9)
        f = CoefficientField.diagonal_bar(g, 0.25, bar=(2j, 1j), background=(1j, 1j))
        cx, cy = g.element_centroids().T
        dist = np.abs(cx + cy - 1.0) / np.sqrt(2.0)
        np.testing.assert_array_equal(f.lxx == 2j, dist <= 0.125)

    def test_random_field_deterministic(self):
        g = grid4()
        f1 = CoefficientField.random(g, 0, 10, seed=3)
        f2 = CoefficientField.random(g, 0, 10, seed=3)
        np.testing.assert_array_equal(f1.lxx, f2.lxx)
        np.testing.assert_array_equal(f1.m, f2.m)
        assert admissibility(f1).ok

    def test_empty_field_rejected(self):
        with pytest.raises(ValueError):
            CoefficientField(lxx=np.array([]), lyy=np.array([]), m=np.array([]))
