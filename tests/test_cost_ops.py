"""Local and bilaplacian costs: presets, oracles, monotonicity, uniform bounds."""

import dataclasses
import warnings

import numpy as np
import pytest

from mfgfd.cost_ops import BilaplacianCost, CostSolveError, DiscreteDensity, LocalCost
from mfgfd.torus_grid import GridField, TorusGrid, laplace_array, mass


def random_density(grid, rng):
    raw = np.abs(rng.normal(1.0, 0.4, size=(grid.n_side, grid.n_side))) + 1e-3
    return DiscreteDensity.normalized(GridField(grid, raw))


def bilaplacian(w):
    return laplace_array(laplace_array(w))


def monotone_pairing(cost, a, b):
    """(cost[a] - cost[b], a - b) for two densities; nonnegative for a monotone cost."""
    ma, mb = a.field.values, b.field.values
    return float(np.sum((cost.apply(ma) - cost.apply(mb)) * (ma - mb)))


class TestDiscreteDensity:
    def test_uniform_is_valid(self):
        d = DiscreteDensity.uniform(TorusGrid(8))
        assert mass(d.field) == pytest.approx(1.0, abs=1e-15)

    def test_negative_rejected(self):
        g = TorusGrid(4)
        vals = np.full((4, 4), 1.0)
        vals[0, 0] = -0.1
        with pytest.raises(ValueError, match="negative"):
            DiscreteDensity(GridField(g, vals))

    def test_wrong_mass_rejected(self):
        g = TorusGrid(4)
        with pytest.raises(ValueError, match="mass"):
            DiscreteDensity(GridField.constant(g, 2.0))

    def test_nan_node_rejected(self):
        # NaN passes "< 0" and "> MASS_TOL", so both tests are written to fail on it
        vals = np.full((4, 4), 1.0)
        vals[1, 2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="negative or NaN"):
                DiscreteDensity(GridField(TorusGrid(4), vals))

    def test_normalized_infinite_node_rejected(self):
        # dividing by an infinite mass used to return NaNs with a RuntimeWarning
        vals = np.full((4, 4), 1.0)
        vals[3, 0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mass .* must be positive and finite, got inf"):
                DiscreteDensity.normalized(GridField(TorusGrid(4), vals))

    def test_normalized_field_of_both_infinities_rejected(self):
        # +inf and -inf sum to a NaN mass, which numpy warns about; the
        # negative node is refused before the sum
        vals = np.full((4, 4), 1.0)
        vals[0, 1], vals[2, 3] = np.inf, -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="negative or NaN node value -inf"):
                DiscreteDensity.normalized(GridField(TorusGrid(4), vals))

    def test_normalized_mass_machine_true(self):
        g = TorusGrid(8)
        rng = np.random.default_rng(0)
        d = DiscreteDensity.normalized(GridField(g, np.abs(rng.normal(2.0, 1.0, (8, 8)))))
        assert abs(mass(d.field) - 1.0) <= 1e-12


class TestLocalCostPresets:
    def test_linear_apply(self):
        g = TorusGrid(4)
        cost = LocalCost.linear()
        out = cost.apply(DiscreteDensity.uniform(g).field.values)
        assert np.all(out == 1.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_power_growth_condition(self, alpha):
        # m F(m) >= delta |F(m)|^gamma - c1 sampled over [0, 1e3]
        cost = LocalCost.power(alpha)
        m = np.concatenate([[0.0], np.logspace(-6, 3, 400)])
        lhs = m * cost.f(m)
        rhs = cost.delta * np.abs(cost.f(m)) ** cost.gamma - cost.c1
        assert np.all(lhs >= rhs - 1e-9 * np.maximum(1.0, np.abs(rhs)))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_power_derivative_lower_bound(self, alpha):
        cost = LocalCost.power(alpha)
        m = np.logspace(-6, 3, 400)
        lhs = cost.f_prime(m)
        rhs = cost.delta_lower * np.minimum(m**cost.eta1, m**-cost.eta2)
        assert np.all(lhs >= rhs - 1e-12 * np.abs(rhs))
        assert cost.eta1 > 0 and 0 < cost.eta2 < 1

    def test_linear_is_power_one(self):
        linear, power = LocalCost.linear(), LocalCost.power(1.0)
        for name in ("delta", "gamma", "c1", "delta_lower", "eta1", "eta2"):
            assert getattr(linear, name) == getattr(power, name), name
        assert linear.name == "linear"
        rng = np.random.default_rng(5)
        m = rng.exponential(1.0, (3, 8, 8)) * (rng.uniform(size=(3, 8, 8)) < 0.7)
        assert np.count_nonzero(m == 0.0) > 0
        assert np.array_equal(linear.apply(m), m)
        assert np.array_equal(linear.apply(m), power.apply(m))

    def test_linear_growth_condition(self):
        cost = LocalCost.linear()
        m = np.linspace(0, 1e3, 500)
        assert np.all(m * cost.f(m) >= cost.delta * np.abs(cost.f(m)) ** cost.gamma - cost.c1)

    @pytest.mark.parametrize("constant", ["delta", "gamma", "c1", "delta_lower", "eta1", "eta2"])
    def test_nan_constant_refused(self, constant):
        # a check written as x <= 0 lets NaN through; delta_lower had no check
        with pytest.raises(ValueError, match="need"):
            dataclasses.replace(LocalCost.linear(), **{constant: float("nan")})

    def test_alpha_range_validated(self):
        with pytest.raises(ValueError, match="alpha"):
            LocalCost.power(2.5)
        with pytest.raises(ValueError, match="alpha"):
            LocalCost.power(0.0)

    def test_negative_inputs_clamped(self):
        cost = LocalCost.power(0.5)
        vals = np.full((4, 4), 1.0)
        vals[0, 0] = -5e-11  # inside the negativity gate
        assert cost.apply(vals)[0, 0] == 0.0


class TestBilaplacianCost:
    def test_constant_in_kernel(self):
        g = TorusGrid(8)
        cost = BilaplacianCost(g)
        w = cost.apply(DiscreteDensity.uniform(g).field.values)
        assert np.max(np.abs(w - 1.0)) < 1e-13

    def test_cosine_mode_against_symbol(self):
        # single-mode density: the solve divides by 1 + mu^2 with the exact
        # discrete eigenvalue mu = 2(1 - cos(2 pi h)) / h^2
        g = TorusGrid(16)
        cost = BilaplacianCost(g)
        x1, _ = g.node_coords()
        w = cost.apply(1.0 + np.cos(2 * np.pi * x1))
        mu = 2.0 * (1.0 - np.cos(2 * np.pi * g.h)) / g.h**2
        exact = 1.0 + np.cos(2 * np.pi * x1) / (1.0 + mu**2)
        assert np.max(np.abs(w - exact)) < 1e-10

    def test_matches_dense_direct_solve(self):
        # independent oracle: assemble (Lap^2 + I) densely from the stencil
        g = TorusGrid(8)
        n2 = 64
        dense = np.zeros((n2, n2))
        for k in range(n2):
            e = np.zeros(n2)
            e[k] = 1.0
            dense[:, k] = bilaplacian(e.reshape(8, 8)).ravel() + e
        rng = np.random.default_rng(1)
        dens = random_density(g, rng).field.values
        w_direct = np.linalg.solve(dense, dens.ravel())
        w_fft = BilaplacianCost(g).apply(dens)
        assert np.max(np.abs(w_fft.ravel() - w_direct)) < 1e-10

    def test_residual_at_moderate_size(self):
        g = TorusGrid(8)
        rng = np.random.default_rng(2)
        dens = random_density(g, rng).field.values
        w = BilaplacianCost(g).apply(dens)
        res = bilaplacian(w) + w - dens
        assert np.max(np.abs(res)) < 1e-10

    def test_linearity(self):
        g = TorusGrid(8)
        rng = np.random.default_rng(3)
        cost = BilaplacianCost(g)
        m1 = rng.normal(size=(8, 8))
        m2 = rng.normal(size=(8, 8))
        a, b = 0.7, -1.3
        combo = cost.apply(a * m1 + b * m2)
        split = a * cost.apply(m1) + b * cost.apply(m2)
        assert np.max(np.abs(combo - split)) < 1e-10

    def test_consistency_under_refinement(self):
        # smooth density: nodal values of the continuous resolvent vs the
        # discrete solve applied to cell averages, decreasing over levels
        from mfgfd.torus_grid import cell_average

        def density(x1, x2):
            return 1.0 + 0.5 * np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * x2)

        # continuous resolvent of the single mode: eigenvalue of -Lap is 8 pi^2
        lam = (8 * np.pi**2) ** 2 + 1.0
        errs = []
        for n in (8, 16, 32):
            g = TorusGrid(n)
            avg = cell_average(density, g)
            w = BilaplacianCost(g).apply(avg.values)
            x1, x2 = g.node_coords()
            w_exact = 1.0 + 0.5 * np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * x2) / lam
            errs.append(float(np.max(np.abs(w - w_exact))))
        assert errs[0] > errs[1] > errs[2]

    def test_grid_mismatch_rejected(self):
        # an (8, 1) slice would broadcast against the (8, 8) symbol
        with pytest.raises(ValueError, match="shape"):
            BilaplacianCost(TorusGrid(8)).apply(np.zeros((8, 1)))

    def test_nan_node_fails_the_residual_gate(self):
        # one NaN node makes every w node NaN; NaN > limit is False, so the
        # gate has to be written to fail on NaN
        m = np.ones((8, 8))
        m[3, 5] = np.nan
        with pytest.raises(CostSolveError):
            BilaplacianCost(TorusGrid(8)).apply(m)


class TestMonotonePairing:
    def test_zero_at_equal(self):
        g = TorusGrid(8)
        rng = np.random.default_rng(4)
        d = random_density(g, rng)
        assert monotone_pairing(LocalCost.linear(), d, d) == 0.0

    @pytest.mark.parametrize("make", [LocalCost.linear, lambda: LocalCost.power(2.0)])
    def test_local_nonnegative(self, make):
        g = TorusGrid(8)
        rng = np.random.default_rng(5)
        cost = make()
        for _ in range(20):
            a, b = random_density(g, rng), random_density(g, rng)
            assert monotone_pairing(cost, a, b) >= -1e-12

    def test_nonlocal_nonnegative(self):
        g = TorusGrid(8)
        rng = np.random.default_rng(6)
        cost = BilaplacianCost(g)
        for _ in range(20):
            a, b = random_density(g, rng), random_density(g, rng)
            assert monotone_pairing(cost, a, b) >= -1e-12

    def test_nonlocal_resolvent_spd(self):
        # dense check: the solve operator is symmetric positive definite
        g = TorusGrid(8)
        cost = BilaplacianCost(g)
        n2 = 64
        dense = np.zeros((n2, n2))
        for k in range(n2):
            e = np.zeros(n2)
            e[k] = 1.0
            dense[:, k] = cost.apply(e.reshape(8, 8)).ravel()
        assert np.max(np.abs(dense - dense.T)) < 1e-12
        eigs = np.linalg.eigvalsh(0.5 * (dense + dense.T))
        assert eigs[0] > 0.0


class TestSmoothingBounds:
    def test_uniform_density_flat(self):
        g = TorusGrid(8)
        v = BilaplacianCost(g).apply(np.ones((8, 8)))
        lip = max(
            np.max(np.abs(np.roll(v, -1, 0) - v)), np.max(np.abs(np.roll(v, -1, 1) - v))
        ) / g.h
        assert np.max(np.abs(v)) == pytest.approx(1.0, abs=1e-12)
        assert lip < 1e-11

    def test_bounds_across_levels(self):
        # sup norm and largest neighbour difference quotient of the smoothed
        # random densities and of the single-cell spike, per level
        rng = np.random.Generator(np.random.Philox(0))
        sups, lips = [], []
        for n in (8, 16, 32):
            g = TorusGrid(n)
            cost = BilaplacianCost(g)
            spike = np.zeros((n, n))
            spike[0, 0] = 1.0 / g.h**2
            densities = [
                DiscreteDensity.normalized(
                    GridField(g, np.abs(rng.normal(1.0, 0.5, size=(n, n))) + 1e-3)
                ).field
                for _ in range(4)
            ]
            densities.append(DiscreteDensity(GridField(g, spike)).field)
            level_sup, level_lip = 0.0, 0.0
            for dens in densities:
                v = cost.apply(dens.values)
                lip = max(
                    np.max(np.abs(np.roll(v, -1, 0) - v)), np.max(np.abs(np.roll(v, -1, 1) - v))
                ) / g.h
                level_sup = max(level_sup, float(np.max(np.abs(v))))
                level_lip = max(level_lip, float(lip))
            sups.append(level_sup)
            lips.append(level_lip)
        # bounded: the finest level does not blow past the coarsest
        assert sups[-1] <= 2.0 * sups[0] + 1.0
        assert lips[-1] <= 2.0 * lips[0] + 1.0
        # regression pins: the spike density keeps both quotients bounded
        assert max(sups) < 1.5
        assert max(lips) < 3.0
