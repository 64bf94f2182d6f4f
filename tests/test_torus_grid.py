"""Grid calculus: stencils, sums, serialization, the space-time array."""

import numpy as np
import pytest

from mfgfd.linear import _layout, dissection_order
from mfgfd.torus_grid import (
    STENCIL,
    GridField,
    SpaceTimeField,
    TimeMesh,
    TorusGrid,
    cell_average,
    laplace_array,
    load_grid_field,
    mass,
    save_grid_field,
    stencil_adjoint,
    stencil_array,
    time_sum,
)
from oracles import fstring_grid_csv


def spike(grid: TorusGrid, i=0, j=0, value=1.0) -> GridField:
    f = GridField.zeros(grid)
    f.values[i, j] = value
    return f


def naive_d1(u: GridField) -> np.ndarray:
    # independent loop oracle for the forward difference in the first index
    n, h = u.grid.n_side, u.grid.h
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = (u.values[(i + 1) % n, j] - u.values[i, j]) / h
    return out


def naive_d2(u: GridField) -> np.ndarray:
    # independent loop oracle for the forward difference in the second index
    n, h = u.grid.n_side, u.grid.h
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = (u.values[i, (j + 1) % n] - u.values[i, j]) / h
    return out


def stencil(u: GridField) -> np.ndarray:
    return stencil_array(u.values)


def d1(u: GridField) -> np.ndarray:
    """Forward difference in the first index: component 0 of the stencil."""
    return stencil(u)[0]


def d2(u: GridField) -> np.ndarray:
    """Forward difference in the second index: component 2 of the stencil."""
    return stencil(u)[2]


def laplace(u: GridField) -> np.ndarray:
    return laplace_array(u.values)


def inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(a * b))


def naive_laplace(u: GridField) -> np.ndarray:
    n, h = u.grid.n_side, u.grid.h
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = -(
                4 * u.values[i, j]
                - u.values[(i + 1) % n, j]
                - u.values[(i - 1) % n, j]
                - u.values[i, (j + 1) % n]
                - u.values[i, (j - 1) % n]
            ) / h**2
    return out


class TestElementaryDifferences:
    def test_constant_field_gives_zero(self):
        g = TorusGrid(8)
        u = GridField.constant(g, 5.0)
        assert np.all(d1(u) == 0.0)
        assert np.all(d2(u) == 0.0)

    def test_spike_forward_difference(self):
        g = TorusGrid(4)
        u = spike(g)
        d = d1(u)
        assert d[3, 0] == 4.0
        assert d[0, 0] == -4.0
        row0 = d[:, 0]
        assert np.count_nonzero(row0) == 2

    def test_sawtooth_wrap(self):
        g = TorusGrid(8)
        u = GridField.from_function(g, lambda x1, x2: x1)
        d = d1(u)
        assert np.allclose(d[:-1, :], 1.0)
        assert np.allclose(d[-1, :], 1.0 - 8)

    def test_matches_naive_loops(self):
        g = TorusGrid(8)
        rng = np.random.default_rng(0)
        u = GridField(g, rng.normal(size=(8, 8)))
        assert np.array_equal(d1(u), naive_d1(u))
        assert np.array_equal(d2(u), naive_d2(u))


class TestStencil:
    def test_constant_gives_zero(self):
        g = TorusGrid(4)
        st = stencil(GridField.constant(g, 2.0))
        assert np.all(st == 0.0)

    def test_spike_components(self):
        # every neighbour of a unit spike lies 1 below it: d_k = -1 / h
        g = TorusGrid(4)
        st = stencil(spike(g))
        assert np.array_equal(st[:, 0, 0], [-4.0, -4.0, -4.0, -4.0])

    def test_component_ordering(self):
        # a field varying only in the second index keeps the first two slots zero
        g = TorusGrid(4)
        u = GridField.from_function(g, lambda x1, x2: x2)
        st = stencil(u)
        assert np.all(st[0] == 0.0)
        assert np.all(st[1] == 0.0)
        # forward neighbour 1/4 higher, backward one 1/4 lower, except at the wrap
        assert set(np.unique(st[2])) == {1.0, 1.0 - 4}
        assert set(np.unique(st[3])) == {-1.0, 4 - 1.0}

    def test_entries_match_definition(self):
        g = TorusGrid(8)
        rng = np.random.default_rng(1)
        u = GridField(g, rng.normal(size=(8, 8)))
        st = stencil(u)
        f1 = naive_d1(u)
        f2 = naive_d2(u)
        for i in range(8):
            for j in range(8):
                # index -1 wraps to N - 1; the backward neighbour difference
                # is minus the forward one of that neighbour
                expect = [f1[i, j], -f1[i - 1, j], f2[i, j], -f2[i, j - 1]]
                assert np.array_equal(st[:, i, j], expect)


class TestStencilTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_array_is_the_table(self, n):
        # d_k = (v(x + step_k e_axis_k) - v(x)) / h, with np.roll as an
        # independent periodic shift
        v = np.random.default_rng(8).normal(size=(2, n, n))
        want = np.stack(
            [(np.roll(v, -step, axis) - v) / (1.0 / n) for step, axis in STENCIL]
        )
        assert np.array_equal(stencil_array(v), want)

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_adjoint_pairing(self, n):
        # node sums of D^T a * w and a . D w agree for a batch of three slices
        rng = np.random.default_rng(9)
        a = np.moveaxis(rng.normal(size=(3, n, n, 4)), -1, 0)
        w = rng.normal(size=(3, n, n))
        lhs = np.sum(stencil_adjoint(a) * w, axis=(-2, -1))
        rhs = np.sum(a * stencil_array(w), axis=(0, -2, -1))
        tol = 64 * np.finfo(float).eps * n**3 * np.max(np.abs(a)) * np.max(np.abs(w))
        assert np.all(np.abs(lhs - rhs) <= tol)
        assert np.array_equal(stencil_adjoint(a[:, 1]), stencil_adjoint(a)[1])


class TestLaplacian:
    def test_constant(self):
        g = TorusGrid(8)
        assert np.all(laplace(GridField.constant(g, 3.0)) == 0.0)

    def test_spike_values(self):
        g = TorusGrid(4)
        lap = laplace(spike(g))
        assert lap[0, 0] == -64.0
        for i, j in [(1, 0), (3, 0), (0, 1), (0, 3)]:
            assert lap[i, j] == 16.0
        assert lap[2, 2] == 0.0

    def test_matches_naive(self):
        g = TorusGrid(8)
        rng = np.random.default_rng(2)
        u = GridField(g, rng.normal(size=(8, 8)))
        assert np.allclose(laplace(u), naive_laplace(u), atol=1e-12)

    def test_mean_zero(self):
        g = TorusGrid(16)
        rng = np.random.default_rng(3)
        u = GridField(g, rng.normal(size=(16, 16)))
        total = np.sum(laplace(u))
        assert abs(total) < 1e-9  # telescoping; zero up to roundoff at h^-2 scale


class TestSummationByParts:
    def test_symmetry(self):
        g = TorusGrid(12)
        rng = np.random.default_rng(4)
        u = GridField(g, rng.normal(size=(12, 12)))
        w = GridField(g, rng.normal(size=(12, 12)))
        lhs = inner(laplace(u), w.values)
        rhs = inner(u.values, laplace(w))
        scale = np.max(np.abs(u.values)) * np.max(np.abs(w.values))
        tol = 10 * np.finfo(float).eps * 12**2 * scale / g.h**2
        assert abs(lhs - rhs) <= tol

    def test_negativity(self):
        g = TorusGrid(8)
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = GridField(g, rng.normal(size=(8, 8)))
            assert inner(laplace(u), u.values) < 0.0
        const = GridField.constant(g, 4.2)
        assert abs(inner(laplace(const), const.values)) < 1e-10

    def test_dirichlet_form_identity(self):
        # sum of squared stencil entries counts each difference twice
        g = TorusGrid(8)
        rng = np.random.default_rng(6)
        u = GridField(g, rng.normal(size=(8, 8)))
        st = stencil(u)
        lhs = g.h**2 * np.sum(st * st)
        rhs = -g.h**2 * inner(laplace(u), u.values)
        assert lhs == pytest.approx(2.0 * rhs, rel=1e-12)
        assert lhs <= 4.0 * rhs * (1 + 1e-12)

    def test_telescoping_sum(self):
        g = TorusGrid(16)
        rng = np.random.default_rng(7)
        u = GridField(g, rng.normal(size=(16, 16)))
        total = np.sum(d1(u))
        assert abs(total) < 1e-11  # exact in exact arithmetic


class TestCellAverage:
    def test_constant_density(self):
        g = TorusGrid(8)
        avg = cell_average(lambda x1, x2: np.ones_like(x1), g)
        assert np.allclose(avg.values, 1.0, atol=1e-14)

    def test_sine_against_closed_form(self):
        # cell mean of 1 + sin(2 pi x1)/2 is 1 + sin(2 pi x1) sin(pi h)/(2 pi h)
        g = TorusGrid(16)
        avg = cell_average(lambda x1, x2: 1.0 + 0.5 * np.sin(2 * np.pi * x1), g)
        x1, _ = g.node_coords()
        damp = np.sin(np.pi * g.h) / (np.pi * g.h)
        exact = 1.0 + 0.5 * np.sin(2 * np.pi * x1) * damp
        assert np.max(np.abs(avg.values - exact)) < 1e-9

    def test_probability_mass(self):
        g = TorusGrid(8)
        avg = cell_average(
            lambda x1, x2: 1.0 + 0.3 * np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * x2), g
        )
        assert mass(avg) == pytest.approx(1.0, abs=1e-7)
        assert np.min(avg.values) >= 0.0


class TestSerialization:
    def test_grid_field_roundtrip(self, tmp_path):
        g = TorusGrid(4)
        rng = np.random.default_rng(12)
        u = GridField(g, rng.normal(size=(4, 4)))
        path = tmp_path / "field.csv"
        save_grid_field(u, path)
        assert sorted(tmp_path.iterdir()) == [path]  # the CSV alone, no sidecar
        back = load_grid_field(path, g)
        assert back.grid == g
        assert np.array_equal(back.values, u.values)

    # signed zeros, subnormals, the extremes of the exponent range, integral
    # values up to 2^53 and past it, and the non-finite values
    SPECIAL = [
        -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, 1e300, -1e300,
        1e-300, -1e-300, 1.0, -3.0, 2.0**53, 2.0**53 + 2.0, 1e16, 0.1, 1.0 / 3.0,
        np.inf, -np.inf, np.nan,
    ]

    @pytest.mark.parametrize("n", [1, 5, 16])
    def test_bytes_match_fstring_writer(self, n, tmp_path):
        # the one-pass %-template writes the bytes of the per-node f-string
        rng = np.random.default_rng(n)
        values = rng.normal(size=n * n) * 10.0 ** rng.integers(-300, 300, size=n * n)
        values[: len(self.SPECIAL)] = self.SPECIAL[: n * n]
        values = values.reshape(n, n)
        path = tmp_path / "field.csv"
        save_grid_field(GridField(TorusGrid(n), values), path)
        assert path.read_bytes() == fstring_grid_csv(values).encode()

    @pytest.mark.parametrize("value", SPECIAL)
    def test_single_node_bytes(self, value, tmp_path):
        path = tmp_path / "field.csv"
        save_grid_field(GridField(TorusGrid(1), np.full((1, 1), value)), path)
        assert path.read_bytes() == fstring_grid_csv(np.full((1, 1), value)).encode()

    @staticmethod
    def saved_rows(tmp_path):
        path = tmp_path / "field.csv"
        save_grid_field(GridField(TorusGrid(4), np.arange(16.0).reshape(4, 4)), path)
        return path, path.read_text().splitlines()

    def test_truncated_file_rejected(self, tmp_path):
        path, rows = self.saved_rows(tmp_path)
        path.write_text("\n".join(rows[:-5]) + "\n")
        with pytest.raises(ValueError, match="misses 5 of 16 nodes") as info:
            load_grid_field(path, TorusGrid(4))
        assert str(path) in str(info.value)

    def test_duplicate_node_rejected(self, tmp_path):
        path, rows = self.saved_rows(tmp_path)
        path.write_text("\n".join(rows[:-1] + ["1,2,7.0"]) + "\n")
        with pytest.raises(ValueError, match="appears twice") as info:
            load_grid_field(path, TorusGrid(4))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("row", ["3,3", "3,3,seven"])
    def test_malformed_row_rejected(self, tmp_path, row):
        path, rows = self.saved_rows(tmp_path)
        path.write_text("\n".join(rows[:-1] + [row]) + "\n")
        with pytest.raises(ValueError, match="malformed row") as info:
            load_grid_field(path, TorusGrid(4))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("row", ["-1,0,7.0", "0,4,7.0"])
    def test_index_outside_grid_rejected(self, tmp_path, row):
        # the replaced last row keeps the node count at N^2
        path, rows = self.saved_rows(tmp_path)
        path.write_text("\n".join(rows[:-1] + [row]) + "\n")
        with pytest.raises(ValueError, match="outside the 4 x 4 grid") as info:
            load_grid_field(path, TorusGrid(4))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_value_rejected(self, tmp_path, value):
        path, rows = self.saved_rows(tmp_path)
        path.write_text("\n".join(rows[:-1] + [f"3,3,{value}"]) + "\n")
        with pytest.raises(ValueError, match=r"node \(3, 3\) .* non-finite value") as info:
            load_grid_field(path, TorusGrid(4))
        assert str(path) in str(info.value)


class TestInvariantsOfTypes:
    def test_time_mesh(self):
        mesh = TimeMesh(1.0, 32)
        assert mesh.dt * mesh.n_steps == pytest.approx(1.0, abs=1e-16)
        for horizon in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="horizon must be positive and finite"):
                TimeMesh(horizon, 4)

    def test_grid_coordinates_exact(self):
        g = TorusGrid(16)
        assert g.h * g.n_side == 1.0
        assert np.array_equal(g.coords1d(), np.arange(16) / 16)

    def test_space_time_field_shares_grid(self):
        mesh = TimeMesh(1.0, 1)
        with pytest.raises(ValueError, match="mismatch"):
            SpaceTimeField(mesh, [GridField.zeros(TorusGrid(4)), GridField.zeros(TorusGrid(8))])


class TestSpaceTimeArray:
    mesh = TimeMesh(0.5, 3)
    grid = TorusGrid(4)

    def random_slices(self, seed):
        rng = np.random.default_rng(seed)
        return [GridField(self.grid, rng.normal(size=(4, 4))) for _ in range(4)]

    def test_values_shape(self):
        f = SpaceTimeField(self.mesh, self.random_slices(14))
        assert f.values.shape == (4, 4, 4)
        ones = SpaceTimeField.from_array(self.mesh, self.grid, np.full((4, 4, 4), 1.0))
        assert ones.values.shape == (4, 4, 4)

    def test_slices_are_views(self):
        # the archive writer wraps each slice as GridField(grid, values[n])
        f = SpaceTimeField(self.mesh, self.random_slices(15))
        for n in range(4):
            assert np.shares_memory(GridField(f.grid, f.values[n]).values, f.values[n])
        f.values[2, 1, 3] = 7.0
        assert GridField(f.grid, f.values[2]).values[1, 3] == 7.0

    def test_constructor_copies_inputs(self):
        slices = self.random_slices(16)
        f = SpaceTimeField(self.mesh, slices)
        before = f.stack()
        slices[1].values[0, 0] += 1.0
        assert np.array_equal(f.values, before)
        assert not any(np.shares_memory(s.values, f.values) for s in slices)

    def test_from_array_does_not_copy(self):
        arr = np.random.default_rng(17).normal(size=(4, 4, 4))
        f = SpaceTimeField.from_array(self.mesh, self.grid, arr)
        assert f.values is arr
        assert np.shares_memory(GridField(f.grid, f.values[3]).values, arr[3])

    def test_stack_equals_values(self):
        f = SpaceTimeField(self.mesh, self.random_slices(18))
        st = f.stack()
        assert np.array_equal(st, f.values)
        assert np.array_equal(st, np.stack([f.values[n] for n in range(4)]))

    def test_time_sum_matches_slice_loop(self):
        arr = np.random.default_rng(20).normal(size=(9, 16, 16)) ** 3
        total = 0.0
        for n in range(9):
            total += float(np.sum(arr[n]))
        assert time_sum(arr) == total

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            SpaceTimeField.from_array(self.mesh, self.grid, np.zeros((3, 4, 4)))


class TestDissectionOrder:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 128])
    def test_permutation_with_wrap_separator_last(self, n):
        order = dissection_order(n)
        assert np.array_equal(np.sort(order), np.arange(n * n))
        i, j = np.divmod(order[n * n - (2 * n - 1) :], n)
        assert np.all((i == 0) | (j == 0))

    def test_cached_per_size(self):
        # the layout of a grid keeps its factor order, built once per size
        order = _layout(16, False).factor_order[0]
        assert order is _layout(16, False).factor_order[0]
        assert not order.flags.writeable
        assert np.array_equal(order, dissection_order(16))

    def test_separator_after_both_halves(self):
        # N = 8: the open grid of rows and columns 1..7 is split first at row 4
        order = list(dissection_order(8))
        middle = [8 * 4 + j for j in range(1, 8)]
        above = [8 * i + j for i in range(1, 4) for j in range(1, 8)]
        below = [8 * i + j for i in range(5, 8) for j in range(1, 8)]
        last_half = max(order.index(k) for k in above + below)
        assert min(order.index(k) for k in middle) > last_half
