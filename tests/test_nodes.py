import numpy as np
import pytest

from anarx import (
    GaussianGrid,
    NeoFuzzyNode,
    WangMendelNode,
    build_gaussian_grid,
    build_uniform_grid,
    eval_gaussian,
)
from anarx.errors import DegenerateActivation, DimensionMismatch

from conftest import basis


@pytest.fixture
def neo3():
    return NeoFuzzyNode(build_uniform_grid(0.0, 1.0, 3, 2))


class TestNeoFuzzy:
    def test_regressor_concatenation(self, neo3):
        # the paper's two tied synapses see concat(phi, phi); the node's
        # one synapse fits the sum of their weights and gives the same output
        phi = neo3.regressor(0.25)
        assert np.allclose(phi, [0.5, 0.5, 0.0], atol=1e-15)
        w_y, w_x = np.array([0.3, -0.2, 0.9]), np.array([0.1, 0.4, -0.5])
        node = NeoFuzzyNode(neo3.grid, w_y + w_x)
        rng = np.random.default_rng(3)
        for u in rng.uniform(0, 1, 50):
            phi = node.regressor(u)
            tied = float(np.concatenate([w_y, w_x]) @ np.concatenate([phi, phi]))
            assert abs(node.forward(u) - tied) <= 1e-12

    def test_peak_input_gives_one_unit_entry(self, neo3):
        phi = neo3.regressor(0.5)
        assert np.allclose(phi, [0, 1, 0], atol=1e-15)
        assert int((phi != 0).sum()) == 1

    def test_regressor_is_unity_partition_in_range(self, neo3):
        rng = np.random.default_rng(0)
        for u in rng.uniform(0, 1, 200):
            phi = neo3.regressor(u)
            assert abs(phi.sum() - 1.0) <= 1e-12
            assert np.all(phi >= 0.0)

    def test_zero_weights_zero_output(self, neo3):
        for u in (0.0, 0.3, 0.9):
            assert neo3.forward(u) == 0.0

    def test_peak_weights_reproduce_identity(self):
        grid = build_uniform_grid(0.0, 1.0, 5, 2)
        node = NeoFuzzyNode(grid, np.unique(grid.knots))
        for u in np.linspace(0, 1, 41):
            assert abs(node.forward(u) - u) <= 1e-12

    def test_constant_weights_sum(self, neo3):
        # tied constant synapses 0.4 and -0.15 collapse to their sum
        node = NeoFuzzyNode(neo3.grid, np.full(3, 0.4) + np.full(3, -0.15))
        rng = np.random.default_rng(5)
        for u in rng.uniform(0, 1, 50):
            assert abs(node.forward(u) - 0.25) <= 1e-12

    def test_linearity_in_weights(self):
        rng = np.random.default_rng(9)
        grid = build_uniform_grid(-1.0, 1.0, 6, 3)
        w = rng.normal(size=6)
        node = NeoFuzzyNode(grid, w)
        for u in rng.uniform(-1, 1, 100):
            assert abs(node.forward(u) - float(w @ basis(grid, u))) <= 1e-12

    def test_output_bound(self):
        rng = np.random.default_rng(2)
        grid = build_uniform_grid(0.0, 1.0, 7, 2)
        w = rng.normal(size=7)
        node = NeoFuzzyNode(grid, w)
        bound = np.abs(w).sum()
        for u in rng.uniform(-1, 2, 100):
            assert abs(node.forward(u)) <= bound + 1e-12

    def test_continuity_for_q2(self):
        rng = np.random.default_rng(4)
        grid = build_uniform_grid(0.0, 1.0, 5, 2)
        w = rng.normal(size=5)
        node = NeoFuzzyNode(grid, w)
        # Lipschitz constant: max adjacent weight gap over knot spacing
        spacing = 0.25
        lip = np.abs(np.diff(w)).max() / spacing
        for u in rng.uniform(0, 1, 300):
            du = 1e-6
            a = node.forward(u)
            b = node.forward(min(u + du, 1.0))
            assert abs(b - a) <= lip * du + 1e-12

    def test_weight_length_checked(self, neo3):
        with pytest.raises(DimensionMismatch):
            NeoFuzzyNode(neo3.grid, np.zeros(5))


class TestWangMendel:
    def test_single_rule_normalizes_to_one(self):
        node = WangMendelNode(build_gaussian_grid(0.0, 1.0, 1))
        assert np.array_equal(node.regressor(0.3), [1.0])

    def test_regressor_sums_to_one(self):
        node = WangMendelNode(build_gaussian_grid(0.0, 1.0, 4))
        rng = np.random.default_rng(8)
        for u in rng.uniform(-0.5, 1.5, 100):
            phi = node.regressor(u)
            assert abs(phi.sum() - 1.0) <= 1e-12
            assert np.all(phi >= 0.0)

    def test_matching_centers_dominate(self):
        grid = build_gaussian_grid(0.0, 1.0, 3)
        node = WangMendelNode(grid)
        phi = node.regressor(grid.centers[1])
        assert np.argmax(phi) == 1
        assert phi[1] > phi[0] and phi[1] > phi[2]

    def test_two_rule_symmetry(self):
        node = WangMendelNode(GaussianGrid([0.0, 1.0], [0.5, 0.5]), [0.0, 1.0])
        phi = node.regressor(0.5)
        assert np.allclose(phi, [0.5, 0.5])
        assert abs(node.forward(0.5) - 0.5) <= 1e-15

    def test_equal_weights_passthrough(self):
        node = WangMendelNode(build_gaussian_grid(0.0, 1.0, 5), np.full(5, 0.37))
        rng = np.random.default_rng(1)
        for u in rng.uniform(0, 1, 50):
            assert abs(node.forward(u) - 0.37) <= 1e-12

    def test_zero_weights(self):
        node = WangMendelNode(build_gaussian_grid(0.0, 1.0, 5))
        assert node.forward(0.5) == 0.0

    def test_output_within_weight_hull(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=6)
        node = WangMendelNode(build_gaussian_grid(-1.0, 1.0, 6), w)
        for u in rng.uniform(-1.5, 1.5, 200):
            out = node.forward(u)
            assert w.min() - 1e-12 <= out <= w.max() + 1e-12

    def test_linearity_in_weights(self):
        rng = np.random.default_rng(13)
        grid = build_gaussian_grid(0.0, 1.0, 4)
        w = rng.normal(size=4)
        node = WangMendelNode(grid, w)
        for u in rng.uniform(0, 1, 100):
            # both rule inputs are the lagged value
            z = eval_gaussian(grid, u) * eval_gaussian(grid, u)
            phi = z / z.sum()
            assert abs(node.forward(u) - float(w @ phi)) <= 1e-12

    def test_degenerate_activation(self):
        node = WangMendelNode(GaussianGrid([0.0, 1e-3], [1e-3, 1e-3]))
        with pytest.raises(DegenerateActivation):
            node.regressor(1e6)
        with pytest.raises(DegenerateActivation):
            node.forward(1e6)

    def test_rule_count_must_match(self):
        # one weight per rule
        with pytest.raises(DimensionMismatch):
            WangMendelNode(build_gaussian_grid(0, 1, 3), np.zeros(4))


@pytest.mark.parametrize("make", [
    lambda: NeoFuzzyNode(build_uniform_grid(0.0, 1.0, 9, 3)),
    lambda: NeoFuzzyNode(build_uniform_grid(0.0, 1.0, 9, 4)),
    lambda: WangMendelNode(build_gaussian_grid(0.0, 1.0, 9)),
])
def test_forward_sums_the_support_left_to_right(make):
    # the summation contract for q >= 3 and Wang-Mendel: the products of
    # the fired weights, added left to right from zero
    rng = np.random.default_rng(3)
    node = make()
    node.weights[:] = rng.normal(size=node.dim)
    for u in rng.uniform(0.0, 1.0, 200).tolist():
        start, values = node.fuzzify(u)
        total = 0.0
        for w, v in zip(node.weights[start:].tolist(), values):
            total += w * v
        assert node.forward(u) == total
        assert np.array_equal(node.regressor(u)[start : start + len(values)], values)
