import numpy as np
import pytest

from helmfem import BasisFunction, build_grid, eval_basis

UNIT = (0.0, 1.0, 0.0, 1.0)


class TestBuildGrid:
    def test_smallest_grid(self):
        g = build_grid(UNIT, 2, 2)
        assert g.n_nodes == 4
        assert g.n_elements == 1
        assert g.h == 1.0

    def test_table_grid_spacings(self):
        # nodes per side N gives h = 1/(N-1)
        assert build_grid(UNIT, 30, 30).h == pytest.approx(1.0 / 29, abs=0)
        assert round(build_grid(UNIT, 30, 30).h, 4) == 0.0345
        assert round(build_grid(UNIT, 40, 40).h, 4) == 0.0256

    def test_counts_and_ordering(self):
        g = build_grid((0, 2, 0, 1), 5, 4)
        assert g.n_nodes == 20
        assert g.n_elements == 12
        # row-major by j then i
        assert g.node_id(3, 2) == 2 * 5 + 3
        np.testing.assert_allclose(g.nodes[g.node_id(3, 2)], [1.5, 2.0 / 3.0])
        # elements counter-clockwise from lower-left
        np.testing.assert_array_equal(g.elements[0], [0, 1, 6, 5])

    def test_boundary_classification(self):
        g = build_grid(UNIT, 6, 5)
        assert len(g.boundary_nodes) == 2 * 6 + 2 * 5 - 4
        assert len(g.interior_nodes) == (6 - 2) * (5 - 2)
        # every edge endpoint is a boundary node, no interior node in any edge
        edge_ids = set(g.edge_nodes.ravel().tolist())
        assert edge_ids == set(g.boundary_nodes.tolist())
        assert not edge_ids & set(g.interior_nodes.tolist())

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_grid(UNIT, 1, 5)
        with pytest.raises(ValueError):
            build_grid(UNIT, 5, 1)
        with pytest.raises(ValueError):
            build_grid((0, 0, 0, 1), 3, 3)
        with pytest.raises(ValueError):
            build_grid((0, 1, 2, 1), 3, 3)

    def test_refinement_nesting(self):
        coarse = build_grid((0, 1, 0, 2), 7, 5)
        fine = build_grid((0, 1, 0, 2), 13, 9)
        for j in range(5):
            for i in range(7):
                c = coarse.nodes[coarse.node_id(i, j)]
                f = fine.nodes[fine.node_id(2 * i, 2 * j)]
                assert c[0] == f[0] and c[1] == f[1]


class TestBasis:
    def test_kronecker_property(self):
        g = build_grid(UNIT, 4, 4)
        for node in range(g.n_nodes):
            for other in range(g.n_nodes):
                v, _ = eval_basis(g, node, g.nodes[other])
                assert v == pytest.approx(1.0 if node == other else 0.0, abs=1e-14)

    def test_value_at_element_center(self):
        g = build_grid(UNIT, 3, 3)
        for node in g.elements[0]:
            v, _ = eval_basis(g, node, (0.25, 0.25))
            assert v == pytest.approx(0.25, abs=1e-15)

    def test_point_outside_domain(self):
        g = build_grid(UNIT, 3, 3)
        with pytest.raises(ValueError):
            eval_basis(g, 0, (1.5, 0.5))

    def test_partition_of_unity(self):
        g = build_grid((0, 1, 0, 1.5), 5, 6)
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.01, 0.99, size=(1000, 2)) * np.array([1.0, 1.5])
        for x, y in pts:
            vals = 0.0
            grads = np.zeros(2)
            e = g.element_of_point(x, y)
            for node in g.elements[e]:
                v, gr = eval_basis(g, node, (x, y))
                vals += v
                grads += gr
            assert abs(vals - 1.0) < 1e-12
            # gradient sum vanishes away from element boundaries
            xi, eta = g.local_coords(e, x, y)
            if min(1 - abs(xi), 1 - abs(eta)) > 1e-9:
                assert np.abs(grads).max() < 1e-12

    def test_tie_breaks_toward_lower_element(self):
        g = build_grid(UNIT, 3, 3)
        # point on the interior vertical gridline belongs to the left element
        assert g.element_of_point(0.5, 0.25) == 0
        assert g.element_of_point(0.5, 0.75) == 2
        # domain corners clamp into the valid range
        assert g.element_of_point(0.0, 0.0) == 0
        assert g.element_of_point(1.0, 1.0) == 3

    def test_basis_function_object(self):
        g = build_grid(UNIT, 4, 4)
        phi = BasisFunction(g, 5)  # interior node (1, 1)
        assert len(phi.support) == 4
        assert phi(*g.nodes[5]) == pytest.approx(1.0)
        assert phi(*g.nodes[0]) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            BasisFunction(g, 99)
