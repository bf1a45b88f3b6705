import io

import numpy as np
import pytest

from cyclecluster.engine import SolverConfig, _Search
from cyclecluster.formulation import (
    ConversionError,
    RltSpace,
    VariableSpace,
    build_cc,
    build_rlt,
    clustering_to_point,
    point_to_clustering,
    write_lp,
)
from cyclecluster.instance import Clustering, Instance, ParameterError, objective
from cyclecluster.lp import lp_relaxation, solve_lp
from cyclecluster.oracle import enumerate_feasible_points, feasible_point_matrix, full_universe_size
from conftest import random_clustering, random_instance


class TestBuildCc:
    def test_counts_dense(self, t1):
        model = build_cc(t1)
        space = model.space
        assert space.num_x == 9
        assert len(space.pairs) == 3  # 3 y + 6 z variables
        assert model.ncols == 9 + 9
        assert model.nrows == 3 + 3 + 3 + 18 + 18
        assert model.row_count("assign") == 3
        assert model.row_count("cover") == 3
        assert model.row_count("pair") == 3
        assert model.row_count("same_link") == 18
        assert model.row_count("consec_link") == 18
        # the core rows lead and the linking rows follow them
        assert model.core_rows == 9
        assert set(model.row_family[:9]) == {"assign", "cover", "pair"}
        assert set(model.row_family[9:]) == {"same_link", "consec_link"}

    def test_zero_pair_gets_no_variables(self):
        q = np.zeros((4, 4))
        q[0, 1] = q[1, 0] = 1.0
        q[1, 2] = 1.0
        q[2, 3] = 1.0
        q[3, 0] = 1.0
        inst = Instance(n=4, m=3, alpha=0.5, Q=q)
        space = VariableSpace(inst)
        assert (0, 2) not in space.pairs and (1, 3) not in space.pairs
        assert len(space.pairs) == 4

    def test_m2_rejected(self):
        inst = Instance(n=4, m=2, alpha=0.5, Q=np.ones((4, 4)) - np.eye(4))
        with pytest.raises(ParameterError):
            build_cc(inst)

    def test_feasible_points_satisfy_all_rows(self):
        inst = random_instance(4, 3, seed=0)
        model = build_cc(inst)
        count = 0
        for pt in enumerate_feasible_points(4, 3):
            assert model.point_feasible(pt)
            count += 1
        assert count == 36

    def test_same_cluster_forces_y(self):
        # points with i, j together but y = 0 must violate some row
        inst = random_instance(4, 3, seed=1)
        model = build_cc(inst)
        space = model.space
        c = Clustering((0, 0, 1, 2), 3)
        pt = clustering_to_point(space, c)
        assert model.point_feasible(pt)
        broken = pt.copy()
        broken[space.y(0, 1)] = 0.0
        assert not model.point_feasible(broken)

    def test_model_objective_matches_instance_objective(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            inst = random_instance(6, 4, seed=trial, alpha=float(rng.uniform(0.2, 0.9)))
            model = build_cc(inst)
            c = Clustering(random_clustering(6, 4, rng), 4)
            pt = clustering_to_point(model.space, c)
            assert model.point_objective(pt) == pytest.approx(objective(inst, c), abs=1e-9)

    def test_symmetry_break_pins_first_vertex(self, t1):
        # the model stays the paper's; only the solver's LP pins vertex 0
        model = build_cc(t1)
        assert not model.lo.any()
        assert (model.hi == 1.0).all()
        search = _Search(t1, SolverConfig(), None)
        pinned = np.zeros(model.ncols)
        pinned[model.space.x(0, 0)] = 1.0
        assert search.lp.lo.tolist() == pinned.tolist()
        assert (search.lp.hi == 1.0).all()


class TestPointConversion:
    def test_t1_forward_cycle_point(self, t1):
        space = VariableSpace(t1)
        pt = clustering_to_point(space, Clustering((0, 1, 2), 3))
        assert pt[space.z(0, 1)] == 1.0
        assert pt[space.z(1, 2)] == 1.0
        assert pt[space.z(2, 0)] == 1.0
        assert pt[space.y(0, 1)] == pt[space.y(1, 2)] == pt[space.y(0, 2)] == 0.0

    def test_far_apart_pair_all_zero(self):
        inst = random_instance(4, 4, seed=3)
        space = VariableSpace(inst)
        pt = clustering_to_point(space, Clustering((0, 1, 2, 3), 4))
        assert pt[space.y(0, 2)] == pt[space.z(0, 2)] == pt[space.z(2, 0)] == 0.0

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(4)
        inst = random_instance(7, 4, seed=5)
        space = VariableSpace(inst)
        for _ in range(20):
            c = Clustering(random_clustering(7, 4, rng), 4)
            assert point_to_clustering(space, clustering_to_point(space, c)) == c

    def test_fractional_rejected(self, t1):
        space = VariableSpace(t1)
        pt = clustering_to_point(space, Clustering((0, 1, 2), 3))
        pt[space.x(0, 0)] = 0.5
        with pytest.raises(ConversionError):
            point_to_clustering(space, pt)

    def test_point_matrices_match_pairwise_lookup(self):
        inst = random_instance(7, 4, seed=2, density=0.6)
        space = VariableSpace(inst)
        pt = np.random.default_rng(0).uniform(size=space.ncols)
        X, Y, Z = space.point_matrices(pt)
        assert X.tolist() == pt[: space.num_x].reshape(7, 4).tolist()
        for i in range(7):
            for j in range(7):
                weighted = i != j and space.has_pair(i, j)
                assert Y[i, j] == (pt[space.y(i, j)] if weighted else 0.0)
                assert Z[i, j] == (pt[space.z(i, j)] if weighted else 0.0)

    def test_universe_alignment_with_oracle(self):
        # dense instances share the oracle's full-universe column layout
        inst = random_instance(4, 3, seed=9)
        space = VariableSpace(inst)
        assert space.ncols == full_universe_size(4, 3)
        pts = feasible_point_matrix(4, 3)
        model = build_cc(inst)
        for k in range(0, len(pts), 7):
            assert model.point_feasible(pts[k])


class TestBuildRlt:
    def test_variable_count_ratio(self, t1):
        model = build_rlt(t1)
        space = model.space
        assert isinstance(space, RltSpace)
        w_count = model.ncols - 9
        # per weighted pair: 2*m^2 - m product columns (diagonal shared)
        assert w_count == 3 * (2 * 9 - 3)
        cc_linearization = 3 * len(space.pairs)
        ratio = w_count / cc_linearization
        assert 0.4 * 9 <= ratio <= 0.7 * 9

    def test_linking_rows(self, t1):
        model = build_rlt(t1)
        assert model.row_count("link") == 2 * 3 * 3  # ordered pairs x clusters
        assert model.row_count("assign") == 3
        assert model.row_count("cover") == 3

    def test_integral_x_forces_products(self, t1):
        # with x integral the linking equations admit exactly the products
        model = build_rlt(t1)
        space = model.space
        c = Clustering((0, 1, 2), 3)
        pt = np.zeros(model.ncols)
        for i, a in enumerate(c.assignment):
            pt[space.x(i, a)] = 1.0
        for (i, j) in space.pairs:
            for s in range(3):
                for t in range(3):
                    pt[space.w(i, j, s, t)] = pt[space.x(i, s)] * pt[space.x(j, t)]
                    pt[space.w(j, i, s, t)] = pt[space.x(j, s)] * pt[space.x(i, t)]
        assert model.point_feasible(pt)
        assert model.point_objective(pt) == pytest.approx(objective(t1, c), abs=1e-9)

    def test_root_lp_equals_cc_root_lp(self, t1):
        cc_val = solve_lp(lp_relaxation(build_cc(t1))).objective_value
        rlt_val = solve_lp(lp_relaxation(build_rlt(t1))).objective_value
        assert cc_val == pytest.approx(rlt_val, abs=1e-6)
        # closed form at the uniform root: sum of per-pair best contributions
        expected = sum(
            max(t1.alpha * abs(t1.q_minus[i, j]), (1 - t1.alpha) * t1.q_plus[i, j])
            for i in range(3)
            for j in range(i + 1, 3)
        )
        assert cc_val == pytest.approx(expected, abs=1e-6)


class TestLpExport:
    def test_write_lp_smoke(self, t1):
        buf = io.StringIO()
        write_lp(build_cc(t1), buf)
        text = buf.getvalue()
        assert "Maximize" in text and "Binaries" in text
        assert "x_0_0" in text and "z_0_1" in text

    def test_write_lp_header_names_the_model(self, t1):
        for kwargs, header in (({}, "\\ cyclecluster"), ({"name": "t1"}, "\\ t1")):
            buf = io.StringIO()
            write_lp(build_cc(t1), buf, **kwargs)
            assert buf.getvalue().splitlines()[0] == header


class TestRltCutTransfer:
    def test_translated_cuts_hold_at_integral_points(self):
        # y := sum_s w[s,s], z := sum_s w[s,s+1] turns CC-valid cuts into RLT-valid ones
        from cyclecluster.oracle import check_cut_validity
        from sep_brute import named_cut

        inst = random_instance(5, 4, seed=31)
        rspace = RltSpace(inst)
        m = inst.m
        rng = np.random.default_rng(2)
        templates = [
            ({("y", 0, 1): 1.0, ("y", 1, 2): 1.0, ("y", 0, 2): -1.0}, 1.0),
            ({("z", 0, 1): 1.0, ("z", 1, 0): 1.0, ("y", 0, 1): 1.0}, 1.0),
        ]
        for coeffs, rhs in templates:
            assert check_cut_validity(inst, named_cut(VariableSpace(inst), coeffs, rhs))
        for _ in range(15):
            c = Clustering(random_clustering(5, 4, rng), 4)
            pt = np.zeros(rspace.ncols)
            for i, a in enumerate(c.assignment):
                pt[rspace.x(i, a)] = 1.0
            for (i, j) in rspace.pairs:
                for s in range(m):
                    for t in range(m):
                        pt[rspace.w(i, j, s, t)] = pt[rspace.x(i, s)] * pt[rspace.x(j, t)]
                        pt[rspace.w(j, i, s, t)] = pt[rspace.x(j, s)] * pt[rspace.x(i, t)]
            for coeffs, rhs in templates:
                lhs = 0.0
                for var, coef in coeffs.items():
                    kind, i, j = var
                    if kind == "y":
                        lhs += coef * sum(pt[rspace.w(i, j, s, s)] for s in range(m))
                    else:
                        lhs += coef * sum(pt[rspace.w(i, j, s, (s + 1) % m)] for s in range(m))
                assert lhs <= rhs + 1e-9
