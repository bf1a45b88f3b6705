import io

import numpy as np
import pytest

from cyclecluster.engine import SolverConfig, _Search
from cyclecluster.formulation import (
    ConversionError,
    VariableSpace,
    build_cc,
    clustering_to_point,
    point_to_clustering,
    write_lp,
)
from cyclecluster.instance import Clustering, Instance, ParameterError, objective
from cyclecluster.lp import lp_relaxation, solve_lp
from cyclecluster.oracle import enumerate_feasible_points, feasible_point_matrix, full_universe_size
from conftest import random_clustering, random_instance
import model_ref
from model_ref import RltSpace, build_rlt, point_feasible


class TestBuildCc:
    def test_counts_dense(self, t1):
        model = build_cc(t1)
        space = model.space
        assert space.num_x == 9
        assert len(space.pairs) == 3  # 3 y + 6 z variables
        assert model.ncols == 9 + 9
        assert model.nrows == 3 + 3 + 3 + 18 + 18
        assert model.row_family.count("assign") == 3
        assert model.row_family.count("cover") == 3
        assert model.row_family.count("pair") == 3
        assert model.row_family.count("same_link") == 18
        assert model.row_family.count("consec_link") == 18
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
            assert point_feasible(model, pt)
            count += 1
        assert count == 36

    def test_same_cluster_forces_y(self):
        # points with i, j together but y = 0 must violate some row
        inst = random_instance(4, 3, seed=1)
        model = build_cc(inst)
        space = model.space
        c = Clustering((0, 0, 1, 2), 3)
        pt = clustering_to_point(space, c)
        assert point_feasible(model, pt)
        broken = pt.copy()
        broken[space.y(0, 1)] = 0.0
        assert not point_feasible(model, broken)

    def test_model_objective_matches_instance_objective(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            inst = random_instance(6, 4, seed=trial, alpha=float(rng.uniform(0.2, 0.9)))
            model = build_cc(inst)
            c = Clustering(random_clustering(6, 4, rng), 4)
            pt = clustering_to_point(model.space, c)
            assert model.objective @ pt == pytest.approx(objective(inst, c), abs=1e-9)

    def test_symmetry_break_pins_first_vertex(self, t1):
        # the model stays the paper's; only the solver's LP pins vertex 0
        model = build_cc(t1)
        assert not model.lo.any()
        assert (model.hi == 1.0).all()
        search = _Search(t1, SolverConfig())
        pinned = np.zeros(model.ncols)
        pinned[model.space.x(0, 0)] = 1.0
        assert search.lp.lo.tolist() == pinned.tolist()
        assert (search.lp.hi == 1.0).all()


def assert_same_model(got, want):
    """The same rows, bounds, families and objective, bit for bit."""
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got.rows, name), getattr(want.rows, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.rows.ncols == want.rows.ncols
    for name in ("row_lower", "row_upper", "objective"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.row_family == want.row_family
    assert got.core_rows == want.core_rows


def lonely_vertex_instance() -> Instance:
    """n=6, m=4 with no weight on any pair of vertex 2."""
    q = random_instance(6, 4, seed=12).Q.copy()
    q[2, :] = q[:, 2] = 0.0
    return Instance(n=6, m=4, alpha=0.5, Q=q)


class TestModelReference:
    """The table-built model equals the row-by-row reference builder."""

    @pytest.mark.parametrize("density", [1.0, 0.4], ids=["dense", "sparse"])
    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    @pytest.mark.parametrize("build, reference", [(build_cc, model_ref.build_cc)], ids=["cc"])
    def test_rows_match_the_scalar_reference(self, build, reference, m, density):
        inst = random_instance(9, m, seed=m, density=density)
        assert_same_model(build(inst), reference(inst))

    @pytest.mark.parametrize("build, reference", [(build_cc, model_ref.build_cc)], ids=["cc"])
    def test_vertex_without_weighted_pair(self, build, reference):
        inst = lonely_vertex_instance()
        assert (VariableSpace(inst).ycol[2] < 0).all()  # vertex 2 has no weighted pair
        assert_same_model(build(inst), reference(inst))


class TestRowBounds:
    """`model_ref.point_feasible` reads each side of each row's bounds: a point that
    breaks exactly one row, by the reference's senses, is rejected."""

    @staticmethod
    def broken_rows(model, point):
        ref = model_ref.build_cc(model.space.inst)
        lhs = ref.rows @ point
        broken = np.flatnonzero((lhs < ref.row_lower - 1e-9) | (lhs > ref.row_upper + 1e-9))
        return [ref.row_family[k] for k in broken]

    @staticmethod
    def uniform_point(model):
        space = model.space
        point = np.zeros(model.ncols)
        point[: space.num_x] = 1.0 / space.m
        return point, point[: space.num_x].reshape(space.n, space.m)

    def test_uniform_point_is_feasible(self):
        model = build_cc(random_instance(6, 4, seed=3))
        point, _ = self.uniform_point(model)
        assert point_feasible(model, point) and self.broken_rows(model, point) == []

    def test_one_cover_row(self):
        # cluster 3 empty, the others share each vertex: cover row 3 reads 0 >= 1
        model = build_cc(random_instance(6, 4, seed=3))
        point, x = self.uniform_point(model)
        x[:, :3], x[:, 3] = 1.0 / 3.0, 0.0
        assert self.broken_rows(model, point) == ["cover"]
        assert not point_feasible(model, point)

    @pytest.mark.parametrize("share", [0.0, 0.5], ids=["below", "above"])
    def test_one_assign_row(self, share):
        # vertex 0 at 0 in every cluster (sum 0) or at 1/2 in each (sum 2)
        model = build_cc(random_instance(6, 4, seed=3))
        point, x = self.uniform_point(model)
        x[0] = share
        assert self.broken_rows(model, point) == ["assign"]
        assert not point_feasible(model, point)

    def test_one_pair_row(self):
        # y + z(0,1) = 2 > 1, while every linking row keeps z - y <= 1 and y - z <= 1
        model = build_cc(random_instance(6, 4, seed=3))
        point, _ = self.uniform_point(model)
        point[model.space.y(0, 1)] = point[model.space.z(0, 1)] = 1.0
        assert self.broken_rows(model, point) == ["pair"]
        assert not point_feasible(model, point)


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
                weighted = i != j and space.ycol[i, j] >= 0
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
            assert point_feasible(model, pts[k])


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
        assert model.row_family.count("link") == 2 * 3 * 3  # ordered pairs x clusters
        assert model.row_family.count("assign") == 3
        assert model.row_family.count("cover") == 3

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
        assert point_feasible(model, pt)
        assert model.objective @ pt == pytest.approx(objective(t1, c), abs=1e-9)

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

    def test_write_lp_senses_come_from_the_bounds(self):
        inst = random_instance(7, 4, seed=5, density=0.6)
        model = build_cc(inst)
        buf = io.StringIO()
        write_lp(model, buf)
        lines = buf.getvalue().splitlines()
        rows = lines[lines.index("Subject To") + 1 : lines.index("Bounds")]
        senses = [line.split()[-2] for line in rows]
        assert len(senses) == model.nrows
        assert senses.count("=") == 7 and senses.count(">=") == 4 and senses.count("<=") == model.nrows - 11
        assert senses[:7] == ["="] * 7 and senses[7:11] == [">="] * 4
        assert all(line.split()[-1] == "1" for line in rows)

    def test_write_lp_header_names_the_model(self, t1):
        buf = io.StringIO()
        write_lp(build_cc(t1), buf)
        assert buf.getvalue().splitlines()[0] == "\\ cyclecluster"


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
