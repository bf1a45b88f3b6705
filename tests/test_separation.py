import numpy as np
import pytest

from cyclecluster.formulation import VariableSpace, clustering_to_point
from cyclecluster.instance import Clustering, Instance
from cyclecluster.oracle import check_cut_validity
from cyclecluster import separation
from cyclecluster.separation import (
    Cuts,
    _best_candidates,
    _partition_seeds,
    _walk_rows,
    first_rows,
    separate_partition,
    separate_subtour_path,
    separate_triangle,
)
import sep_ref
from conftest import random_clustering, random_instance
from sep_brute import (
    brute_best_subtour_path_violation,
    brute_triangle_cuts,
    column,
    named_cut,
    partition_seeds,
    random_box_point,
    random_fractional_point,
)

TOL = separation.TOL_CUT


def dense_space(n, m, seed=0):
    return VariableSpace(random_instance(n, m, seed=seed))


def point_with(space, entries):
    pt = np.zeros(space.ncols)
    for var, val in entries.items():
        pt[column(space, var)] = val
    return pt


def named(space, cuts, r=0):
    """The coefficients of row r by readable column name."""
    at = slice(cuts.indptr[r], cuts.indptr[r + 1])
    return {space.name(c): v for c, v in zip(cuts.indices[at].tolist(), cuts.data[at].tolist())}


def of_family(cuts, family):
    return cuts.take(np.flatnonzero(cuts.family == family))


def assert_same_cuts(a, b):
    """The two batches hold the same rows, bit for bit, in the same order."""
    assert a.indptr.tolist() == b.indptr.tolist() and a.indices.tolist() == b.indices.tolist()
    assert a.data.tobytes() == b.data.tobytes() and a.violation.tobytes() == b.violation.tobytes()
    assert a.rhs.tolist() == b.rhs.tolist() and a.family.tolist() == b.family.tolist()


class TestTriangle:
    def test_m3_z_triangle_example(self):
        space = dense_space(3, 3)
        pt = point_with(space, {("z", 0, 1): 1.0, ("z", 1, 2): 1.0})
        cuts = separate_triangle(space, pt)
        assert len(cuts) == 1
        assert cuts.family[0] == "TriangleZ3"
        assert cuts.violation[0] == pytest.approx(1.0)
        assert named(space, cuts) == {"z_0_1": 1.0, "z_1_2": 1.0, "z_2_0": -1.0}

    def test_m4_strengthened_example(self):
        space = dense_space(4, 4)
        pt = point_with(space, {("z", 0, 1): 1.0, ("z", 0, 2): 1.0})
        cuts = separate_triangle(space, pt)
        assert cuts.family[0] == "TriangleZZY4"
        assert cuts.violation[0] == pytest.approx(2.0)

    def test_integral_points_produce_no_cuts(self):
        rng = np.random.default_rng(0)
        for n, m in [(5, 3), (6, 4), (6, 5)]:
            inst = random_instance(n, m, seed=n * m)
            space = VariableSpace(inst)
            for _ in range(10):
                c = Clustering(random_clustering(n, m, rng), m)
                pt = clustering_to_point(space, c)
                assert len(separate_triangle(space, pt)) == 0

    @pytest.mark.parametrize("n,m", [(4, 3), (5, 4), (6, 5), (7, 4)])
    def test_completeness_vs_brute_force(self, n, m):
        rng = np.random.default_rng(n * 10 + m)
        space = dense_space(n, m, seed=1)
        for trial in range(15):
            pt = random_box_point(space, rng) if trial % 2 else random_fractional_point(space, rng, noise=0.3)
            cuts = separate_triangle(space, pt)
            got = dict(zip(cuts.keys, cuts.violation))
            expected = brute_triangle_cuts(space, pt, TOL)
            assert set(got) == set(expected)
            for sup, viol in expected.items():
                assert got[sup] == pytest.approx(viol, abs=1e-9)

    def test_m_gating_families(self):
        rng = np.random.default_rng(5)
        expected = {
            3: {"TriangleZ3"},
            4: {"TriangleY", "TriangleYZ", "TriangleMixed", "TriangleZZY4"},
            5: {"TriangleY", "TriangleYZ", "TriangleMixed", "TriangleZZY"},
        }
        for m, allowed in expected.items():
            space = dense_space(6, m, seed=m)
            families = set()
            for _ in range(10):
                pt = random_box_point(space, rng)
                families |= set(separate_triangle(space, pt).family.tolist())
            assert families <= allowed
            assert families  # random points do violate something

    def test_sorted_by_violation(self):
        space = dense_space(6, 4, seed=2)
        rng = np.random.default_rng(9)
        pt = random_box_point(space, rng)
        cuts = separate_triangle(space, pt)
        viols = cuts.violation.tolist()
        assert viols == sorted(viols, reverse=True)

    def test_validity_on_sparse_instance(self):
        # zero-weight pairs must not yield invalid truncated templates
        rng = np.random.default_rng(31)
        inst = random_instance(6, 4, seed=8, density=0.5)
        space = VariableSpace(inst)
        assert len(space.pairs) < 15
        for trial in range(10):
            pt = random_box_point(space, rng)
            cuts = separate_triangle(space, pt)
            assert check_cut_validity(inst, cuts), cuts.text(space)


class TestSubtourPath:
    def test_two_cycle_example(self):
        space = dense_space(3, 3)
        pt = point_with(space, {("z", 0, 1): 0.6, ("z", 1, 0): 0.6})
        sub = of_family(separate_subtour_path(space, pt), "Subtour")
        assert len(sub)
        assert sub.violation[0] == pytest.approx(0.2)
        assert named(space, sub)["z_0_1"] == 1.0
        assert named(space, sub)["z_1_0"] == 1.0
        assert sub.rhs[0] == 1.0

    def test_extended_dominates_plain(self):
        # same support: the y-augmented lhs is never below the plain z-sum
        space = dense_space(5, 4, seed=3)
        rng = np.random.default_rng(2)
        is_z = np.array([space.name(c).startswith("z") for c in range(space.ncols)])
        for _ in range(20):
            pt = random_box_point(space, rng)
            sub = of_family(separate_subtour_path(space, pt), "Subtour")
            z_only = np.bincount(sub.entry_rows, weights=sub.data * pt[sub.indices] * is_z[sub.indices], minlength=len(sub))
            assert (sub @ pt >= z_only - 1e-12).all()

    def test_integral_points_produce_no_cuts(self):
        rng = np.random.default_rng(1)
        for n, m in [(5, 3), (6, 4), (6, 5)]:
            inst = random_instance(n, m, seed=n + m)
            space = VariableSpace(inst)
            for _ in range(10):
                c = Clustering(random_clustering(n, m, rng), m)
                pt = clustering_to_point(space, c)
                assert len(separate_subtour_path(space, pt)) == 0

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_dp_matches_brute_enumeration(self, m):
        rng = np.random.default_rng(40 + m)
        n = 7
        space = dense_space(n, m, seed=m)
        trials = 34
        for trial in range(trials):
            pt = random_fractional_point(space, rng, components=3, noise=0.15)
            _, Y, Z = space.point_matrices(pt)
            for i1 in range(n):
                emitted = _walk_rows(space, Y, Z, np.array([i1]), TOL)  # the rows of start i1 alone
                got = emitted.violation.max(initial=0.0)
                want = brute_best_subtour_path_violation(space, pt, i1, TOL)
                assert got == pytest.approx(want, abs=1e-9), f"start {i1}, trial {trial}"

    def test_path_cut_has_closing_term(self):
        # force a violated path: 0 -> 1 -> 2 -> 3 consecutive, 3 together with 0
        space = dense_space(5, 4, seed=6)
        entries = {
            ("z", 0, 1): 1.0,
            ("z", 1, 2): 1.0,
            ("z", 2, 3): 0.6,
            ("y", 2, 3): 0.3,
            ("y", 0, 3): 0.8,
        }
        pt = point_with(space, entries)
        paths = of_family(separate_subtour_path(space, pt), "Path")
        assert len(paths)
        assert paths.rhs[0] == 3.0
        assert named(space, paths).get("y_0_3") == 1.0
        assert paths.violation[0] == pytest.approx(1.0 + 1.0 + 0.9 + 0.8 - 3.0)


class TestPartition:
    def test_spec_two_by_two_example(self):
        space = dense_space(5, 5, seed=1)
        pt = point_with(
            space,
            {("z", 0, 2): 1.0, ("z", 0, 3): 1.0, ("z", 1, 2): 1.0, ("z", 1, 3): 1.0},
        )
        cuts = separate_partition(space, pt)
        assert len(cuts)
        assert cuts.violation[0] == pytest.approx(2.0)
        assert cuts.rhs[0] == 2.0
        assert named(space, cuts)["z_0_2"] == 1.0
        assert named(space, cuts)["y_0_1"] == -1.0
        assert named(space, cuts)["y_2_3"] == -1.0

    def test_singleton_seed_matches_triangle(self):
        # S={i}, T={j,k} reduces to the two-against-one template
        space = dense_space(5, 5, seed=2)
        pt = point_with(space, {("z", 0, 1): 0.9, ("z", 0, 2): 0.9, ("y", 1, 2): 0.1})
        cuts = separate_partition(space, pt)
        assert len(cuts)
        viols = dict(zip(cuts.keys, cuts.violation))
        singleton = named_cut(space, {("z", 0, 1): 1.0, ("z", 0, 2): 1.0, ("y", 1, 2): -1.0}, 1.0)
        assert singleton.keys[0] in viols or any(v == pytest.approx(0.7) for v in viols.values())

    def test_validity_by_enumeration(self):
        rng = np.random.default_rng(3)
        for n, m in [(5, 3), (6, 4), (6, 5)]:
            inst = random_instance(n, m, seed=n * 7 + m)
            space = VariableSpace(inst)
            for _ in range(25):
                cuts = separate_partition(space, random_box_point(space, rng))
                assert check_cut_validity(inst, cuts), cuts.text(space)

    def test_size_cap_respected(self):
        space = dense_space(8, 5, seed=4)
        rng = np.random.default_rng(4)
        for _ in range(10):
            pt = random_box_point(space, rng)
            cuts = separate_partition(space, pt)
            for r in range(len(cuts)):
                support_vertices = set()
                for name in named(space, cuts, r):
                    support_vertices.update(name.split("_")[1:])
                assert len(support_vertices) <= 5


def partition_test_points():
    """(space, point) pairs: those of acceptance criteria 3 and 4, drawn from
    the same generators in the same order, then random points at n = 8..15,
    dense and sparse."""
    rng = np.random.default_rng(2024)
    for n, m in [(n, m) for n in (4, 5, 6) for m in (3, 4, 5) if m <= n]:
        space = VariableSpace(random_instance(n, m, seed=n * 10 + m, alpha=1 / 1.001))
        for trial in range(200):
            if trial % 2:
                yield space, random_box_point(space, rng)
            else:
                yield space, random_fractional_point(space, rng, components=3, noise=0.3)
    rng = np.random.default_rng(99)
    for n, m in [(5, 3), (6, 4), (6, 5), (7, 4)]:
        space = VariableSpace(random_instance(n, m, seed=n + m, alpha=1 / 1.001))
        for trial in range(10):
            yield space, random_box_point(space, rng) if trial % 2 else random_fractional_point(space, rng, noise=0.25)
    rng = np.random.default_rng(4242)
    for trial in range(100):
        space = VariableSpace(random_instance(7, (3, 4, 5)[trial % 3], seed=trial % 7, alpha=1 / 1.001))
        yield space, random_fractional_point(space, rng, components=3, noise=0.15)
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = 8 + trial % 8
        m = 3 + trial % 5
        space = VariableSpace(random_instance(n, m, seed=trial, density=(1.0, 0.6)[trial % 2]))
        yield space, random_box_point(space, rng) if trial % 3 == 0 else random_fractional_point(space, rng, noise=0.2)


class TestPartitionSeeds:
    """The vectorized seed build gives bitwise the scalar loop's seeds and cuts."""

    def test_seeds_and_cuts_match_scalar_reference(self, monkeypatch):
        points = list(partition_test_points())
        assert len(points) == 1600 + 40 + 100 + 60
        got, cuts_seen = [], 0
        for space, point in points:
            _, Y, Z = space.point_matrices(point)
            E = space.ycol >= 0
            for almost in (separation.PARTITION_ALMOST_VIOLATED, 1.0):
                want = partition_seeds(Y, Z, E, almost)
                seeds = _partition_seeds(Y, Z, E, almost)
                assert [(float(s).hex(), S, T) for s, S, T in seeds] == [(float(s).hex(), S, T) for s, S, T in want]
            got.append(separate_partition(space, point))
        monkeypatch.setattr(separation, "_partition_seeds", partition_seeds)
        for (space, point), cuts in zip(points, got):
            assert_same_cuts(cuts, separate_partition(space, point))
            cuts_seen += len(cuts)
        assert cuts_seen > 1000  # the points exercise the separator


def half_integral_points():
    """(space, point) pairs whose entries are all 0, 1/2 or 1, so violations
    and partition gains tie exactly and often: every third averages two
    clusterings, the rest draw each pair's (y, z, z') from the half-integral
    vectors with sum at most one."""
    rng = np.random.default_rng(12)
    blocks = np.array([(a, b, c) for a in (0, 1, 2) for b in (0, 1, 2) for c in (0, 1, 2) if a + b + c <= 2]) / 2
    for trial in range(150):
        n, m = 7 + trial % 6, 3 + trial % 5
        space = VariableSpace(random_instance(n, m, seed=500 + trial, density=(1.0, 0.6)[trial % 2]))
        a, b = (clustering_to_point(space, Clustering(random_clustering(n, m, rng), m)) for _ in range(2))
        point = (a + b) / 2
        if trial % 3:
            point[space.num_x :] = blocks[rng.integers(len(blocks), size=len(space.pairs))].ravel()
        yield space, point


def near_tie_point():
    """A partition point whose first seed, S = (0,) and T = (1, 2), grows S
    by vertex 3 or vertex 4, with gains that differ by less than 1e-12 and
    vertex 4's the larger: the scan keeps vertex 3, the first one, where a
    plain argmax would take vertex 4.  The pair (3, 4) carries no weight, so
    neither vertex can join S after the other."""
    inst = random_instance(6, 5, seed=11)
    Q = inst.Q.copy()
    Q[3, 4] = Q[4, 3] = 0.0
    space = VariableSpace(Instance(n=6, m=5, alpha=inst.alpha, Q=Q))
    entries = {("z", 0, 1): 1.0, ("z", 0, 2): 1.0}
    entries.update({("z", 3, 1): 0.6, ("z", 3, 2): 0.6, ("z", 4, 1): 0.6 + 5e-13, ("z", 4, 2): 0.6})
    return space, point_with(space, entries)


class TestBulkMatchesReference:
    """Each separator returns bitwise the cuts of `sep_ref`, which keeps the
    separators that looped in Python per start vertex, per seed and per cut,
    in the same order."""

    @staticmethod
    def assert_same(got, want):
        """The batch `got` holds the reference's list of cuts `want`, bit for bit."""
        assert len(got) == len(want)
        assert np.diff(got.indptr).tolist() == [b.cols.size for b in want]
        assert got.indices.tolist() == [c for b in want for c in b.cols.tolist()]
        assert got.data.tobytes() == b"".join(b.vals.tobytes() for b in want)
        assert got.rhs.tolist() == [b.rhs for b in want] and got.family.tolist() == [b.family for b in want]
        assert got.violation.tobytes() == np.array([b.violation for b in want], dtype=float).tobytes()

    def check(self, space, point):
        """The number of cuts compared."""
        compared = 0
        for name, kwargs in (
            ("separate_triangle", {}),
            ("separate_triangle", {"max_per_family": 200}),
            ("separate_subtour_path", {}),
            ("separate_partition", {}),
        ):
            got = getattr(separation, name)(space, point, **kwargs)
            self.assert_same(got, getattr(sep_ref, name)(space, point, TOL, **kwargs))
            compared += len(got)
        return compared

    def test_partition_test_points(self):
        assert sum(self.check(space, point) for space, point in partition_test_points()) > 1000

    def test_half_integral_points(self):
        assert sum(self.check(space, point) for space, point in half_integral_points()) > 100

    def test_near_tie_takes_the_first_vertex(self, monkeypatch):
        space, point = near_tie_point()
        _, Y, Z = space.point_matrices(point)
        gains = [Z[v, 1] + Z[v, 2] - Y[v, 0] for v in (3, 4)]
        assert 0 < gains[1] - gains[0] < 1e-12
        self.check(space, point)
        monkeypatch.setattr(separation, "PARTITION_MAX_SEEDS", 1)
        cut = separate_partition(space, point)
        assert len(cut) == 1
        self.assert_same(cut, sep_ref.separate_partition(space, point, TOL, max_seeds=1))
        terms = named(space, cut)
        assert {"z_0_1", "z_3_1", "y_0_3"} <= set(terms) and "z_4_1" not in terms

    def test_best_candidates_rule(self):
        gain = np.array([[0.5, 0.5 + 5e-13, 0.2], [0.1, 0.5, 0.5], [0.3, 0.3, 0.3]])
        ok = np.array([[True, True, True], [True, True, True], [False, False, False]])
        v, g = _best_candidates(gain, ok)
        assert v.tolist() == [0, 1, -1]
        assert g.tolist() == [0.5, 0.5, -np.inf]


class TestSoundness:
    def test_reported_violation_matches_recomputation(self):
        rng = np.random.default_rng(7)
        space = dense_space(6, 4, seed=5)
        for _ in range(10):
            pt = random_box_point(space, rng)
            cuts = Cuts.concat([separate(space, pt) for separate in (separate_triangle, separate_subtour_path, separate_partition)])
            assert len(cuts) and (cuts.violation > TOL).all()
            assert (cuts @ pt - cuts.rhs).tolist() == pytest.approx(cuts.violation.tolist(), abs=1e-9)


def test_cut_str_is_readable():
    space = dense_space(3, 3)
    cut = Cuts.from_tables([(np.array([[space.z(0, 1), space.y(0, 1)]]), [1.0, -1.0], 1.0, "TriangleZZY", [0.25])], space.ncols)
    text = cut.text(space)
    assert "TriangleZZY" in text and "+ 1 z_0_1" in text and "- 1 y_0_1" in text and "<= 1" in text


def test_from_tables_sorts_rows_and_keys_the_inequality():
    # rows of distinct columns, -1 for an absent term, in any order; tables of
    # different widths
    cuts = Cuts.from_tables(
        [
            (np.array([[7, 3, 5], [-1, 9, 2]]), np.array([[1.0, -1.0, 0.5], [0.0, 2.0, -2.0]]), [1.0, 2.0], "A", [0.25, 0.5]),
            (np.array([[4, -1]]), [1.5, 0.0], 0.0, "C", [0.75]),
        ],
        10,
    )
    assert cuts.indptr.tolist() == [0, 3, 5, 6]
    assert cuts.indices.tolist() == [3, 5, 7, 2, 9, 4]
    assert cuts.data.tolist() == [-1.0, 0.5, 1.0, -2.0, 2.0, 1.5]
    assert (cuts.rhs.tolist(), cuts.family.tolist(), cuts.violation.tolist()) == ([1.0, 2.0, 0.0], list("AAC"), [0.25, 0.5, 0.75])
    assert cuts.shape == (3, 10)
    assert (cuts @ np.arange(10.0)).tolist() == [-3.0 + 2.5 + 7.0, -4.0 + 18.0, 6.0]
    # the key is the inequality's: family and violation do not enter it, rhs and every term do
    same = Cuts.from_tables([(np.array([[5, 7, 3]]), [0.5, 1.0, -1.0], 1.0, "B", [0.0])], 10)
    others = Cuts.from_tables(
        [(np.array([[5, 7, 3], [5, 7, 3], [5, 7, -1]]), np.array([[0.5, 1.0, -1.0], [0.5, 1.0, -2.0], [0.5, 1.0, 0.0]]), [2.0, 1.0, 1.0], "A", np.zeros(3))], 10
    )
    both = Cuts.concat([cuts, same, others])
    keys = both.keys
    assert keys[3] == keys[0] and len(set(keys.tolist())) == 6
    assert first_rows(keys).tolist() == [0, 1, 2, 4, 5, 6]
    assert_same_cuts(both.take([3, 1]), Cuts.concat([same, cuts.take([1])]))


def test_order_follows_names():
    # equal violations are ordered by rhs, then by their terms in name order,
    # where names compare as (kind, i, j) tuples, x before y before z
    space = VariableSpace(random_instance(12, 4, seed=3, density=0.6))
    key = lambda c: (("x", "y", "z").index(space.name(c)[0]), *map(int, space.name(c).split("_")[1:]))
    assert np.argsort(space.name_rank).tolist() == sorted(range(space.ncols), key=key)
