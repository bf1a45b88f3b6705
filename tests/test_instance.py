import io

import numpy as np
import pytest

from cyclecluster.instance import (
    Clustering,
    ClusteringError,
    DimensionError,
    HeaderError,
    IndexRangeError,
    Instance,
    NegativeWeightError,
    ParameterError,
    load_instance,
    objective,
    save_instance,
)
from conftest import random_clustering, random_instance

TOL = 1e-9


def brute_net_flow(inst, S, T):
    return sum(inst.Q[i, j] - inst.Q[j, i] for i in S for j in T)


def brute_coherence(inst, S):
    return sum(inst.Q[S[a], S[b]] + inst.Q[S[b], S[a]] for a in range(len(S)) for b in range(a + 1, len(S)))


def brute_objective(inst, c):
    clusters = c.clusters()
    val = 0.0
    for t in range(c.m):
        nxt = clusters[(t + 1) % c.m]
        val += inst.alpha * brute_net_flow(inst, clusters[t], nxt)
        val += (1 - inst.alpha) * brute_coherence(inst, clusters[t])
    return val


class TestConstruction:
    def test_derived_matrices(self, t1):
        assert t1.q_minus[0, 1] == pytest.approx(0.3)
        assert t1.q_minus[1, 0] == pytest.approx(-0.3)
        assert t1.q_plus[0, 1] == pytest.approx(0.5)
        assert np.allclose(t1.q_minus, -t1.q_minus.T)
        assert np.allclose(t1.q_plus, t1.q_plus.T)
        assert np.all(np.diagonal(t1.q_minus) == 0)

    def test_diagonal_discarded_with_warning(self):
        q = np.ones((3, 3))
        with pytest.warns(UserWarning, match="diagonal"):
            inst = Instance(n=3, m=2, alpha=0.5, Q=q)
        assert np.all(np.diagonal(inst.Q) == 0)

    def test_parameter_validation(self):
        q = np.zeros((3, 3))
        with pytest.raises(ParameterError):
            Instance(n=3, m=1, alpha=0.5, Q=q)
        with pytest.raises(ParameterError):
            Instance(n=3, m=4, alpha=0.5, Q=q)
        with pytest.raises(ParameterError):
            Instance(n=3, m=3, alpha=1.0, Q=q)
        with pytest.raises(NegativeWeightError):
            Instance(n=3, m=3, alpha=0.5, Q=q - 0.1)
        with pytest.raises(DimensionError):
            Instance(n=4, m=3, alpha=0.5, Q=q)

    def test_clustering_invariants(self):
        Clustering((0, 1, 2), 3)
        with pytest.raises(ClusteringError):
            Clustering((0, 0, 1), 3)  # cluster 2 empty
        with pytest.raises(ClusteringError):
            Clustering((0, 1, 3), 3)  # index out of range


class TestObjective:
    def test_t1_forward_cycle(self, t1):
        assert objective(t1, Clustering((0, 1, 2), 3)) == pytest.approx(0.4, abs=TOL)

    def test_t1_reversed_cycle(self, t1):
        assert objective(t1, Clustering((0, 2, 1), 3)) == pytest.approx(-0.4, abs=TOL)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            inst = random_instance(7, 3, seed=trial)
            a = random_clustering(7, 3, rng)
            c = Clustering(a, 3)
            for k in range(1, 3):
                rotated = Clustering(tuple((v + k) % 3 for v in a), 3)
                assert objective(inst, rotated) == pytest.approx(objective(inst, c), abs=TOL)

    def test_scaling(self):
        inst = random_instance(6, 3, seed=9)
        doubled = Instance(n=6, m=3, alpha=inst.alpha, Q=2 * inst.Q)
        rng = np.random.default_rng(0)
        c = Clustering(random_clustering(6, 3, rng), 3)
        assert objective(doubled, c) == pytest.approx(2 * objective(inst, c), abs=TOL)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for trial in range(25):
            inst = random_instance(8, 4, seed=trial)
            c = Clustering(random_clustering(8, 4, rng), 4)
            assert objective(inst, c) == pytest.approx(brute_objective(inst, c), abs=TOL)

    def test_coherence_part_reversal_invariant(self):
        # only the flow part flips sign when the cluster order is reversed
        inst = random_instance(8, 4, seed=21, alpha=0.5)
        rng = np.random.default_rng(1)
        a = random_clustering(8, 4, rng)
        rev = tuple((-v) % 4 for v in a)
        c, cr = Clustering(a, 4), Clustering(rev, 4)
        coh = sum(brute_coherence(inst, cl) for cl in c.clusters())
        coh_r = sum(brute_coherence(inst, cl) for cl in cr.clusters())
        assert coh == pytest.approx(coh_r, abs=TOL)
        flow = objective(inst, c) - (1 - inst.alpha) * coh
        flow_r = objective(inst, cr) - (1 - inst.alpha) * coh_r
        assert flow == pytest.approx(-flow_r, abs=TOL)


class TestFileIO:
    def test_dense_roundtrip(self, t1):
        buf = io.StringIO()
        save_instance(t1, buf, fmt="dense")
        back = load_instance(io.StringIO(buf.getvalue()))
        assert back.n == t1.n and back.m == t1.m and back.alpha == t1.alpha
        assert np.array_equal(back.Q, t1.Q)
        assert back.q_minus[0, 1] == pytest.approx(0.3)

    def test_sparse_roundtrip_random(self):
        inst = random_instance(6, 4, seed=77, alpha=1 / 3)
        buf = io.StringIO()
        save_instance(inst, buf, fmt="sparse")
        back = load_instance(io.StringIO(buf.getvalue()))
        assert np.array_equal(back.Q, inst.Q)
        assert back.alpha == inst.alpha

    def test_sparse_duplicates_summed(self):
        text = "CCSPARSE 3 3 0.5 3\n0 1 0.25\n0 1 0.15\n1 2 0.3\n"
        inst = load_instance(io.StringIO(text))
        assert inst.Q[0, 1] == pytest.approx(0.4)

    def test_comments_ignored(self):
        text = "# generated\nCCDENSE 2 2 0.5\n# row 0\n0 1\n1 0\n"
        inst = load_instance(io.StringIO(text))
        assert inst.Q[0, 1] == 1.0

    def test_errors_are_distinct(self, tmp_path):
        with pytest.raises(HeaderError):
            load_instance(io.StringIO("CCWHAT 3 3 0.5\n"))
        with pytest.raises(HeaderError):
            load_instance(io.StringIO("CCDENSE 3 three 0.5\n"))
        with pytest.raises(NegativeWeightError, match=r"negative weight at \(0,1\)"):
            load_instance(io.StringIO("CCSPARSE 3 3 0.5 1\n0 1 -0.25\n"))
        for weight in ("nan", "inf"):
            with pytest.raises(NegativeWeightError, match=rf"weight at \(1,2\) is {weight}, not a finite nonnegative number"):
                load_instance(io.StringIO(f"CCDENSE 3 3 0.5\n0 1 1\n1 0 {weight}\n1 1 0\n"))
            with pytest.raises(NegativeWeightError, match=rf"weight at \(0,1\) is {weight}"):
                load_instance(io.StringIO(f"CCSPARSE 3 3 0.5 1\n0 1 {weight}\n"))
        with pytest.raises(IndexRangeError):
            load_instance(io.StringIO("CCSPARSE 3 3 0.5 1\n0 9 0.25\n"))
        with pytest.raises(DimensionError):
            load_instance(io.StringIO("CCDENSE 3 3 0.5\n0 0 0\n0 0 0\n"))
        with pytest.raises(DimensionError):
            load_instance(io.StringIO("CCDENSE 2 2 0.5\n0 1 2\n1 0\n"))

    def test_path_roundtrip(self, tmp_path):
        inst = random_instance(5, 3, seed=5)
        path = tmp_path / "inst.cc"
        save_instance(inst, path)
        back = load_instance(path)
        assert np.array_equal(back.Q, inst.Q)


class TestDiagonalInvariance:
    def test_objective_unchanged_after_diagonal_add(self):
        rng = np.random.default_rng(19)
        base = random_instance(6, 3, seed=19)
        q = base.Q.copy()
        np.fill_diagonal(q, rng.random(6))
        with pytest.warns(UserWarning):
            with_diag = Instance(n=6, m=3, alpha=base.alpha, Q=q)
        c = Clustering(random_clustering(6, 3, rng), 3)
        assert objective(with_diag, c) == pytest.approx(objective(base, c), abs=TOL)
