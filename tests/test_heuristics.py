import numpy as np
import pytest

from cyclecluster import heuristics
from cyclecluster.formulation import VariableSpace, clustering_to_point
from cyclecluster.generator import generate
from cyclecluster.heuristics import _contributions, exchange, greedy, rounding, sparsify
from cyclecluster.instance import Clustering, Instance, objective
from cyclecluster.oracle import enumerate_optimal, worst_value
from conftest import random_clustering, random_instance
import heur_ref


class TestGreedy:
    def test_n_equals_m_gives_singletons(self):
        inst = random_instance(4, 4, seed=0)
        c = greedy(inst)
        assert sorted(len(cl) for cl in c.clusters()) == [1, 1, 1, 1]

    def test_t1_feasible_and_above_worst(self, t1):
        c = greedy(t1)
        assert c.n == 3 and c.m == 3
        assert objective(t1, c) >= worst_value(t1) - 1e-12

    def test_never_beats_oracle(self):
        for seed in range(30):
            n = 5 + seed % 4
            m = 3 + seed % 2
            inst = random_instance(n, m, seed=seed)
            val = objective(inst, greedy(inst))
            _, best = enumerate_optimal(inst)
            assert val <= best + 1e-9

    def test_deterministic(self):
        inst = random_instance(8, 3, seed=5)
        assert greedy(inst) == greedy(inst)

    def test_same_clusterings_as_reference(self):
        insts = [inst for inst, _, _ in _reference_cases()]
        rng = np.random.default_rng(23)
        for k in range(100):
            # with m = 2 the columns t-1 and t+1 coincide: the order of the two
            # flow updates then shows in the last bits, which decide ties
            m = 2 if k % 5 else 3 + k % 2
            n = m if k % 10 < 2 else m + int(rng.integers(1, 40))
            q = rng.integers(0, 3, size=(n, n)).astype(float)  # small counts, so that gains tie
            np.fill_diagonal(q, 0.0)
            insts.append(Instance(n=n, m=m, alpha=float(rng.uniform(0.1, 0.9)), Q=q))
        assert any(inst.m == 2 for inst in insts)
        assert any(inst.n == inst.m == 2 for inst in insts)
        for inst in insts:
            assert greedy(inst) == heur_ref.greedy(inst)


def _cap_passes(monkeypatch, cap):
    """Make exchange raise once it starts more than `cap` passes from now."""
    real = _contributions
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        if calls > cap:
            raise RuntimeError(f"exchange is still running after {cap} passes")
        return real(*args)

    monkeypatch.setattr(heuristics, "_contributions", counted)


class TestExchange:
    def test_keeps_optimal_value(self, t1):
        best, val = enumerate_optimal(t1)
        out = exchange(t1, best, rng_seed=1)
        assert objective(t1, out) == pytest.approx(val, abs=1e-12)

    def test_t1_recovers_from_reversed_cycle(self, t1):
        start = Clustering((0, 2, 1), 3)
        assert objective(t1, start) == pytest.approx(-0.4)
        out = exchange(t1, start, rng_seed=0)
        assert objective(t1, out) == pytest.approx(0.4, abs=1e-12)

    def test_monotone_on_random_pairs(self):
        rng = np.random.default_rng(17)
        for trial in range(60):
            n = int(rng.integers(4, 9))
            m = int(rng.integers(3, min(n, 5) + 1))
            inst = random_instance(n, m, seed=trial, alpha=float(rng.uniform(0.1, 0.95)))
            start = Clustering(random_clustering(n, m, rng), m)
            out = exchange(inst, start, rng_seed=trial)
            assert objective(inst, out) >= objective(inst, start) - 1e-12
            assert out.m == m and out.n == n  # feasibility re-checked by constructor

    def test_deterministic_given_seed(self):
        inst = random_instance(9, 4, seed=3)
        rng = np.random.default_rng(0)
        start = Clustering(random_clustering(9, 4, rng), 4)
        a = exchange(inst, start, rng_seed=42)
        b = exchange(inst, start, rng_seed=42)
        assert a == b

    def test_terminates_at_large_weight_scale(self, monkeypatch):
        # value += delta drifts by ulps of the weights, which at these scales
        # exceed any absolute improvement threshold.  Under one, the last two
        # instances run on forever; the first did so before exchange updated
        # its contributions incrementally.
        for n, m, k, scale in [(7, 4, 3, 1e5), (8, 4, 2, 1e5), (7, 3, 0, 1e7)]:
            base, _ = generate(n, m, rng_seed=[99, k])
            inst = Instance(n=n, m=m, alpha=base.alpha, Q=base.Q * scale)
            _cap_passes(monkeypatch, 1000 // n)  # a pass makes at most n moves: about 1000 moves
            start = greedy(inst)
            out = exchange(inst, start)
            assert objective(inst, out) >= objective(inst, start)

    def test_often_reaches_optimum_small(self):
        hits = 0
        for seed in range(20):
            inst = random_instance(7, 3, seed=seed)
            out = exchange(inst, greedy(inst), rng_seed=seed)
            _, best = enumerate_optimal(inst)
            assert objective(inst, out) <= best + 1e-9
            if objective(inst, out) >= best - 1e-9:
                hits += 1
        assert hits >= 15  # local search with perturbations is strong at this size


def _reference_cases():
    """60 (instance, start) pairs: all-singleton starts (n == m), m = 3, 4
    and 8, sparse Q and small integer Q, with greedy and random starts."""
    rng = np.random.default_rng(5)
    cases = []
    for k in range(60):
        if k < 10:
            n = m = 3 + k % 6
        else:
            m = (3, 4, 8)[k % 3]
            n = m + int(rng.integers(1, 12))
        alpha = float(rng.uniform(0.1, 0.95))
        if k % 4 == 2:  # small counts, so that many moves tie
            q = rng.integers(0, 3, size=(n, n)).astype(float)
            np.fill_diagonal(q, 0.0)
            inst = Instance(n=n, m=m, alpha=alpha, Q=q)
        else:
            inst = random_instance(n, m, seed=100 + k, alpha=alpha, density=0.25 if k % 4 == 3 else 1.0)
        start = greedy(inst) if k % 2 else Clustering(random_clustering(n, m, rng), m)
        cases.append((inst, start, k))
    return cases


class TestExchangeIncremental:
    def test_same_clusterings_as_full_recompute(self):
        cases = _reference_cases()
        assert {inst.m for inst, _, _ in cases} >= {3, 4, 8}
        assert any(inst.n == inst.m for inst, _, _ in cases)
        assert any((inst.Q == 0).mean() > 0.5 for inst, _, _ in cases)
        for inst, start, seed in cases:
            assert exchange(inst, start, rng_seed=seed) == heur_ref.exchange(inst, start, rng_seed=seed)

    def test_same_clusterings_at_workload_scale(self):
        # the sizes and signals of the benchmark's heuristic workload
        for n, m, strength in [(100, 5, 0.25), (108, 8, 1.0), (120, 6, 0.25), (130, 7, 1.0)]:
            inst, _ = generate(n, m, forward_strength=strength, rng_seed=[31, n, m])
            start = greedy(inst)
            assert exchange(inst, start, rng_seed=n) == heur_ref.exchange(inst, start, rng_seed=n)

    @pytest.mark.parametrize("m", [3, 5])
    def test_column_update_matches_recompute(self, m):
        n = 30
        rng = np.random.default_rng(m)
        inst = random_instance(n, m, seed=m, alpha=0.3, density=0.5)
        assign = rng.integers(0, m, size=n)
        member = np.zeros((n, m))
        member[np.arange(n), assign] = 1.0
        contrib = _contributions(inst, member)
        coherence, flow_in = heuristics._weight_rows(inst)
        for _ in range(50):
            v = int(rng.integers(n))
            a = int(assign[v])
            t = int((a + rng.integers(1, m)) % m)
            heuristics._move(contrib, coherence, flow_in, v, a, t)
            assign[v] = t
            member[v, a], member[v, t] = 0.0, 1.0
            delta = contrib - contrib[np.arange(n), assign][:, None]
            fresh = heur_ref.delta_matrix(inst, assign, member)
            assert np.abs(delta - fresh).max() <= 1e-12 * np.abs(fresh).max()
            # the delta of one more move is the change in objective it makes
            w, s = int(rng.integers(n)), int(rng.integers(m))
            moved = assign.copy()
            moved[w] = s
            if min(np.bincount(assign, minlength=m).min(), np.bincount(moved, minlength=m).min()) > 0:
                gain = objective(inst, Clustering(moved, m)) - objective(inst, Clustering(assign, m))
                assert delta[w, s] == pytest.approx(gain, abs=1e-9)

    def test_raw_count_scale(self, monkeypatch):
        # Markov-state-model transition counts run to 1e7
        _cap_passes(monkeypatch, 1000)
        for k in range(5):
            base, _ = generate(12 + k, 4, rng_seed=[99, k])
            inst = Instance(n=base.n, m=4, alpha=base.alpha, Q=base.Q * 1e7)
            for start in (greedy(inst), Clustering(tuple(v % 4 for v in range(inst.n)), 4)):
                out = exchange(inst, start, rng_seed=k)
                assert objective(inst, out) >= objective(inst, start)


class TestRounding:
    def test_integral_identity(self):
        inst = random_instance(7, 4, seed=2)
        rng = np.random.default_rng(4)
        space = VariableSpace(inst)
        for _ in range(20):
            c = Clustering(random_clustering(7, 4, rng), 4)
            pt = clustering_to_point(space, c)
            assert rounding(inst, pt[: space.num_x]) == c

    def test_uniform_fails(self):
        inst = random_instance(5, 3, seed=1)
        x = np.full((5, 3), 1.0 / 3.0)
        assert rounding(inst, x) is None

    def test_row_maxima_spread(self):
        inst = random_instance(4, 3, seed=7)
        x = np.array(
            [
                [0.7, 0.2, 0.1],
                [0.1, 0.8, 0.1],
                [0.2, 0.2, 0.6],
                [0.5, 0.4, 0.1],
            ]
        )
        c = rounding(inst, x)
        assert c is not None
        assert c.assignment == (0, 1, 2, 0)

    def test_tie_takes_smallest_cluster(self):
        inst = random_instance(3, 3, seed=8)
        x = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.1, 0.2, 0.7]])
        c = rounding(inst, x)
        assert c is not None
        assert c.assignment == (0, 1, 2)  # rows 0 and 1 tie toward the smaller index


class _FakeResult:
    def __init__(self, best):
        self.best_clustering = best


class TestSparsify:
    def test_reduction_zeroes_light_pairs(self):
        inst = random_instance(10, 3, seed=9)
        captured = {}

        def handle(reduced):
            captured["inst"] = reduced
            return _FakeResult(greedy(reduced))

        out = sparsify(inst, handle, keep_fraction=0.1)
        red = captured["inst"]
        kept = [(i, j) for i in range(10) for j in range(i + 1, 10) if red.q_plus[i, j] > 0]
        assert len(kept) == int(np.ceil(0.1 * 45))
        kept_weights = sorted(inst.q_plus[i, j] for i, j in kept)
        all_weights = sorted((inst.q_plus[i, j] for i in range(10) for j in range(i + 1, 10)), reverse=True)
        assert kept_weights[0] >= all_weights[len(kept)] - 1e-12  # kept set is the top slice
        assert out is not None
        assert out.n == inst.n and out.m == inst.m

    def test_already_sparse_instance_unchanged(self):
        q = np.zeros((6, 6))
        q[0, 1] = 5.0  # only pair with weight; keep fraction covers it
        inst = Instance(n=6, m=3, alpha=0.5, Q=q)

        def handle(reduced):
            assert np.array_equal(reduced.Q, inst.Q)
            return _FakeResult(greedy(reduced))

        assert sparsify(inst, handle, keep_fraction=1.0 / 15.0) is not None

    def test_failure_passthrough(self):
        inst = random_instance(6, 3, seed=4)
        assert sparsify(inst, lambda reduced: _FakeResult(None)) is None

    def test_value_bounded_by_oracle(self):
        for seed in range(10):
            inst = random_instance(8, 3, seed=seed)
            out = sparsify(inst, lambda reduced: _FakeResult(greedy(reduced)), keep_fraction=0.05)
            assert out is not None
            _, best = enumerate_optimal(inst)
            assert objective(inst, out) <= best + 1e-9
