import numpy as np
import pytest

from cyclecluster import generator
from cyclecluster.generator import benchmark_suite, generate, write_suite
from cyclecluster.instance import load_instance, objective
from cyclecluster.oracle import enumerate_optimal


def rotations(assignment, m):
    return {tuple((a + k) % m for a in assignment) for k in range(m)}


class TestGenerate:
    def test_nonnegative_zero_diagonal_normalized(self):
        inst, planted = generate(10, 4, rng_seed=1)
        assert np.all(inst.Q >= 0)
        assert np.all(np.diagonal(inst.Q) == 0)
        assert inst.Q.sum() == pytest.approx(1.0)
        assert planted.n == 10 and planted.m == 4

    def test_strength_scaling_invariance(self):
        a, _ = generate(8, 3, forward_strength=1.0, coherence_strength=0.5, noise=0.2, rng_seed=7)
        b, _ = generate(8, 3, forward_strength=3.0, coherence_strength=1.5, noise=0.6, rng_seed=7)
        assert np.allclose(a.Q, b.Q, atol=1e-15)

    def test_determinism(self):
        a, pa = generate(9, 3, rng_seed=5)
        b, pb = generate(9, 3, rng_seed=5)
        assert np.array_equal(a.Q, b.Q)
        assert pa == pb

    def test_pure_forward_signal_recovers_planted(self):
        # no coherence, no noise: the optimum must be the planted cycle (up to rotation)
        for seed in (0, 1, 2, 3):
            inst, planted = generate(9, 3, alpha=0.9, forward_strength=1.0, coherence_strength=0.0, noise=0.0, rng_seed=seed)
            best, _ = enumerate_optimal(inst)
            assert best.assignment in rotations(planted.assignment, 3)

    def test_planted_recovery_with_noise(self):
        # strong forward signal, mild noise; fixed seeds chosen during development
        for seed in (11, 12, 13):
            inst, planted = generate(8, 4, alpha=0.95, forward_strength=2.0, coherence_strength=0.1, noise=0.05, rng_seed=seed)
            best, _ = enumerate_optimal(inst)
            assert best.assignment in rotations(planted.assignment, 4)

    def test_planted_value_matches_objective(self):
        inst, planted = generate(12, 4, rng_seed=3)
        assert objective(inst, planted) > 0


class TestSuite:
    def test_default_suite_has_48_instances(self):
        suite = benchmark_suite()
        assert len(suite) == 48
        names = [meta["name"] for _, meta in suite]
        assert len(set(names)) == 48

    def test_same_seed_identical(self):
        a = benchmark_suite(rng_seed=4)
        b = benchmark_suite(rng_seed=4)
        for (ia, ma), (ib, mb) in zip(a, b):
            assert np.array_equal(ia.Q, ib.Q)
            assert ma["name"] == mb["name"]

    def test_instances_valid_and_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(generator, "SUITE_NS", (6, 8))
        monkeypatch.setattr(generator, "SUITE_MS", (3,))
        monkeypatch.setattr(generator, "SUITE_SEEDS_PER_CELL", 2)
        paths = write_suite(tmp_path, rng_seed=9)
        assert len(paths) == 4
        for path in paths:
            inst = load_instance(path)
            assert inst.Q.sum() == pytest.approx(1.0, abs=1e-12)
            meta_text = path.with_suffix(".meta").read_text()
            assert "planted" in meta_text and f"n {inst.n}" in meta_text
