"""Synthetic instances with planted cyclic cluster structure.

Vertices are split round-robin into m planted clusters; ordered-pair weights
are drawn uniformly and scaled by a regime coefficient: `coherence_strength`
inside a cluster, `noise + forward_strength` along the planted forward
direction, `noise` elsewhere.  The matrix is normalized to total weight one,
mirroring the unconditional-transition-probability reading of the weights,
which leaves the maximizer unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from cyclecluster.instance import Clustering, Instance, save_instance

DEFAULT_ALPHA = 1.0 / 1.001  # net flow and coherence weighted 1 : 0.001


def generate(
    n: int,
    m: int,
    alpha: float = DEFAULT_ALPHA,
    forward_strength: float = 1.0,
    coherence_strength: float = 1.0,
    noise: float = 0.25,
    rng_seed: int | Sequence[int] = 0,
) -> tuple[Instance, Clustering]:
    """Sample an instance and return it with its planted clustering."""
    if not 2 <= m <= n:
        raise ValueError(f"need 2 <= m <= n, got n={n}, m={m}")
    strengths = (forward_strength, coherence_strength, noise)
    if not all(0.0 <= s < math.inf for s in strengths):  # NaN fails this test too
        raise ValueError(f"strengths must be finite and nonnegative, got (forward, coherence, noise) = {strengths}")
    rng = np.random.default_rng(rng_seed)
    planted = np.arange(n) % m
    u = rng.uniform(0.0, 1.0, size=(n, n))
    same = planted[:, None] == planted[None, :]
    forward = planted[None, :] == (planted[:, None] + 1) % m
    coef = np.where(same, coherence_strength, np.where(forward, noise + forward_strength, noise))
    q = coef * u
    np.fill_diagonal(q, 0.0)
    total = q.sum()
    if total > 0:
        q = q / total
    inst = Instance(n=n, m=m, alpha=alpha, Q=q)
    return inst, Clustering(tuple(int(a) for a in planted), m)


@dataclass(frozen=True)
class SuiteSpec:
    """Grid defining the deterministic benchmark suite."""

    ns: tuple = (12, 16, 20, 30)
    ms: tuple = (3, 4, 5, 6)
    seeds_per_cell: int = 3
    alpha: float = DEFAULT_ALPHA
    forward_strength: float = 1.0
    coherence_strength: float = 1.0
    noise: float = 0.25


def benchmark_suite(spec: SuiteSpec | None = None, rng_seed: int = 0) -> list[tuple[Instance, dict]]:
    """Instances plus metadata for the (n, m, seed) grid; deterministic."""
    spec = spec or SuiteSpec()
    out = []
    for n in spec.ns:
        for m in spec.ms:
            for k in range(spec.seeds_per_cell):
                inst, planted = generate(
                    n=n,
                    m=m,
                    alpha=spec.alpha,
                    forward_strength=spec.forward_strength,
                    coherence_strength=spec.coherence_strength,
                    noise=spec.noise,
                    rng_seed=[rng_seed, n, m, k],
                )
                meta = {
                    "name": f"cc_n{n:03d}_m{m}_s{k}",
                    "n": n,
                    "m": m,
                    "seed_index": k,
                    "rng_seed": rng_seed,
                    "alpha": spec.alpha,
                    "forward_strength": spec.forward_strength,
                    "coherence_strength": spec.coherence_strength,
                    "noise": spec.noise,
                    "planted": planted,
                }
                out.append((inst, meta))
    return out


def write_metadata(meta: dict, target: IO[str]) -> None:
    """Sidecar key-value format: one `key value` pair per line."""
    for key in ("name", "n", "m", "seed_index", "rng_seed", "alpha", "forward_strength", "coherence_strength", "noise"):
        target.write(f"{key} {meta[key]}\n")
    planted = meta["planted"]
    target.write("planted " + " ".join(str(a) for a in planted.assignment) + "\n")


def write_suite(directory: str | Path, spec: SuiteSpec | None = None, rng_seed: int = 0) -> list[Path]:
    """Write the suite as .cc instance files with .meta sidecars."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for inst, meta in benchmark_suite(spec, rng_seed):
        path = directory / f"{meta['name']}.cc"
        save_instance(inst, path)
        with open(path.with_suffix(".meta"), "w", encoding="utf-8") as fh:
            write_metadata(meta, fh)
        paths.append(path)
    return paths
