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
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from cyclecluster.instance import Clustering, Instance, save_instance

DEFAULT_ALPHA = 1.0 / 1.001  # net flow and coherence weighted 1 : 0.001
DEFAULT_FORWARD_STRENGTH = 1.0
DEFAULT_COHERENCE_STRENGTH = 1.0
DEFAULT_NOISE = 0.25

# The default suite's grid: every n with every m, each with this many seeds.
SUITE_NS = (12, 16, 20, 30)
SUITE_MS = (3, 4, 5, 6)
SUITE_SEEDS_PER_CELL = 3


def generate(
    n: int,
    m: int,
    alpha: float = DEFAULT_ALPHA,
    forward_strength: float = DEFAULT_FORWARD_STRENGTH,
    coherence_strength: float = DEFAULT_COHERENCE_STRENGTH,
    noise: float = DEFAULT_NOISE,
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


def metadata(
    name: str,
    inst: Instance,
    planted: Clustering,
    seed_index: int,
    rng_seed: int,
    forward_strength: float = DEFAULT_FORWARD_STRENGTH,
    coherence_strength: float = DEFAULT_COHERENCE_STRENGTH,
    noise: float = DEFAULT_NOISE,
) -> dict:
    """The sidecar metadata of an instance `generate` made, in file order."""
    return {
        "name": name,
        "n": inst.n,
        "m": inst.m,
        "seed_index": seed_index,
        "rng_seed": rng_seed,
        "alpha": inst.alpha,
        "forward_strength": forward_strength,
        "coherence_strength": coherence_strength,
        "noise": noise,
        "planted": planted,
    }


def benchmark_suite(alpha: float = DEFAULT_ALPHA, rng_seed: int = 0) -> list[tuple[Instance, dict]]:
    """Instances plus metadata for the grid `SUITE_NS` x `SUITE_MS` x
    `SUITE_SEEDS_PER_CELL` at the default strengths; deterministic."""
    out = []
    for n in SUITE_NS:
        for m in SUITE_MS:
            for k in range(SUITE_SEEDS_PER_CELL):
                inst, planted = generate(n=n, m=m, alpha=alpha, rng_seed=[rng_seed, n, m, k])
                out.append((inst, metadata(f"cc_n{n:03d}_m{m}_s{k}", inst, planted, k, rng_seed)))
    return out


def write_metadata(meta: dict, target: IO[str]) -> None:
    """Sidecar key-value format: one `key value` line per entry of `meta`, in
    its order, a clustering as its 0-based cluster indices."""
    for key, value in meta.items():
        if isinstance(value, Clustering):
            value = " ".join(str(a) for a in value.assignment)
        target.write(f"{key} {value}\n")


def write_instance(path: str | Path, inst: Instance, meta: dict, fmt: str = "dense") -> None:
    """Write `inst` to `path` in format `fmt` and `meta` to the `.meta` sidecar beside it."""
    path = Path(path)
    save_instance(inst, path, fmt=fmt)
    with open(path.with_suffix(".meta"), "w", encoding="utf-8") as fh:
        write_metadata(meta, fh)


def write_suite(directory: str | Path, alpha: float = DEFAULT_ALPHA, rng_seed: int = 0) -> list[Path]:
    """Write the suite as .cc instance files with .meta sidecars.  Every
    instance is built before the directory is created, so an alpha out of
    range raises `ParameterError` and leaves nothing behind."""
    suite = benchmark_suite(alpha, rng_seed)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for inst, meta in suite:
        path = directory / f"{meta['name']}.cc"
        write_instance(path, inst, meta)
        paths.append(path)
    return paths
