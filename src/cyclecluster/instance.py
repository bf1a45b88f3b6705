"""Problem data: weighted instances, clusterings, objective evaluation, file I/O.

An instance is a complete directed graph on n vertices with nonnegative arc
weights Q, a cluster count m and a mixing weight alpha.  A clustering assigns
every vertex to one of m nonempty clusters arranged in a cycle; its value is

    alpha * sum_t flow(C_t, C_{t+1})  +  (1 - alpha) * sum_t coherence(C_t)

with cyclic cluster indexing.  Vertices are 0-indexed everywhere; cluster
indices are 0..m-1 internally and printed 1-based in reports.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Sequence, Union

import numpy as np


class InstanceError(ValueError):
    """Base class for instance construction and parsing failures."""


class HeaderError(InstanceError):
    """Malformed or unrecognized file header."""


class NegativeWeightError(InstanceError):
    """A weight entry is not a finite nonnegative number: negative, NaN or
    infinite."""


class IndexRangeError(InstanceError):
    """A vertex index is outside 0..n-1."""


class DimensionError(InstanceError):
    """Row/entry counts do not match the declared dimensions."""


class ParameterError(InstanceError):
    """A parameter outside its admissible range: n, m or alpha of an
    instance, or a setting of the solver."""


class ClusteringError(ValueError):
    """A clustering violates totality or the nonempty-cluster requirement."""


def _as_weight_matrix(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise DimensionError(f"weight matrix must be square, got shape {q.shape}")
    return q


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable problem data.

    The diagonal of Q is discarded on construction (nonzero entries only shift
    the objective by a constant), so q_plus has a zero diagonal and q_minus is
    antisymmetric with q_minus[i, i] == 0.  Instances compare by identity.
    """

    n: int
    m: int
    alpha: float
    Q: np.ndarray
    q_minus: np.ndarray = field(init=False, repr=False, compare=False)
    q_plus: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError(f"need at least 2 vertices, got n={self.n}")
        if not 2 <= self.m <= self.n:
            raise ParameterError(f"cluster count must satisfy 2 <= m <= n, got m={self.m}, n={self.n}")
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must lie strictly between 0 and 1, got {self.alpha}")
        q = _as_weight_matrix(self.Q)
        if q.shape[0] != self.n:
            raise DimensionError(f"weight matrix is {q.shape[0]}x{q.shape[0]} but n={self.n}")
        bad = np.flatnonzero(~((q >= 0.0) & (q < np.inf)))  # NaN fails both tests
        if bad.size:
            i, j = divmod(int(bad[0]), self.n)
            raise NegativeWeightError(f"weight at ({i},{j}) is {float(q[i, j])!r}, not a finite nonnegative number")
        if np.any(np.diagonal(q) != 0.0):
            warnings.warn("discarding nonzero diagonal of Q (constant objective offset)", stacklevel=3)
            q = q.copy()
            np.fill_diagonal(q, 0.0)
        q = np.ascontiguousarray(q)
        q.setflags(write=False)
        qm = q - q.T
        qp = q + q.T
        qm.setflags(write=False)
        qp.setflags(write=False)
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "q_minus", qm)
        object.__setattr__(self, "q_plus", qp)


@dataclass(frozen=True)
class Clustering:
    """Total assignment of vertices to the clusters 0..m-1, all nonempty."""

    assignment: tuple[int, ...]
    m: int

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(int(a) for a in self.assignment))
        counts = [0] * self.m
        for v, a in enumerate(self.assignment):
            if not 0 <= a < self.m:
                raise ClusteringError(f"vertex {v} assigned to cluster {a}, valid range is 0..{self.m - 1}")
            counts[a] += 1
        empty = [t for t, c in enumerate(counts) if c == 0]
        if empty:
            raise ClusteringError(f"cluster {empty[0]} is empty")

    @property
    def n(self) -> int:
        return len(self.assignment)

    def clusters(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.m)]
        for v, a in enumerate(self.assignment):
            out[a].append(v)
        return out

    def as_array(self) -> np.ndarray:
        return np.asarray(self.assignment, dtype=np.int64)

    def membership_matrix(self) -> np.ndarray:
        """One-hot n x m matrix M with M[v, assignment[v]] = 1."""
        mat = np.zeros((self.n, self.m))
        mat[np.arange(self.n), self.assignment] = 1.0
        return mat


def objective(inst: Instance, c: Clustering) -> float:
    """Value of a clustering under the cyclic flow/coherence objective."""
    if c.n != inst.n or c.m != inst.m:
        raise ClusteringError(f"clustering has (n={c.n}, m={c.m}), instance has (n={inst.n}, m={inst.m})")
    mat = c.membership_matrix()
    flow_between = mat.T @ inst.q_minus @ mat
    within = mat.T @ inst.q_plus @ mat
    flow = sum(flow_between[t, (t + 1) % inst.m] for t in range(inst.m))
    coh = 0.5 * float(np.trace(within))
    return float(inst.alpha * flow + (1.0 - inst.alpha) * coh)


# ---------------------------------------------------------------------------
# File formats.
#
# Dense:   CCDENSE n m alpha          followed by n rows of n decimals.
# Sparse:  CCSPARSE n m alpha nnz     followed by nnz lines "i j q",
#          0-indexed, q >= 0, duplicate (i, j) entries summed.
# Lines starting with '#' and blank lines are ignored.
# ---------------------------------------------------------------------------

PathOrStream = Union[str, Path, IO[str]]


def _content_lines(stream: IO[str]) -> list[str]:
    lines = []
    for raw in stream:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines.append(line)
    return lines


def _parse_header(tokens: Sequence[str], expect: int, kind: str) -> tuple[int, int, float]:
    if len(tokens) != expect:
        raise HeaderError(f"malformed header: {kind} expects {expect} fields, got {len(tokens)}")
    try:
        n = int(tokens[1])
        m = int(tokens[2])
        alpha = float(tokens[3])
    except ValueError as exc:
        raise HeaderError(f"malformed header: {exc}") from None
    return n, m, alpha


def load_instance(source: PathOrStream) -> Instance:
    """Read an instance from a CCDENSE or CCSPARSE file or text stream."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_instance(fh)
    lines = _content_lines(source)
    if not lines:
        raise HeaderError("malformed header: empty input")
    tokens = lines[0].split()
    kind = tokens[0].upper()
    if kind == "CCDENSE":
        n, m, alpha = _parse_header(tokens, 4, "CCDENSE")
        body = lines[1:]
        if len(body) != n:
            raise DimensionError(f"expected {n} matrix rows, got {len(body)}")
        q = np.zeros((n, n))
        for i, line in enumerate(body):
            parts = line.split()
            if len(parts) != n:
                raise DimensionError(f"row {i} has {len(parts)} entries, expected {n}")
            try:
                q[i] = [float(p) for p in parts]
            except ValueError as exc:
                raise DimensionError(f"row {i}: {exc}") from None
        return Instance(n=n, m=m, alpha=alpha, Q=q)
    if kind == "CCSPARSE":
        if len(tokens) != 5:
            raise HeaderError(f"malformed header: CCSPARSE expects 5 fields, got {len(tokens)}")
        n, m, alpha = _parse_header(tokens[:4], 4, "CCSPARSE")
        try:
            nnz = int(tokens[4])
        except ValueError as exc:
            raise HeaderError(f"malformed header: {exc}") from None
        body = lines[1:]
        if len(body) != nnz:
            raise DimensionError(f"expected {nnz} triplet lines, got {len(body)}")
        q = np.zeros((n, n))
        for line in body:
            parts = line.split()
            if len(parts) != 3:
                raise DimensionError(f"triplet line has {len(parts)} fields: {line!r}")
            try:
                i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise DimensionError(f"triplet line {line!r}: {exc}") from None
            if not (0 <= i < n and 0 <= j < n):
                raise IndexRangeError(f"index out of range at ({i},{j}), n={n}")
            if w < 0:
                raise NegativeWeightError(f"negative weight at ({i},{j})")
            q[i, j] += w
        return Instance(n=n, m=m, alpha=alpha, Q=q)
    raise HeaderError(f"malformed header: unknown format {tokens[0]!r}")


def save_instance(inst: Instance, target: PathOrStream, fmt: str = "dense") -> None:
    """Write an instance; round-trips exactly (17 significant digits)."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            save_instance(inst, fh, fmt=fmt)
        return
    if fmt == "dense":
        target.write(f"CCDENSE {inst.n} {inst.m} {inst.alpha:.17g}\n")
        for i in range(inst.n):
            target.write(" ".join(f"{w:.17g}" for w in inst.Q[i]) + "\n")
    elif fmt == "sparse":
        rows, cols = np.nonzero(inst.Q)
        target.write(f"CCSPARSE {inst.n} {inst.m} {inst.alpha:.17g} {len(rows)}\n")
        for i, j in zip(rows, cols):
            target.write(f"{i} {j} {inst.Q[i, j]:.17g}\n")
    else:
        raise ValueError(f"unknown format {fmt!r}, use 'dense' or 'sparse'")
