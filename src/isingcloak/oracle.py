"""Exact brute-force solving and solution-quality metrics.

Everything here enumerates the full configuration space, so it is the
ground truth the obfuscation schemes are verified against.  The hard
problem-size cap is n <= 24.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import IsingModel, Model, OutcomeDistribution, eval_ising, eval_qubo
from .util import bitstrings_to_array, indices_to_bitstrings

BRUTE_FORCE_CAP = 24
DEGENERACY_TOL = 1e-9  # ground-state tolerance, relative to the coefficient magnitudes

# energy_table passes run over rows of 2^TILE_BITS contiguous entries:
# long enough that numpy's per-row overhead is small, short enough
# (8 KiB) that the per-call tile vectors stay in cache
TILE_BITS = 10


@dataclass(frozen=True)
class SpectrumReport:
    """Exhaustive spectrum of a model.

    ``table`` holds all 2^n energies in enumeration order (index k is
    the configuration whose variable i is bit i of k); ``energies`` is
    the same spectrum in ascending order, sorted on first read and
    cached.  ``argmin_set`` holds the bitstrings attaining the global
    minimum; ``gap`` the distance from the ground energy to the first
    strictly higher level (+inf for a flat spectrum).  Levels closer
    than a degeneracy tolerance are treated as equal, since scaled or
    converted models reproduce exact ties only up to roundoff.
    """

    n: int
    table: np.ndarray
    argmin_set: frozenset
    global_min: float
    gap: float

    @cached_property
    def energies(self) -> np.ndarray:
        return np.sort(self.table)


def _bit_view(e: np.ndarray, i: int) -> np.ndarray:
    """View of a 2^n table whose axis 1 is bit i of the index."""
    return e.reshape(-1, 2, 1 << i)


def _pair_view(e: np.ndarray, i: int, j: int) -> np.ndarray:
    """View of a 2^n table whose axes 1 and 3 are bits j and i (i < j)."""
    return e.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)


def energy_table(model: Model, include_offset: bool = True) -> np.ndarray:
    """Energies of all 2^n configurations, indexed by bit pattern.

    Index k corresponds to the configuration whose variable i is bit i
    of k, at value ``model.levels[bit]`` (spin -1 or binary 0 for bit
    0).  The table is one preallocated array, seen as rows of a fixed
    tile of 2^K entries (K = min(n, TILE_BITS)), and each term of
    ``model.terms()``, in order, makes one in-place pass over it with
    contiguous inner runs of at least 2^K entries:

    * a term whose bits all lie below K adds its values over the tile
      (coefficient times the tile vectors ``levels[bits]``) to every
      row;
    * a pair with i < K <= j adds v * levels[b] times the tile vector
      of bit i along the bit-j axis, for each bit-j value b;
    * a term on bits >= K adds a 2- or 2x2-entry block of v times
      levels along the bit-i (and bit-j) axes.

    Where ``levels[0]`` is 0 a term adds a no-op +-0.0 at bit 0 (an
    entry is never -0.0), so the bit-j or bit-i axis of the last two
    passes keeps only its bit-1 half.  Every entry receives the same
    float additions, in the same term order, as the scalar evaluators,
    so table entries are bit-identical to per-configuration
    :func:`eval_ising` / :func:`eval_qubo` calls.
    """
    n = model.n
    if n > BRUTE_FORCE_CAP:
        raise ValueError(f"n={n} exceeds the enumeration cap of {BRUTE_FORCE_CAP}")
    k = min(n, TILE_BITS)
    e = np.zeros(1 << n)
    rows = e.reshape(-1, 1 << k)
    levels = np.array(model.levels)
    tile = levels[(np.arange(1 << k) >> np.arange(k)[:, None]) & 1]
    lo = 0 if levels[0] else 1
    high = levels[lo:]  # the levels a pass on a bit >= k must touch

    def across(j):
        # view whose axis 1 is bit j >= k and whose last axis is the tile
        return e.reshape(-1, 2, 1 << (j - k), 1 << k)

    for i, j, v in model.terms():
        if j < k:
            rows += v * tile[i] if i == j else v * (tile[i] * tile[j])
        elif i == j:
            _bit_view(e, i)[:, lo:] += v * high[:, None]
        elif i < k:
            across(j)[:, lo:] += v * high[:, None, None] * tile[i]
        else:
            block = v * np.multiply.outer(high, high)
            _pair_view(e, i, j)[:, lo:, :, lo:] += block[:, None, :, None]
    if include_offset:
        e += model.offset
    return e


def brute_force(model: Model) -> SpectrumReport:
    """Exhaustively enumerate a model and report its exact spectrum.

    A level is a ground state when it lies within ``DEGENERACY_TOL``
    times the sum of coefficient magnitudes of the minimum.  That sum
    bounds |energy - offset|, so the tolerance follows the scale of the
    coefficients and ignores the offset.  The ground set and gap come
    from reductions over the offset-free table, so a large offset cannot
    round small energy differences away; the offset is added afterwards,
    and since rounding is monotone the minimum equals the least entry of
    the finished table.  Nothing is sorted unless ``.energies`` is read.
    """
    table = energy_table(model, include_offset=False)
    gmin = float(table.min())
    tol = DEGENERACY_TOL * math.fsum(abs(v) for _, _, v in model.terms())
    ground = table <= gmin + tol
    argmin_set = frozenset(indices_to_bitstrings(np.flatnonzero(ground), model.n))
    gap = float(np.min(table, where=~ground, initial=math.inf)) - gmin
    table += model.offset
    return SpectrumReport(model.n, table, argmin_set, gmin + model.offset, gap)


def argmin_distribution(report: SpectrumReport) -> OutcomeDistribution:
    """Uniform distribution over the ground-state bitstrings."""
    w = 1.0 / len(report.argmin_set)
    return OutcomeDistribution(report.n, {b: w for b in report.argmin_set})


def _top_k_expectation(dist: OutcomeDistribution, model: Model, global_min: float, k: int):
    """Expected energy over the k top-ranked outcomes, divided by ``global_min``."""
    if dist.n != model.n:
        raise ValueError(f"distribution has n={dist.n}, model has n={model.n}")
    if global_min == 0.0:
        raise ValueError("approximation ratio is undefined for a zero global minimum")
    if not dist.is_normalized:
        raise ValueError("distribution must be normalized")
    # one evaluator call on the (N, n) matrix of all outcomes, rows in
    # the distribution's bitstring order
    x = bitstrings_to_array(list(dist.weights), dist.n)
    if isinstance(model, IsingModel):
        e = eval_ising(model, 2 * x.astype(np.int8) - 1)
    else:
        e = eval_qubo(model, x)
    w = np.fromiter(dist.weights.values(), np.float64, len(x))
    # rank by weight desc, then energy asc; the stable sort leaves ties
    # in bitstring order.  The expectation is normalized by the selected
    # weight so the full-k case coincides bitwise with the unrestricted
    # metric
    chosen = np.lexsort((e, -w))[:k]
    num = 0.0
    den = 0.0
    for wi, ei in zip(w[chosen].tolist(), e[chosen].tolist()):
        num += wi * ei
        den += wi
    if den <= 0.0:
        raise ValueError("selected outcomes carry zero total weight")
    return num / den / global_min


def ar(dist: OutcomeDistribution, model: Model, global_min: float) -> float:
    """Approximation ratio: expected energy divided by the global minimum.

    At most 1 for models with a negative global minimum; higher is
    better.
    """
    return _top_k_expectation(dist, model, global_min, len(dist.weights))


def rar(dist: OutcomeDistribution, model: Model, global_min: float, k: int = 5) -> float:
    """Restricted approximation ratio over the k most probable outcomes.

    The k highest-weight outcomes (ties broken by lower energy, then
    lexicographic bitstring) are renormalized before taking the
    expectation.  With k covering the whole support this equals
    :func:`ar` exactly.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return _top_k_expectation(dist, model, global_min, k)
