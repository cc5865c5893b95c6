"""Scheme III: regularize the problem graph with algorithmically placed decoys.

Instead of scattering a user-chosen number of decoy variables, this
scheme computes the smallest decoy count m for which the problem graph
can be completed to a d*-regular graph by joining decoys to primaries
and to each other (never adding a primary-primary edge), then routes
the resulting decoy edge set through the scheme-II weighting,
permutation and ciphering machinery.  Feasibility of a given m follows
from four arithmetic conditions on the degree deficiencies.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass
from typing import Sequence

from .core import IsingModel, _integral, ising_to_qubo, problem_graph
from .scheme2 import (
    DecoyPlacement,
    KeyII,
    _augment,
    _check_roulette,
    _seal,
    attack_complexity2,
    build_roulette,
    decrypt2,
    key2_from_dict,
    key2_to_dict,
    sample_weight,
)
from .util import as_rng

# scheme III keys, decoding, attack cost and key records are scheme II's;
# a scheme-III key is a KeyII whose d_star is set
KeyIII = KeyII
decrypt3 = decrypt2
attack_complexity3 = attack_complexity2
key3_to_dict = key2_to_dict
key3_from_dict = key2_from_dict


@dataclass(frozen=True)
class RegularizationPlan:
    """Decoy edges that complete a graph to d*-regular.

    ``deficiencies`` are the per-primary-node values d* - d_i and
    ``total_deficiency`` their sum; ``decoy_edges`` are unordered pairs
    over 0..n+m-1, each touching at least one decoy node (indices >= n).
    """

    d_star: int
    m: int
    deficiencies: tuple
    total_deficiency: int
    decoy_edges: tuple


def check_conditions(n: int, m: int, d_star: int, s: int, max_e: int) -> bool:
    """Whether m decoys suffice to make the graph d*-regular.

    All four conditions are evaluated in exact integer arithmetic:
    m*d* >= s, m^2 - (d*+1)*m + s >= 0, m >= max(e_i), and (m+n)*d*
    even.
    """
    if m * d_star < s:
        return False
    if m * m - (d_star + 1) * m + s < 0:
        return False
    if m < max_e:
        return False
    if ((m + n) * d_star) % 2 != 0:
        return False
    return True


def _deficiencies(degrees: Sequence[int], d_star: int):
    """Checked ``(degrees, d_star)``, the deficiencies d* - d_i, their sum s and max max_e.

    Degrees must be nonnegative integers with an even sum, and d* at least their maximum.
    """
    degrees = [_integral(d, "degree", least=0) for d in degrees]
    d_star = _integral(d_star, "d_star")
    if sum(degrees) % 2:
        raise ValueError("degrees must have an even sum, as a graph's degrees do")
    if d_star < max(degrees):
        raise ValueError(f"d_star={d_star} is below the maximum primary degree {max(degrees)}")
    deficiencies = [d_star - d for d in degrees]
    return degrees, d_star, deficiencies, sum(deficiencies), max(deficiencies)


def minimal_decoy_count(degrees: Sequence[int], d_star: int) -> int:
    """Smallest feasible decoy count, by ascending linear search.

    The search runs from max(e_i), below which the conditions always
    fail, to n + d* + 1; exhausting that range without a feasible m
    signals a conditions bug, not a user error.
    """
    degrees, d_star, _, s, max_e = _deficiencies(degrees, d_star)
    n = len(degrees)
    for m in range(max_e, n + d_star + 2):
        if check_conditions(n, m, d_star, s, max_e):
            return m
    raise RuntimeError(
        f"no feasible decoy count in [{max_e}, {n + d_star + 1}] for d_star={d_star}"
    )


def regular_edge_set(degrees: Sequence[int], d_star: int, m: int) -> RegularizationPlan:
    """Greedy decoy-edge placement achieving d*-regularity.

    Primaries are processed by descending deficiency (ties to the
    lowest index); each receives its full quota of links from the
    decoys with the most remaining capacity.  Phase 2 then satisfies
    the highest-deficiency decoy in full against the next-highest
    non-adjacent decoys until every decoy reaches d*.  Both phases keep
    the decoy loads balanced, which makes the construction complete
    whenever the feasibility conditions hold.  Fully deterministic.
    Regularity is asserted after construction, so an infeasible input
    surfaces as a hard error.
    """
    degrees, d_star, deficiencies, s, max_e = _deficiencies(degrees, d_star)
    m = _integral(m, "m", least=0)
    if m > sys.maxsize:
        raise ValueError(f"m must be at most {sys.maxsize}, the largest list length")
    n = len(degrees)
    if not check_conditions(n, m, d_star, s, max_e):
        raise ValueError(f"m={m} fails the regularization conditions for d_star={d_star}")

    decoy_need = [d_star] * m
    edges = []

    # phase 1: primaries by descending deficiency (ties to the lowest
    # index) each take their links from one cyclic pointer over the
    # decoys.  After t links every decoy has lost t // m or t // m + 1,
    # so "the decoys with the most remaining capacity, ties to the
    # lowest index" is always the pointer's rotation; m*d* >= s keeps
    # every capacity nonnegative and m >= max(e_i) keeps a primary from
    # meeting a decoy twice.  The balanced loads make the leftover decoy
    # deficiencies a graphical sequence for phase 2
    dj = 0
    for pi in sorted(range(n), key=lambda i: (-deficiencies[i], i)):
        for _ in range(deficiencies[pi]):
            edges.append((pi, n + dj))
            decoy_need[dj] -= 1
            dj = (dj + 1) % m

    # phase 2: Havel-Hakimi over the decoys still short of d*: the one
    # with the most need (ties to the lowest index) links to the next
    # need of them in the same order, then leaves.  Every decoy-decoy
    # edge has an endpoint that has left, so two live decoys are never
    # adjacent.  Pairing one edge at a time between the top two can
    # wedge itself even on feasible inputs
    live = [(-need, n + dj) for dj, need in enumerate(decoy_need) if need > 0]
    heapq.heapify(live)
    while live:
        need, u = heapq.heappop(live)
        if len(live) < -need:
            raise RuntimeError("decoy placement stalled with unmet decoy deficiencies")
        partners = [heapq.heappop(live) for _ in range(-need)]
        for left, v in partners:
            edges.append((min(u, v), max(u, v)))
            if left < -1:
                heapq.heappush(live, (left + 1, v))

    final = list(degrees) + [0] * m
    for u, v in edges:
        final[u] += 1
        final[v] += 1
    if any(d != d_star for d in final):
        raise RuntimeError("regularization produced a non-regular graph")
    return RegularizationPlan(
        d_star=d_star,
        m=m,
        deficiencies=tuple(deficiencies),
        total_deficiency=s,
        decoy_edges=tuple(sorted(edges)),
    )


def _placement_from_plan(plan: RegularizationPlan, n: int, wheel, rng) -> DecoyPlacement:
    # weights drawn in sorted edge order, then one diagonal (linear)
    # term per decoy so decoys carry plausible h values after conversion;
    # a plan with m = 0 draws nothing, so its wheel may be None
    B = {}
    C = {}
    for u, v in plan.decoy_edges:
        if u < n <= v:
            B[(u, v - n)] = sample_weight(wheel, rng)
        else:
            C[(u - n, v - n)] = sample_weight(wheel, rng)
    for j in range(plan.m):
        C[(j, j)] = sample_weight(wheel, rng)
    return DecoyPlacement(B, C)


def encrypt3(model: IsingModel, rng=None, d_star: int | None = None, bins: int = 10, mode: str = "inverse"):
    """Full scheme-III encryption of an Ising problem.

    d* defaults to the maximum primary degree (minimizing the decoy
    count).  The minimal m is computed, decoy edges are placed to make
    the graph d*-regular, weights come from the scheme-II roulette
    wheel, and the permutation / conversion / cipher tail is identical
    to scheme II.
    """
    rng = as_rng(rng)
    graph = problem_graph(model)
    if d_star is None:
        d_star = max(graph.degrees)
    m = minimal_decoy_count(graph.degrees, d_star)
    plan = regular_edge_set(graph.degrees, d_star, m)
    q = ising_to_qubo(model)
    wheel = build_roulette(list(q.A.values()), bins=bins, mode=mode) if m else None
    _check_roulette(bins, mode)  # at m = 0 too, where no wheel is built
    placement = _placement_from_plan(plan, model.n, wheel, rng)
    return _seal(model, _augment(q, m, placement), rng, d_star)
