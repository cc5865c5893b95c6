"""Random benchmark instances over the standard graph families.

All families produce zero linear coefficients and couplings drawn
uniformly from {-1, +1}: regular3 (3-regular via configuration-model
pairing), sk (complete graph), er (each pair with probability 0.6),
ba1/ba2 (preferential attachment with 1 or 2 edges per new node,
seeded from a small clique).
"""

from __future__ import annotations

from .core import IsingModel
from .util import as_rng

ER_EDGE_PROBABILITY = 0.6
_REGULAR_RETRIES = 1000


def _edges_regular3(n, rng):
    if n < 4 or (3 * n) % 2 != 0:
        raise ValueError("regular3 requires n >= 4 with 3*n even")
    stubs = [v for v in range(n) for _ in range(3)]
    for _ in range(_REGULAR_RETRIES):
        order = rng.permutation(len(stubs))
        pairs = set()
        ok = True
        for k in range(0, len(stubs), 2):
            u, v = stubs[order[k]], stubs[order[k + 1]]
            if u == v:
                ok = False
                break
            e = (min(u, v), max(u, v))
            if e in pairs:
                ok = False
                break
            pairs.add(e)
        if ok:
            return sorted(pairs)
    raise RuntimeError(f"no simple 3-regular pairing found in {_REGULAR_RETRIES} attempts")


def _edges_sk(n, rng):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _edges_er(n, rng):
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < ER_EDGE_PROBABILITY
    ]


def _edges_ba(n, attach, rng):
    seed = attach + 1
    if n < seed + 1:
        raise ValueError(f"ba{attach} requires n >= {seed + 1}")
    edges = [(i, j) for i in range(seed) for j in range(i + 1, seed)]
    # each existing node appears once per incident edge, so sampling
    # from this list is degree-proportional
    repeated = [v for e in edges for v in e]
    for v in range(seed, n):
        targets = []
        while len(targets) < attach:
            t = repeated[int(rng.integers(len(repeated)))]
            if t not in targets:
                targets.append(t)
        for t in sorted(targets):
            edges.append((t, v))
            repeated.extend((t, v))
    return sorted(edges)


_EDGES = {  # each family's edge builder, called as builder(n, rng)
    "regular3": _edges_regular3,
    "sk": _edges_sk,
    "er": _edges_er,
    "ba1": lambda n, rng: _edges_ba(n, 1, rng),
    "ba2": lambda n, rng: _edges_ba(n, 2, rng),
}
FAMILIES = tuple(_EDGES)


def generate(family: str, n: int, rng=None) -> IsingModel:
    """Draw one instance of the given family at size n."""
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = as_rng(rng)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r} (expected one of {FAMILIES})")
    edges = _EDGES[family](n, rng)
    J = {e: float(2 * int(rng.integers(0, 2)) - 1) for e in edges}
    return IsingModel(n, (0.0,) * n, J, 0.0)
