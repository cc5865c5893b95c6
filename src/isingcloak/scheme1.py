"""Scheme I: coefficient ciphering by secret spin flips plus stretching.

A secret target set T of qubits is chosen; coefficients touching T get
their signs toggled (h_i for i in T, J_ij when exactly one endpoint is
in T) and every coefficient is then multiplied by a random stretch
factor tau >= 1.  The energy spectrum of the ciphered model is the
original spectrum (minus the offset, which stays client-side) scaled by
tau, with ground states related by flipping the spins in T.  Decrypting
a measured distribution therefore only toggles the bits at positions T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import IsingModel, OutcomeDistribution, _integral, _known_fields, _real
from .util import as_rng, chars_to_bitstrings


@dataclass(frozen=True)
class KeyI:
    """Client-secret key for scheme I.

    ``targets`` is the flipped-qubit set, ``tau`` the finite stretch
    factor >= 1 (so the spectral gap never shrinks), ``offset`` the
    original model offset withheld from the solver (0 until an
    encryption records it).
    """

    n: int
    targets: frozenset
    tau: float
    offset: float = 0.0

    def __post_init__(self):
        n = _integral(self.n, "n", least=1)
        targets = frozenset(_integral(t, "target") for t in self.targets)
        if any(t < 0 or t >= n for t in targets):
            raise ValueError("target indices must lie in [0, n)")
        tau = _real(self.tau, "tau")
        if tau < 1.0:
            raise ValueError(f"tau must be a finite value >= 1, got {self.tau!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "offset", _real(self.offset, "offset"))


def gen_key1(n: int, rng=None) -> KeyI:
    """Draw a fresh scheme-I key for an n-qubit problem.

    Each qubit enters the target set independently with probability
    1/2, and tau = 1 + |N(1, 1)|, so tau >= 1 and the spectral gap is
    never shrunk.  Under this sampler about 95% of tau draws land in
    [1, 4], which bounds how precisely an observer prepared to sweep
    scale guesses can pin down coefficient magnitudes.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    rng = as_rng(rng)
    mask = rng.random(n) < 0.5
    tau = 1.0 + abs(rng.normal(1.0, 1.0))
    return KeyI(n=n, targets=frozenset(int(i) for i in np.flatnonzero(mask)), tau=tau)


def encrypt1(model: IsingModel, key: KeyI) -> IsingModel:
    """Cipher a model's coefficients under ``key``.

    Signs toggle exactly for terms touching the target set an odd
    number of times, then everything scales by tau.  A zero linear term
    comes out as +0.0 whatever T says, since the sign of a zero would
    disclose T.  The offset of the returned model is zero: it carries no
    optimization information and is kept in client metadata instead.
    """
    if key.n != model.n:
        raise ValueError(f"key is for n={key.n}, model has n={model.n}")
    T = key.targets
    h = tuple(
        key.tau * (-hi if i in T else hi) if hi else 0.0 for i, hi in enumerate(model.h)
    )
    J = {}
    for (i, j), v in model.J.items():
        flip = (i in T) != (j in T)
        J[(i, j)] = key.tau * (-v if flip else v)
    return IsingModel(model.n, h, J, 0.0)


def flip_spins(z: Sequence[int], targets: frozenset) -> list:
    """Negate the spins at the target positions (its own inverse)."""
    return [-s if i in targets else s for i, s in enumerate(z)]


def decrypt1(dist: OutcomeDistribution, key: KeyI) -> OutcomeDistribution:
    """Undo the measurement-side effect of the spin flips.

    Toggles the bits at the target positions of every outcome, in one
    XOR of the outcomes' characters with a 0/1 mask; weights are
    untouched, so the map is a weight-preserving bijection and an
    involution.
    """
    if dist.n != key.n:
        raise ValueError(f"distribution has n={dist.n}, key expects n={key.n}")
    mask = np.zeros(key.n, dtype=np.uint8)
    mask[list(key.targets)] = 1  # '0' ^ 1 == '1' and '1' ^ 1 == '0'
    chars = np.frombuffer("".join(dist.weights).encode("ascii"), dtype=np.uint8)
    chars = chars.reshape(-1, key.n) ^ mask  # frees the joined text before slicing
    flipped = chars_to_bitstrings(chars)
    return OutcomeDistribution(dist.n, dict(zip(flipped, dist.weights.values())))


def recover_energy1(value: float, key: KeyI, original_offset: float) -> float:
    """Map an energy of the ciphered model back to the client scale."""
    return value / key.tau + original_offset


def attack_complexity1(n: int) -> float:
    """log2 of the brute-force cost of guessing the target set (2^n)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return float(n)


def key1_to_dict(key: KeyI) -> dict:
    return {
        "scheme": "I",
        "n": key.n,
        "targets": sorted(key.targets),
        "tau": key.tau,
        "offset": key.offset,
    }


def key_scheme(data) -> str | None:
    """The ``"scheme"`` field of a key record, which must be a JSON object."""
    if not isinstance(data, Mapping):
        raise ValueError(f"a key record must be a JSON object, got {type(data).__name__}")
    return data.get("scheme")


def key1_from_dict(data: Mapping) -> KeyI:
    if key_scheme(data) != "I":
        raise ValueError(f"expected a scheme I key, got {data.get('scheme')!r}")
    try:
        key = KeyI(data["n"], data["targets"], data["tau"], data["offset"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed scheme I key: {exc}") from exc
    _known_fields(data, ("scheme", "n", "targets", "tau", "offset"), "scheme I key")
    return key
