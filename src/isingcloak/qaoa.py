"""Dense-statevector simulation of the alternating-operator ansatz.

Each layer applies the exact diagonal cost phase exp(-i * gamma * f(z))
followed by an X rotation by angle 2*beta on every qubit.  The phase
comes from the precomputed energy table (offset excluded, it is a
global phase): a table holds few distinct levels, so the exponential is
taken once per level and gathered to the 2^n entries through each
entry's level index, both computed once per solve.  The rotation of
each qubit is three long vectorized passes over the whole state.
Parameters are tuned by a derivative-free coordinate search with random
restarts, and measurement is simulated by multinomial shot sampling.
The dense simulator is capped at n <= 16.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import IsingModel, OutcomeDistribution, _real
from .oracle import energy_table
from .util import as_rng, indices_to_bitstrings

SIMULATOR_CAP = 16
RESTARTS = 10  # random starts of the parameter search

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class QaoaParams:
    """Per-layer angles; gammas drive the cost phase, betas the mixer."""

    gammas: tuple
    betas: tuple

    def __post_init__(self):
        gammas = tuple(_real(g, "gamma") for g in self.gammas)
        betas = tuple(_real(b, "beta") for b in self.betas)
        if len(gammas) != len(betas):
            raise ValueError("gammas and betas must have equal length")
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "betas", betas)

    @property
    def p(self) -> int:
        return len(self.gammas)


def _mix(state: np.ndarray, beta: float, n: int) -> np.ndarray:
    """Apply exp(-i*beta*X) to every qubit of a 2^n statevector, qubits 0 to n-1 in order.

    For qubit q each pair (a0, a1) becomes (c*a0 + s*a1, s*a0 + c*a1):
    the products of the whole state with c and with s land in two
    buffers, and one add takes the s products with the halves of every
    pair swapped.  These are the products and sums of the pair-by-pair
    formula (float addition commutes exactly), so the bytes are the same.
    """
    c = np.cos(beta)
    s = -1j * np.sin(beta)
    cs = np.empty_like(state)
    ss = np.empty_like(state)
    for q in range(n):
        shape = (-1, 2, 1 << q)
        np.multiply(c, state, out=cs)
        np.multiply(s, state, out=ss)
        np.add(cs.reshape(shape), ss.reshape(shape)[:, ::-1], out=state.reshape(shape))
    return state


def _evolve(phases, params: QaoaParams, n: int) -> np.ndarray:
    """Statevector after the layers of ``params``, from the tuple of :func:`_phase_energies`.

    Each cost phase is exponentiated over the distinct levels only and
    gathered to all 2^n entries; the first layer scales it by the
    uniform amplitude before the gather.
    """
    _, levels, index = phases
    amplitude = 2.0 ** (-n / 2.0)
    state = None
    for gamma, beta in zip(params.gammas, params.betas):
        phase = np.exp(-1j * gamma * levels)
        state = (amplitude * phase)[index] if state is None else state * phase[index]
        state = _mix(state, beta, n)
    if state is None:  # no layers: the uniform superposition itself
        state = np.full(1 << n, amplitude, dtype=np.complex128)
    return state


def _phase_energies(model: IsingModel):
    """The offset-free energy table, its distinct levels and each entry's level index."""
    if model.n > SIMULATOR_CAP:
        raise ValueError(f"n={model.n} exceeds the simulator cap of {SIMULATOR_CAP}")
    table = energy_table(model, include_offset=False)
    # np.unique merges -0.0 with +0.0; the gathered phases are bit-exact
    # only because energy_table never writes -0.0 (see its docstring)
    levels, index = np.unique(table, return_inverse=True)
    return table, levels, index


def _expectation(model: IsingModel, phases, params: QaoaParams) -> float:
    """Offset-free expectation over the final state's probabilities, then the offset."""
    state = _evolve(phases, params, model.n)
    return float((np.abs(state) ** 2) @ phases[0]) + model.offset


def simulate(model: IsingModel, params: QaoaParams) -> np.ndarray:
    """Statevector after p layers, starting from the uniform superposition."""
    return _evolve(_phase_energies(model), params, model.n)


def expectation(model: IsingModel, params: QaoaParams) -> float:
    """Energy expectation of the final state, offset included."""
    return _expectation(model, _phase_energies(model), params)


def _golden_refine(objective, lo: float, hi: float, iters: int):
    """Golden-section minimization on [lo, hi]; returns the best probe."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = objective(x1), objective(x2)
    best = (f1, x1) if f1 <= f2 else (f2, x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = objective(x2)
        cand = (f1, x1) if f1 <= f2 else (f2, x2)
        if cand < best:
            best = cand
    return best


class _Budget(Exception):
    pass


def optimize(model: IsingModel, p: int, max_iters: int = 200, rng=None):
    """Derivative-free parameter search.

    Runs up to ``RESTARTS`` random starts with (gamma, beta) drawn
    uniformly from [0, pi) per layer; each start performs coordinate
    sweeps that scan a coarse grid over the coordinate's period and
    refine the best cell by golden section.  ``max_iters`` bounds the
    total number of objective evaluations across all restarts.

    Returns the best parameters found and the best-so-far expectation
    trace, one entry per evaluation (non-increasing by construction).
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    phases = _phase_energies(model)
    rng = as_rng(rng)

    trace = []
    best_value = np.inf
    best_x = None

    def evaluate(x):
        nonlocal best_value, best_x
        if len(trace) >= max_iters:
            raise _Budget
        value = _expectation(model, phases, QaoaParams(tuple(x[:p]), tuple(x[p:])))
        if value < best_value:
            best_value = value
            best_x = np.array(x)
        trace.append(best_value)
        return value

    # gamma coordinates scanned over [0, 2*pi), beta over its exact
    # period [0, pi); grid first because the landscape is multimodal
    spans = [2.0 * np.pi] * p + [np.pi] * p
    grid_points = 10
    golden_iters = 14

    try:
        for _ in range(RESTARTS):
            x = np.concatenate([rng.uniform(0.0, np.pi, p), rng.uniform(0.0, np.pi, p)])
            evaluate(x)
            for _sweep in range(2):
                for coord in range(2 * p):
                    span = spans[coord]
                    step = span / grid_points
                    grid = [k * step for k in range(grid_points)]
                    scores = []
                    for g in grid:
                        probe = x.copy()
                        probe[coord] = g
                        scores.append(evaluate(probe))
                    k_best = int(np.argmin(scores))
                    center = grid[k_best]

                    def line(t, coord=coord, x=x):
                        probe = x.copy()
                        probe[coord] = t
                        return evaluate(probe)

                    value, t_best = _golden_refine(line, center - step, center + step, golden_iters)
                    if value <= scores[k_best]:
                        x[coord] = t_best
                    else:
                        x[coord] = center
    except _Budget:
        pass

    if best_x is None:
        raise RuntimeError("optimization consumed no evaluations")
    return QaoaParams(tuple(best_x[:p]), tuple(best_x[p:])), trace


def sample(state: np.ndarray, shots: int, rng=None) -> OutcomeDistribution:
    """Multinomial shot sampling from the amplitudes' Born probabilities."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    rng = as_rng(rng)
    size = int(state.size)
    n = size.bit_length() - 1
    if 1 << n != size:
        raise ValueError("statevector length must be a power of two")
    probs = np.abs(np.asarray(state)) ** 2
    probs = probs / probs.sum()
    counts = rng.multinomial(shots, probs)
    drawn = np.flatnonzero(counts)
    weights = (counts[drawn] / shots).tolist()
    return OutcomeDistribution(n, dict(zip(indices_to_bitstrings(drawn, n), weights)))
