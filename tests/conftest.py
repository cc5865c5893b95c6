"""Shared helpers for the test suite."""

import argparse
import itertools

import numpy as np

from isingcloak import IsingModel
from isingcloak.cli import build_parser


def random_ising(rng, n=None, density=0.5, with_offset=True):
    """Random dense-ish Ising instance with continuous coefficients."""
    if n is None:
        n = int(rng.integers(2, 9))
    h = tuple(float(v) for v in rng.uniform(-2.0, 2.0, n))
    J = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                v = 0.0
                while v == 0.0:
                    v = float(rng.uniform(-2.0, 2.0))
                J[(i, j)] = v
    offset = float(rng.uniform(-5.0, 5.0)) if with_offset else 0.0
    return IsingModel(n, h, J, offset)


def all_spin_configs(n):
    return itertools.product((-1, 1), repeat=n)


def all_bit_configs(n):
    return itertools.product((0, 1), repeat=n)


def spins_from_bits(bits):
    return [2 * b - 1 for b in bits]


def scale_tol(values, rel):
    """Tolerance relative to the magnitude scale of a value collection."""
    arr = np.asarray(values, dtype=np.float64)
    return rel * max(1.0, float(np.abs(arr).max()))


def subcommands():
    """Each subcommand's parser in ``build_parser()``, by name."""
    actions = build_parser()._actions
    return next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices
