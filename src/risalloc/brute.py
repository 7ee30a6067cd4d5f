"""Exhaustive assignment-and-phase search for tiny verification instances.

Tractable only for toy sizes by design: the evaluation count is checked
against a budget up front and the search refuses to start when it would
exceed it. Surfaces with more than four elements share one phase per column
to keep the grid enumerable. Each hard assignment scores its whole phase
grid in calls of the objective kernel in ``metrics``, at most _CHUNK
configurations per call, so memory stays bounded whatever the budget.
"""

from __future__ import annotations

import itertools

import numpy as np

from .channel import ChannelSet
from .metrics import Allocation, PhaseConfig, _objective, expand_columns

_CHUNK = 4096  # phase configurations scored per kernel call


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the allowed budget."""

    def __init__(self, evaluations: int, budget: int):
        super().__init__(
            f"exhaustive search needs {evaluations} evaluations, over the budget of {budget}")
        self.evaluations = evaluations
        self.budget = budget


def enumeration_count(num_users: int, num_columns: int, num_elements: int, nu: int) -> int:
    """Configurations the search would visit (exact integer): each column
    goes to one user or stays off."""
    slots = num_elements if num_elements <= 4 else num_columns
    return (num_users + 1) ** num_columns * nu ** slots


def brute_force(ch: ChannelSet, w, alpha: float, noise_linear: float, nu: int,
                budget: int = 10_000_000):
    """Grid-search every hard assignment and quantized phase combination.

    Each column goes to one user or stays off. Phases come from nu evenly
    spaced levels spanning [0, pi] (nu = 1 pins them at 0). Ties resolve to
    the first configuration in enumeration order, i.e. the
    lexicographically smallest with "off" sorting last.
    Returns (PhaseConfig, Allocation, utility).
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    K = ch.num_users
    L2 = ch.num_elements
    L = ch.side

    count = enumeration_count(K, L, L2, nu)
    if count > budget:
        raise BudgetExceededError(count, budget)

    per_element = L2 <= 4
    slots = L2 if per_element else L
    grid = np.array([0.0]) if nu == 1 else np.linspace(0.0, np.pi, nu)
    n_phases = nu ** slots
    place = nu ** np.arange(slots - 1, -1, -1)  # grid index of slot s is digit s of j in base nu
    inputs = ch.g_ris, ch.h_rb, ch.h_direct, w

    best_utility = None
    best_theta = None
    best_alloc = None
    for assign in itertools.product(range(K + 1), repeat=L):  # K = "off", sorts last
        xi = np.zeros((K, L))
        for c, a in enumerate(assign):
            if a < K:
                xi[a, c] = 1.0
        mask = expand_columns(xi)
        for start in range(0, n_phases, _CHUNK):
            j = np.arange(start, min(start + _CHUNK, n_phases))
            phases = grid[j[:, None] // place % nu]
            thetas = phases if per_element else np.repeat(phases, L, axis=1)
            values = _objective(*inputs, thetas, mask, noise_linear, alpha)
            best = int(np.argmax(values))  # first of equals inside a chunk, strict > across
            if best_utility is None or values[best] > best_utility:
                best_utility = values[best]
                best_theta = thetas[best]
                best_alloc = Allocation(xi)
    return PhaseConfig(best_theta), best_alloc, float(best_utility)
