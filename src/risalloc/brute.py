"""Exhaustive assignment-and-phase search for tiny verification instances.

Tractable only for toy sizes by design: the evaluation count is checked
against a budget up front and the search refuses to start when it would
exceed it. Surfaces with more than _PER_ELEMENT_MAX elements share one phase
per column to keep the grid enumerable.

Each hard assignment scores its phase grid through its own phase map, as
bcd's phase block does: with the shares fixed, S = D + e^{j theta} @ M
(``metrics._Bound.with_shares``), so a chunk of at most _CHUNK
configurations costs one matrix product and the value-only kernel tail, and
memory stays bounded whatever the budget. The grid's rows e^{j theta} are
formed once per chunk, and only once in all when the grid is one chunk. The
winner's utility is then scored once more by ``metrics.sum_utility``, the
objective every solver reports.
"""

from __future__ import annotations

import itertools

import numpy as np

from .channel import ChannelSet
from .metrics import Allocation, PhaseConfig, _bind, _tail, expand_columns, sum_utility

_CHUNK = 4096  # phase configurations scored per matrix product
_PER_ELEMENT_MAX = 4  # largest surface whose elements each get their own phase
DEFAULT_BUDGET = 10_000_000  # evaluations allowed when the caller names no budget


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the allowed budget."""

    def __init__(self, evaluations: int, budget: int):
        super().__init__(
            f"exhaustive search needs {evaluations} evaluations, over the budget of {budget}")
        self.evaluations = evaluations
        self.budget = budget


def _phase_slots(num_columns: int, num_elements: int) -> int:
    """Phases the search picks: one per element up to _PER_ELEMENT_MAX
    elements, one per column beyond."""
    return num_elements if num_elements <= _PER_ELEMENT_MAX else num_columns


def enumeration_count(num_users: int, num_columns: int, num_elements: int, nu: int) -> int:
    """Configurations the search would visit (exact integer): each column
    goes to one user or stays off."""
    return (num_users + 1) ** num_columns * nu ** _phase_slots(num_columns, num_elements)


def brute_force(ch: ChannelSet, w, alpha: float, noise_linear: float, nu: int,
                budget: int = DEFAULT_BUDGET):
    """Grid-search every hard assignment and quantized phase combination.

    Each column goes to one user or stays off. Phases come from nu evenly
    spaced levels spanning [0, pi] (nu = 1 pins them at 0). Ties resolve to
    the first configuration in enumeration order, i.e. the
    lexicographically smallest with "off" sorting last.
    Returns (PhaseConfig, Allocation, utility), the utility from sum_utility.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    K = ch.num_users
    L2 = ch.num_elements
    L = ch.side

    count = enumeration_count(K, L, L2, nu)
    if count > budget:
        raise BudgetExceededError(count, budget)

    slots = _phase_slots(L, L2)
    grid = np.array([0.0]) if nu == 1 else np.linspace(0.0, np.pi, nu)
    n_phases = nu ** slots
    place = nu ** np.arange(slots - 1, -1, -1)  # grid index of slot s is digit s of j in base nu
    chunks = [(start, min(start + _CHUNK, n_phases)) for start in range(0, n_phases, _CHUNK)]

    def rows(start, stop):
        """Phases (Q, L2) of configurations start..stop - 1, and e^{j theta}."""
        j = np.arange(start, stop)
        phases = grid[j[:, None] // place % nu]
        thetas = phases if slots == L2 else expand_columns(phases)
        return thetas, np.exp(1j * thetas)

    whole = rows(*chunks[0]) if len(chunks) == 1 else None  # never more than one chunk held
    bound = _bind(ch.g_ris, ch.h_rb, ch.h_direct, w, grads=True)
    users = np.arange(K)[:, None]

    best = None  # (value, theta, xi)
    for assign in itertools.product(range(K + 1), repeat=L):  # K = "off", sorts last
        xi = (users == assign).astype(float)
        M = bound.with_shares(xi).M
        for chunk in chunks:
            thetas, phase = rows(*chunk) if whole is None else whole
            S = (phase @ M).reshape(-1, K, K)
            S += bound.D
            values = _tail(S, noise_linear, alpha, None)
            top = int(np.argmax(values))  # first of equals inside a chunk, strict > across
            if best is None or values[top] > best[0]:
                best = values[top], thetas[top], xi
    _, theta, xi = best
    return PhaseConfig(theta), Allocation(xi), sum_utility(ch, theta, xi, w, alpha, noise_linear)
