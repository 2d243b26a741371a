"""Observables on walker states and closed-form reference values.

Occupation probabilities, position moments, read-out probabilities and
conditional fidelities are extracted directly from the unnormalized
blocks. The closed-form predictions (biased-chain read-out for the
computation chain, arrival at the end of the transport chain, the
success estimate for state preparation) exist so that simulations can
be checked against them.
"""

from __future__ import annotations

import numpy as np

from .core import WalkerState
from .linalg import pure_fidelity


def occupation(state: WalkerState, nodes: tuple | None = None) -> dict:
    """Node -> occupation probability (trace of the node's block).

    With ``nodes`` (a spec's node tuple) only those nodes are listed,
    in that order.
    """
    return state.traces(nodes)


def position_moments(dist: dict) -> tuple[float, float]:
    """Mean and variance of an occupation distribution on integer sites."""
    for node in dist:
        if not isinstance(node, (int, np.integer)):
            raise TypeError(f"non-integer node label {node!r}")
    total = _sum(dist.values())
    if total <= 0:
        raise ValueError("empty distribution")
    mean = _sum(n * w for n, w in dist.items()) / total
    var = _sum((n - mean) ** 2 * w for n, w in dist.items()) / total
    return mean, var


def _sum(values) -> float:
    """Float sum added left to right. Python 3.12's builtin sum()
    compensates, so it would change the last bit of printed values."""
    total = 0.0
    for value in values:
        total += value
    return total


def readout_probability(state: WalkerState, node, nodes=None) -> float:
    """Occupation probability of one node (0 for an unoccupied node).

    When the walk's node collection is supplied, asking for a node
    outside it raises KeyError instead of silently returning 0.
    """
    if nodes is not None and node not in nodes:
        raise KeyError(f"unknown node {node!r}")
    return state.traces().get(node, 0.0)


def node_fidelity(state: WalkerState, node, target: np.ndarray) -> float:
    """Conditional fidelity <target| rho_node |target> / Tr rho_node.

    This is the fidelity of the walker's internal state given that it
    is found at the node; the joint weight is readout_probability.
    Raises ValueError when the node carries no weight (< 1e-14), where
    the conditional state is undefined.
    """
    weight = readout_probability(state, node)
    if weight < 1e-14:
        raise ValueError(f"node {node!r} carries no weight; fidelity undefined")
    return pure_fidelity(state.blocks[node], target) / weight


def internal_sector_occupation(state: WalkerState, sector: np.ndarray) -> dict:
    """Node -> joint weight of one internal basis vector.

    For the line walk the |+> and |-> sectors never mix, so
    conditioning on them splits the distribution exactly into the
    deterministic right-mover and the diffusive remainder.
    """
    return {node: pure_fidelity(b, sector) for node, b in state.blocks.items()}


def dqc_predicted_readout(omega: float, t_final: int) -> float:
    """Stationary read-out probability of the last time register.

    The register occupation follows a biased reflecting birth-death
    chain whose stationary weights are (omega/lambda)^t, so the last of
    t_final + 1 registers holds r^T / sum_{t=0..T} r^t with
    r = omega / (1 - omega). At omega = 1/2 this is 1 / (T + 1).
    """
    if not 0.0 < omega < 1.0:
        raise ValueError("omega must lie strictly between 0 and 1")
    if t_final < 1:
        raise ValueError("need at least one register transition (T >= 1)")
    r = omega / (1.0 - omega)
    # sum_{s=0..T} r^{-s}, stable for either bias direction
    denom = _sum((1.0 / r) ** s for s in range(t_final + 1))
    return 1.0 / denom


def state_prep_predicted_pss(
    rho0_elements: tuple[float, float, float, float],
    q: float,
    m: int,
) -> float:
    """Estimated probability of having reached the prepared state.

    After 2m steps the probability of finding the walker in the target
    state at node 2 is approximately

        1 - e12 / 4^m - (e11 + e21) * min(1/4, q)^m

    where rho0_elements = (e11, e12, e21, e22) are the initial weights
    <node i, basis j| rho(0) |node i, basis j> in the (target,
    complement) internal basis: e11 = node 1/target, e12 = node 1/
    complement, e21 = node 2/target, e22 = node 2/complement.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    e11, e12, e21, _e22 = (float(x) for x in rho0_elements)
    rate = min(0.25, float(q))
    return 1.0 - e12 / 4.0 ** m - (e11 + e21) * rate ** m


def state_prep_elements(
    state: WalkerState,
    target: np.ndarray,
    complement: np.ndarray,
) -> tuple[float, float, float, float]:
    """Initial-state weights used by state_prep_predicted_pss.

    Order: (node 1/target, node 1/complement, node 2/target,
    node 2/complement); absent blocks contribute zeros.
    """
    out = []
    for node in (1, 2):
        block = state.blocks.get(node)
        for basis in (target, complement):
            out.append(0.0 if block is None else pure_fidelity(block, basis))
    return tuple(out)


def transport_arrival_step(
    trajectory: list[tuple[int, WalkerState]],
    node,
    threshold: float = 0.999,
) -> int | None:
    """First recorded step at which a node's occupation reaches threshold."""
    for k, state in trajectory:
        if readout_probability(state, node) >= threshold:
            return k
    return None


def transport_predicted_arrival(n_nodes: int, p: float, step: int) -> float:
    """Occupation of the last node of build_transport_chain(n_nodes, p)
    after ``step`` steps from the maximally mixed state at node 1.

    The psi1 half moves one node a step and arrives at step N - 1. The
    psi2 half stays psi2 while it hops forward (weight q = 1 - p a
    step); once converted at rest, it moves on as psi1 one step behind.
    So node N holds 0 before step N - 1, (1 + q^(N-1)) / 2 at step
    N - 1, and 1 from step N on, for any orthonormal psi1, psi2.
    """
    if n_nodes < 2:
        raise ValueError("the chain needs at least 2 nodes")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if step < n_nodes - 1:
        return 0.0
    if step == n_nodes - 1:
        return (1.0 + (1.0 - p) ** (n_nodes - 1)) / 2.0
    return 1.0


def line_sector_drift(state: WalkerState, sector: np.ndarray,
                      n_steps: int) -> float:
    """Per-step mean displacement of one internal sector of a line walk."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    weights = internal_sector_occupation(state, sector)
    mean, _ = position_moments(weights)
    return mean / n_steps
