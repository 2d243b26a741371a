"""Observables on walker states and closed-form reference values.

Occupation probabilities, position moments, read-out probabilities and
conditional fidelities are extracted directly from the unnormalized
blocks. The closed-form predictions (biased-chain read-out for the
computation chain, arrival at the end of the transport chain, the
success probability of state preparation) exist so that simulations
can be checked against them. Each raises ValueError or TypeError on
input it cannot give a finite value for: TypeError for a bool, string,
complex or array number or a float count, ValueError for one out of
range, each message starting with the parameter's name.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from .core import WalkerState
from .linalg import _count, _real, pure_fidelity, sum_left_to_right


def occupation(state: WalkerState, nodes: tuple | None = None) -> dict:
    """Node -> occupation probability (trace of the node's block).

    With ``nodes`` (a spec's node tuple) only those nodes are listed,
    in that order.
    """
    return state.traces(nodes)


def position_moments(dist: dict) -> tuple[float, float]:
    """Mean and variance of an occupation distribution on integer sites,
    from finite real weights with a positive total."""
    if not isinstance(dist, Mapping):
        raise TypeError(f"expected a node -> weight mapping, got {type(dist).__name__}")
    sites = [_count(node, "node label", -math.inf) for node in dist]
    weights = [_real(w, f"weight of node {n}") for n, w in zip(sites, dist.values())]
    total = sum_left_to_right(weights)
    if total <= 0:
        raise ValueError("empty distribution")
    try:
        mean = sum_left_to_right(n * w for n, w in zip(sites, weights)) / total
        var = sum_left_to_right((n - mean) ** 2 * w for n, w in zip(sites, weights)) / total
    except OverflowError:  # a site past the float range, or its square
        mean = var = math.inf
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise ValueError("the moments are past the float range")
    return mean, var


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
    omega = _real(omega, "omega", 0, 1, open_interval=True)
    t_final = _count(t_final, "t_final", 1)
    r = omega / (1.0 - omega)
    try:  # sum_{s=0..T} r^{-s}, stable for either bias direction
        denom = sum_left_to_right((1.0 / r) ** s for s in range(t_final + 1))
    except OverflowError:  # a term past the float range: r^T / sum underflows
        return 0.0
    return 1.0 / denom


def state_prep_predicted_pss(
    rho0_elements: tuple[float, float, float, float],
    q: float,
    m: int,
) -> float:
    """Probability of the target state at node 2 after 2m steps of
    build_state_prep(alpha, beta, 1 - q), from the initial weights
    rho0_elements = (a1, b1, a2, b2): node 1/target, node 1/complement,
    node 2/target, node 2/complement, in the (target, complement) basis.

    A step maps these weights exactly by x' = M x with p = 1 - q
    (coherences never feed them), so this is a2 after 2m scalar steps:

        M = [[1/2, 0, 0, p], [0, 1/2, 0, 0], [1/2, 0, 1, 0], [0, 1/2, 0, q]]
    """
    q = _real(q, "q", 0, 1)
    m = _count(m, "m", 1)
    p = 1.0 - q
    a1, b1, a2, b2 = (_real(x, "rho0_elements entry") for x in rho0_elements)
    for _ in range(2 * m):
        a1, b1, a2, b2 = a1 / 2 + p * b2, b1 / 2, a1 / 2 + a2, b1 / 2 + q * b2
    if not math.isfinite(a2):
        raise ValueError("the weights are past the float range")
    return a2


def state_prep_elements(
    state: WalkerState,
    target: np.ndarray,
    complement: np.ndarray,
) -> tuple[float, float, float, float]:
    """Initial-state weights used by state_prep_predicted_pss.

    Order: (node 1/target, node 1/complement, node 2/target,
    node 2/complement); absent blocks contribute zeros.
    """
    blocks = [state.blocks.get(node) for node in (1, 2)]
    return tuple(0.0 if block is None else pure_fidelity(block, basis)
                 for block in blocks for basis in (target, complement))


def transport_predicted_arrival(n_nodes: int, p: float, step: int) -> float:
    """Occupation of the last node of build_transport_chain(n_nodes, p)
    after ``step`` steps from the maximally mixed state at node 1.

    The psi1 half moves one node a step and arrives at step N - 1. The
    psi2 half stays psi2 while it hops forward (weight q = 1 - p a
    step); once converted at rest, it moves on as psi1 one step behind.
    So node N holds 0 before step N - 1, (1 + q^(N-1)) / 2 at step
    N - 1, and 1 from step N on, for any orthonormal psi1, psi2.
    """
    n_nodes = _count(n_nodes, "n_nodes", 2)
    p = _real(p, "p", 0, 1)
    step = _count(step, "step", 0)
    if step < n_nodes - 1:
        return 0.0
    if step == n_nodes - 1:  # q^(N-1) is 0 or 1 long before N leaves the float range
        return (1.0 + (1.0 - p) ** min(n_nodes - 1, 2 ** 1023)) / 2.0
    return 1.0

