"""Builders for the standard open-quantum-walk constructions.

Six walks are provided:

* a translation-invariant walk on a line window with one deterministic
  right-moving internal sector and one diffusive sector,
* a two-node walk that applies a unitary gate dissipatively,
* a two-node walk that prepares an arbitrary single-qubit pure state,
* a four-node walk that sorts two qubits into the four Bell states,
* a chain that transports an excitation at speed one,
* a chain of time registers realizing dissipative computation with a
  tunable forward bias.

Every builder returns a spec whose per-node operator families satisfy
the completeness relation exactly (up to float rounding), so they pass
``validate_walk`` at tolerance 1e-12.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import WalkSpec, WalkerState, mixed_state, pure_state
from .linalg import (
    BELL_PHI_MINUS,
    BELL_PHI_PLUS,
    BELL_PSI_MINUS,
    BELL_PSI_PLUS,
    KET_MINUS,
    KET_PLUS,
    PAULI_X,
    PAULI_Z,
    as_ket,
    as_operator,
    is_unitary,
    kron,
    outer,
)

SCENARIO_NAMES = ("line", "gate", "state_prep", "bell", "transport", "dqc")


def _check_probability(p: float, name: str = "p",
                       open_interval: bool = False) -> float:
    p = float(p)
    lo, hi = (0.0, 1.0)
    bad = not (lo < p < hi) if open_interval else not (lo <= p <= hi)
    if bad or not math.isfinite(p):
        kind = "(0, 1)" if open_interval else "[0, 1]"
        raise ValueError(f"{name} must lie in {kind}, got {p}")
    return p


def line_hop_operators(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Right- and left-hop operators for the line walk.

    The right hop keeps |+> with amplitude 1 and |-> with amplitude
    sin(theta); the left hop carries only the |-> component with
    amplitude cos(theta). The pair satisfies completeness exactly.
    """
    right = math.sin(theta) * outer(KET_MINUS) + outer(KET_PLUS)
    left = math.cos(theta) * outer(KET_MINUS)
    return right, left


def build_line_walk(theta: float, window: int) -> tuple[WalkSpec, WalkerState]:
    """Translation-invariant walk on the integer sites -window..window.

    The window is closed into a ring (site +window hops right onto
    -window and vice versa) so that completeness holds at every node.
    A walker started at site 0 cannot feel the closure for the first
    ``window`` steps, so runs with n_steps <= window reproduce the
    infinite-line dynamics exactly.

    Returns the spec and the canonical initial state: maximally mixed
    internal state at site 0.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    right, left = line_hop_operators(theta)
    sites = list(range(-window, window + 1))
    n = len(sites)
    transitions = {}
    for k, site in enumerate(sites):
        transitions[(site, sites[(k + 1) % n])] = right
        transitions[(site, sites[(k - 1) % n])] = left
    spec = WalkSpec(nodes=tuple(sites), dim=2, transitions=transitions)
    return spec, mixed_state(0, 2)


def build_gate_walk(gate: np.ndarray, p: float) -> WalkSpec:
    """Two-node walk that applies a unitary gate with probability p.

    Node 1 holds the input; node 2 holds the result. The forward hop
    applies sqrt(p) * gate, the return hop undoes it with
    sqrt(q) * gate^dag (q = 1 - p), and the stay operators are scaled
    identities. From an input |psi> at node 1 the walk settles into

        q |psi><psi| at node 1  +  p U|psi><psi|U^dag at node 2,

    so reading out node 2 yields the gated state with probability p.
    """
    u = as_operator(gate)
    if not is_unitary(u):
        raise ValueError("gate must be unitary")
    p = _check_probability(p)
    q = 1.0 - p
    d = u.shape[0]
    eye = np.eye(d, dtype=complex)
    transitions = {
        (1, 2): math.sqrt(p) * u,
        (1, 1): math.sqrt(q) * eye,
        (2, 1): math.sqrt(q) * u.conj().T,
        (2, 2): math.sqrt(p) * eye,
    }
    return WalkSpec(nodes=(1, 2), dim=d, transitions=transitions)


def state_prep_targets(alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal pair (target, complement) for state preparation.

    target     = (cos a, sin a e^{-i b})
    complement = (-sin a, cos a e^{-i b})
    """
    phase = np.exp(-1j * beta)
    target = np.array([math.cos(alpha), math.sin(alpha) * phase], dtype=complex)
    complement = np.array([-math.sin(alpha), math.cos(alpha) * phase], dtype=complex)
    return target, complement


def build_state_prep(alpha: float, beta: float, p: float) -> WalkSpec:
    """Two-node walk that drives any input into a chosen pure state.

    Node 1 splits its weight evenly between staying and hopping. Node 2
    leaks the complement amplitude back to node 1 (converted to the
    target) while the stay operator damps the complement by sqrt(q) and
    keeps the target intact. The unique fixed point is the target state
    sitting at node 2.
    """
    p = _check_probability(p, open_interval=True)
    q = 1.0 - p
    target, complement = state_prep_targets(alpha, beta)
    half = np.eye(2, dtype=complex) / math.sqrt(2)
    transitions = {
        (1, 2): half,
        (1, 1): half,
        (2, 1): math.sqrt(p) * outer(target, complement),
        (2, 2): math.sqrt(q) * outer(complement) + outer(target),
    }
    return WalkSpec(nodes=(1, 2), dim=2, transitions=transitions)


# Node -> Bell state reached there, fixed by the parity sorting:
# left/right sorts the ZZ parity (odd stays left), up/down sorts the
# XX parity (odd stays up).
BELL_NODE_STATES = {
    "UL": BELL_PSI_MINUS,
    "UR": BELL_PHI_MINUS,
    "DL": BELL_PSI_PLUS,
    "DR": BELL_PHI_PLUS,
}


def build_bell_grid() -> WalkSpec:
    """Four-node walk sorting two qubits into the four Bell states.

    The grid is a product of two independent two-node walks. The
    horizontal walk projects on the ZZ parity: odd parity stays at L,
    even parity hops to R (mirrored at R). The vertical walk does the
    same with the XX parity between U and D. Each composite edge
    operator is the product of the two commuting projectors, so the
    four outgoing operators at every node form a complete family.
    Measuring the final position identifies the Bell state.
    """
    zz = kron(PAULI_Z, PAULI_Z)
    xx = kron(PAULI_X, PAULI_X)
    eye = np.eye(4, dtype=complex)
    z_odd = (eye - zz) / 2   # stays on the L side
    z_even = (eye + zz) / 2  # stays on the R side
    x_odd = (eye - xx) / 2   # stays on the U side
    x_even = (eye + xx) / 2  # stays on the D side

    def stay_h(side):
        return z_odd if side == "L" else z_even

    def stay_v(side):
        return x_odd if side == "U" else x_even

    def flip_h(side):
        return "R" if side == "L" else "L"

    def flip_v(side):
        return "D" if side == "U" else "U"

    nodes = ("UL", "UR", "DL", "DR")
    transitions = {}
    for node in nodes:
        v, h = node[0], node[1]
        hop_h = eye - stay_h(h)   # complement projector: hops horizontally
        hop_v = eye - stay_v(v)
        transitions[(node, node)] = stay_v(v) @ stay_h(h)
        transitions[(node, v + flip_h(h))] = stay_v(v) @ hop_h
        transitions[(node, flip_v(v) + h)] = hop_v @ stay_h(h)
        transitions[(node, flip_v(v) + flip_h(h))] = hop_v @ hop_h
    return WalkSpec(nodes=nodes, dim=4, transitions=transitions)


def build_transport_chain(
    n_nodes: int,
    p: float,
    psi1: np.ndarray | None = None,
    psi2: np.ndarray | None = None,
) -> tuple[WalkSpec, WalkerState]:
    """Chain of nodes 1..N transporting an excitation to the last node.

    At nodes 1..N-1 the forward hop keeps psi1 with amplitude 1 and
    psi2 with amplitude sqrt(q), while the stay operator converts psi2
    into psi1 with amplitude sqrt(p); psi1 therefore travels at speed
    one. Node N is absorbing (identity self-loop). The kets psi1, psi2
    must be orthonormal.

    Returns the spec and the canonical initial state: maximally mixed
    at node 1.
    """
    if n_nodes < 2:
        raise ValueError("the chain needs at least 2 nodes")
    p = _check_probability(p)
    q = 1.0 - p
    psi1 = KET_PLUS if psi1 is None else as_ket(psi1)
    psi2 = KET_MINUS if psi2 is None else as_ket(psi2)
    if psi1.size != psi2.size:
        raise ValueError("psi1 and psi2 must share one dimension")
    if abs(np.vdot(psi1, psi2)) > 1e-10:
        raise ValueError("psi1 and psi2 must be orthogonal")
    d = psi1.size
    # built before the edges, so a count too large to build fails at once
    # with MemoryError or OverflowError instead of filling memory
    nodes = tuple(range(1, n_nodes + 1))
    forward = math.sqrt(q) * outer(psi2) + outer(psi1)
    convert = math.sqrt(p) * outer(psi1, psi2)
    transitions = {}
    for site in range(1, n_nodes):
        transitions[(site, site + 1)] = forward
        transitions[(site, site)] = convert
    transitions[(n_nodes, n_nodes)] = np.eye(d, dtype=complex)
    spec = WalkSpec(nodes=nodes, dim=d, transitions=transitions)
    return spec, mixed_state(1, d)


def build_dqc_chain(
    unitaries: Sequence[np.ndarray],
    omega: float,
    psi0: np.ndarray | None = None,
) -> tuple[WalkSpec, WalkerState]:
    """Chain of time registers 0..T running a dissipative computation.

    Register t hops forward applying sqrt(omega) * U_{t+1} and backward
    undoing the last gate with sqrt(lambda) * U_t^dag, lambda = 1 - omega.
    The boundary registers keep the leftover weight with scaled
    identity self-loops. Completeness holds at every register because
    omega U^dag U + lambda U U^dag = I for unitary U.

    The stationary occupation of register t is proportional to
    (omega/lambda)^t, so biasing omega above 1/2 concentrates the
    result in the last register; the internal state there is the full
    gate sequence applied to psi0.

    Returns the spec and the initial state |psi0><psi0| at register 0
    (psi0 defaults to the first basis vector).
    """
    mats = [as_operator(u) for u in unitaries]
    if not mats:
        raise ValueError("need at least one unitary (T >= 1)")
    d = mats[0].shape[0]
    for k, u in enumerate(mats):
        if u.shape[0] != d:
            raise ValueError("unitaries must share one dimension")
        if not is_unitary(u):
            raise ValueError(f"operator {k + 1} is not unitary")
    omega = _check_probability(omega, "omega", open_interval=True)
    lam = 1.0 - omega
    t_final = len(mats)
    eye = np.eye(d, dtype=complex)
    transitions = {}
    for t in range(t_final):
        transitions[(t, t + 1)] = math.sqrt(omega) * mats[t]
    for t in range(1, t_final + 1):
        transitions[(t, t - 1)] = math.sqrt(lam) * mats[t - 1].conj().T
    transitions[(0, 0)] = math.sqrt(lam) * eye
    transitions[(t_final, t_final)] = math.sqrt(omega) * eye
    spec = WalkSpec(nodes=tuple(range(t_final + 1)), dim=d,
                    transitions=transitions)
    if psi0 is None:
        psi0 = np.zeros(d, dtype=complex)
        psi0[0] = 1.0
    else:
        psi0 = as_ket(psi0)
        if psi0.size != d:
            raise ValueError("psi0 dimension does not match the unitaries")
    return spec, pure_state(0, psi0)
