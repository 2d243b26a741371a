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
``validate_walk`` at tolerance 1e-12, or raises TypeError or ValueError:
TypeError for a bool, string, complex or array number or a float count,
ValueError for a number out of range or a malformed matrix or ket (each
message starts with the parameter's name) and for other bad input. A
size too large to build (a line window, a chain length) raises
OverflowError or MemoryError instead.
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
    _count,
    _matrix,
    _real,
    _vector,
    as_ket,
    basis_ket,
    kron,
    outer,
)

SCENARIO_NAMES = ("line", "gate", "state_prep", "bell", "transport", "dqc")

# Per-entry deviation from I allowed in U^dag U and U U^dag of a gate, and
# in the Gram matrix of transport's psi1 and psi2. A completeness residual
# is at most about twice that, so every walk built passes at 1e-12.
_INPUT_TOL = 2e-13


def _is_unitary(u: np.ndarray) -> bool:
    """U^dag U and U U^dag within _INPUT_TOL of I, entry by entry."""
    eye, u_dag = np.eye(u.shape[0]), u.conj().T
    return bool(np.abs(u_dag @ u - eye).max() <= _INPUT_TOL
                and np.abs(u @ u_dag - eye).max() <= _INPUT_TOL)


def _chain(mats: list, forward: float, nodes) -> WalkSpec:
    """Register chain: hop k -> k+1 applies sqrt(forward) * mats[k], the
    hop back undoes it with sqrt(1 - forward) * mats[k]^dag, and scaled
    identities keep the leftover weight at both ends."""
    nodes = tuple(nodes)
    back = 1.0 - forward
    eye = np.eye(mats[0].shape[0], dtype=complex)
    transitions = {}
    for k, u in enumerate(mats):
        transitions[(nodes[k], nodes[k + 1])] = math.sqrt(forward) * u
    for k, u in enumerate(mats):
        transitions[(nodes[k + 1], nodes[k])] = math.sqrt(back) * u.conj().T
    transitions[(nodes[0], nodes[0])] = math.sqrt(back) * eye
    transitions[(nodes[-1], nodes[-1])] = math.sqrt(forward) * eye
    return WalkSpec(nodes=nodes, dim=eye.shape[0], transitions=transitions)


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
    window = _count(window, "window", 1)
    right, left = line_hop_operators(_real(theta, "theta"))
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

    The one-gate computation chain on nodes 1 (input) and 2 (result),
    p = 0 and 1 allowed: the forward hop applies sqrt(p) * gate, the
    return hop undoes it with sqrt(q) * gate^dag (q = 1 - p), and the
    stay operators are scaled identities. From an input |psi> at node 1
    the walk settles into

        q |psi><psi| at node 1  +  p U|psi><psi|U^dag at node 2,

    so reading out node 2 yields the gated state with probability p.
    """
    u = _matrix(gate, "gate")
    if not _is_unitary(u):
        raise ValueError("gate must be unitary")
    return _chain([u], _real(p, "p", 0, 1), (1, 2))


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
    p = _real(p, "p", 0, 1, open_interval=True)
    q = 1.0 - p
    target, complement = state_prep_targets(_real(alpha, "alpha"),
                                            _real(beta, "beta"))
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
    # side -> (the opposite side, projector on the parity kept at this side)
    sides = {"L": ("R", (eye - zz) / 2), "R": ("L", (eye + zz) / 2),
             "U": ("D", (eye - xx) / 2), "D": ("U", (eye + xx) / 2)}
    nodes = ("UL", "UR", "DL", "DR")
    transitions = {}
    for node in nodes:
        (v_far, v_keep), (h_far, h_keep) = sides[node[0]], sides[node[1]]
        # stay, then hop along the complement I - P; vertical @ horizontal
        for v, mv in ((node[0], v_keep), (v_far, eye - v_keep)):
            for h, mh in ((node[1], h_keep), (h_far, eye - h_keep)):
                transitions[(node, v + h)] = mv @ mh
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
    must be an orthonormal basis of C^2.

    Returns the spec and the canonical initial state: maximally mixed
    at node 1.
    """
    n_nodes = _count(n_nodes, "n_nodes", 2)
    p = _real(p, "p", 0, 1)
    q = 1.0 - p
    # the hops act on span(psi1, psi2) only: in more dimensions weight leaks
    psi1 = KET_PLUS if psi1 is None else as_ket(_vector(psi1, "psi1", 2))
    psi2 = KET_MINUS if psi2 is None else as_ket(_vector(psi2, "psi2", 2))
    kets = np.array([psi1, psi2])
    if not np.abs(kets.conj() @ kets.T - np.eye(2)).max() <= _INPUT_TOL:
        raise ValueError("psi1 and psi2 must be orthonormal")
    # built before the edges, so a count too large to build fails at once
    # with MemoryError or OverflowError instead of filling memory
    nodes = tuple(range(1, n_nodes + 1))
    forward = math.sqrt(q) * outer(psi2) + outer(psi1)
    convert = math.sqrt(p) * outer(psi1, psi2)
    transitions = {}
    for site in range(1, n_nodes):
        transitions[(site, site + 1)] = forward
        transitions[(site, site)] = convert
    transitions[(n_nodes, n_nodes)] = np.eye(2, dtype=complex)
    spec = WalkSpec(nodes=nodes, dim=2, transitions=transitions)
    return spec, mixed_state(1, 2)


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
    mats, d = [], None  # d: the first unitary's dimension
    for k, u in enumerate(unitaries):
        u = _matrix(u, f"unitaries[{k}]", d)
        if not _is_unitary(u):
            raise ValueError(f"operator {k + 1} is not unitary")
        mats.append(u)
        d = u.shape[0]
    if not mats:
        raise ValueError("need at least one unitary (T >= 1)")
    omega = _real(omega, "omega", 0, 1, open_interval=True)
    psi0 = basis_ket(d, 0) if psi0 is None else as_ket(_vector(psi0, "psi0", d))
    return _chain(mats, omega, range(len(mats) + 1)), pure_state(0, psi0)

