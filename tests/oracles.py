"""Independent brute-force oracles and random-input generators.

Nothing here reuses the block-evolution engine: the path enumeration
multiplies operator sequences directly, the binomial oracle is plain
combinatorics, and the gauge only rewrites a spec's operators. Tests
compare engine output against these.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (Hermitian, PSD, unit trace)."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR with phase correction."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_kraus_family(dim: int, count: int,
                        rng: np.random.Generator) -> list[np.ndarray]:
    """count operators satisfying sum K^dag K = I exactly (QR isometry)."""
    m = rng.normal(size=(count * dim, dim)) + 1j * rng.normal(size=(count * dim, dim))
    q, _ = np.linalg.qr(m)
    return [q[k * dim:(k + 1) * dim] for k in range(count)]


def random_block_state(nodes, dim: int, rng: np.random.Generator,
                       occupied: int | None = None) -> dict:
    """Random positive blocks with unit total trace on a subset of nodes."""
    nodes = list(nodes)
    if occupied is None:
        occupied = len(nodes)
    chosen = list(rng.choice(len(nodes), size=occupied, replace=False))
    weights = rng.random(occupied)
    weights /= weights.sum()
    return {nodes[i]: w * random_density(dim, rng)
            for i, w in zip(chosen, weights)}


def reference_step(spec, blocks: dict, prune: float) -> dict:
    """One walk step by the plain per-node loop; node -> block in node order.

    For each target in node order, sums K rho K^dag over its incoming
    edges in ascending source position (the first term assigned, the
    rest added) and drops sums whose trace is not above prune. Reads
    only ``spec.nodes`` and ``spec.transitions``.
    """
    order = {n: k for k, n in enumerate(spec.nodes)}
    incoming = {n: [] for n in spec.nodes}
    for (src, tgt), op in spec.transitions.items():
        incoming[tgt].append((src, op))
    out = {}
    for target in spec.nodes:
        acc = None
        for source, op in sorted(incoming[target], key=lambda pair: order[pair[0]]):
            rho = blocks.get(source)
            if rho is None:
                continue
            term = op @ rho @ op.conj().T
            acc = term if acc is None else acc + term
        if acc is not None and float(np.trace(acc).real) > prune:
            out[target] = acc
    return out


def gauge(spec, unitaries: dict):
    """The walk with the operator K on each edge s -> t replaced by
    U_t K U_s^dag, where unitaries maps each node v to its unitary U_v.

    Completeness holds again, and every block of the gauged walk evolves
    as U_v rho_v U_v^dag of the original's, exactly, for any graph, d and
    step count. Reads only ``spec.nodes``, ``spec.dim`` and
    ``spec.transitions``, and builds the gauged walk with the spec's own
    public constructor.
    """
    return type(spec)(spec.nodes, spec.dim, {
        (s, t): unitaries[t] @ op @ unitaries[s].conj().T
        for (s, t), op in spec.transitions.items()})


def enumerate_hop_paths(rho0: np.ndarray, right: np.ndarray,
                        left: np.ndarray, n_steps: int) -> dict[int, np.ndarray]:
    """Walk on the integers by explicit enumeration of operator sequences.

    Sums K_n ... K_1 rho K_1^dag ... K_n^dag over all 2^n right/left
    choices, bucketed by the net displacement. Exponential cost; use
    for small n only.
    """
    dim = rho0.shape[0]
    out: dict[int, np.ndarray] = {}
    for seq in product((+1, -1), repeat=n_steps):
        m = rho0
        pos = 0
        for hop in seq:
            op = right if hop == +1 else left
            m = op @ m @ op.conj().T
            pos += hop
        if pos in out:
            out[pos] = out[pos] + m
        else:
            out[pos] = m
    return {pos: m for pos, m in out.items()}


def momentum_blocks(right: np.ndarray, left: np.ndarray, rho0: np.ndarray,
                    window: int, n: int) -> np.ndarray:
    """Blocks after n steps of the walk on the ring of sites -window..window
    (M = 2 window + 1) that hops one site right by ``right`` and one left
    by ``left``, from rho0 at site 0: an (M, d, d) array in site order.

    The Fourier modes phi_n(k) = sum_i w^(k i) rho_n(i), w = exp(-2 pi i / M),
    obey phi_{n+1}(k) = w^k B phi_n(k) B^dag + w^(-k) C phi_n(k) C^dag
    exactly, wrap-around included; np.fft.ifft over k returns every
    block. Keeps the blocks that the engine's prune drops.
    """
    m = 2 * window + 1
    k = np.arange(m)[:, None, None]
    w = np.exp(-2j * np.pi * k / m)
    phi = np.exp(-2j * np.pi * k * window / m) * rho0  # site 0 is index window
    right_dag, left_dag = right.conj().T, left.conj().T
    for _ in range(n):
        phi = w * (right @ phi @ right_dag) + w.conj() * (left @ phi @ left_dag)
    return np.fft.ifft(phi, axis=0)


def biased_coin_distribution(n_steps: int, p_right: float) -> dict[int, float]:
    """Binomial distribution of net displacement after n biased coin flips."""
    out = {}
    for k in range(n_steps + 1):
        pos = 2 * k - n_steps
        out[pos] = math.comb(n_steps, k) * p_right ** k * (1 - p_right) ** (n_steps - k)
    return out
