"""Open-quantum-walk engine: graph specs, block evolution, steady states.

An open quantum walk lives on a finite directed graph. Each edge
(source -> target) carries a transition operator acting on the walker's
internal d-dimensional Hilbert space, and each node's outgoing family
must satisfy the completeness relation sum_K K^dag K = I so that total
probability is conserved. The walker's state is a collection of
unnormalized positive blocks, one per occupied node; the trace of a
block is the occupation probability of its node.

One step maps the block at node i to

    rho_i'  =  sum over incoming edges (j -> i) of  K_ji rho_j K_ji^dag

which keeps the state block-diagonal in position: position coherences
can never build up, so storage stays at O(V d^2) instead of O((V d)^2).

A WalkSpec is compiled once into edge arrays: ``_src``/``_tgt`` hold the
node positions of every edge, sorted by (target, source) position, and
``_ops`` is the read-only (E, d, d) operator stack, the only copy of the
operators (``transitions`` maps each edge to a view of its row). A
WalkerState has one form, compact rows: a node tuple, the ascending
positions of the occupied nodes in it, one (k, d, d) block stack and
the k traces. A step gathers the blocks of the occupied sources, forms
every K rho K^dag product with stacked matmuls, sums each target's terms
in ascending source order and returns rows over the spec's node tuple.

The dense full-space map (``full_map_step``) implements the same
dynamics on the complete V*d x V*d density matrix and is kept as a
brute-force cross-check of the block evolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from .linalg import DEFAULT_TOL, as_operator, completeness_residual

Node = Hashable

# Blocks with less occupation weight than this are dropped after each
# step; keeps line-walk storage proportional to the reachable window.
PRUNE_TRACE = 1e-15

# Bytes of K rho K^dag products a step forms at once. Each chunk also
# holds the gathered blocks, the adjoint operators and one partial
# product of the same size, so the transient memory of a step stays
# near 4x this whatever d and the edge count are.
_CHUNK_BYTES = 1 << 17


def _as_index(idx: np.ndarray):
    """A run of consecutive indices as a slice (cheaper to apply), else idx."""
    if idx[-1] - idx[0] == idx.size - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _sum_plan(tgt: np.ndarray, dim: int) -> tuple:
    """How step() sums the K rho K^dag terms of a target-sorted edge list.

    Returns (targets, chunks). targets[r] is the target position of
    output row r. Each chunk (e0, e1, parts) covers edges e0..e1-1;
    each part (j, rows, edges) pairs output rows with the chunk-local
    indices of the edges that carry their (j+1)-th term. Parts come in
    ascending j, so each row gets its first term assigned (j = 0) and
    the later ones added in edge order, that is in ascending source
    position.
    """
    # marks each target's first edge, plus one mark past the last edge
    start = np.empty(tgt.size + 1, dtype=bool)
    start[0] = start[-1] = True
    np.not_equal(tgt[1:], tgt[:-1], out=start[1:-1])
    bounds = np.flatnonzero(start)
    first = bounds[:-1]
    counts = bounds[1:] - first
    # level j: the rows with more than j terms, and their (j+1)-th edge
    levels = []
    active = np.arange(first.size)
    while active.size:
        levels.append((active, first[active] + len(levels)))
        active = active[counts[active] > len(levels)]
    per_chunk = max(1, _CHUNK_BYTES // (16 * dim * dim))
    chunks = []
    for e0 in range(0, tgt.size, per_chunk):
        e1 = min(e0 + per_chunk, tgt.size)
        parts = []
        for j, (rows, edges) in enumerate(levels):
            if e1 - e0 < tgt.size:  # several chunks: this chunk's share
                lo, hi = np.searchsorted(edges, (e0, e1))
                rows, edges = rows[lo:hi], edges[lo:hi] - e0
            if rows.size:
                parts.append((j, _as_index(rows), _as_index(edges)))
        chunks.append((e0, e1, parts))
    return tgt[first], chunks


@dataclass(frozen=True)
class WalkSpec:
    """A walk graph with one transition operator per directed edge.

    nodes       ordered node labels (order fixes all summation and
                serialization order; builders list them sorted)
    dim         internal Hilbert-space dimension, shared by all operators
    transitions (source, target) -> dim x dim complex matrix; absent
                edges are implicit zero operators. After construction
                the values are read-only views into the operator stack.
    """

    nodes: tuple
    dim: int
    transitions: dict
    _index: dict = field(init=False, repr=False, compare=False)
    _src: np.ndarray = field(init=False, repr=False, compare=False)
    _tgt: np.ndarray = field(init=False, repr=False, compare=False)
    _ops: np.ndarray = field(init=False, repr=False, compare=False)
    _plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = tuple(self.nodes)
        if not nodes:
            raise ValueError("a walk needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node labels")
        if self.dim < 1:
            raise ValueError("internal dimension must be >= 1")
        index = {n: k for k, n in enumerate(nodes)}
        edges = []
        for (src, tgt), op in self.transitions.items():
            if src not in index or tgt not in index:
                raise ValueError(f"edge ({src!r} -> {tgt!r}) uses unknown nodes")
            m = as_operator(op)
            if m.shape[0] != self.dim:
                raise ValueError(
                    f"operator on edge ({src!r} -> {tgt!r}) has dimension "
                    f"{m.shape[0]}, expected {self.dim}")
            edges.append((index[tgt], index[src], (src, tgt), m))
        # Stack order is (target, source) position, so each target's
        # incoming terms are adjacent and in ascending source order;
        # step() sums them in exactly this order, which keeps results
        # bitwise reproducible. ``transitions`` keeps insertion order.
        edges.sort(key=lambda edge: edge[:2])
        ops = np.empty((len(edges), self.dim, self.dim), dtype=complex)
        for row, edge in enumerate(edges):
            ops[row] = edge[3]
        ops.setflags(write=False)
        views = {edge[2]: ops[row] for row, edge in enumerate(edges)}
        clean = {key: views[key] for key in self.transitions}
        tgt = np.array([edge[0] for edge in edges], dtype=np.intp)
        src = np.array([edge[1] for edge in edges], dtype=np.intp)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "transitions", clean)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_src", src)
        object.__setattr__(self, "_tgt", tgt)
        object.__setattr__(self, "_ops", ops)
        object.__setattr__(self, "_plan", _sum_plan(tgt, self.dim))

    @property
    def node_count(self) -> int:
        return len(self.nodes)


@dataclass
class ValidationReport:
    """Per-node completeness residuals for a WalkSpec."""

    residuals: dict
    tol: float

    @property
    def ok(self) -> bool:
        return all(r <= self.tol for r in self.residuals.values())

    def worst(self) -> float:
        return max(self.residuals.values())

    def __str__(self) -> str:
        lines = [f"completeness tolerance: {self.tol:g}"]
        for node, r in self.residuals.items():
            flag = "ok" if r <= self.tol else "FAIL"
            lines.append(f"  node {node!r}: residual {r:.3e} [{flag}]")
        lines.append("accepted" if self.ok else "rejected")
        return "\n".join(lines)


def validate_walk(spec: WalkSpec, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check the per-node completeness relation sum_K K^dag K = I.

    The sum at each source node runs over its stored outgoing edges, in
    the order of ``spec.transitions``. A node with no outgoing edges has
    residual 1 (the zero map loses all probability).
    """
    families: dict = {n: [] for n in spec.nodes}
    for (src, _tgt), op in spec.transitions.items():
        families[src].append(op)
    residuals = {n: completeness_residual(ops) if ops else 1.0
                 for n, ops in families.items()}
    return ValidationReport(residuals=residuals, tol=tol)


class WalkerState:
    """Unnormalized positive blocks keyed by node; Tr(block) = occupation.

    A state is compact rows: a tuple of node labels, the ascending
    positions of the occupied nodes in it, one read-only (k, d, d) block
    stack and the k traces. A state built from a dict stacks its blocks
    once, in the dict's order, with the dict's keys as its labels;
    step() returns rows over the spec's node tuple. ``blocks`` is built
    on first use and maps each node to a read-only view of its row.
    """

    __slots__ = ("_blocks", "_nodes", "_pos", "_rho", "_tr")

    def __init__(self, blocks: dict):
        mats = [as_operator(m) for m in blocks.values()]
        dims = {m.shape[0] for m in mats}
        if len(dims) > 1:
            raise ValueError(f"blocks have mixed dimensions {sorted(dims)}")
        rho = np.array(mats) if mats else np.empty((0, 0, 0), dtype=complex)
        self._set(tuple(blocks), np.arange(len(mats)), rho,
                  np.trace(rho, axis1=1, axis2=2).real)

    def _set(self, nodes: tuple, pos: np.ndarray, rho: np.ndarray,
             tr: np.ndarray) -> "WalkerState":
        rho.setflags(write=False)
        self._blocks = None
        self._nodes, self._pos, self._rho, self._tr = nodes, pos, rho, tr
        return self

    @classmethod
    def _from_rows(cls, *rows) -> "WalkerState":
        """A state of rows (nodes, ascending positions, block stack, traces)."""
        return cls.__new__(cls)._set(*rows)

    def _labels(self):
        return map(self._nodes.__getitem__, self._pos.tolist())

    def _stack(self, dim: int) -> np.ndarray:
        """The (k, dim, dim) block stack; ValueError for blocks of another size."""
        if self._pos.size and self._rho.shape[1] != dim:
            raise ValueError(
                f"blocks have dimension {self._rho.shape[1]}, expected {dim}")
        return self._rho.reshape(self._pos.size, dim, dim)

    @property
    def blocks(self) -> dict:
        if self._blocks is None:
            self._blocks = dict(zip(self._labels(), self._rho))
        return self._blocks

    def traces(self, nodes: tuple | None = None) -> dict:
        """Node -> Tr(block) as a float.

        With ``nodes`` (a spec's node tuple) only those nodes are
        listed, in that order.
        """
        occ = dict(zip(self._labels(), self._tr.tolist()))
        if nodes is None or nodes is self._nodes:
            return occ
        return {n: occ[n] for n in nodes if n in occ}

    def total_trace(self) -> float:
        return float(sum(self._tr.tolist()))

    def block(self, node: Node) -> np.ndarray | None:
        return self.blocks.get(node)

    def __repr__(self) -> str:
        return f"WalkerState({self.blocks!r})"


def pure_state(node: Node, psi: np.ndarray) -> WalkerState:
    """Walker localized at one node with a pure internal state."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return WalkerState({node: np.outer(psi, psi.conj())})


def mixed_state(node: Node, dim: int) -> WalkerState:
    """Walker localized at one node with the maximally mixed internal state."""
    return WalkerState({node: np.eye(dim, dtype=complex) / dim})


def state_trace_distance(a: WalkerState, b: WalkerState) -> float:
    """Sum of per-node trace distances; missing blocks count as zero.

    Equals the trace distance between the corresponding block-diagonal
    full-space density matrices. The per-node distances are added one by
    one, in spec order when both states came from step() on one spec,
    else over a's nodes and then the nodes only b occupies.
    """
    if a._nodes is b._nodes:
        pa, pb = a._pos, b._pos
    else:
        shared = {n: k for k, n in enumerate(dict.fromkeys(
            [*a._labels(), *b._labels()]))}
        pa = np.arange(a._pos.size)
        pb = np.fromiter(map(shared.__getitem__, b._labels()), dtype=np.intp,
                         count=b._pos.size)
    d = max(a._rho.shape[1], b._rho.shape[1])
    union = np.union1d(pa, pb)
    diff = np.zeros((union.size, d, d), dtype=complex)
    diff[np.searchsorted(union, pa)] = a._stack(d)
    diff[np.searchsorted(union, pb)] -= b._stack(d)
    # eigenvalues of the Hermitian parts; blocks are Hermitian by contract
    herm = (diff + diff.conj().transpose(0, 2, 1)) / 2
    per_node = 0.5 * np.abs(np.linalg.eigvalsh(herm)).sum(axis=1)
    total = 0.0
    for dist in per_node.tolist():
        total += dist
    return total


def _rows(spec: WalkSpec, state: WalkerState) -> tuple[np.ndarray, np.ndarray]:
    """Ascending node positions of the occupied blocks and their (k, d, d) stack.

    Raises ValueError when the state occupies a node the spec lacks or
    holds blocks of the wrong dimension.
    """
    rho = state._stack(spec.dim)
    if state._nodes is spec.nodes:
        return state._pos, rho
    try:
        pos = np.fromiter(map(spec._index.__getitem__, state._labels()),
                          dtype=np.intp, count=state._pos.size)
    except KeyError as exc:
        raise ValueError(f"state occupies unknown node {exc.args[0]!r}") from None
    order = np.argsort(pos, kind="stable")
    return pos[order], rho[order]


def step(spec: WalkSpec, state: WalkerState) -> WalkerState:
    """Advance the walk by one step.

    The block landing on each target node is the sum over its incoming
    edges of K rho K^dag, accumulated in ascending source position:
    the first term is assigned and the others added, so no term is
    ever added onto zeros. Only edges whose source is occupied are
    evaluated. Blocks whose trace falls below PRUNE_TRACE are dropped.
    """
    pos, rho = _rows(spec, state)
    ops, src, plan = spec._ops, spec._src, spec._plan
    if pos.size < spec.node_count:
        # each edge's source as a row of rho (-1: source unoccupied)
        row_of = np.full(spec.node_count, -1, dtype=np.intp)
        row_of[pos] = np.arange(pos.size)
        src = row_of[src]
        used = np.flatnonzero(src >= 0)
        if used.size < src.size:
            ops, src = ops[used], src[used]
            plan = _sum_plan(spec._tgt[used], spec.dim)
    targets, chunks = plan
    acc = np.empty((targets.size, spec.dim, spec.dim), dtype=complex)
    for e0, e1, parts in chunks:
        k = ops[e0:e1]
        terms = k @ rho[src[e0:e1]] @ k.conj().transpose(0, 2, 1)
        for j, rows, edges in parts:
            if j == 0:
                acc[rows] = terms[edges]
            else:
                acc[rows] += terms[edges]
    tr = np.trace(acc, axis1=1, axis2=2).real
    keep = tr > PRUNE_TRACE
    if not keep.all():
        targets, acc, tr = targets[keep], acc[keep], tr[keep]
    return WalkerState._from_rows(spec.nodes, targets, acc, tr)


def run(spec: WalkSpec, initial: WalkerState, n_steps: int,
        record_every: int = 1) -> list[tuple[int, WalkerState]]:
    """Evolve for n_steps, recording (step index, state) snapshots.

    Snapshot 0 is the initial state; afterwards one snapshot is taken
    every record_every steps, and the final state is always included.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    trajectory = [(0, initial)]
    state = initial
    for k in range(1, n_steps + 1):
        state = step(spec, state)
        if k % record_every == 0 or k == n_steps:
            trajectory.append((k, state))
    return trajectory


@dataclass
class SteadyStateResult:
    """Outcome of fixed-point iteration.

    converged is False when max_iter steps never brought two successive
    states within tol of each other; that is a legitimate outcome (a
    translation-invariant line walk has no fixed point), so it is
    reported as a flag rather than raised.
    """

    state: WalkerState
    iterations: int
    converged: bool
    residual: float


def find_steady_state(spec: WalkSpec, initial: WalkerState,
                      tol: float = DEFAULT_TOL,
                      max_iter: int = 10 ** 6) -> SteadyStateResult:
    """Iterate the walk map until two successive states agree within tol.

    Returns the first iterate whose total trace distance to its
    predecessor is <= tol, with the number of steps applied.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    state = initial
    residual = float("inf")
    for n in range(1, max_iter + 1):
        nxt = step(spec, state)
        residual = state_trace_distance(nxt, state)
        if residual <= tol:
            return SteadyStateResult(nxt, n, True, residual)
        state = nxt
    return SteadyStateResult(state, max_iter, False, residual)


# ----------------------------------------------------------------------
# Dense full-space oracle.
#
# The full density matrix lives on (internal) x (position) with the
# internal index as the most significant factor: entry order is
# (a, i), (b, j) -> [a * V + i, b * V + j] for internal a, b and
# position i, j. A block-diagonal state embeds as
# sum_i kron(rho_i, E_ii).
# ----------------------------------------------------------------------

def to_full_density(spec: WalkSpec, state: WalkerState) -> np.ndarray:
    """Embed a block state as a dense V*d x V*d density matrix."""
    pos, rho = _rows(spec, state)
    v = spec.node_count
    d = spec.dim
    full = np.zeros((d * v, d * v), dtype=complex)
    full.reshape(d, v, d, v)[:, pos, :, pos] = rho
    return full


def extract_blocks(spec: WalkSpec, full: np.ndarray) -> tuple[WalkerState, float]:
    """Read the position-diagonal blocks out of a full density matrix.

    Returns the block state and the largest magnitude found in any
    position-off-diagonal block (which the walk map sends to zero in a
    single step).
    """
    v = spec.node_count
    d = spec.dim
    full = as_operator(full)
    if full.shape[0] != d * v:
        raise ValueError(
            f"full matrix has dimension {full.shape[0]}, expected {d * v}")
    view = full.reshape(d, v, d, v)
    rho = np.stack([view[:, i, :, i] for i in range(v)])
    tr = np.trace(rho, axis1=1, axis2=2).real
    keep = np.flatnonzero(tr > PRUNE_TRACE)
    off = np.abs(view).max(axis=(0, 2))
    np.fill_diagonal(off, 0.0)
    state = WalkerState._from_rows(spec.nodes, keep, rho[keep], tr[keep])
    return state, float(off.max())


def full_map_step(spec: WalkSpec, full: np.ndarray) -> np.ndarray:
    """One step of the walk as a dense operator-sum map on V*d x V*d.

    Each edge contributes the Kraus operator kron(K, |target><source|).
    Output is block-diagonal in position for any input. This is the
    O((V d)^2) oracle against which the block evolution is checked.
    """
    v = spec.node_count
    d = spec.dim
    full = as_operator(full)
    if full.shape[0] != d * v:
        raise ValueError(
            f"full matrix has dimension {full.shape[0]}, expected {d * v}")
    idx = spec._index
    out = np.zeros_like(full)
    for (src, tgt), op in spec.transitions.items():
        shift = np.zeros((v, v), dtype=complex)
        shift[idx[tgt], idx[src]] = 1.0
        kraus = np.kron(op, shift)
        out += kraus @ full @ kraus.conj().T
    return out
