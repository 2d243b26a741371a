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

A WalkSpec is compiled once into edge arrays: ``_src`` holds each
edge's source position, ``_out`` its target's row in ``_targets``,
``_run`` its row's run of bytewise-equal operators along the stack,
``_slot`` its index among its source's out-edges, and ``_ops`` is the
read-only (E, d, d) operator stack (``transitions`` maps each edge to a
view of its row), which ``validate_walk`` also reads, forming K^dag K
once per ``_run``. Each distinct operator object is converted once. Level j
of the stack, one run of it, holds each target's j-th incoming edge by
source position. ``_fan``, built at the first step, is a second, read-only
copy of the operators: row block s of its (V, D*d, d) array stacks node
s's out-operators [K_1; ...; K_D] by slot, zero rows padding nodes of
smaller out-degree.
A WalkerState has one form, compact rows: a node tuple, the ascending
positions of the occupied nodes in it, one (k, d, d) block stack and
the k traces. A step's plan (``_plan``) holds what depends only on
which nodes are occupied; steps with every node occupied reuse the
spec's ``_full_plan``. The executor forms the K rho K^dag products with
matmuls, adds the levels in order onto a -0.0 seed and returns rows
over the spec's node tuple. A step whose products fit one chunk forms K
rho as one [K_1; ...; K_D] rho per occupied source; larger steps form
it one matrix per edge. A level slice whose edges share one operator
(every site of a translation-invariant walk) forms its (K rho_j) K^dag
as one tall product [K rho_1; ...; K rho_n] @ K^dag. Both tall products
see the same shared operand as the per-matrix products, only more rows
of the other one, and BLAS gives them the same bits (tests/test_core.py
checks both premises by name). The other grouping, K [rho_1 ... rho_n],
changes bits and is not used.
``iter_run`` yields a run's snapshots as it makes them, holding one
state; ``run`` lists them.

``find_steady_state`` is power iteration of ``step``. Half the summed
differences of the stored per-node traces, less a rounding slack, bound
the trace distance of the last two states from below, so the per-node
differences and their eigenvalues are computed only once that bound no
longer rules convergence out.

The dense full-space map (``full_map_step``) implements the same
dynamics on the complete V*d x V*d density matrix and is kept as a
brute-force cross-check of the block evolution.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterator

import numpy as np

from .linalg import (DEFAULT_TOL, _count, _matrix, _real, as_ket,
                     half_trace_norms, outer, sum_left_to_right)

Node = Hashable

# Blocks with less occupation weight than this are dropped after each
# step; keeps line-walk storage proportional to the reachable window.
PRUNE_TRACE = 1e-15

# Bytes of K rho K^dag products a step forms at once. Each chunk also
# holds the gathered blocks and one partial product of the same size,
# so its transient memory stays near 3x this whatever d and the edge
# count are; a plan adds at most one conjugate copy of its operators. A
# step whose occupied sources' fan rows (k * D * d^2 entries) fit one
# chunk forms K rho per source, from that one chunk-sized product;
# ``_fan`` is compiled only when its zero padding also fits one chunk,
# so a node of far larger out-degree than the rest does not cost
# O(V * D) stored operators.
_CHUNK_BYTES = 1 << 17

# Iteration cap of find_steady_state (and of ``oqw steady``).
DEFAULT_MAX_ITER = 10 ** 6

# find_steady_state skips the exact residual while the trace bound
# (_trace_bound) exceeds tol * (1 + _BOUND_MARGIN). On the dqc chain's
# rank-one block differences the bound and the exact sum agree to
# rounding, so a skip must never rest on a gap of rounding size. The
# bound's slack (below) covers the absolute rounding of the stored
# traces; this margin covers the relative errors of the exact side,
# eigvalsh's (of order d * eps * |H_i|) and those of summing the
# per-node terms. A correctness constant, not a knob.
_BOUND_MARGIN = 1e-9

# Rounding slack of the trace bound, in units of d * eps * (sum tr a +
# sum tr b). For positive blocks a_i, b_i the stored trace difference
# tr a_i - tr b_i (each trace a sum of d diagonal entries) differs from
# the trace of the computed Hermitian difference H_i by at most about
# (d + 1) * eps * (tr a_i + tr b_i), and half the trace norm of H_i,
# half the sum of |lambda(H_i)|, is at least half |tr H_i|. So half the
# summed |tr a_i - tr b_i|, less (d + 1) / 2 * eps * (sum tr a + sum tr
# b), bounds the exact sum from below; 8 * d covers (d + 1) / 2 with a
# wide margin. A relative margin alone cannot: near convergence
# tr a_i - tr b_i cancels, so its rounding error is absolute (~1e-16 for
# unit trace), while tol * _BOUND_MARGIN is ~1e-19 at tol = 1e-10. A
# correctness constant, not a knob.
_TRACE_SLACK = 8
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class WalkSpec:
    """A walk graph with one transition operator per directed edge.

    nodes       ordered node labels (order fixes all summation and
                serialization order; builders list them sorted)
    dim         internal Hilbert-space dimension, shared by all operators
    transitions (source, target) -> dim x dim complex matrix; absent
                edges are implicit zero operators. After construction
                the values are read-only views into the operator stack.

    Specs compare and hash by identity.
    """

    nodes: tuple
    dim: int
    transitions: dict

    def __post_init__(self):
        nodes = tuple(self.nodes)
        if not nodes:
            raise ValueError("a walk needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node labels")
        object.__setattr__(self, "dim", d := _count(self.dim, "dim", 1))
        index = {n: k for k, n in enumerate(nodes)}
        edges, given = list(self.transitions), list(self.transitions.values())
        # each distinct operator object, by first use, converted once
        distinct = dict(zip(ids := list(map(id, given)), given))
        try:  # KeyError: an unknown node; TypeError, ValueError: a bad key or operator
            src = np.array([index[s] for s, _ in edges], dtype=np.intp)
            tgt = np.array([index[t] for _, t in edges], dtype=np.intp)
            mats = [_matrix(op, "operator", d) for op in distinct.values()]
        except (KeyError, TypeError, ValueError):
            mats = None
        if mats is None:
            for (s, t), op in self.transitions.items():  # raise the first bad edge's error
                if s not in index or t not in index:
                    raise ValueError(f"edge ({s!r} -> {t!r}) uses unknown nodes")
                _matrix(op, f"operator on edge ({s!r} -> {t!r})", d)
        # Stack order is (rank, target position), an edge's rank its index
        # among its target's incoming edges by source position: level j is
        # one run of the stack with distinct targets, and step() adds each
        # target's terms in ascending source order, bitwise reproducibly.
        by_target = np.lexsort((src, tgt))
        ts = tgt[by_target]
        rank = np.arange(ts.size) - np.searchsorted(ts, ts)
        order = by_target[np.lexsort((ts, rank))]
        # the one (E, d, d) stack in stack order; shared operators stacked once
        if len(mats) < len(ids):
            number = dict(zip(distinct, range(len(mats)))).__getitem__
            ops = np.array(mats).take(np.fromiter(map(number, ids), np.intp, len(ids))[order], 0)
        else:  # an object per edge
            ops = np.array([mats[k] for k in order.tolist()] or np.empty((0, d, d), complex))
        ops.setflags(write=False)
        views = dict.fromkeys(self.transitions)  # insertion order; values: row views
        views.update(zip(map(edges.__getitem__, order.tolist()), ops))
        # each row's run of equal operators along the stack, compared by
        # bytes so that -0.0 and 0.0 are different operators
        bits = ops.view(np.uint64)
        starts = np.ones(len(ids), dtype=bool)
        starts[1:] = (bits[1:] != bits[:-1]).any(axis=(1, 2))
        # where each level starts, then the edge count; the reached
        # targets are the output rows of a step with every node occupied
        levels = np.concatenate(([0], np.cumsum(np.bincount(rank))))
        targets = ts[rank == 0]
        # each row's slot among its source's out-edges, in stack order
        src = src[order]
        by_src = np.argsort(src, kind="stable")
        ss = src[by_src]
        slot = np.empty_like(by_src)
        slot[by_src] = np.arange(ss.size) - np.searchsorted(ss, ss)
        for name, value in (
                ("nodes", nodes), ("transitions", views), ("_index", index),
                ("_src", src), ("_ops", ops), ("_levels", levels),
                ("_run", np.cumsum(starts) - 1), ("_slot", slot),
                ("_targets", targets), ("_out", np.searchsorted(targets, tgt[order]))):
            object.__setattr__(self, name, value)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @cached_property
    def _fan(self) -> np.ndarray | None:
        """Read-only (V, D*d, d) stack whose row block s holds node s's
        out-operators by slot, zero rows padding nodes of smaller
        out-degree; None when that padding would exceed one chunk.

        Built on the first step that reads it, so validating a spec
        does not pay for it.
        """
        v, d = self.node_count, self.dim
        width = int(self._slot.max(initial=-1)) + 1
        if (v * width - self._slot.size) * 16 * d ** 2 > _CHUNK_BYTES:
            return None
        fan = np.zeros((v, width, d, d), dtype=complex)
        fan[self._src, self._slot] = self._ops
        fan = fan.reshape(v, width * d, d)
        fan.setflags(write=False)
        return fan

    @cached_property
    def _full_plan(self) -> tuple:
        """Read-only ``_plan`` of a step with every node occupied, built once."""
        plan = _plan(self, np.arange(self.node_count))
        parts = [plan]
        while parts:  # every array the nested tuples and lists hold
            part = parts.pop()
            if isinstance(part, np.ndarray):
                part.setflags(write=False)
            elif isinstance(part, (tuple, list)):
                parts.extend(part)
        return plan


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

    Each node adds its edges' K^dag K onto a zero sum in stack order (by
    rank, then target position); its residual is the largest entry of
    |sum - I|, so a node with no outgoing edges has residual 1 (the zero
    map loses all probability). K^dag K is formed once per ``_run``.
    """
    tol = _real(tol, "tol", 0, open_interval=True)
    order = np.argsort(spec._slot, kind="stable")  # level j: each source's j-th edge
    heads = spec._ops[np.flatnonzero(np.diff(spec._run, prepend=-1))]  # each run's first row
    terms = (heads.conj().transpose(0, 2, 1) @ heads).take(spec._run[order], 0)
    src = spec._src[order]
    sums = np.zeros((spec.node_count, spec.dim, spec.dim), dtype=complex)
    # one indexed add per level: a level's sources are distinct
    bounds = np.cumsum(np.bincount(spec._slot)).tolist()
    for lo, hi in zip([0, *bounds], bounds):
        sums[src[lo:hi]] += terms[lo:hi]
    residuals = np.abs(sums - np.eye(spec.dim)).max(axis=(1, 2))
    return ValidationReport(dict(zip(spec.nodes, residuals.tolist())), tol)


class WalkerState:
    """Unnormalized positive blocks keyed by node; Tr(block) = occupation.

    A state is compact rows: a tuple of node labels, the ascending
    positions of the occupied nodes in it, one read-only (k, d, d) block
    stack and the k traces. A state built from a dict stacks its blocks
    once, in the dict's order, with the dict's keys as its labels;
    step() returns rows over the spec's node tuple. ``blocks`` maps each
    node to a read-only view of its row, in a new dict on each access.
    """

    __slots__ = ("_nodes", "_pos", "_rho", "_tr")

    def __init__(self, blocks: dict):
        if not isinstance(blocks, Mapping):
            raise TypeError(f"blocks must be a mapping, got {type(blocks).__name__}")
        mats = [_matrix(m, f"block at node {n!r}") for n, m in blocks.items()]
        dims = {m.shape[0] for m in mats}
        if len(dims) > 1:
            raise ValueError(f"blocks have mixed dimensions {sorted(dims)}")
        rho = np.array(mats) if mats else np.empty((0, 0, 0), dtype=complex)
        self._set(tuple(blocks), np.arange(len(mats)), rho,
                  np.trace(rho, axis1=1, axis2=2).real)

    def _set(self, nodes: tuple, pos: np.ndarray, rho: np.ndarray,
             tr: np.ndarray) -> "WalkerState":
        rho.setflags(write=False)
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
        """A new dict on each access: node -> read-only view of its row."""
        return dict(zip(self._labels(), self._rho))

    def traces(self, nodes: tuple | None = None) -> dict:
        """Node -> Tr(block) as a float.

        With ``nodes`` (a spec's node tuple) only those nodes are
        listed, in that order.
        """
        nodes = self._nodes if nodes is None else nodes
        pos, tr = self.trace_rows(nodes)
        return dict(zip(map(nodes.__getitem__, pos), tr))

    def trace_rows(self, nodes: tuple) -> tuple[list, list]:
        """(positions, traces) of traces(nodes): ascending positions in nodes."""
        if nodes is self._nodes:
            return self._pos.tolist(), self._tr.tolist()
        occ = dict(zip(self._labels(), self._tr.tolist()))
        pos = [k for k, n in enumerate(nodes) if n in occ]
        return pos, [occ[nodes[k]] for k in pos]

    def total_trace(self) -> float:
        # builtin sum(): it feeds only _trace_bound's slack, twice per steady iteration
        return float(sum(self._tr.tolist()))

    def __repr__(self) -> str:
        return f"WalkerState({self.blocks!r})"


def pure_state(node: Node, psi: np.ndarray) -> WalkerState:
    """Walker at one node in the pure state psi: finite, then unit to 1e-12."""
    state = WalkerState({node: outer(psi)})
    as_ket(psi)
    return state


def mixed_state(node: Node, dim: int) -> WalkerState:
    """Walker localized at one node with the maximally mixed internal state."""
    dim = _count(dim, "dim", 1)
    return WalkerState({node: np.eye(dim, dtype=complex) / dim})


def _difference(a: WalkerState, b: WalkerState, x: np.ndarray,
                y: np.ndarray) -> np.ndarray:
    """x - y, with a row of x per node a occupies and one of y per node b
    occupies, a missing row counting as zero, in position order over one
    node tuple (successive steps), else a's nodes then those only b
    occupies. Equal positions subtract directly: the zero-fill bits."""
    pa, pb = a._pos, b._pos
    if a._nodes is not b._nodes:
        shared = {n: k for k, n in enumerate(dict.fromkeys(
            [*a._labels(), *b._labels()]))}
        pa, pb = np.arange(pa.size), np.fromiter(
            map(shared.__getitem__, b._labels()), dtype=np.intp, count=pb.size)
    if pa is pb or np.array_equal(pa, pb):
        return x - y
    union = np.union1d(pa, pb)
    diff = np.zeros((union.size, *x.shape[1:]), dtype=x.dtype)
    diff[np.searchsorted(union, pa)] = x
    diff[np.searchsorted(union, pb)] -= y
    return diff


def _trace_bound(a: WalkerState, b: WalkerState, dim: int) -> float:
    """A lower bound on state_trace_distance(a, b) from the stored traces.

    Half the summed |tr a_i - tr b_i| over the nodes either state
    occupies, less the rounding slack _TRACE_SLACK * dim * eps *
    (sum tr a + sum tr b); holds for positive blocks of dimension dim.
    """
    gap = _difference(a, b, a._tr, b._tr)
    slack = _TRACE_SLACK * dim * _EPS * (a.total_trace() + b.total_trace())
    return 0.5 * float(np.abs(gap).sum()) - slack


def state_trace_distance(a: WalkerState, b: WalkerState) -> float:
    """Sum of per-node trace distances; missing blocks count as zero.

    Equals the trace distance between the corresponding block-diagonal
    full-space density matrices. The per-node distances are added one by
    one, in spec order when both states came from step() on one spec,
    else over a's nodes and then the nodes only b occupies.
    """
    d = max(a._rho.shape[1], b._rho.shape[1])
    diff = _difference(a, b, a._stack(d), b._stack(d))
    return sum_left_to_right(half_trace_norms(diff).tolist())


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


def _plan(spec: WalkSpec, pos: np.ndarray) -> tuple:
    """(reached targets, fans, chunks) of a step from occupied positions pos.
    fans: the occupied sources' fan rows, or None past one chunk. Per chunk of
    used edges: K if the chunk reads it, the K^dag stack if a slice needs it,
    the K rho gather index and, per level slice, (lo, hi) in the chunk, output
    rows, shared K^dag or None."""
    ops, src, levels, run = spec._ops, spec._src, spec._levels, spec._run
    slot, fan, targets, out = spec._slot, spec._fan, spec._targets, spec._out
    d = spec.dim
    per_chunk = max(1, _CHUNK_BYTES // (16 * d ** 2))
    # the occupied sources' rows of the fan fit one chunk, so the used
    # edges do too
    fanned = fan is not None and pos.size * fan.shape[1] <= per_chunk * d
    fans = (fan if pos.size == spec.node_count else fan.take(pos, 0)) if fanned else None
    used = None  # each used edge's row of ops, on a partial step
    if pos.size < spec.node_count:
        # each edge's source as a row of rho (-1: source unoccupied)
        row_of = np.full(spec.node_count, -1, dtype=np.intp)
        row_of[pos] = np.arange(pos.size)
        src = row_of[src]
        used = np.flatnonzero(src >= 0)
        if used.size < src.size:
            src, slot, run, out = src[used], slot[used], run[used], out[used]
            levels = np.searchsorted(used, levels)
            # the reached targets, and each used edge's row among them
            reached = np.zeros(targets.size, dtype=bool)
            reached[out] = True
            reached = np.flatnonzero(reached)
            row_of[reached] = np.arange(reached.size)  # src is read: reuse row_of
            targets, out = targets[reached], row_of[out]
    if fanned:
        # the one chunk: each source's [K_1; ...; K_D] rho, and each
        # edge's K rho at its source's row times D plus its slot
        src = src * (fan.shape[1] // d) + slot
    bounds = levels.tolist()
    chunks = []
    for e0 in range(0, src.size, per_chunk):
        e1 = min(e0 + per_chunk, src.size)
        slices, stacked = [], False
        # the chunk's share of each level, in level order; a level has
        # distinct targets, and a run of consecutive rows is a slice
        for lo, hi in zip(bounds, bounds[1:]):
            lo, hi = max(lo, e0), min(hi, e1)
            if lo >= hi:
                continue
            # one operator: (K rho_j) K^dag for all j as one tall product
            shared = (ops[lo if used is None else used[lo]].conj().T
                      if run[lo] == run[hi - 1] else None)
            stacked = stacked or shared is None
            r0, r1 = out[lo], out[hi - 1]
            rows = slice(r0, r1 + 1) if r1 - r0 == hi - lo - 1 else out[lo:hi]
            slices.append((lo - e0, hi - e0, rows, shared))
        k = (None if fanned and not stacked else ops[e0:e1] if used is None
             else ops.take(used[e0:e1], 0))
        # K^dag: transposed views of conj copies, as the tall-product test takes
        k_dag = k.conj().transpose(0, 2, 1) if stacked else None
        chunks.append((k, k_dag, src[e0:e1], slices))
    return targets, fans, chunks


def step(spec: WalkSpec, state: WalkerState) -> WalkerState:
    """Advance the walk by one step.

    The block landing on each target node is the sum over its incoming
    edges of K rho K^dag, accumulated in ascending source position onto
    a -0.0 seed (an exact additive identity, so each block has the bits
    of its terms added in that order, signed zeros included). Only
    edges whose source is occupied are evaluated, in the products the
    step's plan lays out (``_full_plan`` when every node is occupied).
    Blocks whose trace falls below PRUNE_TRACE are dropped.
    """
    pos, rho = _rows(spec, state)
    targets, fans, chunks = (spec._full_plan if pos.size == spec.node_count
                             else _plan(spec, pos))
    d = spec.dim
    acc = np.full((targets.size, d, d), complex(-0.0, -0.0))
    for k, k_dag, gather, slices in chunks:
        # take(): the copy fancy indexing makes, about twice as fast on small blocks
        half = (k @ rho.take(gather, 0) if fans is None
                else (fans @ rho).reshape(-1, d, d).take(gather, 0))
        stacked = None if k_dag is None else half @ k_dag
        for lo, hi, rows, shared in slices:
            acc[rows] += stacked[lo:hi] if shared is None else (
                half[lo:hi].reshape(-1, d) @ shared).reshape(-1, d, d)
    tr = np.trace(acc, axis1=1, axis2=2).real
    keep = tr > PRUNE_TRACE
    if not keep.all():
        targets, acc, tr = targets[keep], acc[keep], tr[keep]
    return WalkerState._from_rows(spec.nodes, targets, acc, tr)


def iter_run(spec: WalkSpec, initial: WalkerState, n_steps: int,
             record_every: int = 1) -> Iterator[tuple[int, WalkerState]]:
    """Evolve for n_steps, yielding (step index, state) snapshots as made:
    snapshot 0 is the initial state, then one every record_every steps,
    and the final state is always included."""
    n_steps = _count(n_steps, "n_steps", 0)
    record_every = _count(record_every, "record_every", 1)
    yield 0, initial
    state = initial
    for k in range(1, n_steps + 1):
        state = step(spec, state)
        if k % record_every == 0 or k == n_steps:
            yield k, state


def run(spec: WalkSpec, initial: WalkerState, n_steps: int,
        record_every: int = 1) -> list[tuple[int, WalkerState]]:
    """The list of iter_run's (step index, state) snapshots."""
    return list(iter_run(spec, initial, n_steps, record_every))


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
                      max_iter: int = DEFAULT_MAX_ITER) -> SteadyStateResult:
    """Iterate the walk map until two successive states agree within tol.

    Returns the first iterate whose total trace distance to its
    predecessor (state_trace_distance) is <= tol, with the number of
    steps applied; after max_iter steps without that, the last iterate.

    Each iteration first bounds the trace distance from below with the
    stored per-node traces (_trace_bound: half the summed trace
    differences, less a rounding slack). While that bound exceeds tol by
    more than the relative margin _BOUND_MARGIN the iterate cannot have
    converged, and the per-node differences and their eigenvalues are
    skipped. Otherwise, and on the last allowed iteration, the exact
    distance is computed, so ``residual`` is always state_trace_distance
    of the last two states.
    """
    tol = _real(tol, "tol", 0, open_interval=True)
    max_iter = _count(max_iter, "max_iter", 1)
    skip_above = tol * (1 + _BOUND_MARGIN)
    state = initial
    residual = float("inf")
    for n in range(1, max_iter + 1):
        nxt = step(spec, state)
        if n == max_iter or _trace_bound(nxt, state, spec.dim) <= skip_above:
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
    v, d = spec.node_count, spec.dim
    full = np.zeros((d * v, d * v), dtype=complex)
    full.reshape(d, v, d, v)[:, pos, :, pos] = rho
    return full


def extract_blocks(spec: WalkSpec, full: np.ndarray) -> tuple[WalkerState, float]:
    """Read the position-diagonal blocks out of a full density matrix.

    Returns the block state and the largest magnitude found in any
    position-off-diagonal block (which the walk map sends to zero in a
    single step).
    """
    v, d = spec.node_count, spec.dim
    full = _matrix(full, "full matrix", d * v)
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
    v, d = spec.node_count, spec.dim
    full = _matrix(full, "full matrix", d * v)
    idx = spec._index
    out = np.zeros_like(full)
    for (src, tgt), op in spec.transitions.items():
        shift = np.zeros((v, v), dtype=complex)
        shift[idx[tgt], idx[src]] = 1.0
        kraus = np.kron(op, shift)
        out += kraus @ full @ kraus.conj().T
    return out
