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

A WalkSpec has two front ends and one compile. ``WalkSpec(nodes, dim,
transitions)`` maps its dict to an operator table in one pass, in
insertion order: it checks each edge's nodes, checks and converts each
distinct operator object at its first edge, and lists each edge's source
and target positions and object number. The line, transport, gate and
dqc builders check their own inputs and hand such a table to
``WalkSpec._table`` as index arrays. Both front ends give finite (d, d)
operators in first use, on distinct edges, so the compile converts and
checks nothing; ``oqw run``, ``steady`` and ``validate`` check the
completeness relation of the spec they build with ``validate_walk``. The
compile keeps one edge table, the stack, each row one edge as (source,
target, number) positions: ``_src`` and ``_tgt`` hold its node
positions, the read-only ``_group`` its operator's number, ``_run`` its
row's run of one number along the stack, ``_slot`` its index among its
source's out-edges and ``_order`` its insertion index. Stack order is
(rank, target position), an edge's rank its index among its target's
incoming edges by source position, so level j (``_levels`` bounds it),
one run of the stack, holds each target's j-th incoming edge. The
operators are numbered by their bytes in first use and stored once each:
``_ops`` is the read-only (G, d, d) store of the G bytewise-distinct
operators, a number is its row, and ``_ops[_group]`` is the per-edge
stack, which nothing keeps. ``transitions``, built from these arrays on
first access (validating, stepping and iterating never read it), maps
each edge to its operator's row view, one view object shared by all the
edges of a number. ``validate_walk`` forms K^dag K once per row of the
store and adds each level of source slots (``_slot``) through a slice
where its sources are consecutive, else by index; its report formats
each distinct residual once.

A WalkerState has one form, compact rows: a node tuple, the ascending
positions of the occupied nodes in it, one (k, d, d) block stack and
the k traces; ``WalkerState._pruned`` alone drops blocks of trace not
above PRUNE_TRACE.

A step is a plan and an executor. ``_fan``, built at the first step, is
a second, read-only copy of the operators: row block s of its
(V, D*d, d) array stacks node s's out-operators [K_1; ...; K_D] by slot,
zero rows padding nodes of smaller out-degree. The plan (``_plan``)
holds what depends only on which nodes are occupied: the reached
targets, the occupied sources' fan rows (a copy) where they fit one
chunk, and per chunk of the used edges its operators, its K rho gather
index and each level slice's output rows. Every node occupied is one
such set, whose plan the spec compiles once (``_full_plan``). The
executor (``_execute``) forms the K rho K^dag products with matmuls and
sums them level by level into rows over the spec's node tuple: level 0
writes its targets' first terms in place, and later levels add theirs.
Only a plan in which some reached target's rank-0 source is unoccupied
(its used level-0 edges fewer than its reached targets) fills the output
with -0.0 first, an exact additive identity (-0.0 + x has the bits of
x); the full plan never does. A step whose occupied sources' fan rows
(k * D * d^2 entries) fit one chunk forms K rho as one [K_1; ...; K_D]
rho per occupied source, one chunk-sized product; larger steps form it
one matrix per edge, reading K as a view of the store where its
numbers step by 1 and the blocks as a view of the state's stack where
their rows are consecutive. A chunk forms each edge's (K rho) K^dag
once: if tall, each level slice holding one operator (every site of a
translation-invariant walk), as one product [K rho_1; ...; K rho_n] @
K^dag per slice; else, stacked, as one batched (G, n*d, d) @ (G, d, d)
product over its distinct operators, each operator's K rho rows stacked
tall, padded to n rows (``_groups``) and taken back to level order, or
with n = 1 per edge where grouping would not halve the products. These
see the same shared operand as the per-matrix products, only more rows
of the other one, and BLAS gives them the same bits (tests/test_core.py
checks the premises by name). The other grouping, K [rho_1 ... rho_n],
changes bits and is not used. ``step`` is the executor on its plan,
then ``WalkerState._pruned``. ``_advance`` is the linear step: the
executor on the full plan, from a (V, d, d) array over the spec's node
tuple to another, with zero rows at unreached nodes and no prune.
``superoperator`` is its dense (V d^2) x (V d^2) matrix on row-major
vectorized arrays, each edge (j -> i) adding kron(K, conj K) at block
(i, j), and it refuses a walk whose matrix passes ``_DENSE_BYTES``.
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
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Hashable, Iterator

import numpy as np

from .linalg import (DEFAULT_TOL, _count, _matrix, _real, as_ket,
                     half_trace_norms, outer, sum_left_to_right)

Node = Hashable

# Blocks with no more occupation weight than this are dropped after each
# step; keeps line-walk storage proportional to the reachable window.
PRUNE_TRACE = 1e-15

# Bytes of K rho K^dag products a step forms at once, one per edge. Each
# chunk also holds the gathered blocks and one partial product of the
# same size, so its transient memory stays near 3x this whatever d and
# the edge count are; a grouped chunk pads its rows to at most twice its
# edges, which doubles each of the three, so 6x bounds it. A plan adds at
# most one conjugate copy of its operators, a per-edge chunk's K where it
# is no view of the store (a copy of at most twice its edges), and the
# occupied sources' fan rows, copied only where they fit one chunk.
# ``_fan`` is compiled only when its zero padding also fits one chunk, so
# a node of far larger out-degree than the rest does not cost O(V * D)
# stored operators.
_CHUNK_BYTES = 1 << 17

# Bytes of the largest dense superoperator built, (V d^2)^2 complex
# entries: 128 MiB, a matrix of order 2896. Its per-edge kron(K, conj K)
# stack is no larger (E <= V^2 distinct edges), so a build stays within
# twice this. A memory bound, not a knob; larger walks stay on the
# block form.
_DENSE_BYTES = 1 << 27

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


class WalkSpec:
    """A walk graph with one transition operator per directed edge.

    nodes       ordered node labels (order fixes all summation and
                serialization order; builders list them sorted)
    dim         internal Hilbert-space dimension, shared by all operators
    transitions mapping (source, target) -> dim x dim complex matrix;
                absent edges are implicit zero operators.

    An error names the first edge, in insertion order, with an unknown
    node or a bad operator; each distinct operator object is checked
    once. ``transitions`` holds the same edges in insertion order,
    each mapped to a read-only view of its operator. Specs are frozen
    and compare and hash by identity.
    """

    def __init__(self, nodes: tuple, dim: int, transitions: dict):
        index = self._set_nodes(nodes, dim)
        if not isinstance(transitions, Mapping):
            raise TypeError(f"transitions must be a mapping, got {type(transitions).__name__}")
        # one pass in insertion order: each edge's nodes, then its operator
        # object, checked and converted at its first edge (kept with its
        # number, so that its id stays its own)
        objects, mats, source, target, number = {}, [], [], [], []
        for (s, t), op in transitions.items():
            if s not in index or t not in index:
                raise ValueError(f"edge ({s!r} -> {t!r}) uses unknown nodes")
            if id(op) not in objects:
                mats.append(_matrix(op, f"operator on edge ({s!r} -> {t!r})", self.dim))
                objects[id(op)] = len(objects), op
            source.append(index[s])
            target.append(index[t])
            number.append(objects[id(op)][0])
        self._compile(mats, source, target, number)

    @classmethod
    def _table(cls, nodes: tuple, dim: int, operators, source, target,
               number) -> "WalkSpec":
        """The spec whose edge k, in insertion order, runs from node
        position source[k] to target[k] and carries operators[number[k]].

        The caller guarantees, and the compile does not check, that the
        operators are finite complex (d, d) arrays, listed in first use
        and each used, and that the edges are distinct. Byte-equal
        operators share a number."""
        spec = cls.__new__(cls)
        spec._set_nodes(nodes, dim)
        spec._compile(operators, source, target, number)
        return spec

    def _set_nodes(self, nodes, dim) -> dict:
        """Check and set ``nodes`` and ``dim``; return the position of each label."""
        nodes = tuple(nodes)
        if not nodes:
            raise ValueError("a walk needs at least one node")
        index = {n: k for k, n in enumerate(nodes)}
        if len(index) != len(nodes):
            raise ValueError("duplicate node labels")
        for name, value in ("nodes", nodes), ("dim", _count(dim, "dim", 1)), ("_index", index):
            object.__setattr__(self, name, value)
        return index

    def _compile(self, operators, source, target, number) -> None:
        """Compile an operator table into the edge arrays: a pure array
        transform that trusts ``_table``'s preconditions."""
        d = self.dim
        # numbers by bytes, so that -0.0 and 0.0 are different operators
        by_bytes = {}
        numbers = [by_bytes.setdefault(m.tobytes(), len(by_bytes)) for m in operators]
        ops = np.array([*dict(zip(numbers, operators)).values()] or np.empty((0, d, d)), complex)
        src, tgt, obj = (np.asarray(a, dtype=np.intp) for a in (source, target, number))
        # the stack's order makes step() add each target's terms in
        # ascending source order, bitwise reproducibly
        by_target = np.lexsort((src, tgt))
        ts = tgt[by_target]
        rank = np.arange(ts.size) - np.searchsorted(ts, ts)
        order = by_target[np.lexsort((ts, rank))]
        group = np.array(numbers, dtype=np.intp)[obj[order]]
        for array in ops, group:
            array.setflags(write=False)
        # each row's run of equal operators along the stack
        runs = np.cumsum(np.diff(group, prepend=group[:1]) != 0)
        # where each level starts, then the edge count
        levels = np.concatenate(([0], np.cumsum(np.bincount(rank))))
        # each row's slot among its source's out-edges, in stack order
        src = src[order]
        by_src = np.argsort(src, kind="stable")
        ss = src[by_src]
        slot = np.empty_like(by_src)
        slot[by_src] = np.arange(ss.size) - np.searchsorted(ss, ss)
        for name, value in (
                ("_src", src), ("_ops", ops), ("_levels", levels), ("_group", group),
                ("_run", runs), ("_slot", slot), ("_tgt", tgt[order]), ("_order", order)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @cached_property
    def transitions(self) -> dict:
        """(source, target) -> read-only view of its operator, in insertion order."""
        row = np.empty_like(self._order)
        row[self._order] = np.arange(row.size)  # each edge's stack row
        label, views = self.nodes.__getitem__, list(self._ops)
        edges = zip(map(label, self._src[row].tolist()),
                    map(label, self._tgt[row].tolist()))
        return dict(zip(edges, map(views.__getitem__, self._group[row].tolist())))

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @cached_property
    def _fan(self) -> np.ndarray | None:
        """The read-only fan, or None when its padding would exceed one
        chunk. Built on the first step that reads it, so validating a spec
        does not pay for it."""
        v, d = self.node_count, self.dim
        width = int(self._slot.max(initial=-1)) + 1
        if (v * width - self._slot.size) * 16 * d ** 2 > _CHUNK_BYTES:
            return None
        fan = np.zeros((v, width, d, d), dtype=complex)
        fan[self._src, self._slot] = self._ops[self._group]
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
    """Per-node completeness residuals for a WalkSpec.

    ``str`` prints one row per node in the dict's order, then accepted or
    rejected; a walk whose nodes repeat their residuals (every node of a
    translation-invariant walk) pays per value, not per node.
    """

    residuals: dict
    tol: float

    @property
    def ok(self) -> bool:
        return all(r <= self.tol for r in self.residuals.values())

    def __str__(self) -> str:
        # one row template per distinct residual (each NaN object its own),
        # a zero keyed by its repr since 0.0 and -0.0 print differently,
        # then one %-format fills in every label, so a % in a label needs
        # no escaping
        tol, values = self.tol, self.residuals.values()
        keys = [r or repr(r) for r in values]
        distinct = dict(zip(keys, values))
        rows = {key: "  node %%r: residual %.3e [%s]\n" % (r, "ok" if r <= tol else "FAIL")
                for key, r in distinct.items()}
        return (f"completeness tolerance: {tol:g}\n"
                + "".join(map(rows.__getitem__, keys)) % tuple(self.residuals)
                + ("accepted" if all(r <= tol for r in distinct.values()) else "rejected"))


@np.errstate(over="ignore", invalid="ignore")
def validate_walk(spec: WalkSpec, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check the per-node completeness relation sum_K K^dag K = I.

    Each node adds its edges' K^dag K onto a zero sum in stack order (by
    rank, then target position); its residual is the largest entry of
    |sum - I|, so a node with no outgoing edges has residual 1 (the zero
    map loses all probability). Memory stays O(E) whatever the
    out-degrees. A K whose products overflow has an inf or NaN residual,
    which fails any tol, and raises no warning.
    """
    tol = _real(tol, "tol", 0, open_interval=True)
    # level j: each source's j-th edge, by source position
    order = np.lexsort((spec._src, spec._slot))
    ops = spec._ops
    terms = (ops.conj().transpose(0, 2, 1) @ ops).take(spec._group[order], 0)
    src = spec._src[order]
    sums = np.zeros((spec.node_count, spec.dim, spec.dim), dtype=complex)
    # one add per level, its sources distinct and ascending
    bounds = np.cumsum(np.bincount(spec._slot)).tolist()
    for lo, hi in zip([0, *bounds], bounds):
        sums[_span(src[lo:hi])] += terms[lo:hi]
    residuals = np.abs(sums - np.eye(spec.dim)).max(axis=(1, 2))
    return ValidationReport(dict(zip(spec.nodes, residuals.tolist())), tol)


class WalkerState:
    """Unnormalized positive blocks keyed by node; Tr(block) = occupation.

    A state built from a dict stacks its blocks once, read-only, in the
    dict's order, with the dict's keys as its labels; step() returns
    rows over the spec's node tuple. ``blocks`` maps each node to a
    read-only view of its row, in a new dict on each access.
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
    def _pruned(cls, nodes: tuple, pos: np.ndarray, rho: np.ndarray) -> "WalkerState":
        """The rows (nodes, positions, blocks) of trace above PRUNE_TRACE."""
        tr = rho.trace(axis1=1, axis2=2).real
        if tr.size and not tr.min() > PRUNE_TRACE:  # NaN too
            keep = tr > PRUNE_TRACE
            pos, rho, tr = pos[keep], rho[keep], tr[keep]
        return cls.__new__(cls)._set(nodes, pos, rho, tr)

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


def _span(index: np.ndarray) -> np.ndarray | slice:
    """An ascending index of distinct rows as a slice when its rows are
    consecutive, so that indexing with it makes a view, else itself."""
    if index.size and index[-1] - index[0] == index.size - 1:
        return slice(index[0], index[-1] + 1)
    return index


def _steps(index: np.ndarray) -> np.ndarray | slice:
    """A non-empty index as a slice when its every step is 1, so that
    indexing with it makes a view, else itself. Unlike ``_span``, right
    for repeated and descending rows too."""
    if (np.diff(index) == 1).all():
        return slice(index[0], index[-1] + 1)
    return index


def _plan(spec: WalkSpec, pos: np.ndarray) -> tuple:
    """(reached targets, fans, chunks, level0) of a step from occupied positions pos.

    A used edge is a stack row whose source position is in pos; the
    reached targets are the ascending positions of the used edges'
    targets, and an edge's output row is its target's index among them.
    fans: the occupied sources' fan rows, read-only, or None past one
    chunk. Per chunk of the used edges, in stack order: K if it forms
    K rho per edge, its K^dag stack if stacked, the K rho gather index,
    back (None, or each edge's row in the padded product ``_groups``
    lays out) and, per level slice, (lo, hi) in the chunk, output rows
    and, if tall, its K^dag. Consecutive output rows are slices
    (``_span``), and so are K and a per-edge gather index whose every
    step is 1 (``_steps``). level0: the used level-0 edges, the first in
    stack order; fewer than the reached targets when some target's
    first used edge lies above level 0."""
    ops, d = spec._ops, spec.dim
    per_chunk = max(1, _CHUNK_BYTES // (16 * d ** 2))
    # each edge's source as a row of rho (-1: source unoccupied)
    row_of = np.full(spec.node_count, -1, dtype=np.intp)
    row_of[pos] = np.arange(pos.size)
    src = row_of[spec._src]
    used = np.flatnonzero(src >= 0)  # each used edge's row of the stack
    src, run, tgt, group = src[used], spec._run[used], spec._tgt[used], spec._group[used]
    # the reached targets' positions, and each used edge's row among them
    reached = np.zeros(spec.node_count, dtype=bool)
    reached[tgt] = True
    targets = np.flatnonzero(reached)
    row_of[targets] = np.arange(targets.size)  # src is read: reuse row_of
    out = row_of[tgt]
    fan, fans = spec._fan, None
    if fan is not None and pos.size * fan.shape[1] <= per_chunk * d:
        # the occupied sources' fan rows fit one chunk, so the used edges
        # do too: each source's [K_1; ...; K_D] rho, and each edge's K
        # rho at its source's row times D plus its slot
        fans = fan.take(pos, 0)  # take(): faster than fancy indexing
        fans.setflags(write=False)
        src = src * (fan.shape[1] // d) + spec._slot[used]
    bounds = np.searchsorted(used, spec._levels).tolist()
    chunks = []
    for e0 in range(0, used.size, per_chunk):
        e1 = min(e0 + per_chunk, used.size)
        slices, stacked = [], False
        # the chunk's share of each level, in level order; a level has
        # distinct targets, and a share of one operator has one K^dag
        for lo, hi in zip(bounds, bounds[1:]):
            lo, hi = max(lo, e0), min(hi, e1)
            if lo < hi:
                shared = ops[group[lo]].conj().T if run[lo] == run[hi - 1] else None
                stacked = stacked or shared is None
                slices.append((lo - e0, hi - e0, _span(out[lo:hi]), shared))
        gather, back = src[e0:e1], None
        numbers = heads = group[e0:e1]  # the chunk's operators
        if stacked:  # every slice reads one stacked product: per distinct
            # operator where _groups at least halves the products, else per edge
            slices = [(*level[:3], None) for level in slices]
            grouped = _groups(numbers, 2 * (e1 - e0))
            if grouped:  # K rho rows in padded group order
                pad, back, firsts = grouped
                numbers, heads, gather = numbers[pad], numbers[firsts], gather[pad]
        k = None
        if fans is None:  # consecutive operators and rows of rho: views
            k, gather = ops[_steps(numbers)], _steps(gather)
        # K^dag: transposed views of conj copies, as the tall-product test takes
        k_dag = ops[heads].conj().transpose(0, 2, 1) if stacked else None
        chunks.append((k, k_dag, gather, back, slices))
    level0 = bounds[1] if len(bounds) > 1 else 0  # a spec without edges has no level
    return targets, fans, chunks, level0


def _groups(group: np.ndarray, limit: int) -> tuple | None:
    """Padded layout of a chunk's rows by distinct operator (``group``):
    (pad, back, firsts), or None unless it at least halves the products.

    Each group is one product of n rows, n its largest size; if that
    pads past limit rows, every group is cut into pieces of at most
    n = (limit - E) // G + 1 rows (E rows, G groups), which pad at most
    G * (n - 1) <= limit - E rows. A group's pieces take consecutive
    products, its rows in row order. pad holds the chunk row at each
    padded row (padding repeats the group's first row, and its products
    are never read), back each chunk row's padded row, firsts the first
    chunk row of each product's group.
    """
    order = np.argsort(group, kind="stable")
    ends = np.concatenate((group[order], [-1]))
    ends = np.flatnonzero(ends[1:] != ends[:-1]) + 1  # of each group, in sorted rows
    if 2 * ends.size > order.size:  # so with pieces too: a cheap early out
        return None
    sizes = np.diff(ends, prepend=0)
    n = int(sizes.max())
    if ends.size * n > limit:
        n = (limit - order.size) // ends.size + 1
    pieces = -(-sizes // n)
    if 2 * pieces.sum() > order.size:
        return None
    starts = ends - sizes
    back = np.empty_like(order)
    back[order] = np.arange(order.size) + np.repeat((np.cumsum(pieces) - pieces) * n - starts, sizes)
    firsts = np.repeat(order[starts], pieces)
    pad = np.repeat(firsts, n)
    pad[back] = np.arange(order.size)
    return pad, back, firsts


def step(spec: WalkSpec, state: WalkerState) -> WalkerState:
    """Advance the walk by one step.

    The block landing on each target node is the sum over its incoming
    edges of K rho K^dag, accumulated in ascending source position: the
    first term written in place, the rest added, so each block has the
    bits of its terms added in that order, signed zeros included. A
    target whose first term comes after level 0 starts from a -0.0
    seed, an exact additive identity. Only edges whose source is
    occupied are evaluated. Blocks whose trace is not above PRUNE_TRACE
    are dropped.
    """
    pos, rho = _rows(spec, state)
    plan = spec._full_plan if pos.size == spec.node_count else _plan(spec, pos)
    return WalkerState._pruned(spec.nodes, plan[0], _execute(plan, rho))


def _execute(plan: tuple, rho: np.ndarray) -> np.ndarray:
    """The unpruned (reached targets, d, d) blocks that a plan makes of
    its occupied sources' (k, d, d) stack rho."""
    targets, fans, chunks, level0 = plan
    d = rho.shape[-1]
    shape = (targets.size, d, d)
    # level 0 writes each of its targets' first term in place; a target
    # it misses adds its first term onto the -0.0 seed
    acc = np.empty(shape, complex) if level0 == targets.size else np.full(
        shape, complex(-0.0, -0.0))
    for k, k_dag, gather, back, slices in chunks:
        # take(): the copy fancy indexing makes, about twice as fast on small blocks
        if fans is not None:
            half = (fans @ rho).reshape(-1, d, d).take(gather, 0)
        else:  # a slice of consecutive rows: a view
            half = k @ (rho[gather] if isinstance(gather, slice) else rho.take(gather, 0))
        stacked = None  # a tall chunk's slices each carry their K^dag
        if k_dag is not None:  # stacked: (G, n*d, d) @ (G, d, d), n = 1 per edge
            stacked = (half.reshape(len(k_dag), -1, d) @ k_dag).reshape(-1, d, d)
            if back is not None:  # from padded group order to level order
                stacked = stacked.take(back, 0)
        for lo, hi, rows, shared in slices:
            term = stacked[lo:hi] if shared is None else (
                half[lo:hi].reshape(-1, d) @ shared).reshape(-1, d, d)
            if level0 > 0:  # the first level0 used edges are level 0's
                acc[rows] = term
                level0 -= hi - lo
            else:
                acc[rows] += term
    return acc


def _advance(spec: WalkSpec, x: np.ndarray) -> np.ndarray:
    """The linear step of a (V, d, d) block array over spec.nodes."""
    plan = spec._full_plan
    out = np.zeros((spec.node_count, spec.dim, spec.dim), dtype=complex)
    out[plan[0]] = _execute(plan, x)
    return out


def superoperator(spec: WalkSpec) -> np.ndarray:
    """The dense (V d^2) x (V d^2) matrix of ``_advance``; MemoryError
    when it would pass _DENSE_BYTES."""
    v, d = spec.node_count, spec.dim
    n = v * d * d
    if 16 * n * n > _DENSE_BYTES:
        raise MemoryError(f"the superoperator of {v} nodes at dim {d} needs "
                          f"{16 * n * n} bytes, above the cap of {_DENSE_BYTES}")
    ops = spec._ops
    krons = np.einsum("gac,gbe->gabce", ops, ops.conj()).reshape(-1, d * d, d * d)
    dense = np.zeros((v, d * d, v, d * d), dtype=complex)
    np.add.at(dense, (spec._tgt, slice(None), spec._src), krons[spec._group])
    return dense.reshape(n, n)


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

    An iteration whose trace bound (_trace_bound) exceeds tol by more
    than the relative margin _BOUND_MARGIN cannot have converged and
    skips the exact distance; otherwise, and on the last allowed
    iteration, it is computed, so ``residual`` is always
    state_trace_distance of the last two states.
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

    Returns the block state, pruned as step() prunes, and the largest
    magnitude found in any position-off-diagonal block (which the walk
    map sends to zero in a single step).
    """
    v, d = spec.node_count, spec.dim
    full = _matrix(full, "full matrix", d * v)
    view, pos = full.reshape(d, v, d, v), np.arange(v)
    rho = view[:, pos, :, pos]  # to_full_density's scatter, read back
    off = np.abs(view).max(axis=(0, 2))
    np.fill_diagonal(off, 0.0)
    return WalkerState._pruned(spec.nodes, pos, rho), float(off.max())


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
