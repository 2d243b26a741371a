from collections import Counter

import numpy as np
import pytest

from oqwalk import core
from oqwalk.core import (
    PRUNE_TRACE,
    WalkerState,
    WalkSpec,
    extract_blocks,
    find_steady_state,
    full_map_step,
    iter_run,
    mixed_state,
    pure_state,
    run,
    state_trace_distance,
    step,
    to_full_density,
    validate_walk,
)
from oqwalk.linalg import PAULI_X, basis_ket, is_psd, outer, trace_distance
from oqwalk.scenarios import build_gate_walk, build_line_walk

from oracles import (
    enumerate_hop_paths,
    random_block_state,
    random_density,
    random_kraus_family,
    random_unitary,
    reference_step,
)


def two_node_spec(b1, c1, b2, c2):
    """Fully connected two-node walk: b_i hops out of node i, c_i stays."""
    return WalkSpec(
        nodes=(1, 2),
        dim=b1.shape[0],
        transitions={(1, 2): b1, (1, 1): c1, (2, 1): b2, (2, 2): c2},
    )


def random_two_node(rng, dim=2):
    b1, c1 = random_kraus_family(dim, 2, rng)
    b2, c2 = random_kraus_family(dim, 2, rng)
    return two_node_spec(b1, c1, b2, c2)


# ---------------------------------------------------------------- spec


def test_spec_equality_and_hash_go_by_identity():
    a, b = build_gate_walk(PAULI_X, 0.5), build_gate_walk(PAULI_X, 0.5)
    assert a == a and a != b and not (a == b)
    assert hash(a) == hash(a) and hash(a) != hash(b)
    assert a in {a} and b not in {a}
    assert len({a, b, a}) == 2 and {a: 1}[a] == 1


def test_spec_rejects_unknown_nodes_and_bad_dims():
    with pytest.raises(ValueError):
        WalkSpec(nodes=(1,), dim=2, transitions={(1, 2): np.eye(2)})
    with pytest.raises(ValueError):
        WalkSpec(nodes=(1, 2), dim=2, transitions={(1, 2): np.eye(3)})
    with pytest.raises(ValueError):
        WalkSpec(nodes=(1, 1), dim=2, transitions={})
    with pytest.raises(ValueError):
        WalkSpec(nodes=(1,), dim=2, transitions={(1, 1): np.ones((2, 3))})


def signed_zero_spec() -> WalkSpec:
    """Three-node ring whose operators are equal in value but not in bytes:
    one entry of the (2 -> 3) operator is -0.0."""
    zero = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    neg_zero = zero.copy()
    neg_zero[0, 0] = -0.0
    assert np.array_equal(zero, neg_zero)  # equal values, other bytes
    return WalkSpec(nodes=(1, 2, 3), dim=2, transitions={
        (1, 2): zero, (2, 3): neg_zero, (3, 1): zero})


def reference_compile(nodes, dim, transitions) -> tuple:
    """A spec's compiled arrays, built edge by edge: (_ops, _src, _run,
    _slot, _levels) as lists or arrays, and the edges in stack order.

    Stack order is (rank, target position), an edge's rank its index
    among its target's incoming edges by source position. Each operator
    is converted on its own edge; runs compare row bytes.
    """
    index = {n: k for k, n in enumerate(nodes)}
    edges = list(transitions)
    src = [index[s] for s, _ in edges]
    tgt = [index[t] for _, t in edges]
    rank = [sum(tgt[j] == tgt[k] and src[j] < src[k] for j in range(len(edges)))
            for k in range(len(edges))]
    order = sorted(range(len(edges)), key=lambda k: (rank[k], tgt[k]))
    ops = np.zeros((len(edges), dim, dim), dtype=complex)
    run, slot, seen = [], [], Counter()
    for row, k in enumerate(order):
        ops[row] = np.asarray(transitions[edges[k]], dtype=complex)
        run.append(0 if row == 0 else
                   run[-1] + (ops[row].tobytes() != ops[row - 1].tobytes()))
        slot.append(seen[src[k]])
        seen[src[k]] += 1
    levels = [sum(r < j for r in rank) for j in range(max(rank, default=-1) + 2)]
    return ops, [src[k] for k in order], run, slot, levels, [edges[k] for k in order]


def assert_compiled_like_reference(spec, nodes, dim, transitions, label):
    ops, src, run, slot, levels, stacked = reference_compile(nodes, dim, transitions)
    assert spec._ops.shape == ops.shape, label
    assert spec._ops.tobytes() == ops.tobytes(), label
    assert not spec._ops.flags.writeable, label
    assert spec._src.tolist() == src, label
    assert spec._run.tolist() == run, label
    assert spec._slot.tolist() == slot, label
    assert spec._levels.tolist() == levels, label
    assert list(spec.transitions) == list(transitions), label  # insertion order
    for row, edge in enumerate(stacked):
        view = spec.transitions[edge]
        assert view.base is spec._ops, (label, edge)  # a view into the one stack
        assert view.ctypes.data == spec._ops[row].ctypes.data, (label, edge)
        assert view.tobytes() == ops[row].tobytes(), (label, edge)


def test_spec_compiles_like_a_per_edge_reference(monkeypatch):
    from oqwalk import scenarios

    inputs = []  # each builder's WalkSpec arguments, operator objects kept

    def recording(nodes, dim, transitions):
        inputs.append((tuple(nodes), dim, dict(transitions)))
        return WalkSpec(nodes=nodes, dim=dim, transitions=transitions)

    monkeypatch.setattr(scenarios, "WalkSpec", recording)
    cases = [(label, spec) for label, spec, _ in scenario_cases()]
    assert len(inputs) == len(cases)
    line_ops = inputs[0][2].values()
    assert len({id(op) for op in line_ops}) == 2 < len(line_ops)  # shared objects

    # one array object on many edges, next to byte-equal copies, a -0.0
    # variant and a list, inserted in random order
    rng = np.random.default_rng(8)
    shared = random_unitary(2, rng)
    neg_zero = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    neg_zero[1, 1] = -0.0
    pool = [shared, shared.copy(), neg_zero, neg_zero.tolist(), shared]
    edges = [((s, t), pool[int(rng.integers(len(pool)))])
             for s in range(9) for t in rng.choice(9, size=3, replace=False).tolist()]
    many = dict(edges[k] for k in rng.permutation(len(edges)))
    # list-valued operators: one list object per edge, and one on many edges
    hop = [[0, 1], [1, 0]]
    lists = {(0, 1): [[1, 0], [0, 0]], (1, 2): hop, (2, 0): hop, (0, 0): [[0, 0], [0, 1]],
             (2, 1): hop, (1, 1): [[0, 0], [0, 0]]}
    signed = signed_zero_spec()
    inputs += [((*range(9),), 2, many), ((0, 1, 2), 2, lists),
               (signed.nodes, 2, signed.transitions), ((1, 2), 3, {})]
    cases += [("shared array", WalkSpec(nodes=tuple(range(9)), dim=2, transitions=many)),
              ("lists", WalkSpec(nodes=(0, 1, 2), dim=2, transitions=lists)),
              ("signed zero", signed), ("no edges", WalkSpec(nodes=(1, 2), dim=3, transitions={}))]
    for (label, spec), (nodes, dim, transitions) in zip(cases, inputs):
        assert spec.nodes == nodes and spec.dim == dim, label
        assert_compiled_like_reference(spec, nodes, dim, transitions, label)


_EYE = np.eye(2)
_BAD = np.eye(3)
_NAN = np.array([[1, 0], [0, np.nan]])
_INF = np.array([[np.inf, 0], [0, 1]])


def _as_operator_error(op) -> str:
    from oqwalk.linalg import as_operator

    with pytest.raises(ValueError) as caught:
        as_operator(op)
    return str(caught.value)


@pytest.mark.parametrize("nodes,transitions,message", [
    # an unknown node
    ((1, 2), {(1, 2): _EYE, (2, 3): _EYE}, "edge (2 -> 3) uses unknown nodes"),
    # a wrong dimension
    ((1, 2), {(1, 2): _EYE, (2, 1): _BAD},
     "operator on edge (2 -> 1) has dimension 3, expected 2"),
    # a non-square operator
    ((1, 2), {(1, 2): _EYE, (2, 1): np.ones((2, 3))},
     "operator on edge (2 -> 1) must be a square matrix, got shape (2, 3)"),
    # a ragged operator and a string: as_operator's own message
    ((1, 2), {(1, 2): _EYE, (2, 1): [[1, 0], [0]]}, _as_operator_error([[1, 0], [0]])),
    ((1, 2), {(1, 2): _EYE, (2, 1): "eye"}, _as_operator_error("eye")),
    # an int past the float range
    ((1, 2), {(1, 2): _EYE, (2, 1): [[10 ** 400, 0], [0, 1]]},
     "entries must be finite: an int is past the float range"),
    # one bad object on three edges: its first edge in insertion order,
    # not in stack order, where (3 -> 1) comes first
    ((1, 2, 3), {(1, 2): _EYE, (2, 3): _BAD, (3, 1): _BAD, (1, 1): _BAD},
     "operator on edge (2 -> 3) has dimension 3, expected 2"),
    # an unknown node on a later edge than a bad operator, and the reverse
    ((1, 2), {(1, 2): _BAD, (2, 9): _EYE},
     "operator on edge (1 -> 2) has dimension 3, expected 2"),
    ((1, 2), {(1, 9): _EYE, (2, 1): _BAD}, "edge (1 -> 9) uses unknown nodes"),
    # non-finite operators, also before an unknown node on a later edge
    ((1, 2), {(1, 2): _EYE, (2, 1): _NAN},
     "operator on edge (2 -> 1) is not finite"),
    ((1, 2), {(1, 2): _EYE, (2, 1): _INF},
     "operator on edge (2 -> 1) is not finite"),
    ((1, 2), {(1, 2): -_INF, (2, 9): _EYE},
     "operator on edge (1 -> 2) is not finite"),
    ((1, 2), {(1, 2): _EYE, (2, 9): _EYE, (2, 1): _NAN},
     "edge (2 -> 9) uses unknown nodes"),
])
def test_spec_reports_its_first_bad_edge(nodes, transitions, message):
    with pytest.raises(ValueError) as caught:
        WalkSpec(nodes=nodes, dim=2, transitions=transitions)
    assert str(caught.value) == message


def test_validate_accepts_line_walk_exactly():
    spec, _ = build_line_walk(np.arccos(0.8), 4)
    report = validate_walk(spec)
    assert report.ok
    assert report.worst() <= 1e-12


def test_validate_rejects_overcomplete_family():
    spec = two_node_spec(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
    report = validate_walk(spec)
    assert not report.ok
    assert abs(report.residuals[1] - 1.0) < 1e-12
    assert abs(report.residuals[2] - 1.0) < 1e-12


def _loop_residuals(spec: WalkSpec) -> dict:
    """Per-node max |sum K^dag K - I| over spec.transitions; 1.0 with no edges."""
    out = {}
    for node in spec.nodes:
        family = [op for (src, _), op in spec.transitions.items() if src == node]
        out[node] = (float(np.abs(sum(k.conj().T @ k for k in family)
                                  - np.eye(spec.dim)).max()) if family else 1.0)
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_validate_matches_per_node_loop(dim):
    rng = np.random.default_rng(40 + dim)
    labels = ["a", "b", "c", "d", "e", "f", "g"]
    for _ in range(10):
        nodes = tuple(rng.permutation(labels).tolist())
        edges = []
        # out-degrees 0, 1, 2, 3, 4 and 7; families complete, scaled, or
        # overcomplete (node "f": every operator the identity)
        for src, degree in zip(labels, (0, 1, 2, 3, 4, 2, 7)):
            targets = rng.choice(labels, size=degree, replace=False).tolist()
            if src == "f":
                family = [np.eye(dim)] * degree
            else:
                scale = rng.choice([1.0, rng.uniform(0.7, 1.3)])
                family = [scale * k for k in random_kraus_family(dim, degree, rng)]
            edges += [((src, t), k) for t, k in zip(targets, family)]
        # inserted in random order, not grouped by source
        transitions = dict(edges[i] for i in rng.permutation(len(edges)))
        spec = WalkSpec(nodes=nodes, dim=dim, transitions=transitions)
        report = validate_walk(spec)
        expected = _loop_residuals(spec)
        assert list(report.residuals) == list(nodes)
        for node in nodes:
            assert abs(report.residuals[node] - expected[node]) <= 1e-15
        assert report.residuals["a"] == 1.0
        assert abs(report.residuals["f"] - 1.0) <= 1e-15 and not report.ok


def per_edge_residuals(spec: WalkSpec) -> np.ndarray:
    """validate_walk's residuals from one K^dag K product per edge, each
    source's terms added in stack order onto a zero sum."""
    terms = spec._ops.conj().transpose(0, 2, 1) @ spec._ops
    sums = np.zeros((spec.node_count, spec.dim, spec.dim), dtype=complex)
    for row, source in enumerate(spec._src.tolist()):
        sums[source] += terms[row]
    return np.abs(sums - np.eye(spec.dim)).max(axis=(1, 2))


def test_validate_matches_per_edge_products_bitwise():
    # K^dag K is formed once per run of equal operators: the same product
    # of the same bytes, so the residuals keep every bit
    rng = np.random.default_rng(17)
    cases = [(label, spec) for label, spec, _ in scenario_cases()]
    cases += [("line 50", build_line_walk(np.arccos(0.8), 50)[0]),
              ("signed zero", signed_zero_spec()),
              ("random graph", random_graph_spec(rng, 9, 3))]
    for label, spec in cases:
        report = validate_walk(spec)
        assert list(report.residuals) == list(spec.nodes), label
        got = np.array(list(report.residuals.values()))
        assert got.tobytes() == per_edge_residuals(spec).tobytes(), label


def test_validate_spec_without_edges():
    for dim in (1, 2, 3):
        report = validate_walk(WalkSpec(nodes=(3, 1, 2), dim=dim, transitions={}))
        assert report.residuals == {3: 1.0, 1: 1.0, 2: 1.0}
        assert not report.ok


def test_validate_accepts_cnot_gate_walk():
    from oqwalk.linalg import CNOT

    report = validate_walk(build_gate_walk(CNOT, 0.5))
    assert report.ok and report.worst() <= 1e-12


# ---------------------------------------------------------------- step


def test_step_identity_self_loop_fixed():
    spec = WalkSpec(nodes=("a",), dim=2, transitions={("a", "a"): np.eye(2)})
    state = WalkerState({"a": np.eye(2) / 2})
    out = step(spec, state)
    assert np.array_equal(out.blocks["a"], state.blocks["a"])


def test_step_splits_line_blocks():
    spec, _ = build_line_walk(np.arccos(0.8), 3)
    rho = random_density(2, np.random.default_rng(0))
    out = step(spec, WalkerState({0: rho}))
    right = spec.transitions[(0, 1)]
    left = spec.transitions[(0, -1)]
    assert set(out.blocks) == {1, -1}
    assert np.allclose(out.blocks[1], right @ rho @ right.conj().T)
    assert np.allclose(out.blocks[-1], left @ rho @ left.conj().T)


def test_step_two_node_recursion_exact():
    # one step must equal the closed-form two-node recursion bit for bit
    rng = np.random.default_rng(42)
    for _ in range(10):
        spec = random_two_node(rng)
        b1, c1 = spec.transitions[(1, 2)], spec.transitions[(1, 1)]
        b2, c2 = spec.transitions[(2, 1)], spec.transitions[(2, 2)]
        blocks = random_block_state([1, 2], 2, rng)
        out = step(spec, WalkerState(blocks))
        r1, r2 = blocks[1], blocks[2]
        expected1 = c1 @ r1 @ c1.conj().T + b2 @ r2 @ b2.conj().T
        expected2 = c2 @ r2 @ c2.conj().T + b1 @ r1 @ b1.conj().T
        assert np.array_equal(out.blocks[1], expected1)
        assert np.array_equal(out.blocks[2], expected2)


def test_step_preserves_trace_and_positivity():
    rng = np.random.default_rng(3)
    spec = random_two_node(rng, dim=3)
    state = WalkerState(random_block_state([1, 2], 3, rng))
    for _ in range(50):
        state = step(spec, state)
        assert abs(state.total_trace() - 1.0) < 1e-12
        for block in state.blocks.values():
            assert is_psd(block, 1e-10)


def test_step_rejects_mismatched_state():
    spec = random_two_node(np.random.default_rng(1))
    with pytest.raises(ValueError):
        step(spec, WalkerState({3: np.eye(2) / 2}))
    with pytest.raises(ValueError):
        step(spec, WalkerState({1: np.eye(3) / 3}))


# ---------------------------------------------------------------- run


def test_run_zero_steps_returns_initial():
    spec, init = build_line_walk(np.arccos(0.8), 2)
    traj = run(spec, init, 0)
    assert len(traj) == 1
    assert traj[0][0] == 0
    assert traj[0][1] is init


def test_run_line_two_steps_occupation():
    spec, init = build_line_walk(np.arccos(0.8), 2)
    traj = run(spec, init, 2)
    occ = {n: float(np.trace(b).real) for n, b in traj[-1][1].blocks.items()}
    # exact values 353/625, 144/625, 128/625
    assert occ.keys() == {2, 0, -2}
    assert abs(occ[2] - 353 / 625) < 1e-14
    assert abs(occ[0] - 144 / 625) < 1e-14
    assert abs(occ[-2] - 128 / 625) < 1e-14


def test_run_matches_path_enumeration():
    theta = np.arccos(0.8)
    spec, _ = build_line_walk(theta, 6)
    rng = np.random.default_rng(8)
    rho0 = random_density(2, rng)
    traj = run(spec, WalkerState({0: rho0}), 6)
    right = spec.transitions[(0, 1)]
    left = spec.transitions[(0, -1)]
    expected = enumerate_hop_paths(rho0, right, left, 6)
    final = traj[-1][1].blocks
    for pos, block in expected.items():
        weight = float(np.trace(block).real)
        if weight > 1e-15:
            assert np.max(np.abs(final[pos] - block)) < 1e-13
        else:
            assert pos not in final or np.trace(final[pos]).real < 1e-14


def test_run_record_every():
    spec, init = build_line_walk(np.arccos(0.8), 7)
    traj = run(spec, init, 7, record_every=3)
    assert [k for k, _ in traj] == [0, 3, 6, 7]
    for _, state in traj:
        assert abs(state.total_trace() - 1.0) < 1e-10


@pytest.mark.parametrize("n_steps,record_every", [(0, 1), (9, 1), (9, 4), (3, 10)])
def test_run_lists_iter_run_bitwise(n_steps, record_every):
    for label, spec, state in scenario_cases():
        listed = run(spec, state, n_steps, record_every)
        streamed = list(iter_run(spec, state, n_steps, record_every))
        assert [k for k, _ in listed] == [k for k, _ in streamed], label
        for (_, a), (_, b) in zip(listed, streamed):
            assert_same_blocks(a.blocks, b.blocks)


def test_iter_run_is_lazy(monkeypatch):
    spec, init = build_line_walk(np.arccos(0.8), 2)
    calls = []
    monkeypatch.setattr(core, "step", lambda spec, state: calls.append(1) or state)
    snapshots = iter_run(spec, init, 10 ** 9)
    assert next(snapshots) == (0, init)
    assert calls == []
    assert next(snapshots) == (1, init)
    assert calls == [1]


def test_run_rejects_bad_counts_at_call():
    spec, init = build_line_walk(np.arccos(0.8), 2)
    for n_steps, record_every in ((-1, 1), (2, 0)):
        with pytest.raises(ValueError):
            run(spec, init, n_steps, record_every)
        snapshots = iter_run(spec, init, n_steps, record_every)
        with pytest.raises(ValueError):
            next(snapshots)


# ---------------------------------------------------- compiled engine


def scenario_cases():
    """(label, spec, initial state) for every scenario builder."""
    from oqwalk.linalg import CNOT
    from oqwalk.scenarios import (
        build_bell_grid,
        build_dqc_chain,
        build_state_prep,
        build_transport_chain,
    )

    rng = np.random.default_rng(21)
    return [
        ("line", *build_line_walk(np.arccos(0.8), 12)),
        ("gate", build_gate_walk(random_unitary(2, rng), 0.3),
         pure_state(1, basis_ket(2, 0))),
        ("cnot", build_gate_walk(CNOT, 0.5), mixed_state(1, 4)),
        ("state_prep", build_state_prep(0.7, 2.1, 0.4), mixed_state(1, 2)),
        ("bell", build_bell_grid(), mixed_state("UL", 4)),
        ("transport", *build_transport_chain(9, 16 / 25)),
        ("dqc", *build_dqc_chain([random_unitary(3, rng) for _ in range(5)],
                                 0.6)),
    ]


def assert_same_blocks(got: dict, expected: dict):
    # equal bytes, not just equal values: signed zeros reach the JSON
    # output of the steady-state report
    assert list(got) == list(expected)
    for node, block in expected.items():
        assert np.array_equal(got[node], block), node
        assert got[node].tobytes() == block.tobytes(), node


def test_step_matches_reference_loop_on_scenarios():
    # the compiled engine must reproduce the per-node loop bit for bit,
    # block order included, from every builder's canonical start
    for label, spec, state in scenario_cases():
        for _ in range(30):
            expected = reference_step(spec, state.blocks, PRUNE_TRACE)
            state = step(spec, state)
            assert_same_blocks(state.blocks, expected)
            assert state.traces() == {
                n: float(np.trace(b).real) for n, b in expected.items()}, label


def test_step_matches_reference_loop_in_small_chunks(monkeypatch):
    # chunks of one to three edges split the products of one step, and
    # the terms of one target, across many batches; target sums must
    # still come out bit for bit. The random graphs add in-degree >= 4,
    # sparse occupancy and targets whose first source is unoccupied.
    monkeypatch.setattr(core, "_CHUNK_BYTES", 3 * 16 * 2 ** 2)
    rng = np.random.default_rng(13)
    cases = scenario_cases()
    for dim in (2, 3):
        # nodes 0..3 all feed the sink, so with nodes 1 and 2 occupied
        # its first source is not
        spec = random_graph_spec(rng, 8, dim)
        blocks = random_block_state((1, 2), dim, rng)
        cases.append((f"random d={dim}", spec, WalkerState(blocks)))
    for label, spec, state in cases:
        per_chunk = max(1, core._CHUNK_BYTES // (16 * spec.dim ** 2))
        assert spec._src.size > per_chunk, label  # several chunks per step
        for _ in range(12):
            expected = reference_step(spec, state.blocks, PRUNE_TRACE)
            state = step(spec, state)
            assert_same_blocks(state.blocks, expected)


@pytest.mark.parametrize("chunk", ["default", "small"])
def test_step_matches_reference_loop_with_every_node_occupied(monkeypatch, chunk):
    # every builder from a state that occupies every node: the steps
    # that reuse the spec's cached full-occupancy plan, at the default
    # chunk and at chunks of one to three edges
    if chunk == "small":
        monkeypatch.setattr(core, "_CHUNK_BYTES", 3 * 16 * 2 ** 2)
    # the plan, like the fan, is compiled at first use: build the specs
    # after the chunk is set
    rng = np.random.default_rng(37)
    for label, spec, _ in scenario_cases():
        per_chunk = max(1, core._CHUNK_BYTES // (16 * spec.dim ** 2))
        assert (spec._src.size > per_chunk) == (chunk == "small"), label
        state = WalkerState(random_block_state(spec.nodes, spec.dim, rng))
        assert len(state.blocks) == spec.node_count, label
        for _ in range(10):
            expected = reference_step(spec, state.blocks, PRUNE_TRACE)
            state = step(spec, state)
            assert_same_blocks(state.blocks, expected)


def random_graph_spec(rng, n_nodes: int, dim: int) -> WalkSpec:
    """Random walk graph on 0..n_nodes-1 with complete Kraus families.

    Every node but the last gets 1 to 4 outgoing edges; the last node
    has none, and nodes 0..3 all feed it, so its in-degree is at least
    4. Edges are inserted in random order.
    """
    sink = n_nodes - 1
    edges = []
    for src in range(sink):
        k = int(rng.integers(1, 5))
        others = [n for n in range(sink) if n != src]
        targets = list(rng.choice(others, size=k, replace=False))
        if src < 4:
            targets[0] = sink
        for tgt, op in zip(targets, random_kraus_family(dim, k, rng)):
            edges.append(((src, int(tgt)), op))
    order = rng.permutation(len(edges))
    return WalkSpec(nodes=tuple(range(n_nodes)), dim=dim,
                    transitions=dict(edges[k] for k in order))


def test_step_matches_dense_map_on_random_graphs():
    rng = np.random.default_rng(2024)
    for dim in (1, 2, 3):
        for trial in range(4):
            spec = random_graph_spec(rng, 8, dim)
            in_degree = Counter(tgt for _src, tgt in spec.transitions)
            assert max(in_degree.values()) >= 4
            occupied = 2 if trial % 2 else 8  # sparse, then full occupancy
            blocks = random_block_state(spec.nodes, dim, rng, occupied=occupied)
            state = WalkerState(blocks)
            full = to_full_density(spec, state)
            for _ in range(6):
                expected = reference_step(spec, state.blocks, PRUNE_TRACE)
                state = step(spec, state)
                full = full_map_step(spec, full)
                assert_same_blocks(state.blocks, expected)
                dense, off_diag = extract_blocks(spec, full)
                assert off_diag <= 1e-12
                zero = np.zeros((dim, dim))
                for node in spec.nodes:
                    a = state.blocks.get(node, zero)
                    b = dense.blocks.get(node, zero)
                    assert np.max(np.abs(a - b)) <= 1e-12


def test_step_prunes_negligible_blocks():
    # weight at site 5 stays below PRUNE_TRACE after the step, so its
    # only targets 4 and 6 are dropped
    spec, _ = build_line_walk(np.arccos(0.8), 8)
    rho = random_density(2, np.random.default_rng(4))
    blocks = {0: rho, 5: 1e-17 * np.eye(2) / 2}
    out = step(spec, WalkerState(blocks))
    assert set(out.blocks) == {-1, 1}
    assert_same_blocks(out.blocks, reference_step(spec, blocks, PRUNE_TRACE))
    dense, _ = extract_blocks(spec, full_map_step(spec, to_full_density(
        spec, WalkerState(blocks))))
    assert set(dense.blocks) == {-1, 1}


def test_step_keeps_signed_zeros():
    # Y |0><0| Y^dag has -0.0 entries; a sum started from zeros would
    # turn them into +0.0
    from oqwalk.linalg import PAULI_Y, PAULI_Z

    spec = WalkSpec(nodes=(1, 2), dim=2, transitions={
        (1, 2): PAULI_Y, (2, 1): PAULI_Y, (2, 2): PAULI_Z})
    state = WalkerState({1: outer(basis_ket(2, 0))})
    for _ in range(3):
        expected = reference_step(spec, state.blocks, PRUNE_TRACE)
        state = step(spec, state)
        assert_same_blocks(state.blocks, expected)
    assert np.signbit(state.blocks[1].real).any()


def test_step_empty_state():
    spec = random_graph_spec(np.random.default_rng(6), 5, 2)
    out = step(spec, WalkerState({}))
    assert out.blocks == {} and out.total_trace() == 0.0
    assert step(spec, out).blocks == {}
    full = full_map_step(spec, to_full_density(spec, out))
    assert not full.any()


def blas_build() -> str:
    """The BLAS numpy was built against, for failure messages."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form
        return f"numpy {np.__version__}"
    return f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}"


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8, 32])
def test_tall_product_matches_per_matrix_product(dim):
    # step() forms the (K rho_j) K^dag of a one-operator level as one
    # tall [M_1; ...; M_n] @ K^dag. That keeps the engine's bits only if
    # BLAS gives it the bits of the stacked per-matrix M_j @ K^dag. The
    # second half checks the same premise in the other orientation.
    rng = np.random.default_rng(dim)
    ops = {"complex": rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),
           "real": rng.normal(size=(dim, dim)).astype(complex)}
    for n in (1, 2, 3, 7, 16, 153, 400):
        m = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
        zeros = rng.random(m.shape) < 0.2
        m.real[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
        m.imag[rng.random(m.shape) < 0.2] = -0.0
        for label, op in ops.items():
            k = np.repeat(op[None], n, axis=0)
            # the views step() passes: a chunk's K^dag stack, and a
            # one-operator slice's K^dag
            stacked = m @ k.conj().transpose(0, 2, 1)
            tall = (m.reshape(-1, dim) @ op.conj().T).reshape(-1, dim, dim)
            assert tall.tobytes() == stacked.tobytes(), (
                f"tall and per-matrix M @ K^dag differ at d={dim}, n={n}, "
                f"{label} K under {blas_build()}; step() would change bits")
    # A one-chunk step forms each source's K rho for its D out-edges as
    # one [K_1; ...; K_D] @ rho, which must have the bits of the
    # per-edge K_j @ rho it replaces.
    for width in (1, 2, 3, 4):
        for n in (1, 2, 21):
            fan = (rng.normal(size=(n, width * dim, dim))
                   + 1j * rng.normal(size=(n, width * dim, dim)))
            fan.real[rng.random(fan.shape) < 0.2] = -0.0
            fan.imag[rng.random(fan.shape) < 0.2] = 0.0
            fan[:, -dim:].imag[...] = 0.0  # a real operator among them
            rho = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
            zeros = rng.random(rho.shape) < 0.2
            rho.real[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
            rho.imag[rng.random(rho.shape) < 0.2] = -0.0
            per_source = (fan @ rho).reshape(-1, dim, dim)
            per_edge = fan.reshape(-1, dim, dim) @ np.repeat(rho, width, axis=0)
            assert per_source.tobytes() == per_edge.tobytes(), (
                f"per-source [K_1; ...; K_D] @ rho and per-edge K_j @ rho "
                f"differ at d={dim}, D={width}, n={n} under {blas_build()}; "
                f"step() would change bits")


def test_spec_runs_of_equal_operators():
    # _run numbers the runs of bytewise-equal rows of the operator stack
    def byte_runs(spec):
        rows = [op.tobytes() for op in spec._ops]
        new = [k == 0 or rows[k] != rows[k - 1] for k in range(len(rows))]
        return np.cumsum(new, dtype=np.intp) - 1

    signed = signed_zero_spec()
    empty = WalkSpec(nodes=(1, 2), dim=2, transitions={})
    cases = [(label, spec) for label, spec, _ in scenario_cases()]
    for label, spec in [*cases, ("signed zero", signed), ("no edges", empty)]:
        assert spec._run.shape == spec._src.shape, label
        assert np.array_equal(spec._run, byte_runs(spec)), label
    assert signed._run.tolist() == [0, 0, 1]  # stack (3->1), (1->2), (2->3)
    assert empty._run.size == 0
    assert step(empty, mixed_state(1, 2)).blocks == {}
    state = WalkerState({2: outer(basis_ket(2, 0))})
    for _ in range(4):
        expected = reference_step(signed, state.blocks, PRUNE_TRACE)
        state = step(signed, state)
        assert_same_blocks(state.blocks, expected)


def test_step_matches_reference_with_mixed_and_single_operator_levels():
    # a ring where node i hops to i+1 and i+3 with one operator K, but
    # edge 0->1 carries another: level 0 (each target's edge from its
    # lower source) holds both operators, level 1 only K, and one chunk
    # holds both levels, so a step takes the stacked and the tall path
    rng = np.random.default_rng(17)
    n = 8
    k, other = (random_unitary(2, rng) / np.sqrt(2) for _ in range(2))
    transitions = {}
    for i in range(n):
        transitions[(i, (i + 1) % n)] = other if i == 0 else k
        transitions[(i, (i + 3) % n)] = k
    spec = WalkSpec(nodes=tuple(range(n)), dim=2, transitions=transitions)
    levels, runs = spec._levels.tolist(), spec._run
    single = [bool(runs[lo] == runs[hi - 1]) for lo, hi in zip(levels, levels[1:])]
    assert single == [False, True]
    assert spec._src.size <= core._CHUNK_BYTES // (16 * spec.dim ** 2)
    assert validate_walk(spec).ok
    for occupied in (1, 3, n):
        state = WalkerState(random_block_state(spec.nodes, 2, rng, occupied))
        for _ in range(10):
            expected = reference_step(spec, state.blocks, PRUNE_TRACE)
            state = step(spec, state)
            assert_same_blocks(state.blocks, expected)


def test_spec_fans_out_operators_by_source():
    # row block s of _fan stacks node s's out-operators by slot, the
    # slot of an edge being its index among its source's out-edges in
    # stack order; nodes of smaller out-degree are padded with zeros
    rng = np.random.default_rng(23)
    from oqwalk.scenarios import build_transport_chain

    mixed = random_graph_spec(rng, 8, 3)
    cases = [(label, spec) for label, spec, _ in scenario_cases()]
    cases += [("random", mixed), ("transport", build_transport_chain(50, 0.64)[0]),
              ("no edges", WalkSpec(nodes=(1, 2), dim=2, transitions={}))]
    for label, spec in cases:
        d, v = spec.dim, spec.node_count
        out_degree = np.bincount(spec._src, minlength=v)
        width = int(out_degree.max(initial=0))
        fan = spec._fan
        assert fan.shape == (v, width * d, d), label
        assert not fan.flags.writeable, label
        blocks = fan.reshape(v, width, d, d)
        seen = Counter()
        for row, (src, op) in enumerate(zip(spec._src.tolist(), spec._ops)):
            assert spec._slot[row] == seen[src], label
            assert blocks[src, seen[src]].tobytes() == op.tobytes(), label
            seen[src] += 1
        for node in range(v):
            assert not blocks[node, out_degree[node]:].any(), label
    # the random graph's sink has no out-edges: a block of zeros only
    assert mixed._fan.shape[1] > 0 and not mixed._fan[-1].any()


def test_spec_without_fan_when_padding_exceeds_a_chunk():
    # a hub with far more out-edges than the other nodes would pad every
    # node to its out-degree; past one chunk of padding there is no fan
    # and every step forms K rho one matrix per edge
    rng = np.random.default_rng(31)
    leaves = 70
    transitions = {(0, leaf): k for leaf, k in zip(
        range(1, leaves + 1), random_kraus_family(2, leaves, rng))}
    transitions.update({(leaf, leaf): np.eye(2) for leaf in range(1, leaves + 1)})
    transitions[(1, 0)] = transitions.pop((1, 1))  # weight returns to the hub
    spec = WalkSpec(nodes=tuple(range(leaves + 1)), dim=2, transitions=transitions)
    padding = (spec.node_count * leaves - spec._src.size) * 16 * 2 ** 2
    assert padding > core._CHUNK_BYTES and spec._fan is None
    assert validate_walk(spec).ok
    state = WalkerState(random_block_state((0, 1, 5), 2, rng))
    for _ in range(6):
        expected = reference_step(spec, state.blocks, PRUNE_TRACE)
        state = step(spec, state)
        assert_same_blocks(state.blocks, expected)


def fan_cases():
    """(label, spec, initial states) for the per-source K rho path: mixed
    out-degrees with a sink (padding), the transport chain, no edges."""
    from oqwalk.scenarios import build_transport_chain

    rng = np.random.default_rng(29)
    cases = []
    for dim in (1, 2, 3):
        spec = random_graph_spec(rng, 8, dim)
        cases.append((f"random d={dim}", spec, [WalkerState(random_block_state(
            spec.nodes, dim, rng, occupied=k)) for k in (1, 3, 8)]))
    spec, initial = build_transport_chain(50, 0.64)
    cases.append(("transport", spec, [initial, mixed_state(50, 2)]))
    empty = WalkSpec(nodes=(1, 2, 3), dim=2, transitions={})
    cases.append(("no edges", empty, [mixed_state(2, 2), WalkerState({})]))
    return cases


@pytest.mark.parametrize("chunk", ["default", "tiny"])
def test_step_matches_reference_per_source_and_per_edge(monkeypatch, chunk):
    # at the default chunk every step here forms K rho per occupied
    # source; at a one-edge chunk none does, and both must keep the bits
    cases = fan_cases()
    # the fan is built at first use: build it at the default chunk
    assert all(spec._fan is not None for _, spec, _ in cases)
    if chunk == "tiny":
        monkeypatch.setattr(core, "_CHUNK_BYTES", 16)
    for label, spec, states in cases:
        d = spec.dim
        per_chunk = max(1, core._CHUNK_BYTES // (16 * d ** 2))
        for state in states:
            for _ in range(12):
                fits = len(state.blocks) * spec._fan.shape[1] <= per_chunk * d
                # an empty state or a spec without edges has no product
                assert fits == (chunk == "default" or not state.blocks
                                or not spec._src.size), label
                expected = reference_step(spec, state.blocks, PRUNE_TRACE)
                state = step(spec, state)
                assert_same_blocks(state.blocks, expected)


@pytest.mark.parametrize("chunk", ["default", "tiny"])
def test_step_matches_reference_with_every_edge_used_and_a_node_empty(monkeypatch, chunk):
    # every node but the edge-less sink occupied: a partial step (not the
    # full-occupancy plan) whose every edge is used, per source at the
    # default chunk and per edge at a one-edge chunk
    rng = np.random.default_rng(41)
    specs = [random_graph_spec(rng, 8, dim) for dim in (1, 2, 3)]
    assert all(spec._fan is not None for spec in specs)  # built at the default chunk
    if chunk == "tiny":
        monkeypatch.setattr(core, "_CHUNK_BYTES", 16)
    for spec in specs:
        assert set(spec._src.tolist()) == set(range(spec.node_count - 1))
        targets, fans, _ = core._plan(spec, np.arange(spec.node_count - 1))
        assert np.array_equal(targets, spec._targets)
        assert (fans is not None) == (chunk == "default")
        for _ in range(4):
            blocks = random_block_state(spec.nodes[:-1], spec.dim, rng)
            assert_same_blocks(step(spec, WalkerState(blocks)).blocks,
                               reference_step(spec, blocks, PRUNE_TRACE))


def test_fanned_one_operator_plan_holds_no_k_stack():
    # a partial line step forms K rho per source and every level slice's
    # (K rho_j) K^dag as one tall product: no chunk reads K or a K^dag stack
    spec, state = build_line_walk(np.arccos(0.8), 30)
    for _ in range(12):
        state = step(spec, state)
        pos = np.flatnonzero([n in state.blocks for n in spec.nodes])
        assert 1 < pos.size < spec.node_count
        _, fans, chunks = core._plan(spec, pos)
        assert fans is not None and len(chunks) == 1
        k, k_dag, _, slices = chunks[0]
        assert k is None and k_dag is None
        assert all(shared is not None for *_, shared in slices)


def test_spec_copies_operators_once():
    rng = np.random.default_rng(9)
    b1, c1 = random_kraus_family(2, 2, rng)
    b2, c2 = random_kraus_family(2, 2, rng)
    originals = [m.copy() for m in (b1, c1, b2, c2)]
    spec = two_node_spec(b1, c1, b2, c2)
    state = WalkerState(random_block_state([1, 2], 2, rng))
    before = step(spec, state)
    for m in (b1, c1, b2, c2):
        m[...] = 7.0
    keys = [(1, 2), (1, 1), (2, 1), (2, 2)]
    assert list(spec.transitions) == keys
    for key, m in zip(keys, originals):
        op = spec.transitions[key]
        assert np.array_equal(op, m)
        assert not op.flags.writeable
        assert op.base is spec._ops  # a view into the one operator stack
    assert_same_blocks(step(spec, state).blocks, before.blocks)
    with pytest.raises(ValueError):
        spec.transitions[(1, 2)][0, 0] = 0.0
    with pytest.raises(ValueError):
        before.blocks[1][0, 0] = 0.0


# ------------------------------------------------------- dense oracle


def test_full_density_round_trip():
    rng = np.random.default_rng(12)
    spec = random_two_node(rng)
    state = WalkerState(random_block_state([1, 2], 2, rng))
    full = to_full_density(spec, state)
    assert abs(np.trace(full).real - 1.0) < 1e-12
    back, off_diag = extract_blocks(spec, full)
    assert off_diag == 0.0
    for node, block in state.blocks.items():
        assert np.array_equal(back.blocks[node], block)


def test_full_density_single_node_embedding():
    spec = WalkSpec(nodes=("a",), dim=2, transitions={("a", "a"): np.eye(2)})
    rho = outer(basis_ket(2, 0))
    full = to_full_density(spec, WalkerState({"a": rho}))
    assert np.array_equal(full, rho)


def test_full_density_two_node_layout():
    spec = random_two_node(np.random.default_rng(0))
    state = WalkerState({1: np.eye(2) / 2})
    full = to_full_density(spec, state)
    # internal index major, position minor: node-1 entries sit at even
    # rows/columns
    expected = np.kron(np.eye(2) / 2, np.diag([1.0, 0.0]))
    assert np.array_equal(full, expected)


def test_full_map_agrees_with_block_step():
    rng = np.random.default_rng(77)
    for dim in (2, 3):
        spec = random_two_node(rng, dim=dim)
        state = WalkerState(random_block_state([1, 2], dim, rng))
        full = to_full_density(spec, state)
        for _ in range(50):
            state = step(spec, state)
            full = full_map_step(spec, full)
            blocks, off_diag = extract_blocks(spec, full)
            assert off_diag <= 1e-12
            assert state_trace_distance(state, blocks) < 1e-12
            for node in state.blocks:
                assert np.max(np.abs(state.blocks[node] - blocks.blocks[node])) < 1e-10


def test_full_map_agrees_on_scenario_walks():
    # every scenario family small enough for the dense map (V*d <= 16)
    from oqwalk.linalg import CNOT
    from oqwalk.scenarios import (
        build_bell_grid,
        build_dqc_chain,
        build_state_prep,
        build_transport_chain,
    )
    from oracles import random_unitary

    rng = np.random.default_rng(16)
    specs = [
        build_line_walk(np.arccos(0.8), 1)[0],
        build_gate_walk(CNOT, 0.5),
        build_state_prep(1.0, 0.5, 0.3),
        build_bell_grid(),
        build_transport_chain(8, 16 / 25)[0],
        build_dqc_chain([random_unitary(2, rng) for _ in range(7)], 0.7)[0],
    ]
    for spec in specs:
        state = WalkerState(random_block_state(spec.nodes, spec.dim, rng))
        full = to_full_density(spec, state)
        for _ in range(50):
            state = step(spec, state)
            full = full_map_step(spec, full)
        dense_blocks, off_diag = extract_blocks(spec, full)
        assert off_diag <= 1e-12
        for node in spec.nodes:
            a = state.blocks.get(node)
            b = dense_blocks.blocks.get(node)
            zero = np.zeros((spec.dim, spec.dim))
            diff = np.max(np.abs((a if a is not None else zero)
                                 - (b if b is not None else zero)))
            assert diff <= 1e-10, f"node {node}: {diff:.3e}"


def test_full_map_diagonalizes_in_one_step():
    # an input with position coherences loses them after a single step
    rng = np.random.default_rng(5)
    spec = random_two_node(rng)
    full = random_density(4, rng)
    _, off_before = extract_blocks(spec, full)
    assert off_before > 1e-3  # genuinely off-diagonal input
    out = full_map_step(spec, full)
    _, off_after = extract_blocks(spec, out)
    assert off_after <= 1e-12
    assert abs(np.trace(out).real - 1.0) < 1e-12


def test_full_map_identity_walk_fixed_point():
    spec = WalkSpec(nodes=("a",), dim=2, transitions={("a", "a"): np.eye(2)})
    rho = random_density(2, np.random.default_rng(2))
    assert np.allclose(full_map_step(spec, rho), rho)


# ------------------------------------------------------- steady state


def test_find_steady_state_gate_walk():
    psi = basis_ket(2, 0)
    spec = build_gate_walk(PAULI_X, 0.75)
    result = find_steady_state(spec, pure_state(1, psi))
    assert result.converged
    expected = WalkerState({
        1: 0.25 * outer(psi),
        2: 0.75 * outer(PAULI_X @ psi),
    })
    assert state_trace_distance(result.state, expected) < 1e-9


def test_find_steady_state_is_fixed_point():
    spec = build_gate_walk(PAULI_X, 0.6)
    result = find_steady_state(spec, mixed_state(1, 2))
    again = step(spec, result.state)
    assert state_trace_distance(again, result.state) <= 1e-10


def test_find_steady_state_line_never_converges():
    spec, init = build_line_walk(np.arccos(0.8), 30)
    result = find_steady_state(spec, init, tol=1e-10, max_iter=25)
    assert not result.converged
    assert result.iterations == 25
    assert result.residual > 1e-3
    # the residual is exact even where the loop gives up
    (_, before), (_, last) = run(spec, init, 25)[-2:]
    assert result.residual == state_trace_distance(last, before)
    assert_same_blocks(result.state.blocks, last.blocks)


def plain_steady_loop(spec, state, tol, max_iter):
    """find_steady_state's contract with the exact distance every iteration:
    (state, iterations, converged, residual history)."""
    residuals = []
    for n in range(1, max_iter + 1):
        nxt = step(spec, state)
        residuals.append(state_trace_distance(nxt, state))
        if residuals[-1] <= tol:
            return nxt, n, True, residuals
        state = nxt
    return state, max_iter, False, residuals


def steady_cases():
    """(label, spec, initial state) for the steady-state scenarios."""
    from oqwalk.linalg import CNOT
    from oqwalk.scenarios import (
        build_bell_grid,
        build_dqc_chain,
        build_state_prep,
        build_transport_chain,
    )

    rng = np.random.default_rng(8)
    return [
        ("gate X", build_gate_walk(PAULI_X, 0.75), pure_state(1, basis_ket(2, 0))),
        ("gate CNOT", build_gate_walk(CNOT, 0.5), pure_state(1, basis_ket(4, 2))),
        ("state_prep", build_state_prep(0.3, 1.1, 0.7), mixed_state(1, 2)),
        ("bell UL", build_bell_grid(), mixed_state("UL", 4)),
        ("bell DR", build_bell_grid(), mixed_state("DR", 4)),
        ("transport", *build_transport_chain(20, 0.5)),
        *[(f"dqc omega={omega} T={t}", *build_dqc_chain(
            [random_unitary(2, rng) for _ in range(t)], omega))
          for omega in (0.5, 0.8) for t in (5, 20)],
        # occupied rows that change while the loop runs
        ("transport N=50", *build_transport_chain(50, 0.8 ** 2)),
        ("dqc omega=0.05 T=12", *build_dqc_chain(
            [random_unitary(2, rng) for _ in range(12)], 0.05)),
    ]


@pytest.mark.parametrize("spec,initial", [
    pytest.param(spec, initial, id=label) for label, spec, initial in steady_cases()])
def test_find_steady_state_matches_plain_loop(spec, initial):
    # skipping the exact residual while the trace bound rules out
    # convergence changes nothing: same stop, same residual and blocks
    state, iterations, converged, residuals = plain_steady_loop(
        spec, initial, 1e-10, 5000)
    assert converged
    result = find_steady_state(spec, initial, tol=1e-10, max_iter=5000)
    assert (result.iterations, result.converged) == (iterations, True)
    assert result.residual == residuals[-1]
    assert_same_blocks(result.state.blocks, state.blocks)


@pytest.mark.parametrize("omega,t_final", [(0.5, 5), (0.8, 20)])
def test_find_steady_state_stops_where_bound_meets_tol(omega, t_final):
    # tol is an exact residual of the plain loop, at the iteration where
    # the trace bound is closest to it (the dqc chain's block differences
    # are rank one, so the two agree to rounding, the bound below by its
    # slack): the loop must not pass over that iteration
    from oqwalk.scenarios import build_dqc_chain

    rng = np.random.default_rng(8)
    spec, initial = build_dqc_chain(
        [random_unitary(2, rng) for _ in range(t_final)], omega)
    ratios, residuals, state = [], [], initial
    while not residuals or residuals[-1] > 1e-10:
        nxt = step(spec, state)
        residuals.append(state_trace_distance(nxt, state))
        ratios.append(core._trace_bound(nxt, state, spec.dim) / residuals[-1])
        state = nxt
    k = int(np.argmax(ratios))
    assert abs(ratios[k] - 1) < 1e-12
    tol = residuals[k]
    state, iterations, converged, residuals = plain_steady_loop(
        spec, initial, tol, 5000)
    assert converged and residuals[-1] <= tol
    result = find_steady_state(spec, initial, tol=tol, max_iter=5000)
    assert (result.iterations, result.converged) == (iterations, True)
    assert result.residual == residuals[-1]
    assert_same_blocks(result.state.blocks, state.blocks)


def test_find_steady_state_computes_exact_residual_once(monkeypatch):
    # on the dqc chain the trace bound rules out every iteration but the
    # last, so the eigenvalues are computed once per run
    from oqwalk.scenarios import build_dqc_chain

    rng = np.random.default_rng(3)
    spec, initial = build_dqc_chain([random_unitary(2, rng) for _ in range(20)], 0.5)
    calls = []
    exact = core.state_trace_distance
    monkeypatch.setattr(core, "state_trace_distance", lambda a, b: calls.append(
        len(a.blocks)) or exact(a, b))
    result = find_steady_state(spec, initial)
    assert result.converged and result.iterations > 1000
    assert calls == [21]


def test_find_steady_state_compiles_one_plan_per_occupancy(monkeypatch):
    # every node of the dqc chain is occupied from iteration 21 on: the
    # full-occupancy plan is compiled once and reused by every later step
    from oqwalk.scenarios import build_dqc_chain

    rng = np.random.default_rng(3)
    spec, initial = build_dqc_chain([random_unitary(2, rng) for _ in range(20)], 0.5)
    sizes = []
    plan = core._plan
    monkeypatch.setattr(core, "_plan", lambda spec, pos: sizes.append(
        pos.size) or plan(spec, pos))
    result = find_steady_state(spec, initial)
    assert result.converged and result.iterations > 1000
    assert sizes == [*range(1, 21), 21]
    targets, fans, chunks = spec._full_plan
    arrays = [targets, fans]
    for k, k_dag, gather, slices in chunks:
        arrays += [k, k_dag, gather, *(a for *_, rows, shared in slices
                                       for a in (rows, shared))]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert len(arrays) > 4 and not any(a.flags.writeable for a in arrays)


def test_find_steady_state_tol_validation():
    spec = build_gate_walk(PAULI_X, 0.5)
    with pytest.raises(ValueError):
        find_steady_state(spec, mixed_state(1, 2), tol=0.0)


def test_find_steady_state_rejects_nan_tol():
    # nan <= 0 is False, and no residual is ever <= nan: all max_iter
    # steps would run without converging
    spec = build_gate_walk(PAULI_X, 0.5)
    with pytest.raises(ValueError, match="tol must be positive"):
        find_steady_state(spec, mixed_state(1, 2), tol=float("nan"),
                          max_iter=10)


def test_find_steady_state_rejects_max_iter_below_one():
    # no step would run: the result read iterations=0 or -3, not converged
    spec = build_gate_walk(PAULI_X, 0.5)
    for max_iter in (0, -3):
        with pytest.raises(ValueError, match="^max_iter must be an integer >= 1"):
            find_steady_state(spec, mixed_state(1, 2), max_iter=max_iter)


def test_state_trace_distance_missing_blocks():
    a = WalkerState({1: np.eye(2) / 2})
    b = WalkerState({2: np.eye(2) / 2})
    assert abs(state_trace_distance(a, b) - 1.0) < 1e-12
    assert state_trace_distance(a, a) == 0.0


def test_state_trace_distance_matches_dense_and_per_node_sum():
    # a dict-built state against step() states with partly overlapping
    # support; the per-node distances must be summed one by one in the
    # documented order, which fixes the bytes of the steady residual
    rng = np.random.default_rng(77)
    for dim in (1, 2, 3):
        for _ in range(4):
            spec = random_graph_spec(rng, 16, dim)
            b = step(spec, WalkerState(random_block_state(
                spec.nodes, dim, rng, occupied=6)))
            c = step(spec, b)
            # every other node of b, and up to two nodes b leaves empty
            outside = [n for n in spec.nodes if n not in b.blocks][:2]
            a = WalkerState({n: random_density(dim, rng) / 5 for n in
                             sorted([*list(b.blocks)[::2], *outside])})
            assert outside and len(b.blocks) >= 2
            for x, y, order in (
                    (a, b, [*a.blocks, *(n for n in b.blocks if n not in a.blocks)]),
                    (b, a, [*b.blocks, *(n for n in a.blocks if n not in b.blocks)]),
                    (c, b, sorted(b.blocks.keys() | c.blocks.keys()))):
                got = state_trace_distance(x, y)
                dense = trace_distance(to_full_density(spec, x),
                                       to_full_density(spec, y))
                assert abs(got - dense) <= 1e-12
                zero = np.zeros((dim, dim))
                expected = 0.0
                for node in order:
                    expected += trace_distance(x.blocks.get(node, zero),
                                               y.blocks.get(node, zero))
                assert got == expected


def rows_state(nodes: tuple, pos, rho) -> WalkerState:
    rho = np.array(rho, dtype=complex)
    return WalkerState._from_rows(nodes, np.asarray(pos, dtype=np.intp), rho,
                                  np.trace(rho, axis1=1, axis2=2).real)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 32])
def test_trace_bound_never_exceeds_trace_distance(dim):
    # half the trace norm of a Hermitian block is at least half the size
    # of its trace, so half the summed trace differences, less the
    # rounding slack, bound the distance from below; differences that
    # are semidefinite (rank one here) meet it up to rounding
    rng = np.random.default_rng(50 + dim)
    nodes = tuple(range(10))
    for trial in range(40):
        pos = np.sort(rng.choice(10, size=6, replace=False))
        weight = rng.uniform(0.1, 3.0)  # total trace not 1
        a = np.array([random_density(dim, rng) * weight / 6 for _ in pos])
        kind = trial % 6
        if kind == 0:  # disjoint rows
            other = np.setdiff1d(np.arange(10), pos)[:3]
            b = rows_state(nodes, other, [random_density(dim, rng) / 3
                                          for _ in other])
        elif kind == 1:  # overlapping rows
            other = np.sort(rng.choice(10, size=5, replace=False))
            b = rows_state(nodes, other, [random_density(dim, rng) * weight / 5
                                          for _ in other])
        elif kind == 2:  # equal rows, positive rank-one differences
            kets = rng.normal(size=(pos.size, dim, 2)) @ [1, 1j]
            kets /= np.linalg.norm(kets, axis=1, keepdims=True)
            size = 10.0 ** rng.uniform(-15, -1)
            b = rows_state(nodes, pos, a + size * np.einsum(
                "ki,kj->kij", kets, kets.conj()))
        elif kind == 3:  # equal rows, other blocks, slightly non-Hermitian
            noise = rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape)
            b = rows_state(nodes, pos, [random_density(dim, rng) * weight / 6
                                        for _ in pos] + 1e-17 * noise)
        elif kind == 4:  # equal rows, blocks equal up to the last bits
            b = rows_state(nodes, pos, a * (1 + 4e-16 * rng.normal(size=(6, 1, 1))))
        else:  # a's blocks, and one more row that only b occupies
            extra = np.setdiff1d(np.arange(10), pos)[trial % 4]
            b = rows_state(nodes, np.sort([*pos, extra]), [
                *a[pos < extra], random_density(dim, rng) * 1e-3, *a[pos > extra]])
        a = rows_state(nodes, pos, a)
        for x, y in ((a, b), (b, a)):
            exact = state_trace_distance(x, y)
            bound = core._trace_bound(x, y, dim)
            assert bound <= exact
            slack = core._TRACE_SLACK * dim * core._EPS * (
                x.total_trace() + y.total_trace())
            if kind in (2, 5):  # tight up to rounding of the order of the slack
                assert exact - bound <= 2 * slack + 1e-12 * exact
        # same positions take the direct subtraction, which must give
        # the bits of filling a zero stack over the union of positions
        union = np.union1d(a._pos, b._pos)
        diff = np.zeros((union.size, dim, dim), dtype=complex)
        diff[np.searchsorted(union, a._pos)] = a._rho
        diff[np.searchsorted(union, b._pos)] -= b._rho
        assert core._difference(a, b, a._rho, b._rho).tobytes() == diff.tobytes()
        if kind > 1:  # b under a copy of the node tuple
            copy = rows_state(tuple(list(nodes)), b._pos, b._rho)
            assert copy._nodes is not a._nodes
            assert state_trace_distance(a, copy) == state_trace_distance(a, b)
            assert core._trace_bound(a, copy, dim) == core._trace_bound(a, b, dim)
    # equal states: the bound is the negative slack
    assert core._trace_bound(a, a, dim) < 0 == state_trace_distance(a, a)


def test_walker_state_blocks_are_a_new_dict_on_each_access():
    from oqwalk.io import state_to_dict

    state = mixed_state(0, 2)
    before = state_to_dict(state)
    blocks = state.blocks
    blocks[7] = np.eye(2)
    del blocks[0]
    assert list(state.blocks) == [0]
    assert state.traces() == {0: 1.0}
    assert state_to_dict(state) == before
    with pytest.raises(ValueError, match="read-only"):
        state.blocks[0][0, 0] = 2.0


def test_walker_state_rejects_mixed_dimensions():
    with pytest.raises(ValueError, match="mixed dimensions"):
        WalkerState({1: np.eye(2) / 2, 2: np.eye(3) / 3})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN arithmetic
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_walker_state_rejects_non_finite_blocks(bad):
    block = np.eye(2, dtype=complex) / 2
    block[0, 1] = bad
    with pytest.raises(ValueError, match="node 'b' is not finite"):
        WalkerState({"a": np.eye(2) / 2, "b": block})
    with pytest.raises(ValueError, match="not finite"):
        pure_state(1, [bad, 0])
    with pytest.raises(ValueError, match="not finite"):
        pure_state(1, [1e200, 0])  # |psi><psi| overflows


def test_pure_state_rejects_unnormalized_kets():
    # the norm rule is as_ket's: |psi|^2 within 1e-12 of 1
    with pytest.raises(ValueError, match="not normalized"):
        pure_state(1, [1, 1])
    with pytest.raises(ValueError, match="not normalized"):
        pure_state(1, [1 + 1e-11, 0])
    with pytest.raises(ValueError, match="not normalized"):
        pure_state(1, [0, 0])
    assert pure_state(1, [1 + 1e-13, 0]).total_trace() == (1 + 1e-13) ** 2


@pytest.mark.parametrize("blocks", [[1], [(1, np.eye(2) / 2)], (1,), None,
                                    "ab", np.eye(2) / 2])
def test_walker_state_rejects_non_mappings(blocks):
    with pytest.raises(TypeError, match="must be a mapping"):
        WalkerState(blocks)


def test_walker_state_traces_equal_per_block_traces():
    rng = np.random.default_rng(32)
    for dim in (2, 32):
        blocks = random_block_state(range(6), dim, rng)
        state = WalkerState(blocks)
        assert state.traces() == {
            n: float(np.trace(b).real) for n, b in blocks.items()}
        assert list(state.traces((5, 4, 3, 2, 1, 0))) == [5, 4, 3, 2, 1, 0]
        for node, block in blocks.items():
            assert np.array_equal(state.blocks[node], block)
            assert not state.blocks[node].flags.writeable


def test_empty_walker_state():
    spec = random_graph_spec(np.random.default_rng(8), 5, 3)
    empty = WalkerState({})
    out = step(spec, empty)
    assert out.blocks == {} and out.traces(spec.nodes) == {}
    assert state_trace_distance(empty, empty) == 0.0
    assert state_trace_distance(out, empty) == 0.0
    assert abs(state_trace_distance(empty, mixed_state(0, 3)) - 0.5) < 1e-12


def test_trace_preserved_over_ten_thousand_steps():
    # long-horizon drift check on every scenario family; the line walk
    # runs on a small ring so the step cost stays bounded
    from oqwalk.linalg import CNOT
    from oqwalk.scenarios import (
        build_bell_grid,
        build_dqc_chain,
        build_state_prep,
        build_transport_chain,
    )
    from oracles import random_unitary

    rng = np.random.default_rng(10_000)
    line_spec, line_init = build_line_walk(np.arccos(0.8), 10)
    cases = [
        ("line-ring", line_spec, line_init),
        ("gate", build_gate_walk(random_unitary(2, rng), 0.3),
         mixed_state(1, 2)),
        ("cnot", build_gate_walk(CNOT, 0.5), mixed_state(1, 4)),
        ("state_prep", build_state_prep(0.7, 2.1, 0.4), mixed_state(1, 2)),
        ("bell", build_bell_grid(), mixed_state("UL", 4)),
        ("transport", *build_transport_chain(10, 16 / 25)),
        ("dqc", *build_dqc_chain([random_unitary(2, rng) for _ in range(4)],
                                 0.6)),
    ]
    for label, spec, state in cases:
        worst = 0.0
        for k in range(10_000):
            state = step(spec, state)
            worst = max(worst, abs(state.total_trace() - 1.0))
        assert worst <= 1e-10, f"{label}: trace drifted by {worst:.3e}"
        for block in state.blocks.values():
            assert is_psd(block, 1e-10), f"{label}: block lost positivity"
