import json

import numpy as np
import pytest

from oqwalk.core import WalkerState, state_trace_distance
from oqwalk.io import (
    ket_from_json,
    matrix_from_json,
    matrix_to_json,
    spec_from_dict,
    spec_from_json,
    spec_to_json,
    state_from_dict,
    state_from_json,
    state_to_json,
)
from oqwalk.scenarios import build_bell_grid, build_gate_walk, build_line_walk
from oqwalk.linalg import PAULI_X

from oracles import random_block_state


def test_matrix_round_trip_exact():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
    assert np.array_equal(back, m)


def test_matrix_from_json_accepts_plain_reals():
    m = matrix_from_json([[1, 0], [0, -1]])
    assert np.array_equal(m, np.diag([1.0, -1.0]).astype(complex))


def test_spec_round_trip_line():
    spec, _ = build_line_walk(np.arccos(0.8), 3)
    back = spec_from_json(spec_to_json(spec))
    assert back.nodes == spec.nodes
    assert back.dim == spec.dim
    assert set(back.transitions) == set(spec.transitions)
    for key, op in spec.transitions.items():
        assert np.max(np.abs(back.transitions[key] - op)) <= 1e-15


def test_spec_round_trip_string_nodes():
    spec = build_bell_grid()
    back = spec_from_json(spec_to_json(spec))
    assert back.nodes == spec.nodes
    for key, op in spec.transitions.items():
        assert np.max(np.abs(back.transitions[key] - op)) <= 1e-15


def test_spec_round_trip_compiles_each_operator_once(monkeypatch):
    # a loaded spec shares one array among the byte-equal matrix
    # literals, so it converts each distinct operator once and compiles
    # to the bytes of the spec it was written from
    from oqwalk import core
    from oqwalk.scenarios import build_dqc_chain

    calls, matrix = [], core._matrix

    def counting(*args):
        calls.append(args[1])
        return matrix(*args)

    monkeypatch.setattr(core, "_matrix", counting)
    literal = [[[0, 1], [1, 0]], [[1, 0], [0, -1]]]
    specs = [build_line_walk(np.arccos(0.8), 20)[0], build_bell_grid(),
             build_dqc_chain([literal[k % 2] for k in range(6)], 0.5)[0]]
    for spec in specs:
        text = spec_to_json(spec)
        calls.clear()
        back = spec_from_json(text)
        assert len(calls) == len(spec._ops) < len(spec.transitions)
        for name in ("_ops", "_group", "_src", "_slot", "_tgt"):
            assert getattr(back, name).tobytes() == getattr(spec, name).tobytes(), name
    # equal bytes in another shape are another matrix
    doc = {"nodes": [0, 1], "dim": 2, "transitions": [
        {"from": 0, "to": 1, "matrix": [[1, 0], [0, 1]]},
        {"from": 1, "to": 0, "matrix": [[1, 0, 0, 1]]}]}
    with pytest.raises(ValueError, match=r"edge \(1 -> 0\) must be a square matrix"):
        spec_from_dict(doc)


def test_state_round_trip_with_node_collection():
    spec = build_gate_walk(PAULI_X, 0.3)
    state = WalkerState(random_block_state([1, 2], 2, np.random.default_rng(6)))
    back = state_from_json(state_to_json(state), nodes=spec.nodes)
    assert state_trace_distance(back, state) <= 1e-15
    assert set(back.blocks) == set(state.blocks)


def test_state_round_trip_integer_keys_without_nodes():
    state = WalkerState({-2: np.eye(2) / 4, 3: np.eye(2) / 4})
    back = state_from_json(state_to_json(state))
    assert set(back.blocks) == {-2, 3}


def test_state_from_dict_int_labels_only_from_canonical_keys():
    keys = ["1", "-3", "0", "1_0", " 2", "00", "+1", "-0", "01", "x"]
    back = state_from_dict({"blocks": {k: [[1]] for k in keys}})
    assert list(back.blocks) == [1, -3, 0, "1_0", " 2", "00", "+1", "-0", "01", "x"]
    # every label prints as its key, so the state round-trips
    assert state_from_json(state_to_json(back)).traces() == back.traces()


def test_ket_from_json_rejects_bad_pair():
    with pytest.raises(ValueError, match=r"not a \[re, im\] pair"):
        ket_from_json([[1, 0], [0, 1, 2]])
    assert np.array_equal(ket_from_json([[0.6, 0], [0, 0.8]]),
                          np.array([0.6, 0.8j]))


@pytest.mark.parametrize("data", [
    [[True, 0], [0, 1]],
    [["1", 0], [0, 1]],
    [[[1, False], 0], [0, 1]],
    [[["1", 0], 0], [0, 1]],
    [[None, 0], [0, 1]],
    [[float("nan"), 0], [0, 1]],
    [[[0, float("inf")], 0], [0, 1]],
    [[10 ** 400, 0], [0, 1]],
])
def test_matrix_from_json_rejects_non_numbers(data):
    # JSON true/false, numbers written as strings and non-finite values
    with pytest.raises(ValueError):
        matrix_from_json(data)
    with pytest.raises(ValueError):
        ket_from_json(data[0])


def test_matrix_from_json_mixes_numbers_and_pairs():
    m = matrix_from_json([[1, [0, -0.5]], [(2.5, 0), -3]])
    assert m.tobytes() == np.array([[1, complex(0, -0.5)], [2.5, -3]],
                                   dtype=complex).tobytes()


EDGE = {"from": 0, "to": 0, "matrix": [[1]]}
SPEC = {"nodes": [0], "dim": 1, "transitions": [EDGE]}


@pytest.mark.parametrize("data", [
    {**SPEC, "dim": "1"},
    {**SPEC, "dim": 1.7},
    {**SPEC, "dim": True},
    {**SPEC, "nodes": "a", "transitions": [{**EDGE, "from": "a", "to": "a"}]},
    {**SPEC, "nodes": [[0]]},
    {**SPEC, "nodes": [0, True]},
    {**SPEC, "transitions": [{**EDGE, "from": [0]}]},
    {"nodes": [0], "dim": 1},
    {"dim": 1, "transitions": []},
    {**SPEC, "transitions": [{"to": 0, "matrix": [[1]]}]},
    {**SPEC, "transitions": [{"from": 0, "matrix": [[1]]}]},
    {**SPEC, "transitions": [{"from": 0, "to": 0}]},
    {**SPEC, "transitions": [{**EDGE, "matrix": 5}]},
    {**SPEC, "transitions": {"0": EDGE}},
    {**SPEC, "transitions": [EDGE, [0, 0]]},
    {**SPEC, "transitions": [EDGE, {**EDGE, "matrix": [[0]]}]},
    [SPEC],
])
def test_spec_from_dict_rejects_malformed(data):
    # every malformed document is a ValueError with a one-line message,
    # never a coercion, a silent overwrite or another exception type
    with pytest.raises(ValueError) as info:
        spec_from_dict(data)
    assert str(info.value) and "\n" not in str(info.value)


@pytest.mark.parametrize("data,nodes", [
    ({}, None),
    ({"blocks": [1]}, None),
    ({"blocks": {"0": 5}}, None),
    ({"blocks": {"0": [[1]], "1": [[1, 0], [0, 1]]}}, None),
    ({"blocks": {"1": [[1]]}}, (1, "1")),
    ({"blocks": {"2": [[1]]}}, (0, 1)),
    ({"blocks": {1: [[1]]}}, None),
    ("blocks", None),
])
def test_state_from_dict_rejects_malformed(data, nodes):
    with pytest.raises(ValueError) as info:
        state_from_dict(data, nodes)
    assert str(info.value) and "\n" not in str(info.value)


def test_spec_to_json_converts_each_operator_once_and_copies_per_edge(monkeypatch):
    from oqwalk import io as oqio
    from oqwalk.scenarios import (build_dqc_chain, build_state_prep,
                                  build_transport_chain)

    specs = [build_line_walk(np.arccos(0.8), 9)[0], build_gate_walk(PAULI_X, 0.3),
             build_state_prep(0.7, 2.1, 0.4), build_bell_grid(),
             build_transport_chain(7, 0.36)[0],
             build_dqc_chain([PAULI_X, [[0, 1j], [1j, 0]]] * 3, 0.6)[0]]
    calls, convert = [], oqio.matrix_to_json

    def counting(m):
        calls.append(1)
        return convert(m)

    monkeypatch.setattr(oqio, "matrix_to_json", counting)
    for spec in specs:
        calls.clear()
        doc = oqio.spec_to_dict(spec)
        assert len(calls) == len(spec._ops) <= len(spec.transitions)
        # the bytes of one conversion per edge
        per_edge = {"nodes": list(spec.nodes), "dim": spec.dim, "transitions": [
            {"from": s, "to": t, "matrix": convert(op)}
            for (s, t), op in spec.transitions.items()]}
        assert spec_to_json(spec) == json.dumps(per_edge)
        # every edge's nested lists are its own
        lists = [doc["transitions"]] + [e["matrix"] for e in doc["transitions"]]
        lists += [row for e in doc["transitions"] for row in e["matrix"]]
        lists += [z for e in doc["transitions"] for row in e["matrix"] for z in row]
        assert len({id(x) for x in lists}) == len(lists)
