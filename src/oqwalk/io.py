"""JSON serialization for walk specs, walker states and trajectories.

Matrices are encoded entry-wise as [re, im] pairs in row-major nested
lists. Node labels must be JSON-native (ints or strings); string keys
of block maps are converted back to ints on load when they parse as
such, or matched against a supplied node collection. A malformed
document raises ValueError with a one-line message.
"""

from __future__ import annotations

import json

import numpy as np

from .core import WalkSpec, WalkerState


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    """Rows of entries, each a finite JSON number or a [re, im] pair of them.

    JSON true/false and numbers written as strings raise ValueError.
    """
    rows = []
    try:
        for row in data:
            entries = []
            for z in row:
                if type(z) is list or type(z) is tuple:
                    if len(z) != 2:
                        raise ValueError(f"entry {z!r} is not a [re, im] pair")
                    re, im = z
                else:
                    re, im = z, 0
                # exact types, since a bool is an int
                if not ((type(re) is float or type(re) is int)
                        and (type(im) is float or type(im) is int)):
                    raise ValueError(f"entry {z!r} is not a number or a "
                                     "[re, im] pair of numbers")
                entries.append(complex(re, im))
            rows.append(entries)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"entry out of range: {exc}") from None
    m = np.array(rows, dtype=complex)
    if not np.isfinite(m).all():
        raise ValueError("entries must be finite")
    return m


def ket_from_json(data) -> np.ndarray:
    return matrix_from_json([data])[0]


def spec_to_dict(spec: WalkSpec) -> dict:
    """The spec's nodes, dim and one entry per edge, in insertion order.

    Each operator is converted once (its edges share one view object), and
    every edge gets its own copy of the nested lists, so that editing one
    edge's matrix in the document changes no other edge.
    """
    transitions = spec.transitions
    rows = {id(op): op for op in transitions.values()}
    rows = {key: matrix_to_json(op) for key, op in rows.items()}
    return {
        "nodes": list(spec.nodes),
        "dim": spec.dim,
        "transitions": [
            {"from": src, "to": tgt, "matrix": [list(map(list, row)) for row in rows[id(op)]]}
            for (src, tgt), op in transitions.items()
        ],
    }


def _get(data, key: str, what: str):
    """data[key]; ValueError when data is not a JSON object or lacks the key."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    if key not in data:
        raise ValueError(f"{what} has no {key!r} key")
    return data[key]


def _label(value, what: str):
    # exact types: a bool is an int, and a label must survive a round trip
    if type(value) is int or type(value) is str:
        return value
    raise ValueError(f"{what} must be an integer or a string, got {value!r}")


def _matrix(data, what: str) -> np.ndarray:
    try:
        return matrix_from_json(data)
    except (TypeError, ValueError) as exc:  # TypeError: not a list of rows
        raise ValueError(f"{what}: {exc}") from None


def spec_from_dict(data: dict) -> WalkSpec:
    """The WalkSpec of a spec_to_dict document; ValueError when malformed."""
    nodes = _get(data, "nodes", "spec")
    if not isinstance(nodes, list):
        raise ValueError(
            f"spec 'nodes' must be a list, got {type(nodes).__name__}")
    dim = _get(data, "dim", "spec")
    if type(dim) is not int:
        raise ValueError(f"spec 'dim' must be an integer, got {dim!r}")
    entries = _get(data, "transitions", "spec")
    if not isinstance(entries, list):
        raise ValueError(
            f"spec 'transitions' must be a list, got {type(entries).__name__}")
    # seen: the first array of each shape and bytes, shared by the edges
    # whose literals equal it, so that the spec converts it once
    transitions, seen = {}, {}
    for k, entry in enumerate(entries):
        what = f"transition {k}"
        key = tuple(_label(_get(entry, end, what), f"{what} {end!r}")
                    for end in ("from", "to"))
        if key in transitions:
            raise ValueError(f"{what} repeats the edge {key[0]!r} -> {key[1]!r}")
        m = _matrix(_get(entry, "matrix", what), what)
        transitions[key] = seen.setdefault((m.shape, m.tobytes()), m)
    return WalkSpec(nodes=tuple(_label(n, "node label") for n in nodes),
                    dim=dim, transitions=transitions)


def _labels_by_key(nodes) -> dict:
    """str(label) -> label; ValueError when two labels print the same."""
    by_key = {}
    for node in nodes:
        key = str(node)
        if key in by_key:
            raise ValueError(
                f"node labels {by_key[key]!r} and {node!r} both print as {key!r}")
        by_key[key] = node
    return by_key


def _node_from_key(key: str, by_key: dict | None):
    if by_key is not None:
        if key in by_key:
            return by_key[key]
        raise ValueError(f"unknown node {key!r}")
    try:
        node = int(key)
    except ValueError:
        return key
    return node if str(node) == key else key  # "01", " 2", "+1" stay strings


def state_to_dict(state: WalkerState) -> dict:
    return {"blocks": {str(node): matrix_to_json(b)
                       for node, b in state.blocks.items()}}


def state_from_dict(data: dict, nodes=None) -> WalkerState:
    """The WalkerState of a state_to_dict document; ValueError when malformed.

    A block key names the label in ``nodes`` that prints as it; without
    ``nodes``, a key that is the ``str()`` of an integer names that
    integer and any other key names itself, so keys and nodes pair 1:1.
    """
    raw = _get(data, "blocks", "state")
    if not isinstance(raw, dict):
        raise ValueError(
            f"state 'blocks' must be a JSON object, got {type(raw).__name__}")
    by_key = None if nodes is None else _labels_by_key(nodes)
    blocks = {}
    for key, mat in raw.items():
        if not isinstance(key, str):
            raise ValueError(f"block key {key!r} is not a string")
        blocks[_node_from_key(key, by_key)] = _matrix(mat, f"block {key!r}")
    return WalkerState(blocks)


def spec_to_json(spec: WalkSpec, indent: int | None = None) -> str:
    return json.dumps(spec_to_dict(spec), indent=indent)


def spec_from_json(text: str) -> WalkSpec:
    return spec_from_dict(json.loads(text))


def state_to_json(state: WalkerState, indent: int | None = None) -> str:
    return json.dumps(state_to_dict(state), indent=indent)


def state_from_json(text: str, nodes=None) -> WalkerState:
    return state_from_dict(json.loads(text), nodes=nodes)
