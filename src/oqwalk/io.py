"""JSON serialization for walk specs, walker states and trajectories.

Matrices are encoded entry-wise as [re, im] pairs in row-major nested
lists. Node labels must be JSON-native (ints or strings); string keys
of block maps are converted back to ints on load when they parse as
such, or matched against a supplied node collection.
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
    return {
        "nodes": list(spec.nodes),
        "dim": spec.dim,
        "transitions": [
            {"from": src, "to": tgt, "matrix": matrix_to_json(op)}
            for (src, tgt), op in spec.transitions.items()
        ],
    }


def spec_from_dict(data: dict) -> WalkSpec:
    nodes = tuple(data["nodes"])
    transitions = {}
    for entry in data["transitions"]:
        key = (entry["from"], entry["to"])
        transitions[key] = matrix_from_json(entry["matrix"])
    return WalkSpec(nodes=nodes, dim=int(data["dim"]), transitions=transitions)


def _node_from_key(key: str, nodes=None):
    if nodes is not None:
        by_str = {str(n): n for n in nodes}
        if key in by_str:
            return by_str[key]
        raise KeyError(f"unknown node {key!r}")
    try:
        return int(key)
    except ValueError:
        return key


def state_to_dict(state: WalkerState) -> dict:
    return {"blocks": {str(node): matrix_to_json(b)
                       for node, b in state.blocks.items()}}


def state_from_dict(data: dict, nodes=None) -> WalkerState:
    blocks = {}
    for key, mat in data["blocks"].items():
        blocks[_node_from_key(key, nodes)] = matrix_from_json(mat)
    return WalkerState(blocks)


def spec_to_json(spec: WalkSpec, indent: int | None = None) -> str:
    return json.dumps(spec_to_dict(spec), indent=indent)


def spec_from_json(text: str) -> WalkSpec:
    return spec_from_dict(json.loads(text))


def state_to_json(state: WalkerState, indent: int | None = None) -> str:
    return json.dumps(state_to_dict(state), indent=indent)


def state_from_json(text: str, nodes=None) -> WalkerState:
    return state_from_dict(json.loads(text), nodes=nodes)
