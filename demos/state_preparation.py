"""Driving an arbitrary input into a chosen pure qubit state.

The two-node preparation walk has a unique fixed point: the target
state parked at node 2. This script shows convergence from several
initial states and compares the simulated success probability after
2m steps with its closed form, a scalar recurrence on four weights.
"""

import numpy as np

from oqwalk import (
    build_state_prep,
    find_steady_state,
    mixed_state,
    node_fidelity,
    pure_state,
    run,
    state_prep_predicted_pss,
    state_prep_targets,
)
from oqwalk.analysis import state_prep_elements
from oqwalk.linalg import pure_fidelity

alpha, beta, p = np.pi / 3, np.pi / 4, 0.5
spec = build_state_prep(alpha, beta, p)
target, complement = state_prep_targets(alpha, beta)
print(f"target state: ({target[0]:.4f}, {target[1]:.4f}), p = {p}")

print()
print("convergence from different starting points:")
for label, initial in [
    ("mixed at node 1", mixed_state(1, 2)),
    ("complement at node 1", pure_state(1, complement)),
    ("complement at node 2", pure_state(2, complement)),
]:
    result = find_steady_state(spec, initial)
    fid = node_fidelity(result.state, 2, target)
    print(f"  {label:22s}: {result.iterations:3d} steps, fidelity {fid:.12f}")

print()
print("success probability after 2m steps vs its closed form")
initial = mixed_state(1, 2)
elements = state_prep_elements(initial, target, complement)
print("   m   simulated   closed form   |difference|")
for m in range(3, 11):
    final = run(spec, initial, 2 * m)[-1][1]
    simulated = pure_fidelity(final.blocks[2], target)
    predicted = state_prep_predicted_pss(elements, 1.0 - p, m)
    print(f"  {m:2d}   {simulated:.6f}   {predicted:.6f}      {abs(simulated - predicted):.1e}")
