"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines. The criteria cover completeness validation, block-versus-dense
oracle equivalence, the line-walk soliton and drift, dissipative gates,
state preparation, Bell sorting, excitation transport, biased
computation chains, global trace/positivity invariants along every
trajectory the other criteria produced, and line walks on rings against
their momentum-space oracle.
"""

import numpy as np

from oqwalk.analysis import (
    dqc_predicted_readout,
    internal_sector_occupation,
    node_fidelity,
    occupation,
    position_moments,
    readout_probability,
    state_prep_elements,
    state_prep_predicted_pss,
    transport_predicted_arrival,
)
from oqwalk.core import (
    WalkerState,
    WalkSpec,
    extract_blocks,
    find_steady_state,
    full_map_step,
    mixed_state,
    pure_state,
    run,
    state_trace_distance,
    step,
    to_full_density,
    validate_walk,
)
from oqwalk.linalg import (
    CNOT,
    KET_MINUS,
    KET_PLUS,
    PAULI_X,
    basis_ket,
    is_psd,
    outer,
    pure_fidelity,
)
from oqwalk.scenarios import (
    BELL_NODE_STATES,
    build_bell_grid,
    build_dqc_chain,
    build_gate_walk,
    build_line_walk,
    build_state_prep,
    build_transport_chain,
    line_hop_operators,
    state_prep_targets,
)

from oracles import (
    biased_coin_distribution,
    momentum_blocks,
    random_block_state,
    random_density,
    random_ket,
    random_kraus_family,
    random_unitary,
)

THETA = np.arccos(0.8)

# Trajectories produced while checking criteria 3..8; criterion 9 runs
# the global trace/positivity invariants over all of them.
TRACKED: list[tuple[str, list]] = []


def _track(label: str, trajectory) -> None:
    TRACKED.append((label, trajectory))


def _report(index: int, title: str, failures: list[str]) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"[criterion {index}] {title}: {verdict}")
    for line in failures:
        print(f"    {line}")
    assert not failures, f"criterion {index} failed: {failures}"


# ---------------------------------------------------------------------
# Criterion 1: every builder satisfies the completeness relation with
# residual <= 1e-12 across random parameters; an overcomplete family is
# rejected.
# ---------------------------------------------------------------------


def test_criterion_1_completeness_validation():
    failures = []
    rng = np.random.default_rng(2024)

    def check(label, spec):
        report = validate_walk(spec)
        worst = max(report.residuals.values())
        if not report.ok or worst > 1e-12:
            failures.append(f"{label}: worst residual {worst:.3e}")

    for k in range(10):
        check(f"line theta#{k}", build_line_walk(rng.uniform(0, 2 * np.pi), 3)[0])
        p = rng.uniform(0.05, 0.95)
        check(f"gate 1q #{k}", build_gate_walk(random_unitary(2, rng), p))
        check(f"gate 2q #{k}", build_gate_walk(random_unitary(4, rng), p))
        check(f"state_prep #{k}", build_state_prep(
            rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi),
            rng.uniform(0.05, 0.95)))
        u = random_unitary(2, rng)
        check(f"transport #{k}", build_transport_chain(
            int(rng.integers(2, 12)), rng.uniform(0, 1), u[:, 0], u[:, 1])[0])
        check(f"dqc #{k}", build_dqc_chain(
            [random_unitary(2, rng) for _ in range(int(rng.integers(1, 6)))],
            rng.uniform(0.05, 0.95))[0])
    check("bell", build_bell_grid())

    overcomplete = WalkSpec(
        nodes=(1, 2), dim=2,
        transitions={(1, 2): np.eye(2), (1, 1): np.eye(2),
                     (2, 1): np.eye(2) / np.sqrt(2),
                     (2, 2): np.eye(2) / np.sqrt(2)})
    if validate_walk(overcomplete).ok:
        failures.append("overcomplete two-node family was accepted")
    if abs(validate_walk(overcomplete).residuals[1] - 1.0) > 1e-12:
        failures.append("overcomplete node residual is not 1")

    _report(1, "completeness validation", failures)


# ---------------------------------------------------------------------
# Criterion 2: block evolution equals the dense full-space map for 50
# steps entrywise to 1e-10, and the dense map kills position coherences
# in exactly one step.
# ---------------------------------------------------------------------


def test_criterion_2_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(7)
    cases = [
        ("gate", build_gate_walk(random_unitary(2, rng), 0.4)),
        ("state_prep", build_state_prep(np.pi / 3, np.pi / 4, 0.5)),
        ("bell", build_bell_grid()),
        ("line3", build_line_walk(THETA, 1)[0]),
    ]
    for label, spec in cases:
        blocks = random_block_state(spec.nodes, spec.dim, rng)
        state = WalkerState(blocks)
        full = to_full_density(spec, state)
        worst = 0.0
        for _ in range(50):
            state = step(spec, state)
            full = full_map_step(spec, full)
            dense_blocks, off_diag = extract_blocks(spec, full)
            if off_diag > 1e-12:
                failures.append(f"{label}: off-diagonal leak {off_diag:.3e}")
                break
            for node in spec.nodes:
                a = state.blocks.get(node)
                b = dense_blocks.blocks.get(node)
                if a is None and b is None:
                    continue
                zero = np.zeros((spec.dim, spec.dim))
                diff = np.max(np.abs((a if a is not None else zero)
                                     - (b if b is not None else zero)))
                worst = max(worst, diff)
        if worst > 1e-10:
            failures.append(f"{label}: block/dense mismatch {worst:.3e}")

    # arbitrary input with position coherences diagonalizes in one step
    for label, spec in cases:
        dim = spec.dim * spec.node_count
        full = random_density(dim, rng)
        _, off_before = extract_blocks(spec, full)
        if off_before < 1e-3:
            failures.append(f"{label}: test input lacks coherences")
        out = full_map_step(spec, full)
        _, off_after = extract_blocks(spec, out)
        if off_after > 1e-12:
            failures.append(
                f"{label}: coherences survive one step ({off_after:.3e})")
        if abs(np.trace(out).real - 1.0) > 1e-12:
            failures.append(f"{label}: dense map lost trace")

    _report(2, "block evolution matches dense oracle", failures)


# ---------------------------------------------------------------------
# Criterion 3: line walk with cos(theta) = 4/5. The deterministic
# sector carries weight 0.5 at site +n with internal state |+><+|; the
# diffusive sector is supported on |-><-| and drifts by -7/25 per step,
# matching the independent binomial oracle site by site.
# ---------------------------------------------------------------------


def test_criterion_3_line_walk_soliton_and_drift():
    failures = []
    p_right = (3 / 5) ** 2  # |-> sector hops right with sin^2(theta)
    for n in (10, 20, 50, 100):
        spec, initial = build_line_walk(THETA, n)
        trajectory = run(spec, initial, n)
        _track(f"line n={n}", trajectory)
        state = trajectory[-1][1]

        plus = internal_sector_occupation(state, KET_PLUS)
        if abs(plus.get(n, 0.0) - 0.5) > 1e-9:
            failures.append(f"n={n}: soliton weight {plus.get(n, 0.0)!r}")
        stray = sum(w for site, w in plus.items() if site != n)
        if stray > 1e-12:
            failures.append(f"n={n}: soliton leaked {stray:.3e}")
        if occupation(state)[n] < 0.5 - 1e-9:
            failures.append(f"n={n}: site +n occupation below 0.5")

        # the rightmost block holds 0.5 |+><+| plus a pure |-> remnant:
        # no +/- coherences, and its |+> part is exactly the soliton
        front = state.blocks[n]
        coherence = abs(KET_PLUS.conj() @ front @ KET_MINUS)
        if coherence > 1e-12:
            failures.append(f"n={n}: +/- coherence {coherence:.3e}")
        if abs(pure_fidelity(front, KET_PLUS) - 0.5) > 1e-9:
            failures.append(f"n={n}: front block |+> weight off")

        # every other site is supported on |-><-| alone; the normalized
        # check divides by the site weight, so it is applied where the
        # weight sits clear of the ~1e-18 float dust the long operator
        # products leave behind
        for site, block in state.blocks.items():
            if site == n:
                continue
            if pure_fidelity(block, KET_PLUS) > 1e-12:
                failures.append(f"n={n}: |+> weight at site {site}")
                break
            if float(np.trace(block).real) >= 1e-8 and \
                    node_fidelity(state, site, KET_MINUS) < 1 - 1e-9:
                failures.append(f"n={n}: site {site} not in |->")
                break

        minus = internal_sector_occupation(state, KET_MINUS)
        oracle = biased_coin_distribution(n, p_right)
        worst = max(abs(minus.get(site, 0.0) - 0.5 * w)
                    for site, w in oracle.items())
        if worst > 1e-10:
            failures.append(f"n={n}: binomial oracle mismatch {worst:.3e}")
        mean, _ = position_moments(minus)
        if abs(mean / n - (-7 / 25)) > 1e-6:
            failures.append(f"n={n}: drift {mean / n} != -7/25")
        oracle_mean = sum(site * w for site, w in oracle.items())
        if abs(oracle_mean / n - (-7 / 25)) > 1e-12:
            failures.append(f"n={n}: oracle drift sanity check failed")

    _report(3, "line walk soliton and drift", failures)


# ---------------------------------------------------------------------
# Criterion 4: the gate walk settles into
# q |psi><psi| at node 1 + p U|psi><psi|U^dag at node 2
# (trace distance <= 1e-14) for the X gate, random single-qubit
# unitaries and the CNOT. The chain's second eigenvalue is 1 - p - q = 0,
# so the first step lands on the fixed point and the loop stops at the
# second.
# ---------------------------------------------------------------------


def _check_gate_steady(failures, label, gate, p, psi, track=False):
    spec = build_gate_walk(gate, p)
    initial = pure_state(1, psi)
    if track:
        _track(label, run(spec, initial, 30))
    result = find_steady_state(spec, initial)
    if not result.converged or result.iterations != 2:
        failures.append(f"{label}: {result.iterations} iterations, "
                        f"converged {result.converged}")
        return
    expected = WalkerState({
        1: (1 - p) * outer(psi),
        2: p * outer(gate @ psi),
    })
    dist = state_trace_distance(result.state, expected)
    if dist > 1e-14:
        failures.append(f"{label}: trace distance {dist:.3e}")


def test_criterion_4_gate_walk_steady_states():
    failures = []
    rng = np.random.default_rng(41)
    for p in (0.25, 0.5, 0.9):
        for k in range(10):
            _check_gate_steady(failures, f"X p={p} #{k}", PAULI_X, p,
                               random_ket(2, rng), track=(k == 0))
    for k in range(5):
        u = random_unitary(2, rng)
        for p in (0.25, 0.5, 0.9):
            _check_gate_steady(failures, f"U#{k} p={p}", u, p,
                               random_ket(2, rng), track=(p == 0.5))
    for p in (0.25, 0.5, 0.9):
        for k in range(10):
            _check_gate_steady(failures, f"CNOT p={p} #{k}", CNOT, p,
                               random_ket(4, rng), track=(k == 0))
        _check_gate_steady(failures, f"CNOT p={p} basis", CNOT, p,
                           basis_ket(4, 2))
    _report(4, "dissipative gate steady states", failures)


# ---------------------------------------------------------------------
# Criterion 5: state preparation reaches the target pure state at node
# 2 from arbitrary initial states, and the closed-form success
# probability after 2m steps equals the simulation to 1e-13 for
# m = 1..10, at every setting from four starts; from the mixed node-1
# start at p = 0.5 both exceed 0.999 at m = 10.
# ---------------------------------------------------------------------


def test_criterion_5_state_preparation():
    failures = []
    rng = np.random.default_rng(51)
    settings = [(np.pi / 3, np.pi / 4, 0.5), (0.4, 1.9, 0.3), (1.1, 5.0, 0.7)]
    for k in range(10):
        alpha, beta, p = settings[k % len(settings)]
        spec = build_state_prep(alpha, beta, p)
        target, _ = state_prep_targets(alpha, beta)
        initial = WalkerState(random_block_state([1, 2], 2, rng))
        if k == 0:
            _track("state_prep", run(spec, initial, 60))
        result = find_steady_state(spec, initial)
        if not result.converged:
            failures.append(f"prep #{k}: no convergence")
            continue
        fid = node_fidelity(result.state, 2, target)
        weight = readout_probability(result.state, 2)
        if fid < 1 - 1e-9 or abs(weight - 1.0) > 1e-9:
            failures.append(f"prep #{k}: fidelity {fid}, weight {weight}")

    for alpha, beta, p in settings:
        spec = build_state_prep(alpha, beta, p)
        target, complement = state_prep_targets(alpha, beta)
        starts = [
            ("node1-complement", pure_state(1, complement)),
            ("node1-mixed", mixed_state(1, 2)),
            ("node2-complement", pure_state(2, complement)),
            ("random", WalkerState(random_block_state([1, 2], 2, rng))),
        ]
        for label, initial in starts:
            elements = state_prep_elements(initial, target, complement)
            trajectory = run(spec, initial, 20)
            if label == "node1-mixed" and p == 0.5:
                _track("state_prep pss", trajectory)
            for m in range(1, 11):
                predicted = state_prep_predicted_pss(elements, 1.0 - p, m)
                simulated = pure_fidelity(trajectory[2 * m][1].blocks[2], target)
                if abs(simulated - predicted) > 1e-13:
                    failures.append(
                        f"p={p} {label} m={m}: sim {simulated!r} vs exact {predicted!r}")
            # from the mixed node-1 start at p = 0.5 both approach
            # certainty by m = 10
            if label == "node1-mixed" and p == 0.5 and min(simulated, predicted) <= 0.999:
                failures.append(f"p={p} {label} m=10: sim {simulated!r}, "
                                f"exact {predicted!r}, not above 0.999")

    _report(5, "dissipative state preparation", failures)


# ---------------------------------------------------------------------
# Criterion 6: the Bell grid sorts an unpolarized pair started at any
# node into the quarter-weighted Bell mixture.
# ---------------------------------------------------------------------


def test_criterion_6_bell_grid():
    failures = []
    spec = build_bell_grid()
    for start in BELL_NODE_STATES:
        initial = mixed_state(start, 4)
        _track(f"bell from {start}", run(spec, initial, 10))
        result = find_steady_state(spec, initial)
        if not result.converged:
            failures.append(f"start {start}: no convergence")
            continue
        occ = occupation(result.state)
        for node, bell in BELL_NODE_STATES.items():
            if abs(occ.get(node, 0.0) - 0.25) > 1e-9:
                failures.append(f"start {start}: weight at {node} = {occ.get(node)}")
            fid = node_fidelity(result.state, node, bell)
            if fid < 1 - 1e-9:
                failures.append(f"start {start}: fidelity at {node} = {fid}")
    _report(6, "Bell-state sorting", failures)


# ---------------------------------------------------------------------
# Criterion 7: transport across a 100-node chain: from mixed input the
# last node's occupation equals the closed form to 1e-13 at every step
# through step 102 (0 before step 99, (1 + q^99) / 2 at step 99, then 1),
# also on three more chains; a pure fast-sector input arrives with
# probability one in exactly 99 steps.
# ---------------------------------------------------------------------


def test_criterion_7_transport():
    failures = []
    for n, p in ((100, (4 / 5) ** 2), (100, 0.36), (50, 0.9), (20, 0.5)):
        spec, mixed_initial = build_transport_chain(n, p)
        trajectory = run(spec, mixed_initial, n + 2)
        _track(f"transport mixed N={n} p={p}", trajectory)
        for k, state in trajectory:
            arrived = readout_probability(state, n)
            exact = transport_predicted_arrival(n, p, k)
            if not abs(arrived - exact) <= 1e-13:
                failures.append(f"mixed input N={n} p={p}: occupation "
                                f"{arrived} at step {k}, exact {exact}")

    n = 100
    spec, _ = build_transport_chain(n, (4 / 5) ** 2)

    pure_traj = run(spec, pure_state(1, KET_PLUS), n - 1)
    _track("transport pure", pure_traj)
    final = readout_probability(pure_traj[-1][1], n)
    if abs(final - 1.0) > 1e-10:
        failures.append(f"pure input: occupation {final} at step {n - 1}")
    before = pure_traj[-2][1]
    if readout_probability(before, n) > 1e-12:
        failures.append("pure input arrived before step 99")

    _report(7, "excitation transport", failures)


# ---------------------------------------------------------------------
# Criterion 8: computation chain read-out equals the closed-form
# stationary value (1/(T+1) at even bias, 16/31 at omega = 2/3, T = 4),
# increases with the forward bias, and the final register holds the
# full gate product.
# ---------------------------------------------------------------------


def test_criterion_8_dqc_chain():
    failures = []
    rng = np.random.default_rng(88)
    for t_final in (2, 4, 8):
        gates = [random_unitary(2, rng) for _ in range(t_final)]
        spec, initial = build_dqc_chain(gates, 0.5)
        if t_final == 4:
            _track("dqc T=4", run(spec, initial, 120))
        result = find_steady_state(spec, initial)
        readout = readout_probability(result.state, t_final)
        if abs(readout - 1 / (t_final + 1)) > 1e-8:
            failures.append(f"T={t_final}: readout {readout} != 1/{t_final + 1}")

    gates4 = [random_unitary(2, rng) for _ in range(4)]
    spec, initial = build_dqc_chain(gates4, 2 / 3)
    result = find_steady_state(spec, initial)
    readout = readout_probability(result.state, 4)
    if abs(readout - 16 / 31) > 1e-8:
        failures.append(f"omega=2/3: readout {readout} != 16/31")

    for t_final in (2, 4, 8):
        gates = [random_unitary(2, rng) for _ in range(t_final)]
        psi0 = random_ket(2, rng)
        previous = -1.0
        for omega in (0.5, 0.6, 0.7, 0.8, 0.9):
            spec, initial = build_dqc_chain(gates, omega, psi0)
            result = find_steady_state(spec, initial)
            if not result.converged:
                failures.append(f"T={t_final} omega={omega}: no convergence")
                continue
            readout = readout_probability(result.state, t_final)
            predicted = dqc_predicted_readout(omega, t_final)
            if abs(readout - predicted) > 1e-8:
                failures.append(
                    f"T={t_final} omega={omega}: readout {readout} vs {predicted}")
            if not (1 / (t_final + 1) - 1e-8 <= readout < 1.0):
                failures.append(
                    f"T={t_final} omega={omega}: readout {readout} out of range")
            if readout <= previous:
                failures.append(
                    f"T={t_final}: readout not increasing at omega={omega}")
            previous = readout
            expected = psi0
            for g in gates:
                expected = g @ expected
            fid = node_fidelity(result.state, t_final, expected)
            if fid < 1 - 1e-9:
                failures.append(f"T={t_final} omega={omega}: output fidelity {fid}")

    _report(8, "dissipative computation chain", failures)


# ---------------------------------------------------------------------
# Criterion 9: along every trajectory the earlier criteria produced,
# the total trace stays within 1e-10 of one and every block stays
# positive semidefinite within 1e-10.
# ---------------------------------------------------------------------


def test_criterion_9_global_invariants():
    assert TRACKED, "criteria 3..8 must run before the invariant sweep"
    failures = []
    snapshots = 0
    blocks = 0
    for label, trajectory in TRACKED:
        for step_index, state in trajectory:
            snapshots += 1
            drift = abs(state.total_trace() - 1.0)
            if drift > 1e-10:
                failures.append(f"{label} step {step_index}: trace off by {drift:.3e}")
            for node, block in state.blocks.items():
                blocks += 1
                if not is_psd(block, 1e-10):
                    failures.append(
                        f"{label} step {step_index}: block {node} not PSD")
    print(f"    checked {snapshots} snapshots / {blocks} blocks "
          f"from {len(TRACKED)} trajectories")
    _report(9, "trace and positivity invariants", failures)


# ---------------------------------------------------------------------
# Criterion 11: a line walk on a ring of M = 2 window + 1 sites, built
# from its edge dict, matches the momentum-space oracle block by block
# to 1e-13, for hops that do not commute: Attal et al.'s example
# (J. Stat. Phys. 147 (2012)), the theta walk at cos(theta) = 4/5 and
# QR-isometry pairs at d = 2 and 3. At window 200 the walker never
# reaches the seam in 150 steps; at window 60 it wraps in 400 steps and
# fills every site, so steps on the full plan run too.
# ---------------------------------------------------------------------


def test_criterion_11_line_walks_match_momentum_oracle():
    failures = []
    rng = np.random.default_rng(23)
    attal = (np.array([[1, 1], [0, 1]]) / np.sqrt(3), np.array([[1, 0], [-1, 1]]) / np.sqrt(3))
    pairs = [("attal", attal), ("theta", line_hop_operators(THETA)),
             ("qr d=2", random_kraus_family(2, 2, rng)),
             ("qr d=3", random_kraus_family(3, 2, rng))]
    for label, (right, left) in pairs:
        d = right.shape[0]
        rho0 = random_density(d, rng)
        for window, n_steps in ((200, 150), (60, 400)):
            m = 2 * window + 1
            sites = tuple(range(-window, window + 1))
            hops = {}
            for s in sites:
                hops[s, (s + window + 1) % m - window] = right
                hops[s, (s + window - 1) % m - window] = left
            spec = WalkSpec(sites, d, hops)
            state, filled = WalkerState({0: rho0}), 0
            for _ in range(n_steps):
                state = step(spec, state)
                filled += len(state.blocks) == m
            expected = momentum_blocks(right, left, rho0, window, n_steps)
            got = np.zeros_like(expected)
            blocks = state.blocks
            for i, site in enumerate(sites):
                got[i] = blocks.get(site, 0)
            worst = float(np.abs(got - expected).max())
            if worst > 1e-13:
                failures.append(f"{label} window={window}: block error {worst:.3e}")
            if (filled > 0) != (window < n_steps):
                failures.append(f"{label} window={window}: {filled} steps fill every site")

    _report(11, "line walks match their momentum-space oracle", failures)
