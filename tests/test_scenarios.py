import numpy as np
import pytest

from oqwalk.analysis import node_fidelity, occupation, readout_probability
from oqwalk.core import (
    WalkerState,
    find_steady_state,
    mixed_state,
    pure_state,
    run,
    state_trace_distance,
    step,
    validate_walk,
)
from oqwalk.linalg import (
    CNOT,
    HADAMARD,
    KET_PLUS,
    PAULI_X,
    basis_ket,
    outer,
)
from oqwalk.scenarios import (
    BELL_NODE_STATES,
    build_bell_grid,
    build_dqc_chain,
    build_gate_walk,
    build_line_walk,
    build_state_prep,
    build_transport_chain,
    state_prep_targets,
)

from oracles import random_ket, random_unitary

THETA = np.arccos(0.8)


# ------------------------------------------------------------- builders


def test_all_builders_validate():
    rng = np.random.default_rng(100)
    specs = [
        build_line_walk(THETA, 5)[0],
        build_gate_walk(PAULI_X, 0.75),
        build_gate_walk(CNOT, 0.5),
        build_gate_walk(random_unitary(2, rng), rng.random() * 0.9 + 0.05),
        build_state_prep(np.pi / 3, np.pi / 4, 0.5),
        build_bell_grid(),
        build_transport_chain(10, 16 / 25)[0],
        build_dqc_chain([random_unitary(2, rng) for _ in range(4)], 0.5)[0],
    ]
    for spec in specs:
        report = validate_walk(spec)
        assert report.ok, str(report)
        assert report.worst() <= 1e-12


def test_gate_walk_rejects_non_unitary():
    with pytest.raises(ValueError):
        build_gate_walk(np.ones((2, 2)), 0.5)


def test_transport_rejects_non_orthogonal_kets():
    with pytest.raises(ValueError):
        build_transport_chain(5, 0.5, KET_PLUS, KET_PLUS)


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_transport_orthonormality_limit_keeps_1e12_promise(p):
    # the residual reaches ~2x the overlap (at p = 0): 1.9e-13 still
    # passes validate_walk at 1e-12, 2.1e-13 and 1e-11 are refused
    spec, _ = build_transport_chain(4, p, [1, 0], [1.9e-13, 1])
    assert validate_walk(spec, tol=1e-12).ok
    for overlap in (2.1e-13, 1e-11):
        with pytest.raises(ValueError, match="orthonormal"):
            build_transport_chain(4, p, [1, 0], [overlap, 1])


def test_transport_rejects_kets_beyond_two_dimensions():
    # the hops act on span(psi1, psi2) only: a third direction would
    # lose its weight
    with pytest.raises(ValueError) as caught:
        build_transport_chain(4, 0.5, [1, 0, 0], [0, 1, 0])
    assert str(caught.value) == "psi1 has dimension 3, expected 2"


def test_gate_unitarity_limit_keeps_1e12_promise():
    # U^dag U - I has diagonal entries ~2 * scale: 0.9e-13 passes
    # validate_walk at 1e-12, 1.1e-13 and 1e-11 are refused
    near = HADAMARD * (1 + 0.9e-13)
    assert validate_walk(build_gate_walk(near, 0.5), tol=1e-12).ok
    assert validate_walk(build_dqc_chain([near] * 3, 0.5)[0], tol=1e-12).ok
    for scale in (1.1e-13, 1e-11):
        far = HADAMARD * (1 + scale)
        with pytest.raises(ValueError, match="unitary"):
            build_gate_walk(far, 0.5)
        with pytest.raises(ValueError, match="unitary"):
            build_dqc_chain([HADAMARD, far], 0.5)


@pytest.mark.parametrize("build, error", [
    (lambda: build_line_walk(float("nan"), 3), ValueError),
    (lambda: build_line_walk(np.inf, 3), ValueError),
    (lambda: build_state_prep(float("nan"), 0.0, 0.5), ValueError),
    (lambda: build_state_prep(0.0, np.inf, 0.5), ValueError),
    (lambda: build_state_prep(0.0, 0.0, np.complex128(0.5 + 0.5j)), TypeError),
    (lambda: build_gate_walk(PAULI_X, np.array([0.5])), TypeError),
    (lambda: build_dqc_chain([HADAMARD], "0.5"), TypeError),
    # ints past the float range are not finite reals
    (lambda: build_gate_walk(PAULI_X, 10 ** 400), ValueError),
    (lambda: build_line_walk(-10 ** 400, 3), ValueError),
    (lambda: build_state_prep(10 ** 400, 0.0, 0.5), ValueError),
    (lambda: build_state_prep(0.0, -10 ** 400, 0.5), ValueError),
    (lambda: build_dqc_chain([HADAMARD], 10 ** 400), ValueError),
    (lambda: build_transport_chain(4, 0.5, [10 ** 400, 0]), ValueError),
])
def test_builders_reject_non_finite_and_non_real_parameters(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.75, 0.9, 1e-16])
def test_gate_walk_is_the_one_gate_dqc_chain(p):
    rng = np.random.default_rng(13)
    for gate in (HADAMARD, CNOT, PAULI_X, random_unitary(3, rng)):
        gate_spec = build_gate_walk(gate, p)
        chain, _ = build_dqc_chain([gate], p)
        assert gate_spec.nodes == (1, 2) and chain.nodes == (0, 1)
        assert gate_spec._ops.tobytes() == chain._ops.tobytes()
        for name in ("_src", "_levels", "_run", "_slot", "_targets", "_out"):
            assert np.array_equal(getattr(gate_spec, name), getattr(chain, name))


def test_dqc_rejects_non_unitary():
    with pytest.raises(ValueError):
        build_dqc_chain([np.ones((2, 2))], 0.5)


def test_line_walk_rejects_bad_window():
    with pytest.raises(ValueError):
        build_line_walk(THETA, 0)


# ------------------------------------------------------------- line walk


def test_line_walk_one_step_occupation():
    spec, init = build_line_walk(THETA, 3)
    occ = occupation(run(spec, init, 1)[-1][1])
    assert abs(occ[1] - 17 / 25) < 1e-14
    assert abs(occ[-1] - 8 / 25) < 1e-14


def test_line_walk_deterministic_right_mover_at_theta_pi_half():
    spec, _ = build_line_walk(np.pi / 2, 4)
    rho = outer(random_ket(2, np.random.default_rng(0)))
    traj = run(spec, WalkerState({0: rho}), 4)
    occ = occupation(traj[-1][1])
    assert set(occ) == {4}
    assert abs(occ[4] - 1.0) < 1e-12


def test_line_walk_soliton_weight():
    spec, init = build_line_walk(THETA, 10)
    occ = occupation(run(spec, init, 10)[-1][1])
    assert occ[10] >= 0.5 - 1e-9


# ------------------------------------------------------------- gate walk


@pytest.mark.parametrize("p", [0.25, 0.5, 0.9])
def test_x_gate_steady_state_form(p):
    rng = np.random.default_rng(int(p * 100))
    for _ in range(5):
        psi = random_ket(2, rng)
        spec = build_gate_walk(PAULI_X, p)
        result = find_steady_state(spec, pure_state(1, psi))
        assert result.converged
        expected = WalkerState({
            1: (1 - p) * outer(psi),
            2: p * outer(PAULI_X @ psi),
        })
        assert state_trace_distance(result.state, expected) <= 1e-9


def test_identity_gate_leaves_internal_state():
    rng = np.random.default_rng(1)
    psi = random_ket(2, rng)
    spec = build_gate_walk(np.eye(2), 0.3)
    result = find_steady_state(spec, pure_state(1, psi))
    assert node_fidelity(result.state, 1, psi) >= 1 - 1e-12
    assert node_fidelity(result.state, 2, psi) >= 1 - 1e-12


def test_random_unitary_gate_steady_state():
    rng = np.random.default_rng(55)
    for _ in range(20):
        u = random_unitary(2, rng)
        psi = random_ket(2, rng)
        p = rng.uniform(0.1, 0.9)
        result = find_steady_state(build_gate_walk(u, p), pure_state(1, psi))
        assert result.converged
        assert abs(readout_probability(result.state, 2) - p) <= 1e-9
        assert node_fidelity(result.state, 2, u @ psi) >= 1 - 1e-9


def test_cnot_gate_walk():
    psi = basis_ket(4, 2)  # |10>: control set
    spec = build_gate_walk(CNOT, 0.5)
    result = find_steady_state(spec, pure_state(1, psi))
    assert abs(readout_probability(result.state, 2) - 0.5) <= 1e-9
    assert node_fidelity(result.state, 2, basis_ket(4, 3)) >= 1 - 1e-9


# ------------------------------------------------------------ state prep


def test_state_prep_converges_from_orthogonal_start():
    spec = build_state_prep(0.0, 0.0, 0.5)
    result = find_steady_state(spec, pure_state(1, basis_ket(2, 1)))
    assert result.converged
    assert node_fidelity(result.state, 2, basis_ket(2, 0)) >= 1 - 1e-9
    assert abs(readout_probability(result.state, 2) - 1.0) <= 1e-9


@pytest.mark.parametrize("alpha,beta,p", [
    (np.pi / 3, np.pi / 4, 0.5),
    (0.3, 1.1, 0.25),
    (1.2, 2.5, 0.7),
])
def test_state_prep_unique_steady_state(alpha, beta, p):
    spec = build_state_prep(alpha, beta, p)
    target, complement = state_prep_targets(alpha, beta)
    assert abs(np.vdot(target, complement)) < 1e-14
    rng = np.random.default_rng(int(alpha * 1000))
    for initial in (mixed_state(1, 2), pure_state(2, complement),
                    pure_state(1, random_ket(2, rng))):
        result = find_steady_state(spec, initial)
        assert result.converged
        assert node_fidelity(result.state, 2, target) >= 1 - 1e-9


# ------------------------------------------------------------- bell grid


def test_bell_grid_uniform_mixture_from_any_start():
    spec = build_bell_grid()
    for start in BELL_NODE_STATES:
        result = find_steady_state(spec, mixed_state(start, 4))
        assert result.converged
        occ = occupation(result.state)
        for node, bell in BELL_NODE_STATES.items():
            assert abs(occ[node] - 0.25) <= 1e-12
            assert node_fidelity(result.state, node, bell) >= 1 - 1e-9


def test_bell_grid_edges_are_parity_projector_products():
    eye = np.eye(4)
    zz, xx = np.diag([1.0, -1, -1, 1]), np.fliplr(eye)
    keep = {"L": (eye - zz) / 2, "R": (eye + zz) / 2,
            "U": (eye - xx) / 2, "D": (eye + xx) / 2}
    flip = {"L": "R", "R": "L", "U": "D", "D": "U"}
    spec = build_bell_grid()
    expected = []
    for node in ("UL", "UR", "DL", "DR"):
        v, h = node
        for v2, mv in ((v, keep[v]), (flip[v], eye - keep[v])):
            for h2, mh in ((h, keep[h]), (flip[h], eye - keep[h])):
                expected.append(((node, v2 + h2), mv @ mh))
    assert list(spec.transitions) == [edge for edge, _ in expected]
    for edge, op in expected:
        assert np.array_equal(spec.transitions[edge], op)
        # every entry is a multiple of 1/4, so the products are exact
        assert np.array_equal(spec.transitions[edge] * 4,
                              np.round(spec.transitions[edge].real * 4))


def test_bell_grid_eigenstate_is_immediate_fixed_point():
    spec = build_bell_grid()
    state = pure_state("UL", BELL_NODE_STATES["UL"])
    after = step(spec, state)
    assert state_trace_distance(after, state) <= 1e-14


def test_bell_grid_sorts_parity_in_one_step():
    spec = build_bell_grid()
    state = pure_state("UL", BELL_NODE_STATES["DR"])
    after = step(spec, state)
    occ = occupation(after)
    assert set(occ) == {"DR"}
    assert abs(occ["DR"] - 1.0) < 1e-12
    assert node_fidelity(after, "DR", BELL_NODE_STATES["DR"]) >= 1 - 1e-12


# ------------------------------------------------------------- transport


def test_transport_mixed_input_arrives_by_n_plus_2():
    n = 10
    spec, init = build_transport_chain(n, 16 / 25)
    traj = run(spec, init, n + 2)
    assert readout_probability(traj[-1][1], n) >= 0.999


def test_transport_pure_input_exact_arrival():
    n = 12
    spec, _ = build_transport_chain(n, 16 / 25)
    traj = run(spec, pure_state(1, KET_PLUS), n - 1)
    occ = occupation(traj[-1][1])
    assert set(occ) == {n}
    assert abs(occ[n] - 1.0) < 1e-12
    # one step earlier nothing has arrived yet
    before = run(spec, pure_state(1, KET_PLUS), n - 2)[-1][1]
    assert readout_probability(before, n) == 0.0


def test_transport_two_nodes_trace_preserved():
    spec, init = build_transport_chain(2, 0.5)
    state = init
    for _ in range(20):
        state = step(spec, state)
        assert abs(state.total_trace() - 1.0) < 1e-12


# ------------------------------------------------------------------ dqc


def test_dqc_uniform_readout_at_balanced_bias():
    rng = np.random.default_rng(8)
    gates = [random_unitary(2, rng) for _ in range(4)]
    spec, init = build_dqc_chain(gates, 0.5)
    result = find_steady_state(spec, init)
    assert result.converged
    assert abs(readout_probability(result.state, 4) - 0.2) <= 1e-8


def test_dqc_biased_readout():
    rng = np.random.default_rng(9)
    gates = [random_unitary(2, rng) for _ in range(4)]
    spec, init = build_dqc_chain(gates, 2 / 3)
    result = find_steady_state(spec, init)
    assert abs(readout_probability(result.state, 4) - 16 / 31) <= 1e-8


def test_dqc_output_state_is_gate_sequence():
    rng = np.random.default_rng(10)
    for t_final in (2, 4):
        gates = [random_unitary(2, rng) for _ in range(t_final)]
        psi0 = random_ket(2, rng)
        spec, init = build_dqc_chain(gates, 0.7, psi0)
        result = find_steady_state(spec, init)
        expected = psi0
        for g in gates:
            expected = g @ expected
        assert node_fidelity(result.state, t_final, expected) >= 1 - 1e-9
        # every intermediate register holds the partial product
        partial = psi0
        for t, g in enumerate(gates, start=1):
            partial = g @ partial
            assert node_fidelity(result.state, t, partial) >= 1 - 1e-9
