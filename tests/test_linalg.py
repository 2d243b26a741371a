import numpy as np
import pytest

from oqwalk.analysis import (
    dqc_predicted_readout,
    position_moments,
    state_prep_predicted_pss,
    transport_predicted_arrival,
)
from oqwalk.core import (
    WalkerState,
    WalkSpec,
    extract_blocks,
    find_steady_state,
    full_map_step,
    iter_run,
    mixed_state,
    run,
    validate_walk,
)
from oqwalk.linalg import (
    HADAMARD,
    IDENTITY_2,
    KET_MINUS,
    KET_PLUS,
    PAULI_X,
    PAULI_Z,
    adjoint,
    apply_kraus,
    as_ket,
    as_operator,
    basis_ket,
    half_trace_norms,
    hermitian_eigenvalues,
    is_psd,
    is_unitary,
    kron,
    normalized,
    outer,
    pure_fidelity,
    sum_left_to_right,
    trace_distance,
)
from oqwalk.scenarios import (
    build_dqc_chain,
    build_gate_walk,
    build_line_walk,
    build_state_prep,
    build_transport_chain,
)

from oracles import random_density, random_kraus_family, random_ket


def test_kron_pauli_zz():
    assert np.allclose(kron(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1]))


def test_kron_identity():
    assert np.array_equal(kron(IDENTITY_2, IDENTITY_2), np.eye(4))


def test_kron_first_factor_most_significant():
    # flipping qubit 1 sends |00> to |10>
    ket00 = basis_ket(4, 0)
    assert np.allclose(kron(PAULI_X, IDENTITY_2) @ ket00, basis_ket(4, 2))


def test_kron_trace_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


def test_adjoint():
    assert np.array_equal(adjoint(PAULI_Z), PAULI_Z)
    ket0, ket1 = basis_ket(2, 0), basis_ket(2, 1)
    assert np.array_equal(adjoint(outer(ket0, ket1)), outer(ket1, ket0))
    assert np.array_equal(adjoint(1j * np.eye(2)), -1j * np.eye(2))


def test_apply_kraus_pauli_flip():
    rho = outer(basis_ket(2, 0))
    assert np.allclose(apply_kraus(rho, [PAULI_X]), outer(basis_ket(2, 1)))


def test_apply_kraus_line_hops_preserve_trace():
    # right/left hop pair with cos(theta) = 4/5
    theta = np.arccos(0.8)
    right = np.sin(theta) * outer(KET_MINUS) + outer(KET_PLUS)
    left = np.cos(theta) * outer(KET_MINUS)
    out = apply_kraus(np.eye(2) / 2, [right, left])
    assert abs(np.trace(out).real - 1.0) < 1e-12


def test_apply_kraus_annihilates_orthogonal_sector():
    theta = np.arccos(0.8)
    left = np.cos(theta) * outer(KET_MINUS)
    out = apply_kraus(outer(KET_PLUS), [left])
    assert np.max(np.abs(out)) < 1e-15


def test_apply_kraus_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_kraus(np.eye(2), [np.eye(3)])


def test_apply_kraus_trace_preserving_property():
    rng = np.random.default_rng(5)
    for dim, count in [(2, 2), (3, 3), (4, 2)]:
        for _ in range(10):
            ops = random_kraus_family(dim, count, rng)
            assert np.abs(sum(k.conj().T @ k for k in ops) - np.eye(dim)).max() < 1e-13
            rho = random_density(dim, rng)
            out = apply_kraus(rho, ops)
            assert abs(np.trace(out).real - 1.0) < 1e-12, "trace not preserved"
            assert np.linalg.eigvalsh(out)[0] >= -1e-10, "positivity lost"
            # trace preservation also holds for indefinite Hermitian input
            herm = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            herm = (herm + herm.conj().T) / 2
            assert abs(np.trace(apply_kraus(herm, ops)) - np.trace(herm)) < 1e-12


def test_hermitian_eigenvalues_basics():
    assert np.allclose(hermitian_eigenvalues(PAULI_Z), [-1, 1])
    proj = (np.eye(4) - kron(PAULI_Z, PAULI_Z)) / 2
    assert np.allclose(hermitian_eigenvalues(proj), [0, 0, 1, 1])
    assert np.allclose(hermitian_eigenvalues(np.eye(2) / 2), [0.5, 0.5])


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eigendecomposition_reconstruction():
    rng = np.random.default_rng(17)
    for dim in (2, 4, 8):
        for _ in range(5):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            a = (a + a.conj().T) / 2
            w, v = np.linalg.eigh(a)
            assert np.max(np.abs(a - (v * w) @ v.conj().T)) <= 1e-9
            assert np.allclose(hermitian_eigenvalues(a), w)


def test_is_psd():
    assert is_psd(np.eye(2))
    assert not is_psd(-np.eye(2))
    assert is_psd(outer(KET_PLUS))
    assert not is_psd(np.array([[0, 1], [0, 0]], dtype=complex))


def test_trace_distance_values():
    rho = random_density(3, np.random.default_rng(2))
    assert trace_distance(rho, rho) == 0
    assert abs(trace_distance(outer(basis_ket(2, 0)), outer(basis_ket(2, 1))) - 1) < 1e-12
    assert abs(trace_distance(np.eye(2) / 2, outer(basis_ket(2, 0))) - 0.5) < 1e-12


def test_trace_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        trace_distance(np.eye(2), np.eye(3))


def test_trace_distance_metric_properties():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a, b, c = (random_density(3, rng) for _ in range(3))
        assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-12
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


def test_trace_distance_is_half_the_hermitian_parts_trace_norm_bit_for_bit():
    # the one kernel behind the steady-state residual: half the summed
    # |eigenvalues| of (D + D^dag)/2, for a single matrix and for a stack
    rng = np.random.default_rng(1404)
    for d in range(1, 34):
        pairs = []
        for _ in range(30):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho, sigma = random_density(d, rng), (a + a.conj().T) / 2
            diff = rho - sigma
            expected = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(
                (diff + diff.conj().T) / 2))))
            assert trace_distance(rho, sigma) == expected
            pairs.append((diff, expected))
        stack = np.array([diff for diff, _ in pairs])
        assert half_trace_norms(stack).tolist() == [e for _, e in pairs]


def test_sum_left_to_right_does_not_compensate():
    # a compensated sum (math.fsum, Python 3.12's sum()) gives 1.0 here
    assert sum_left_to_right([1e16, 1.0, -1e16]) == 0.0
    assert sum_left_to_right(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3
    assert sum_left_to_right([]) == 0.0


def test_pure_fidelity():
    assert abs(pure_fidelity(outer(KET_PLUS), KET_PLUS) - 1) < 1e-12
    assert abs(pure_fidelity(np.eye(2) / 2, KET_PLUS) - 0.5) < 1e-12
    assert abs(pure_fidelity(outer(basis_ket(2, 0)), basis_ket(2, 1))) < 1e-12
    with pytest.raises(ValueError):
        pure_fidelity(np.eye(2), basis_ket(3, 0))


def test_as_ket_norm_check():
    as_ket([1, 0])
    with pytest.raises(ValueError):
        as_ket([1, 1])


def test_tolerances_are_positive_reals():
    # a bool is no tolerance: True would pass as 1 and accept a ket of
    # squared norm 1.25 or a scaled unitary
    with pytest.raises(TypeError, match="^tol must be a real number, got True$"):
        as_ket([1, 0.5], tol=True)
    with pytest.raises(TypeError, match="^tol must be a real number, got True$"):
        is_unitary(1.1 * HADAMARD, tol=True)
    for call in (lambda tol: as_ket([1, 0], tol=tol),
                 lambda tol: is_unitary(HADAMARD, tol=tol),
                 lambda tol: is_psd(np.eye(2), tol=tol),
                 lambda tol: hermitian_eigenvalues(PAULI_Z, tol=tol)):
        with pytest.raises(ValueError, match=r"^tol must be positive and finite, got 0\.0$"):
            call(0)
        call(np.float32(1e-3))
        call(1)


def test_basis_ket_checks_dim_and_index():
    assert basis_ket(np.int64(3), np.array(2)).tolist() == [0, 0, 1]
    with pytest.raises(TypeError, match="^dim must be an integer, got 2.0$"):
        basis_ket(2.0, 0)
    for index in (2, 10 ** 30):
        with pytest.raises(ValueError, match=rf"^index must lie in \[0, 1\], got {index}$"):
            basis_ket(2, index)
    with pytest.raises(ValueError, match="^index must be an integer >= 0$"):
        basis_ket(2, -1)  # no longer |1> by negative indexing


@pytest.mark.parametrize("psi", [[np.nan, 0], [np.nan, 1], [1, np.inf]])
def test_as_ket_rejects_non_finite(psi):
    # abs(nan - 1) > tol is False: the norm check must not read it as a pass
    with pytest.raises(ValueError, match="not normalized"):
        as_ket(psi)


@pytest.mark.parametrize("psi", [[np.inf, 0], [np.nan, 0], [-np.inf, 1j],
                                 [1e300, 1e300]])
def test_normalized_rejects_non_finite(psi):
    # v / inf would be [nan, 0]; an overflowing norm would give zeros
    with pytest.raises(ValueError, match="cannot normalize"):
        normalized(psi)


def test_normalized_unit_vector():
    assert np.allclose(normalized([3, 4j]), [0.6, 0.8j], rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="zero vector"):
        normalized([0, 0])


def test_random_unitary_helper_is_unitary():
    from oracles import random_unitary

    rng = np.random.default_rng(1)
    for dim in (2, 4):
        assert is_unitary(random_unitary(dim, rng))


def test_pure_fidelity_bounded_by_trace():
    rng = np.random.default_rng(9)
    for _ in range(20):
        rho = 0.7 * random_density(4, rng)
        psi = random_ket(4, rng)
        f = pure_fidelity(rho, psi)
        assert -1e-12 <= f <= np.trace(rho).real + 1e-12


# ------------------------------------------- the scalar input rules

_SPEC = build_gate_walk(PAULI_X, 0.5)
_START = mixed_state(1, 2)
_WEIGHTS = (0.25,) * 4

# every scalar input of the library: entry point -> (the parameter's
# name, "real" or "count", a call passing a value as that parameter with
# valid arguments elsewhere)
SCALARS = {
    "build_line_walk.theta": ("theta", "real", lambda v: build_line_walk(v, 5)),
    "build_line_walk.window": ("window", "count", lambda v: build_line_walk(0.3, v)),
    "build_gate_walk.p": ("p", "real", lambda v: build_gate_walk(HADAMARD, v)),
    "build_state_prep.alpha": ("alpha", "real", lambda v: build_state_prep(v, 0.1, 0.5)),
    "build_state_prep.beta": ("beta", "real", lambda v: build_state_prep(0.2, v, 0.5)),
    "build_state_prep.p": ("p", "real", lambda v: build_state_prep(0.2, 0.1, v)),
    "build_transport_chain.n_nodes": (
        "n_nodes", "count", lambda v: build_transport_chain(v, 0.5)),
    "build_transport_chain.p": ("p", "real", lambda v: build_transport_chain(4, v)),
    "build_dqc_chain.omega": ("omega", "real", lambda v: build_dqc_chain([HADAMARD], v)),
    "dqc_predicted_readout.omega": ("omega", "real", lambda v: dqc_predicted_readout(v, 3)),
    "dqc_predicted_readout.t_final": (
        "t_final", "count", lambda v: dqc_predicted_readout(0.5, v)),
    "state_prep_predicted_pss.q": (
        "q", "real", lambda v: state_prep_predicted_pss(_WEIGHTS, v, 2)),
    "state_prep_predicted_pss.m": (
        "m", "count", lambda v: state_prep_predicted_pss(_WEIGHTS, 0.5, v)),
    "state_prep_predicted_pss.rho0_elements": (
        "rho0_elements entry", "real",
        lambda v: state_prep_predicted_pss((v, 0, 0, 0), 0.5, 2)),
    "transport_predicted_arrival.n_nodes": (
        "n_nodes", "count", lambda v: transport_predicted_arrival(v, 0.5, 3)),
    "transport_predicted_arrival.p": (
        "p", "real", lambda v: transport_predicted_arrival(4, v, 3)),
    "transport_predicted_arrival.step": (
        "step", "count", lambda v: transport_predicted_arrival(4, 0.5, v)),
    "position_moments.weight": (
        "weight of node 0", "real", lambda v: position_moments({0: v, 1: 0.5})),
    "WalkSpec.dim": (
        "dim", "count", lambda v: WalkSpec(nodes=(1,), dim=v, transitions={})),
    "mixed_state.dim": ("dim", "count", lambda v: mixed_state(1, v)),
    "iter_run.n_steps": ("n_steps", "count", lambda v: run(_SPEC, _START, v)),
    "iter_run.record_every": (
        "record_every", "count", lambda v: list(iter_run(_SPEC, _START, 3, v))),
    "find_steady_state.tol": (
        "tol", "real", lambda v: find_steady_state(_SPEC, _START, tol=v)),
    "find_steady_state.max_iter": (
        "max_iter", "count", lambda v: find_steady_state(_SPEC, _START, max_iter=v)),
    "validate_walk.tol": ("tol", "real", lambda v: validate_walk(_SPEC, tol=v)),
    "as_ket.tol": ("tol", "real", lambda v: as_ket([1, 0], tol=v)),
    "is_unitary.tol": ("tol", "real", lambda v: is_unitary(HADAMARD, tol=v)),
    "is_psd.tol": ("tol", "real", lambda v: is_psd(np.eye(2), tol=v)),
    "hermitian_eigenvalues.tol": (
        "tol", "real", lambda v: hermitian_eigenvalues(PAULI_Z, tol=v)),
    "basis_ket.dim": ("dim", "count", lambda v: basis_ket(v, 0)),
    "basis_ket.index": ("index", "count", lambda v: basis_ket(2, v)),
}
WRONG = [True, False, np.True_, np.array(True), "1", None, [1], {}, [[1, 0], [0]],
         0.5 + 0.5j, np.complex128(0.5), float("nan"), float("inf"), float("-inf")]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN arithmetic
@pytest.mark.parametrize("entry", sorted(SCALARS))
def test_scalar_inputs_reject_what_is_not_their_kind(entry):
    # a count takes no float, not even 2.0; a real takes no int past the
    # float range. Every message starts with the parameter's name.
    name, kind, call = SCALARS[entry]
    extra = [10 ** 400, -10 ** 400] if kind == "real" else [2.5, 2.0, np.float64(3)]
    for value in WRONG + extra:
        with pytest.raises((TypeError, ValueError)) as caught:
            call(value)
        assert str(caught.value).startswith(name + " "), (value, caught.value)


_HALF = np.eye(2) / 2

# every array input of the library: entry point -> (the argument's name,
# "matrix" or "vector", the dimension the call expects of it or None, a
# call passing a value as that argument with valid arguments elsewhere)
ARRAYS = {
    "WalkSpec.transitions": ("operator on edge (1 -> 1)", "matrix", 2, lambda v: WalkSpec(
        nodes=(1,), dim=2, transitions={(1, 1): v})),
    "WalkerState.blocks": ("block at node 'b'", "matrix", None,
                           lambda v: WalkerState({"a": _HALF, "b": v})),
    "build_gate_walk.gate": ("gate", "matrix", None, lambda v: build_gate_walk(v, 0.5)),
    "build_dqc_chain.unitaries": (
        "unitaries[1]", "matrix", 2, lambda v: build_dqc_chain([HADAMARD, v], 0.5)),
    "build_dqc_chain.psi0": (
        "psi0", "vector", 2, lambda v: build_dqc_chain([HADAMARD], 0.5, v)),
    "build_transport_chain.psi1": (
        "psi1", "vector", 2, lambda v: build_transport_chain(4, 0.5, v, [0, 1])),
    "build_transport_chain.psi2": (
        "psi2", "vector", 2, lambda v: build_transport_chain(4, 0.5, [1, 0], v)),
    "apply_kraus.rho": ("rho", "matrix", None, lambda v: apply_kraus(v, [IDENTITY_2])),
    "apply_kraus.ops": (
        "ops[1]", "matrix", 2, lambda v: apply_kraus(_HALF, [IDENTITY_2, v])),
    "trace_distance.rho": ("rho", "matrix", None, lambda v: trace_distance(v, _HALF)),
    "trace_distance.sigma": ("sigma", "matrix", 2, lambda v: trace_distance(_HALF, v)),
    "pure_fidelity.rho": ("rho", "matrix", None, lambda v: pure_fidelity(v, [1, 0])),
    "pure_fidelity.psi": ("psi", "vector", 2, lambda v: pure_fidelity(_HALF, v)),
    "extract_blocks.full": ("full matrix", "matrix", 4, lambda v: extract_blocks(_SPEC, v)),
    "full_map_step.full": ("full matrix", "matrix", 4, lambda v: full_map_step(_SPEC, v)),
    "as_operator.a": ("a", "matrix", None, as_operator),
    "kron.a": ("a", "matrix", None, lambda v: kron(v, PAULI_X)),
    "kron.b": ("b", "matrix", None, lambda v: kron(PAULI_X, v)),
    "is_unitary.a": ("a", "matrix", None, is_unitary),
    "is_psd.a": ("a", "matrix", None, is_psd),
    "hermitian_eigenvalues.a": ("a", "matrix", None, hermitian_eigenvalues),
}
NOT_SQUARE = [np.ones((2, 3)), [[1, 2, 3]], [1, 0], [], np.ones((2, 2, 2)), 1.0]
NOT_FINITE = [np.array([[1, 0], [0, bad]]) for bad in
              (np.nan, np.inf, -np.inf, complex(0, np.nan), complex(np.inf, 0))]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN arithmetic
@pytest.mark.parametrize("entry", sorted(ARRAYS))
def test_array_inputs_reject_what_is_not_their_shape(entry):
    # a matrix must be square with finite entries; a vector is flattened,
    # so a matrix of the wrong size is a wrong-size vector. A ket's
    # entries fail as_ket's norm rule when not finite, so only a matrix
    # has a finiteness rule. Every message starts with the argument's name.
    name, kind, dim, call = ARRAYS[entry]
    wrong = []
    if dim is not None:
        wrong += ([np.eye(dim + 1), np.eye(dim - 1)] if kind == "matrix"
                  else [np.ones(dim + 1), [1], np.eye(dim)])
    if kind == "matrix":
        wrong += NOT_SQUARE + NOT_FINITE
    for value in wrong:
        with pytest.raises(ValueError) as caught:
            call(value)
        assert str(caught.value).startswith(name + " "), (value, caught.value)


# numpy scalars, 0-d arrays and ints past 2**63 that the entry points
# take. A count becomes a Python int, so a np.uint8 window no longer wraps
# when negated and a 0-d array node count no longer labels a node.
ACCEPTED = {
    "build_line_walk.theta": [np.float32(0.5), np.float64(0.5), np.array(0.5),
                              np.int64(1), 2 ** 64, -2 ** 70],
    "build_line_walk.window": [np.int64(3), np.uint8(3), np.array(3)],
    "build_gate_walk.p": [np.float32(0.5), np.array(0.5), np.int64(1), 0, 1],
    "build_transport_chain.n_nodes": [np.int64(4), np.array(4)],
    "transport_predicted_arrival.n_nodes": [np.int64(4), np.array(4), 2 ** 64],
    "transport_predicted_arrival.step": [np.int64(4), np.array(4), 2 ** 64],
    "position_moments.weight": [np.float32(0.5), np.array(0.5), 2 ** 64],
    "mixed_state.dim": [np.int64(2), np.array(2)],
    "iter_run.record_every": [np.int64(2), np.array(2), 2 ** 64],
    "find_steady_state.tol": [np.float32(1e-3), np.array(1e-3), 1, 2 ** 64],
    "find_steady_state.max_iter": [np.int64(50), np.array(50), 2 ** 64],
}


@pytest.mark.parametrize("entry", sorted(ACCEPTED))
def test_scalar_inputs_keep_numpy_scalars_and_large_ints(entry):
    call = SCALARS[entry][2]
    for value in ACCEPTED[entry]:
        call(value)


def test_walk_spec_stores_its_dim_as_an_int():
    for dim in (np.int64(2), np.array(2)):
        spec = WalkSpec(nodes=(1,), dim=dim, transitions={(1, 1): np.eye(2)})
        assert type(spec.dim) is int and spec.dim == 2
