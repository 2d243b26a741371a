import numpy as np
import pytest

from oqwalk.linalg import (
    IDENTITY_2,
    KET_MINUS,
    KET_PLUS,
    PAULI_X,
    PAULI_Z,
    adjoint,
    apply_kraus,
    as_ket,
    basis_ket,
    hermitian_eigenvalues,
    is_psd,
    is_unitary,
    kron,
    outer,
    pure_fidelity,
    trace_distance,
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
