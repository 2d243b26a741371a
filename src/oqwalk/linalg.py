"""Dense complex linear algebra for small internal Hilbert spaces.

Everything here operates on plain numpy arrays of dtype complex128.
Operators are square matrices, state vectors ("kets") are 1-d arrays of
unit Euclidean norm, density matrices are Hermitian positive
semidefinite. Typical dimensions are 2 to 8, so no sparse or
structured storage is used anywhere.

Tensor-product convention: ``kron(a, b)`` uses the standard row-major
block layout (numpy.kron), and for multi-qubit operators qubit 1 is
always the most significant factor. So ``kron(X, I2)`` flips qubit 1 of
a two-qubit register, and the basis order is |00>, |01>, |10>, |11>.

Every argument's check lives here, each message starting with its name:
``_real`` and ``_count`` check scalars, ``_matrix`` and ``_vector``
arrays (``<name> must be a square matrix, got shape S``, ``is not
finite``, ``has dimension m, expected d``, and the TypeError ``must
hold numbers`` for a bool, str or bytes entry), ``_ket`` unit vectors
(``<name> is not normalized``), ``_unitarity_errors`` unitarity.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

DEFAULT_TOL = 1e-10

# Single-qubit constants.
IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S_GATE = np.array([[1, 0], [0, 1j]], dtype=complex)
T_GATE = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)

# Two-qubit CNOT, control on qubit 1 (most significant factor).
CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]],
    dtype=complex,
)

KET_ZERO = np.array([1, 0], dtype=complex)
KET_ONE = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)

# Bell states in the |q1 q2> basis order above.
BELL_PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
BELL_PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
BELL_PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
BELL_PHI_MINUS = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)

for _a in (IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, HADAMARD, S_GATE, T_GATE,
           CNOT, KET_ZERO, KET_ONE, KET_PLUS, KET_MINUS, BELL_PSI_PLUS,
           BELL_PSI_MINUS, BELL_PHI_PLUS, BELL_PHI_MINUS):
    _a.setflags(write=False)
del _a


def _real(x, name: str, low: float = -math.inf, high: float = math.inf,
          open_interval: bool = False) -> float:
    """x as a finite float in [low, high], or (low, high) with open_interval.
    TypeError for a bool, string, complex or array: float() would take a
    bool as 0 or 1, parse a string or drop a numpy complex's imaginary part."""
    try:  # a Python float passes the kind checks, which cost microseconds
        if type(x) is not float and (
                isinstance(x, (bool, str, bytes)) or getattr(x, "dtype", None) == bool
                or np.ndim(x) or np.iscomplexobj(x)):
            raise TypeError
        x = float(x)
    except OverflowError:  # an int past the float range
        x = math.inf
    except (TypeError, ValueError):  # ValueError: a ragged nested list
        raise TypeError(f"{name} must be a real number, got {x!r}") from None
    if not ((low < x < high if open_interval else low <= x <= high)
            and math.isfinite(x)):  # a NaN fails both
        bounds = ("(%g, %g)" if open_interval else "[%g, %g]") % (low, high)
        where = {"[-inf, inf]": "be finite", "(0, inf)": "be positive and finite"}
        raise ValueError(f"{name} must {where.get(bounds, 'lie in ' + bounds)}, got {x}")
    return x


def _count(n, name: str, low: int) -> int:
    """n as an int >= low. A bool or a float (2.0 too) raises TypeError."""
    try:
        if isinstance(n, bool):  # numpy's bool fails operator.index
            raise TypeError
        n = operator.index(n)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {n!r}") from None
    if n < low:
        raise ValueError(f"{name} must be an integer >= {low}")
    return n


_NON_NUMBER_KINDS = {"b": "bool", "U": "str", "S": "bytes"}


def _non_number(a) -> str | None:
    """'bool', 'str' or 'bytes' for a bool, str or bytes entry at any depth
    of a's lists, tuples and object arrays, else None. Checked by entry,
    since numpy makes [1, True] an int array."""
    kind = a.dtype.kind if isinstance(a, np.ndarray) else "O"
    if kind != "O":
        return _NON_NUMBER_KINDS.get(kind)
    if isinstance(a, (list, tuple, np.ndarray)):
        return next(filter(None, map(_non_number, getattr(a, "flat", a))), None)
    if isinstance(a, (bool, np.bool_)):
        return "bool"
    return "str" if isinstance(a, str) else "bytes" if isinstance(a, bytes) else None


def _complex(a, name: str) -> np.ndarray:
    """np.asarray(a, dtype=complex). TypeError for a bool, str or bytes
    entry, which numpy would take as 0 or 1 or parse as a number;
    ValueError for an int past the float range."""
    kind = _non_number(a)
    if kind:
        raise TypeError(f"{name} must hold numbers, got a {kind} entry")
    try:
        return np.asarray(a, dtype=complex)
    except OverflowError:
        raise ValueError("entries must be finite: an int is past the float range") from None


def _matrix(a, name: str, dim: int | None = None) -> np.ndarray:
    """a as a square complex matrix with finite entries, of dimension dim if given."""
    m = _complex(a, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise ValueError(f"{name} has dimension {m.shape[0]}, expected {dim}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} is not finite")
    return m


def _vector(v, name: str, dim: int | None = None) -> np.ndarray:
    """v flattened to a finite complex vector, of dimension dim when given."""
    v = _complex(v, name).reshape(-1)
    if dim is not None and v.size != dim:
        raise ValueError(f"{name} has dimension {v.size}, expected {dim}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} is not finite")
    return v


def _ket(psi, name: str, dim: int | None = None, tol: float = 1e-12) -> np.ndarray:
    """psi as a finite complex vector with |psi|^2 within tol of 1, of
    dimension dim when given."""
    v = _vector(psi, name, dim)
    if v.size < 1:
        raise ValueError(f"{name} is empty")
    norm_sq = float(np.vdot(v, v).real)
    if not abs(norm_sq - 1.0) <= tol:
        raise ValueError(f"{name} is not normalized: |{name}|^2 = {norm_sq}")
    return v


def as_ket(psi: Sequence[complex], tol: float = 1e-12) -> np.ndarray:
    """Coerce to a complex unit vector; raises if the norm is off by > tol."""
    return _ket(psi, "psi", tol=_real(tol, "tol", 0, open_interval=True))


def normalized(psi: Sequence[complex]) -> np.ndarray:
    v = _vector(psi, "psi")
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    if not np.isfinite(n):  # a norm past the float range
        raise ValueError(f"cannot normalize a vector of norm {n}")
    return v / n


def basis_ket(dim: int, index: int) -> np.ndarray:
    """|index> in C^dim."""
    dim, index = _count(dim, "dim", 1), _count(index, "index", 0)
    if index >= dim:
        raise ValueError(f"index must lie in [0, {dim - 1}], got {index}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with the first factor most significant."""
    return np.kron(_matrix(a, "a"), _matrix(b, "b"))


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return _matrix(a, "a").conj().T


def outer(psi: np.ndarray, phi: np.ndarray | None = None) -> np.ndarray:
    """|psi><phi| (|psi><psi| when phi is omitted)."""
    psi = _vector(psi, "psi")
    phi = psi if phi is None else _vector(phi, "phi")
    return np.outer(psi, phi.conj())


def apply_kraus(rho: np.ndarray, ops: Sequence[np.ndarray]) -> np.ndarray:
    """Apply the operator-sum map rho -> sum_K K rho K^dag.

    All operators and rho must share one dimension. The output is
    Hermitian for Hermitian input and positive semidefinite for PSD
    input; the map preserves trace exactly when sum_K K^dag K = I.
    """
    rho = _matrix(rho, "rho")
    out = np.zeros_like(rho)
    for j, k in enumerate(ops):
        k = _matrix(k, f"ops[{j}]", rho.shape[0])
        out += k @ rho @ k.conj().T
    return out


def hermitian_eigenvalues(a: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending.

    Raises ValueError when the input deviates from Hermiticity by more
    than tol in any entry.
    """
    tol = _real(tol, "tol", 0, open_interval=True)
    a = _matrix(a, "a")
    dev = float(np.max(np.abs(a - a.conj().T)))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return np.linalg.eigvalsh(a)


def is_psd(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff a is Hermitian within tol and min eigenvalue >= -tol."""
    tol = _real(tol, "tol", 0, open_interval=True)
    a = _matrix(a, "a")
    if float(np.max(np.abs(a - a.conj().T))) > tol:
        return False
    return bool(np.linalg.eigvalsh(a)[0] >= -tol)


@np.errstate(over="ignore", invalid="ignore")
def _unitarity_errors(u: np.ndarray) -> np.ndarray:
    """The largest entry of |U^dag U - I| and of |U U^dag - I| for each U
    in a (..., d, d) stack, from one batched product (U^dag, U) @ (U, U^dag).
    A product that overflows gives an inf or NaN error, without a warning."""
    pair = np.stack((u, np.swapaxes(u.conj(), -1, -2)), axis=-3)
    return np.abs(pair[..., ::-1, :, :] @ pair - np.eye(u.shape[-1])).max(axis=(-3, -2, -1))


def sum_left_to_right(values) -> float:
    """Float sum added left to right. Python 3.12's builtin sum()
    compensates, so it would change the last bit of printed values."""
    total = 0.0
    for value in values:
        total += value
    return total


def half_trace_norms(diff: np.ndarray) -> np.ndarray:
    """Half the summed |eigenvalues| of each (D + D^dag)/2 in a (..., d, d)
    stack, which drops the rounding-level anti-Hermitian part of D."""
    herm = (diff + np.swapaxes(diff.conj(), -1, -2)) / 2
    return 0.5 * np.abs(np.linalg.eigvalsh(herm)).sum(axis=-1)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of rho - sigma (both Hermitian, same dim)."""
    rho = _matrix(rho, "rho")
    sigma = _matrix(sigma, "sigma", rho.shape[0])
    return float(half_trace_norms(rho - sigma))


def pure_fidelity(rho: np.ndarray, psi: np.ndarray) -> float:
    """<psi| rho |psi> as a real number.

    For an unnormalized positive block this is the joint weight of psi,
    bounded by the trace of the block.
    """
    rho = _matrix(rho, "rho")
    psi = _vector(psi, "psi", rho.shape[0])
    return float(np.real(psi.conj() @ rho @ psi))
