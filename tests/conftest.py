from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator, Philox

from diffmon import LindbladModel

SIGMA_M = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_P = SIGMA_M.conj().T
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
EXCITED = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def rng(seed: int) -> Generator:
    return Generator(Philox(key=seed))


def decay_model(gamma: float = 1.0, rabi: float = 0.0, hbar: float = 1.0) -> LindbladModel:
    """Driven two-level emitter: H = (rabi/2) sigma_x, one decay channel sqrt(gamma) sigma_-."""
    return LindbladModel(
        hamiltonian=0.5 * rabi * SIGMA_X,
        lindblads=np.sqrt(gamma) * SIGMA_M[None],
        hbar=hbar,
    )


def cavity_model(dim: int, kappa: float = 1.0, hbar: float = 1.0) -> LindbladModel:
    """Damped cavity truncated at ``dim`` levels, annihilation-operator coupling."""
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)
    return LindbladModel(hamiltonian=np.zeros((dim, dim)), lindblads=np.sqrt(kappa) * a[None], hbar=hbar)


def random_state(gen: Generator, dim: int) -> np.ndarray:
    g = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


def random_pure_state(gen: Generator, dim: int) -> np.ndarray:
    psi = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


@pytest.fixture
def gen():
    return rng(20260809)


def pytest_terminal_summary(terminalreporter):
    """Print the line count of src/diffmon, and of each of its modules, next to the slowest
    tests: both are tracked, and the modules show where lines moved."""
    src = Path(__file__).resolve().parents[1] / "src" / "diffmon"
    counts = {path.name: path.read_bytes().count(b"\n") for path in sorted(src.glob("*.py"))}
    terminalreporter.write_sep("=", f"src/diffmon: {sum(counts.values())} lines")
    terminalreporter.write_line("  ".join(f"{name} {n}" for name, n in counts.items()))
