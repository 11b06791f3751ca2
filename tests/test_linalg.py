import numpy as np
import pytest

from hrsp.linalg import I2, X, kron
from hrsp.states import protocol_state

from dense_oracle import PARTY_QUBITS, basis_ket, partial_trace, projector, psd_sqrt


def random_complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def is_hermitian(m, tol):
    return np.max(np.abs(m - m.conj().T)) <= tol


def random_density(n_qubits, rng, rank=None):
    d = 2 ** n_qubits
    a = random_complex((d, rank or d), rng)
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def brute_force_partial_trace(rho, traced, n):
    """Direct index summation, the independent oracle for partial_trace."""
    keep = [q for q in range(n) if q not in traced]
    dk = 2 ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)
    for i in range(dk):
        i_bits = [(i >> (len(keep) - 1 - k)) & 1 for k in range(len(keep))]
        for j in range(dk):
            j_bits = [(j >> (len(keep) - 1 - k)) & 1 for k in range(len(keep))]
            total = 0.0
            for t in range(2 ** len(traced)):
                t_bits = [(t >> (len(traced) - 1 - k)) & 1 for k in range(len(traced))]
                row = [0] * n
                col = [0] * n
                for q, b in zip(keep, i_bits):
                    row[q] = b
                for q, b in zip(keep, j_bits):
                    col[q] = b
                for q, b in zip(traced, t_bits):
                    row[q] = b
                    col[q] = b
                r = sum(b << (n - 1 - q) for q, b in enumerate(row))
                c = sum(b << (n - 1 - q) for q, b in enumerate(col))
                total += rho[r, c]
            out[i, j] = total
    return out


class TestKron:
    def test_identity_case(self):
        assert np.allclose(kron(I2, I2), np.eye(4))

    def test_diagonal_product(self):
        got = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.allclose(got, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_basis_mapping(self):
        # X|0> tensored with |0> lands on |10>
        got = kron(X @ basis_ket("0"), basis_ket("0"))
        assert np.allclose(got, [0, 0, 1, 0])
        # column 0 of X (x) |0> is the same basis image
        col = kron(X, basis_ket("0").reshape(2, 1))
        assert np.allclose(col[:, 0], [0, 0, 1, 0])

    def test_associative(self):
        rng = np.random.default_rng(7)
        a, b, c = (random_complex((2, 2), rng) for _ in range(3))
        assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            a = random_complex((2, 2), rng)
            b = random_complex((4, 4), rng)
            assert np.isclose(np.trace(kron(a, b)), np.trace(a) * np.trace(b))


class TestPartialTrace:
    def test_product_state(self):
        rho = projector(basis_ket("00"))
        got = partial_trace(rho, {0})
        assert np.allclose(got, projector(basis_ket("0")))

    def test_maximally_entangled_marginal(self):
        bell = (basis_ket("00") + basis_ket("11")) / np.sqrt(2)
        got = partial_trace(projector(bell), {1})
        assert np.allclose(got, np.eye(2) / 2)

    def test_protocol_state_reduction_vs_oracle(self):
        rho = projector(protocol_state())
        got = partial_trace(rho, {0, 3, 4, 5, 6})
        want = brute_force_partial_trace(rho, [0, 3, 4, 5, 6], 7)
        assert got.shape == (4, 4)
        assert np.isclose(np.trace(got), 1.0)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_random_states_vs_oracle(self):
        rng = np.random.default_rng(11)
        for traced in ([0], [2], [0, 2], [1, 3]):
            rho = random_density(4, rng)
            got = partial_trace(rho, traced)
            want = brute_force_partial_trace(rho, traced, 4)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_trace_preserved_and_psd(self):
        rng = np.random.default_rng(12)
        rho = random_density(3, rng, rank=2)
        red = partial_trace(rho, [1])
        assert np.isclose(np.trace(red), np.trace(rho), atol=1e-12)
        assert is_hermitian(red, 1e-12)
        assert np.linalg.eigvalsh(red)[0] > -1e-10

    def test_tracing_everything_gives_trace(self):
        rng = np.random.default_rng(13)
        rho = random_density(2, rng)
        got = partial_trace(rho, [0, 1])
        assert np.isclose(got[0, 0], np.trace(rho))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(3, dtype=complex), [0])
        with pytest.raises(ValueError):
            partial_trace(np.eye(4, dtype=complex), [5])


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(4, dtype=complex)), np.eye(4))

    def test_diagonal(self):
        got = psd_sqrt(np.diag([4.0, 9.0]).astype(complex))
        assert np.allclose(got, np.diag([2.0, 3.0]))

    def test_pure_projector_is_fixed_point(self):
        xi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho0 = projector(xi)
        assert np.max(np.abs(psd_sqrt(rho0) - rho0)) < 1e-12

    def test_square_recovers_input(self):
        rng = np.random.default_rng(21)
        for d in (2, 4, 8):
            a = random_complex((d, d), rng)
            h = a @ a.conj().T
            s = psd_sqrt(h)
            assert is_hermitian(s, 1e-9)
            assert np.max(np.abs(s @ s - h)) < 1e-8 * max(1, np.abs(h).max())

    def test_sqrt_of_square_roundtrip(self):
        rng = np.random.default_rng(22)
        a = random_complex((8, 8), rng)
        s = psd_sqrt(a @ a.conj().T)
        assert np.max(np.abs(psd_sqrt(s @ s) - s)) < 1e-8

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.diag([1.0, -0.5]).astype(complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_clamps_tiny_negative_eigenvalues(self):
        h = np.diag([1.0, -5e-11]).astype(complex)
        s = psd_sqrt(h)
        assert np.allclose(s, np.diag([1.0, 0.0]))


class TestQubitLayout:
    def test_default_partition(self):
        assert PARTY_QUBITS["alice"] == (0,)
        assert PARTY_QUBITS["david"] == (5, 6)
        others = [PARTY_QUBITS[p] for p in PARTY_QUBITS if p != "bob"]
        assert tuple(q for qs in others for q in qs) == (0, 3, 4, 5, 6)
