"""Simulator for hierarchical remote state preparation of a two-qubit
entangled state over a seven-qubit Brown-state channel, with correlated
amplitude- and phase-damping noise."""

__version__ = "0.1.0"

from .linalg import PARTY_QUBITS, kron
from .noise import (KrausSet, amplitude_damping, kraus_operators, kraus_set,
                    party_kraus_stack, phase_damping)
from .pipeline import (BranchProbabilityError, FidelitySample, PipelineConfig,
                       SweepResult, default_config, default_grid,
                       receiver_state, sweep)
from .protocol import (CORRECTION_TABLES, CorrectionRule, GateToken,
                       correction_unitary, derive_receiver_table,
                       format_table_report, noiseless_fidelity,
                       oracle_find_correction, parse_gate_string,
                       token_unitary, verify_table)
from .states import (TargetSpec, branch_amplitudes, brown_state,
                     extend_with_ancillas, protocol_state, target_state,
                     verify_factorization, zeta_basis)

__all__ = [name for name in dir() if not name.startswith("_")]
