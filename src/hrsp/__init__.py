"""Simulator for hierarchical remote state preparation of a two-qubit
entangled state over a seven-qubit Brown-state channel, with correlated
amplitude- and phase-damping noise.

The exports and the submodules are lazy (PEP 562): each name imports its
submodule on first access, so `import hrsp` alone imports no numpy, and
neither does any CLI command: a sweep reads the numpy-free hrsp.exact, and
the verify commands hrsp.protocol (see there). numpy serves the library's
sweep (hrsp.pipeline) and the resource-state vectors (hrsp.states)."""

import importlib

__version__ = "0.1.0"

#: each exported name and the submodule that defines it
_EXPORTS = {
    "kron": "linalg",
    **dict.fromkeys(("BranchProbabilityError", "FidelitySample", "PipelineConfig",
                     "SweepResult", "TargetSpec", "default_config",
                     "default_grid"), "exact"),
    **dict.fromkeys(("receiver_state", "sweep"), "pipeline"),
    **dict.fromkeys(("CORRECTION_TABLES", "CorrectionRule", "derive_receiver_table",
                     "format_table_report", "noiseless_fidelity",
                     "oracle_find_correction", "parse_gate_string",
                     "verify_factorization", "verify_table"), "protocol"),
    **dict.fromkeys(("brown_state", "extend_with_ancillas", "protocol_state",
                     "target_state", "zeta_basis"), "states"),
}
_SUBMODULES = ("cli", "exact", "linalg", "noise", "pipeline", "protocol", "states")

__all__ = sorted([*_EXPORTS, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
