"""Electrically switched quantum-dot/cavity device toolkit.

Maps reverse bias to depletion field and Stark shift, computes coupled
dot-cavity spectra, simulates RC-limited time-domain switching, and
recovers model parameters from measured data.

Submodules load on first use (PEP 562): ``import qdswitch`` imports
none of them, and ``qdswitch.X`` imports the one module that defines X.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "cqed": ("CouplingRegime", "CqedParams", "OpticalFrame", "Spectrum", "cooperativity",
             "coupling_regime", "g_of_voltage", "kappa_from_q", "max_bandwidth",
             "pl_spectrum", "polariton_modes", "reflectivity_at", "reflectivity_spectrum",
             "vacuum_rabi_splitting", "weak_coupling_bandwidth"),
    "electrostatics": ("DriveSpec", "ElectrostaticParams", "EnergyBudget", "ShiftDataset",
                       "StarkCoefficients", "apply_screening", "depletion_width",
                       "field_at_cavity", "onset_voltage", "stark_shift",
                       "voltage_to_detuning"),
    "errors": ("AdiabaticityWarning", "ConfigError", "DegenerateFitError",
               "DegenerateTraceError", "DomainError", "IngestError", "QdSwitchError"),
    "fitting": ("FitResult", "dc_contrast", "fit_contrast", "fit_spectrum",
                "fit_stark_curve", "reflectivity_model_jacobian", "stark_model"),
    "switching": ("TimeTrace", "drive_samples", "on_off_ratio",
                  "rc_response", "simulate_switching", "switching_energy"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value

