"""The package namespace re-exports exactly what its modules declare public."""

import importlib

import openosc

MODULES = (
    "chain", "errors", "gas", "open_system", "oracle",
    "series", "spectra", "stats", "summation",
)

# The names `openosc.__all__` held before it was derived from the modules;
# none of them may silently drop out of the public API.
FROZEN_EXPORTS = [
    "AccessibleSet", "BoseConditionReport", "ChainAssignment", "ChainParams",
    "ChemicalPotentialError", "ClosureError", "Configuration", "ConvergenceError",
    "DomainError", "EnumerationLimitError", "EstimateReport", "FermionClass",
    "GasOccupationState", "GasParams", "GroundStateResult", "GroupedFormResult",
    "IdealBoseGasResult", "ModeSet", "OccupationState", "OscillatorParams",
    "PositivityReport", "SeriesResult", "StatisticsKind", "Thermo",
    "ThresholdReport", "TruncationPolicy", "accessible_set", "bose_gas_condition",
    "bose_threshold_equivalence", "chain_effective_energy", "chain_energy",
    "chain_frequencies", "classify_fermion_state", "effective_energy_gas",
    "effective_energy_vibrational", "effective_frequency", "ensemble_energy",
    "enumerate_configurations", "equilibrium_effective_energy",
    "equilibrium_particle_number", "gc_average_occupation", "grouped_form_energy",
    "ground_state_search", "ideal_bose_gas", "is_accessible", "joint_energy",
    "mean_particle_number", "mode_energy", "occupation_number", "positivity_check",
    "q_min_chain", "q_min_gas", "q_min_vibrational", "quartic_reciprocal_tail",
    "reduced_series", "reduced_series_bound", "translational_energy",
    "verify_series_estimates",
]


def test_package_all_is_the_union_of_module_lists():
    modules = [importlib.import_module(f"openosc.{name}") for name in MODULES]
    declared = [name for module in modules for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is declared in two modules"
    assert openosc.__all__ == sorted(declared)
    for module in modules:
        for name in module.__all__:
            assert getattr(openosc, name) is getattr(module, name), name


def test_earlier_exports_are_kept():
    assert len(FROZEN_EXPORTS) == 58
    assert set(FROZEN_EXPORTS) <= set(openosc.__all__)
