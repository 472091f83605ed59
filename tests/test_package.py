"""The package namespace re-exports exactly what its modules declare public,
its source and tests hold no unused import, and its source no dead module-level
helper; its result records are immutable tuples."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    "ModeSet", "OccupationState", "OscillatorParams",
    "PositivityReport", "SeriesResult", "StatisticsKind", "Thermo",
    "ThresholdReport", "TruncationPolicy", "accessible_set", "bose_gas_condition",
    "bose_threshold_equivalence", "chain_effective_energy", "chain_energy",
    "chain_frequencies", "classify_fermion_state", "effective_energy_gas",
    "effective_energy_vibrational", "effective_frequency", "ensemble_energy",
    "enumerate_configurations", "equilibrium_effective_energy",
    "equilibrium_particle_number", "gc_average_occupation", "grouped_form_energy",
    "ground_state_search", "is_accessible", "joint_energy",
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
    assert len(FROZEN_EXPORTS) == 56
    assert set(FROZEN_EXPORTS) <= set(openosc.__all__)


# --- a stdlib lint of the package source and its tests -------------------------


def parsed(directory, prefix=""):
    return {prefix + path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


SRC = str(Path(openosc.__file__).resolve().parents[1])
SOURCES = parsed(Path(openosc.__file__).parent)
TESTS = parsed(Path(__file__).parent, "tests/")


def referenced(tree):
    """Every name a module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def declared_all(tree):
    """The literal ``__all__`` of a module, or nothing if it is computed."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            try:
                return set(ast.literal_eval(node.value))
            except ValueError:
                return set()
    return set()


def test_no_module_has_an_unused_import():
    unused = []
    for module, tree in {**SOURCES, **TESTS}.items():
        used = referenced(tree) | declared_all(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name != "*" and bound not in used:
                        unused.append(f"{module}: {bound}")
    assert not unused


def test_every_module_level_definition_is_public_or_used():
    used = set().union(*map(referenced, SOURCES.values()))
    dead = [
        f"{module}.{node.name}"
        for module, tree in SOURCES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in declared_all(tree) | used
    ]
    assert not dead


def test_no_comparison_converts_an_operand_with_int():
    # `x != int(x)` and `int(x) < 0` are hand-written integer checks, which
    # crash on NaN and infinities; spectra.check_integer is their one home.
    found = [
        f"{module}:{node.lineno}"
        for module, tree in SOURCES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(
            isinstance(operand, ast.Call)
            and isinstance(operand.func, ast.Name)
            and operand.func.id == "int"
            for operand in (node.left, *node.comparators)
        )
    ]
    assert not found


def test_every_class_has_its_own_docstring():
    # Without one, dataclass builds __doc__ from inspect.signature at import.
    bare = [
        f"{module}.{node.name}"
        for module, tree in SOURCES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and ast.get_docstring(node) is None
    ]
    assert not bare


# --- the result records ----------------------------------------------------------


def _records():
    """One factory per result record; each call builds a new, equal record."""
    from openosc import cli

    osc = openosc.OscillatorParams()
    fermi = openosc.StatisticsKind.FERMI
    check = openosc.CheckResult("zeta-partial-p4", True, 1e-10, 3e-10, "tightest at k=1")
    job = ["spectrum", "--qmax", "1"]
    return {
        "SeriesResult": lambda: openosc.reduced_series(0.4, openosc.StatisticsKind.BOSE),
        "ThresholdReport": lambda: openosc.bose_threshold_equivalence(
            0.3, openosc.GasParams.reduced(), 2, 3),
        "Configuration": lambda: openosc.Configuration((1, 0, 2)),
        "GroundStateResult": lambda: openosc.ground_state_search(
            openosc.ModeSet((0.5, 1.5)), 1.0, fermi),
        "CheckResult": lambda: openosc.CheckResult(*check),
        "EstimateReport": lambda: openosc.EstimateReport((check, check)),
        "BoseConditionRow": lambda: openosc.bose_gas_condition(
            0.3, openosc.GasParams.reduced(), 1).rows[0],
        "BoseConditionReport": lambda: openosc.bose_gas_condition(
            0.3, openosc.GasParams.reduced(), 1),
        "AccessibleSet": lambda: openosc.accessible_set(1.5, osc, 4),
        "PositivityReport": lambda: openosc.positivity_check(
            openosc.OccupationState.from_levels((0, 2)), 0.2, osc),
        "GroupedFormResult": lambda: openosc.grouped_form_energy(
            openosc.ChainAssignment((0, 0, 1)), 0.2, openosc.ChainParams(3, osc, 0.25)),
        "Job": lambda: cli.parse_job(job),
        "Report": lambda: cli.run_job(cli.parse_job(job)),
    }


RECORDS = _records()
# A job and a report hold their parameters and metadata in a dict.
UNHASHABLE = {"Job", "Report"}


def test_every_result_record_is_listed():
    # Every public NamedTuple of the package, and the CLI's two, has a factory above.
    records = {name for name in openosc.__all__
               if hasattr(getattr(openosc, name), "_fields")}
    assert records | {"Job", "Report"} == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_result_records_are_immutable_values(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    twin = RECORDS[name]()
    assert twin is not record and twin == record
    if name not in UNHASHABLE:
        assert hash(twin) == hash(record)
    # They are tuples: they unpack, and equal the plain tuple of their fields.
    assert record == tuple(getattr(record, field) for field in record._fields)
    fields = ", ".join(f"{field}={getattr(record, field)!r}" for field in record._fields)
    assert repr(record) == f"{name}({fields})"


def test_importing_the_cli_leaves_decimal_unloaded():
    # Only series._zeta_partial_gap needs decimal, and it imports it itself.
    code = "import sys, openosc.cli; print('decimal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC}).stdout
    assert out.strip() == "False"


def test_importing_the_cli_leaves_argparse_unloaded():
    # cli reads argv itself from its job table and needs no argument parser.
    code = "import sys, openosc.cli; print('argparse' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC}).stdout
    assert out.strip() == "False"
