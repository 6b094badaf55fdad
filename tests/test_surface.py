"""Every public name in magsense has a reader, or names the gate that uses it.

The surface is each public module-level name, each public method and
property of a public class, each dataclass field, and each method that
implements an operator (``__add__``, ``__call__``, ...). A reader is a
reference from ``src/magsense`` outside the name's own definition and
outside ``__init__.py``, from ``tests/test_acceptance.py``, or from
``perfbench/`` (every name its tracer wraps by string is also called by
name in ``src/magsense``). A module-level name is referenced as a name or
an attribute; a class member only as an attribute, so a same-named local
variable or keyword argument does not count. A reference counts only when
the code holding it is itself read: a name read only from inside an unread
definition is unread too.

Resolution is by identifier, not by type, so two classes sharing a member
name read each other's member. An operator method cannot be resolved from
syntax at all, so every one needs an ``ORACLES`` entry.

A name without a reader needs an ``ORACLES`` entry naming the tier-1 test
that uses it, and that test must mention the name (for an operator method,
its operator symbol). An entry whose name has a reader, or no longer exists,
is stale and fails too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import magsense

SRC = Path(magsense.__file__).resolve().parent
ROOT = SRC.parents[1]

# operator method -> the text a test that uses it contains
OPERATORS = {
    "__add__": " + ",
    "__sub__": " - ",
    "__mul__": " * ",
    "__matmul__": " @ ",
    "__truediv__": " / ",
    "__neg__": "-",
    "__call__": "(",
}

# surface name -> the tier-1 test that uses it as an oracle
ORACLES = {
    "fitting.FitResult.rss": "tests/test_fitting.py::test_mixed_batch_converged_exact_and_capped",
    "fitting.FitResult.rss_trace": (
        "tests/test_fitting.py::test_monotone_rss_over_accepted_iterations"
    ),
    # the cascade relation config uses to derive g_mc
    "hamiltonians.derived_chi_qm": "tests/test_model.py::test_derived_chi_qm_examples",
    "hamiltonians.full_hamiltonian": (
        "tests/test_model.py::test_full_hamiltonian_jaynes_cummings_doublet"
    ),
    "params.SystemParams.chi_qc": "tests/test_model.py::test_reference_parameter_values",
    "lifetimes.LifetimeEstimate.series": (
        "tests/test_lifetimes.py::test_batched_estimates_match_per_draw_fits"
    ),
    "lindblad.Trajectory.final_state": (
        "tests/test_lindblad.py::test_propagator_matches_reference_rk4_loop"
    ),
    # run telemetry is to record these two
    "lindblad.Trajectory.n_steps": "tests/test_lindblad.py::test_record_times_subset",
    "lindblad.Trajectory.stiffness_margin": "tests/test_lindblad.py::test_record_times_subset",
    "readout.ReadoutModel.contrast": "tests/test_readout.py::test_idealized_model_contrast",
    # the per-point oracle for _measure_grid's buffered click count
    "readout.ShotRecord.excited_fraction": (
        "tests/test_protocols.py::test_measure_grid_matches_per_point_sampling"
    ),
    "readout.ShotRecord.excited_stderr": (
        "tests/test_protocols.py::test_measure_grid_matches_per_point_sampling"
    ),
    "runner.read_report": "tests/test_cli.py::TestRun::test_coherence_report_contents",
    "spaces.ModeSpace.occupations": (
        "tests/test_model.py::test_full_hamiltonian_uncoupled_is_diagonal"
    ),
    "spaces.Operator.__add__": "tests/test_model.py::test_parametric_conserves_total_excitation",
    "spaces.Operator.__sub__": "tests/test_model.py::test_parametric_conserves_total_excitation",
    "spaces.Operator.__matmul__": (
        "tests/test_model.py::test_parametric_conserves_total_excitation"
    ),
    "spaces.Operator.__mul__": (
        "tests/test_protocols.py::test_semiclassical_phase_matches_quantum_dispersive_evolution"
    ),
}


def _surface() -> dict:
    """Surface name -> (identifier, file, definition node, is a class member)."""
    surface = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_"):
                    surface[f"{module}.{name}"] = (name, path, node, False)
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                    if name.startswith("_") and name not in OPERATORS:
                        continue
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                    if name.startswith("_"):
                        continue
                else:
                    continue
                surface[f"{module}.{node.name}.{name}"] = (name, path, item, True)
    return surface


def _references() -> list:
    """(identifier, file, line, read as a name) of every reference a reader makes."""
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    files += [ROOT / "tests" / "test_acceptance.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    refs = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append((node.id, path, node.lineno, True))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                refs.append((node.attr, path, node.lineno, False))
    return refs


def _within(line: int, node) -> bool:
    return node.lineno <= line <= node.end_lineno


def unread_names() -> set:
    """Surface names without a reader, found by shrinking the read set to a fixpoint."""
    surface = _surface()
    refs = _references()
    dead = {name for name in surface if name.rsplit(".", 1)[-1] in OPERATORS}
    while True:
        dead_spans = [(surface[n][1], surface[n][2]) for n in dead if n not in ORACLES]
        unread = set(dead)
        for qualified, (name, path, node, member) in surface.items():
            if qualified in dead:
                continue
            readers = [
                (where, line)
                for ident, where, line, as_name in refs
                if ident == name
                and (as_name is False or not member)
                and not (where == path and _within(line, node))
            ]
            live = [
                (where, line)
                for where, line in readers
                if not any(where == p and _within(line, n) for p, n in dead_spans)
            ]
            if not live:
                unread.add(qualified)
        if unread == dead:
            return unread
        dead = unread


def _test_source(test_id: str) -> str | None:
    """Source of the test a pytest id names, with the module functions it calls.

    None if there is no such test.
    """
    file, *names = test_id.split("::")
    path = ROOT / file
    if not path.exists():
        return None
    text = path.read_text(encoding="utf-8")
    module = ast.parse(text).body
    scope, node = module, None
    for name in names:
        node = next(
            (n for n in scope if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name),
            None,
        )
        if node is None:
            return None
        scope = node.body
    called = {n.func.id for n in ast.walk(node) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    helpers = [n for n in module if isinstance(n, ast.FunctionDef) and n.name in called]
    return "\n".join(ast.get_source_segment(text, n) for n in [node, *helpers])


def test_every_public_name_has_a_reader_or_an_oracle():
    missing = sorted(unread_names() - set(ORACLES))
    assert not missing, (
        "public names that no pipeline path, acceptance criterion or perfbench "
        f"reads: {missing}; delete them, or name the tier-1 test using each in ORACLES"
    )


def test_every_oracle_entry_is_needed_and_names_a_test_that_uses_it():
    surface = _surface()
    unread = unread_names()
    for qualified, test_id in ORACLES.items():
        assert qualified in surface, f"ORACLES names {qualified}, which no longer exists"
        assert qualified in unread, f"{qualified} has a reader; drop its ORACLES entry"
        source = _test_source(test_id)
        assert source is not None, f"ORACLES entry {qualified}: no test {test_id}"
        name = surface[qualified][0]
        token = OPERATORS.get(name, name)
        assert token in source, f"{test_id} does not use {qualified}"
