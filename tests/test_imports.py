"""Every name a ``magsense`` module imports is read by that module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "magsense"

# module -> the names it imports and never reads. The benchmark's tracer
# wraps each one by getattr on that module (perfbench/layers.py,
# Tracer.install), so the name must stay bound there.
TRACED = {
    "protocols": {"sample_readout"},
    "runner": {"subsample_time_budget"},
    "sensitivity": {"fit_curve"},
}


def _imports_and_reads(path: Path) -> tuple[dict, set]:
    """The names ``path`` binds by import, with their lines, and the names it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported, read


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_every_import_is_read(path):
    imported, read = _imports_and_reads(path)
    unread = sorted(set(imported) - read - TRACED.get(path.stem, set()))
    assert not unread, [f"{path.name}:{imported[name]}: {name}" for name in unread]


@pytest.mark.parametrize("module", sorted(TRACED))
def test_traced_names_are_imported_unread_and_wrapped(module):
    imported, read = _imports_and_reads(PACKAGE / f"{module}.py")
    tracer = (ROOT / "perfbench" / "layers.py").read_text(encoding="utf-8")
    for name in sorted(TRACED[module]):
        assert name in imported, f"{module} no longer imports {name}: drop it from TRACED"
        assert name not in read, f"{module} now reads {name}: drop it from TRACED"
        assert f'"{name}"' in tracer, f"the tracer no longer wraps {name}: drop it from TRACED"

