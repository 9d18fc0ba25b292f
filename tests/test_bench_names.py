"""The benchmark's view of the package: every name it reaches must exist.

perfbench/suite.py calls entsel through module attributes and
perfbench/tracing.py wraps the functions named in its WRAPPED table. A name
dropped from src/ fails every benchmark run, or the tracer silently reports
it as absent. Both files are read with ast, never imported.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _parse(filename):
    return ast.parse((PERFBENCH / filename).read_text())


def _module_attributes(tree):
    """(module, attribute) for each `alias.X` where alias is an imported entsel module."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("entsel"):
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return {(aliases[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases}


def _wrapped_targets(tree):
    """(module, dotted attribute) for every entry of the WRAPPED table."""
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets))
    targets = set()
    for value in table.values:
        if isinstance(value, ast.DictComp):  # **{...: ("module", op) for op in (...)}
            module = value.value.elts[0].value
            targets |= {(module, op) for op in ast.literal_eval(value.generators[0].iter)}
        else:
            targets.add(ast.literal_eval(value))
    return targets


def _resolves(module, dotted):
    try:
        owner = importlib.import_module(module)
        for part in dotted.split("."):
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return False
    return True


def test_every_name_the_benchmark_uses_resolves():
    names = (_module_attributes(_parse("suite.py")) | _module_attributes(_parse("tracing.py"))
             | _wrapped_targets(_parse("tracing.py")))
    # the scan sees every kind of name the benchmark reaches
    assert {module for module, _ in names} >= {
        "entsel.encoder", "entsel.inference", "entsel.retrieval", "entsel.training",
        "entsel.workbench.datafiles", "entsel.numerics.tensor"}
    assert {("entsel.retrieval", "embed_text"), ("entsel.training", "Adam.step")} <= names
    assert not _resolves("entsel.retrieval", "top_k")  # a deleted name is caught
    missing = sorted(f"{module}.{dotted}" for module, dotted in names
                     if not _resolves(module, dotted))
    assert not missing, f"names the benchmark uses but src/ lacks: {missing}"
