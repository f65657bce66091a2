"""Every top-level function and class in ``src/protoform`` is used by other
code in ``src/``.

A use is a name or an attribute that reads it, outside its own definition;
imports (the re-exports of ``engine/__init__.py`` among them) are not uses.
Names match by identifier alone, so a dead definition whose name some other
code reads (as a method, say) slips through; the guard only ever errs that
way.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "protoform"

# ``module.name``, where ``module`` is the file or package under protoform
ENTRY_POINTS = {"cli.main"}   # the console script

# Reached only from the benchmark, which wraps or calls them by name; each
# goes once the benchmark stops naming it (ROADMAP item 3).
ALLOWED = {
    "engine.zero_grads": "wrapped by the benchmark's tracer; adam_step clears gradients",
    "metrics.error_breakdown": "wrapped by the benchmark's tracer; evaluate tallies by _tally",
    "phylo.load_newick": "called by the benchmark's evaluate workload",
}


def _reads(tree) -> set:
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def reach(src=SRC):
    """(definitions, used names): every top-level function and class as
    ``module.name``, with the set of names each one is used under."""
    defs, uses = {}, {}
    for path in sorted(src.rglob("*.py")):
        if path.relative_to(src) == Path("engine", "__init__.py"):
            continue
        module = path.relative_to(src).parts[0].removesuffix(".py")
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                key = f"{module}.{stmt.name}"
                defs[key] = stmt.name
                # uses inside a definition count for every name but its own
                for name in _reads(stmt) - {stmt.name}:
                    uses.setdefault(name, set()).add(key)
            else:
                for name in _reads(stmt):
                    uses.setdefault(name, set()).add(f"{module} (top level)")
    return defs, uses


def unreached(src=SRC) -> list:
    """Definitions nothing uses that are neither entry points nor allowed,
    then allowed ones that gained a user or no longer exist."""
    defs, uses = reach(src)
    dead = sorted(k for k, name in defs.items()
                  if name not in uses and k not in ENTRY_POINTS and k not in ALLOWED)
    stale = sorted(k for k in ALLOWED if k not in defs or defs[k] in uses)
    return dead + stale


def test_every_definition_is_reached():
    assert unreached() == []


def test_guard_sees_planted_dead_code_and_stale_allowances(tmp_path):
    pkg = tmp_path / "protoform"
    (pkg / "engine").mkdir(parents=True)
    for path in SRC.rglob("*.py"):
        dst = pkg / path.relative_to(SRC)
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    assert unreached(pkg) == []

    def planted(name, old, new):
        """The guard's findings with ``old`` replaced by ``new`` in one file."""
        path = pkg / name
        clean = path.read_text(encoding="utf-8")
        assert old in clean
        path.write_text(clean.replace(old, new), encoding="utf-8")
        try:
            return unreached(pkg)
        finally:
            path.write_text(clean, encoding="utf-8")

    end = "\n\n\ndef load_newick("
    assert planted("phylo.py", end, "\n\n\ndef _never_called():\n    return 1" + end) == [
        "phylo._never_called"]
    # a function that only calls itself is still unreached
    assert planted("phylo.py", end, "\n\n\ndef loop(n):\n    return loop(n - 1)" + end) == [
        "phylo.loop"]
    assert planted("cli.py", "\n\n\ndef main(", "\n\nGOLD = P.load_newick\n\n\ndef main(") == [
        "phylo.load_newick"]
    assert planted("phylo.py", "def load_newick(", "def read_newick_file(") == [
        "phylo.read_newick_file", "phylo.load_newick"]
