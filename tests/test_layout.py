"""Package layout: the modules of hadwiger2 import each other without
cycles, and the command line keeps no copy of a witness check."""

import ast
from pathlib import Path

import hadwiger2

PACKAGE = Path(hadwiger2.__file__).parent


def _imports(path: Path, modules: set[str]) -> set[str]:
    """The package modules that ``path`` imports anywhere in its body,
    function-level imports included; ``from . import x`` names module x
    when there is one, and the package ``__init__`` otherwise."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(a.name if a.name in modules else "__init__" for a in node.names)
            elif node.level == 0 and (node.module or "").startswith("hadwiger2."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("hadwiger2."))
    return found


def _import_graph() -> dict[str, set[str]]:
    paths = sorted(PACKAGE.glob("*.py"))
    modules = {p.stem for p in paths}
    return {p.stem: _imports(p, modules) & modules for p in paths}


def test_every_module_is_seen():
    graph = _import_graph()
    assert {"cli", "certificates", "cliques", "conjectures", "constructions", "graphs"} <= set(graph)
    # The function-level imports count: conjectures builds eberhard's host.
    assert "constructions" in graph["conjectures"]
    assert "__init__" in graph["cli"]


def test_package_imports_are_acyclic():
    graph = _import_graph()
    state: dict[str, int] = {}
    path: list[str] = []

    def visit(m: str) -> None:
        state[m] = 1
        path.append(m)
        for dep in sorted(graph[m]):
            if state.get(dep) == 1:
                cycle = path[path.index(dep):] + [dep]
                raise AssertionError("import cycle: " + " -> ".join(cycle))
            if dep not in state:
                visit(dep)
        path.pop()
        state[m] = 2

    for m in sorted(graph):
        if m not in state:
            visit(m)


def _f_string_checks(path: Path) -> list[int]:
    """Lines of ``path`` that call ``_check`` with an f-string argument."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) == "_check" or getattr(node.func, "attr", None) == "_check"
        ):
            if any(isinstance(a, ast.JoinedStr) for a in node.args + [k.value for k in node.keywords]):
                found.append(node.lineno)
    return found


def test_check_messages_are_not_formatted_eagerly():
    # _check(cond, f"...") formats its message even when cond holds; such a
    # check belongs in ``if not cond: raise ConstructionError(f"...")``.
    offenders = {p.name: lines for p in sorted(PACKAGE.glob("*.py")) if (lines := _f_string_checks(p))}
    assert not offenders, f"_check called with an f-string message: {offenders}"


def test_cli_verifies_no_witness_itself():
    # Each witness is checked by the library function that returns it; a
    # verifier named in cli.py would be a second copy of that check.
    verifiers = {"is_cdm", "verify_k_model", "verify_certificate", "is_clique"}
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    assert not verifiers & names, f"cli.py names {sorted(verifiers & names)}"


def _calls(nodes, name: str) -> list[int]:
    """Lines within ``nodes`` that call ``name``, plain or as an attribute."""
    return [
        n.lineno
        for node in nodes
        for n in ast.walk(node)
        if isinstance(n, ast.Call) and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
    ]


def test_cli_builds_its_parser_only_in_parser():
    # ``main`` reuses the one parser that the cached ``_parser`` builds on
    # the first call.  A parser built in another function would be built
    # per call, and one built by the module body, at import.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    bodies, at_import = {}, []
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            bodies[stmt.name] = stmt.body
            at_import += stmt.decorator_list + stmt.args.defaults + [d for d in stmt.args.kw_defaults if d]
        else:
            at_import.append(stmt)
    assert {name for name, body in bodies.items() if _calls(body, "ArgumentParser")} == {"_parser"}
    assert not _calls(at_import, "ArgumentParser") and not _calls(at_import, "_parser")
