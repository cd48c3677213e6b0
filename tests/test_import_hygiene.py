"""Import hygiene for the layered proxy stack.

The layer modules are the foundation the proxy and session builders
stand on; an import from ``repro.core.layers`` back up into
``repro.core.session`` or ``repro.core.proxy`` would be a cycle waiting
to happen.  These checks parse the source (no imports executed) and
fail on (a) any such upward reference — even lazy, function-level ones
— and (b) any top-level import cycle anywhere in ``repro``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _module_name(path):
    rel = path.relative_to(SRC).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _repro_modules():
    return {_module_name(p): p for p in (SRC / "repro").rglob("*.py")}


def _imports(tree, module, top_level_only):
    """repro.* module names referenced by import statements in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:       # relative import: resolve against module
                base = module.split(".")[:-node.level]
                prefix = ".".join(base + ([node.module] if node.module
                                          else []))
            else:
                prefix = node.module or ""
            names = [prefix] + [f"{prefix}.{alias.name}"
                                for alias in node.names]
        else:
            continue
        if top_level_only and node.col_offset != 0:
            continue
        found.update(n for n in names if n == "repro" or
                     n.startswith("repro."))
    return found


def test_layers_never_import_session_or_proxy():
    """No reference from any layers module to the modules above it —
    not even inside a function body.  ``repro.experiments`` sits two
    floors up (it assembles sessions); a layer reaching into it would
    invert the whole architecture."""
    banned = ("repro.core.session", "repro.core.proxy",
              "repro.experiments")
    offenders = []
    for module, path in sorted(_repro_modules().items()):
        if not module.startswith("repro.core.layers"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for imported in _imports(tree, module, top_level_only=False):
            if any(imported == b or imported.startswith(b + ".")
                   for b in banned):
                offenders.append(f"{module} imports {imported}")
    assert not offenders, "\n".join(offenders)


def test_no_top_level_import_cycles_in_repro():
    """The whole package's top-level import graph is acyclic."""
    modules = _repro_modules()
    graph = {}
    for module, path in modules.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        deps = set()
        for imported in _imports(tree, module, top_level_only=True):
            # `from repro.core.layers import X` may name either a
            # module or a symbol; normalise to the longest prefix that
            # is a real module.
            name = imported
            while name and name not in modules:
                name = name.rpartition(".")[0]
            if name and name != module:
                deps.add(name)
        graph[module] = deps

    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(graph, WHITE)
    stack_trace = []
    cycles = []

    def visit(node):
        color[node] = GREY
        stack_trace.append(node)
        for dep in sorted(graph.get(node, ())):
            if color.get(dep, BLACK) == GREY:
                cycles.append(" -> ".join(
                    stack_trace[stack_trace.index(dep):] + [dep]))
            elif color.get(dep) == WHITE:
                visit(dep)
        stack_trace.pop()
        color[node] = BLACK

    for module in sorted(graph):
        if color[module] == WHITE:
            visit(module)
    assert not cycles, "import cycles:\n" + "\n".join(cycles)


def test_core_config_is_declarations_only():
    """``repro.core.config`` exports its three dataclasses and defines
    no module-level mutable state: configuration reaches a proxy as an
    argument (``GvfsSession.build(proxy_config=...)``), never through a
    process-wide registry a caller must save, set and restore."""
    path = SRC / "repro" / "core" / "config.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assigned = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            assigned[target.id] = node.value
    assert ast.literal_eval(assigned.pop("__all__")) == [
        "CachePolicy", "ProxyCacheConfig", "ProxyConfig"]
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                  ast.SetComp)
    mutable = [name for name, value in assigned.items()
               if isinstance(value, containers)
               or (isinstance(value, ast.Call)
                   and getattr(value.func, "id", "") in ("dict", "list",
                                                         "set"))]
    assert mutable == []
