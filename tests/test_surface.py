"""Every definition in `src/ncphase` serves a subcommand, and each
numerical decision has one site.

The roots are `cli.main`, the `cmd_*` subcommands and the names of the
README's Python example.  A top-level function or class that no live code
names (a `Name` or an `Attribute` node outside its own body) is dead, and
so is a non-dunder method that no `Attribute` node names; so is one named
only from dead code, which the scan finds by dropping definitions until
none drops.  A module outside the import closure of `ncphase.cli` is dead
as a whole.

A tolerance is a parameter of one function, `structure.regularity`, the
one regular/degenerate decision.  Only it raises `SingularOmega`, and
only `constrained._rank` reads the chain's rank cutoff.  One function,
`spectrum.terminal_chain`, calls `constrained.gnh_chain`, so `simulate`,
`spectrum` and `reduce` read one chain of a config.  `spectrum` and
`reduce` take their frequencies from the one normal-mode core, so
`np.linalg.eigvals` is called only by `ConstraintChain.terminal_eigenvalues`
(a Hessian with no ladder) and by the midpoint step bound of `dynamics`,
and `constrained` balances nothing (it names no `frexp`).  No module names
`np.longdouble`, which is float64 on some platforms.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ncphase"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees() -> dict:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _names(node, skip=()) -> set:
    """The names that `Name` nodes under ``node`` use, and those of
    `Attribute` nodes with a leading dot, outside the subtrees in ``skip``."""
    out, todo = set(), [node]
    while todo:
        sub = todo.pop()
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add("." + sub.attr)
        todo += [child for child in ast.iter_child_nodes(sub)
                 if not any(child is s for s in skip)]
    return out


def _definitions(tree) -> dict:
    """{qualified name: (node, the names that reach it)} of the top-level
    functions and classes and the non-dunder methods."""
    defs = {}
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            defs[node.name] = node, {node.name, "." + node.name}
            if isinstance(node, ast.ClassDef):
                defs.update((f"{node.name}.{sub.name}", (sub, {"." + sub.name}))
                            for sub in node.body
                            if isinstance(sub, DEFINITIONS) and not sub.name.startswith("__"))
    return defs


def _dead_definitions(trees: dict, roots: set) -> list:
    defs = {(module, qual): value for module, tree in trees.items()
            for qual, value in _definitions(tree).items()}
    nodes = [node for node, _ in defs.values()]
    # The names each definition uses in its own body, less its methods'.
    own = {key: _names(node, skip=[n for n in nodes if n is not node])
           for key, (node, _) in defs.items()}
    used = set().union(*(_names(node) for tree in trees.values() for node in tree.body
                         if not isinstance(node, DEFINITIONS)))
    live = set(defs)
    while True:
        dead = {key for key in live
                if not (defs[key][1] & roots or defs[key][0].name.startswith("cmd_")
                        or defs[key][1] & used
                        or any(defs[key][1] & own[other] for other in live - {key}))}
        if not dead:
            return sorted(f"{module}.{qual}" for module, qual in set(defs) - live)
        live -= dead


def _import_closure(trees: dict, start: str) -> set:
    seen, todo = {"__init__"}, [start]
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        for node in ast.walk(trees[module]):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                todo += [node.module] if node.module else [a.name for a in node.names]
    return seen


def test_every_module_is_imported_by_the_cli():
    trees = _trees()
    assert set(trees) - _import_closure(trees, "cli") == set()


def test_every_definition_is_reached_from_a_subcommand():
    example = re.search(r"```python\n(.*?)```",
                        (ROOT / "README.md").read_text(encoding="utf-8"), re.S).group(1)
    roots = {"main"} | _names(ast.parse(example))
    assert _dead_definitions(_trees(), roots) == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _sites(trees: dict, match) -> set:
    """``module.function`` of the innermost function around each node that
    ``match`` accepts (a function node is inside itself; ``module`` at the
    top level)."""
    sites = set()

    def visit(node, module, where):
        if isinstance(node, FUNCTIONS):
            where = f"{module}.{node.name}"
        if match(node):
            sites.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for module, tree in trees.items():
        visit(tree, module, module)
    return sites


def _parameters(node) -> list:
    a = node.args
    return [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]


def _named(node, name: str) -> bool:
    return ((isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name))


def test_tolerance_parameters_reach_one_function():
    sites = _sites(_trees(), lambda node: isinstance(node, FUNCTIONS + (ast.Lambda,))
                   and any("tol" in name for name in _parameters(node)))
    assert sites == {"structure.regularity"}


def test_only_rank_reads_the_rank_cutoff():
    sites = _sites(_trees(), lambda node: _named(node, "RANK_TOL_FACTOR")
                   and isinstance(node.ctx, ast.Load))
    assert sites == {"constrained._rank"}


def test_singular_omega_is_raised_by_the_one_decision():
    sites = _sites(_trees(), lambda node: isinstance(node, ast.Call)
                   and _named(node.func, "SingularOmega"))
    assert sites == {"structure.regularity"}


def test_one_function_builds_the_constraint_chain():
    sites = _sites(_trees(), lambda node: isinstance(node, ast.Call)
                   and _named(node.func, "gnh_chain"))
    assert sites == {"spectrum.terminal_chain"}


def test_eigvals_has_two_sites_and_the_chain_no_balancing():
    sites = _sites(_trees(), lambda node: _named(node, "eigvals"))
    assert sites == {"constrained.terminal_eigenvalues", "dynamics.midpoint_transfer"}
    assert "frexp" not in (SRC / "constrained.py").read_text(encoding="utf-8")


def test_no_module_names_longdouble():
    # np.longdouble is float64 on MSVC and macOS arm64; the extended
    # precision of `structure.poisson_matrix` is double-double in float64.
    assert [p.name for p in sorted(SRC.glob("*.py"))
            if "longdouble" in p.read_text(encoding="utf-8")] == []
