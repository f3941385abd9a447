#!/usr/bin/env python3
"""Print the size and dependency figures of the ROADMAP's design aim for
`src/stablerd`.

1. The non-blank, non-comment lines of each module (docstrings count as
   code), and their total.
2. Every `isinstance` check on a source class (`SymmetricStableSource`,
   `EmpiricalSource`, `TabulatedSource`, `UniformSource` or `_Source`),
   with its file:line.
3. Every import of `scipy` or a `scipy.*` module, with its file:line, marked
   module-level (run by `import stablerd`) or in-function (run by a call).

Run it from anywhere; it reads the tree next to this script, or the `src`
directory given as its argument:

    python scripts/code_stats.py [path/to/src]
"""

import ast
import os
import sys

SOURCE_CLASSES = {"SymmetricStableSource", "EmpiricalSource", "TabulatedSource",
                  "UniformSource", "_Source"}


def code_lines(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip() and not line.lstrip().startswith("#"))


def source_class_checks(path: str):
    """Line numbers of isinstance(x, C) calls whose C names a source class."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" \
                and len(node.args) == 2:
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            names = {getattr(k, "id", getattr(k, "attr", None)) for k in kinds}
            if names & SOURCE_CLASSES:
                yield node.lineno


def scipy_imports(path: str):
    """(line, module, where) of each scipy import; where is "module-level" or
    "in-function"."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)

    def walk(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                # `from scipy import optimize` names scipy.optimize
                names = sorted({f"scipy.{a.name}" if child.module == "scipy" else child.module
                                for a in child.names})
            else:
                names = []
            for name in names:
                if name == "scipy" or name.startswith("scipy."):
                    yield child.lineno, name, "in-function" if in_function else "module-level"
            yield from walk(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    yield from sorted(walk(tree, False))


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = sys.argv[1] if len(sys.argv) > 1 else os.path.join(root, "src")
    pkg = os.path.join(src, "stablerd")
    modules = sorted(f for f in os.listdir(pkg) if f.endswith(".py"))
    total = 0
    print("non-blank, non-comment lines")
    for name in modules:
        n = code_lines(os.path.join(pkg, name))
        total += n
        print(f"  {n:6d}  {name}")
    print(f"  {total:6d}  total")
    checks = [(name, line) for name in modules
              for line in source_class_checks(os.path.join(pkg, name))]
    print(f"isinstance checks on source classes: {len(checks)}")
    for name, line in checks:
        print(f"  src/stablerd/{name}:{line}")
    imports = [(name, *imp) for name in modules
               for imp in scipy_imports(os.path.join(pkg, name))]
    print(f"scipy imports: {len(imports)}")
    for name, line, module, where in imports:
        print(f"  src/stablerd/{name}:{line}  {module}  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
