"""Every name a library module imports is used in that module, so a sweep
that removes the last use of an import cannot leave the import behind.
``__init__`` is exempt: its imports are the package's exports.  Every
module-level private name is used somewhere in the package, so no dead
helper stays behind either.  Every public module-level function is called
by another function of the package or belongs to its named API, so a
helper that only the tests run cannot land in the library.  No
module-level statement calls a function of the package, so importing it
does no work of its own.  A CM point is rounded to an mpc (``cm_point``,
``quadforms._root``) only where a command prints it, so no evaluator reads
a rounded point back as a form.  The README's
global flags are the options every command takes, so a flag cannot be
added or removed on one side only.  In ``cli``, only ``main`` writes stdout
and names an exit code: a command returns its document, lines and verdict.
Every bound is kept in one calculus: no module opens a 53-bit context for
float bookkeeping or names interval arithmetic (``mpmath.iv``).  Only
``evaluate._ediv`` divides complex numbers by long division (``_cdiv``), so
the kernels keep to one real reciprocal (``_recip``)."""

import argparse
import ast
import re
from pathlib import Path

import pytest

from cmpartitions import cli

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cmpartitions"
README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_detects_an_unused_import():
    assert unused_imports("import time\nimport os\nos.sep\n") == ["time (line 1)"]


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level _private names (dunders aside) that no module of
    sources reads: not as a name, an attribute or an imported name."""
    defined = []
    used = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined += [(name, module, node.lineno) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [f"{name} ({module} line {line})" for name, module, line in defined
            if name not in used]


def test_every_private_name_is_used():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_detects_a_dead_private_name():
    sources = {"a.py": "def _used():\n    pass\n\n\ndef _dead():\n    pass\n\n_LIMIT = 3\n",
               "b.py": "from .a import _used\n_used()\n"}
    assert dead_private_names(sources) == ["_dead (a.py line 5)", "_LIMIT (a.py line 8)"]


# Public functions that no function of the package needs to call: the point
# evaluators, the exact series, Masser's C at a form, the sharpness divisor
# that perfbench/spans.py reads, and the command-line entry points.
API = {"eval_A", "eval_Aprime", "eval_B", "eval_C", "eval_eisenstein", "eval_eta",
       "eval_form", "eval_j", "eval_P", "eval_P_cm", "eval_theta_j",
       "delta_series", "eisenstein_series", "eta_quotient_series", "euler_product_series",
       "fp_series", "hypothesis_check", "j_series",
       "masser_c", "sharpness_divisor", "main", "console_main"}


def public_functions(sources: dict[str, str]) -> dict[tuple[str, str], int]:
    """(module, name) -> line of each module-level public function."""
    return {(module, top.name): top.lineno for module, source in sources.items()
            for top in ast.parse(source).body
            if isinstance(top, ast.FunctionDef) and not top.name.startswith("_")}


def uncalled_public_functions(sources: dict[str, str], api: set[str]) -> list[str]:
    """Module-level public functions that api does not name and that no
    other module-level function or class of sources refers to: by the name
    its module defines or a module imports (``from .m import f``), or as an
    attribute of its module (``m.f``)."""
    public = public_functions(sources)
    reached = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        imported = {alias.asname or alias.name: (f"{node.module}.py", alias.name)
                    for node in tree.body if isinstance(node, ast.ImportFrom) and node.module
                    for alias in node.names}
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    target = imported.get(node.id, (module, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    target = (f"{node.value.id}.py", node.attr)
                else:
                    continue
                if target != (module, top.name):
                    reached.add(target)
    return [f"{name} ({module} line {line})" for (module, name), line in public.items()
            if (module, name) not in reached and name not in api]


def test_every_public_function_is_called_or_api():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name not in ("__init__.py", "__main__.py")}
    assert uncalled_public_functions(sources, API) == []
    # every API name is a public function, so the set cannot go stale
    assert API <= {name for _, name in public_functions(sources)}


def test_detects_an_uncalled_public_function():
    sources = {"a.py": ("def used():\n    return 1\n\n\n"
                        "def helper():\n    return used()\n\n\n"
                        "def eval_x():\n    return helper()\n\n\n"
                        "def recurse(n):\n    return recurse(n - 1) if n else 0\n"),
               "b.py": ("from . import a\n\n\n"
                        "def main():\n    return a.helper()\n\n\n"
                        "def orphan(data):\n    return data.recurse(2)\n")}
    assert uncalled_public_functions(sources, {"eval_x", "main"}) == [
        "recurse (a.py line 13)", "orphan (b.py line 8)"]


def _is_main_guard(node) -> bool:
    """Whether node is ``if __name__ == "__main__":``."""
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and getattr(node.test.left, "id", None) == "__name__")


def import_time_calls(sources: dict[str, str]) -> list[str]:
    """Calls that importing the modules of sources makes to a function or
    class defined in one of them: those in module-level statements, class
    bodies, decorators and default values, not in function bodies or behind
    ``if __name__ == "__main__":``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    found = []
    for module, tree in trees.items():
        pending = list(tree.body)
        while pending:
            node = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                pending += node.decorator_list + node.args.defaults
                pending += [d for d in node.args.kw_defaults if d is not None]
                continue
            if isinstance(node, ast.Lambda) or _is_main_guard(node):
                continue
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in defined:
                    found.append(f"{name} ({module} line {node.lineno})")
            pending += ast.iter_child_nodes(node)
    return sorted(found)


def test_import_does_no_package_work():
    # __main__ is the script ``python -m`` runs, not a module anything imports
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__main__.py"}
    assert import_time_calls(sources) == []


def test_detects_package_work_at_import():
    sources = {"a.py": ("def _table(j=1):\n    return j\n\n\n"
                        "def f(x=_table()):\n    return _table(x)\n\n\n"
                        "TABLE = [_table(k) for k in range(3)]\n\n"
                        "if __name__ == \"__main__\":\n    f()\n"),
               "b.py": "from . import a\n\n\nclass C:\n    LIMIT = a._table(2)\n"}
    assert import_time_calls(sources) == ["_table (a.py line 5)", "_table (a.py line 9)",
                                          "_table (b.py line 5)"]


# The only functions outside quadforms that may round a form to a point, both
# to print it: the forms command's im_alpha and verify-decomp's worst_at.
ROUNDING = {"cm_point", "_root"}
MAY_ROUND = {("cli.py", "_cmd_forms"), ("cli.py", "_cmd_verify_decomp")}


def rounded_point_uses(sources: dict[str, str]) -> list[str]:
    """References to cm_point or _root (as a name or an attribute) outside
    quadforms, the package's exports (``__init__``) and the functions of
    MAY_ROUND, found by the module-level statement that holds them; a module
    with such a function may import the name, unaliased."""
    found = []
    for module, source in sources.items():
        if module in ("quadforms.py", "__init__.py"):
            continue
        for top in ast.parse(source).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    names = [a.name for a in node.names
                             if a.asname or module not in {m for m, _ in MAY_ROUND}]
                else:
                    names = [getattr(node, "id", None) or getattr(node, "attr", None)]
                    if (module, owner) in MAY_ROUND:
                        names = []
                found += [f"{name} ({module} line {node.lineno})" for name in names
                          if name in ROUNDING]
    return found


def test_no_form_is_rounded_to_a_point_and_read_back():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert rounded_point_uses(sources) == []


def test_detects_a_rounded_point():
    sources = {"quadforms.py": "def cm_point(q):\n    return _root(q)\n",
               "cli.py": ("from .quadforms import cm_point\n\n\n"
                          "def _cmd_forms(f):\n    return cm_point(f)\n\n\n"
                          "def _rows(f):\n    return cm_point(f)\n"),
               "resolvent.py": ("from . import quadforms\nfrom .quadforms import cm_point\n\n\n"
                                "def check(f):\n    return quadforms._root(f)\n")}
    assert rounded_point_uses(sources) == ["cm_point (cli.py line 9)",
                                           "cm_point (resolvent.py line 2)",
                                           "_root (resolvent.py line 6)"]


def readme_global_flags(readme: str) -> set[str]:
    """The options named in backticks in the README's "Global flags"
    paragraph."""
    paragraph = readme.split("Global flags:", 1)[1].split("\n\n", 1)[0]
    return set(re.findall(r"`(--[a-z][a-z-]*)`", paragraph))


def common_options(parser: argparse.ArgumentParser) -> set[str]:
    """The long options, --help aside, that every subcommand of parser takes:
    those of the common parent parser."""
    commands = next(action.choices.values() for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    shared = set.intersection(*({s for action in command._actions
                                 for s in action.option_strings}
                                for command in commands))
    return {s for s in shared if s.startswith("--")} - {"--help"}


def test_readme_names_exactly_the_global_flags():
    assert readme_global_flags(README.read_text()) == common_options(cli._build_parser())


def test_detects_a_flag_on_one_side_only():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true")
    parser = argparse.ArgumentParser()
    commands = parser.add_subparsers()
    commands.add_parser("pn", parents=[common]).add_argument("--n")
    commands.add_parser("cache", parents=[common])
    readme = "Global flags: `--json`, `--threads`.\n\nExit codes: `--n`.\n"
    assert common_options(parser) == {"--json"}
    assert readme_global_flags(readme) == {"--json", "--threads"}


def stdout_and_exit_uses(source: str) -> list[str]:
    """What a function of source other than main does that only main may:
    a print without file=sys.stderr, a call of _emit, or a name (or
    attribute) EXIT_*."""
    found = []
    for top in ast.parse(source).body:
        if not isinstance(top, ast.FunctionDef) or top.name == "main":
            continue
        for node in ast.walk(top):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None)
                to_stderr = any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
                                for k in node.keywords)
                if name == "_emit" or (name == "print" and not to_stderr):
                    found.append(f"{name} ({top.name} line {node.lineno})")
            elif isinstance(name, str) and name.startswith("EXIT_"):
                found.append(f"{name} ({top.name} line {node.lineno})")
    return found


def test_only_main_prints_and_picks_the_exit_code():
    assert stdout_and_exit_uses((PACKAGE / "cli.py").read_text()) == []


def test_detects_a_command_that_prints_or_exits():
    source = ("def _cmd_a(args):\n    print(args)\n    return EXIT_OK\n\n\n"
              "def _cmd_b(args):\n    print(args, file=sys.stderr)\n    _emit(args)\n\n\n"
              "def _cmd_c(args):\n    return cli.EXIT_USAGE\n\n\n"
              "def main(argv):\n    print(argv)\n    return EXIT_OK\n")
    assert stdout_and_exit_uses(source) == ["print (_cmd_a line 2)", "EXIT_OK (_cmd_a line 3)",
                                            "_emit (_cmd_b line 8)", "EXIT_USAGE (_cmd_c line 12)"]


def calculus_breaches(sources: dict[str, str]) -> list[str]:
    """A 53-bit context opened by workprec(53), and mpmath.iv named (as an
    attribute or an imported name), found by the module-level statement
    that holds them."""
    found = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if name == "workprec" and [ast.unparse(a) for a in node.args] == ["53"]:
                        found.append(f"workprec(53) ({module} line {node.lineno})")
                elif ((isinstance(node, ast.Attribute) and node.attr == "iv")
                      or (isinstance(node, ast.ImportFrom)
                          and "iv" in [a.name for a in node.names])):
                    found.append(f"iv ({module} line {node.lineno})")
    return found


def test_one_error_calculus():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert calculus_breaches(sources) == []


def test_detects_a_float_bound_and_intervals_outside_eval():
    sources = {"evaluate.py": ("import mpmath\n\n\ndef _eval_bounded(z):\n"
                               "    iv = mpmath.iv\n    return iv.mpf(z)\n\n\n"
                               "def _tail(z):\n    return mpmath.iv.mpc(z)\n"),
               "recognize.py": ("from mpmath import iv, workprec\n\n\n"
                                "def orbit_product(v):\n    with mpmath.workprec(53):\n"
                                "        return workprec(54)\n")}
    assert calculus_breaches(sources) == ["iv (evaluate.py line 5)", "iv (evaluate.py line 10)",
                                          "iv (recognize.py line 1)",
                                          "workprec(53) (recognize.py line 5)"]


def long_division_callers(sources: dict[str, str]) -> list[str]:
    """Calls of _cdiv (as a name or an attribute) anywhere but in _ediv,
    found by the module-level statement that holds them."""
    found = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            if getattr(top, "name", None) == "_ediv":
                continue
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and "_cdiv" in
                        (getattr(node.func, "id", None), getattr(node.func, "attr", None))):
                    found.append(f"_cdiv ({module} line {node.lineno})")
    return found


def test_only_ediv_divides_by_long_division():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert long_division_callers(sources) == []


def test_detects_a_long_division_outside_ediv():
    sources = {"evaluate.py": ("def _cdiv(a, b):\n    return a / b\n\n\n"
                               "def _ediv(a, b):\n    return _cdiv(a, b)\n\n\n"
                               "def _series(p):\n    return _cdiv(1, p)\n"),
               "modpoly.py": ("from . import evaluate\n\n\n"
                              "def beta(x):\n    return evaluate._cdiv(1, x)\n")}
    assert long_division_callers(sources) == ["_cdiv (evaluate.py line 10)",
                                              "_cdiv (modpoly.py line 5)"]
