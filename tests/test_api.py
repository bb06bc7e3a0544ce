"""Export lists: every name in a module's ``__all__`` exists, so a deleted
name cannot linger in one, and something other than the tests uses it.
Coefficient families are read through their polynomial forms, not by
class, and define no method; every path is drawn and scanned in ``sde``.
No module imports scipy, so ``import levy_gqmle`` and every command load
none of it."""

import ast
import importlib
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest

import levy_gqmle

MODULES = ["levy_gqmle"] + [f"levy_gqmle.{m.name}" for m in pkgutil.iter_modules(levy_gqmle.__path__)]
ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(getattr(importlib.import_module(name), "__all__", ())) <= set(namespace)


def _src_uses() -> set[str]:
    """Names read anywhere in src/ as a name or an attribute.

    Import statements, ``__all__`` strings, docstrings and a name's own
    top-level definition do not count: a re-export or a recursive call is
    not a use.
    """
    used = set()
    for path in (ROOT / "src").rglob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            used |= {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            } - {getattr(stmt, "name", None)}
    return used


def test_every_export_has_a_caller_outside_tests():
    # a helper only the tests call belongs in tests/, not in the package
    src = _src_uses()
    other = "\n".join(p.read_text() for d in ("demo", "perfbench", "tools") for p in (ROOT / d).rglob("*.py"))
    dead = [
        f"{module}.{n}"
        for module in MODULES
        for n in getattr(importlib.import_module(module), "__all__", ())
        if n not in src and not re.search(rf"\b{re.escape(n)}\b", other)
    ]
    assert dead == []


def _names(path: pathlib.Path) -> set[str]:
    """Every name a module imports, reads or writes, as a name or an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_families_read_through_their_polynomial_forms():
    # a module that names a concrete family class can branch on it; only
    # coefficients.py, experiment.py (which builds the benchmark models) and
    # the package namespace, which re-exports them, may
    tree = ast.parse((ROOT / "src" / "levy_gqmle" / "coefficients.py").read_text())
    families = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    allowed = {"coefficients.py", "experiment.py", "__init__.py"}
    named = {
        path.name: sorted(families & _names(path))
        for path in (ROOT / "src").rglob("*.py")
        if path.name not in allowed
    }
    assert families and {name: found for name, found in named.items() if found} == {}
    # and a family is its coefficients: no family defines a method, so no
    # second form of one can come back.  The one function allowed is a
    # property that returns a coefficient tuple, as MeanRevertLinear's
    # basis_coef depends on its m
    methods = [
        f"{node.name}.{item.name}"
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (item.name.endswith("_coef") and [ast.unparse(d) for d in item.decorator_list] == ["property"])
    ]
    assert methods == []


def test_paths_are_drawn_and_filtered_only_in_sde():
    # one way to simulate a panel of paths: outside levy.py, which defines
    # sample_increments, and the package namespace, which re-exports it,
    # only sde.py draws increments or scans them into paths
    kernels = ("sample_increments", "_scan", "_thinned")
    users = {
        name: {path.name for path in (ROOT / "src").rglob("*.py") if name in _names(path)} - {"levy.py", "__init__.py"}
        for name in kernels
    }
    assert users == dict.fromkeys(kernels, {"sde.py"})


def test_commands_resolve_no_setting_themselves():
    # every CLI setting is one row of cli._COMMANDS, which declares its flag,
    # config key, cast and default; a command function only reads the values
    tree = ast.parse((ROOT / "src" / "levy_gqmle" / "cli.py").read_text())
    commands = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    resolving = {
        command.name: sorted(
            name
            for node in ast.walk(command)
            if isinstance(node, ast.Call)
            for name in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
            if name in ("_setting", "add_argument")
        )
        for command in commands
    }
    assert commands and {name: calls for name, calls in resolving.items() if calls} == {}


def test_every_setting_is_read_by_its_command():
    # a row its command never reads is a flag and a config key that do
    # nothing; a command reads a setting as s.<key> or names it to _given
    from levy_gqmle import cli

    tree = ast.parse((ROOT / "src" / "levy_gqmle" / "cli.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    unread = {}
    for command, (func, _, rows) in cli._COMMANDS.items():
        node = functions[func.__name__]
        settings = node.args.args[0].arg
        read = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) == settings:
                read.add(sub.attr)
            elif isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "_given":
                read |= {arg.value for arg in sub.args[1:] if isinstance(arg, ast.Constant)}
        missing = [row[0] for row in rows if row[0] not in read]
        if missing:
            unread[command] = missing
    assert cli._COMMANDS and unread == {}


def _imports(node: ast.AST):
    """Modules imported anywhere in ``node``, function bodies included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            yield from (alias.name for alias in sub.names)
        elif isinstance(sub, ast.ImportFrom):
            yield sub.module or ""


def test_no_module_imports_scipy():
    # numpy is the one runtime dependency: the NIG density's K_1 is
    # levy._k1e and the AR(1) scan is sde's
    trees = {path.name: ast.parse(path.read_text()) for path in (ROOT / "src").rglob("*.py")}
    found = {
        name: hits for name, tree in trees.items()
        for hits in [[n for n in _imports(tree) if n.split(".")[0] == "scipy"]] if hits
    }
    assert "levy.py" in trees and found == {}


def _fresh(script: str, cwd: pathlib.Path) -> None:
    """Run ``script`` in a new interpreter that imports the package from src/."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]


_LOADED = "def scipy_loaded():\n    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"


def test_no_command_loads_scipy(tmp_path):
    # case i's Sigma quadrature reaches the NIG jump density; no command,
    # that one included, loads any scipy module
    from levy_gqmle.experiment import noise_case, true_ou
    from levy_gqmle.sde import PathConfig, simulate_euler, write_path

    write_path(simulate_euler(true_ou(), noise_case("ii"), PathConfig(200, 0.05, seed=3)), tmp_path / "path.csv")
    runs = {
        "optimal": ["optimal", "--case", "iii"],
        "estimate": ["estimate", "--path", str(tmp_path / "path.csv")],
        "mc_refused": ["mc", "--replications", "x"],
        "simulate": ["simulate", "--n", "20", "--out-dir", str(tmp_path / "simulated")],
        "mc": ["mc", "--case", "ii", "--replications", "100", "--format", "json", "--out-dir", str(tmp_path / "mc")],
        "asymptotics": ["asymptotics", "--case", "i", "--budget", "2000", "--m", "30", "--format", "json",
                        "--out-dir", str(tmp_path / "asymptotics")],
        "moments": ["moments", "--case", "i", "--n", "200"],
    }
    _fresh(
        "import json, sys\nimport levy_gqmle\nfrom levy_gqmle import cli\n" + _LOADED
        + "seen = {'import': [0, scipy_loaded()]}\n"
        + f"for name, argv in {runs!r}.items():\n    seen[name] = [cli.run(argv), scipy_loaded()]\n"
        + "open('seen.json', 'w').write(json.dumps(seen))\n",
        tmp_path,
    )
    seen = json.loads((tmp_path / "seen.json").read_text())
    assert seen == {
        "import": [0, []], "optimal": [0, []], "estimate": [0, []], "mc_refused": [1, []],
        "simulate": [0, []], "mc": [0, []], "asymptotics": [0, []], "moments": [0, []],
    }
    assert (tmp_path / "mc" / "report.json").is_file()
    assert (tmp_path / "asymptotics" / "asymptotics.json").is_file()


# each call's first path is scanned on a pool worker: a cold process gives
# the warm process's bits and loads no scipy
_COLD_CALLS = {
    "chunked_paths": (
        "from levy_gqmle.experiment import noise_case, true_ou\n"
        "from levy_gqmle.sde import _chunked_paths\n"
        "out = np.concatenate(list(_chunked_paths(true_ou(), noise_case('iii'), 0.01, 2345, 3, -0.4, 500, 12, 7001)))\n"
    ),
    "run_mc": (
        "from levy_gqmle.experiment import ExperimentDesign, run_mc\n"
        "summary = run_mc(ExperimentDesign('i', designs=((300, 0.05),), replications=100, seed=7))\n"
        "out = summary.per_design[0].estimates\n"
    ),
}


@pytest.mark.parametrize("call", _COLD_CALLS)
def test_first_filter_on_pool_workers_matches_warm_process(call, tmp_path):
    _fresh(
        "import sys\nimport numpy as np\n" + _LOADED
        + "assert scipy_loaded() == [], scipy_loaded()\nsys.setswitchinterval(1e-6)\n"
        + _COLD_CALLS[call] + "assert scipy_loaded() == [], scipy_loaded()\nnp.save('out.npy', out)\n",
        tmp_path,
    )
    namespace = {"np": np}
    exec(_COLD_CALLS[call], namespace)
    cold, warm = np.load(tmp_path / "out.npy"), namespace["out"]
    assert cold.shape == warm.shape and cold.dtype == warm.dtype and cold.tobytes() == warm.tobytes()
