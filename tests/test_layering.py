"""Module layering: the fold stands alone, the command line reads
configs into the fold without the 1QL object model, verify hands the fold
and the oracles angle rows, the oracles stay off the routes they check,
one place in the command line
turns package errors into usage errors, and no function takes a
tolerance."""

import ast
import json
import math
import pathlib
import sys

from identangle import algebra, states
from identangle.cli import main

from conftest import CliRunner

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "identangle"


def imports(module):
    """(relative level, module name, imported names, inside a function) of
    every import statement in a package module."""
    tree = ast.parse((SOURCE / f"{module}.py").read_text())
    nested = {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(0, alias.name, (), id(node) in nested) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = tuple(alias.name for alias in node.names)
            found.append((node.level, node.module or "", names, id(node) in nested))
    return found


def test_fold_imports_only_numpy_the_stdlib_errors_and_tolerances():
    for level, name, names, _ in imports("fold"):
        if level:
            assert name in ("errors", "tolerances"), (name, names)
        else:
            top = name.split(".")[0]
            assert top == "numpy" or top in sys.stdlib_module_names, name


def assert_imports_none_of(module, banned):
    for level, name, names, _ in imports(module):
        assert name.split(".")[-1] not in banned, (module, name)
        if level and not name:
            assert not banned & set(names), (module, names)


def test_cli_and_config_stay_off_the_object_model():
    for module in ("cli", "config"):
        assert_imports_none_of(module, {"algebra", "detection", "oracles", "permanent"})


def test_measures_stay_off_the_config():
    # the mode-splitting check reads its angle rows from the object model
    assert_imports_none_of("measures", {"config"})


def test_oracles_import_none_of_the_routes_they_check():
    # the oracles expand states term by term; a faster oracle must not
    # borrow the fold, the permanent kernels, the algebra or the measures
    assert_imports_none_of("oracles", {"fold", "permanent", "algebra", "measures"})


def test_no_module_the_oracles_reach_is_a_route_they_check():
    # nor may any module they import, directly or through other package
    # modules: detection alone would bring in the fold and the measures
    reached, pending = set(), ["oracles"]
    while pending:
        for level, name, names, _ in imports(pending.pop()):
            if level:
                # from .states import ..., or from . import states
                new = ({name} if name else set(names)) - reached
                reached |= new
                pending += sorted(new)
    assert not reached & {"fold", "permanent", "algebra", "measures", "detection"}, sorted(reached)


def test_verify_imports_only_config_errors_fold_measures_oracles_and_tolerances():
    # verify draws angle rows: neither the permanent route nor the object
    # model of detection and states
    allowed = ("config", "errors", "fold", "measures", "oracles", "tolerances")
    for level, name, names, _ in imports("verify"):
        if level:
            assert name in allowed, (name, names)
        else:
            assert name.split(".")[0] != "identangle", name


def test_no_module_imports_detection_inside_a_function():
    for path in SOURCE.glob("*.py"):
        for level, name, names, nested in imports(path.stem):
            assert not (nested and (name == "detection" or "detection" in names)), path.name


def functions(module):
    """(qualified name, node) of every function and method defined at the
    top of a package module or of a class in it."""
    tree = ast.parse((SOURCE / f"{module}.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def test_cli_reports_usage_errors_in_one_place():
    exits, reports, handlers = set(), set(), set()
    for name, function in functions("cli"):
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                callee = ast.unparse(node.func)
                if callee == "sys.exit" and ast.unparse(node.args) == "2":
                    exits.add(name)
                elif callee == "_fail_usage":
                    reports.add(name)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                if "IdentangleError" in ast.unparse(node.type):
                    handlers.add(name)
    assert exits == {"_fail_usage"}
    assert reports == {"main"}
    # _read_input only prefixes the path and raises again
    assert handlers == {"main", "_read_input"}


def test_fermion_amplitude_builds_no_kets(tmp_path, monkeypatch):
    particles = [
        {"spin": "down", "theta": 0.4, "omega": 1.1},
        {"spin": "up", "theta": 1.2, "omega": 0.3, "phi": 1.1, "gamma": 2.0},
        {"spin": "up", "theta": 0.7},
    ]
    kets = [
        states.mode_ket(
            states.SpatialMode(p["theta"], p.get("omega", 0.0), p.get("phi", math.pi / 2), p.get("gamma", 0.0)),
            states.Spin(p["spin"]),
        )
        for p in particles
    ]
    expected = algebra.transition_amplitude(kets, kets, states.Statistics.FERMION)

    def object_model(*args, **kwargs):
        raise AssertionError("object model on the fermion amplitude path")

    monkeypatch.setattr(states.SingleParticleKet, "__init__", object_model)
    monkeypatch.setattr(algebra, "transition_amplitude", object_model)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"statistics": "fermion", "particles": particles}))
    result = CliRunner().invoke(main, ["amplitude", "--config", str(path), "--bra-config", str(path)])
    assert result.exit_code == 0, result.output
    assert abs(json.loads(result.output)["amplitude"]["re"] - expected.real) < 1e-12


def test_no_function_takes_a_tolerance():
    for path in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                    if arg is not None:
                        assert arg.arg != "tol", (path.name, node.lineno)
                        annotation = ast.unparse(arg.annotation) if arg.annotation else ""
                        assert "Tolerances" not in annotation, (path.name, node.lineno)


def reads_env_tolerance(node):
    return isinstance(node, ast.Call) and ast.unparse(node.func).endswith("comparison_from_env")


def test_the_environment_tolerance_is_read_in_two_places():
    # the command line checks IDENTANGLE_TOL before any work; verify counts failures against it
    readers, calls = [], 0
    for path in SOURCE.glob("*.py"):
        calls += sum(map(reads_env_tolerance, ast.walk(ast.parse(path.read_text()))))
        for name, function in functions(path.stem):
            readers += [f"{path.stem}.{name}" for node in ast.walk(function) if reads_env_tolerance(node)]
    assert sorted(readers) == ["cli.main", "verify._report"]
    assert calls == len(readers)


def test_small_thresholds_live_in_tolerances():
    for path in SOURCE.glob("*.py"):
        if path.stem == "tolerances":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and type(node.value) is float:
                assert not 0.0 < node.value < 1e-6, (path.name, node.lineno, node.value)
