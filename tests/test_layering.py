"""Module layering: the fold stands alone, the command line reads
configs into the fold without the 1QL object model, and one place in the
command line turns package errors into usage errors."""

import ast
import json
import math
import pathlib
import sys

from click.testing import CliRunner

from identangle import algebra, states
from identangle.cli import main

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


def test_cli_and_config_stay_off_the_object_model():
    banned = {"algebra", "detection", "oracles", "permanent"}
    for module in ("cli", "config"):
        for level, name, names, _ in imports(module):
            assert name.split(".")[-1] not in banned, (module, name)
            if level and not name:
                assert not banned & set(names), (module, names)


def test_no_module_imports_detection_inside_a_function():
    for path in SOURCE.glob("*.py"):
        for level, name, names, nested in imports(path.stem):
            assert not (nested and (name == "detection" or "detection" in names)), path.name


def cli_functions():
    """(qualified name, node) of every function and method in cli.py."""
    tree = ast.parse((SOURCE / "cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def test_cli_reports_usage_errors_in_one_place():
    exits, reports, handlers = set(), set(), set()
    for name, function in cli_functions():
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
    assert reports == {"_Command.invoke"}
    # _read_input only prefixes the path and raises again
    assert handlers == {"_Command.invoke", "_read_input"}


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
