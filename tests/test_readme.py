import importlib
import re
import shlex
from pathlib import Path

import varregion
from varregion import Verdict
from varregion.cli import _COMMANDS, main
from varregion.region import VERDICTS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs_as_commented():
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    ns: dict = {}
    exec(compile(block, str(README), "exec"), ns)
    disk, slack, status = ns["disk"], ns["slack"], ns["status"]
    assert abs(disk.center - 1.1) <= 1e-12 and abs(disk.radius - 0.1) <= 1e-12
    assert VERDICTS[int(status)] is Verdict.BOUNDARY and abs(slack) <= 1e-12
    assert ns["statuses"].shape == (1000,) and ns["ws"].shape == (3, 1000)


def test_star_import_of_every_module():
    # a stale __all__ entry fails only here: a plain import never reads __all__
    layers = ("region", "sampler", "extremal", "verify")
    for module in layers:
        exec(f"from varregion.{module} import *", {})
    # the package's star import binds every layer's public names, and dir() lists them
    ns: dict = {}
    exec("from varregion import *", ns)
    public = {name for layer in layers for name in importlib.import_module(f"varregion.{layer}").__all__}
    assert public <= set(ns) and public <= set(dir(varregion))


def test_the_package_republishes_every_module_api_and_nothing_else():
    modules = ("extremal", "region", "sampler", "verify")
    names = set()
    for module in map(importlib.import_module, (f"varregion.{m}" for m in modules)):
        names.update(module.__all__)
        for name in module.__all__:
            assert getattr(varregion, name) is getattr(module, name), name
    public = {n for n in vars(varregion) if not n.startswith("_")}
    assert public - names <= {*modules, "cli"}


def test_the_package_and_cli_read_a_layers_binding_at_each_lookup(monkeypatch):
    original = varregion.boundary_curve

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(varregion.region, "boundary_curve", patched)
    assert varregion.boundary_curve is patched
    assert varregion.cli.boundary_curve is patched
    monkeypatch.undo()
    assert varregion.boundary_curve is original and varregion.cli.boundary_curve is original


def _cli_section() -> str:
    return README.read_text().partition("\n## CLI\n")[2].partition("\n## ")[0]


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    section = _cli_section()
    lines = re.search(r"```sh\n(.*?)```", section, re.S).group(1).splitlines()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid.txt").write_text(re.search(r"```\n(A=.*?)```", section, re.S).group(1))
    examples = [line for line in lines if line.startswith("varregion ")]
    assert len(examples) == 8
    for line in examples:
        assert main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()


def test_cli_section_lists_the_shared_flags_each_command_takes():
    listed = {command: set(re.findall(r"`(--[\w-]+)`", flags))
              for command, flags in re.findall(r"^- `(\w+)`: (.*)$", _cli_section(), re.M)}
    shared = {"--seed", "--tol", "--out", "--format"}
    assert listed == {command: shared & flags.keys() for command, (_, _, flags) in _COMMANDS.items()}
