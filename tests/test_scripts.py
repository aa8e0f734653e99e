import json
import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name: str, argv: list[str]) -> None:
    runpy.run_path(str(SCRIPTS / name))["run"](argv)


def test_radius_decay_script(tmp_path, capsys):
    out = tmp_path / "decay.csv"
    _run("radius_decay.py", ["--k-max", "5", "--out", str(out)])
    rows = out.read_text().splitlines()
    assert rows[0] == "k,lambda,radius,distance_to_singleton"
    assert len(rows) == 6
    radii = [float(r.split(",")[2]) for r in rows[1:]]
    assert all(b < a for a, b in zip(radii, radii[1:]))
    assert "singleton value at lambda = 1" in capsys.readouterr().out


def test_render_gallery_script(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("OVERRIDE_OUT_DIR", raising=False)
    _run("render_gallery.py", ["--mc-samples", "16", "--out", str(tmp_path)])
    index = json.loads((tmp_path / "gallery.json").read_text())
    assert len(index) == 15
    for entry in index:
        svg = (tmp_path / entry["file"]).read_text()
        assert svg.startswith("<svg") and "<polygon" in svg
    assert "wrote 15 SVGs" in capsys.readouterr().out


# a stand-in for varregion.cli whose first argument says how its process ends
_FAULTY_CLI = """\
import sys
import warnings

if sys.argv[1] == "crash":
    raise RuntimeError("a crash")
if sys.argv[1] == "warn":
    warnings.warn("a warning", RuntimeWarning)
sys.exit(7 if sys.argv[1] == "exit" else 0)
"""


def test_argv_corpus_script(tmp_path, monkeypatch, capsys):
    corpus = json.loads((SCRIPTS / "argv_corpus.json").read_text())
    sweep = next(a for a in corpus["argvs"] if a[0] == "sweep")
    taken = ["region", "--A=0", "--B=0.5", "--z0=0.5", "--out=taken"]
    subnormal = ["extremal", "--A=-0.5", "--B=5e-324", "--lambda=0.3,0.4", "--a=0.6,0.2", "--z=0.5,0.1"]
    assert taken in corpus["argvs"] and subnormal in corpus["argvs"]
    script = runpy.run_path(str(SCRIPTS / "argv_corpus.py"))
    small = tmp_path / "corpus.json"
    monkeypatch.setitem(script["_run"].__globals__, "CORPUS", small)
    small.write_text(json.dumps({"files": corpus["files"], "argvs": [sweep, taken, subnormal]}))
    out = tmp_path / "run.txt"
    script["run"](["run", "--out", str(out)])  # a clean run: no exit
    assert capsys.readouterr() == ("", "")
    lines = out.read_text().splitlines()
    assert [line.split()[1] for line in lines] == ["exit=0", "exit=3", "exit=2"]
    # the sweep's grid is its input, and what it writes is listed with its mode
    assert lines[0].split()[4].startswith(f"files={sweep[1][len('--grid='):]}:644:")
    assert ";sweep-out/:755;sweep-out/index.json:644:" in lines[0]
    assert " files=taken/:755 " in lines[1]
    _run("argv_corpus.py", ["diff", str(out), str(out)])
    assert capsys.readouterr().out == "0 of 3 argvs differ\n"
    changed = tmp_path / "changed.txt"
    changed.write_text(out.read_text().replace("exit=2", "exit=1"))
    with pytest.raises(SystemExit) as exc:
        _run("argv_corpus.py", ["diff", str(out), str(changed)])
    assert exc.value.code == 1
    assert capsys.readouterr().out.endswith("1 of 3 argvs differ\n")
    # an argv added ahead of the others moves every index, and shows as the one added line
    grown = tmp_path / "grown.txt"
    added = "0000 exit=0 stdout=a stderr=b files= argv=--help"
    grown.write_text(added + "\n" + "".join(f"{i + 1:04d}{line[4:]}\n" for i, line in enumerate(lines)))
    with pytest.raises(SystemExit) as exc:
        _run("argv_corpus.py", ["diff", str(out), str(grown)])
    assert exc.value.code == 1
    assert capsys.readouterr().out == f"+ {added}\n0 of 3 argvs differ; 0 removed and 1 added\n"
    # a traceback, a warning line or an exit code past 5 fails the run, which still writes every line
    faulty = tmp_path / "faulty"
    (faulty / "varregion").mkdir(parents=True)
    (faulty / "varregion" / "__init__.py").write_text("")
    (faulty / "varregion" / "cli.py").write_text(_FAULTY_CLI)
    small.write_text(json.dumps({"files": {}, "argvs": [["clean"], ["crash"], ["warn", "x"], ["exit"]]}))
    with pytest.raises(SystemExit) as exc:
        script["run"](["run", "--src", str(faulty), "--out", str(out)])
    assert exc.value.code == 1
    assert capsys.readouterr() == ("", "0001 crash: a traceback in stderr\n0002 warn x: a warning in stderr\n"
                                       "0003 exit: exit code 7, outside 0-5\n3 of 4 argvs crashed or warned\n")
    assert [line.split()[1] for line in out.read_text().splitlines()] == ["exit=0", "exit=1", "exit=0", "exit=7"]


def test_process_times_script(capsys):
    _run("process_times.py", ["--runs", "3", "--argv=--help"])
    report = json.loads(capsys.readouterr().out)
    assert report["runs"] == 3 and "compileall" in report["bytecode"]
    assert list(report["processes"]) == ["python -c pass", "python -c 'import numpy'", "src --help"]
    for times in report["processes"].values():
        assert 0 < times["q1_ms"] <= times["median_ms"] <= times["q3_ms"] and times["exits"] == [0]
