import json
import runpy
from pathlib import Path

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
