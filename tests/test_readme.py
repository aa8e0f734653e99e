import re
from pathlib import Path

from varregion import Verdict

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs_as_commented():
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    ns: dict = {}
    exec(compile(block, str(README), "exec"), ns)
    disk, verdict = ns["disk"], ns["verdict"]
    assert abs(disk.center - 1.1) <= 1e-12 and abs(disk.radius - 0.1) <= 1e-12
    assert verdict.status is Verdict.BOUNDARY and abs(verdict.slack) <= 1e-12
    assert ns["status"].shape == (1000,)
