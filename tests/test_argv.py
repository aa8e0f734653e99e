"""A property over in-process ``main(argv)`` calls whose flag values sit at the edges of the domain.

Each argv is a valid call of ``region``, ``sample``, ``extremal`` or
``verify`` with up to three flags given an edge value or left out, every flag
as ``--flag=value`` or ``--flag value``.  The counts that set a call's cost
(``--mc-samples``, ``--theta-samples``, ``--max-panels``) are always given,
small or as an edge value, and no edge value parses as a large integer.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from varregion.cli import main
from varregion.verify import SUITE_NAMES

# the edges of the domain, each also with a minus sign, then the values that are no number
_MAGNITUDES = ("0", "1", "1.0000000000000002", "0.9999999999999999", "5e-324", "1e-310", "1e300", "nan", "inf")
EDGES = (*_MAGNITUDES, *(f"-{m}" for m in _MAGNITUDES), "", "--")

# per command, the valid values of each flag: a call starts from one of each
_POINTS = {"--A": ("-0.5", "0", "-1"), "--B": ("0.5", "1", "-0.1"), "--lambda": ("0.3,0.4", "0", "1", "0.5")}
COMMANDS = {
    "region": {**_POINTS, "--z0": ("0.5", "0", "0.3,0.4"), "--theta-samples": ("16", "3"),
               "--format": ("csv", "json", "svg"), "--out": ("out.txt",)},
    "sample": {**_POINTS, "--z0": ("0.5", "0", "0.3,0.4"), "--mc-samples": ("5", "1"), "--theta-samples": ("16", "3"),
               "--seed": ("0", "9"), "--tol": ("1e-9", "0.5"), "--format": ("csv", "json", "svg"),
               "--out": ("out.txt",)},
    "extremal": {**_POINTS, "--a": ("0.6,0.2", "1", "-1"), "--z": ("0.5,0.1", "0", "0.97"),
                 "--quad-tol": ("1e-12", "1e-6"), "--max-panels": ("64", "1"), "--out": ("out.txt",)},
    "verify": {"--suite": (*SUITE_NAMES, "all"), "--tol": ("1e-9", "1e-17"), "--seed": ("0", "9"),
               "--out": ("out.json",)},
}
# flags a call always gives: they bound its cost
CAPPED = ("--mc-samples", "--theta-samples", "--max-panels")
COMPLEX = ("--lambda", "--z0", "--a", "--z")
EXIT_CODES = {0, 2, 3, 4, 5}  # and 1, from verify alone


def _edge_value(flag: str):
    edge = st.sampled_from(EDGES)
    if flag not in COMPLEX:
        return edge
    return st.one_of(edge, st.tuples(edge, edge).map(",".join))


@st.composite
def argvs(draw):
    """(command, argv tokens, {flag: value}) of one call."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[command]
    values = {flag: draw(st.sampled_from(choices)) for flag, choices in flags.items()}
    if command != "verify" and draw(st.booleans()):
        values.pop("--out")
    # sorted: a set of strings iterates in an order that depends on PYTHONHASHSEED
    for flag in sorted(draw(st.sets(st.sampled_from(sorted(flags)), max_size=3))):
        if flag in CAPPED or draw(st.booleans()):
            values[flag] = draw(_edge_value(flag))
        else:
            values.pop(flag, None)
    tokens = [command]
    for flag, value in values.items():
        tokens += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return command, tokens, values


def _call(command: str, *tokens: str) -> tuple:
    """The argvs() value of an argv of --flag=value tokens."""
    return command, [command, *tokens], dict(token.split("=", 1) for token in tokens)


def _strict_json(text: str):
    def refuse(name):
        raise AssertionError(f"not strict JSON: {name}")

    return json.loads(text, parse_constant=refuse)


_SINGLETON = ("--A=-0.5", "--B=-5e-324", "--lambda=1", "--z0=0.5")  # (A - B)/B would overflow; the value is finite


@settings(max_examples=1000)
@given(argvs())
# an infinite tolerance, and a subnormal B where (A - B)/B would overflow (its JSON output must be
# strict, so finite): too rare for the strategy to find
@example(_call("verify", "--suite=inclusion", "--tol=inf"))
@example(_call("sample", "--A=0", "--B=0.5", "--z0=0.5", "--mc-samples=3", "--tol=inf"))
@example(_call("sample", *_SINGLETON, "--mc-samples=3"))
@example(_call("sample", *_SINGLETON, "--mc-samples=3", "--format=json"))
@example(_call("region", *_SINGLETON, "--format=json"))
@example(_call("region", "--A=-0.5", "--B=1e-310", "--lambda=0.5", "--z0=0.5", "--format=json"))
@example(_call("extremal", "--A=-0.5", "--B=5e-324", "--a=0.6,0.2", "--z=0.5,0.1"))
# a subnormal z0, where the sample kernels overflow unless they run under np.errstate (exit 5, ROADMAP item 2)
@example(_call("sample", "--A=-0.5", "--B=0.5", "--lambda=0.3,0.4", "--z0=5e-324", "--mc-samples=5"))
def test_main_at_the_domain_edges_exits_as_documented(call):
    command, argv, values = call
    out, err = io.StringIO(), io.StringIO()
    cwd, override = os.getcwd(), os.environ.pop("OVERRIDE_OUT_DIR", None)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            written = sorted(os.listdir(tmp))
            texts = [Path(tmp, name).read_text() for name in written]
        finally:
            os.chdir(cwd)
            if override is not None:
                os.environ["OVERRIDE_OUT_DIR"] = override
    err = err.getvalue()
    assert code in EXIT_CODES | ({1} if command == "verify" else set())
    assert "Traceback" not in err and ".py" not in err
    wrote = code in (0, 1, 5)  # the codes of a call that wrote its output
    # only the --out file, in the working directory, and no temp file
    assert written == ([values["--out"]] if wrote and "--out" in values else [])
    if wrote and (command == "verify" or values.get("--format") == "json"):
        _strict_json(texts[0] if written else out.getvalue())
