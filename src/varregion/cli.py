"""Command-line front-end.

Subcommands: ``region`` (boundary curve / disk data), ``extremal`` (evaluate
one extremal map), ``sample`` (seeded member cloud with membership verdicts),
``verify`` (run verification suites), ``sweep`` (batch region records from a
grid file).  Output formats are CSV, SVG and JSON; every command is a
deterministic function of its flags and seed.  A file is written atomically:
its bytes go to a temp file in the target's directory, which a rename then
moves into place, so the target holds either its old or its new bytes.  Like
``open(path, "w")``, the file gets mode 0o666 less the umask.

Importing this module and parsing load the standard library alone.  numpy,
the layers and ``_output`` load when a command runs, so help, no command, an
unknown command and every usage error end without numpy.

Exit codes: 0 ok, 1 verification failure, 2 usage/domain error, 3 I/O
failure, 4 quadrature non-convergence, 5 containment breach (a sampled member
landed outside the region, which indicates a kernel bug).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from ._suite_names import SUITE_NAMES

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_CONTAINMENT = 5

_SVG_BANNER = "<!-- varregion: deterministic region rendering -->"
_SVG_SIZE = 800
_SVG_MARGIN = 40  # 5% of the fixed viewport on each side

GRID_KEYS = ("A", "B", "lambda_re", "lambda_im", "z0_re", "z0_im")
GRID_REQUIRED = ("A", "B", "z0_re")


def parse_complex(text: str) -> complex:
    """Parse 're' or 're,im' into a complex number."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")


def _f15(x: float) -> str:
    return f"{x + 0.0:.15g}"


def _pair(w: complex) -> list[float]:
    return [w.real + 0.0, w.imag + 0.0]


@functools.cache
def _load() -> None:
    """Import numpy, the layers and ``_output`` into this module, on the first call.

    ``main`` calls it once a command line has parsed, and ``region_record``
    and ``_sweep_record``, which callers reach without ``main``, call it too.
    The commands call layer functions through their modules
    (``region.boundary_curve``), so a wrapper installed in a layer's namespace
    sees every call.
    """
    global np, _output, extremal, region, sampler, verify
    global VERDICTS, BoundaryCurve, EvalPoint, ExtremalSpec, JanowskiParams, Verdict
    import numpy as np

    from . import _output, extremal, region, sampler, verify
    from .extremal import ExtremalSpec
    from .region import VERDICTS, BoundaryCurve, EvalPoint, JanowskiParams, Verdict


def __getattr__(name: str):
    """A layer's public name, as the layer binds it at the time of the lookup; the lookup loads the layers.

    So ``cli.boundary_curve`` is the function the commands call, also while a
    wrapper is installed in ``region``.
    """
    if not name.startswith("_"):
        _load()
        for layer in (extremal, region, sampler, verify):
            if name in layer.__all__:
                return getattr(layer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# region records


def region_record(params: JanowskiParams, point: EvalPoint, theta_samples: int) -> tuple[dict, BoundaryCurve | None]:
    """A region record without boundary rows, and their curve; a singleton has a note, no rows and no curve."""
    _load()
    rec: dict = {
        "params": {"A": params.A, "B": params.B},
        "point": {"z0": _pair(point.z0), "lambda": _pair(point.lam)},
    }
    single = region.singleton_value(point, params)
    if single is None:
        disk = region.variability_disk(point, params)
        rec.update(center=_pair(disk.center), radius=disk.radius + 0.0)
        return rec, region.boundary_curve(point, params, theta_samples)
    note = ("z0 = 0: the region is the singleton {0}" if point.z0 == 0
            else "|lambda| = 1: the region is a singleton")
    rec.update(center=_pair(single), radius=0.0, boundary=[], note=note)
    return rec, None


def _region_svg(rec: dict, curve: BoundaryCurve | None, cloud: list[complex]) -> bytes:
    """A record's boundary polygon and cloud as dots; a singleton with no cloud shows its value."""
    boundary = [] if curve is None else (curve.values + 0.0).tolist()
    if not (boundary or cloud):
        cloud = [complex(*rec["center"])]
    pts = boundary + cloud
    xs, ys = [p.real for p in pts], [p.imag for p in pts]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, 1e-30)
    usable = _SVG_SIZE - 2 * _SVG_MARGIN
    scale = usable / span
    # the offsets that centre the drawing on each axis
    dx, dy = (usable - (x1 - x0) * scale) / 2, (usable - (y1 - y0) * scale) / 2

    def to_px(p: complex) -> tuple[float, float]:
        # real axis rightward, imaginary axis upward
        return _SVG_MARGIN + (p.real - x0) * scale + dx, _SVG_SIZE - (_SVG_MARGIN + (p.imag - y0) * scale + dy)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        _SVG_BANNER,
    ]
    if boundary:
        coords = " ".join("%.3f,%.3f" % to_px(p) for p in boundary)
        parts.append(f'<polygon points="{coords}" fill="none" stroke="black" stroke-width="1"/>')
    for p in cloud:
        x, y = to_px(p)
        parts.append('<circle cx="%.3f" cy="%.3f" r="0.5" fill="black"/>' % (x, y))
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()


# ---------------------------------------------------------------------------
# commands


def cmd_region(args: argparse.Namespace) -> int:
    params, point = JanowskiParams(args.A, args.B), EvalPoint(args.z0, args.lam)
    rec, curve = region_record(params, point, args.theta_samples)
    if curve is None:
        print(f"note: {rec['note']}", file=sys.stderr)
    if args.format == "json":
        text = _output._json_text(rec, **_output._boundary_rows([curve], _output._theta_fields(args.theta_samples))[0])
    elif args.format == "csv":
        text = _output._region_csv(rec, curve)
    else:
        text = _region_svg(rec, curve, [])
    _output._write_out(args.out, text)
    return EXIT_OK


def cmd_extremal(args: argparse.Namespace) -> int:
    spec = ExtremalSpec(a=args.a, lam=args.lam, params=JanowskiParams(args.A, args.B))
    value = extremal.extremal_value(spec, args.z, args.quad_tol)
    deriv = complex(extremal.extremal_fprime(spec, args.z))
    text = f"{_f15(value.real)} {_f15(value.imag)}\n{_f15(deriv.real)} {_f15(deriv.imag)}\n"
    _output._write_out(args.out, text.encode())
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    params, point = JanowskiParams(args.A, args.B), EvalPoint(args.z0, args.lam)
    # a row's end holds its verdict
    shortest = args.format == "json"
    if shortest:
        ends = np.array([_output._JSON_SEP + f'"{v.value}"'.encode() + _output._JSON_BREAK for v in VERDICTS], "S40")
    else:
        ends = np.array([f",{v.value}\n".encode() for v in VERDICTS], "S16")
    parts: list = []  # CSV or JSON text per chunk, or SVG cloud points
    n_breaches, witnesses = 0, []  # stderr lists the first 20 breaches
    for rows, w, status, slack in _output._sample_blocks(point, params, args.mc_samples, args.seed, args.tol):
        if args.format == "svg":
            parts += w.tolist()
        else:
            values = np.column_stack([w.real, w.imag]) + 0.0
            parts.append(_output._rows_text([_output._index_fields(rows), values], ends[status],
                                            _output._JSON_SEP if shortest else b","))
        outside = status == VERDICTS.index(Verdict.OUTSIDE)
        n_breaches += int(np.count_nonzero(outside))
        for k in np.flatnonzero(outside)[:20 - len(witnesses)].tolist():
            witnesses.append({"seed_index": int(rows[k]), "value": [float(w[k].real), float(w[k].imag)],
                              "slack": float(slack[k])})
    if args.format == "csv":
        text = b"".join([b"seed_index,re,im,verdict\n", *parts])
    else:
        rec, curve = region_record(params, point, args.theta_samples)
        if args.format == "json":
            boundary = _output._boundary_rows([curve], _output._theta_fields(args.theta_samples))[0]
            text = _output._json_text(rec, **boundary, samples=parts)
        else:
            text = _region_svg(rec, curve, parts)
    _output._write_out(args.out, text)
    if n_breaches:
        print(f"containment breach: {n_breaches} sample(s) outside the region", file=sys.stderr)
        for b in witnesses:
            print(f"  witness: {b}", file=sys.stderr)
        return EXIT_CONTAINMENT
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    names = SUITE_NAMES if args.suite == "all" else [args.suite]
    reports = [verify.run_suite(n, seed=args.seed, tol=args.tol) for n in names]
    _output._write_out(args.out, _output._json_text(reports))
    failed = ", ".join(r["suite_name"] for r in reports if not r["passed"])
    if not failed:
        return EXIT_OK
    print(f"verification failed: {failed}", file=sys.stderr)
    return EXIT_VERIFY_FAIL


def _parse_grid_file(path: str) -> list[dict[str, float]]:
    blocks: list[dict[str, float]] = []
    current: dict[str, float] = {}
    with open(path, "r") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                if current:
                    blocks.append(current)
                    current = {}
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"parse error at line {line_no}: expected key=value, got {line!r}")
            if key not in GRID_KEYS:
                raise ValueError(f"parse error at line {line_no}: unknown key {key!r}")
            if key in current:
                raise ValueError(f"parse error at line {line_no}: duplicate key {key!r} in block")
            try:
                current[key] = float(value.strip())
            except ValueError:
                raise ValueError(f"parse error at line {line_no}: invalid number {value.strip()!r}") from None
    if current:
        blocks.append(current)
    return blocks


def _block_hash(block: dict[str, float]) -> str:
    import hashlib  # here, not at the top: only sweep needs it, and loading OpenSSL is slow

    canonical = "\n".join(f"{k}={block[k]!r}" for k in sorted(block))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _sweep_record(block: dict[str, float], theta_samples: int) -> tuple[dict, BoundaryCurve | None]:
    """``region_record`` of a block; a rejected block's record says why and has no curve."""
    _load()

    def rejected(reason: str) -> tuple[dict, None]:
        # NaN and the infinities as their repr strings, so that the record is strict JSON
        strict = {key: v if math.isfinite(v) else repr(v) for key, v in block.items()}
        return {"rejected": True, "reason": reason, "block": strict}, None

    for key in GRID_REQUIRED:
        if key not in block:
            return rejected(f"missing key {key!r}")
    lam = complex(block.get("lambda_re", 0.0), block.get("lambda_im", 0.0))
    z0 = complex(block["z0_re"], block.get("z0_im", 0.0))
    try:
        return region_record(JanowskiParams(block["A"], block["B"]), EvalPoint(z0, lam), theta_samples)
    except ValueError as exc:
        return rejected(str(exc))


# boundary rows sweep lays out at once, 168 B a row (1.3 MiB), so a call's memory does not grow with its grid;
# passes of 16,384 rows were no faster and took 1.7 MiB more RSS at 256 samples a curve
_PASS_ROWS = 8192


def cmd_sweep(args: argparse.Namespace) -> int:
    out_dir = _output._resolve_out(args.out, is_dir=True)
    blocks = _parse_grid_file(args.grid)
    out_dir.mkdir(parents=True, exist_ok=True)
    by_hash: dict[str, dict] = {}  # index entries in first-seen order
    new = []  # the first block of each hash, and its index entry
    for block in blocks:
        h = _block_hash(block)
        if h in by_hash:
            by_hash[h]["count"] += 1
        else:
            by_hash[h] = {"hash": h, "file": f"region-{h}.json", "count": 1}
            new.append((block, by_hash[h]))
    # the new blocks go in passes of at most max(_PASS_ROWS, n) boundary rows, each formatted at once and then written
    n, theta_fields = args.theta_samples, None  # the theta column is formatted once, at the call's first disk
    step = max(1, _PASS_ROWS // n)
    for i in range(0, len(new), step):
        done = [(entry, *_sweep_record(block, n)) for block, entry in new[i:i + step]]
        curves = [curve for _, _, curve in done]
        if theta_fields is None and any(curve is not None for curve in curves):
            theta_fields = _output._theta_fields(n)
        for (entry, rec, _), rows in zip(done, _output._boundary_rows(curves, theta_fields)):
            entry["status"] = "rejected" if rec.get("rejected") else "ok"
            _output._write_text(out_dir / entry["file"], _output._json_text(rec, **rows))
    _output._write_text(out_dir / "index.json", _output._json_text({"records": list(by_hash.values())}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _ruled(convert, rule):
    """A flag's ``type``: ``convert``, then a refusal of each value for which ``rule`` gives a message.

    ``rule(value)`` is the message, or a false value where the rule holds.
    Both parse paths call it, and argparse prints the refusal as a usage
    error.  The wrapper keeps convert's ``__name__``, which argparse quotes
    where convert itself refuses the text (``invalid int value: 'abc'``).
    """

    def checked(text: str):
        value = convert(text)
        message = rule(value)
        if message:
            raise argparse.ArgumentTypeError(message)
        return value

    checked.__name__ = convert.__name__
    return checked


# the rules that carry no hypothesis of the paper, as flag types; JanowskiParams,
# EvalPoint and ExtremalSpec check the paper's own when the command runs
_THETA_SAMPLES = _ruled(int, lambda n: n < 3 and "require theta_samples >= 3")
_SEED_VALUE = _ruled(int, lambda n: n < 0 and f"require seed >= 0, got {n}")
_MC_SAMPLES = _ruled(int, lambda n: n < 1 and "require mc_samples >= 1")
_TOL = _ruled(float, lambda tol: "require tol > 0" if not tol > 0.0 else tol == math.inf and "require a finite tol")
_QUAD_TOL = _ruled(float, lambda tol: not tol > 0.0 and "require quad_tol > 0")
_OUT_PATH = _ruled(str, lambda path: not path and "require a non-empty --out path")
_INSIDE_DISK = _ruled(parse_complex, lambda z: not abs(z) < 1.0 and f"require |z| < 1, got |z| = {abs(z)}")

_POINT_FLAGS = {
    "--A": dict(type=float, required=True, help="parameter A (-1 <= A < B)"),
    "--B": dict(type=float, required=True, help="parameter B (A < B <= 1, B != 0)"),
    "--lambda": dict(dest="lam", type=parse_complex, default=0j,
                     help="coefficient parameter; 're' or 're,im' (default 0)"),
}
_THETA = {"--theta-samples": dict(type=_THETA_SAMPLES, default=256)}
_SEED = {"--seed": dict(type=_SEED_VALUE, default=0, help="random seed (default 0)")}
_OUT = {"--out": dict(type=_OUT_PATH, default=None, help="output path (default: stdout)")}
_FORMAT = {"--format": dict(choices=("csv", "svg", "json"), default="csv")}

# command -> (its function, its help, {flag: add_argument keywords} in --help
# order); a command takes only the shared flags it reads, so any other one is a
# usage error
_COMMANDS = {
    "region": (cmd_region, "boundary curve and disk data of the region", {
        **_POINT_FLAGS, "--z0": dict(type=parse_complex, required=True, help="evaluation point, 're,im'"),
        **_THETA, **_OUT, **_FORMAT}),
    "extremal": (cmd_extremal, "evaluate one extremal map F and F'", {
        **_POINT_FLAGS,
        "--a": dict(type=parse_complex, required=True, help="disk parameter, |a| <= 1"),
        "--z": dict(type=_INSIDE_DISK, required=True, help="evaluation point, |z| < 1"),
        "--quad-tol": dict(type=_QUAD_TOL, default=1e-12), **_OUT}),
    "sample": (cmd_sample, "seeded cloud of member values with verdicts", {
        **_POINT_FLAGS, "--z0": dict(type=parse_complex, required=True),
        "--mc-samples": dict(type=_MC_SAMPLES, default=1000), **_THETA, **_SEED,
        "--tol": dict(type=_TOL, default=1e-9, help="membership tolerance (default 1e-9)"),
        **_OUT, **_FORMAT}),
    "verify": (cmd_verify, "run verification suites", {
        "--suite": dict(choices=SUITE_NAMES + ("all",), required=True),
        "--tol": dict(type=_TOL, default=None, help="tolerance of every suite (default: each suite's own)"),
        **_SEED, **_OUT}),
    "sweep": (cmd_sweep, "batch region records from a grid file", {
        "--grid": dict(required=True, help="grid file of key=value blocks"),
        "--out": dict(type=_OUT_PATH, required=True, help="output directory"),
        **_THETA}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varregion",
        description="Regions of variability of log f' for disk-subordination classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # command name -> its parser
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


@functools.cache
def _command_table(command: str) -> tuple[dict, dict, set]:
    """A command's ``_COMMANDS`` entry as (flag -> (dest, convert, choices), defaults, required dests).

    Dests and defaults are argparse's: ``--theta-samples`` stores to
    ``theta_samples`` unless a ``dest`` is given, and an absent default is None.
    """
    func, _, flags = _COMMANDS[command]
    options, defaults, required = {}, {"command": command, "func": func}, set()
    for flag, kw in flags.items():
        dest = kw.get("dest", flag[2:].replace("-", "_"))
        options[flag] = dest, kw.get("type", str), kw.get("choices")
        defaults[dest] = kw.get("default")
        if kw.get("required"):
            required.add(dest)
    return options, defaults, required


def _table_parse(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives ``argv``, which names a command, or None where it takes argparse to tell.

    Every token after the command name must be ``--name=value`` with ``--name``
    one of the command's flags.  Each value is converted and checked against
    the choices as it comes, and the last one of a flag wins.
    """
    options, defaults, required = _command_table(argv[0])
    parsed: dict = {}  # dest -> its converted value
    for token in argv[1:]:
        name, sep, value = token.partition("=")
        entry = options.get(name) if sep else None
        # argparse's handling of a lone "--" value differs between Python versions
        if entry is None or value == "--":
            return None
        dest, convert, choices = entry
        try:
            value = convert(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        parsed[dest] = value
    if not required <= parsed.keys():
        return None
    return argparse.Namespace(**{**defaults, **parsed})


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, by ``_table_parse`` where it can tell, with no parser built.

    Anything else (help, no command or an unknown one, a value given as a
    separate token, abbreviations, ``--``, positionals, a bad value, a missing
    flag) goes to the full parser, which writes every usage, help and error
    message.
    """
    args = _table_parse(argv) if argv and argv[0] in _COMMANDS else None
    return build_parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    # argparse strips a lone "--" value (--name=--), and on some Python versions
    # leaves [] as the flag's value; no flag takes a list
    if [] in vars(args).values():
        empty = [flag for flag, (dest, *_) in _command_table(args.command)[0].items() if getattr(args, dest) == []]
        print(f"error: no value for {', '.join(empty)}", file=sys.stderr)
        return EXIT_USAGE
    _load()
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except extremal.ConvergenceError as exc:
        print(f"error: {exc} (estimate {exc.estimate!r})", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
