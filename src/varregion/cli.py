"""Command-line front-end.

Subcommands: ``region`` (boundary curve / disk data), ``extremal`` (evaluate
one extremal map), ``sample`` (seeded member cloud with membership verdicts),
``verify`` (run verification suites), ``sweep`` (batch region records from a
grid file).  Output formats are CSV, SVG and JSON; every command is a
deterministic function of its flags and seed.  A file is written atomically:
its bytes go to a temp file in the target's directory, which a rename then
moves into place, so the target holds either its old or its new bytes.  Like
``open(path, "w")``, the file gets mode 0o666 less the umask.

Exit codes: 0 ok, 1 verification failure, 2 usage/domain error, 3 I/O
failure, 4 quadrature non-convergence, 5 containment breach (a sampled member
landed outside the region, which indicates a kernel bug).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from .extremal import ConvergenceError, ExtremalSpec, QuadratureConfig, extremal_fprime, extremal_value
from .region import (
    VERDICTS,
    BoundaryCurve,
    EvalPoint,
    JanowskiParams,
    Verdict,
    _singleton_note,
    _theta_grid,
    boundary_curve,
    classify,
    singleton_value,
    variability_disk,
)
from .sampler import BLOCK_ROWS, log_fprime, omega_eval, sample_members
from .verify import SUITE_NAMES, run_suite

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


def _resolve_out(path_str: str | None, is_dir: bool = False) -> Path | None:
    """The --out file or directory, None for stdout; OVERRIDE_OUT_DIR takes the place of its directory."""
    if path_str is None:
        return None
    if not path_str:
        raise ValueError("require a non-empty --out path")
    override = os.environ.get("OVERRIDE_OUT_DIR")
    if not override:
        return Path(path_str)
    return Path(override) if is_dir else Path(override) / Path(path_str).name


# as tempfile opens its files, with O_BINARY so Windows writes "\n" as is
_TMP_FLAGS = (os.O_WRONLY | os.O_CREAT | os.O_EXCL
              | getattr(os, "O_NOFOLLOW", 0) | getattr(os, "O_CLOEXEC", 0) | getattr(os, "O_BINARY", 0))


def _write_text(path: Path, text: str) -> None:
    """Write text to path atomically, through a temp file in path's directory that a rename moves into place.

    The temp file's name is unique to the call (pid and random bytes), and
    ``O_EXCL`` refuses one that exists.  It is removed if any step fails.
    """
    tmp = f"{path}.{os.getpid()}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, _TMP_FLAGS, 0o666)
    try:
        try:
            data = memoryview(text.encode())
            while data:  # os.write may write only part of its buffer
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_out(out: str | None, text: str) -> None:
    """Write a command's one output: to stdout, or to its --out file, making the file's directory first."""
    path = _resolve_out(out)
    if path is None:
        sys.stdout.write(text)
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_text(path, text)


def _tokens(col: list) -> list[str]:
    """JSON tokens of a non-empty list of numbers or verdict names (none holds ", "), by the C encoder."""
    import json  # here, not at the top: start-up and CSV, SVG and extremal output skip it

    return json.dumps(col)[1:-1].split(", ")


def _rows_json(rows) -> str:
    """A top-level row list in the ``indent=2`` layout, from non-empty rows of JSON tokens."""
    return "[\n    [\n      " + "\n    ],\n    [\n      ".join(map(",\n      ".join, rows)) + "\n    ]\n  ]"


def _json_text(obj, **rows) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` with ``rows`` merged in, byte for byte.

    ``rows`` maps top-level keys of a dict with string keys to non-empty rows
    of JSON tokens from ``_tokens``.  With ``indent`` the stdlib encodes in pure
    Python; here the C encoder has already written every row cell.  The dict
    is encoded once with ``null`` for each rows key, and ``_rows_json`` text
    takes the place of each top-level ``\\n  "<key>": null``.  That text is
    unique: deeper keys are indented further, and a JSON string holds no raw
    newline.  Without rows this is the stdlib call.
    """
    import json  # here, not at the top: start-up and CSV, SVG and extremal output skip it

    text = json.dumps({**obj, **dict.fromkeys(rows)} if rows else obj, sort_keys=True, indent=2)
    pieces = []
    for key in sorted(rows):  # the order sort_keys gives the keys in text
        field = f"\n  {json.dumps(key)}: "
        head, _, text = text.partition(field + "null")
        pieces += (head, field, _rows_json(rows[key]))
    return "".join(pieces) + text + "\n"


def _csv_rows(row: str, *cols: list) -> str:
    """One ``row % cells`` line per index of the equal-length ``cols``, in a single ``%`` pass.

    ``%d``, ``%.17g`` and ``%s`` write what ``{}``, ``{:.17g}`` and ``{}``
    write for ints, floats and strs.
    """
    flat = [None] * (len(cols) * len(cols[0]))
    for j, col in enumerate(cols):
        flat[j::len(cols)] = col
    return (row * len(cols[0])) % tuple(flat)


# ---------------------------------------------------------------------------
# region records


def region_record(params: JanowskiParams, point: EvalPoint, theta_samples: int) -> tuple[dict, BoundaryCurve | None]:
    """A region record without boundary rows, and their curve; a singleton has a note, no rows and no curve."""
    rec: dict = {
        "params": {"A": params.A, "B": params.B},
        "point": {"z0": _pair(point.z0), "lambda": _pair(point.lam)},
    }
    single = singleton_value(point, params)
    if single is not None:
        rec.update(center=_pair(single), radius=0.0, boundary=[], note=_singleton_note(point))
        return rec, None
    disk = variability_disk(point, params)
    rec.update(center=_pair(disk.center), radius=disk.radius + 0.0)
    return rec, boundary_curve(point, params, theta_samples)


def _boundary_rows(curve: BoundaryCurve | None, theta_tokens: list[str]) -> dict:
    """``_json_text`` rows of a record: a disk's (theta, Re, Im) token rows; none for a singleton."""
    if curve is None:
        return {}
    w = curve.values
    return {"boundary": zip(theta_tokens, _tokens((w.real + 0.0).tolist()), _tokens((w.imag + 0.0).tolist()))}


def _region_csv(rec: dict, curve: BoundaryCurve | None) -> str:
    """Boundary rows of a record; a singleton's one row is its value at theta 0."""
    if curve is None:
        cols = [0.0], [rec["center"][0]], [rec["center"][1]]
    else:
        cols = curve.thetas.tolist(), (curve.values.real + 0.0).tolist(), (curve.values.imag + 0.0).tolist()
    return "theta,re,im\n" + _csv_rows("%.17g,%.17g,%.17g\n", *cols)


def _region_svg(rec: dict, curve: BoundaryCurve | None, cloud: list[complex]) -> str:
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
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# commands


def _point_args(args: argparse.Namespace) -> tuple[JanowskiParams, EvalPoint]:
    """Validated (params, point) of a region/sample command, rejecting bad run flags too."""
    params, point = JanowskiParams(args.A, args.B), EvalPoint(args.z0, args.lam)
    _check_theta_samples(args.theta_samples)
    if not args.tol > 0.0:
        raise ValueError("require tol > 0")
    return params, point


def _check_theta_samples(n: int) -> None:
    """Reject a boundary curve of fewer than 3 samples before any work."""
    if n < 3:
        raise ValueError("require theta_samples >= 3")


def _check_seed(seed: int) -> None:
    """Reject a negative seed before any work, whether or not the command's work would draw from it."""
    if seed < 0:
        raise ValueError(f"require seed >= 0, got {seed}")


def cmd_region(args: argparse.Namespace) -> int:
    params, point = _point_args(args)
    rec, curve = region_record(params, point, args.theta_samples)
    if curve is None:
        print(f"note: {rec['note']}", file=sys.stderr)
    if args.format == "json":
        text = _json_text(rec, **_boundary_rows(curve, _tokens(_theta_grid(args.theta_samples).tolist())))
    elif args.format == "csv":
        text = _region_csv(rec, curve)
    else:
        text = _region_svg(rec, curve, [])
    _write_out(args.out, text)
    return EXIT_OK


def cmd_extremal(args: argparse.Namespace) -> int:
    params = JanowskiParams(args.A, args.B)
    spec = ExtremalSpec(a=args.a, lam=args.lam, params=params)
    z = args.z
    if not abs(z) < 1.0:
        raise ValueError(f"require |z| < 1, got |z| = {abs(z)}")
    cfg = QuadratureConfig(abs_tol=args.quad_tol, max_panels=args.max_panels)
    value = extremal_value(spec, z, cfg)
    deriv = complex(extremal_fprime(spec, z))
    text = f"{_f15(value.real)} {_f15(value.imag)}\n{_f15(deriv.real)} {_f15(deriv.imag)}\n"
    _write_out(args.out, text)
    return EXIT_OK


def _sample_blocks(point: EvalPoint, params: JanowskiParams, n: int, seed: int, tol: float):
    """(seed indices, w, status, slack) per block of BLOCK_ROWS members, cut to n.

    sample_members draws each block whole, so row i is the same for every n;
    only the rows kept are evaluated and classified, and the arrays in use
    stay one block long.
    """
    single = singleton_value(point, params)
    if single is not None:
        w = np.full(BLOCK_ROWS, single)
        slack, status = np.zeros(BLOCK_ROWS), np.full(BLOCK_ROWS, VERDICTS.index(Verdict.BOUNDARY))
    for start in range(0, n, BLOCK_ROWS):
        rows = np.arange(start, min(start + BLOCK_ROWS, n))
        if single is None:
            w = log_fprime(omega_eval(sample_members(seed, rows.size, start), point.lam, point.z0), params)
            slack, status = classify(w, point, params, tol)
        yield rows, w[:rows.size], status[:rows.size], slack[:rows.size]


def cmd_sample(args: argparse.Namespace) -> int:
    params, point = _point_args(args)
    if args.mc_samples < 1:
        raise ValueError("require mc_samples >= 1")
    _check_seed(args.seed)
    names = np.array([v.value for v in VERDICTS])
    parts: list = []  # CSV text per block, JSON token rows or SVG cloud points
    n_breaches, witnesses = 0, []  # stderr lists the first 20 breaches
    for rows, w, status, slack in _sample_blocks(point, params, args.mc_samples, args.seed, args.tol):
        cols = (rows.tolist(), (w.real + 0.0).tolist(), (w.imag + 0.0).tolist(), names[status].tolist())
        if args.format == "csv":
            parts.append(_csv_rows("%d,%.17g,%.17g,%s\n", *cols))
        elif args.format == "json":
            parts += zip(*map(_tokens, cols))
        else:
            parts += w.tolist()
        outside = status == VERDICTS.index(Verdict.OUTSIDE)
        n_breaches += int(np.count_nonzero(outside))
        for k in np.flatnonzero(outside)[:20 - len(witnesses)].tolist():
            witnesses.append({"seed_index": int(rows[k]), "value": [float(w[k].real), float(w[k].imag)],
                              "slack": float(slack[k])})
    if args.format == "csv":
        text = "seed_index,re,im,verdict\n" + "".join(parts)
    else:
        rec, curve = region_record(params, point, args.theta_samples)
        if args.format == "json":
            text = _json_text(rec, **_boundary_rows(curve, _tokens(_theta_grid(args.theta_samples).tolist())),
                              samples=parts)
        else:
            text = _region_svg(rec, curve, parts)
    _write_out(args.out, text)
    if n_breaches:
        print(f"containment breach: {n_breaches} sample(s) outside the region", file=sys.stderr)
        for b in witnesses:
            print(f"  witness: {b}", file=sys.stderr)
        return EXIT_CONTAINMENT
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.tol is not None and not args.tol > 0.0:
        raise ValueError("require tol > 0")
    names = SUITE_NAMES if args.suite == "all" else [args.suite]
    reports = [run_suite(n, seed=args.seed, tol=args.tol) for n in names]
    text = _json_text([r.to_dict() for r in reports])
    _write_out(args.out, text)
    if all(r.passed for r in reports):
        return EXIT_OK
    failed = ", ".join(r.suite_name for r in reports if not r.passed)
    print(f"verification failed: {failed}", file=sys.stderr)
    return EXIT_VERIFY_FAIL


def _parse_grid_file(path: Path) -> list[dict[str, float]]:
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
    for key in GRID_REQUIRED:
        if key not in block:
            return {"rejected": True, "reason": f"missing key {key!r}", "block": block}, None
    lam = complex(block.get("lambda_re", 0.0), block.get("lambda_im", 0.0))
    z0 = complex(block["z0_re"], block.get("z0_im", 0.0))
    try:
        return region_record(JanowskiParams(block["A"], block["B"]), EvalPoint(z0, lam), theta_samples)
    except ValueError as exc:
        return {"rejected": True, "reason": str(exc), "block": block}, None


def cmd_sweep(args: argparse.Namespace) -> int:
    _check_theta_samples(args.theta_samples)
    out_dir = _resolve_out(args.out, is_dir=True)
    blocks = _parse_grid_file(Path(args.grid))
    out_dir.mkdir(parents=True, exist_ok=True)
    # every curve of the call has the same theta column: encode it once, here
    theta_tokens = _tokens(_theta_grid(args.theta_samples).tolist())
    by_hash: dict[str, dict] = {}  # index entries in first-seen order
    for block in blocks:
        h = _block_hash(block)
        if h in by_hash:
            by_hash[h]["count"] += 1
            continue
        rec, curve = _sweep_record(block, args.theta_samples)
        fname = f"region-{h}.json"
        _write_text(out_dir / fname, _json_text(rec, **_boundary_rows(curve, theta_tokens)))
        by_hash[h] = {"hash": h, "file": fname, "status": "rejected" if rec.get("rejected") else "ok", "count": 1}
    _write_text(out_dir / "index.json", _json_text({"records": list(by_hash.values())}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


_COMMON_FLAGS = {
    "seed": dict(type=int, default=0, help="random seed (default 0)"),
    "tol": dict(type=float, default=1e-9, help="membership tolerance (default 1e-9)"),
    "out": dict(default=None, help="output path (default: stdout)"),
    "format": dict(choices=("csv", "svg", "json"), default="csv"),
}


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    """Add the shared flags a command reads, so any other one is a usage error."""
    for name in names:
        p.add_argument(f"--{name}", **_COMMON_FLAGS[name])


def _add_point_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--A", type=float, required=True, help="parameter A (-1 <= A < B)")
    p.add_argument("--B", type=float, required=True, help="parameter B (A < B <= 1, B != 0)")
    p.add_argument("--lambda", dest="lam", type=parse_complex, default=0j,
                   help="coefficient parameter; 're' or 're,im' (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varregion",
        description="Regions of variability of log f' for disk-subordination classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # command name -> its parser, for main's direct dispatch

    p = sub.add_parser("region", help="boundary curve and disk data of the region")
    _add_point_flags(p)
    p.add_argument("--z0", type=parse_complex, required=True, help="evaluation point, 're,im'")
    p.add_argument("--theta-samples", type=int, default=256)
    _add_common(p, "tol", "out", "format")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("extremal", help="evaluate one extremal map F and F'")
    _add_point_flags(p)
    p.add_argument("--a", type=parse_complex, required=True, help="disk parameter, |a| <= 1")
    p.add_argument("--z", type=parse_complex, required=True, help="evaluation point, |z| < 1")
    p.add_argument("--quad-tol", type=float, default=1e-12)
    p.add_argument("--max-panels", type=int, default=1024)
    _add_common(p, "out")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("sample", help="seeded cloud of member values with verdicts")
    _add_point_flags(p)
    p.add_argument("--z0", type=parse_complex, required=True)
    p.add_argument("--mc-samples", type=int, default=1000)
    p.add_argument("--theta-samples", type=int, default=256)
    _add_common(p, "seed", "tol", "out", "format")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True)
    p.add_argument("--tol", type=float, default=None, help="tolerance of every suite (default: each suite's own)")
    _add_common(p, "seed", "out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="batch region records from a grid file")
    p.add_argument("--grid", required=True, help="grid file of key=value blocks")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--theta-samples", type=int, default=256)
    p.set_defaults(func=cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on its first call, reused by every later one.

    Parsing writes only the namespace it returns, never the parser, so one
    parser serves every call; ``build_parser`` still returns a fresh one.
    """
    return build_parser()


@functools.cache
def _flag_table(command: argparse.ArgumentParser) -> tuple[dict, dict, list]:
    """What a command parser's actions say about its flags, read once per parser.

    Returns (option string -> (store action, type function), the namespace
    defaults argparse starts from, the required actions).  Only single-value
    store actions with a callable type enter the option map; any other flag is
    left to argparse.
    """
    options, defaults, required = {}, {}, []
    for action in command._actions:
        convert = command._registry_get("type", action.type, action.type)
        if type(action) is argparse._StoreAction and action.nargs is None and callable(convert):
            options.update(dict.fromkeys(action.option_strings, (action, convert)))
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            defaults.setdefault(action.dest, action.default)
        if action.required:
            required.append(action)
    for dest, value in command._defaults.items():
        defaults.setdefault(dest, value)
    return options, defaults, required


def _table_parse(command: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives ``argv``, or None where it takes argparse to tell.

    Every token after the command name must be ``--name=value`` with ``--name``
    one of the command's option strings.  Each value is converted and checked
    against the choices as it comes, and the last one of a flag wins.
    """
    options, defaults, required = _flag_table(command)
    parsed: dict = {}  # action -> its converted value
    for token in argv[1:]:
        name, sep, value = token.partition("=")
        entry = options.get(name) if sep else None
        # argparse's handling of a lone "--" value differs between Python versions
        if entry is None or value == "--":
            return None
        action, convert = entry
        try:
            value = convert(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        parsed[action] = value
    if any(a not in parsed for a in required):
        return None
    ns = dict(defaults)
    for action, value in parsed.items():
        ns[action.dest] = value
    return argparse.Namespace(**{"command": argv[0], **ns})


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)`` by one of two paths.

    When ``argv[0]`` names a command and every later token is ``--name=value``
    with ``--name`` one of that command's option strings (``_table_parse``),
    the namespace is built from the command parser's own actions: each value
    converted by its type and checked against its choices, the required flags
    present, and the defaults and ``set_defaults`` filled in as argparse fills
    them.  Anything else (help, no command or an unknown one, a value given as
    a separate token, abbreviations, ``--``, positionals, a bad value, a
    missing flag) goes to the full parser, which writes every usage, help and
    error message.
    """
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    args = None if command is None else _table_parse(command, argv)
    return parser.parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    # argparse strips a lone "--" value (--name=--), and on some Python versions
    # leaves [] as the flag's value; no flag takes a list
    if [] in vars(args).values():
        empty = [a.option_strings[0] for a in _parser().commands[args.command]._actions
                 if getattr(args, a.dest, None) == []]
        print(f"error: no value for {', '.join(empty)}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"error: {exc} (estimate {exc.estimate!r})", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
