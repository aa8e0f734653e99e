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
import cmath
import functools
import math
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


def _write_text(path: Path, data: bytes) -> None:
    """Write data to path atomically, through a temp file in path's directory that a rename moves into place.

    The temp file's name is unique to the call (pid and random bytes), and mode ``"x"``
    refuses one that exists.  A later failure removes it; an ``OSError`` names only ``path``.
    """
    tmp = f"{path}.{os.getpid()}.{os.urandom(6).hex()}.tmp"
    fh = None
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        if fh is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError) and exc.strerror:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def _write_out(out: str | None, data: bytes) -> None:
    """Write a command's one output: to stdout as text, or to its --out file, making the file's directory first."""
    path = _resolve_out(out)
    if path is None:
        sys.stdout.write(data.decode())
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_text(path, data)


# json.dumps(..., indent=2) around a top-level row list: before it, between two
# rows, between two cells of a row and after it
_JSON_OPEN, _JSON_BREAK, _JSON_CLOSE = b"[\n    [\n      ", b"\n    ],\n    [\n      ", b"\n    ]\n  ]"
_JSON_SEP = b",\n      "
_JSON_END = np.array([_JSON_BREAK], "S24")


def _json_text(obj, **rows) -> bytes:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` with ``rows`` merged in, byte for byte, as bytes.

    ``rows`` maps top-level keys of a dict with string keys to the
    ``_rows_text`` blocks of a non-empty row list, each row ending in
    ``_JSON_BREAK``.  The dict is encoded once with ``null`` for each rows
    key, and the row list takes the place of each top-level
    ``\\n  "<key>": null``.  That text is unique: deeper keys are indented
    further, and a JSON string holds no raw newline.  Without rows this is the
    stdlib call, encoded (as ASCII: json escapes the rest).
    """
    import json  # here, not at the top: start-up and CSV, SVG and extremal output skip it

    text = json.dumps({**obj, **dict.fromkeys(rows)} if rows else obj, sort_keys=True, indent=2).encode()
    pieces = []
    for key in sorted(rows):  # the order sort_keys gives the keys in text
        field = f"\n  {json.dumps(key)}: ".encode()
        head, _, text = text.partition(field + b"null")
        *blocks, last = rows[key]
        pieces += (head, field, _JSON_OPEN, *blocks, last[:-len(_JSON_BREAK)], _JSON_CLOSE)
    return b"".join([*pieces, text, b"\n"])


@functools.cache
def _text_tables() -> tuple:
    """``_fields``' and ``_index_fields``' tables, built on the first call.

    A field is 40 cells: a free first byte, a sign, the ``0.000`` of a value
    below 1, then 17 digits, each but the first behind a slot for the point.
    ``digits`` maps a 4-digit group to its (slot, digit) cells and ``10000 +
    d`` to the first 8 cells; ``last[j - 1][g]`` is the index of the last
    nonzero digit of group j if it is g, else 0.  Row ``(sign * 20 + e + 4) *
    17 + last`` of ``layout`` ANDs a field of exponent e as ``%.17g`` does, and
    680 rows on as ``repr`` does, which keeps one digit past the point.
    """
    g = np.arange(10_000, dtype=np.int16)  # small dtypes keep the build's peak memory small
    dig = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], 1).astype(np.uint8) + 48
    nz = dig > 48
    digits = np.full((10_010, 8), 255, np.uint8)
    digits[:10_000, 1::2] = dig
    digits[10_000:, 7] = dig[:10, 3]
    last = np.where(nz.any(1), np.array([[4], [8], [12], [16]], np.int8) - np.argmax(nz[:, ::-1], 1).astype(np.int8), 0)
    neg, e, lst = np.indices((2, 20, 17)).reshape(3, -1, 1)
    e = e - 4
    layout = np.zeros((2, 680, 40), np.uint8)
    layout[:, :, 1] = ord("-") * neg[:, 0]
    layout[:, :, 2:7] = np.where((e < 0) & (np.arange(5) < 1 - e), np.frombuffer(b"0.000", np.uint8), 0)
    layout[0, :, 7::2] = 255 * (np.arange(17) <= np.maximum(lst, e))
    layout[0, :, 8::2] = ord(".") * ((np.arange(16) == e) & (lst > e))
    layout[1, :, 7::2] = 255 * (np.arange(17) <= np.maximum(lst, e + 1))
    layout[1, :, 8::2] = ord(".") * (np.arange(16) == e)
    p10 = np.array([float(10**k) for k in range(23)])  # exact doubles
    c = p10 * 134217729.0
    return digits.view(np.uint64)[:, 0], last, layout.reshape(1360, 40).view(np.uint64), p10, c - (c - p10)


def _digits(y: np.ndarray, ok: np.ndarray, shortest: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, e, ok) of doubles y >= 0, ok where y is in ``[1e-4, 1e16)``: where ok stays, y's text has the digits of n.

    n has 17 digits and stands for ``n * 10**(e - 16)``: y rounded half to
    even (``%.17g``) or, if shortest, ``repr``'s digits padded with zeros
    (``_shortest``).  ok turns False where log10 rounded e up, where n would
    have 18 digits and where ``_shortest`` is unsure; n and e are 0 wherever
    ok is False.
    """
    p10, p10_hi = _text_tables()[3:]
    y = np.where(ok, y, 1.0)
    c = y * 134217729.0  # Veltkamp: y_hi and y_lo hold 26 bits each
    y_hi = c - (c - y)
    y_lo = y - y_hi
    e = np.floor(np.log10(y)).astype(np.int64)
    s, s_hi = p10[16 - e], p10_hi[16 - e]
    s_lo = s - s_hi
    hi = y * s  # y * 10**(16 - e) == hi + lo exactly (Dekker's product, as 10**k is exact for k <= 22)
    lo = ((y_hi * s_hi - hi) + y_hi * s_lo + y_lo * s_hi) + y_lo * s_lo
    hi_i = hi.astype(np.int64)
    ok &= hi_i + np.floor(lo).astype(np.int64) >= 10**16  # log10 did not round e up
    if shortest:
        n, sure = _shortest(hi_i, lo, y, s)
        ok &= sure
    else:
        n = hi_i + np.rint(lo).astype(np.int64)  # hi is an even integer, so this rounds hi + lo half to even
    ok &= n < 10**17  # and n has 17 digits
    bad = ~ok
    n[bad] = 0
    e[bad] = 0
    return n, e, ok


def _shortest(hi: np.ndarray, lo: np.ndarray, y: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, sure): the digits ``repr`` writes for y, as the 17-digit integer n that they make with trailing zeros.

    ``hi + lo`` is exactly ``y * s``, with ``s = 10**(16 - e)`` and ``hi`` an
    int64.  Times s, the reals that round to y lie within ``2**(exp - 54)``
    of it above, at ``frexp`` exponent exp, and within that or, at a power
    of 2, half of it below: exact, from 0.55 to 12.  So that interval holds
    the integer nearest ``y * s``, at most three multiples of 10 and one of
    100, and ``repr`` writes the one with the fewest digits, then the nearer
    one: the multiple of 100, else the nearer multiple of 10, else the
    nearest integer.  Each size is taken relative to ``100 * (hi // 100)``,
    below 130, so it is off by less than 1e-14.  sure is False where an end
    of the interval lies within 1e-9 of an integer, or n within 1e-9 of 0.5
    or 5 from ``y * s``, where another candidate may tie: there ``repr``
    decides.
    """
    q = hi // 100 * 100
    v = (hi - q) + lo
    m, exp = np.frexp(y)
    up = np.ldexp(s, exp - 54)
    a, b = v - np.where(m == 0.5, 0.5 * up, up), v + up  # the interval's ends
    ka, kb = np.ceil(a), np.floor(b)  # its first and last integer
    below = np.floor(v / 10.0) * 10.0  # the multiple of 10 below v, and the one above
    in_below, in_above = below >= ka, below + 10.0 <= kb
    n = np.where(in_above & (~in_below | (v - below > 5.0)), below + 10.0, below)
    n = np.where(in_below | in_above, n, np.rint(v))
    c100 = np.where(kb >= 100.0, 100.0, 0.0)
    n = np.where((ka <= c100) & (c100 <= kb), c100, n)
    tie = np.abs(np.abs(np.abs(v - n) - 2.75) - 2.25) < 1e-9
    unsure = (np.abs(a - np.rint(a)) < 1e-9) | (np.abs(b - np.rint(b)) < 1e-9) | tie
    return q + n.astype(np.int64), ~unsure


def _lay_out(v: np.ndarray, y: np.ndarray, ok: np.ndarray, shortest: bool, out: np.ndarray) -> np.ndarray:
    """Write the fields of the doubles v, with ``y = |v|``, that ``_digits`` or zero serves to out, and return where."""
    digits, last, layout = _text_tables()[:3]
    n, e, fast = _digits(y, ok, shortest)
    fast |= v == 0
    # n = d0 * 10**16 + g1 * 10**12 + g2 * 10**8 + g3 * 10**4 + g4; // by a scalar is far cheaper than %
    q = n // 10**8
    r = n - q * 10**8
    t = q // 10**4
    d0, g3 = t // 10**4, r // 10**4
    g1, g2, g4 = t - d0 * 10**4, q - t * 10**4, r - g3 * 10**4
    lst = np.maximum(np.maximum(last[0].take(g1), last[1].take(g2)), np.maximum(last[2].take(g3), last[3].take(g4)))
    idx = (np.signbit(v) * 20 + e + (4 + 40 * shortest)) * 17 + lst
    np.bitwise_and(digits.take(np.stack([d0 + 10_000, g1, g2, g3, g4], -1)), layout.take(idx, 0), out=out)
    return fast


def _fields(x: np.ndarray, shortest: bool = False) -> np.ndarray:
    """The (n, c, 5) uint64 words of the text of each double of the (n, c) array x, NUL padded, from byte 1 on.

    The text is ``"%.17g" % v``, or, if shortest, ``json.dumps(v)``: the
    shortest repr, with NaN and the infinities as json spells them.  Rows go
    BLOCK_ROWS at a time.  ``_lay_out`` writes the values of ``_digits`` and
    zero; Python formats the others.
    """
    words = np.empty(x.shape + (5,), np.uint64)
    for i in range(0, len(x), BLOCK_ROWS):
        v, out = x[i:i + BLOCK_ROWS], words[i:i + BLOCK_ROWS]
        y = np.abs(v)
        slow = ~_lay_out(v, y, (y >= 1e-4) & (y < 1e16), shortest, out)
        if slow.any():
            values = v[slow].tolist()
            text = ("\0%r\1" if shortest else "\0%.17g\1") * len(values) % tuple(values)  # one % pass
            if shortest:  # as json spells them
                text = text.replace("nan", "NaN").replace("inf", "Infinity")
            out[slow] = np.array(text.split("\1")[:-1], "S40").view(np.uint64).reshape(-1, 5)
    return words


_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)  # an integer of d digits is at least d - 1 of these
# _DIGITS_FROM[z] keeps the digit bytes of a ``_text_tables`` group word from its z-th digit on
_DIGITS_FROM = np.array([sum(255 << 8 * (2 * d + 1) for d in range(z, 4)) for z in range(5)], np.uint64)


def _index_fields(index: np.ndarray) -> np.ndarray:
    """The (n, 1, k) uint64 words of the ``%d`` text of each integer of index, in [0, 10**18), NUL padded.

    The text comes from ``_text_tables``' 4-digit groups: k groups for the
    largest entry, with the slots and each entry's leading zero digits masked
    to NUL, so a field's first byte is free as ``_fields``' is.
    """
    k = -(-len(str(int(index.max()))) // 4)
    groups = np.empty((len(index), k), np.int64)
    rest = index
    for j in range(k - 1, 0, -1):  # // by a scalar is far cheaper than %
        high = rest // 10_000
        groups[:, j] = rest - high * 10_000
        rest = high
    groups[:, 0] = rest
    # row d - 1 of keep masks the 4k digits of a d-digit integer; take's mode="clip" bounds each count to [0, 4]
    keep = _DIGITS_FROM.take(4 * np.arange(k, 0, -1) - 1 - np.arange(4 * k)[:, None], mode="clip")
    return (_text_tables()[0].take(groups) & keep.take(np.searchsorted(_POW10, index, "right"), 0))[:, None]


def _rows_text(groups: list[np.ndarray], ends: np.ndarray, sep: bytes = b",") -> bytes:
    """The rows of the fields in groups, side by side: cells joined by sep, each row followed by its end.

    Each group is an (n, c, k) array: c fields of k words each, whose first
    byte is free (``_fields``, ``_index_fields``).  ``ends`` holds one row end
    or one per row, as bytes 8m wide.  A one-byte sep (CSV) takes each
    field's free first byte, a longer one of at most 8 bytes a word of its
    own.  One ``bytes.translate`` drops the padding.
    """
    rows, packed = len(groups[0]), len(sep) == 1
    width = sum(g.shape[1] * (g.shape[2] + (not packed)) for g in groups)
    words = np.empty((rows, width + ends.itemsize // 8), np.uint64)
    j = 0
    for g in groups:
        c, k = g.shape[1], g.shape[2] + (not packed)
        cells = words[:, j:j + c * k].reshape(rows, c, k)
        cells[:, :, k - g.shape[2]:] = g
        if packed:
            words.view(np.uint8)[:, 8 * j:8 * (j + c * k):8 * k] = ord(sep)
        else:
            cells[:, :, 0] = np.frombuffer(sep.ljust(8, b"\0"), np.uint64)
        j += c * k
    (words.view(np.uint8) if packed else words)[:, 0] = 0  # no separator before a row's first cell
    words[:, width:] = ends.view(np.uint64).reshape(len(ends), -1)
    return words.tobytes().translate(None, b"\0")


# ---------------------------------------------------------------------------
# region records


def region_record(params: JanowskiParams, point: EvalPoint, theta_samples: int) -> tuple[dict, BoundaryCurve | None]:
    """A region record without boundary rows, and their curve; a singleton has a note, no rows and no curve."""
    rec: dict = {
        "params": {"A": params.A, "B": params.B},
        "point": {"z0": _pair(point.z0), "lambda": _pair(point.lam)},
    }
    with np.errstate(all="ignore"):  # a non-finite value is an error of its own, not a warning
        single = singleton_value(point, params)
        if single is None:
            disk = variability_disk(point, params)
            rec.update(center=_pair(disk.center), radius=disk.radius + 0.0)
            return rec, boundary_curve(point, params, theta_samples)
    if not cmath.isfinite(single):
        raise ValueError("singleton value must be finite")
    rec.update(center=_pair(single), radius=0.0, boundary=[], note=_singleton_note(point))
    return rec, None


def _theta_fields(theta_samples: int) -> np.ndarray:
    """The ``_fields`` of the theta column of every curve of theta_samples points, as JSON writes it."""
    return _fields(_theta_grid(theta_samples)[:, None], shortest=True)


def _boundary_rows(curve: BoundaryCurve | None, theta_fields: np.ndarray) -> dict:
    """``_json_text`` rows of a record: a disk's (theta, Re, Im) rows; none for a singleton."""
    if curve is None:
        return {}
    values = _fields(np.column_stack([curve.values.real, curve.values.imag]) + 0.0, shortest=True)
    return {"boundary": [_rows_text([theta_fields, values], _JSON_END, _JSON_SEP)]}


def _region_csv(rec: dict, curve: BoundaryCurve | None) -> bytes:
    """Boundary rows of a record; a singleton's one row is its value at theta 0."""
    if curve is None:
        cells = np.array([[0.0, *rec["center"]]])
    else:
        cells = np.column_stack([curve.thetas, curve.values.real + 0.0, curve.values.imag + 0.0])
    return b"theta,re,im\n" + _rows_text([_fields(cells)], np.array([b"\n"], "S8"))


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


def _point_args(args: argparse.Namespace) -> tuple[JanowskiParams, EvalPoint]:
    """Validated (params, point) of a region/sample command, rejecting a bad --theta-samples too."""
    params, point = JanowskiParams(args.A, args.B), EvalPoint(args.z0, args.lam)
    _check_theta_samples(args.theta_samples)
    return params, point


def _check_theta_samples(n: int) -> None:
    """Reject a boundary curve of fewer than 3 samples before any work."""
    if n < 3:
        raise ValueError("require theta_samples >= 3")


def _check_tol(tol: float) -> None:
    """Reject a membership tolerance that is not a finite positive number before any work."""
    if not tol > 0.0:
        raise ValueError("require tol > 0")
    if tol == math.inf:
        raise ValueError("require a finite tol")


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
        text = _json_text(rec, **_boundary_rows(curve, _theta_fields(args.theta_samples)))
    elif args.format == "csv":
        text = _region_csv(rec, curve)
    else:
        text = _region_svg(rec, curve, [])
    _write_out(args.out, text)
    return EXIT_OK


def cmd_extremal(args: argparse.Namespace) -> int:
    params = JanowskiParams(args.A, args.B)
    if not math.isfinite(params.exponent):  # a subnormal B: every F' value would be NaN
        raise ValueError(f"require a finite (A - B)/B, got B = {args.B!r}")
    spec = ExtremalSpec(a=args.a, lam=args.lam, params=params)
    z = args.z
    if not abs(z) < 1.0:
        raise ValueError(f"require |z| < 1, got |z| = {abs(z)}")
    cfg = QuadratureConfig(abs_tol=args.quad_tol, max_panels=args.max_panels)
    value = extremal_value(spec, z, cfg)
    deriv = complex(extremal_fprime(spec, z))
    text = f"{_f15(value.real)} {_f15(value.imag)}\n{_f15(deriv.real)} {_f15(deriv.imag)}\n"
    _write_out(args.out, text.encode())
    return EXIT_OK


# members per kernel call in sample: at BLOCK_ROWS, numpy's cost per call is ~40% of omega_eval's
_CHUNK_ROWS = 4 * BLOCK_ROWS


def _sample_blocks(point: EvalPoint, params: JanowskiParams, n: int, seed: int, tol: float):
    """(seed indices, w, status, slack) per chunk of _CHUNK_ROWS members, cut to n.

    sample_members draws each of its blocks whole, so row i is the same for
    every n; only the rows kept are evaluated and classified.  A non-finite
    value shows in its row and verdict, not as a numpy warning: a non-finite
    singleton is Outside, with a NaN slack.
    """
    with np.errstate(all="ignore"):
        single = singleton_value(point, params)
    if single is not None:
        finite = cmath.isfinite(single)
        w = np.full(_CHUNK_ROWS, single)
        slack = np.full(_CHUNK_ROWS, 0.0 if finite else np.nan)
        status = np.full(_CHUNK_ROWS, VERDICTS.index(Verdict.BOUNDARY if finite else Verdict.OUTSIDE))
    for start in range(0, n, _CHUNK_ROWS):
        size = min(_CHUNK_ROWS, n - start)
        if single is None:
            with np.errstate(all="ignore"):
                w = log_fprime(omega_eval(sample_members(seed, size, start), point.lam, point.z0), params)
                slack, status = classify(w, point, params, tol)
        yield np.arange(start, start + size), w[:size], status[:size], slack[:size]


def cmd_sample(args: argparse.Namespace) -> int:
    params, point = _point_args(args)
    _check_tol(args.tol)
    if args.mc_samples < 1:
        raise ValueError("require mc_samples >= 1")
    _check_seed(args.seed)
    # a row's end holds its verdict
    shortest = args.format == "json"
    if shortest:
        ends = np.array([_JSON_SEP + f'"{v.value}"'.encode() + _JSON_BREAK for v in VERDICTS], "S40")
    else:
        ends = np.array([f",{v.value}\n".encode() for v in VERDICTS], "S16")
    parts: list = []  # CSV or JSON text per chunk, or SVG cloud points
    n_breaches, witnesses = 0, []  # stderr lists the first 20 breaches
    for rows, w, status, slack in _sample_blocks(point, params, args.mc_samples, args.seed, args.tol):
        if args.format == "svg":
            parts += w.tolist()
        else:
            values = _fields(np.column_stack([w.real, w.imag]) + 0.0, shortest)
            parts.append(_rows_text([_index_fields(rows), values], ends[status], _JSON_SEP if shortest else b","))
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
            text = _json_text(rec, **_boundary_rows(curve, _theta_fields(args.theta_samples)),
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
    if args.tol is not None:
        _check_tol(args.tol)
    names = SUITE_NAMES if args.suite == "all" else [args.suite]
    reports = [run_suite(n, seed=args.seed, tol=args.tol) for n in names]
    _write_out(args.out, _json_text(reports))
    failed = ", ".join(r["suite_name"] for r in reports if not r["passed"])
    if not failed:
        return EXIT_OK
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


def cmd_sweep(args: argparse.Namespace) -> int:
    _check_theta_samples(args.theta_samples)
    out_dir = _resolve_out(args.out, is_dir=True)
    blocks = _parse_grid_file(Path(args.grid))
    out_dir.mkdir(parents=True, exist_ok=True)
    # every curve of the call has the same theta column: format it once, here
    theta_fields = _theta_fields(args.theta_samples)
    by_hash: dict[str, dict] = {}  # index entries in first-seen order
    for block in blocks:
        h = _block_hash(block)
        if h in by_hash:
            by_hash[h]["count"] += 1
            continue
        rec, curve = _sweep_record(block, args.theta_samples)
        fname = f"region-{h}.json"
        _write_text(out_dir / fname, _json_text(rec, **_boundary_rows(curve, theta_fields)))
        by_hash[h] = {"hash": h, "file": fname, "status": "rejected" if rec.get("rejected") else "ok", "count": 1}
    _write_text(out_dir / "index.json", _json_text({"records": list(by_hash.values())}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


_POINT_FLAGS = {
    "--A": dict(type=float, required=True, help="parameter A (-1 <= A < B)"),
    "--B": dict(type=float, required=True, help="parameter B (A < B <= 1, B != 0)"),
    "--lambda": dict(dest="lam", type=parse_complex, default=0j,
                     help="coefficient parameter; 're' or 're,im' (default 0)"),
}
_THETA = {"--theta-samples": dict(type=int, default=256)}
_SEED = {"--seed": dict(type=int, default=0, help="random seed (default 0)")}
_OUT = {"--out": dict(default=None, help="output path (default: stdout)")}
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
        "--z": dict(type=parse_complex, required=True, help="evaluation point, |z| < 1"),
        "--quad-tol": dict(type=float, default=1e-12), "--max-panels": dict(type=int, default=1024), **_OUT}),
    "sample": (cmd_sample, "seeded cloud of member values with verdicts", {
        **_POINT_FLAGS, "--z0": dict(type=parse_complex, required=True),
        "--mc-samples": dict(type=int, default=1000), **_THETA, **_SEED,
        "--tol": dict(type=float, default=1e-9, help="membership tolerance (default 1e-9)"),
        **_OUT, **_FORMAT}),
    "verify": (cmd_verify, "run verification suites", {
        "--suite": dict(choices=SUITE_NAMES + ("all",), required=True),
        "--tol": dict(type=float, default=None, help="tolerance of every suite (default: each suite's own)"),
        **_SEED, **_OUT}),
    "sweep": (cmd_sweep, "batch region records from a grid file", {
        "--grid": dict(required=True, help="grid file of key=value blocks"),
        "--out": dict(required=True, help="output directory"),
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
