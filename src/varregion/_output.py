"""What the commands write, and how: atomic file writes, the digit engine that
formats floats, and the CSV and JSON texts of records and member rows.

It needs numpy, so ``cli`` imports it, with numpy and the layers, only when a
command runs.  The layers are called as module attributes
(``region.classify``), so that a wrapper installed in a layer's namespace sees
every call.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import region, sampler
from .region import VERDICTS, BoundaryCurve, EvalPoint, JanowskiParams, Verdict


def _resolve_out(path_str: str | None, is_dir: bool = False) -> Path | None:
    """The --out file or directory, None for stdout; OVERRIDE_OUT_DIR takes the place of its directory."""
    if path_str is None:
        return None
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
    nonzero digit of group j if it is g, else 0.  Row ``(sign * 22 + e + 6) *
    17 + last`` of ``layout`` ANDs a field of exponent e as ``%.17g`` does, and
    748 rows on as ``repr`` does, which keeps one digit past the point.  The
    rows of e = -6 and -5 are those of e = 0 without the sign, in ``%.17g``'s
    form: ``_lay_out`` moves such a field into exponent notation.
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
    layout = layout.reshape(2, 2, 20, 17, 40)
    layout = np.concatenate([np.broadcast_to(layout[0, 0, 4], (2, 2, 2, 17, 40)), layout], 2)
    p10 = np.array([float(10**k) for k in range(23)])  # exact doubles
    c = p10 * 134217729.0
    return digits.view(np.uint64)[:, 0], last, layout.reshape(1496, 40).view(np.uint64), p10, c - (c - p10)


def _digits(y: np.ndarray, ok: np.ndarray, shortest: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, e, ok) of doubles y >= 0, ok where y is in ``[1e-6, 1e16)``: where ok stays, y's text has the digits of n.

    n has 17 digits and stands for ``n * 10**(e - 16)``: y rounded half to
    even (``%.17g``) or, if shortest, ``repr``'s digits padded with zeros
    (``_shortest``).  ok turns False where e came out too large (log10
    rounded it up, or y is below 1e-6), where n would have 18 digits and
    where ``_shortest`` is unsure; n and e are 0 wherever ok is False.
    """
    p10, p10_hi = _text_tables()[3:]
    y = np.where(ok, y, 1.0)
    c = y * 134217729.0  # Veltkamp: y_hi and y_lo hold 26 bits each
    y_hi = c - (c - y)
    y_lo = y - y_hi
    e = np.maximum(np.floor(np.log10(y)), -6).astype(np.int64)  # below -6, 10**(16 - e) is no double
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


# the exponents of the values below 1e-4 that _digits serves, as the last 4 bytes of a field
_EXPONENTS = np.array([int.from_bytes(b"e-06", "little") << 32, int.from_bytes(b"e-05", "little") << 32], np.uint64)


def _lay_out(v: np.ndarray, y: np.ndarray, ok: np.ndarray, shortest: bool, out: np.ndarray) -> np.ndarray:
    """Write the fields of the doubles v, with ``y = |v|``, that ``_digits`` or zero serves to out, and return where.

    A value below 1e-4 is written as ``d.ddde-05`` or ``d.ddde-06``: its
    digits, laid out as for e = 0, move 5 bytes down over the unused
    ``0.000``, and the sign and exponent go in before and after them.
    """
    digits, last, layout = _text_tables()[:3]
    n, e, fast = _digits(y, ok, shortest)
    fast |= v == 0
    # n = d0 * 10**16 + g1 * 10**12 + g2 * 10**8 + g3 * 10**4 + g4; // by a scalar is far cheaper than %, and
    # about twice as cheap in int32 as in int64, which q and r fit
    q = n // 10**8
    r = (n - q * 10**8).astype(np.int32)
    q = q.astype(np.int32)
    t = q // 10**4
    d0, g3 = t // 10**4, r // 10**4
    g1, g2, g4 = t - d0 * 10**4, q - t * 10**4, r - g3 * 10**4
    lst = np.maximum(np.maximum(last[0].take(g1), last[1].take(g2)), np.maximum(last[2].take(g3), last[3].take(g4)))
    idx = (np.signbit(v) * 22 + e + (6 + 44 * shortest)) * 17 + lst
    np.bitwise_and(digits.take(np.stack([d0 + 10_000, g1, g2, g3, g4], -1)), layout.take(idx, 0), out=out)
    small = e < -4
    if small.any():
        w = out[small]
        w[:, :4] = (w[:, :4] >> 40) | (w[:, 1:] << 24)
        w[:, 4] = (w[:, 4] >> 40) | _EXPONENTS.take(e[small] + 6)
        w[:, 0] |= np.signbit(v[small]) * np.uint64(ord("-") << 8)
        out[small] = w
    return fast


# cells the digit engine formats at once: with blocks of 2,048 cells whole sweep calls took 9-20% longer, and
# blocks of 4,096 to 16,384 cells timed alike in whole sweep and sample calls
_BLOCK_CELLS = 8192


def _fields(x: np.ndarray, shortest: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """The (n, c, 5) uint64 words of the text of each double of the (n, c) array x, NUL padded, from byte 1 on.

    The text is ``"%.17g" % v``, or, if shortest, ``json.dumps(v)``: the
    shortest repr, with NaN and the infinities as json spells them.  The
    words go to out, an (n, c, 5) array or view, if one is given.  Rows go
    ``_BLOCK_CELLS`` cells at a time.  ``_lay_out`` writes the values of
    ``_digits`` and zero; Python formats the others.
    """
    if out is None:
        out = np.empty(x.shape + (5,), np.uint64)
    step = max(1, _BLOCK_CELLS // x.shape[1])
    for i in range(0, len(x), step):
        v, block = x[i:i + step], out[i:i + step]
        y = np.abs(v)
        slow = ~_lay_out(v, y, (y >= 1e-6) & (y < 1e16), shortest, block)
        if slow.any():
            values = v[slow].tolist()
            text = ("\0%r\1" if shortest else "\0%.17g\1") * len(values) % tuple(values)  # one % pass
            if shortest:  # as json spells them
                text = text.replace("nan", "NaN").replace("inf", "Infinity")
            block[slow] = np.array(text.split("\1")[:-1], "S40").view(np.uint64).reshape(-1, 5)
    return out


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


def _row_words(groups: list[np.ndarray], ends: np.ndarray, sep: bytes = b",") -> np.ndarray:
    """The (n, w) uint64 words of rows of the cells in groups, side by side: joined by sep, each followed by its end.

    A group is either an (n, c) array of doubles, which ``_fields`` formats
    in their cells, as ``json.dumps`` writes them if sep is longer than a
    byte (JSON) and as ``%.17g`` does if not (CSV); or an (m, c, k) array of
    fields of k words whose first byte is free (``_fields``,
    ``_index_fields``), whose m rows repeat down the n.  ``ends`` holds one
    row end or one per row, as bytes 8j wide.  A one-byte sep takes each
    field's free first byte, a longer one of at most 8 bytes a word of its
    own.  The rows' text is their bytes without the NUL padding.
    """
    rows, own = max(map(len, groups)), int(len(sep) > 1)  # the words a sep takes of its own before each field
    sizes = [(g.shape[1], 5 if g.ndim == 2 else g.shape[2]) for g in groups]
    width = sum(c * (k + own) for c, k in sizes)
    words = np.empty((rows, width + ends.itemsize // 8), np.uint64)
    j = 0
    for g, (c, k) in zip(groups, sizes):
        cells = words[:, j:j + c * (k + own)].reshape(rows, c, k + own)
        if g.ndim == 2:
            _fields(g, own == 1, cells[:, :, own:])
        else:
            cells.reshape(-1, len(g), c, k + own)[..., own:] = g
        if own:
            cells[:, :, 0] = np.frombuffer(sep.ljust(8, b"\0"), np.uint64)
        else:
            words.view(np.uint8)[:, 8 * j:8 * (j + c * k):8 * k] = ord(sep)
        j += c * (k + own)
    (words if own else words.view(np.uint8))[:, 0] = 0  # no separator before a row's first cell
    words[:, width:] = ends.view(np.uint64).reshape(len(ends), -1)
    return words


def _rows_text(groups: list[np.ndarray], ends: np.ndarray, sep: bytes = b",") -> bytes:
    """The text of the ``_row_words`` rows: one ``bytes.translate`` drops the padding."""
    return _row_words(groups, ends, sep).tobytes().translate(None, b"\0")


def _theta_fields(theta_samples: int) -> np.ndarray:
    """The ``_fields`` of the theta column of every curve of theta_samples points, as JSON writes it."""
    return _fields(region._theta_grid(theta_samples)[:, None], shortest=True)


def _boundary_rows(curves: list[BoundaryCurve | None], theta_fields: np.ndarray) -> list[dict]:
    """``_json_text`` rows of k records: each disk's (theta, Re, Im) rows; none for a singleton.

    The rows of all k disks are laid out in one ``_row_words`` matrix: the
    theta fields repeat for each disk, and the Re and Im cells of all of
    them are formatted in place in one ``_fields`` pass.  Each disk's text
    is its slice of the matrix.  With no disk nothing is formatted.
    """
    disks = [curve.values for curve in curves if curve is not None]
    if disks:  # a complex array's float64 view holds each value's (Re, Im) as one row
        values = np.concatenate(disks).view(np.float64).reshape(-1, 2)
        values += 0.0
        words = _row_words([theta_fields, values], _JSON_END, _JSON_SEP)
        slices = iter(words.reshape(len(disks), len(theta_fields), -1))
    return [{} if curve is None else {"boundary": [next(slices).tobytes().translate(None, b"\0")]}
            for curve in curves]


def _region_csv(rec: dict, curve: BoundaryCurve | None) -> bytes:
    """Boundary rows of a record; a singleton's one row is its value at theta 0."""
    if curve is None:
        cells = np.array([[0.0, *rec["center"]]])
    else:
        cells = np.column_stack([curve.thetas, curve.values.real + 0.0, curve.values.imag + 0.0])
    return b"theta,re,im\n" + _rows_text([cells], np.array([b"\n"], "S8"))


# members per kernel call in sample: at BLOCK_ROWS, numpy's cost per call is ~40% of omega_eval's; a chunk's
# Re and Im cells are one _fields block
_CHUNK_ROWS = 4 * sampler.BLOCK_ROWS


def _sample_blocks(point: EvalPoint, params: JanowskiParams, n: int, seed: int, tol: float):
    """(seed indices, w, status, slack) per chunk of _CHUNK_ROWS members, cut to n.

    sample_members draws each of its blocks whole, so row i is the same for
    every n; only the rows kept are evaluated and classified.  A NaN (at a
    subnormal z0) shows in its row and verdict, not as a numpy warning.
    """
    single = region.singleton_value(point, params)
    if single is not None:
        w = np.full(_CHUNK_ROWS, single)
        slack = np.zeros(_CHUNK_ROWS)
        status = np.full(_CHUNK_ROWS, VERDICTS.index(Verdict.BOUNDARY))
    for start in range(0, n, _CHUNK_ROWS):
        size = min(_CHUNK_ROWS, n - start)
        if single is None:
            with np.errstate(all="ignore"):
                members = sampler.sample_members(seed, size, start)
                w = region.log_fprime(sampler.omega_eval(members, point.lam, point.z0), params)
                slack, status = region.classify(w, point, params, tol)
        yield np.arange(start, start + size), w[:size], status[:size], slack[:size]

