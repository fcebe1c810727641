"""CSV and key-value writers for paths, realizations, and campaign results.

Every table has one layout, and _write_table is its only writer: "# "
comment lines (the tool version and a "config k=v ..." line carrying the
statistical configuration and the seed, both from _stamp), the
comma-separated header, the rows, then any "# " footer lines (fits and
fractions). Summaries are key=value lines, one per item. Every float is
written as the bytes of repr, so equal configs and seeds produce
byte-identical files. Nothing volatile (timestamps, hosts, worker counts) is
ever written.

Table rows are rendered by one numpy kernel, ROW_BLOCK rows at a time. For a
float64 x = f * 2**e in repr's fixed notation range, it computes the
correctly rounded 15, 16 and 17 digit decimals of x in exact two-limb
integer arithmetic, keeps the shortest that reads back as x (Steele & White;
Gay 1990), and lays its digits out as repr does. A value it cannot certify
(zero, nan, inf, a power-of-two mantissa, exponent notation, a rounding tie
or an off-by-one log10) gets repr(float(x)) for that cell alone.
"""

from __future__ import annotations

import numpy as np

from ._version import __version__
from .coupling import GRID_STEP_DIVISOR
from .errors import InputError
from .laws import law_label

ROW_BLOCK = 8192  # rows rendered per write; bounds the matrices held at once

_U = np.uint64  # every kernel constant is uint64, so no int64 operand promotes a lane to float
_ONE, _B32, _M32 = _U(1), _U(32), _U(2**32 - 1)
_FRAC, _HIDDEN = _U(2**52 - 1), _U(2**52)
_POW5 = _U(5) ** np.arange(28, dtype=_U)  # 5**27 < 2**63
_POW10 = _U(10) ** np.arange(20, dtype=_U)

# Tables of the 10**4 four-digit groups: their ASCII digits as one 4-byte
# word, the same digits each followed by a NUL as one 8-byte word, and
# their trailing zeros (4 for 0000).
_n4 = np.arange(10**4, dtype=np.uint16)
_quad = (np.stack([_n4 // 1000, _n4 // 100 % 10, _n4 // 10 % 10, _n4 % 10], axis=1) + ord("0")).astype(np.uint8)
_DIGITS4 = _quad.view(np.uint32).ravel()
_SPREAD4 = np.stack([_quad, np.zeros_like(_quad)], axis=2).reshape(-1, 8).view(np.uint64).ravel()
_TRAILING_ZEROS4 = sum((_n4 % 10**t == 0).astype(np.int64) for t in (1, 2, 3, 4))
del _n4, _quad

_FLOAT_CELL, _INT_CELL = 40, 20  # bytes per cell, separator excluded


def _templates():
    """Cell templates: a cell is (its digit chars & AND) | OR.

    An int cell is the 20 digits of its magnitude, the first always 0; AND
    drops the leading zeros and OR puts the sign in byte 0. Its row is
    20 * negative + number of digits.

    A float cell is the 20 digits of its 17-digit decimal, digit i in byte
    2 i and a NUL after it. AND drops the three leading zeros (bytes 0-5) and
    keeps the first `keep` of the 17 digits; OR puts the sign in byte 0, the
    "0.000" prefix of |x| < 0.1 in bytes 1-5 and the dot after digit
    decpt - 1. Its row is (18 * negative + keep) * 19 + decpt + 3, for keep
    0..17 and decpt -3..15.
    """
    full, nul, minus, dot = np.uint8(0xFF), np.uint8(0), np.uint8(ord("-")), np.uint8(ord("."))
    byte = np.arange(_INT_CELL)
    negative, ndigits = np.divmod(np.arange(40)[:, None], 20)
    int_and = np.where(byte >= 20 - ndigits, full, nul)
    int_or = np.where((negative == 1) & (byte == 0), minus, nul)
    grid = np.meshgrid(np.arange(2), np.arange(18), np.arange(-3, 16), indexing="ij")
    negative, keep, decpt = (g.reshape(-1, 1) for g in grid)
    byte = np.arange(_FLOAT_CELL)
    digit = byte // 2 - 3
    float_and = np.where((byte % 2 == 0) & (digit >= 0) & (digit < keep), full, nul)
    prefix = np.frombuffer(b"\0" + b"0.000" + b"\0" * (_FLOAT_CELL - 6), np.uint8)
    float_or = (
        np.where((negative == 1) & (byte == 0), minus, nul)
        | np.where((decpt <= 0) & (byte <= 2 - decpt), prefix, nul)
        | np.where((decpt >= 1) & (byte == 2 * decpt + 5), dot, nul)
    )
    return int_and, int_or, float_and, float_or


_INT_AND, _INT_OR, _FLOAT_AND, _FLOAT_OR = _templates()


def format_value(x) -> str:
    """Render a cell: shortest round-trip repr for floats, str otherwise."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _kv(items: dict) -> str:
    return " ".join(f"{key}={format_value(value)}" for key, value in items.items())


def _open(file):
    return open(file, "w", newline="\n", encoding="utf-8")


def _groups(v):
    """The five 4-digit groups of the 20 digits of each uint64, most
    significant first."""
    hi = v // _U(10**8)
    lo = v - hi * _U(10**8)
    top = hi // _U(10**8)
    mid = hi - top * _U(10**8)
    mid_hi, lo_hi = mid // _U(10**4), lo // _U(10**4)
    return np.stack([top, mid_hi, mid - mid_hi * _U(10**4), lo_hi, lo - lo_hi * _U(10**4)], axis=1)


def _scaled(f, p, s):
    """Quotient and remainder of f * 5**p / 2**s in exact two-limb arithmetic
    (f < 2**53, p < 28, 1 <= s <= 63, all uint64; the quotient fits 64 bits)."""
    c = _POW5[p]
    fh, fl, ch, cl = f >> _B32, f & _M32, c >> _B32, c & _M32
    lo = fl * cl
    mid = fh * cl + fl * ch
    hi = fh * ch + (mid >> _B32)
    low = lo + (mid << _B32)
    hi += low < lo
    return (hi << (_U(64) - s)) | (low >> s), low & ((_ONE << s) - _ONE)


def _shortest(a):
    """Shortest round-trip decimal of each float64 a >= 0 in [1e-4, 1e15).

    Returns (digits, decpt, certified): digits is the decimal as a uint64 of
    17 digits, padded with zeros on the right, and the value is
    0.<digits> * 10**decpt. With x = f * 2**e, p = 16 - floor(log10 x) and
    s = -(e + p), X = x * 10**p = f * 5**p / 2**s has 17 integer digits. The
    k-digit rounding of x is D = round(X / 10**j), j = 17 - k, and D reads
    back as x iff 2 * |D * 10**j * 2**s - f * 5**p| < 5**p (the half-ulp
    interval is symmetric when f is not a power of two). The shortest k of 15,
    16, 17 that reads back is taken; k = 15 covers every shorter decimal,
    trailing zeros aside. A lane is certified when it is in range, its
    mantissa is not a power of two, D has exactly k digits (log10 was not off
    by one) and its rounding was no tie.
    """
    bits = a.view(_U)
    f = (bits & _FRAC) | _HIDDEN
    certified = (a >= 1e-4) & (a < 1e15) & (f != _HIDDEN)
    exp10 = np.floor(np.log10(np.where(certified, a, 1.0))).astype(np.int64)
    p = 16 - exp10
    s = 1075 - (bits >> _U(52)).astype(np.int64) - p
    certified &= (p >= 0) & (p < 28) & (s >= 1) & (s <= 56)
    p, s = np.clip(p, 0, 27).astype(_U), np.clip(s, 1, 56).astype(_U)
    q, rem = _scaled(f, p, s)
    limit = _POW5[p] >> _ONE  # 5**p is odd
    unit = _ONE << s
    digits = np.zeros(len(a), _U)
    tie = np.zeros(len(a), bool)
    found = np.zeros(len(a), bool)
    for j in (0, 1, 2):  # k = 17, 16, 15: the shortest that reads back is written last
        base = _U(10**j)
        d = q // base
        below = (q - d * base) * unit + rem  # X - d * 10**j, times 2**s; < 100 * 2**56
        half = (base * unit) >> _ONE
        up = below > half
        reads_back = np.where(up, base * unit - below, below) <= limit
        np.copyto(digits, (d + up) * base, where=reads_back)
        np.copyto(tie, below == half, where=reads_back)
        found |= reads_back
    certified &= found & ~tie & (digits >= _U(10**16)) & (digits < _U(10**17))
    return digits, exp10 + 1, certified


def _float_cells(out, x):
    """Fill out (len(x) x _FLOAT_CELL) with the NUL-padded repr of each float."""
    digits, decpt, certified = _shortest(np.abs(x))
    groups = _groups(digits)
    zeros = np.take(_TRAILING_ZEROS4, groups)
    trailing, all_zero = zeros[:, 4], groups[:, 4] == 0
    for g in (3, 2, 1):
        trailing = trailing + all_zero * zeros[:, g]
        all_zero &= groups[:, g] == 0
    n = 17 - trailing  # significant digits
    # at least one digit after the dot: 1000.0, not 1000.
    keep = np.where(decpt >= 1, np.maximum(n, decpt + 1), n)
    row = (np.signbit(x) * 18 + keep) * 19 + decpt + 3  # clipped below: lanes out of range are not certified
    cells = np.take(_SPREAD4, groups).view(np.uint8)
    cells &= np.take(_FLOAT_AND, row, axis=0, mode="clip")
    np.bitwise_or(cells, np.take(_FLOAT_OR, row, axis=0, mode="clip"), out=out)
    for i in np.flatnonzero(~certified):
        cell = repr(float(x[i])).encode("ascii")
        out[i] = 0
        out[i, : len(cell)] = np.frombuffer(cell, np.uint8)


def _int_cells(out, v):
    """Fill out (len(v) x _INT_CELL) with the NUL-padded str of each int."""
    magnitude = np.abs(v).astype(_U)  # abs(-2**63) wraps to 2**63 as uint64
    row = (v < 0) * 20 + np.searchsorted(_POW10[1:], magnitude, side="right") + 1
    cells = np.take(_DIGITS4, _groups(magnitude)).view(np.uint8)
    np.bitwise_and(cells, np.take(_INT_AND, row, axis=0), out=out)
    out |= np.take(_INT_OR, row, axis=0)


def _write_columns(fh, *columns) -> None:
    """Write equal-length int or float columns as CSV rows, ROW_BLOCK rows at a time.

    The bytes are those of format_value row by row: repr for each float, str
    for each int. Each column renders into its own cells of one NUL-padded
    uint8 block, separator included, and the block is written without its
    NULs.
    """
    cols = []
    for c in map(np.asarray, columns):
        if c.dtype.kind == "f":
            cols.append((_float_cells, _FLOAT_CELL, c.astype(np.float64, copy=False)))
        elif c.dtype.kind in "iu" and np.can_cast(c.dtype, np.int64):
            cols.append((_int_cells, _INT_CELL, c.astype(np.int64, copy=False)))
        else:
            raise TypeError(f"cannot write a column of dtype {c.dtype}")
    rows = len(cols[0][2])
    block = np.zeros((min(rows, ROW_BLOCK), sum(width + 1 for _, width, _ in cols)), np.uint8)
    offsets = np.cumsum([0] + [width + 1 for _, width, _ in cols])
    block[:, offsets[1:-1] - 1] = ord(",")
    block[:, -1] = ord("\n")
    for start in range(0, rows, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, rows)
        for (cells, width, c), off in zip(cols, offsets):
            cells(block[: stop - start, off : off + width], c[start:stop])
        fh.write(block[: stop - start].tobytes().translate(None, b"\0").decode("ascii"))


def n_grid_label(n_grid) -> str:
    """The scale ladder as written in configs and summaries: "4,8,16"."""
    return ",".join(str(n) for n in n_grid)


def _stamp(**config) -> list[str]:
    """The tool version line and the config line that open every table."""
    return [f"renewalbm {__version__}", "config " + _kv(config)]


def _write_table(file, comments, header, blocks, footer=()) -> None:
    """The one table layout, and its only writer.

    Each comment line as "# line", the comma-joined header, the rows of each
    block of equal-length columns in turn, then each footer line as
    "# line". blocks may be a stream; it is read one block at a time.
    """
    with _open(file) as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            _write_columns(fh, *columns)
            del columns  # not held while the next block is drawn
        for line in footer:
            fh.write(f"# {line}\n")


def write_path_csv(file, tp, law, schedule, seed) -> None:
    """Transport path as t,value rows: every breakpoint, then the horizon
    endpoint when the path runs past the last breakpoint, so the polyline
    through the rows equals the path on [0, horizon]."""
    t, value = tp.knot_times, tp.knot_values
    if tp.horizon > t[-1]:
        t = np.append(t, tp.horizon)
        value = np.append(value, tp.value_at(tp.horizon))
    title = "renewal-transport path " + _kv({"n": schedule.n, "k": schedule.k, "law": law_label(law), "seed": seed})
    stamp = _stamp(horizon=tp.horizon, slope_mag=tp.slope_mag, initial_sign=tp.initial_sign)
    _write_table(file, [title, *stamp], ("t", "value"), [(t, value)])


_SKELETON_HEADER = ("m", "Gamma", "Lambda", "skeleton_value")


def write_realization_csv(file, real, seed) -> None:
    """Coupling skeleton as m,Gamma,Lambda,skeleton_value rows, m = 0..steps."""
    stamp = _stamp(law=law_label(real.law), k=real.schedule.k, n=real.schedule.n, engine=real.engine, seed=seed)
    rows = (np.arange(real.n_steps + 1), real.path_times, real.bm_times, real.skeleton)
    _write_table(file, stamp, _SKELETON_HEADER, [rows])


def write_realization_blocks(file, law, schedule, engine, seed, blocks) -> None:
    """Skeleton rows from a stream of coupling.StepBlock, one block held at a
    time: the m = 0 row of zeros, then each block's steps in turn."""

    def rows():
        yield [0], [0.0], [0.0], [0.0]
        for b in blocks:
            yield np.arange(b.start + 1, b.start + b.n_steps + 1), b.path_times, b.bm_times, b.skeleton
            del b  # not held while the next block is drawn

    stamp = _stamp(law=law_label(law), k=schedule.k, n=schedule.n, engine=engine, seed=seed)
    _write_table(file, stamp, _SKELETON_HEADER, rows())


def write_grid_csv(file, real, seed) -> None:
    """Grid Brownian path as t,w rows; may be large."""
    if real.grid is None:
        raise InputError("realization has no grid path to export")
    sched, grid = real.schedule, real.grid
    stamp = _stamp(law=law_label(real.law), k=sched.k, n=sched.n, grid_step=grid.step, seed=seed)
    _write_table(file, stamp, ("t", "w"), [(np.arange(len(grid.values)) * grid.step, grid.values)])


def write_rate_csv(file, result) -> None:
    """Rate campaign table with the fit and calibration in footer comments."""
    cfg = result.config
    stamp = _stamp(
        law=law_label(cfg.law),
        k=cfg.k,
        n_grid=n_grid_label(cfg.n_grid),
        reps=cfg.reps,
        grid_step_divisor=GRID_STEP_DIVISOR,
        alpha="auto" if cfg.alpha is None else cfg.alpha,
        seed=cfg.master_seed,
    )
    header = ("n", "mean_J", "median_J", "q90_J", "exceedance", "J1", "J2", "J3", "J4")
    fields = ("n", "mean_j", "median_j", "q90_j", "exceedance", "mean_j1", "mean_j2", "mean_j3", "mean_j4")
    columns = [[getattr(row, f) for row in result.rows] for f in fields]
    footer = [
        "fit " + _kv({"slope": result.slope, "intercept": result.intercept, "r_squared": result.r_squared}),
        _kv({"alpha": result.alpha, "complete": result.complete}),
    ]
    _write_table(file, stamp, header, [columns], footer)


def write_trace_csv(file, trace, law, k, seed) -> None:
    """Per-replication sup distances, one column per scale, fractions in the
    footer."""
    reps = trace.j.shape[0]
    stamp = _stamp(law=law_label(law), k=k, n_grid=n_grid_label(trace.n_grid), reps=reps, seed=seed)
    header = ["rep", *(f"J_n{n}" for n in trace.n_grid)]
    footer = [_kv({"frac_monotone": trace.frac_monotone, "frac_final_below_first": trace.frac_final_below_first})]
    _write_table(file, stamp, header, [(np.arange(reps), *trace.j.T)], footer)


def write_summary(file, items: dict) -> None:
    """Machine-readable key=value lines, one per item, insertion order."""
    with _open(file) as fh:
        for key, value in items.items():
            fh.write(f"{key}={format_value(value)}\n")
