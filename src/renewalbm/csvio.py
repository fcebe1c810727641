"""CSV and key-value writers for paths, realizations, and campaign results.

Every table has one layout, and _write_table is its only writer: "# "
comment lines (the tool version and a "config k=v ..." line carrying the
statistical configuration and the seed, both from _stamp), the
comma-separated header, the rows, then any "# " footer lines (fits and
fractions). Summaries are key=value lines, one per item. Every float is
written as the bytes of repr, so equal configs and seeds produce
byte-identical files. Nothing volatile (timestamps, hosts, worker counts) is
ever written.

Table rows are rendered by one numpy kernel, ROW_BLOCK rows at a time, into
fixed 24-byte cells (separator included) of one block, which goes to the
binary file without its NULs. For a float64 x = f * 2**e in repr's fixed
notation range, it computes X = x * 10**p with 17 integer digits exactly,
takes the rounding of X to 17 digits, which always reads back as x, and the
roundings to 16 and 15 digits where they read back, keeps the shortest
(Steele & White; Gay 1990), and lays its digits out as repr does. A value
it cannot certify (zero, nan, inf, a power-of-two mantissa, exponent
notation, a rounding tie or an off-by-one log10) has its row written by
format_value instead.
"""

from __future__ import annotations

from dataclasses import astuple, fields

import numpy as np

from ._version import __version__
from .coupling import GRID_STEP_DIVISOR
from .laws import law_label

ROW_BLOCK = 8192  # rows rendered per write; bounds the matrices held at once

_U = np.uint64  # every kernel constant is uint64, so no int64 operand promotes a lane to float
_ONE, _B8, _B32, _B52, _B56, _B64 = _U(1), _U(8), _U(32), _U(52), _U(56), _U(64)
_FRAC, _HIDDEN = _U(2**52 - 1), _U(2**52)
_POW5 = _U(5) ** np.arange(22, dtype=_U)  # p <= 20, and 21 when log10 is one too low
_POW5_SCALED = _POW5.astype(np.float64) * 2.0**-64  # exact: 5**21 < 2**53
_FIXED_MAX = np.nextafter(1e15, 0.0)  # repr's fixed notation range is [1e-4, 1e15)
_GROUP = _U(10**4)  # table entries per kind of group
_WORD = np.dtype("<u8")  # a cell's words, little-endian on any host


def _digit_tables():
    """Digit tables of the 10**4 four-digit groups, each entry the group's
    ASCII digits in the low 4 bytes of a word. Floats index the groups as
    they are, then with their trailing zeros NUL (for the groups that end
    the decimal); ints index them as they are, then with their leading zeros
    NUL (for the groups that start the number), then the same but with the
    last digit of 0000 kept (for 0)."""
    n = np.arange(10**4, dtype=np.uint16)
    digit = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1).astype(np.uint8)
    nonzero = digit != 0
    before_last = np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
    after_first = np.logical_or.accumulate(nonzero, axis=1)
    kinds = [np.ones_like(nonzero), before_last, after_first, after_first | (np.arange(4) == 3)]
    words = np.zeros((len(kinds), 10**4, 8), np.uint8)
    for word, keep in zip(words, kinds):
        word[:, :4] = np.where(keep, digit + np.uint8(ord("0")), np.uint8(0))
    words = words.view(_WORD).ravel()
    return words[: 2 * 10**4], np.concatenate([words[: 10**4], words[2 * 10**4 :]])


_FLOAT_DIGITS, _INT_DIGITS = _digit_tables()

_CELL = 24  # bytes per cell, its separator in the last byte
_WORDS = _CELL // 8
_COMMA = _U(ord(",") << 56)  # byte 23 of a cell, in its last word
_MINUS = _U(ord("-"))  # byte 0


def _float_masks():
    """The float cell's words for each p = 0..21: A's AND, L's AND and the OR.

    A float cell holds the 20 digits of 10 times its 17-digit decimal, their
    trailing zeros NUL, twice: A in bytes 4-23, so digit i is in byte 6 + i,
    and L, A moved one byte down. With decpt = 17 - p, for decpt <= 0 the
    cell is "0." and -decpt zeros ending in byte 5, then the digits from A;
    for decpt >= 1 it is digits 0..decpt-1 from L, the dot in byte 5 + decpt,
    then the digits from A. The OR makes "0" of a NUL in the integer part and
    of a NUL right after the dot, and puts the comma in byte 23; byte 0 is
    left for the sign.
    """
    byte = np.arange(_CELL)
    decpt = 17 - np.arange(22)[:, None]
    zero, dot = ord("0"), ord(".")
    a_and = np.where(byte >= 6 + np.maximum(decpt, 0), 0xFF, 0)
    l_and = np.where((byte >= 5) & (byte < 5 + decpt), 0xFF, 0)
    prefix = (decpt <= 0) & (byte >= 4 + decpt) & (byte <= 5)
    digits = (decpt >= 1) & (l_and.astype(bool) | (byte == 6 + decpt))
    float_or = np.where(byte == 5 + decpt, dot, np.where(prefix | digits, zero, 0))
    float_or[:, -1] = ord(",")
    words = [np.ascontiguousarray(m.astype(np.uint8)).view(_WORD) for m in (a_and, l_and, float_or)]
    return np.concatenate(words, axis=1).T.copy()


_FLOAT_MASKS = _float_masks()  # row 3 * kind + word, column p
_FRACTION_AND = _FLOAT_MASKS[0, -1]  # A's AND for decpt <= 0 in word 0; words 1 and 2 keep all of A


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


def _groups(v):
    """The five 4-digit groups of the 20 digits of each uint64 v, most
    significant first."""
    hi = v // _U(10**8)
    lo = v - hi * _U(10**8)
    top = hi // _U(10**8)
    mid = hi - top * _U(10**8)
    mid_hi, lo_hi = mid // _GROUP, lo // _GROUP
    mid -= mid_hi * _GROUP
    lo -= lo_hi * _GROUP
    return [top, mid_hi, mid, lo_hi, lo]


def _shortest(a):
    """Shortest round-trip decimal of each float64 a >= 0 in [1e-4, 1e15).

    Returns (digits, p, certified): digits is 10 times the decimal as a
    uint64 of 17 digits, padded with zeros on the right, and the value is
    0.<digits> * 10**(17 - p). With x = f * 2**e, p = 16 - floor(log10 x)
    and s = -(e + p), X = x * 10**p = f * 5**p / 2**s has 17 integer digits.
    The low word of f * 5**p is the wrapped uint64 product; the high word
    is the float product f * 5**p * 2**-64 less the low word's share,
    rounded, since its error is below 2**-15. The k-digit rounding of x is D = round(X / 10**j),
    j = 17 - k, and D reads back as x iff 2 * |D * 10**j * 2**s - f * 5**p| <
    5**p (the half-ulp interval is symmetric when f is not a power of two).
    For k = 17 that always holds once X >= 10**16: the ulp of X is then
    X / f > 10**16 / 2**53 > 1, twice the rounding error at most. So only
    k = 16 and k = 15 are tested, and the shortest that reads back is
    taken; k = 15 covers every shorter decimal, trailing zeros aside. A lane
    is certified when it is in range, its mantissa is not a power of two, X
    has 17 integer digits (log10 was not off by one), D did not carry to 18
    digits and its rounding was no tie. Lanes out of range are computed as
    1e-4 or the largest double below 1e15, so every shift stays in range.
    """
    y = np.fmax(np.fmin(a, _FIXED_MAX), 1e-4)  # nan becomes _FIXED_MAX
    in_range = y == a
    bits = y.view(_U)
    f = (bits & _FRAC) | _HIDDEN
    exp10 = np.log10(y)
    np.floor(exp10, out=exp10)
    p = np.subtract(16.0, exp10, out=exp10).astype(np.int64)  # 1..20
    s = (_U(1075) - p.view(_U)) - (bits >> _B52)  # 1..49
    c = np.take(_POW5, p)
    low = f * c  # the low word of f * 5**p, wrapped
    high = f.astype(np.float64) * np.take(_POW5_SCALED, p)
    high -= (low >> _U(11)).astype(np.float64) * 2.0**-53
    high = np.rint(high, out=high).astype(np.int64).view(_U)
    q = (high << (_B64 - s)) | (low >> s)  # floor(X)
    unit = _ONE << s
    limit = c >> _ONE  # 5**p is odd
    half = unit >> _ONE
    rem = low - (q << s)  # (X - q) * 2**s
    digits = (q + (rem > half)) * _U(10)
    tie = rem == half
    for base in (10, 100):  # k = 16, 15: the shorter that reads back wins
        d = q // _U(base)
        below = low - ((d * _U(base)) << s)  # (X - d * 10**j) * 2**s
        half = unit * _U(base // 2)
        up = below > half
        reads_back = (below <= limit) | (below + limit >= half << _ONE)
        digits += reads_back * ((d + up) * _U(10 * base) - digits)  # wraps, times 0 where it does not read back
        tie ^= reads_back & (tie ^ (below == half))
    certified = in_range & (f != _HIDDEN) & (q >= _U(10**16)) & (digits < _U(10**18)) & ~tie
    return digits, p, certified


def _float_cells(out, x):
    """Fill out (len(x) x _WORDS) with the cells of float64 x; return the
    indices of the cells the kernel could not certify, whose bytes are then
    undefined."""
    digits, p, certified = _shortest(np.abs(x))
    g = _groups(digits)
    # Trailing zeros are NULs: the last group's always (the last digit of
    # 10 times a decimal is 0), an earlier group's if every later one is 0.
    rare = np.flatnonzero(g[4] == 0)
    if rare.size:
        trailing = np.ones(rare.size, bool)
        for k in (3, 2, 1, 0):
            part = g[k][rare]
            g[k][rare] = part + trailing * _GROUP
            trailing &= part == 0
    g[4] += _GROUP
    d = [np.take(_FLOAT_DIGITS, gk.view(np.int64)) for gk in g]
    a = [d[0] << _B32, d[1] | (d[2] << _B32), d[3] | (d[4] << _B32)]
    # Most values are below 1 (decpt <= 0): their cell keeps A from byte 6
    # on. The others take their integer digits from L.
    cells = [a[0] & _FRACTION_AND, a[1], a[2]]
    whole = np.flatnonzero(p <= 16)
    if whole.size:
        for cell, words in zip(cells, _integer_part([w[whole] for w in a], p[whole])):
            cell[whole] = words
    cells[0] |= np.signbit(x) * _MINUS
    for w, cell in enumerate(cells):
        np.bitwise_or(cell, np.take(_FLOAT_MASKS[2 * _WORDS + w], p), out=out[:, w])
    return np.flatnonzero(~certified)


def _integer_part(a, p):
    """The words of cells with decpt >= 1, their OR aside, from their A
    words and p: digits before the dot from L, the others from A."""
    low = [(a[0] >> _B8) | (a[1] << _B56), (a[1] >> _B8) | (a[2] << _B56), a[2] >> _B8]
    return [(a[w] & np.take(_FLOAT_MASKS[w], p)) | (low[w] & np.take(_FLOAT_MASKS[_WORDS + w], p)) for w in range(_WORDS)]


def _int_cells(out, v):
    """Fill out (len(v) x _WORDS) with the cells of int64 v; every int is
    rendered, so no index is returned.

    An int cell is the 20 digits of its magnitude in bytes 0-19, their
    leading zeros NUL (all but the last of 0), the sign in byte 0 (its first
    digit is always 0) and the comma in byte 23.
    """
    g = _groups(np.abs(v).view(_U))  # abs(-2**63) wraps to 2**63 as uint64
    leading = np.ones(len(v), bool)
    for k in range(4):
        zero = g[k] == 0
        g[k] += leading * _GROUP
        leading &= zero
    g[4] += leading * (_GROUP + _GROUP)  # 0 keeps its last digit
    d = [np.take(_INT_DIGITS, gk.view(np.int64)) for gk in g]
    cells = [d[0] | (d[1] << _B32) | ((v < 0) * _MINUS), d[2] | (d[3] << _B32), d[4] | _COMMA]
    for w in range(_WORDS):
        out[:, w] = cells[w]
    return np.empty(0, np.intp)


def _write_columns(fh, *columns) -> None:
    """Write equal-length int or float columns as CSV rows to the binary file
    fh, ROW_BLOCK rows at a time.

    The bytes are those of format_value row by row: repr for each float, str
    for each int. Each column renders into its cells of one NUL-padded
    block, separators included, and the block is written without its NULs.
    A row with a float the kernel could not certify is written by
    format_value instead.
    """
    cols = []
    for c in map(np.asarray, columns):
        if c.dtype.kind == "f":
            cols.append((_float_cells, c.astype(np.float64, copy=False)))
        elif c.dtype.kind in "iu" and np.can_cast(c.dtype, np.int64):
            cols.append((_int_cells, c.astype(np.int64, copy=False)))
        else:
            raise TypeError(f"cannot write a column of dtype {c.dtype}")
    rows = len(cols[0][1])
    block = np.empty((min(rows, ROW_BLOCK), len(cols), _WORDS), _WORD)
    text = block.view(np.uint8).reshape(len(block), -1)
    for start in range(0, rows, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, rows)
        uncertified = [cells(block[: stop - start, i], c[start:stop]) for i, (cells, c) in enumerate(cols)]
        text[: stop - start, -1] = ord("\n")
        done = 0
        for r in np.unique(np.concatenate(uncertified)):
            fh.write(text[done:r].tobytes().translate(None, b"\0"))
            fh.write((",".join(format_value(c[start + r]) for _, c in cols) + "\n").encode("ascii"))
            done = r + 1
        fh.write(text[done : stop - start].tobytes().translate(None, b"\0"))


def n_grid_label(n_grid) -> str:
    """The scale ladder as written in configs and summaries: "4,8,16"."""
    return ",".join(str(n) for n in n_grid)


def scalar_items(record) -> dict:
    """The float and bool fields of a result record by name, in field order:
    what the summaries and footers that take a whole record report."""
    return {f.name: getattr(record, f.name) for f in fields(record) if f.type in ("float", "bool")}


def _stamp(**config) -> list[str]:
    """The tool version line and the config line that open every table."""
    return [f"renewalbm {__version__}", "config " + _kv(config)]


def _write_table(file, comments, header, blocks, footer=()) -> None:
    """The one table layout, and its only writer.

    Each comment line as "# line", the comma-joined header, the rows of each
    block of equal-length columns in turn, then each footer line as
    "# line". blocks may be a stream; it is read one block at a time.
    """
    with open(file, "wb") as fh:
        fh.write("".join(f"# {line}\n" for line in comments).encode("utf-8"))
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for columns in blocks:
            _write_columns(fh, *columns)
            del columns  # not held while the next block is drawn
        fh.write("".join(f"# {line}\n" for line in footer).encode("utf-8"))


def write_path_csv(file, tp, seed) -> None:
    """coupling.TransportPath as t,value rows: 0 and every clock time where
    the slope changes, then the horizon when the path runs past the last of
    them, so the polyline through the rows equals the path on [0, horizon]."""
    t, value = tp.knots()
    if tp.horizon > t[-1]:
        t = np.append(t, tp.horizon)
        value = np.append(value, tp.value_at(tp.horizon))
    sched = tp.schedule
    title = "renewal-transport path " + _kv({"n": sched.n, "k": sched.k, "law": law_label(tp.law), "seed": seed})
    stamp = _stamp(horizon=tp.horizon, slope_mag=1.0 / sched.normalizer, initial_sign=int(tp.signs[0]))
    _write_table(file, [title, *stamp], ("t", "value"), [(t, value)])


def write_realization_csv(file, real, seed) -> None:
    """Coupling skeleton as m,Gamma,Lambda,skeleton_value rows, m = 0..steps."""
    write_realization_blocks(file, real.law, real.schedule, real.engine, seed, [real.as_block()])


def write_realization_blocks(file, law, schedule, engine, seed, blocks) -> None:
    """Skeleton rows as m,Gamma,Lambda,skeleton_value from a stream of
    coupling.StepBlock, one block held at a time: the m = 0 row of zeros,
    then each block's steps in turn."""

    def rows():
        yield [0], [0.0], [0.0], [0.0]
        for b in blocks:
            yield np.arange(b.start + 1, b.start + b.n_steps + 1), b.path_times, b.bm_times, b.skeleton
            del b  # not held while the next block is drawn

    stamp = _stamp(law=law_label(law), k=schedule.k, n=schedule.n, engine=engine, seed=seed)
    _write_table(file, stamp, ("m", "Gamma", "Lambda", "skeleton_value"), rows())


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
    # One column per RateRow field, in the field order.
    header = ("n", "mean_J", "median_J", "q90_J", "exceedance", "J1", "J2", "J3", "J4")
    columns = list(zip(*map(astuple, result.rows)))
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
    footer = [_kv(scalar_items(trace))]
    _write_table(file, stamp, header, [(np.arange(reps), *trace.j.T)], footer)


def write_summary(file, items: dict) -> None:
    """Machine-readable key=value lines, one per item, insertion order."""
    with open(file, "w", newline="\n", encoding="utf-8") as fh:
        for key, value in items.items():
            fh.write(f"{key}={format_value(value)}\n")
