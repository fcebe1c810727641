"""Parametric jump-time laws with exact closed-form moments.

The family is deliberately closed: every law must expose exact first, second
and fourth moments, because the scaling constants derived from them must not
carry Monte Carlo error. A JumpLaw is checked when it is built, so every law
that exists has finite float parameters and finite, positive moments, and the
functions below take it as valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, is_real

KINDS = ("uniform01", "exponential", "deterministic", "two_point")


@dataclass(frozen=True)
class JumpLaw:
    """A nonnegative jump-time distribution.

    kind:   one of KINDS.
    params: positional parameters, meaning depends on kind:
            exponential -> (rate,), deterministic -> (c,),
            two_point -> (a, b, p) taking value a with probability p.

    Raises InputError unless every parameter is a real number (numpy's too)
    and not a bool, and then, naming the law and every violated rule, unless
    the parameters fit the kind, are finite, and give finite, positive m1, m2
    and m4. The parameters are held as floats.
    """

    kind: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if not all(map(is_real, self.params)):
            raise InputError(f"{self.kind} parameters must be reals, got {self.params!r}")
        object.__setattr__(self, "params", tuple(map(float, self.params)))
        bad = _violations(self)
        if bad:
            raise InputError(f"invalid jump law {law_label(self)}: " + "; ".join(bad))


def uniform01() -> JumpLaw:
    return JumpLaw("uniform01")


def exponential(rate: float) -> JumpLaw:
    return JumpLaw("exponential", (rate,))


def deterministic(c: float) -> JumpLaw:
    return JumpLaw("deterministic", (c,))


def two_point(a: float, b: float, p: float) -> JumpLaw:
    return JumpLaw("two_point", (a, b, p))


def _mass_at_zero(law: JumpLaw) -> float:
    # P(U = 0) of a two_point law with parameters (a, b, p).
    a, b, p = law.params
    return (p if a == 0 else 0.0) + ((1.0 - p) if b == 0 else 0.0)


def _violations(law: JumpLaw) -> list[str]:
    # The messages of every rule the law breaks, empty when it is usable.
    out: list[str] = []
    if law.kind not in KINDS:
        return [f"unknown law kind {law.kind!r}"]
    if law.kind == "uniform01":
        if law.params:
            out.append("uniform01 takes no parameters")
    elif law.kind == "exponential":
        if len(law.params) != 1:
            return ["exponential takes exactly one parameter (rate)"]
        if not law.params[0] > 0:
            out.append("nonpositive rate")
    elif law.kind == "deterministic":
        if len(law.params) != 1:
            return ["deterministic takes exactly one parameter (c)"]
        if not law.params[0] > 0:
            out.append("nonpositive jump value c")
    else:
        if len(law.params) != 3:
            return ["two_point takes exactly three parameters (a, b, p)"]
        a, b, p = law.params
        if a < 0:
            out.append("negative a")
        if not b > 0:
            out.append("nonpositive b")
        if not 0.0 <= p <= 1.0:
            out.append("p outside [0, 1]")
        if _mass_at_zero(law) == 1.0:
            out.append("P(U=0)=1")
    if not all(math.isfinite(x) for x in law.params):
        out.append("nonfinite parameter")
    if out:
        return out
    # Overflow and division by zero leave a moment with no finite value.
    try:
        finite = all(0.0 < m < math.inf for m in moments(law))
    except (OverflowError, ZeroDivisionError):
        finite = False
    return [] if finite else ["m1, m2 and m4 not all finite and positive"]


def moments(law: JumpLaw) -> tuple[float, float, float]:
    """Exact (m1, m2, m4) for the law."""
    if law.kind == "uniform01":
        return (0.5, 1.0 / 3.0, 0.2)
    if law.kind == "exponential":
        rate = law.params[0]
        return (1.0 / rate, 2.0 / rate**2, 24.0 / rate**4)
    if law.kind == "deterministic":
        c = law.params[0]
        return (c, c * c, c**4)
    a, b, p = law.params
    q = 1.0 - p
    return (p * a + q * b, p * a * a + q * b * b, p * a**4 + q * b**4)


def has_zero_atom(law: JumpLaw) -> bool:
    """True when the law puts positive (but not full) mass at exactly 0.

    Such laws are accepted; downstream summaries flag runs that use them as
    exploratory because repeated zero jumps stack renewals at one instant.
    """
    return law.kind == "two_point" and 0.0 < _mass_at_zero(law) < 1.0


def sample_jumps(law: JumpLaw, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw size jump times from the law."""
    if law.kind == "uniform01":
        return rng.random(size)
    if law.kind == "exponential":
        return rng.exponential(1.0 / law.params[0], size)
    if law.kind == "deterministic":
        return np.full(size, law.params[0])
    a, b, p = law.params
    return np.where(rng.random(size) < p, a, b)


def law_label(law: JumpLaw) -> str:
    """Config-format string for the law, the inverse of parse_law."""
    if not law.params:
        return law.kind
    return law.kind + ":" + ",".join(repr(float(p)) for p in law.params)


def parse_law(text: str) -> JumpLaw:
    """Parse 'uniform01', 'exponential:<rate>', 'deterministic:<c>' or
    'two_point:<a>,<b>,<p>'. Raises InputError on malformed input or an
    invalid law."""
    kind, _, rest = text.strip().partition(":")
    try:
        params = tuple(float(tok) for tok in rest.split(",")) if rest else ()
    except ValueError as exc:
        raise InputError(f"malformed law parameters in {text!r}") from exc
    return JumpLaw(kind, params)
