"""Parametric jump-time laws with exact closed-form moments.

The family is deliberately closed: every law must expose exact first, second
and fourth moments, because the scaling constants derived from them must not
carry Monte Carlo error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

KINDS = ("uniform01", "exponential", "deterministic", "two_point")


@dataclass(frozen=True)
class JumpLaw:
    """A nonnegative jump-time distribution.

    kind:   one of KINDS.
    params: positional parameters, meaning depends on kind:
            exponential -> (rate,), deterministic -> (c,),
            two_point -> (a, b, p) taking value a with probability p.
    """

    kind: str
    params: tuple[float, ...] = ()


def uniform01() -> JumpLaw:
    return JumpLaw("uniform01")


def exponential(rate: float) -> JumpLaw:
    return JumpLaw("exponential", (float(rate),))


def deterministic(c: float) -> JumpLaw:
    return JumpLaw("deterministic", (float(c),))


def two_point(a: float, b: float, p: float) -> JumpLaw:
    return JumpLaw("two_point", (float(a), float(b), float(p)))


def validate_law(law: JumpLaw) -> list[str]:
    """Return a list of violation messages, empty when the law is usable.

    Never raises: callers that want a hard failure use moments() or the
    samplers, which reject invalid parameters.
    """
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
        mass_at_zero = (p if a == 0 else 0.0) + ((1.0 - p) if b == 0 else 0.0)
        if mass_at_zero == 1.0:
            out.append("P(U=0)=1")
    return out


def _check(law: JumpLaw) -> None:
    bad = validate_law(law)
    if bad:
        raise ParameterError(f"invalid jump law {law_label(law)}: " + "; ".join(bad))


def moments(law: JumpLaw) -> tuple[float, float, float]:
    """Exact (m1, m2, m4) for the law. Raises ParameterError when invalid."""
    _check(law)
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
    if law.kind != "two_point" or len(law.params) != 3:
        return False
    a, b, p = law.params
    mass = (p if a == 0 else 0.0) + ((1.0 - p) if b == 0 else 0.0)
    return 0.0 < mass < 1.0


def sample_jumps(law: JumpLaw, rng: np.random.Generator, size: int | None = None):
    """Draw jump times from the law; scalar when size is None."""
    _check(law)
    m = 1 if size is None else int(size)
    if law.kind == "uniform01":
        draws = rng.random(m)
    elif law.kind == "exponential":
        draws = rng.exponential(1.0 / law.params[0], m)
    elif law.kind == "deterministic":
        draws = np.full(m, law.params[0])
    else:
        a, b, p = law.params
        draws = np.where(rng.random(m) < p, a, b)
    return float(draws[0]) if size is None else draws


def law_label(law: JumpLaw) -> str:
    """Config-format string for the law, the inverse of parse_law."""
    if not law.params:
        return law.kind
    return law.kind + ":" + ",".join(repr(float(p)) for p in law.params)


def parse_law(text: str) -> JumpLaw:
    """Parse 'uniform01', 'exponential:<rate>', 'deterministic:<c>' or
    'two_point:<a>,<b>,<p>'. Raises ParameterError on malformed input."""
    kind, _, rest = text.strip().partition(":")
    if kind not in KINDS:
        raise ParameterError(f"unknown law kind {kind!r}")
    try:
        params = tuple(float(tok) for tok in rest.split(",")) if rest else ()
    except ValueError as exc:
        raise ParameterError(f"malformed law parameters in {text!r}") from exc
    law = JumpLaw(kind, params)
    _check(law)
    return law
