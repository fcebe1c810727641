"""Jump-law moments, validation, sampling, and label round-trips."""

import numpy as np
import pytest

from renewalbm.errors import ParameterError
from renewalbm.laws import (
    deterministic,
    exponential,
    has_zero_atom,
    law_label,
    moments,
    parse_law,
    sample_jumps,
    two_point,
    uniform01,
    validate_law,
)


def test_uniform01_moments_exact():
    # E U^r = 1/(r+1)
    assert moments(uniform01()) == (0.5, 1.0 / 3.0, 0.2)


def test_deterministic_moments():
    assert moments(deterministic(1.0)) == (1.0, 1.0, 1.0)
    assert moments(deterministic(0.25)) == (0.25, 0.0625, 0.00390625)


def test_exponential_moments():
    # E U^r = r! / rate^r
    assert moments(exponential(1.0)) == (1.0, 2.0, 24.0)
    m1, m2, m4 = moments(exponential(2.0))
    assert m1 == pytest.approx(0.5, rel=1e-15)
    assert m2 == pytest.approx(0.5, rel=1e-15)
    assert m4 == pytest.approx(1.5, rel=1e-15)


def test_two_point_moments():
    m1, m2, m4 = moments(two_point(0.0, 1.0, 0.5))
    assert m1 == 0.5 and m2 == 0.5 and m4 == 0.5
    m1, m2, m4 = moments(two_point(1.0, 3.0, 0.75))
    assert m1 == pytest.approx(0.25 * 3.0 + 0.75)
    assert m2 == pytest.approx(0.25 * 9.0 + 0.75)
    assert m4 == pytest.approx(0.25 * 81.0 + 0.75)


def test_invalid_parameters_raise():
    with pytest.raises(ParameterError):
        moments(exponential(-1.0))
    with pytest.raises(ParameterError):
        moments(exponential(0.0))
    with pytest.raises(ParameterError):
        moments(deterministic(0.0))
    with pytest.raises(ParameterError):
        moments(two_point(0.0, 1.0, 1.5))
    with pytest.raises(ParameterError):
        moments(two_point(0.0, 0.0, 1.0))


def test_validate_law_reports_violations():
    assert validate_law(uniform01()) == []
    assert "P(U=0)=1" in " ".join(validate_law(two_point(0.0, 0.0, 1.0)))
    assert any("nonpositive rate" in v for v in validate_law(exponential(-1.0)))
    # degenerate two_point with all mass at zero via p=1
    assert validate_law(two_point(0.0, 1.0, 1.0))


def test_cauchy_schwarz_chain_for_accepted_laws():
    for law in (uniform01(), exponential(0.7), deterministic(2.5), two_point(0.5, 2.0, 0.3)):
        m1, m2, m4 = moments(law)
        assert m1 * m1 <= m2 <= np.sqrt(m4) * (1 + 1e-15)


def test_zero_atom_flag():
    assert not has_zero_atom(uniform01())
    assert not has_zero_atom(two_point(0.5, 1.0, 0.5))
    assert has_zero_atom(two_point(0.0, 1.0, 0.5))


def test_deterministic_sampler_is_point_mass():
    rng = np.random.default_rng(0)
    assert sample_jumps(deterministic(0.25), rng) == 0.25
    assert np.all(sample_jumps(deterministic(0.25), rng, 100) == 0.25)


def test_sampler_nonnegative_and_seed_stable():
    for law in (uniform01(), exponential(2.0), two_point(0.0, 2.0, 0.25)):
        draws = sample_jumps(law, np.random.default_rng(123), 10_000)
        again = sample_jumps(law, np.random.default_rng(123), 10_000)
        assert np.all(draws >= 0.0)
        assert np.array_equal(draws, again)


def test_sampler_means_match_moments():
    # CLT band: 3 sigma / sqrt(N) with sigma^2 = m2 - m1^2
    n = 10**5
    for law, tol in ((uniform01(), 0.005), (exponential(2.0), 0.005)):
        draws = sample_jumps(law, np.random.default_rng(7), n)
        m1 = moments(law)[0]
        assert abs(draws.mean() - m1) < tol


def test_empirical_moments_within_four_se():
    # SE of the r-th empirical moment uses the 2r-th moment
    n = 10**6
    for law in (uniform01(), exponential(1.0), two_point(0.5, 2.0, 0.3)):
        m1, m2, m4 = moments(law)
        draws = sample_jumps(law, np.random.default_rng(42), n)
        se1 = np.sqrt((m2 - m1 * m1) / n)
        se2 = np.sqrt((m4 - m2 * m2) / n)
        assert abs(draws.mean() - m1) < 4 * se1
        assert abs(np.mean(draws**2) - m2) < 4 * se2


def test_label_round_trip():
    for law in (
        uniform01(),
        exponential(2.5),
        deterministic(0.75),
        two_point(0.0, 2.0, 0.25),
    ):
        assert parse_law(law_label(law)) == law


def test_parse_law_rejects_junk():
    for text in ("gaussian", "exponential", "exponential:zero", "two_point:1,2", ""):
        with pytest.raises(ParameterError):
            parse_law(text)
