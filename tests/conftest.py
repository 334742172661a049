"""Shared fixtures: expensive thresholds are computed once per session.

Acceptance tests append one line per criterion to ACCEPTANCE_LINES; the
terminal-summary hook prints them after the run.
"""

import time

import pytest

from bpbounds import (channel_threshold, de_threshold, measure_threshold, regular_ensemble,
                      CHANNEL_FAMILIES, rayleigh_amplitude_marginal_density)
from bpbounds.channels import ChannelFamily

ACCEPTANCE_LINES = []


def record(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def ens36():
    return regular_ensemble(3, 6)


def _timed_channel_thresholds(kind, families, e, tol):
    t0 = time.monotonic()
    values = {fam: channel_threshold(kind, fam, e, tol=tol).value
              for fam in families}
    return {"values": values, "seconds": time.monotonic() - t0}


@pytest.fixture(scope="session")
def ub_cb_thresholds(ens36):
    """Criterion 2: channel thresholds of the CB-only upper bound."""
    return _timed_channel_thresholds(
        "ub-cb", ("bec", "rayleigh", "biawgn", "bilc", "bsc", "zchan"),
        ens36, 1e-4)


@pytest.fixture(scope="session")
def ub_sb_thresholds(ens36):
    """Criterion 3: channel thresholds of the SB-only upper bound."""
    return _timed_channel_thresholds(
        "ub-sb", ("bsc", "rayleigh", "biawgn", "bilc"), ens36, 2e-4)


@pytest.fixture(scope="session")
def ub_cbsb_thresholds(ens36):
    """Criterion 4: channel thresholds of the two-dimensional bound."""
    return _timed_channel_thresholds(
        "ub-cbsb", ("bec", "bsc", "rayleigh", "biawgn", "bilc"), ens36, 2e-4)


@pytest.fixture(scope="session")
def de_thresholds(ens36):
    """Criterion 5: discretized-DE thresholds; brackets trimmed to
    the physically relevant range so the 13 bisection steps resolve finely."""
    brackets = {
        "bsc": (0.03, 0.15),
        "biawgn": (0.5, 1.2),
        "bilc": (0.35, 1.0),
        "rayleigh": (0.4, 1.0),
    }
    t0 = time.monotonic()
    values = {}
    for fam, (lo, hi) in brackets.items():
        value, _, _ = de_threshold(CHANNEL_FAMILIES[fam], ens36, None,
                                   lo=lo, hi=hi)
        values[fam] = value
    values["bec_exact"] = measure_threshold("ub-cb", ens36)
    return {"values": values, "seconds": time.monotonic() - t0}


@pytest.fixture(scope="session")
def de_rayleigh_unobserved(ens36):
    """Criterion 5c: discretized-DE threshold of Rayleigh fading with the fading
    amplitude NOT observed, the channel the reference table's DE entry
    belongs to.  Same set-up and bracket as the observed channel in
    de_thresholds, but a fixture of its own so criterion 5b's time budget
    covers what it covered before."""
    family = ChannelFamily("rayleigh-unobserved", "sigma",
                           rayleigh_amplitude_marginal_density, 0.05, 3.0)
    t0 = time.monotonic()
    value, _, _ = de_threshold(family, ens36, None, lo=0.4, hi=1.0)
    return {"value": value, "seconds": time.monotonic() - t0}
