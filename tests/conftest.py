"""Shared fixtures: one session ``checks.Context`` builds the expensive
finite-difference spectra and trial profiles once; the eig2d, avp, CLI and
acceptance tests read them through the views below."""

from __future__ import annotations

import numpy as np
import pytest

from bilap import avp, checks, eig2d
from bilap.core import DomainSpec


@pytest.fixture(scope="session")
def unit_square() -> DomainSpec:
    return DomainSpec.square(1.0)


@pytest.fixture(scope="session")
def check_context() -> checks.Context:
    return checks.Context()


@pytest.fixture(scope="session")
def clamped_richardson(check_context) -> tuple[np.ndarray, np.ndarray]:
    """(limits, bands): Richardson-extrapolated clamped eigenvalues with the
    adversarial tolerance band 3|fine - mid| per mode."""
    limits, bands = check_context.richardson
    return np.array(limits), np.array(bands)


@pytest.fixture(scope="session")
def clamped_64_200(unit_square) -> np.ndarray:
    """200 clamped modes on the 64x64 grid, solved apart from the context,
    which solves that grid at FD_MODES only."""
    return np.array(eig2d.clamped_spectrum_fd(unit_square, checks.FD_GRIDS[0], 200).values)


@pytest.fixture(scope="session")
def mollified_profiles(check_context, unit_square):
    """The context's profile at MOLLIFIER_H = 0.1 and one at h = 0.05."""
    return {checks.MOLLIFIER_H: check_context.mollified,
            0.05: avp.mollified_indicator_profile(unit_square, 0.05, checks.MOLLIFIER_RES)}
