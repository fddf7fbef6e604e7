"""Reference dip-count selection for the tests: the choice without the score screen."""

import pytest

from dualtherm import fitting
from dualtherm.forward import SpectrumTrace


def select_dip_count_unscreened(trace: SpectrumTrace) -> tuple[int, fitting.FitResult]:
    """``select_dip_count`` without the score screen: always fits two dips, to convergence or the cap.

    Retirement is put past the cap, so no fit of the reference is retired.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fitting, "_PATIENCE", fitting.MAX_ITERATIONS + 1)
        return fitting._bic_choice(trace, fitting.fit_odmr_dips(trace, 1), fitting.fit_odmr_dips(trace, 2))
