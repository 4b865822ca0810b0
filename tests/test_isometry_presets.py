"""Ito isometry across the shipped noise presets.

The discrete isometry is exact in expectation, so the measured discrepancy
is pure Monte-Carlo noise; sample sizes are chosen so the 5% bound sits many
standard errors out for the first three multi-mode presets (the single-mode
additive preset needs the full 1e4 paths and is covered by the acceptance
suite). ``smallnoise-888`` runs 2,000 paths: one standard error of the
estimate is 2.7% of it there (8.2% at 200 paths), so its 5% bound sits
about 1.8 standard errors out; the measured relative error is 0.5%
(z = 0.18).
"""

import pytest

from stochpe.cli import _preset_text
from stochpe.config import build_solver_config, parse_config_text
from stochpe.experiments import ito_isometry_check

CASES = [
    ("example1-small", 4_000),
    ("example1-large-theta1", 2_000),
    ("example2-small", 2_000),
    ("smallnoise-888", 2_000),
]


@pytest.mark.parametrize("preset,n_paths", CASES, ids=[c[0] for c in CASES])
def test_preset_isometry(preset, n_paths):
    values = parse_config_text(_preset_text(preset))
    cfg = build_solver_config(values)
    res = ito_isometry_check(cfg, n_paths=n_paths, workers=2)
    assert res["rel_error"] < 0.05, res
