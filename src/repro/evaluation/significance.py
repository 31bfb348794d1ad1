"""Significance testing for method comparisons.

The paper reports one-tailed Student's t-tests over the 10-fold scores
(p < 0.01 throughout Sect. 6.3). Folds are paired across methods when they
score the same splits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TTestResult:
    """One-tailed test of "ours beats baseline"."""

    statistic: float
    p_value: float
    mean_difference: float

    def significant(self, level: float = 0.01) -> bool:
        return self.p_value < level


def paired_one_tailed_ttest(ours: np.ndarray, baseline: np.ndarray) -> TTestResult:
    """Paired one-tailed t-test that ``ours`` scores higher than ``baseline``."""
    ours = np.asarray(ours, dtype=np.float64)
    baseline = np.asarray(baseline, dtype=np.float64)
    if ours.shape != baseline.shape:
        raise ValueError("paired samples must align")
    if ours.size < 2:
        raise ValueError("need at least two paired scores")
    from scipy.stats import ttest_rel

    statistic, two_tailed = ttest_rel(ours, baseline)
    one_tailed = two_tailed / 2.0 if statistic > 0 else 1.0 - two_tailed / 2.0
    return TTestResult(
        statistic=float(statistic),
        p_value=float(one_tailed),
        mean_difference=float((ours - baseline).mean()),
    )
