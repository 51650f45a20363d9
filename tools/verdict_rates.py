"""Print how often each validation verdict passes across seeds.

Run it before and after a change to validation, the draw path or J0, and
compare the two listings:

    python3 tools/verdict_rates.py

It runs ``validate --fig 6/7/8``, ``compare-kl`` and the lambda/2 check
(``lambda_half_independence``, imported from ``tests/oracles.py``) at
M = 10^4 over seeds 0-31, with the package under ``src/`` next to this
script, each run on the validation worker pool (one worker per CPU). For
each check it prints one line: how many seeds passed, then the
min/median/max over the seeds of each statistic that the verdict gates,
with its limit. A check passes at a seed when every gated statistic is
below its limit. It gates nothing and takes one to two minutes on two
CPUs. Every run is bit-identical for its seed whatever the worker count,
so a listing changes only when an output changes. No options.
"""
from __future__ import annotations

import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from holofading.validation import FIGURE_CONFIGS, compare_kl, run_figure  # noqa: E402
from oracles import lambda_half_independence  # noqa: E402

M = 10_000
SEEDS = range(32)


def figure(fig: int):
    """The gated statistics of ``run_figure(fig)`` at a seed, and its verdict."""
    limits = {key: limit / math.sqrt(M) if key == "z_consistency" else limit
              for key, limit in FIGURE_CONFIGS[fig]["thresholds"].items()}

    def run(seed: int) -> tuple[bool, dict]:
        report = run_figure(fig, M, seed)
        measured = {"rmse": report.rmse, "max_abs_dev": report.max_abs_dev,
                    "z_consistency": report.z_consistency_max}
        return report.passed, {key: (measured[key], limit) for key, limit in limits.items()}

    return run


def kl(seed: int) -> tuple[bool, dict]:
    """compare-kl's gated statistics at a seed: the entrywise budget, and
    fig 6's thresholds on the series side and on the dense baseline."""
    result = compare_kl(M, seed)
    limits = FIGURE_CONFIGS[6]["thresholds"]
    return result.passed, {
        "entrywise_max": (result.entrywise_max, 6.0 / math.sqrt(M)),
        "series_rmse": (result.figure.rmse, limits["rmse"]),
        "series_max_abs_dev": (result.figure.max_abs_dev, limits["max_abs_dev"]),
        "kl_rmse": (result.kl_report.rmse, limits["rmse"]),
        "kl_max_abs_dev": (result.kl_report.max_abs_dev, limits["max_abs_dev"]),
    }


def lambda_half(seed: int) -> tuple[bool, dict]:
    """The largest |row correlation| at a nonzero lag against 4/sqrt(M)."""
    _, worst = lambda_half_independence(M, seed)
    limit = 4.0 / math.sqrt(M)
    return worst < limit, {"max_abs_corr": (worst, limit)}


CHECKS = {
    "fig6": figure(6),
    "fig7": figure(7),
    "fig8": figure(8),
    "compare-kl": kl,
    "lambda-half": lambda_half,
}


def main() -> None:
    for name, check in CHECKS.items():
        passes, values, limits = 0, {}, {}
        for seed in SEEDS:
            passed, stats = check(seed)
            passes += passed
            for key, (value, limit) in stats.items():
                values.setdefault(key, []).append(value)
                limits[key] = limit
        parts = [f"{name:<12} {passes:2d}/{len(SEEDS)} pass"]
        for key, vals in values.items():
            parts.append(f"{key} {min(vals):.5f}/{statistics.median(vals):.5f}/{max(vals):.5f}"
                         f" (< {limits[key]:.3g})")
        print("  ".join(parts), flush=True)


if __name__ == "__main__":
    main()
