"""The deterministic synthetic series that the benchmark, the scripts
and the tests run on.

The archived monthly sunspot series is read like any other CSV file,
with ``load_csv`` (``anarx bench --data``); ``scripts/fetch_sunspots.py``
fetches and validates it.
"""

from __future__ import annotations

import numpy as np

from .pipeline import SeriesFrame


def synthetic_load_series(n: int = 5000, seed: int = 7) -> SeriesFrame:
    """Deterministic 15-minute power-demand-like series.

    Daily and weekly cycles on a slow seasonal drift, with day-to-day
    amplitude irregularity, occasional multi-day level shifts (weather
    fronts), and AR(1) noise; 96 samples per day. Values are in
    arbitrary MW.
    """
    rng = np.random.default_rng(seed)
    k = np.arange(n)
    day = 2.0 * np.pi * k / 96.0
    week = 2.0 * np.pi * k / (96.0 * 7.0)
    season = 2.0 * np.pi * k / (96.0 * 365.0)
    base = 620.0 + 35.0 * np.sin(season + 0.7)
    daily = 140.0 * np.sin(day - 1.1) + 55.0 * np.sin(2.0 * day + 0.4)
    weekly = 60.0 * np.sin(week + 0.3)
    level = np.empty(n)
    scale = np.empty(n)
    cur_level = 0.0
    day_scale = 1.0
    for i in range(n):
        if i % (96 * 6) == 0:
            cur_level = 80.0 * rng.normal()
        if i % 96 == 0:
            day_scale = 1.0
            if rng.uniform() < 0.3:
                day_scale += 0.45 * rng.uniform(-1.0, 1.0)
        level[i] = cur_level
        scale[i] = day_scale
    ar = np.empty(n)
    z = 0.0
    eps = rng.normal(0.0, 9.0, size=n)
    for i in range(n):
        z = 0.85 * z + eps[i]
        ar[i] = z
    values = base + scale * daily + weekly + level + ar
    return SeriesFrame(values, name="synthetic_load_15min")
