"""Deterministic stand-in for the Seoul bike sharing demand CSV.

The real file (hourly rental counts with weather covariates, UCI
repository) cannot be fetched in offline environments, so tests that
need a realistic count-regression task synthesize one with the same
column layout, header quirks (unit suffixes, degree signs, cp1252
encoding), and a learnable hour/temperature/season structure. Set the
SEOUL_BIKE_CSV environment variable to a real copy of the file to run
the data-dependent tests against it instead.
"""

import os

import numpy as np

HEADER = (
    "Date,Rented Bike Count,Hour,Temperature(°C),Humidity(%),"
    "Wind speed (m/s),Visibility (10m),Dew point temperature(°C),"
    "Solar Radiation (MJ/m2),Rainfall(mm),Snowfall (cm),Seasons,Holiday,Functioning Day"
)

SEASONS = ("Winter", "Winter", "Spring", "Spring", "Spring", "Summer",
           "Summer", "Summer", "Autumn", "Autumn", "Autumn", "Winter")


def write_surrogate_bike_csv(path, n_rows=1460, seed=2024):
    """Hourly bike-demand lookalike: count depends on hour, temperature,
    season, and rain, with mild noise. Returns the path."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_rows):
        day = i // 24
        hour = i % 24
        month = day % 12  # fast season cycle so small files see all categories
        season = SEASONS[month]
        base_t = {"Winter": -3.0, "Spring": 12.0, "Summer": 25.0, "Autumn": 13.0}[season]
        temp = base_t + 8.0 * np.sin(2 * np.pi * (hour - 14) / 24) + rng.normal(0, 2.5)
        humidity = float(np.clip(55 + rng.normal(0, 15), 10, 98))
        wind = float(np.clip(rng.gamma(2.0, 0.8), 0, 7.4))
        visibility = float(np.clip(rng.normal(1400, 400), 27, 2000))
        dew = temp - (100 - humidity) / 5.0
        solar = max(0.0, np.sin(np.pi * (hour - 6) / 12)) * rng.uniform(0.5, 3.5)
        rain = float(rng.choice([0.0, 0.0, 0.0, 0.0, rng.uniform(0.1, 20)], p=[0.7, 0.1, 0.1, 0.05, 0.05]))
        snow = float(rng.uniform(0, 4)) if (season == "Winter" and rng.random() < 0.1) else 0.0
        holiday = "Holiday" if day % 29 == 0 else "No Holiday"
        functioning = "No" if day % 97 == 0 else "Yes"

        commute = 420 * (np.exp(-0.5 * ((hour - 8.5) / 1.6) ** 2) + np.exp(-0.5 * ((hour - 18) / 2.0) ** 2))
        leisure = 160 * max(0.0, np.sin(np.pi * (hour - 7) / 14))
        temp_factor = np.exp(-0.5 * ((temp - 21) / 13) ** 2)
        rain_factor = 1.0 / (1.0 + 0.6 * rain)
        count = (60 + (commute + leisure) * temp_factor) * rain_factor
        if holiday == "Holiday":
            count *= 0.65
        if functioning == "No":
            count = 0.0
        count = max(0.0, count * rng.lognormal(0.0, 0.18))
        date = f"{1 + day % 28:02d}/{1 + month:02d}/2018"
        rows.append(
            f"{date},{int(round(count))},{hour},{temp:.1f},{humidity:.0f},{wind:.1f},"
            f"{visibility:.0f},{dew:.1f},{solar:.2f},{rain:.1f},{snow:.1f},"
            f"{season},{holiday},{functioning}"
        )
    text = HEADER + "\n" + "\n".join(rows) + "\n"
    with open(path, "wb") as fh:
        fh.write(text.encode("cp1252"))
    return path


def real_bike_csv():
    """Path to a real Seoul bike CSV if the environment provides one."""
    for candidate in (os.environ.get("SEOUL_BIKE_CSV"), "data/SeoulBikeData.csv"):
        if candidate and os.path.exists(candidate):
            return candidate
    return None
