"""Rendering of experiment results: "mean (std)" score tables and
influence-curve grids.

Everything here is a pure function of already-computed results; nothing
re-runs training or touches an RNG. Rendering stays plain text / CSV so
any plotting tool can consume the output.
"""

from __future__ import annotations

import io
import json
import os

import numpy as np

from .losses import LossSpec, influence

RESULTS_SCHEMA = "cauchybench-results-v1"
MAX_GRID_POINTS = 10**6  # influence_csv writes one CSV line per point

__all__ = [
    "RESULTS_SCHEMA",
    "MAX_GRID_POINTS",
    "save_results",
    "load_results",
    "format_table",
    "influence_csv",
]


def save_results(doc: dict, path) -> None:
    """Write a results document as JSON.

    The document goes to a temporary file beside ``path`` that then
    replaces it, so a write that fails leaves any earlier file whole.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=2)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _at(doc, *keys):
    """``doc[k1][k2]...``, or None where some level is not a dict holding the key."""
    for key in keys:
        doc = doc.get(key) if isinstance(doc, dict) else None
    return doc


def _has(entry, numbers=(), strings=()) -> bool:
    """Whether ``entry`` is a dict with a real number at each key of ``numbers``
    and a string at each key of ``strings``."""
    kinds = [(k, (int, float)) for k in numbers] + [(k, (str,)) for k in strings]
    return isinstance(entry, dict) and all(type(entry.get(k)) in t for k, t in kinds)


def load_results(path) -> dict:
    """A results document read back. JSON of any other shape, or lacking a
    field that ``format_table`` or ``cauchybench compare`` reads, is a ValueError."""
    with open(path) as fh:
        doc = json.load(fh)
    if not (
        isinstance(doc, dict)
        and doc.get("schema") == RESULTS_SCHEMA
        and isinstance(doc.get("models"), list)
        and all(isinstance(doc.get(key), dict) for key in ("aggregate", "comparisons"))
    ):
        raise ValueError("not a cauchybench results document")
    models, numbers, strings = doc["models"], ("statistic", "p_value"), ("method",)
    if not (models and all(isinstance(m, str) for m in models)):
        raise ValueError("'models' is not a nonempty list of model labels")
    for m in models:
        for metric in ("mae", "rmse"):
            if not _has(_at(doc, "aggregate", m, metric), ("mean", "std")):
                raise ValueError(f"aggregate has no numeric {metric} mean and std for model {m!r}")
    for metric, comp in doc["comparisons"].items():
        pairs = _at(comp, "pairwise")
        if not (
            _has(_at(comp, "kruskal_wallis"), numbers, strings)
            and isinstance(pairs, list)
            and all(_has(p, numbers, (*strings, "model_a", "model_b")) for p in pairs)
        ):
            raise ValueError(f"comparison {metric!r} lacks its kruskal_wallis test or pairwise list")
    return doc


def format_table(results: dict, metric: str, fmt: str = "text") -> str:
    """One row per model, "mean (std)" to three decimals, minimum flagged.

    ``results`` is a results document as ``run_experiment`` returns it;
    no score is recomputed.
    """
    metric = metric.lower()
    if metric not in ("mae", "rmse"):
        raise ValueError(f"unknown metric {metric!r}")
    if fmt not in ("text", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    models = results["models"]
    agg = results["aggregate"]
    means = {m: agg[m][metric]["mean"] for m in models}
    stds = {m: agg[m][metric]["std"] for m in models}
    best = min(models, key=lambda m: means[m])

    if fmt == "csv":
        out = io.StringIO()
        out.write(f"model,{metric}_mean,{metric}_std,lowest\n")
        for m in models:
            out.write(f"{m},{means[m]:.3f},{stds[m]:.3f},{'yes' if m == best else 'no'}\n")
        return out.getvalue()

    cells = {m: f"{means[m]:.3f} ({stds[m]:.3f})" for m in models}
    name_w = max(len("Model"), max(len(m) for m in models))
    cell_w = max(len(metric.upper()), max(len(c) for c in cells.values()) + 2)
    lines = [f"{'Model':<{name_w}}  {metric.upper():>{cell_w}}"]
    for m in models:
        mark = " *" if m == best else "  "
        lines.append(f"{m:<{name_w}}  {cells[m] + mark:>{cell_w}}")
    lines.append("(* lowest mean)")
    return "\n".join(lines) + "\n"


def influence_csv(specs: list[LossSpec], rmax: float, steps_per_unit: int) -> str:
    """Influence curves on a residual grid, one CSV column per loss.

    The grid runs from 0 to rmax with ``steps_per_unit`` points per unit
    residual (spacing 1/steps_per_unit), so integer residuals land on
    grid points exactly. A grid of more than ``MAX_GRID_POINTS`` points,
    or denser than that per unit, is refused before anything is allocated.
    """
    if not 0 < rmax < np.inf or steps_per_unit < 1:  # NaN fails both comparisons
        raise ValueError("need a finite rmax > 0 and steps_per_unit >= 1")
    # n + 1 points for n = round(rmax * steps_per_unit); a steps_per_unit
    # above the cap is refused first, so the product never overflows
    cap = MAX_GRID_POINTS
    if steps_per_unit > cap or round(min(rmax * steps_per_unit, cap)) >= cap:
        raise ValueError(f"the grid may hold at most {cap} points; lower rmax or steps_per_unit")
    n = round(rmax * steps_per_unit)
    grid = np.arange(n + 1) / steps_per_unit
    out = io.StringIO()
    out.write("r," + ",".join(s.label for s in specs) + "\n")
    cols = [influence(grid, s) for s in specs]
    for i, r in enumerate(grid):
        out.write(f"{r:.17g}," + ",".join(f"{col[i]:.17g}" for col in cols) + "\n")
    return out.getvalue()
