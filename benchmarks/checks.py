"""Checks of a cauchybench results document, computed apart from the program.

Every aggregate, test statistic and p-value in the document is recomputed
here with numpy and scipy.stats from the per-cell fold scores, and the
paper's method properties are asserted on each workload. Each check_*
function returns a list of error strings; an empty list means it passed.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from workloads import label, n_rows

AGG_RTOL = 1e-12   # means and stds recomputed with numpy: only summation order may differ
TEST_RTOL = 1e-9   # statistics and p-values recomputed with scipy.stats
METRICS = ("mae", "rmse")


def count_failed(doc: dict, cfg: dict) -> int:
    """Cells (replicate, fold, model) that are missing or have a non-finite score."""
    failed = 0
    for model in cfg["models"]:
        reps = doc.get("cell_scores", {}).get(label(model), [])
        for r in range(cfg["replicates"]):
            folds = reps[r] if r < len(reps) else []
            for f in range(cfg["folds"]):
                cell = folds[f] if f < len(folds) else {}
                scores = [cell.get(m) for m in METRICS]
                if not all(isinstance(s, (int, float)) and np.isfinite(s) for s in scores):
                    failed += 1
    return failed


def close(got, want, rtol) -> bool:
    return bool(np.isclose(got, want, rtol=rtol, atol=0.0))


def replicate_means(doc: dict, cfg: dict) -> dict[str, dict[str, np.ndarray]]:
    """Per-model, per-metric replicate scores: the mean over folds of each cell score."""
    return {
        label(m): {
            metric: np.array(
                [np.mean([cell[metric] for cell in rep]) for rep in doc["cell_scores"][label(m)]]
            )
            for metric in METRICS
        }
        for m in cfg["models"]
    }


def check_results(doc: dict, cfg: dict) -> list[str]:
    """Cells, aggregates and rank tests of a document whose cells are all present."""
    errors = []
    labels = [label(m) for m in cfg["models"]]
    if doc.get("models") != labels:
        return [f"models {doc.get('models')} != config models {labels}"]
    for m in labels:
        for r, rep in enumerate(doc["cell_scores"][m]):
            for f, cell in enumerate(rep):
                if not (cell["mae"] > 0 and cell["rmse"] >= cell["mae"]):
                    errors.append(f"{m} r{r} f{f}: need MAE > 0 and RMSE >= MAE, got {cell}")
    means = replicate_means(doc, cfg)
    for m in labels:
        for metric in METRICS:
            got = doc["replicate_scores"][m][metric]
            if len(got) != cfg["replicates"] or not all(
                close(g, w, AGG_RTOL) for g, w in zip(got, means[m][metric])
            ):
                errors.append(f"{m} {metric}: replicate scores {got} != {means[m][metric].tolist()}")
            agg = doc["aggregate"][m][metric]
            want = (np.mean(means[m][metric]), np.std(means[m][metric]))
            if not (close(agg["mean"], want[0], AGG_RTOL) and close(agg["std"], want[1], AGG_RTOL)):
                errors.append(f"{m} {metric}: aggregate {agg} != mean {float(want[0])!r}, std {float(want[1])!r}")
    if len(labels) >= 2:
        for metric in METRICS:
            errors += _check_comparison(doc["comparisons"][metric], labels, means, metric)
    return errors


def _check_comparison(comp: dict, labels, means, metric: str) -> list[str]:
    from scipy import stats  # 1.4 s cold import; kept out of the timed processes

    errors = []
    groups = [means[m][metric] for m in labels]
    kw = stats.kruskal(*groups)
    got = comp["kruskal_wallis"]
    if not (close(got["statistic"], kw.statistic, TEST_RTOL) and close(got["p_value"], kw.pvalue, TEST_RTOL)):
        errors.append(f"{metric} Kruskal-Wallis {got} != scipy H={float(kw.statistic)!r} p={float(kw.pvalue)!r}")
    pairs = [(p["model_a"], p["model_b"]) for p in comp["pairwise"]]
    if sorted(pairs) != sorted(combinations(labels, 2)):
        errors.append(f"{metric} pairwise tests cover {pairs}, not every pair of {labels}")
        return errors
    for pair in comp["pairwise"]:
        a, b = means[pair["model_a"]][metric], means[pair["model_b"]][metric]
        if pair["method"] == "exact_permutation":
            method = stats.PermutationMethod(n_resamples=np.inf)
            ref = stats.mannwhitneyu(a, b, alternative="two-sided", method=method)
        elif pair["method"] == "normal_approx":
            ref = stats.mannwhitneyu(
                a, b, alternative="two-sided", method="asymptotic", use_continuity=True
            )
        else:
            errors.append(f"{metric} {pair['model_a']} vs {pair['model_b']}: unknown method {pair['method']!r}")
            continue
        if not (close(pair["statistic"], ref.statistic, TEST_RTOL) and close(pair["p_value"], ref.pvalue, TEST_RTOL)):
            errors.append(
                f"{metric} {pair['model_a']} vs {pair['model_b']}: U={pair['statistic']!r} "
                f"p={pair['p_value']!r} != scipy U={float(ref.statistic)!r} p={float(ref.pvalue)!r}"
            )
    return errors


# --- method properties ---------------------------------------------------

HC8_LO = np.array([-6.0, -7.0, -2.0, -6.0, -10.0, -5.0, -15.0, -1.0])
HC8_HI = np.array([17.0, 20.0, 17.0, 10.0, 16.0, 10.0, 9.0, 14.0])


def hc2_target(X: np.ndarray) -> np.ndarray:
    return np.exp(X[:, 0]) - np.sin(X[:, 1])


def hc8_target(X: np.ndarray) -> np.ndarray:
    a = np.sin(X[:, 0]) ** 2 * (X[:, 1] - 2) * (X[:, 2] - 8) * (X[:, 3] - 11)
    b = np.cos(X[:, 4]) ** 2 * (X[:, 5] - 6) * (X[:, 6] - 6) * (X[:, 7] + 5) ** 2
    return 0.03 * (a + b)


def _stream(master_seed: int, *key: int) -> np.random.SeedSequence:
    # The documented seed protocol: one stream per (purpose, replicate[, fold]),
    # purposes data=0, folds=1, noise=2.
    return np.random.SeedSequence(entropy=master_seed, spawn_key=key)


def constant_baseline(cfg: dict) -> list[list[float]]:
    """hc8 only: per (replicate, fold) MAE on the clean test fold of a constant
    predictor equal to the mean of the noisy training targets.

    The folds and noise are rebuilt from the documented seed protocol; the
    traced run confirms they are the program's folds.
    """
    seed, n, k = cfg["master_seed"], n_rows(cfg), cfg["folds"]
    sigma = cfg["noise"]["sigma"]
    out = []
    for r in range(cfg["replicates"]):
        rng = np.random.default_rng(_stream(seed, 0, r))
        X = HC8_LO + (HC8_HI - HC8_LO) * rng.random((n, 8))
        y = hc8_target(X)
        order = np.random.default_rng(_stream(seed, 1, r)).permutation(n)
        row = []
        for f, test in enumerate(np.array_split(order, k)):
            train = np.setdiff1d(np.arange(n), test)
            a, b = _stream(seed, 2, r, f).generate_state(2)
            noise = np.random.default_rng((int(a) << 32) | int(b)).normal(0.0, sigma, train.size)
            row.append(float(np.mean(np.abs(y[np.sort(test)] - np.mean(y[train] + noise)))))
        out.append(row)
    return out


def check_properties(workload: str, doc: dict, cfg: dict, baseline=None) -> list[str]:
    """The paper's findings that hold at every seed tried on each workload."""
    means = {m: float(np.mean(v["mae"])) for m, v in replicate_means(doc, cfg).items()}
    mse = means["MSE"]
    clf = {m["c"]: means[label(m)] for m in cfg["models"] if m["kind"] == "clf"}
    if workload == "hc2-cauchy":
        losers = {c: v for c, v in clf.items() if c >= 1 and not v < mse}
        if losers:
            return [f"Cauchy noise: CLF with c >= 1 {losers} not below MSE mean MAE {mse}"]
    elif workload == "bike-outliers":
        if not any(v < mse for c, v in clf.items() if c <= 100):
            return [f"outliers: no CLF with c <= 100 below MSE mean MAE {mse}: {clf}"]
    elif workload == "hc8-gaussian-pair":
        const = float(np.mean(baseline))
        worse = {m: v for m, v in means.items() if not v < const}
        if worse:
            return [f"Gaussian noise: {worse} not below the constant predictor's MAE {const}"]
    return []


def check_fingerprint(doc: dict, fingerprint: dict) -> list[str]:
    """Per-cell MAE/RMSE of the fingerprint experiment against the stored copy."""
    rtol = fingerprint["rtol"]
    want, got = fingerprint["cell_scores"], doc.get("cell_scores", {})
    if sorted(got) != sorted(want):
        return [f"fingerprint models {sorted(got)} != stored {sorted(want)}"]
    errors = []
    for m in want:
        if [len(rep) for rep in got[m]] != [len(rep) for rep in want[m]]:
            errors.append(f"fingerprint {m}: replicate/fold layout differs from the stored copy")
            continue
        for r, (wrep, grep) in enumerate(zip(want[m], got[m])):
            for f, (wc, gc) in enumerate(zip(wrep, grep)):
                for metric in METRICS:
                    if not close(gc[metric], wc[metric], rtol):
                        errors.append(
                            f"fingerprint {m} r{r} f{f} {metric}: {gc[metric]!r} != {wc[metric]!r} (rtol {rtol})"
                        )
    return errors
