"""Computations made apart from driftmon, and the checks built on them.

Nothing here calls the code paths it checks. The references follow the
documented rules: QuantTree bin lookup from a histogram's splits, the
EWMA bin statistic with its randomized threshold (fire when S_t > h_t,
or when S_t == h_t and U_t < gamma_t, with U_t drawn from the stream
derived from the histogram seed and the step), and the EWMA error chart.
Every check returns a list of failure messages, empty when it passes.
"""

from __future__ import annotations

import json
import math
from statistics import NormalDist

import numpy as np

TIE_STREAM = 0x71E5     # path tag of the tie-breaking draws (documented tie rule)
TIE_RTOL = 1e-10        # |S - h| <= TIE_RTOL * h counts as a tie S == h
STAT_RTOL = 1e-9        # tolerance on reported statistics
REPLAY_LEVEL = 1e-4     # family-wise false-failure level of the replay band
FA_BAND_Z = 4.0         # width of the false-alarm band in standard deviations


def derive(seed: int, tag: int) -> int:
    """Benchmark-side seed for one purpose; independent of the program's."""
    return int(np.random.SeedSequence([int(seed), 0xBE7C, int(tag)]).generate_state(1)[0])


def load_table_payload(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def table_arrays(payload: dict, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """(h_t, gamma_t) for t = 1..horizon, held constant beyond t_max."""
    h = np.asarray(payload["thresholds"], dtype=float)
    g = np.asarray(payload.get("gamma", np.zeros(len(h))), dtype=float)
    idx = np.minimum(np.arange(horizon), len(h) - 1)
    return h[idx], g[idx]


def fires(stat: np.ndarray, h: float, gamma: float, u) -> np.ndarray:
    """Randomized threshold rule, ties judged to a relative tolerance."""
    tie = np.abs(stat - h) <= TIE_RTOL * h
    return (~tie & (stat > h)) | (tie & (u < gamma))


def tie_uniform(hist_seed: int, t: int) -> float:
    state = np.random.SeedSequence([int(hist_seed), TIE_STREAM, int(t)]).generate_state(
        1, dtype=np.uint64)[0]
    return float(np.random.default_rng(int(state)).random())


# ---------------------------------------------------------------------------
# calibrate: table properties and a held-out stationary replay


def check_table(payload: dict, expect: dict) -> list[str]:
    failures = []
    for key, want in expect.items():
        if payload.get(key) != want:
            failures.append(f"table {key} = {payload.get(key)!r}, expected {want!r}")
    h = np.asarray(payload["thresholds"], dtype=float)
    g = np.asarray(payload.get("gamma", []), dtype=float)
    if len(h) != payload["t_max"] or len(g) != payload["t_max"]:
        return failures + [f"table holds {len(h)} thresholds and {len(g)} gammas "
                           f"for t_max {payload['t_max']}"]
    if not np.all(h > 0):
        failures.append("some h_t <= 0")
    if not np.all((g >= 0) & (g <= 1)):
        failures.append("some gamma_t outside [0, 1]")
    lam, k = payload["lambda"], payload["n_bins"]
    h1 = lam * lam * (k - 1)
    if abs(h[0] - h1) > 1e-12 * h1:
        failures.append(f"h_1 = {h[0]!r}, expected lambda^2 (K-1) = {h1!r}")
    alpha = 1.0 / payload["arl0_target"]
    if abs(g[0] - alpha) > 1e-12:
        failures.append(f"gamma_1 = {g[0]!r}, expected alpha = {alpha!r}")
    return failures


def replay_exceedance(payload: dict, replicates: int, seed: int):
    """Per-step exceedances and replicates at risk on fresh stationary streams.

    By distribution-freeness the bin sequence of a QuantTree histogram on
    1-D uniform training data has the law of any continuous case. With
    N/K training points per bin, bin k of a replicate is the interval
    between the midpoints of consecutive blocks of N/K order statistics,
    so the replay draws N uniforms per replicate, cuts them there, and
    locates fresh uniforms in the intervals. Bin labels are immaterial:
    the statistic is symmetric in the bins for uniform target
    probabilities.
    """
    n_bins, n_train, lam = payload["n_bins"], payload["train_size"], payload["lambda"]
    if n_train % n_bins:
        raise ValueError("the replay needs train_size divisible by n_bins")
    horizon = payload["t_max"]
    h, gamma = table_arrays(payload, horizon)
    rng = np.random.default_rng(seed)
    per_bin = n_train // n_bins
    order = np.sort(rng.random((replicates, n_train)), axis=1)
    cut = np.arange(1, n_bins) * per_bin
    bounds = 0.5 * (order[:, cut - 1] + order[:, cut])
    del order
    pi = np.full(n_bins, 1.0 / n_bins)
    z = np.tile(pi, (replicates, 1))
    exceed = np.zeros(horizon, dtype=np.int64)
    at_risk = np.zeros(horizon, dtype=np.int64)
    for t in range(horizon):
        n = len(z)
        if n == 0:
            break
        at_risk[t] = n
        b = (rng.random(n)[:, None] > bounds).sum(axis=1)
        z *= 1.0 - lam
        z[np.arange(n), b] += lam
        stat = ((z - pi) ** 2 / pi).sum(axis=1)
        fired = fires(stat, h[t], gamma[t], rng.random(n))
        exceed[t] = int(fired.sum())
        if exceed[t]:
            z, bounds = z[~fired], bounds[~fired]
    return exceed, at_risk


def check_replay(payload: dict, replicates: int, seed: int) -> list[str]:
    """Each step's exceedance rate lies in a family-wise band around alpha.

    The band's standard error combines the replay's binomial noise with
    the Monte Carlo error of h_t, estimated on the replicates * (1 -
    alpha)^(t-1) calibration replicates at risk at step t; the bound is
    Bonferroni over all t_max steps at level REPLAY_LEVEL.
    """
    exceed, at_risk = replay_exceedance(payload, replicates, seed)
    if not at_risk.all():
        return [f"every replayed replicate fired by t = {int(np.argmin(at_risk))}"]
    alpha = 1.0 / payload["arl0_target"]
    n_cal = payload["replicates"] * (1.0 - alpha) ** np.arange(len(at_risk))
    se = np.sqrt(alpha * (1 - alpha) * (1 / at_risk + 1 / n_cal))
    z = (exceed / at_risk - alpha) / se
    bound = NormalDist().inv_cdf(1 - REPLAY_LEVEL / (2 * len(z)))
    worst = int(np.argmax(np.abs(z)))
    if abs(z[worst]) > bound:
        return [f"replayed exceedance at t = {worst + 1}: {exceed[worst]}/{at_risk[worst]}"
                f" against alpha = {alpha:.5f} (z = {z[worst]:.2f}, bound {bound:.2f})"]
    return []


# ---------------------------------------------------------------------------
# monitor: inputs, CDM reference, kNN + ECDD reference


def monitor_inputs(seed: int, p: dict):
    """Training set and labeled streams for the monitor workload.

    Class m has mean 2 e_m in R^d and identity covariance. After row tau
    the class ``shift_class`` moves by ``shift`` along its own axis, away
    from the other classes, so its distribution changes while the
    classification error does not rise.
    """
    rng = np.random.default_rng(derive(seed, 10))
    m, d = p["classes"], p["features"]
    means = np.zeros((m, d))
    means[np.arange(m), np.arange(m)] = 2.0
    ty = np.repeat(np.arange(1, m + 1), p["train_per_class"])
    tx = means[ty - 1] + rng.standard_normal((len(ty), d))
    streams = []
    for _ in range(p["streams"]):
        y = rng.integers(1, m + 1, p["length"])
        x = means[y - 1] + rng.standard_normal((p["length"], d))
        drifted = (np.arange(1, p["length"] + 1) > p["tau"]) & (y == p["shift_class"])
        x[drifted, p["shift_class"] - 1] += p["shift"]
        labeled = rng.random(p["length"]) >= p["unlabeled_share"]
        streams.append((x, y, labeled))
    return (tx, ty), streams


def write_csv(path, x, y, labeled) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row, label, has_label in zip(x, y, labeled):
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write(f",{int(label)}\n" if has_label else ",\n")


def bins_from_splits(splits, x: np.ndarray, n_bins: int) -> np.ndarray:
    """Bin of each row: the first split whose half-space holds it, else K-1."""
    out = np.full(len(x), n_bins - 1, dtype=np.int64)
    free = np.ones(len(x), dtype=bool)
    for k, (dim, threshold, direction) in enumerate(splits):
        inside = x[:, dim] <= threshold if direction == "lower" else x[:, dim] > threshold
        out[free & inside] = k
        free &= ~inside
    return out


def cdm_reference(stream, histograms: dict, payload: dict) -> dict:
    """Per-class EWMA detectors run row by row over one stream.

    ``histograms`` maps each class to (splits, histogram seed). Unlabeled
    rows advance global time only.
    """
    x, y, labeled = stream
    n_bins, lam = payload["n_bins"], payload["lambda"]
    h, gamma = table_arrays(payload, len(x))
    pi = np.full(n_bins, 1.0 / n_bins)
    bins = {m: bins_from_splits(splits, x, n_bins) for m, (splits, _) in histograms.items()}
    z = {m: pi.copy() for m in histograms}
    count = dict.fromkeys(histograms, 0)
    stat = dict.fromkeys(histograms, 0.0)
    for i in range(len(x)):
        if not labeled[i]:
            continue
        m = int(y[i])
        count[m] += 1
        t = count[m]
        z[m] *= 1.0 - lam
        z[m][bins[m][i]] += lam
        stat[m] = s = float(((z[m] - pi) ** 2 / pi).sum())
        h_t = h[t - 1]
        tie = abs(s - h_t) <= TIE_RTOL * h_t
        if (s > h_t and not tie) or (tie and tie_uniform(histograms[m][1], t) < gamma[t - 1]):
            return {"t_star": i + 1, "m_star": m, "global_t": i + 1,
                    "class_counts": count, "statistics": stat}
    return {"t_star": None, "m_star": None, "global_t": len(x),
            "class_counts": count, "statistics": stat}


def check_cdm_report(report: dict, ref: dict) -> list[str]:
    failures = []
    for key in ("t_star", "m_star", "global_t"):
        if report.get(key) != ref[key]:
            failures.append(f"cdm {key} = {report.get(key)!r}, reference {ref[key]!r}")
    counts = {int(k): v for k, v in report.get("class_counts", {}).items()}
    if counts != ref["class_counts"]:
        failures.append(f"cdm class_counts = {counts}, reference {ref['class_counts']}")
    stats = {int(k): v for k, v in report.get("statistics", {}).items()}
    if set(stats) != set(ref["statistics"]) or any(
            not math.isclose(stats[m], s, rel_tol=STAT_RTOL, abs_tol=1e-15)
            for m, s in ref["statistics"].items()):
        failures.append(f"cdm statistics = {stats}, reference {ref['statistics']}")
    return failures


def knn_predict(train_x, train_y, x, k: int) -> np.ndarray:
    """Brute-force kNN: distance ties by training index, vote ties by smallest label."""
    out = np.empty(len(x), dtype=np.int64)
    n_classes = int(train_y.max())
    for start in range(0, len(x), 256):
        block = x[start:start + 256]
        d2 = ((block[:, None, :] - train_x[None, :, :]) ** 2).sum(axis=2)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        for j, labels in enumerate(train_y[nearest]):
            out[start + j] = int(np.bincount(labels, minlength=n_classes + 1)[1:].argmax()) + 1
    return out


def ecdd_reference(stream, predictions: np.ndarray, p0: float, limit: float,
                   r: float, prior_weight: float) -> dict:
    """EWMA error chart over the labeled rows, started from p0."""
    _, y, labeled = stream
    u, err_sum, n = p0, 0.0, 0
    for i in np.flatnonzero(labeled):
        error = int(predictions[i] != y[i])
        n += 1
        u = (1.0 - r) * u + r * error
        err_sum += error
        p = (prior_weight * p0 + err_sum) / (prior_weight + n)
        sigma = math.sqrt(p * (1.0 - p) * r / (2.0 - r) * (1.0 - (1.0 - r) ** (2 * n)))
        if u > p + limit * sigma:
            return {"t_star": int(i) + 1, "n_labeled": n, "statistic": u}
    return {"t_star": None, "n_labeled": n, "statistic": u}


def check_ecdd_report(report: dict, ref: dict, limit: float) -> list[str]:
    failures = []
    for key in ("t_star", "n_labeled"):
        if report.get(key) != ref[key]:
            failures.append(f"ecdd {key} = {report.get(key)!r}, reference {ref[key]!r}")
    if not math.isclose(report.get("statistic", math.nan), ref["statistic"],
                        rel_tol=STAT_RTOL, abs_tol=1e-15):
        failures.append(f"ecdd statistic = {report.get('statistic')!r}, "
                        f"reference {ref['statistic']!r}")
    if report.get("limit") != limit:
        failures.append(f"ecdd limit = {report.get('limit')!r}, passed {limit!r}")
    return failures


# ---------------------------------------------------------------------------
# bench delay: report arithmetic, the ARL0 guarantee, the delay ordering


def check_delay_rows(rows: list[dict]) -> list[str]:
    failures = []
    for row in rows:
        total = int(row["detections"]) + int(row["false_alarms"]) + int(row["censored"])
        if total != int(row["replicates"]):
            failures.append(f"{row['method']}: detections + false alarms + censored = "
                            f"{total}, replicates {row['replicates']}")
    return failures


def _binomial_survival(n: int, p: float, t: int) -> float:
    """P(Binomial(n, p) >= t)."""
    return sum(math.comb(n, j) * p ** j * (1 - p) ** (n - j) for j in range(t, n + 1))


def false_alarm_band(replicates: int, tau: int, payload: dict, priors) -> tuple[float, float]:
    """Mean and standard deviation of the false-alarm count before tau.

    One alpha per labeled row gives p = 1 - (1 - alpha)^tau. The spread
    adds to the binomial term the Monte Carlo error of each h_t, which
    every replicate shares: step t of the table is used by c_t detectors
    in expectation before tau (one per class whose counter reaches t),
    and its exceedance error has variance alpha (1 - alpha) / n_cal_t.
    """
    alpha = 1.0 / payload["arl0_target"]
    p = 1.0 - (1.0 - alpha) ** tau
    t = np.arange(1, tau + 1)
    c = np.array([sum(_binomial_survival(tau, q, s) for q in priors) for s in t])
    n_cal = payload["replicates"] * (1.0 - alpha) ** (t - 1)
    var_p = (1.0 - p) ** 2 * float((c ** 2 * alpha * (1 - alpha) / n_cal).sum())
    return replicates * p, math.sqrt(replicates * p * (1 - p) + replicates ** 2 * var_p)


def check_false_alarms(row: dict, payload: dict, tau: int, priors) -> list[str]:
    mean, sd = false_alarm_band(int(row["replicates"]), tau, payload, priors)
    fa = int(row["false_alarms"])
    if abs(fa - mean) > FA_BAND_Z * sd:
        return [f"{row['method']}: {fa} false alarms before tau = {tau}, expected "
                f"{mean:.1f} +- {FA_BAND_Z:g} x {sd:.1f}"]
    return []


def check_delay_order(fast: dict, slow: dict) -> list[str]:
    margin = math.hypot(float(fast["stderr"]), float(slow["stderr"]))
    if not float(fast["mean"]) + margin < float(slow["mean"]):
        return [f"{fast['method']} mean delay {float(fast['mean']):.1f} is not below "
                f"{slow['method']}'s {float(slow['mean']):.1f} by more than {margin:.1f}"]
    return []
