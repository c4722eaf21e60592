"""Independent references for the benchmark's correctness checks.

Nothing here calls gofevid: the references come from SciPy (``chndtr``,
``chndtrix``, ``ncx2``), NumPy, Gauss-Legendre quadrature and the paper's
closed forms re-derived in this file, so the checks survive any change to
gofevid's numerics or to its random-stream layout.  SciPy's ``stats`` module is
imported lazily, after the timed region, so that neither ``setup_s`` nor
``peak_rss_mb`` pays for it.

A check returns a list of ``Failure``.  A failure marked ``known`` is a defect
of the program recorded in ``KNOWN_DEFECTS``; it is reported in ``error_rate``
and in ``divergence.chisq_density.ref_failures`` but does not make the run
incorrect.  Every other failure does.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

# Monte Carlo means and sds must lie within this many mc_se of the exact value.
MC_Z = 6.0
# Closed-form values must agree to this relative (and absolute) tolerance.
REL_TOL = 1e-9
ALPHA = 0.05
K_DEFAULT = 0.5

KNOWN_DEFECTS = {
    "chisq_density_far_tail": (
        "chisq_density truncates its Poisson mixture near the Poisson mean, so "
        "far in the upper tail (nu=14, lam=200, x >= 800) its log-density falls "
        "below scipy.stats.ncx2.logpdf; at x=1500 the gap is 5.4 nats"
    ),
}

# README values for the bundled fixtures.
README_DIE_S = 7.76
README_DIE_T_LOF = 0.802
README_DIE_T_EQUIV = 0.263
README_DIE_M0 = 1.157
README_SAMPLESIZE_N0 = 427


@dataclass(frozen=True)
class Failure:
    message: str
    known: str | None = None


def close(a: float, b: float, rel: float = REL_TOL, abs_: float = REL_TOL) -> bool:
    return math.isfinite(a) and abs(a - b) <= abs_ + rel * abs(b)


def expect(ok: bool, message: str) -> list[Failure]:
    return [] if ok else [Failure(message)]


# --- the evidence transforms, re-derived from the paper ---------------------

def lof_t(s, nu: float):
    """Bias-adjusted lack-of-fit evidence (README: +0.2/sqrt(nu))."""
    s = np.asarray(s, dtype=float)
    below = np.sqrt(2.0 * s) - math.sqrt(2.0 * nu)
    above = np.sqrt(np.maximum(s - 0.5 * nu, 0.0)) - math.sqrt(0.5 * nu)
    return np.where(s < nu, below, above) + 0.2 / math.sqrt(nu)


def equiv_t(s, nu: float, lambda0: float):
    """Bias-adjusted equivalence evidence (minus 1/(2 c1))."""
    s = np.asarray(s, dtype=float)
    c1 = math.sqrt(lambda0 + 0.5 * nu)
    c0 = c1 - math.sqrt(0.5 * nu) + math.sqrt(2.0 * nu)
    below = c0 - np.sqrt(2.0 * s)
    above = c1 - np.sqrt(np.maximum(s - 0.5 * nu, 0.0))
    return np.where(s < nu, below, above) - 0.5 / c1


# --- quadrature against scipy.stats.ncx2 --------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(48)


def _nodes(breaks, hi: float, pieces: int = 60):
    """Gauss-Legendre nodes in u = sqrt(x) over [0, hi]; the substitution
    removes the x^(-1/2) singularity of the nu = 1 density at 0."""
    edges = np.sqrt(np.unique(np.concatenate([np.linspace(0.0, hi, pieces + 1), breaks])))
    a, b = edges[:-1, None], edges[1:, None]
    u = ((a + b) / 2 + (b - a) / 2 * _GL_X).ravel()
    w = ((b - a) / 2 * _GL_W).ravel()
    return u * u, 2.0 * u * w  # x and the weight of dx


def _stats():
    from scipy import stats

    return stats


def ncx2_logpdf(x, nu: float, lam: float):
    st = _stats()
    return st.chi2.logpdf(x, nu) if lam == 0.0 else st.ncx2.logpdf(x, nu, lam)


def _upper(nu: float, lam: float) -> float:
    return nu + lam + 40.0 * math.sqrt(2.0 * nu + 4.0 * lam) + 50.0


@functools.lru_cache(maxsize=None)
def exact_moments(kind: str, nu: float, lam: float, lambda0: float = 0.0) -> tuple[float, float]:
    """Exact mean and sd of the bias-adjusted transform of S ~ chi2(nu, lam)."""
    x, w = _nodes([nu], _upper(nu, lam))
    f = np.exp(ncx2_logpdf(x, nu, lam)) * w
    t = lof_t(x, nu) if kind == "lof" else equiv_t(x, nu, lambda0)
    m1 = float((t * f).sum())
    m2 = float((t * t * f).sum())
    return m1, math.sqrt(max(m2 - m1 * m1, 0.0))


@functools.lru_cache(maxsize=None)
def exact_J(nu: float, lam_a: float, lam_b: float) -> float:
    """Symmetrized KL divergence of chi2(nu, lam_a) and chi2(nu, lam_b)."""
    hi = max(_upper(nu, lam_a), _upper(nu, lam_b))
    x, w = _nodes([nu + lam_a, nu + lam_b], hi, pieces=200)
    la, lb = ncx2_logpdf(x, nu, lam_a), ncx2_logpdf(x, nu, lam_b)
    integrand = (np.exp(la) - np.exp(lb)) * (la - lb)
    integrand[~np.isfinite(integrand)] = 0.0
    return float((integrand * w).sum())


# --- per-call checks ----------------------------------------------------------

def check_chisq_cdf(out, x, nu: float, lam: float) -> list[Failure]:
    ref = special.chndtr(x, nu, lam)
    err = float(np.max(np.abs(np.asarray(out) - ref)))
    return expect(err <= 1e-9, f"chisq_cdf(nu={nu}, lam={lam:.4g}) max |err| {err:.3g} vs chndtr")


def check_chisq_density(out, x, nu: float, lam: float, tail_from: float) -> list[Failure]:
    """Log-density against ncx2.logpdf; points at or beyond tail_from belong to
    the recorded far-tail defect."""
    ref = ncx2_logpdf(np.asarray(x), nu, lam)
    with np.errstate(divide="ignore"):
        got = np.log(np.asarray(out, dtype=float))
    fails = []
    for xi, g, r in zip(x, got, ref):
        if not close(float(g), float(r)):
            known = "chisq_density_far_tail" if xi >= tail_from else None
            fails.append(Failure(
                f"chisq_density(x={xi:.6g}, nu={nu}, lam={lam:.4g}) log {g:.10g} vs ncx2.logpdf {r:.10g}",
                known))
    return fails


def check_power_lof(out: float, nu: float, lam: float) -> list[Failure]:
    c = float(special.chdtri(nu, ALPHA))
    ref = 1.0 - float(special.chndtr(c, nu, lam))
    return expect(close(out, ref, 0.0, 1e-8), f"power_lack_of_fit(nu={nu}, lam={lam:.4g}) {out!r} vs {ref!r}")


def check_power_equiv(out: float, nu: float, lambda0: float, lam: float) -> list[Failure]:
    c = float(special.chndtrix(ALPHA, nu, lambda0))
    ref = float(special.chndtr(c, nu, lam))
    return expect(close(out, ref, 0.0, 1e-8), f"power_equivalence(nu={nu}, lam={lam:.4g}) {out!r} vs {ref!r}")


def check_equivalence_test(out, s: float, nu: float, lambda0: float) -> list[Failure]:
    c = float(special.chndtrix(ALPHA, nu, lambda0))
    decision = "reject_nonequivalence" if s <= c else "retain"
    return (expect(close(out.critical_value, c, 1e-8, 1e-8),
                   f"equivalence_test(nu={nu}) critical value {out.critical_value!r} vs chndtrix {c!r}")
            + expect(out.decision == decision, f"equivalence_test(nu={nu}, s={s:.4g}) decided {out.decision}"))


def sample_size_ref(m0: float, nu: float, r: int, d0: float) -> int:
    lam0 = (m0 + math.sqrt(0.5 * nu)) ** 2 - 0.5 * nu
    return int(math.ceil(max(lam0 / (r * d0 * d0), 5.0 * r)))


def check_sample_size(out: int, m0: float, r: int, k: float) -> list[Failure]:
    ref = sample_size_ref(m0, r - 1.0, r, k / math.sqrt(r * (r - 1)))
    return expect(out == ref, f"sample_size(m0={m0:.4g}, r={r}) {out} vs {ref}")


def check_table2(out, m0_list, r_list, k: float) -> list[Failure]:
    ref = [[sample_size_ref(m0, r - 1.0, r, k / math.sqrt(r * (r - 1))) for r in r_list] for m0 in m0_list]
    return expect(np.array_equal(np.asarray(out), np.asarray(ref)), f"table2(k={k:.4g}) differs from the closed form")


def check_J(out: float, nu: float, lam_a: float, lam_b: float) -> list[Failure]:
    ref = exact_J(nu, lam_a, lam_b)
    return expect(close(out, ref, 1e-6, 1e-6), f"J_noncentral({nu}, {lam_a}, {lam_b}) {out!r} vs quadrature {ref!r}")


def check_signed_root_J(out: float, nu: float, lambda0: float, lam: float) -> list[Failure]:
    ref = math.copysign(math.sqrt(exact_J(nu, lambda0, lam)), lambda0 - lam)
    return expect(close(out, ref, 1e-6, 1e-6), f"signed_root_J({nu}, {lambda0}, {lam}) {out!r} vs {ref!r}")


# --- CLI reports ----------------------------------------------------------------

def _report(out, command: str):
    """(report, failures) from a (exit code, stdout) pair of a -f json call."""
    import json

    rc, text = out
    if rc != 0:
        return None, [Failure(f"{command} exited {rc}")]
    try:
        report = json.loads(text)
    except ValueError:
        return None, [Failure(f"{command} printed no JSON report")]
    if report.get("schema") != "gofevid.report/1" or report.get("command") != command:
        return None, [Failure(f"{command} report has schema/command {report.get('schema')}/{report.get('command')}")]
    return report, []


def check_cli_evidence_lof(out) -> list[Failure]:
    rep, fails = _report(out, "evidence-lof")
    if rep is None:
        return fails
    return (expect(close(rep["s_stat"], README_DIE_S), f"evidence-lof S {rep['s_stat']!r} vs README 7.76")
            + expect(abs(rep["t"] - README_DIE_T_LOF) < 5e-4, f"evidence-lof T {rep['t']!r} vs README 0.802")
            + expect(close(rep["t"], float(lof_t(README_DIE_S, 5.0))), "evidence-lof T vs closed form"))


def check_cli_evidence_equiv(out) -> list[Failure]:
    rep, fails = _report(out, "evidence-equiv")
    if rep is None:
        return fails
    return (expect(abs(rep["t"] - README_DIE_T_EQUIV) < 5e-4, f"evidence-equiv T {rep['t']!r} vs README 0.263")
            + expect(abs(rep["m0"] - README_DIE_M0) < 5e-4, f"evidence-equiv m0 {rep['m0']!r} vs README 1.157")
            + expect(close(rep["t"], float(equiv_t(README_DIE_S, 5.0, 100 * K_DEFAULT**2 / 5))),
                     "evidence-equiv T vs closed form"))


def check_cli_samplesize(out) -> list[Failure]:
    rep, fails = _report(out, "samplesize")
    if rep is None:
        return fails
    return expect(rep["n0"] == README_SAMPLESIZE_N0, f"samplesize n0 {rep['n0']} vs README 427")


def check_cli_fit_poisson(out, table) -> list[Failure]:
    rep, fails = _report(out, "fit-poisson")
    if rep is None:
        return fails
    st = _stats()
    table = np.asarray(table, dtype=float)
    n = table.sum()
    mu = float((np.arange(len(table)) * table).sum() / n)
    r0, r = rep["r0"], rep["r"]
    probs = np.empty(r)
    probs[0] = st.poisson.cdf(r0 + 1, mu)
    probs[1:r - 1] = st.poisson.pmf(np.arange(r0 + 2, r0 + r), mu)
    probs[r - 1] = st.poisson.sf(r0 + r - 1, mu)
    padded = np.zeros(max(len(table), r0 + r + 1))
    padded[:len(table)] = table
    counts = np.concatenate([[padded[:r0 + 2].sum()], padded[r0 + 2:r0 + r], [padded[r0 + r:].sum()]])
    s = float(((counts - n * probs) ** 2 / (n * probs)).sum())
    lambda0 = n * K_DEFAULT**2 / (r - 1)
    t = float(equiv_t(s, r - 2.0, lambda0))
    return (expect(close(rep["mu_hat"], mu), f"fit-poisson mu_hat {rep['mu_hat']!r} vs {mu!r}")
            + expect(bool(np.all(n * probs >= 5.0)), "fit-poisson has a combined cell with expected count < 5")
            + expect(np.allclose(rep["comb_probs"], probs, rtol=1e-9, atol=1e-12), "fit-poisson cell probabilities vs scipy.stats.poisson")
            + expect(list(rep["comb_counts"]) == [int(c) for c in counts], "fit-poisson folded counts")
            + expect(close(rep["s_stat"], s), f"fit-poisson S {rep['s_stat']!r} vs {s!r}")
            + expect(close(rep["t"], t), f"fit-poisson T {rep['t']!r} vs {t!r}"))


def normal_fit_ref(x: np.ndarray, k: float = K_DEFAULT) -> dict:
    """Independent evidence-for-normality pipeline: equiprobable cells at the MLE."""
    st = _stats()
    n = len(x)
    r = max(10, int(math.ceil(math.log(n))))
    edges = x.mean() + x.std() * st.norm.ppf(np.arange(1, r) / r)
    counts = np.bincount(np.searchsorted(edges, x, side="right"), minlength=r)
    s = float(((counts - n / r) ** 2 / (n / r)).sum())
    nu, lambda0 = r - 3.0, n * k * k / (r - 1)
    return {"r": r, "counts": counts, "s_stat": s, "t": float(equiv_t(s, nu, lambda0))}


def check_cli_fit_normal(out, x) -> list[Failure]:
    rep, fails = _report(out, "fit-normal")
    if rep is None:
        return fails
    ref = normal_fit_ref(np.asarray(x))
    return (expect(rep["n"] == len(x) and rep["r"] == ref["r"], f"fit-normal n/r {rep['n']}/{rep['r']}")
            + expect(list(rep["counts"]) == [int(c) for c in ref["counts"]], "fit-normal cell counts")
            + expect(close(rep["s_stat"], ref["s_stat"], 1e-8), f"fit-normal S {rep['s_stat']!r} vs {ref['s_stat']!r}")
            + expect(close(rep["t"], ref["t"], 1e-8), f"fit-normal T {rep['t']!r} vs {ref['t']!r}"))


# --- simulate outputs --------------------------------------------------------------

def parse_csv(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _row_stats(row: dict, reps: int, where: str) -> tuple[float, float, float, list[Failure]]:
    mean, sd, se = float(row["mean_t"]), float(row["sd_t"]), float(row["mc_se"])
    fails = expect(int(row["reps"]) == reps, f"{where}: reps {row['reps']} != {reps}")
    fails += expect(math.isfinite(mean) and sd > 0 and close(se, sd / math.sqrt(reps), 1e-9, 0.0),
                    f"{where}: mean/sd/mc_se {mean!r}/{sd!r}/{se!r} inconsistent")
    return mean, sd, se, fails


def check_calibration(rows: list[dict], kind: str, nu: float, grid, reps: int, lambda0: float = 0.0) -> list[Failure]:
    """Each grid point's mean_t and sd_t within MC_Z mc_se of the exact moments."""
    fails = expect(len(rows) == len(grid), f"{kind} nu={nu}: {len(rows)} rows for {len(grid)} grid points")
    for row, lam in zip(rows, grid):
        where = f"{kind} nu={nu} lam={lam}"
        mean, sd, se, f = _row_stats(row, reps, where)
        fails += f
        if f:
            continue
        em, esd = exact_moments(kind, nu, float(lam), lambda0)
        fails += expect(abs(mean - em) <= MC_Z * se, f"{where}: mean_t {mean:.5f} vs exact {em:.5f} (mc_se {se:.2g})")
        fails += expect(abs(sd - esd) <= MC_Z * se, f"{where}: sd_t {sd:.5f} vs exact {esd:.5f} (mc_se {se:.2g})")
    return fails


def check_normal_cell(row: dict, family: str, n: int, reps: int) -> list[Failure]:
    """Structural checks; for normal data the mean evidence must also lie in
    the Chernoff-Lehmann bracket: S between chi2(r-3) and chi2(r-1)."""
    where = f"normal_fit_table {family}/{n}"
    fails = expect(row["grid_0"] == family and int(row["grid_1"]) == n, f"{where}: grid labels {row['grid_0']}/{row['grid_1']}")
    mean, _, se, f = _row_stats(row, reps, where)
    fails += f
    if family == "normal" and not f:
        r = max(10, int(math.ceil(math.log(n))))
        lambda0 = n * K_DEFAULT**2 / (r - 1)
        lo = _central_equiv_mean(r - 1.0, r - 3.0, lambda0)
        hi = _central_equiv_mean(r - 3.0, r - 3.0, lambda0)
        fails += expect(lo - MC_Z * se <= mean <= hi + MC_Z * se,
                        f"{where}: mean_t {mean:.4f} outside [{lo:.4f}, {hi:.4f}] +/- {MC_Z} mc_se")
    return fails


@functools.lru_cache(maxsize=None)
def _central_equiv_mean(df: float, nu: float, lambda0: float) -> float:
    x, w = _nodes([nu, df], _upper(df, 0.0))
    return float((equiv_t(x, nu, lambda0) * np.exp(ncx2_logpdf(x, df, 0.0)) * w).sum())


def check_poisson_cell(row: dict, dist: list, n: int, reps: int) -> list[Failure]:
    where = f"poisson_fit_table {dist}/{n}"
    fails = expect(row["grid_0"] == "/".join(map(str, dist)) and int(row["grid_1"]) == n,
                   f"{where}: grid labels {row['grid_0']}/{row['grid_1']}")
    _, _, _, f = _row_stats(row, reps, where)
    fails += f
    fails += expect(float(row["mean_r"]) >= 2.0 and float(row["mean_m0"]) > 0.0,
                    f"{where}: mean_r {row['mean_r']} / mean_m0 {row['mean_m0']}")
    return fails


def check_table1(rows: list[dict], n: int, reps: int) -> list[Failure]:
    """Distances from closed forms; power against alpha (uniform row) and the
    noncentral chi-squared approximation (least-divergent row)."""
    r, d0 = 6, 0.15
    step = d0 * math.sqrt(1.0 - 1.0 / r)
    p7 = np.full(r, 1.0 / r - step / (r - 1))
    p7[0] = 1.0 / r + step
    uniform = np.full(r, 1.0 / r)
    st = _stats()
    crit = st.chi2.isf(ALPHA, r - 1)
    fails = expect([row["model"] for row in rows] == ["p7", "uniform"], "table1_models rows")
    if fails:
        return fails
    for row, p in zip(rows, (p7, uniform)):
        where = f"table1_models {row['model']}"
        d = float(np.sqrt(((p - uniform) ** 2).sum()))
        sup = float(np.abs(p - uniform).max())
        j = float(((p - 1.0 / r) * np.log(p)).sum())
        lam = n * float(((p - uniform) ** 2 / uniform).sum())
        approx = float(st.ncx2.sf(crit, r - 1, lam)) if lam > 0 else ALPHA
        power, se = float(row["power"]), float(row["power_se"])
        fails += expect(int(row["reps"]) == reps, f"{where}: reps {row['reps']}")
        fails += expect(close(float(row["d"]), d, 1e-12, 1e-15) and close(float(row["sup_m"]), sup, 1e-12, 1e-15)
                        and close(float(row["j_div"]), j, 1e-9, 1e-15), f"{where}: d/sup_m/j_div vs closed form")
        fails += expect(abs(power - approx) <= MC_Z * se + 0.03,
                        f"{where}: power {power} vs approximation {approx:.4f} (se {se:.3g})")
    return fails
