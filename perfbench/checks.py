"""Output checks computed apart from the program.

Every reference value here comes from a closed form, a dense eigensolve
(``numpy.linalg.eigvals``), a scipy distribution or a direct product over
the sampled path; nothing calls rwre.  Each ``check_*`` function raises
``CheckFailed`` when the program's output disagrees and otherwise returns
the values it compared, for the run record.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np
from scipy import optimize, stats

# Statistical checks run on every benchmark run, dozens of times per change,
# so each one has a false-alarm rate near 1e-4 per run rather than 1e-2.
Z_LIMIT = 4.0
P_FLOOR = 1e-4


class CheckFailed(AssertionError):
    """The program's output disagrees with the reference computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Reference computations
# ---------------------------------------------------------------------------


def rho_of(omega) -> np.ndarray:
    omega = np.asarray(omega, dtype=float)
    return (1.0 - omega) / omega


def stationary(H) -> np.ndarray:
    """Left Perron vector of a stochastic matrix by a dense eigensolve."""
    w, vl = np.linalg.eig(np.asarray(H, dtype=float).T)
    v = np.real(vl[:, np.argmin(np.abs(w - 1.0))])
    return v / v.sum()


def lyapunov(H, rho, beta: float) -> float:
    """log of the spectral radius of ``H(x, y) rho(y)**beta``."""
    M = np.asarray(H, dtype=float) * np.asarray(rho, dtype=float)[None, :] ** beta
    return float(np.log(np.max(np.abs(np.linalg.eigvals(M)))))


def kappa_reference(H, rho) -> float:
    """Positive root of the Lyapunov exponent by ``brentq`` on dense
    eigenvalues; NaN when there is none in (1e-12, 1024)."""
    lo = 1.0
    while lyapunov(H, rho, lo) >= 0.0:
        lo /= 2.0
        if lo < 1e-12:
            return math.nan
    hi = 2.0 * lo
    while lyapunov(H, rho, hi) < 0.0:
        hi *= 2.0
        if hi > 1024.0:
            return math.nan
    return optimize.brentq(lambda b: lyapunov(H, rho, b), lo, hi, xtol=1e-14, rtol=1e-14)


def solomon_speed(pi, rho) -> float:
    """Speed of a walk in an i.i.d. environment: (1 - E rho) / (1 + E rho)."""
    m = float(np.dot(pi, rho))
    return max((1.0 - m) / (1.0 + m), 0.0)


def ks_distance(z_sorted, cdf) -> float:
    z_sorted = np.asarray(z_sorted, dtype=float)
    cdf = np.asarray(cdf, dtype=float)
    n = z_sorted.size
    i = np.arange(n)
    return float(np.max(np.maximum(cdf - i / n, (i + 1) / n - cdf)))


# ---------------------------------------------------------------------------
# Parsing the program's outputs
# ---------------------------------------------------------------------------

_FLOAT = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf"


def grab(text: str, pattern: str) -> float:
    """First float captured by ``pattern`` (with ``{f}`` for the number)."""
    m = re.search(pattern.format(f=f"({_FLOAT})"), text, re.M)
    require(m is not None, f"output has no match for {pattern!r}")
    return float(m.group(1))


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CLI CSV, which must end in its metadata
    comment."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    require(len(lines) >= 2 and lines[-1].startswith("# config_hash="),
            f"{path}: missing metadata comment")
    rows = list(csv.reader(lines[:-1]))
    return rows[0], rows[1:]


def limit_sides(path: str) -> dict:
    """Per side of a limit-check CSV: normalized samples, fitted CDF, b, KS."""
    header, rows = read_csv(path)
    require(header == ["side", "record", "x_or_b", "cdf_or_ks", "regime"],
            f"limit-check header {header}")
    sides: dict = {}
    for side, record, x, f, regime in rows:
        d = sides.setdefault(side, {"z": [], "F": []})
        if record == "sample":
            d["z"].append(float(x))
            d["F"].append(float(f))
        else:
            d.update(b=float(x), ks=float(f), regime=regime)
    for d in sides.values():
        d["z"] = np.array(d["z"])
        d["F"] = np.array(d["F"])
    return sides


def verdicts(stdout: str) -> dict[str, str]:
    """Side -> 'pass' / 'FAIL' / 'n/a' from the limit-check summary lines."""
    return dict(re.findall(r"^(\w)-side regime .*-> (pass|FAIL|n/a);", stdout, re.M))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_kappa(H, rho, kappa: float, exact: float | None = None) -> dict:
    """kappa is the positive root of the convex Lambda: Lambda(kappa) = 0
    and Lambda(kappa/2) < 0 < Lambda(2 kappa)."""
    lam = lyapunov(H, rho, kappa)
    half, double = lyapunov(H, rho, kappa / 2.0), lyapunov(H, rho, 2.0 * kappa)
    require(abs(lam) < 1e-9, f"|Lambda(kappa={kappa!r})| = {abs(lam):.3g} >= 1e-9")
    require(half < 0.0 < double,
            f"Lambda(kappa/2) = {half:.3g}, Lambda(2 kappa) = {double:.3g}: not the root")
    if exact is not None:
        require(abs(kappa - exact) <= 1e-10, f"kappa {kappa!r} differs from {exact!r}")
    return {"kappa": kappa, "lambda_at_kappa": lam}


def check_speed(kappa: float, v: float, exact: float | None = None) -> dict:
    require((v > 0.0) == (kappa > 1.0), f"speed {v!r} with kappa {kappa!r}")
    if exact is not None:
        require(abs(v - exact) <= 1e-10, f"speed {v!r} differs from {exact!r}")
    return {"v": v}


def check_drift(H, rho, printed: float) -> dict:
    """The 6-significant-digit drift line equals pi . log rho."""
    drift = float(stationary(H) @ np.log(rho))
    require(abs(printed - drift) <= 5e-6 * abs(drift) + 1e-12,
            f"drift printed {printed!r}, reference {drift!r}")
    return {"drift": drift}


def resolved(values, digits: int = 10) -> np.ndarray:
    """Resolution of numbers printed with ``digits`` significant digits."""
    mag = np.floor(np.log10(np.maximum(np.abs(values), 1e-300)))
    return 0.5 * 10.0 ** (mag - digits + 1)


def check_integer_walk(values, err, n: int, hitting: bool) -> dict:
    """Hitting times: T >= n, T = n mod 2.  Positions: |X| <= n, X = n mod 2.

    ``err`` bounds the error of each recovered value; only values known to
    better than 0.05 are tested for integrality and parity, and at least 95%
    of them must be."""
    values = np.asarray(values, dtype=float)
    ok = np.asarray(err) < 0.05
    require(ok.mean() >= 0.95, f"only {ok.mean():.1%} of values resolve an integer")
    k = np.rint(values[ok])
    off = np.abs(values[ok] - k)
    require(off.max() < 0.1, f"value {values[ok][np.argmax(off)]!r} is not an integer")
    require(np.all(np.mod(k - n, 2) == 0), "a value has the wrong parity")
    if hitting:
        require(values.min() >= n - 0.1, f"hitting time {values.min()!r} below n={n}")
    else:
        require(np.abs(values).max() <= n + 0.1, f"position beyond n={n}")
    return {"checked_share": float(ok.mean())}


def check_mean(values, target: float, scale: float = 1.0) -> dict:
    """mean(values) / scale lies within Z_LIMIT standard errors of target."""
    x = np.asarray(values, dtype=float) / scale
    se = float(x.std(ddof=1) / math.sqrt(x.size))
    t = (float(x.mean()) - target) / se
    require(abs(t) < Z_LIMIT, f"mean {x.mean():.6g} vs {target:.6g}: t = {t:.2f}")
    return {"mean": float(x.mean()), "t": t}


def check_ks(side: dict) -> dict:
    """The summary KS equals the KS recomputed from the sample rows."""
    z, F = side["z"], side["F"]
    require(np.all(np.diff(z) >= 0), "normalized samples are not sorted")
    ks = ks_distance(z, F)
    require(abs(ks - side["ks"]) <= 1e-8, f"KS {side['ks']!r}, recomputed {ks!r}")
    return {"ks": ks}


def check_gaussian_cdf(side: dict, printed_shift: float) -> dict:
    """The fitted-CDF column is N(shift, 2b) at every sample, to 1e-8.

    The CSV carries b but not the shift, so the shift is solved from the
    central rows and must agree with the printed 4-significant-digit value
    to its last digit."""
    z, F, b = side["z"], side["F"], side["b"]
    s = math.sqrt(2.0 * b)
    mid = (F > 0.05) & (F < 0.95)
    shift = float(np.median(z[mid] - s * stats.norm.ppf(F[mid])))
    require(abs(shift - printed_shift) <= float(resolved(printed_shift, 4)) + 1e-8,
            f"solved shift {shift!r} does not round to printed {printed_shift!r}")
    err = float(np.max(np.abs(F - stats.norm.cdf(z, loc=shift, scale=s))))
    require(err <= 1e-8, f"fitted CDF off N(shift, 2b) by {err:.3g}")
    return {"shift": shift, "cdf_err": err}


def check_stable_cdf(side: dict, kappa: float, points: int = 24) -> dict:
    """The fitted-CDF column agrees with ``scipy.stats.levy_stable``
    (S1, beta = 1, scale b**(1/kappa)) to 1e-7 on evenly spaced rows.

    The two agree to about 1e-10, so 1e-7 leaves room and still rejects a
    column shifted by 1e-6.  Rows beyond 1e4 scale units are left out:
    there levy_stable (scipy 1.17.1) breaks down at kappa = 0.668, giving a
    survival of 3e-10 at 6e5 scale units where the power tail, and the
    program, give 9e-5."""
    z, F, b = side["z"], side["F"], side["b"]
    rows = np.flatnonzero(z <= 1e4 * b ** (1.0 / kappa))
    idx = rows[np.unique(np.linspace(0, rows.size - 1, points).round().astype(int))]
    dist = stats.levy_stable
    old = dist.parameterization
    dist.parameterization = "S1"
    try:
        ref = dist.cdf(z[idx], kappa, 1.0, loc=0.0, scale=b ** (1.0 / kappa))
    finally:
        dist.parameterization = old
    err = float(np.max(np.abs(F[idx] - ref)))
    require(err <= 1e-7, f"fitted CDF off levy_stable by {err:.3g}")
    return {"cdf_err": err}


def check_blocks(rho_path, populations, states, regen_state: int, rows, sample: int = 200):
    """Simulate-branching rows against the sampled path.

    Joint times (cumulative gaps) are extinction times (zero population)
    that sit at the regeneration state; populations are block sums; odds
    products and prefix loads equal a direct product and cumulative sum of
    rho over the block, to 1e-9 relative, on evenly spaced blocks."""
    gaps = np.array([int(r[1]) for r in rows])
    joint = np.concatenate([[0], np.cumsum(gaps)])
    require(joint[-1] < len(populations), "joint times run past the horizon")
    require(np.all(populations[joint[1:]] == 0), "a joint time is not an extinction")
    require(np.all(states[joint[1:]] == regen_state), "a joint time is off the regen state")
    pop = np.array([int(r[2]) for r in rows])
    cz = np.concatenate([[0], np.cumsum(populations)])
    require(np.array_equal(pop, cz[joint[1:]] - cz[joint[:-1]]), "block populations differ")
    worst = 0.0
    for j in np.unique(np.linspace(0, len(rows) - 1, sample).round().astype(int)):
        p = np.cumprod(rho_path[joint[j]:joint[j + 1]])
        for got, want in ((float(rows[j][3]), p[-1]), (float(rows[j][4]), 1.0 + p[:-1].sum())):
            worst = max(worst, abs(got - want) / want)
    require(worst <= 1e-9, f"block statistic off the direct product by {worst:.3g}")
    return {"blocks": len(rows), "worst_rel": worst}


def check_tail_agreement(p: float, se_p: float, q: float, se_q: float) -> dict:
    z = (p - q) / math.hypot(se_p, se_q)
    require(abs(z) < Z_LIMIT, f"plain {p!r} vs tilted {q!r}: z = {z:.2f}")
    return {"z": z}
