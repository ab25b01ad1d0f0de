"""Synthetic CDR and bank data with controllable structure.

Generates a five-month call log over a latent two-class population (mixing
between classes is divided by `homophily_strength`), three subject cohorts
receiving cards in consecutive months, existing customers whose payment
arrears seed the propagation methods, and debit/card histories whose default
outcomes depend on planted spending behavior, calling behavior and delinquent
neighborhoods. Every draw comes from named substreams of one seed and file
output is byte-stable, so downstream results are fully reproducible.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .errors import DataError
from .ingest import (
    ACCOUNT_COLUMNS,
    CARD_COLUMNS,
    CARD_MONTHS,
    TRANSACTION_COLUMNS,
    CdrBatch,
    format_cdr_date,
    write_cdr,
)
from .seeding import substream

logger = logging.getLogger(__name__)

ROLE_TELCO = 0
ROLE_UNCARDED = 1
ROLE_EXISTING = 2
ROLE_SUBJECT = 3

N_TIMEFRAMES = 3

# Delinquency level distribution for existing customers by latent class.
_LEVEL_PROBS_RISKY = (0.40, 0.20, 0.15, 0.25)
_LEVEL_PROBS_SAFE = (0.93, 0.04, 0.02, 0.01)

_MARITAL = ("single", "married", "divorced", "widowed")
_MARITAL_P = (0.35, 0.45, 0.15, 0.05)


def month_date(start_year: int, start_month: int, month_index: int, day: int = 1) -> date:
    """Date `day` of month `month_index`, counted from 1 = (start_year, start_month)."""
    total = start_year * 12 + start_month - 1 + month_index - 1
    return date(total // 12, total % 12 + 1, day)


@dataclass
class SynthConfig:
    n_nodes: int = 2000
    n_subjects: int = 600
    months: int = 5
    mean_calls_per_node: float = 8.0
    default_rate: float = 0.0449
    homophily_strength: float = 1.0
    risky_rate: float = 0.15
    degree_mode: str = "powerlaw"
    degree_exponent: float = 2.5
    degree_cutoff: float = 30.0
    existing_customer_rate: float = 0.15
    uncarded_customer_rate: float = 0.01
    short_call_rate: float = 0.08
    planted_feature_effect: float = 1.0
    sd_weight: float = 1.0
    cb_weight: float = 1.0
    contagion_weight: float = 1.0
    latent_weight: float = 0.75
    min_seed_delinquents: int = 3
    start_year: int = 2017
    start_month: int = 1

    def __post_init__(self):
        if not 0 < self.default_rate < 1:
            raise DataError("default_rate must lie in (0, 1)")
        if self.n_subjects > self.n_nodes:
            raise DataError("n_subjects cannot exceed n_nodes")
        if self.months < 5:
            raise DataError("need at least five months of calls for three timeframes")
        if self.homophily_strength <= 0:
            raise DataError("homophily_strength must be positive")
        if self.degree_mode not in ("powerlaw", "poisson"):
            raise DataError("degree_mode must be 'powerlaw' or 'poisson'")
        reserved = self.n_subjects + int(
            (self.existing_customer_rate + self.uncarded_customer_rate) * self.n_nodes
        )
        if reserved > self.n_nodes:
            raise DataError("subject and customer shares exceed the population")


@dataclass
class SynthData:
    """In-memory product of one generation run; `write` emits the CSV files."""

    config: SynthConfig
    seed: int
    identities: list
    role: np.ndarray
    cohort: np.ndarray
    risky: np.ndarray
    delinquency: np.ndarray
    y_default: np.ndarray
    credit_limit: np.ndarray
    ead: np.ndarray
    calls: dict
    accounts: list
    transactions: list
    cards: list

    def write(self, outdir: str | Path) -> dict:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        paths = {
            "cdr": outdir / "cdr.csv",
            "accounts": outdir / "accounts.csv",
            "transactions": outdir / "transactions.csv",
            "card_activity": outdir / "card_activity.csv",
            "truth": outdir / "truth.csv",
        }
        write_cdr(paths["cdr"], self.cdr_batch())
        for name, header, rows in (
            ("accounts", ACCOUNT_COLUMNS, self.accounts),
            ("transactions", TRANSACTION_COLUMNS, self.transactions),
            ("card_activity", CARD_COLUMNS, self.cards),
        ):
            with open(paths[name], "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(header)
                w.writerows(rows)
        with open(paths["truth"], "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("identity", "role", "cohort", "risky", "delinquency", "y_default",
                        "credit_limit", "ead"))
            for i, ident in enumerate(self.identities):
                w.writerow((
                    ident, int(self.role[i]), int(self.cohort[i]), int(self.risky[i]),
                    int(self.delinquency[i]), int(self.y_default[i]),
                    f"{self.credit_limit[i]:.2f}", f"{self.ead[i]:.2f}",
                ))
        return paths

    def cdr_batch(self) -> CdrBatch:
        """Every drawn call, ordered by month, day, time and caller."""
        calls = self.calls
        cfg = self.config
        order = np.lexsort((calls["caller"], calls["sec"], calls["day"], calls["month"]))
        first_day = np.array([month_date(cfg.start_year, cfg.start_month, m).toordinal()
                              for m in range(cfg.months + 1)])
        date_ord = first_day[calls["month"]] + calls["day"] - 1
        return CdrBatch(date_ord[order], calls["sec"][order], calls["duration"][order],
                        calls["caller"][order], calls["callee"][order], self.identities)


def _degree_propensity(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    if cfg.degree_mode == "poisson":
        return np.ones(cfg.n_nodes)
    u = rng.random(cfg.n_nodes)
    x = (1.0 - u) ** (-1.0 / (cfg.degree_exponent - 1.0))
    return np.minimum(x, cfg.degree_cutoff)


def _draw_calls(cfg: SynthConfig, risky: np.ndarray, propensity: np.ndarray, seed: int) -> dict:
    """Class-aware call pairing: cross-class callee mass divided by the strength."""
    rng = substream(seed, "synth", "calls")
    n_calls = int(round(cfg.mean_calls_per_node * cfg.n_nodes))
    p_caller = propensity / propensity.sum()
    caller = rng.choice(cfg.n_nodes, size=n_calls, p=p_caller)

    pools = [np.flatnonzero(~risky), np.flatnonzero(risky)]
    pool_p = []
    pool_mass = []
    for pool in pools:
        mass = propensity[pool].sum()
        pool_mass.append(mass)
        pool_p.append(propensity[pool] / mass)
    callee = np.empty(n_calls, dtype=np.int64)
    h = cfg.homophily_strength
    caller_cls = risky[caller].astype(np.int64)
    for cls in (0, 1):
        rows = np.flatnonzero(caller_cls == cls)
        if rows.size == 0:
            continue
        same_mass = h * pool_mass[cls]
        p_same = same_mass / (same_mass + pool_mass[1 - cls])
        same = rng.random(rows.size) < p_same
        for target_cls, mask in ((cls, same), (1 - cls, ~same)):
            take = rows[mask]
            if take.size:
                callee[take] = rng.choice(pools[target_cls], size=take.size, p=pool_p[target_cls])
    # resample the rare self-pairings
    for _ in range(100):
        clash = np.flatnonzero(callee == caller)
        if clash.size == 0:
            break
        for i in clash:
            cls = int(risky[callee[i]])
            callee[i] = rng.choice(pools[cls], p=pool_p[cls])
    if np.any(callee == caller):
        raise DataError("could not avoid self-calls; population too small")

    month = rng.integers(1, cfg.months + 1, size=n_calls)
    day = rng.integers(1, 29, size=n_calls)
    night_pref = rng.normal(0.0, 1.0, size=cfg.n_nodes)
    p_night = 1.0 / (1.0 + np.exp(-(-0.9 + 0.9 * night_pref)))
    is_night = rng.random(n_calls) < p_night[caller]
    sec = np.where(
        is_night,
        rng.integers(0, 8 * 3600, size=n_calls),
        rng.integers(8 * 3600, 24 * 3600, size=n_calls),
    )
    duration = np.exp(rng.normal(4.0, 1.0, size=n_calls)).astype(np.int64)
    duration = np.clip(duration, 5, 7200)
    short = rng.random(n_calls) < cfg.short_call_rate
    duration[short] = rng.integers(0, 5, size=int(short.sum()))
    return {
        "caller": caller,
        "callee": callee,
        "month": month.astype(np.int16),
        "day": day.astype(np.int16),
        "sec": sec.astype(np.int32),
        "duration": duration.astype(np.int32),
        "night_pref": night_pref,
    }


def _standardize(x: np.ndarray) -> np.ndarray:
    sd = x.std()
    return (x - x.mean()) / sd if sd > 0 else np.zeros_like(x)


def _calibrate_intercept(score: np.ndarray, target: float) -> float:
    lo, hi = -30.0, 30.0
    for _ in range(80):
        mid = (lo + hi) / 2
        rate = float(np.mean(1.0 / (1.0 + np.exp(-(mid + score)))))
        if rate < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def generate(config: SynthConfig, seed: int) -> SynthData:
    """Draw one dataset. Identical (config, seed) pairs produce identical data."""
    cfg = config
    n = cfg.n_nodes
    rng_roles = substream(seed, "synth", "roles")
    identities = [f"P{i:07d}" for i in range(n)]
    risky = rng_roles.random(n) < cfg.risky_rate

    perm = rng_roles.permutation(n)
    n_existing = int(round(cfg.existing_customer_rate * n))
    n_uncarded = int(round(cfg.uncarded_customer_rate * n))
    subjects = perm[: cfg.n_subjects]
    existing = perm[cfg.n_subjects: cfg.n_subjects + n_existing]
    uncarded = perm[cfg.n_subjects + n_existing: cfg.n_subjects + n_existing + n_uncarded]

    role = np.full(n, ROLE_TELCO, dtype=np.int8)
    role[subjects] = ROLE_SUBJECT
    role[existing] = ROLE_EXISTING
    role[uncarded] = ROLE_UNCARDED
    cohort = np.zeros(n, dtype=np.int8)
    cohort[subjects] = rng_roles.permutation(len(subjects)) % N_TIMEFRAMES + 1

    propensity = _degree_propensity(cfg, substream(seed, "synth", "degrees"))
    calls = _draw_calls(cfg, risky, propensity, seed)

    # Existing customers: delinquency level by latent class.
    rng_del = substream(seed, "synth", "delinquency")
    delinquency = np.full(n, -1, dtype=np.int8)
    if len(existing):
        probs = np.where(
            risky[existing, None],
            np.array(_LEVEL_PROBS_RISKY)[None, :],
            np.array(_LEVEL_PROBS_SAFE)[None, :],
        )
        cum = probs.cumsum(axis=1)
        u = rng_del.random(len(existing))
        delinquency[existing] = (u[:, None] >= cum).sum(axis=1)
        # the relabeling cutoff needs three-arrears customers in every run
        shortfall = cfg.min_seed_delinquents - int((delinquency[existing] == 3).sum())
        if shortfall > 0:
            promotable = existing[delinquency[existing] < 3][:shortfall]
            delinquency[promotable] = 3

    # Subject risk drivers: planted spending latent, realized calling behavior,
    # delinquent neighborhood in the subject's own window, latent class.
    rng_subj = substream(seed, "synth", "subjects")
    f_sd = np.zeros(n)
    f_sd[subjects] = rng_subj.normal(0.0, 1.0, size=len(subjects))

    kept = calls["duration"] >= 5
    caller_k = calls["caller"][kept]
    callee_k = calls["callee"][kept]
    month_k = calls["month"][kept]
    night_k = (calls["sec"][kept] < 8 * 3600).astype(np.float64)
    delinquent_node = delinquency >= 1

    out_calls = np.zeros(n)
    night_calls = np.zeros(n)
    contagion = np.zeros(n)
    for k in range(1, N_TIMEFRAMES + 1):
        in_window = (month_k >= k) & (month_k <= k + 2)
        sel = np.flatnonzero(in_window)
        mine = cohort == k
        counts = np.bincount(caller_k[sel], minlength=n)
        nights = np.bincount(caller_k[sel], weights=night_k[sel], minlength=n)
        expose = (
            np.bincount(caller_k[sel], weights=delinquent_node[callee_k[sel]].astype(float), minlength=n)
            + np.bincount(callee_k[sel], weights=delinquent_node[caller_k[sel]].astype(float), minlength=n)
        )
        out_calls[mine] = counts[mine]
        night_calls[mine] = nights[mine]
        contagion[mine] = expose[mine]

    s = subjects
    night_share = np.where(out_calls[s] > 0, night_calls[s] / np.maximum(out_calls[s], 1), 0.0)
    cb_signal = 0.8 * _standardize(night_share) - 0.5 * _standardize(np.log1p(out_calls[s]))
    risk = cfg.planted_feature_effect * (
        cfg.sd_weight * f_sd[s]
        + cfg.cb_weight * cb_signal
        + cfg.contagion_weight * _standardize(np.log1p(contagion[s]))
        + cfg.latent_weight * (risky[s].astype(float) * 2 - 1)
    )
    intercept = _calibrate_intercept(risk, cfg.default_rate)
    p_default = 1.0 / (1.0 + np.exp(-(intercept + risk)))
    y_default = np.full(n, -1, dtype=np.int8)
    y_default[s] = (rng_subj.random(len(s)) < p_default).astype(np.int8)

    # Bank files.
    rng_bank = substream(seed, "synth", "bank")
    credit_limit = np.zeros(n)
    ead = np.zeros(n)
    accounts: list = []
    transactions: list = []
    cards: list = []

    def account_row(i: int) -> tuple:
        age = int(np.clip(round(rng_bank.normal(40, 12)), 18, 85))
        marital = _MARITAL[int(rng_bank.choice(len(_MARITAL), p=_MARITAL_P))]
        postcode = f"{rng_bank.integers(0, 10)}{rng_bank.integers(100, 1000)}"
        return (identities[i], age, marital, postcode)

    def draw_profile(limit: float) -> np.ndarray:
        return np.round(rng_bank.beta(2.0, 3.0, size=CARD_MONTHS) * limit, 2)

    bank_nodes = np.concatenate([subjects, existing, uncarded])
    for i in bank_nodes:
        accounts.append(account_row(int(i)))

    for i in subjects:
        i = int(i)
        k = int(cohort[i])
        issue = month_date(cfg.start_year, cfg.start_month, k + 3)
        limit = float(np.round(np.clip(np.exp(rng_bank.normal(np.log(1500), 0.5)), 300, 10000)))
        credit_limit[i] = limit
        spend_mu = float(np.exp(-0.5 * f_sd[i]))
        n_tx = 1 + int(rng_bank.poisson(8 * spend_mu))
        offsets = rng_bank.integers(1, 29, size=n_tx)
        amounts = np.round(np.exp(rng_bank.normal(np.log(30 * spend_mu), 0.8, size=n_tx)), 2)
        for off, amt in zip(offsets, amounts):
            d = issue - timedelta(days=int(off))
            transactions.append((identities[i], format_cdr_date(d), f"{amt:.2f}"))

        drawn = draw_profile(limit)
        flags = np.zeros(CARD_MONTHS, dtype=int)
        if y_default[i] == 1:
            n_flags = 3 + int(rng_bank.binomial(4, 0.3))
            start = int(rng_bank.integers(1, CARD_MONTHS - n_flags + 2))
            flags[start - 1: start - 1 + n_flags] = 1
            default_month = start + 2  # third consecutive arrears month
            kind = rng_bank.choice(3, p=(0.25, 0.35, 0.40))
            if kind == 0:
                exposure = 0.0
            elif kind == 1:
                exposure = limit
            else:
                exposure = float(np.round(rng_bank.uniform(0.05, 0.95) * limit, 2))
            drawn[default_month - 1] = exposure
            ead[i] = exposure
        else:
            n_flags = int(rng_bank.choice(3, p=(0.80, 0.13, 0.07)))
            if n_flags:
                where = rng_bank.choice(CARD_MONTHS, size=n_flags, replace=False)
                flags[where] = 1
        cards.append(
            (identities[i], format_cdr_date(issue), f"{limit:.2f}")
            + tuple(f"{x:.2f}" for x in drawn)
            + tuple(str(int(x)) for x in flags)
        )

    for i in existing:
        i = int(i)
        level = int(delinquency[i])
        issue_month = int(rng_bank.integers(-7, -1))  # well before the call window
        issue = month_date(cfg.start_year, cfg.start_month, issue_month)
        limit = float(np.round(np.clip(np.exp(rng_bank.normal(np.log(1200), 0.5)), 300, 10000)))
        credit_limit[i] = limit
        drawn = draw_profile(limit)
        flags = np.zeros(CARD_MONTHS, dtype=int)
        room = min(CARD_MONTHS, 1 - issue_month)  # card months before the data start
        n_flags = level if level < 3 else min(room, 3 + int(rng_bank.integers(0, 3)))
        if n_flags:
            where = rng_bank.choice(room, size=n_flags, replace=False)
            flags[where] = 1
        cards.append(
            (identities[i], format_cdr_date(issue), f"{limit:.2f}")
            + tuple(f"{x:.2f}" for x in drawn)
            + tuple(str(int(x)) for x in flags)
        )

    for i in uncarded:
        i = int(i)
        n_tx = int(rng_bank.integers(1, 5))
        for _ in range(n_tx):
            d = month_date(cfg.start_year, cfg.start_month, 1, int(rng_bank.integers(1, 29)))
            amount = float(np.round(np.exp(rng_bank.normal(np.log(25), 0.8)), 2))
            transactions.append((identities[i], format_cdr_date(d), f"{amount:.2f}"))

    calls.pop("night_pref", None)
    logger.info(
        "synth: %d nodes, %d calls, %d subjects (%.4f default rate), %d existing customers",
        n, len(calls["caller"]), len(subjects),
        float((y_default[s] == 1).mean()) if len(s) else 0.0, len(existing),
    )
    return SynthData(
        config=cfg,
        seed=seed,
        identities=identities,
        role=role,
        cohort=cohort,
        risky=risky,
        delinquency=delinquency,
        y_default=y_default,
        credit_limit=credit_limit,
        ead=ead,
        calls=calls,
        accounts=accounts,
        transactions=transactions,
        cards=cards,
    )


def planted_feature_dataset(
    n: int,
    n_noise: int = 30,
    effect: float = 2.0,
    base_rate: float = 0.3,
    seed: int = 0,
):
    """One informative column among standard-normal noise, plus loan outcomes.

    Returns (X, y, informative_index, loans); the label follows a logistic
    model in the informative column only. Used to validate that importance
    measures recover the planted feature.
    """
    from .profit import LoanOutcome

    rng = substream(seed, "planted")
    X = rng.normal(size=(n, n_noise + 1))
    j = int(rng.integers(0, n_noise + 1))
    score = effect * X[:, j]
    intercept = _calibrate_intercept(score, base_rate)
    y = rng.random(n) < 1.0 / (1.0 + np.exp(-(intercept + score)))
    principals = np.round(np.exp(rng.normal(np.log(1000), 0.4, size=n)))
    fractions = rng.uniform(0.0, 1.0, size=n)
    loans = [
        LoanOutcome(
            principal=float(principals[i]),
            ead=float(np.round(principals[i] * fractions[i], 2)) if y[i] else 0.0,
            is_defaulter=bool(y[i]),
        )
        for i in range(n)
    ]
    return X, np.asarray(y, dtype=bool), j, loans
