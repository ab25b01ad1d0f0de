"""Synthetic CDR and bank data with controllable structure.

Generates a five-month call log over a latent two-class population (mixing
between classes is divided by `homophily_strength`), three subject cohorts
receiving cards in consecutive months, existing customers whose payment
arrears seed the propagation methods, and debit/card histories whose default
outcomes depend on planted spending behavior, calling behavior and delinquent
neighborhoods. Every draw comes from named substreams of one seed and file
output is byte-stable, so downstream results are fully reproducible.

The draws are kept as columns; `ingest` owns both file formats, and its
`write_cdr` and `write_bank` write the call log and the three bank files;
`tables.write_csv` writes the generator's truth file.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .ingest import CARD_MONTHS, CdrBatch, write_bank, write_cdr
from .runner import DATA_FILES, SynthConfig, month_date
from .seeding import substream
from .tables import write_csv

logger = logging.getLogger(__name__)

ROLE_TELCO = 0
ROLE_UNCARDED = 1
ROLE_EXISTING = 2
ROLE_SUBJECT = 3

N_TIMEFRAMES = 3
_DAY_SECONDS = 24 * 3600

# Delinquency level distribution for existing customers by latent class.
_LEVEL_PROBS_RISKY = (0.40, 0.20, 0.15, 0.25)
_LEVEL_PROBS_SAFE = (0.93, 0.04, 0.02, 0.01)

TRUTH_COLUMNS = ("identity", "role", "cohort", "risky", "delinquency", "y_default", "credit_limit", "ead")

# three-arrears customers guaranteed per population: the relabeling cutoff needs them
MIN_SEED_DELINQUENTS = 3

_MARITAL = ("single", "married", "divorced", "widowed")
_MARITAL_P = (0.35, 0.45, 0.15, 0.05)
# a defaulter's exposure: nothing, the whole limit, or a uniform share of it
_EXPOSURE_KIND_P = (0.25, 0.35, 0.40)
# arrears months on a card that does not default
_GOOD_FLAGS_P = (0.80, 0.13, 0.07)


def _cdf(p) -> list:
    """The table `Generator.choice(len(p), p=p)` searches, as it builds it."""
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _draw(rng: np.random.Generator, cdf: list) -> int:
    """One draw of `rng.choice(len(p), p=p)` for `cdf = _cdf(p)`, from the same bits."""
    return bisect_right(cdf, rng.random())


_MARITAL_CDF, _EXPOSURE_KIND_CDF, _GOOD_FLAGS_CDF = map(_cdf, (_MARITAL_P, _EXPOSURE_KIND_P, _GOOD_FLAGS_P))


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
    accounts: tuple      # (owner, age, marital_status, postcode) columns
    transactions: tuple  # (owner, day, amount) columns
    cards: tuple         # (owner, issue_day, credit_limit, drawn, arrears) columns

    def write(self, outdir: str | Path) -> dict:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        paths = {name: outdir / file for name, file in DATA_FILES.items()}
        paths["truth"] = outdir / "truth.csv"
        write_cdr(paths["cdr"], self.cdr_batch())
        write_bank(paths, self.identities, self.accounts, self.transactions, self.cards)
        write_csv(paths["truth"], TRUTH_COLUMNS, [self.identities, self.role, self.cohort, self.risky,
                                                  self.delinquency, self.y_default, self.credit_limit, self.ead])
        return paths

    def cdr_batch(self) -> CdrBatch:
        """Every drawn call, ordered by month, day, time and caller."""
        calls = self.calls
        cfg = self.config
        # one int64 key, which a stable argsort orders as np.lexsort orders its four columns
        day = calls["month"].astype(np.int64) * 32 + calls["day"]
        order = np.argsort((day * _DAY_SECONDS + calls["sec"]) * cfg.n_nodes + calls["caller"], kind="stable")
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
        shortfall = MIN_SEED_DELINQUENTS - int((delinquency[existing] == 3).sum())
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

    # Bank files, as columns in draw order. Arithmetic on one draw is plain
    # Python, since a numpy call on a scalar costs more than the draw; only
    # np.exp and np.round(x, 2) stay, whose results Python's may not match.
    rng_bank = substream(seed, "synth", "bank")
    credit_limit = np.zeros(n)
    ead = np.zeros(n)
    log_subject_limit, log_existing_limit, log_uncarded_amount = np.log(1500), np.log(1200), np.log(25)

    account_owner = np.concatenate([subjects, existing, uncarded])
    age, marital, postcode = [], [], []
    for _ in account_owner:
        age.append(min(max(round(rng_bank.normal(40, 12)), 18), 85))
        marital.append(_draw(rng_bank, _MARITAL_CDF))
        postcode.append(int(rng_bank.integers(0, 10)) * 1000 + int(rng_bank.integers(100, 1000)))

    card_owner = np.concatenate([subjects, existing])
    issue_day = np.zeros(len(card_owner), dtype=np.int64)
    # a card's 12 draws of its share of the limit, and each transaction's log
    # amount, are scaled and rounded once all of them are drawn
    shares = np.zeros((len(card_owner), CARD_MONTHS))
    arrears = np.zeros((len(card_owner), CARD_MONTHS), dtype=bool)
    exposures = []  # (row, month, exposure) of each defaulter
    txn_owner, txn_day, log_amount = [], [], []
    # cohort k's cards are issued at the start of month k + 3; existing
    # customers' in one of months -7 .. -2, well before the call window
    issued = {k: month_date(cfg.start_year, cfg.start_month, k).toordinal() for k in range(-7, N_TIMEFRAMES + 4)}
    cohort_of, defaulted, level_of = cohort.tolist(), y_default.tolist(), delinquency.tolist()
    spend_latent = f_sd.tolist()
    for row, i in enumerate(card_owner.tolist()):
        if row < len(subjects):
            issue = issued[cohort_of[i] + 3]
            limit = float(round(min(max(float(np.exp(rng_bank.normal(log_subject_limit, 0.5))), 300), 10000)))
            spend_mu = float(np.exp(-0.5 * spend_latent[i]))
            n_tx = 1 + int(rng_bank.poisson(8 * spend_mu))
            offsets = rng_bank.integers(1, 29, size=n_tx)
            log_amount.append(rng_bank.normal(np.log(30 * spend_mu), 0.8, size=n_tx))
            txn_owner += [i] * n_tx
            txn_day += (issue - offsets).tolist()
            shares[row] = rng_bank.beta(2.0, 3.0, size=CARD_MONTHS)
            if defaulted[i] == 1:
                n_flags = 3 + int(rng_bank.binomial(4, 0.3))
                start = int(rng_bank.integers(1, CARD_MONTHS - n_flags + 2))
                arrears[row, start - 1: start - 1 + n_flags] = True
                default_month = start + 2  # third consecutive arrears month
                kind = _draw(rng_bank, _EXPOSURE_KIND_CDF)
                if kind == 0:
                    exposure = 0.0
                elif kind == 1:
                    exposure = limit
                else:
                    exposure = float(np.round(rng_bank.uniform(0.05, 0.95) * limit, 2))
                exposures.append((row, default_month - 1, exposure))
                ead[i] = exposure
            else:
                n_flags = _draw(rng_bank, _GOOD_FLAGS_CDF)
                if n_flags:
                    arrears[row, rng_bank.choice(CARD_MONTHS, size=n_flags, replace=False)] = True
        else:
            level = level_of[i]
            issue_month = int(rng_bank.integers(-7, -1))
            issue = issued[issue_month]
            limit = float(round(min(max(float(np.exp(rng_bank.normal(log_existing_limit, 0.5))), 300), 10000)))
            shares[row] = rng_bank.beta(2.0, 3.0, size=CARD_MONTHS)
            room = min(CARD_MONTHS, 1 - issue_month)  # card months before the data start
            n_flags = level if level < 3 else min(room, 3 + int(rng_bank.integers(0, 3)))
            if n_flags:
                arrears[row, rng_bank.choice(room, size=n_flags, replace=False)] = True
        credit_limit[i] = limit
        issue_day[row] = issue

    first_day = issued[1]
    for i in uncarded.tolist():
        for _ in range(int(rng_bank.integers(1, 5))):
            txn_owner.append(i)
            txn_day.append(first_day + int(rng_bank.integers(1, 29)) - 1)
            log_amount.append(rng_bank.normal(log_uncarded_amount, 0.8, size=1))
    drawn = np.round(shares * credit_limit[card_owner, None], 2)
    for row, month, exposure in exposures:
        drawn[row, month] = exposure

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
        accounts=(account_owner, np.array(age), np.array(_MARITAL)[marital], np.array(postcode)),
        transactions=(np.array(txn_owner, dtype=np.int64), np.array(txn_day, dtype=np.int64),
                      np.round(np.exp(np.concatenate([np.zeros(0), *log_amount])), 2)),
        cards=(card_owner, issue_day, credit_limit[card_owner], drawn, arrears),
    )

