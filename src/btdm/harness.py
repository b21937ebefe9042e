"""Seeded Monte-Carlo experiment harness.

One flat key=value config file (plus overrides) fully determines a sweep over
(Eb/N0, K) cells.  Every trial draws its payload, channel, noise and solver
initialization from labeled substreams of the experiment seed, so results are
byte-reproducible and independent of scheduling order.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, fields

import numpy as np

from . import channel, codec, receiver
from .outer_code import OuterCode
from .solver import SolverConfig


class ConfigError(Exception):
    """Infeasible or inconsistent experiment configuration."""


BOOL_SPELLINGS = {"1": True, "true": True, "yes": True, "on": True,
                  "0": False, "false": False, "no": False, "off": False}

CSV_HEADER = ["ebn0_db", "K", "G", "sc_iters", "trials", "pupe_mean",
              "pupe_ci95", "mean_solver_iters", "mean_runtime_ms", "seed"]


@dataclass(frozen=True)
class ExperimentConfig:
    t1: int = 10
    t2: int = 8
    l: int = 2
    b0: int = 20
    b_bch: int = 65
    b1: int = 37
    b2: int = 28
    f: float = 2.0
    n_antennas: int = 8
    k_list: tuple[int, ...] = (4,)
    ebn0_list: tuple[float, ...] = (10.0,)
    sc_iterations: int = 0
    groups: int = 1
    power_threshold: float = 0.05
    assumed_terms: str = "known"   # "known", "bound", or an integer literal
    bch_m: int = 9
    bch_t: int = 5
    use_outer_code: bool = True
    symbol_energy: float = 0.0     # 0 -> default E_s = T1*T2 (unit power/use)
    trials: int = 20
    seed: int = 0
    max_iterations: int = 500
    restarts: int = 5
    workers: int = 1               # processes for a fit's restarts
    strict: bool = False           # fail the run on solver failures

    @property
    def energy(self) -> float:
        return self.symbol_energy if self.symbol_energy > 0 else float(self.t1 * self.t2)


@dataclass(frozen=True)
class ResultRow:
    ebn0_db: float
    K: int
    G: int
    sc_iters: int
    trials: int
    pupe_mean: float
    pupe_ci95: float
    mean_solver_iters: float
    mean_runtime_ms: float
    seed: int


def parse_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, raw = line.partition("=")
            values[key.strip()] = raw.strip()
    return values


def config_from_mapping(values: dict) -> ExperimentConfig:
    kwargs = {}
    by_name = {f.name: f for f in fields(ExperimentConfig)}
    for key, raw in values.items():
        if key not in by_name:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(raw, str):
            kwargs[key] = _parse_value(key, raw, by_name[key].type)
        else:
            kwargs[key] = raw
    return ExperimentConfig(**kwargs)


def _parse_value(key, raw, ftype):
    if key in ("k_list", "ebn0_list"):
        cast = int if key == "k_list" else float
        return tuple(cast(tok) for tok in raw.replace(",", " ").split())
    if key == "assumed_terms":
        return raw
    if "bool" in str(ftype):
        spelling = raw.lower()
        if spelling not in BOOL_SPELLINGS:
            raise ConfigError(f"{key} = {raw!r} is not a boolean "
                              f"(one of {', '.join(sorted(BOOL_SPELLINGS))})")
        return BOOL_SPELLINGS[spelling]
    if "int" in str(ftype):
        return int(raw)
    if "float" in str(ftype):
        return float(raw)
    return raw


def build_components(cfg: ExperimentConfig):
    """Validate the config and construct codec params and the outer code."""
    for name, least in (("workers", 1), ("groups", 1), ("trials", 0), ("seed", 0),
                        ("symbol_energy", 0), ("max_iterations", 0)):
        if getattr(cfg, name) < least:
            raise ConfigError(f"{name} = {getattr(cfg, name)} must be >= {least}")
    if not cfg.k_list or min(cfg.k_list) < 1:
        raise ConfigError(f"k_list = {cfg.k_list} must hold at least one K >= 1")
    if cfg.b1 + cfg.b2 != cfg.b_bch:
        raise ConfigError(f"b1 + b2 = {cfg.b1 + cfg.b2} must equal b_bch = {cfg.b_bch}")
    try:
        params1 = codec.CodecParams(cfg.t1, cfg.l, cfg.b1, f=cfg.f)
        params2 = codec.CodecParams(cfg.t2, cfg.l, cfg.b2, f=cfg.f)
    except ValueError as exc:
        raise ConfigError(f"infeasible bit budget: {exc}") from exc
    outer = None
    if cfg.use_outer_code:
        try:
            outer = OuterCode.from_lengths(cfg.b_bch, cfg.b0, cfg.bch_m, cfg.bch_t)
        except ValueError as exc:
            raise ConfigError(f"outer code: {exc}") from exc
    terms = str(cfg.assumed_terms)
    if terms not in ("known", "bound") and not (terms.isdecimal() and int(terms) >= 1):
        raise ConfigError(f"assumed_terms = {cfg.assumed_terms!r} must be 'known', "
                          "'bound' or an integer >= 1")
    kbar = receiver.uniqueness_bound(cfg.t1, cfg.t2, cfg.l, cfg.n_antennas)
    if cfg.assumed_terms == "bound" and kbar == 0:
        raise ConfigError("uniqueness bound is 0; cannot assume the bound")
    cap = cfg.groups * max(kbar, 1)
    if cfg.groups > 1 and max(cfg.k_list) > cap:
        raise ConfigError(f"K={max(cfg.k_list)} exceeds group capacity {cap}")
    return params1, params2, outer, kbar


def _assumed(cfg: ExperimentConfig, kbar: int, k_actual: int) -> int:
    if cfg.assumed_terms == "known":
        return k_actual
    if cfg.assumed_terms == "bound":
        return kbar
    return int(cfg.assumed_terms)


def _distinct_payloads(K: int, b0: int, rng: np.random.Generator) -> list[np.ndarray]:
    seen, out = set(), []
    while len(out) < K:
        bits = rng.integers(0, 2, size=b0, dtype=np.uint8)
        key = bits.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(bits)
    return out


def run_trial(cfg: ExperimentConfig, params1, params2, outer, kbar: int,
              ebn0_db: float, K: int, cell: int, trial: int):
    """One independent trial; returns (pupe, solver_iters, runtime_ms)."""
    base = (cfg.seed, cell, trial)
    payload_rng = np.random.default_rng((*base, 0))
    channel_rng = np.random.default_rng((*base, 1))
    noise_rng = np.random.default_rng((*base, 2))
    solver_seed = int(np.random.SeedSequence((*base, 3)).generate_state(1)[0])
    solver_cfg = SolverConfig(
        max_iterations=cfg.max_iterations, restarts=cfg.restarts, seed=solver_seed,
    )
    payloads = _distinct_payloads(K, cfg.b0 if outer else cfg.b_bch, payload_rng)
    sent = {receiver.bits_to_message(p) for p in payloads}
    coded = [outer.encode(p) for p in payloads] if outer else payloads

    # Random group assignment capped at each group's uniqueness bound.
    groups: list[list[int]] = [[] for _ in range(cfg.groups)]
    for u in payload_rng.permutation(K):
        open_groups = [g for g in groups if cfg.groups == 1 or len(g) < max(kbar, 1)]
        if not open_groups:
            open_groups = groups
        open_groups[int(payload_rng.integers(len(open_groups)))].append(int(u))

    start = time.perf_counter()
    Y_list, rx_cfgs = [], []
    for members in groups:
        if not members:
            continue
        ch_cfg = channel.ChannelConfig(
            n_antennas=cfg.n_antennas, n_users=len(members), ebn0_db=ebn0_db,
            symbol_energy=cfg.energy)
        Y, _ = channel.transmit([coded[u] for u in members], params1, params2,
                                ch_cfg, cfg.b0, channel_rng, noise_rng)
        Y_list.append(Y)
        rx_cfgs.append(receiver.ReceiverConfig(
            assumed_terms=_assumed(cfg, kbar, len(members)),
            power_threshold=cfg.power_threshold,
            sc_iterations=cfg.sc_iterations))
    decoded, sc_diags = receiver.demodulate_groups(
        Y_list, params1, params2, outer, rx_cfgs, solver_cfg, max_workers=cfg.workers)
    pass_diags = [d for sc_diag in sc_diags for d in sc_diag.pass_diags]
    if cfg.strict and any(d.solver_failed for d in pass_diags):
        raise RuntimeError("solver failure in strict mode")
    iters = [d.solver_iterations for d in pass_diags]
    runtime_ms = (time.perf_counter() - start) * 1e3
    return receiver.pupe(sent, decoded), float(np.mean(iters)) if iters else 0.0, runtime_ms


def run_monte_carlo(cfg: ExperimentConfig) -> list[ResultRow]:
    """Sweep the (Eb/N0, K) grid, running each cell's trials in order."""
    params1, params2, outer, kbar = build_components(cfg)
    rows = []
    cells = [(e, k) for e in cfg.ebn0_list for k in cfg.k_list]
    for cell, (ebn0_db, K) in enumerate(cells):
        if cfg.trials == 0:
            continue
        outcomes = [run_trial(cfg, params1, params2, outer, kbar, ebn0_db, K, cell, t)
                    for t in range(cfg.trials)]
        pupes = np.array([o[0] for o in outcomes])
        ci = 1.96 * pupes.std(ddof=1) / np.sqrt(len(pupes)) if len(pupes) > 1 else 0.0
        rows.append(ResultRow(
            ebn0_db=ebn0_db, K=K, G=cfg.groups, sc_iters=cfg.sc_iterations,
            trials=cfg.trials, pupe_mean=float(pupes.mean()), pupe_ci95=float(ci),
            mean_solver_iters=float(np.mean([o[1] for o in outcomes])),
            mean_runtime_ms=float(np.mean([o[2] for o in outcomes])),
            seed=cfg.seed,
        ))
    rows.sort(key=lambda r: (r.ebn0_db, r.K))
    return rows


def rows_to_csv(rows: list[ResultRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([
            f"{r.ebn0_db:g}", r.K, r.G, r.sc_iters, r.trials,
            f"{r.pupe_mean:.10g}", f"{r.pupe_ci95:.10g}",
            f"{r.mean_solver_iters:.10g}", f"{r.mean_runtime_ms:.10g}", r.seed,
        ])
    return buf.getvalue()


def check_params(cfg: ExperimentConfig) -> str:
    """Human-readable feasibility report for a configuration."""
    params1, params2, outer, kbar = build_components(cfg)
    t1, t2, l, n = cfg.t1, cfg.t2, cfg.l, cfg.n_antennas
    kbar1, kbar2 = receiver.uniqueness_conditions(t1, t2, l, n)
    tc = t1 * t2
    lines = [
        f"dims: T1={t1} T2={t2} L={l} N={n}  (Tc={tc} channel uses)",
        f"uniqueness bound: K_bar={kbar} (condition 1: {kbar1}, condition 2: {kbar2})",
        f"DOF(K_bar) = {receiver.dof_total(kbar, t1, t2, l)}",
        f"symbol 1: ell={params1.ell} ell1={params1.ell1} ell2={params1.ell2} "
        f"parts={_summarize_parts(params1.part_lengths)}",
        f"symbol 2: ell={params2.ell} ell1={params2.ell1} ell2={params2.ell2} "
        f"parts={_summarize_parts(params2.part_lengths)}",
        f"outer code: "
        + (f"BCH m={outer.params.field_exponent} t={outer.params.t} "
           f"({outer.params.n},{outer.params.k}) shortened to "
           f"({outer.params.n_eff},{outer.params.k_eff})" if outer else "none"),
        f"spectral efficiency: B0/Tc = {cfg.b0}/{tc} = {cfg.b0 / tc:.4f} bits/channel use",
    ]
    return "\n".join(lines)


def _summarize_parts(parts) -> str:
    runs = []
    for p in parts:
        if runs and runs[-1][0] == p:
            runs[-1][1] += 1
        else:
            runs.append([p, 1])
    return " + ".join(f"{count}x{length}b" for length, count in runs)
