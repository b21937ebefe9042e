"""Correctness checks made apart from the program.

Every check takes plain data (message sets, arrays, CSV text) and returns a
list of error strings, empty when the output is right. None compares against
stored output: each follows from how the run was set up or from a property
the method must have.
"""

from __future__ import annotations

import csv
import io

import numpy as np

# Noise-free fits below this relative residual have found the exact
# decomposition, which is unique for K <= K_bar.
EXACT_FIT = 1e-10
# Tolerance between a fit's reported relative residual and the benchmark's
# own recomputation from the returned factors (rounding of the
# canonicalisation is about 1e-15 of ||Y||).
RESIDUAL_RTOL = 1e-6
RESIDUAL_ATOL = 1e-12
# Varying CSV column: wall time depends on the host and on scheduling.
TIMING_COLUMNS = ("mean_runtime_ms",)


def message(bits) -> str:
    """A payload as a '0'/'1' string, the form of the receiver's message sets."""
    return "".join("1" if b else "0" for b in np.asarray(bits).ravel())


def count_failures(sent: set, decoded: set) -> tuple[int, int]:
    """(missed, fabricated): sent messages not decoded, decoded never sent."""
    return len(sent - decoded), len(decoded - sent)


def check_noise_free(relative_residual: float, sent: set, decoded: set) -> list[str]:
    """An exact noise-free fit with K <= K_bar must decode every user exactly."""
    if relative_residual >= EXACT_FIT:
        return []
    missed, fabricated = count_failures(sent, decoded)
    if missed or fabricated:
        return [f"noise-free fit reached relative residual {relative_residual:.2e} "
                f"but {missed} sent users were missed and {fabricated} decoded "
                f"messages were never sent"]
    return []


def relative_residual(Y: np.ndarray, factors) -> float:
    """||Y - sum_k (A_k B_k^T) o h_k||_F / ||Y||_F from (A, B, h) triples."""
    model = np.zeros_like(Y)
    for A, B, h in factors:
        model += np.einsum("il,jl,n->ijn", A, B, h)
    return float(np.linalg.norm(Y - model) / np.linalg.norm(Y))


def check_residual(Y: np.ndarray, factors, reported: float) -> list[str]:
    """The fit's reported relative residual must match its returned factors."""
    own = relative_residual(Y, factors)
    if abs(own - reported) <= RESIDUAL_RTOL * max(own, reported) + RESIDUAL_ATOL:
        return []
    return [f"fit reports relative residual {reported:.6g}, "
            f"its factors give {own:.6g}"]


def check_harness_misses(returned_pupe: float, missed: int, K: int) -> list[str]:
    """run_trial's PUPE must equal the misses counted from the message sets."""
    if abs(returned_pupe * K - missed) < 1e-9:
        return []
    return [f"run_trial returned PUPE {returned_pupe:g} for K={K}, "
            f"but {missed} sent users were missed"]


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_row_pupe(rows: list[dict], returned: dict, K: int, trials: int) -> list[str]:
    """Each row's PUPE must be failed / attempted over run_trial's returns.

    `returned` maps each row's Eb/N0 to the PUPE values run_trial returned
    for that cell's trials.
    """
    errors = []
    if len(rows) != len(returned):
        errors.append(f"CSV has {len(rows)} rows for {len(returned)} cells")
    for row in rows:
        pupes = returned.get(float(row["ebn0_db"]), [])
        if len(pupes) != trials or int(row["trials"]) != trials:
            errors.append(f"row {row['ebn0_db']} dB: {row['trials']} trials in the "
                          f"CSV, {len(pupes)} run_trial calls, {trials} asked for")
            continue
        failed = sum(round(p * K) for p in pupes)
        if abs(float(row["pupe_mean"]) - failed / (trials * K)) > 1e-9:
            errors.append(f"row {row['ebn0_db']} dB: PUPE {row['pupe_mean']} but "
                          f"{failed} of {trials * K} users failed")
    return errors


def check_pupe_monotone(rows: list[dict]) -> list[str]:
    """PUPE may not rise with Eb/N0 by more than the higher row's own CI."""
    ordered = sorted(rows, key=lambda r: float(r["ebn0_db"]))
    errors = []
    for low, high in zip(ordered, ordered[1:]):
        rise = float(high["pupe_mean"]) - float(low["pupe_mean"])
        if rise > float(high["pupe_ci95"]):
            errors.append(f"PUPE rises from {low['pupe_mean']} at {low['ebn0_db']} dB "
                          f"to {high['pupe_mean']} at {high['ebn0_db']} dB, beyond "
                          f"its CI {high['pupe_ci95']}")
    return errors


def check_same_columns(csv_a: str, csv_b: str) -> list[str]:
    """Two runs of one seed must agree on every column but the timing ones."""
    def strip(text):
        return [{k: v for k, v in row.items() if k not in TIMING_COLUMNS}
                for row in parse_csv(text)]
    a, b = strip(csv_a), strip(csv_b)
    if a == b:
        return []
    return [f"deterministic CSV columns differ between worker counts: {a} != {b}"]
