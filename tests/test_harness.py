import numpy as np
import pytest

from btdm import harness


def desk_config(**overrides):
    """Small configuration that decodes reliably and runs in seconds."""
    base = dict(
        t1=10, t2=8, l=2, b0=20, b_bch=65, b1=37, b2=28,
        n_antennas=8, k_list=(2,), ebn0_list=(20.0,),
        bch_m=9, bch_t=5, trials=4, seed=0,
        max_iterations=200, restarts=3, workers=1,
    )
    base.update(overrides)
    return harness.ExperimentConfig(**base)


def mask_runtime(csv_text: str) -> str:
    """Zero the measured wall-clock column, the only nondeterministic field."""
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    idx = header.index("mean_runtime_ms")
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[idx] = "0"
        out.append(",".join(cells))
    return "\n".join(out)


class TestConfigParsing:
    def test_flat_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment\n"
            "t1 = 10\n"
            "ebn0_list = 4, 6, 8\n"
            "k_list = 2 3\n"
            "use_outer_code = true\n"
            "trials = 7  # trailing comment\n")
        cfg = harness.config_from_mapping(harness.parse_config_file(str(path)))
        assert cfg.t1 == 10
        assert cfg.ebn0_list == (4.0, 6.0, 8.0)
        assert cfg.k_list == (2, 3)
        assert cfg.use_outer_code is True
        assert cfg.trials == 7

    def test_unknown_key(self):
        with pytest.raises(harness.ConfigError):
            harness.config_from_mapping({"nope": "1"})

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("t1 10\n")
        with pytest.raises(harness.ConfigError):
            harness.parse_config_file(str(path))


class TestBuildComponents:
    def test_desk_defaults(self):
        params1, params2, outer, kbar = harness.build_components(desk_config())
        assert (params1.T, params1.ell) == (10, 37)
        assert (params2.T, params2.ell) == (8, 28)
        assert outer.params.k_eff == 20 and outer.params.n_eff == 65
        assert kbar == 7

    def test_budget_mismatch(self):
        with pytest.raises(harness.ConfigError):
            harness.build_components(desk_config(b1=36))

    def test_infeasible_symbol(self):
        # b1=1 cannot even hold the dominant-pair index bits.
        with pytest.raises(harness.ConfigError):
            harness.build_components(desk_config(b1=1, b2=64))

    def test_outer_code_mismatch(self):
        with pytest.raises(harness.ConfigError):
            harness.build_components(desk_config(b0=21))

    def test_group_capacity(self):
        with pytest.raises(harness.ConfigError):
            harness.build_components(desk_config(groups=2, k_list=(20,)))

    def test_workers_must_be_positive(self):
        with pytest.raises(harness.ConfigError):
            harness.build_components(desk_config(workers=0))

    @pytest.mark.parametrize("key,raw", [
        ("groups", "0"), ("trials", "-1"), ("k_list", "0"), ("k_list", ""),
        ("symbol_energy", "-1"), ("seed", "-1"), ("max_iterations", "-1"),
        ("strict", "treu"),
    ])
    def test_invalid_value_is_config_error(self, key, raw):
        with pytest.raises(harness.ConfigError, match=key):
            harness.build_components(harness.config_from_mapping({key: raw}))

    def test_assumed_terms(self):
        for good in ("known", "bound", "3"):
            harness.build_components(desk_config(assumed_terms=good))
        for bad in ("foo", "0", "1.5", "-2", ""):
            with pytest.raises(harness.ConfigError):
                harness.build_components(desk_config(assumed_terms=bad))

    def test_no_outer_code(self):
        cfg = desk_config(use_outer_code=False)
        _, _, outer, _ = harness.build_components(cfg)
        assert outer is None


class TestRunTrial:
    def test_high_snr_perfect(self):
        cfg = desk_config(ebn0_list=(30.0,))
        parts = harness.build_components(cfg)
        p, iters, ms = harness.run_trial(cfg, *parts, ebn0_db=30.0, K=2,
                                         cell=0, trial=0)
        assert p == 0.0
        assert iters > 0 and ms > 0

    def test_deterministic_decisions(self):
        cfg = desk_config()
        parts = harness.build_components(cfg)
        a = harness.run_trial(cfg, *parts, ebn0_db=20.0, K=2, cell=0, trial=1)
        b = harness.run_trial(cfg, *parts, ebn0_db=20.0, K=2, cell=0, trial=1)
        assert a[0] == b[0] and a[1] == b[1]

    def test_trials_differ(self):
        cfg = desk_config()
        parts = harness.build_components(cfg)
        # Different trial indices draw different payloads and channels, so
        # the solver work differs even when both trials decode perfectly.
        a = harness.run_trial(cfg, *parts, ebn0_db=20.0, K=2, cell=0, trial=0)
        b = harness.run_trial(cfg, *parts, ebn0_db=20.0, K=2, cell=0, trial=1)
        assert a[1] != b[1]


class TestRunMonteCarlo:
    def test_high_snr_zero_pupe(self):
        cfg = desk_config(ebn0_list=(30.0,), trials=3)
        rows = harness.run_monte_carlo(cfg)
        assert len(rows) == 1
        row = rows[0]
        assert row.pupe_mean == 0.0 and row.pupe_ci95 == 0.0
        assert row.trials == 3 and row.K == 2 and row.seed == 0

    def test_zero_trials(self):
        assert harness.run_monte_carlo(desk_config(trials=0)) == []

    def test_rows_sorted_over_grid(self):
        cfg = desk_config(ebn0_list=(30.0, 20.0), k_list=(2, 1), trials=1)
        rows = harness.run_monte_carlo(cfg)
        keys = [(r.ebn0_db, r.K) for r in rows]
        assert keys == sorted(keys) and len(rows) == 4

    def test_deterministic_csv(self):
        cfg = desk_config(trials=3, workers=2)
        csv1 = harness.rows_to_csv(harness.run_monte_carlo(cfg))
        csv2 = harness.rows_to_csv(harness.run_monte_carlo(cfg))
        assert mask_runtime(csv1) == mask_runtime(csv2)

    def test_grouped_csv_independent_of_workers(self):
        # K=8 exceeds one group's share (K_bar=7), so both groups are
        # nonempty and workers=2 decodes them in the process pool.
        grouped = dict(groups=2, k_list=(8,), ebn0_list=(12.0,), trials=3,
                       max_iterations=100, restarts=2)
        csv1, csv2 = (harness.rows_to_csv(harness.run_monte_carlo(
            desk_config(**grouped, workers=w))) for w in (1, 2))
        assert mask_runtime(csv1) == mask_runtime(csv2)
        assert csv1.split("\n")[1].startswith("12,8,2,")

    def test_seed_changes_results(self):
        cfg0 = desk_config(trials=2)
        cfg1 = desk_config(trials=2, seed=1)
        r0 = harness.run_monte_carlo(cfg0)[0]
        r1 = harness.run_monte_carlo(cfg1)[0]
        assert r0.mean_solver_iters != r1.mean_solver_iters

    def test_ci_shrinks_with_trials(self):
        # A noisy operating point where individual trials disagree.
        few = desk_config(ebn0_list=(2.0,), k_list=(3,), trials=6,
                          max_iterations=120, restarts=2, workers=4)
        many = desk_config(ebn0_list=(2.0,), k_list=(3,), trials=24,
                           max_iterations=120, restarts=2, workers=4)
        ci_few = harness.run_monte_carlo(few)[0].pupe_ci95
        ci_many = harness.run_monte_carlo(many)[0].pupe_ci95
        assert ci_many < ci_few

    def test_csv_schema(self):
        cfg = desk_config(trials=2)
        text = harness.rows_to_csv(harness.run_monte_carlo(cfg))
        lines = text.strip().split("\n")
        assert lines[0] == ("ebn0_db,K,G,sc_iters,trials,pupe_mean,pupe_ci95,"
                            "mean_solver_iters,mean_runtime_ms,seed")
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert len(cells) == 10
        float(cells[5])  # pupe_mean parses as a number


class TestCheckParams:
    def test_full_scale_operating_point(self):
        cfg = desk_config(t1=30, t2=24, b0=204, b_bch=220, b1=124, b2=96,
                          n_antennas=25, bch_m=8, bch_t=2)
        report = harness.check_params(cfg)
        assert "K_bar=25" in report
        assert "DOF(K_bar) = 2500" in report
        assert "ell1=8" in report
        assert "(255,239) shortened to (220,204)" in report
        assert "204/720 = 0.2833" in report
        assert "(condition 1: 25, condition 2: 25)" in report

    def test_desk_point(self):
        report = harness.check_params(desk_config())
        assert "K_bar=7" in report
        assert "(condition 1: 7, condition 2: 7)" in report
        assert "(511,466) shortened to (65,20)" in report

    def test_part_summary(self):
        assert harness._summarize_parts((2, 2, 1, 1, 1)) == "2x2b + 3x1b"
