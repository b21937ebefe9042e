import io
import pathlib
import sys

import numpy as np
import pytest

from btdm import cli

DATA = pathlib.Path(__file__).parent / "data"


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEncodeDecode:
    def test_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(["encode", "--t", "8", "--l", "2",
                            "--bits", "3a7f", "--ell", "16"], capsys)
        assert code == 0
        matrix = tmp_path / "m.csv"
        matrix.write_text(out)
        code, out, err = run(["decode", "--t", "8", "--l", "2", "--ell", "16",
                              "--matrix", str(matrix)], capsys)
        assert code == 0
        assert out.strip() == "3a7f"
        assert "confidence" in err

    def test_encode_matches_golden(self, capsys):
        code, out, _ = run(["encode", "--t", "10", "--l", "2",
                            "--bits", "abcdef", "--ell", "24"], capsys)
        assert code == 0
        assert out == (DATA / "symbol_t10_abcdef.csv").read_text()

    def test_decode_golden(self, capsys):
        code, out, _ = run(["decode", "--t", "10", "--l", "2", "--ell", "24",
                            "--matrix", str(DATA / "symbol_t10_abcdef.csv")], capsys)
        assert code == 0
        assert out.strip() == "abcdef"

    def test_decode_stdin(self, capsys, monkeypatch):
        _, out, _ = run(["encode", "--t", "6", "--l", "2",
                         "--bits", "2b", "--ell", "8"], capsys)
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, out, _ = run(["decode", "--t", "6", "--l", "2", "--ell", "8",
                            "--matrix", "-"], capsys)
        assert code == 0
        assert out.strip() == "2b"

    @pytest.mark.parametrize("case,t,want", [
        ("zero", 5, cli.EXIT_SOLVER),
        ("nan", 5, cli.EXIT_CONFIG),
        ("rank1", 5, cli.EXIT_SOLVER),
        ("three_columns", 5, cli.EXIT_CONFIG),
        ("wrong_t", 6, cli.EXIT_CONFIG),
    ])
    def test_decode_rejects_bad_matrix(self, capsys, tmp_path, case, t, want):
        M = np.random.default_rng(7).standard_normal((5, 3 if case == "three_columns" else 2))
        if case == "zero":
            M[:] = 0.0
        elif case == "nan":
            M[1, 0] = np.nan
        elif case == "rank1":
            M[:, 1] = M[:, 0]
        matrix = tmp_path / "m.csv"
        matrix.write_text("".join(",".join(str(complex(z)) for z in row) + "\n" for row in M))
        code, out, err = run(["decode", "--t", str(t), "--l", "2", "--ell", "8",
                              "--matrix", str(matrix)], capsys)
        assert code == want
        assert out == "" and err

    def test_encode_rejects_oversized_hex(self, capsys):
        code, _, err = run(["encode", "--t", "8", "--l", "2",
                            "--bits", "fff", "--ell", "8"], capsys)
        assert code == cli.EXIT_CONFIG
        assert "error" in err


class TestSimulate:
    ARGS = ["simulate", "--set", "trials=2", "--set", "k_list=2",
            "--set", "ebn0_list=25", "--set", "max_iterations=150",
            "--set", "restarts=2", "--set", "workers=1"]

    def test_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run(self.ARGS + ["--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0].startswith("ebn0_db,K,G,")
        assert len(lines) == 2

    def test_stdout_and_seed_override(self, capsys):
        code, out, _ = run(self.ARGS + ["--seed", "5"], capsys)
        assert code == 0
        assert out.strip().split("\n")[1].endswith(",5")

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("trials = 1\nk_list = 1\nebn0_list = 30\n"
                       "restarts = 2\nworkers = 1\n")
        code, out, _ = run(["simulate", "--config", str(cfg)], capsys)
        assert code == 0
        assert ",1,1," in out.strip().split("\n")[1]

    def test_unknown_key_is_config_error(self, capsys):
        code, _, err = run(["simulate", "--set", "bogus=1"], capsys)
        assert code == cli.EXIT_CONFIG
        assert "config error" in err

    def test_malformed_set(self, capsys):
        code, _, err = run(["simulate", "--set", "trials"], capsys)
        assert code == cli.EXIT_CONFIG

    def test_invalid_field_is_config_error(self, capsys):
        code, out, err = run(["simulate", "--set", "groups=0"], capsys)
        assert code == cli.EXIT_CONFIG
        assert out == "" and "groups" in err

    def test_infeasible_config(self, capsys):
        code, _, err = run(["simulate", "--set", "b1=36"], capsys)
        assert code == cli.EXIT_CONFIG
        assert "b_bch" in err


class TestCheckParams:
    def test_default_report(self, capsys):
        code, out, _ = run(["check-params"], capsys)
        assert code == 0
        assert "K_bar=7" in out
        assert "bits/channel use" in out

    def test_full_scale_point(self, capsys):
        code, out, _ = run(["check-params",
                            "--set", "t1=30", "--set", "t2=24",
                            "--set", "b0=204", "--set", "b_bch=220",
                            "--set", "b1=124", "--set", "b2=96",
                            "--set", "n_antennas=25",
                            "--set", "bch_m=8", "--set", "bch_t=2"], capsys)
        assert code == 0
        assert "K_bar=25" in out and "DOF(K_bar) = 2500" in out


class TestBench:
    def test_smoke(self, capsys):
        code, out, _ = run(["bench", "--set", "k_list=1",
                            "--set", "restarts=2",
                            "--set", "max_iterations=100"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "K,iterations,seconds,relative_residual"
        k, iters, secs, rel = lines[1].split(",")
        # The fit starts away from the truth, so it has to descend to it.
        assert k == "1" and int(iters) >= 1 and float(rel) < 1e-6
