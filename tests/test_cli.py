import io
import pathlib
import sys

import numpy as np
import pytest

from btdm import cli, codec

from conftest import crandn

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

    def test_encode_rejects_parts_too_long_to_round_trip(self, capsys):
        # T=3, L=2, 300 bits: four coordinate parts of 74-75 bits.
        code, out, err = run(["encode", "--t", "3", "--l", "2", "--ell", "300",
                              "--bits", "f" * 75], capsys)
        assert code == cli.EXIT_CONFIG
        assert out == "" and "cube-split" in err

    def test_encode_rejects_oversized_hex(self, capsys):
        code, _, err = run(["encode", "--t", "8", "--l", "2",
                            "--bits", "fff", "--ell", "8"], capsys)
        assert code == cli.EXIT_CONFIG
        assert "error" in err


class TestDecodeConfidence:
    """The confidence on stderr is minus the chordal distance between the
    input's column space and the re-encoded symbol's."""

    @staticmethod
    def decode(capsys, tmp_path, M, t, l, ell):
        matrix = tmp_path / "m.csv"
        matrix.write_text("".join(",".join(str(complex(z)) for z in row) + "\n" for row in M))
        code, out, err = run(["decode", "--t", str(t), "--l", str(l), "--ell", str(ell),
                              "--matrix", str(matrix)], capsys)
        assert code == 0
        return out.strip(), float(err.split("confidence:")[1])

    @pytest.mark.parametrize("l", [2, 1])
    def test_exact_symbol_is_zero(self, capsys, tmp_path, l):
        params = codec.CodecParams(8, l, 16)
        U = codec.build_symbol(codec.int_to_bits(0x3a7f, 16), params)
        hex_bits, confidence = self.decode(capsys, tmp_path, U, 8, l, 16)
        assert hex_bits == "3a7f"
        assert confidence == pytest.approx(0.0, abs=1e-6)

    def test_invertible_factor_is_zero(self, capsys, tmp_path):
        params = codec.CodecParams(10, 2, 24)
        U = codec.build_symbol(codec.int_to_bits(0xabcdef, 24), params)
        # Invertible, not unitary, and small: a distance computed without
        # first orthonormalising the input would read far from 0.
        S = 0.2 * np.array([[2.0, 0.5 - 1j], [0.3j, -1.5]])
        hex_bits, confidence = self.decode(capsys, tmp_path, U @ S, 10, 2, 24)
        assert hex_bits == "abcdef"
        assert confidence == pytest.approx(0.0, abs=1e-6)

    def test_perturbed_matrix_is_below_zero(self, capsys, tmp_path):
        params = codec.CodecParams(10, 2, 24)
        U = codec.build_symbol(codec.int_to_bits(0xabcdef, 24), params)
        M = U + 0.01 * crandn(np.random.default_rng(3), 10, 2)
        _, confidence = self.decode(capsys, tmp_path, M, 10, 2, 24)
        assert confidence < -1e-4


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


def without_runtime(csv_text: str) -> list[list[str]]:
    """The CSV's cells, less the wall-clock column `mean_runtime_ms`."""
    rows = [line.split(",") for line in csv_text.strip().split("\n")]
    drop = rows[0].index("mean_runtime_ms")
    return [row[:drop] + row[drop + 1:] for row in rows]


class TestGoldenSweeps:
    """Seeded `btdm simulate` sweeps against CSVs stored under tests/data.

    Each stored CSV was written by the command with `workers=1`. Every column
    but `mean_runtime_ms` must come out the same. PUPE, its interval and
    `mean_solver_iters` follow the decisions of every fit, so a change that
    alters one shows here; a change of a rounding step that alters none
    does not, and the solver's own tests compare such kernels bit for bit.
    """

    SWEEPS = {
        "simulate_seed3.csv": "--seed 3 --set ebn0_list=8,12 --set trials=12",
        "simulate_seed21.csv": ("--seed 21 --set k_list=7 --set ebn0_list=16 --set trials=6 "
                                "--set restarts=2 --set sc_iterations=1"),
        "simulate_seed4.csv": ("--seed 4 --set l=1 --set k_list=4 --set ebn0_list=4 "
                               "--set trials=8 --set restarts=2"),
        "simulate_seed5.csv": ("--seed 5 --set groups=2 --set k_list=8 --set ebn0_list=12 "
                               "--set trials=8 --set restarts=2 --set max_iterations=100"),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("golden", sorted(SWEEPS))
    def test_matches_stored_csv(self, capsys, tmp_path, golden, workers):
        out_path = tmp_path / golden
        argv = ["simulate", *self.SWEEPS[golden].split(), "--set", f"workers={workers}",
                "--out", str(out_path)]
        code, _, _ = run(argv, capsys)
        assert code == 0
        assert without_runtime(out_path.read_text()) == \
            without_runtime((DATA / golden).read_text())


class TestCheckParams:
    def test_default_report(self, capsys):
        code, out, _ = run(["check-params"], capsys)
        assert code == 0
        assert "K_bar=7" in out
        assert "bits/channel use" in out

    def test_parts_too_long_to_round_trip(self, capsys):
        code, out, err = run(["check-params", "--set", "t1=3", "--set", "b1=300",
                              "--set", "b2=28", "--set", "b_bch=328",
                              "--set", "use_outer_code=false"], capsys)
        assert code == cli.EXIT_CONFIG
        assert out == "" and "infeasible bit budget" in err

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
