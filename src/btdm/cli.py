"""Command-line surface: simulate, check-params, encode, decode, bench."""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import codec, harness
from .solver import SolverConfig, SolverFailure, gndl_fit, init_random
from .tensor_core import synthesize_received

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _load_config(args) -> harness.ExperimentConfig:
    values = harness.parse_config_file(args.config) if args.config else {}
    for override in args.set or []:
        key, _, raw = override.partition("=")
        if not _:
            raise harness.ConfigError(f"--set expects key=value, got {override!r}")
        values[key.strip()] = raw.strip()
    if getattr(args, "seed", None) is not None:
        values["seed"] = str(args.seed)
    return harness.config_from_mapping(values)


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    rows = harness.run_monte_carlo(cfg)
    text = harness.rows_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_check_params(args) -> int:
    print(harness.check_params(_load_config(args)))
    return EXIT_OK


def cmd_encode(args) -> int:
    ell = args.ell if args.ell is not None else 4 * len(args.bits)
    params = codec.CodecParams(args.t, args.l, ell, f=args.f)
    bits = codec.int_to_bits(int(args.bits, 16), ell)
    for row in codec.build_symbol(bits, params):
        print(",".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row))
    return EXIT_OK


def cmd_decode(args) -> int:
    params = codec.CodecParams(args.t, args.l, args.ell, f=args.f)
    rows = []
    source = open(args.matrix) if args.matrix != "-" else sys.stdin
    try:
        for line in source:
            line = line.strip()
            if line:
                rows.append([complex(tok) for tok in line.split(",")])
    finally:
        if source is not sys.stdin:
            source.close()
    M = np.array(rows, dtype=np.complex128)
    try:
        bits = codec.demap_symbol(M, params)
    except codec.DemapFailure as exc:
        print(f"demap failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    # Minus the chordal distance from the input's column space to the
    # re-encoded symbol's: 0 when the input is a basis of the symbol.
    overlap = np.linalg.norm(np.linalg.qr(M)[0].conj().T @ codec.build_symbol(bits, params))
    confidence = -np.sqrt(max(0.0, args.l - overlap ** 2))
    print(f"{codec.bits_to_int(bits):0{(len(bits) + 3) // 4}x}")
    print(f"confidence: {confidence:.6g}", file=sys.stderr)
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    params1, params2, _outer, kbar = harness.build_components(cfg)
    dims = (cfg.t1, cfg.t2, cfg.n_antennas)
    print("K,iterations,seconds,relative_residual")
    solver_cfg = SolverConfig(max_iterations=cfg.max_iterations, restarts=cfg.restarts,
                              seed=cfg.seed)
    for K in cfg.k_list:
        # Restart r starts from seed (cfg.seed, r), and SeedSequence ignores
        # trailing zeros, so the truth needs a label no restart draws.
        truth = init_random(dims, K, cfg.l, seed=(cfg.seed, 0, 1))
        Y = synthesize_received(truth)
        start = time.perf_counter()
        try:
            result = gndl_fit(Y, K, cfg.l, solver_cfg)
        except SolverFailure:
            return EXIT_SOLVER
        elapsed = time.perf_counter() - start
        print(f"{K},{result.iterations},{elapsed:.3f},{result.relative_residual:.3e}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="btdm",
                                     description="BTD modulation link-level simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_opts(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key")

    p = sub.add_parser("simulate", help="run a Monte-Carlo sweep, write CSV")
    add_config_opts(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check-params", help="report feasibility of a config")
    add_config_opts(p)
    p.set_defaults(func=cmd_check_params)

    p = sub.add_parser("encode", help="encode hex bits into a symbol (CSV rows)")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--bits", required=True, help="payload as hex")
    p.add_argument("--ell", type=int, help="payload bit count (default 4*len(hex))")
    p.add_argument("--f", type=float, default=2.0)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="demap a symbol matrix CSV back to hex bits")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--matrix", required=True, help="CSV file of complex entries, or -")
    p.add_argument("--f", type=float, default=2.0)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("bench", help="time the solver over the configured K list")
    add_config_opts(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
