"""Benchmark harness: generate datasets, train the allocator, run the
iterative solver, and compare schemes from one console entry point.

Exit codes: 0 success, 2 configuration problem, 3 unreadable or missing
data, 4 exhaustive-search budget refusal. Every command is a pure function
of its flags, config file, and seed, with one carve-out: wall-clock timing
lands in the trace "seconds" column and in the .timing.csv sidecar, which
are the only non-reproducible bytes any command writes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from .allocation import binarize, project_feasible, uniform_contiguous
from .bcd import BcdOptions, bcd_optimize
from .brute import DEFAULT_BUDGET, BudgetExceededError, brute_force
from .config import (AT_LEAST_ONE, NON_NEGATIVE, POSITIVE, ConfigError, ScenarioConfig,
                     check_value, desk_config, full_scale_config, parse_settings)
from .dataio import DatasetError, generate_dataset, load_dataset, train_val_split
from .features import flatten_features, pca_transform
from .metrics import alpha_mean_throughput, alpha_utility, sum_utility, user_rates
from .mlp import CheckpointError, load_checkpoint, mlp_forward, parameter_count, save_checkpoint
from .training import TrainOptions, nn_loss, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_BUDGET = 4

_PROFILES = {"desk": desk_config, "full": full_scale_config}
_NN_SCHEMES = ("nn", "nn+pca")
_ALL_SCHEMES = ("uniform", "bcd", "nn", "nn+pca", "brute")
_SECTIONS = {"scenario": ScenarioConfig, "bcd": BcdOptions, "training": TrainOptions}


def _fmt(x) -> str:
    """Shortest round-trip decimal; keeps CSV/JSON output byte-stable."""
    return repr(float(x))


def load_config_file(path):
    """Parse the harness config file.

    Returns the ScenarioConfig, BcdOptions and TrainOptions keyed by type.
    The file is a JSON object with a mandatory "scenario" section (every
    scenario field) and optional "bcd" / "training" sections holding solver
    and trainer options; options a section leaves out keep their defaults.
    """
    try:
        body = json.loads(Path(path).read_bytes().decode("utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}") from exc
    if not isinstance(body, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    unknown = sorted(set(body) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(unknown)}")
    if "scenario" not in body:
        raise ConfigError(f"{path} is missing the \"scenario\" section")
    return {cls: parse_settings(cls, body.get(name, {}), name, complete=cls is ScenarioConfig)
            for name, cls in _SECTIONS.items()}


def _options(args, cls, flags: dict):
    """The settings of type ``cls`` a command runs with: the type's defaults,
    then the config file's section, then the flags given. ``flags`` maps each
    flag to its field, which is also the flag's parser dest (None if absent)."""
    options = load_config_file(args.config)[cls] if args.config else cls()
    for flag, name in flags.items():
        value = getattr(args, name)
        if value is not None:
            try:
                options = dataclasses.replace(options, **{name: value})
            except ConfigError as exc:
                raise ConfigError(f"{flag}: {exc}") from None
    return options


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _out_dir(path) -> Path:
    """An --out directory, checked before any work: the path and its
    nearest existing ancestor must be directories."""
    out = Path(path)
    first = next(p for p in (out, *out.parents) if p.exists())
    if not first.is_dir():
        raise ConfigError(f"--out: {first} exists and is not a directory")
    return out


def _check_out_file(path, sidecar_suffix: str) -> None:
    """An --out file and its sidecar (path + sidecar_suffix), checked before
    any work: neither may be a directory, and their directory must exist."""
    for p in (Path(path), Path(str(path) + sidecar_suffix)):
        if p.is_dir():
            raise ConfigError(f"--out: {p} is a directory")
    if not Path(path).parent.is_dir():
        raise ConfigError(f"--out: {Path(path).parent} is not an existing directory")


def _check_alpha(alpha: float, samples, noise: float) -> None:
    """Refuse an alpha whose utility overflows on these samples: the loss
    at the uniform shares with every phase at zero must be finite. The
    loader refuses non-finite arrays, so a non-finite loss comes from alpha."""
    ch = samples[0].channels
    Q, K = len(samples), ch.num_users
    with np.errstate(over="ignore"):
        loss = nn_loss(np.zeros((Q, ch.num_elements)), np.full((Q, K, ch.side), 1.0 / K),
                       [s.channels for s in samples], [s.w for s in samples], alpha, noise)
    if not np.isfinite(loss):
        raise ConfigError(f"--alpha {alpha!r} overflows the fairness utility on this data")


def _per_sample_seed(seed: int, index: int) -> int:
    """Independent solver stream per (run seed, sample index)."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------- generate

def cmd_generate(args) -> int:
    config = _options(args, ScenarioConfig, {}) if args.config else _PROFILES[args.profile]()
    if args.n_train < 0 or args.n_val < 0 or args.n_train + args.n_val < 1:
        raise ConfigError("need --n-train/--n-val with at least one sample in total")
    check_value("--seed", args.seed, "int", NON_NEGATIVE)
    out = _out_dir(args.out)
    manifest = generate_dataset(config, args.n_train, args.n_val, args.seed, out)
    digest = hashlib.sha256()
    digest.update((out / "manifest.json").read_bytes())
    digest.update((out / "records.bin").read_bytes())
    print(f"dataset: {out}")
    print(f"samples: {manifest.n_train} train + {manifest.n_val} validation, master seed {manifest.master_seed}")
    print(f"scenario: {config.num_ues} users, {config.n_bs_antennas} antennas, "
          f"{config.ris_side}x{config.ris_side} surface")
    print(f"sha256: {digest.hexdigest()}")
    return EXIT_OK


# ------------------------------------------------------------------- train

def cmd_train(args) -> int:
    _check_out_file(args.out, ".history.csv")
    samples, manifest = load_dataset(args.data)
    train_s, val_s = train_val_split(samples, manifest)
    if len(train_s) < 2 or not val_s:
        raise DatasetError(f"training needs at least 2 training samples and 1 validation sample, "
                           f"got {len(train_s)} and {len(val_s)}")

    opts = _options(args, TrainOptions, {
        "--alpha": "alpha", "--lr": "learning_rate", "--batch-size": "batch_size",
        "--seed": "seed", "--max-epochs": "max_epochs", "--no-pca": "use_pca"})
    _check_alpha(opts.alpha, samples, manifest.config.noise_watts)

    result = train(train_s, val_s, manifest.config.noise_watts, opts)

    metadata = {"alpha": opts.alpha, "seed": opts.seed, "use_pca": opts.use_pca,
                "best_epoch": result.best_epoch,
                "best_val_loss": float(result.best_val_loss),
                "train_samples": len(train_s), "val_samples": len(val_s)}
    save_checkpoint(args.out, result.model, result.pca, metadata)

    history_path = str(args.out) + ".history.csv"
    _write_csv(history_path,
               ["epoch", "train_loss", "val_loss", "learning_rate"],
               [[row["epoch"], _fmt(row["train_loss"]), _fmt(row["val_loss"]),
                 _fmt(row["learning_rate"])] for row in result.history])

    n_params = parameter_count(result.model.arch)
    print(f"checkpoint: {args.out}")
    print(f"history: {history_path}")
    print(f"epochs run: {len(result.history)}, best epoch: {result.best_epoch}")
    print(f"best validation loss: {_fmt(result.best_val_loss)}")
    print(f"input features: {result.model.arch.input_dim}, parameters: {n_params}")
    return EXIT_OK


# --------------------------------------------------------------------- bcd

def cmd_bcd(args) -> int:
    check_value("--alpha", args.alpha, "float", POSITIVE)
    out = _out_dir(args.out)
    samples, manifest = load_dataset(args.data)
    if not 0 <= args.index < len(samples):
        raise DatasetError(
            f"sample index {args.index} out of range for {len(samples)} records")
    s = samples[args.index]
    noise = manifest.config.noise_watts
    _check_alpha(args.alpha, [s], noise)
    opts = _options(args, BcdOptions, {"--tol": "tol", "--seed": "seed",
                                       "--max-outer-iters": "max_outer_iters"})

    theta, xi, trace = bcd_optimize(s.channels, s.w, args.alpha, noise, opts)
    hard = binarize(xi.xi)

    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "trace.csv", ["iteration", "objective", "seconds"],
               [[i, _fmt(obj), _fmt(sec)]
                for i, (obj, sec) in enumerate(zip(trace.objectives, trace.seconds))])
    result = {
        "alpha": args.alpha,
        "sample_index": args.index,
        "seed": opts.seed,
        "outer_iterations": len(trace.objectives) - 1,
        "utility_relaxed": sum_utility(s.channels, theta, xi, s.w, args.alpha, noise),
        "utility_binary": sum_utility(s.channels, theta, hard, s.w, args.alpha, noise),
        "theta": theta.theta.tolist(),
        "xi": xi.xi.tolist(),
        "xi_binary": hard.xi.tolist(),
    }
    (out / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"sample {args.index}: {result['outer_iterations']} outer iterations")
    print(f"relaxed utility: {_fmt(result['utility_relaxed'])}")
    print(f"binarized utility: {_fmt(result['utility_binary'])}")
    print(f"outputs: {out / 'trace.csv'}, {out / 'result.json'}")
    return EXIT_OK


# ----------------------------------------------------------------- compare

def _load_model_for(schemes, model_path, ch):
    """The checkpoint the nn schemes need, checked against the dataset's
    channel shapes (ch) before any sample is solved."""
    wanted = [s for s in schemes if s in _NN_SCHEMES]
    if not wanted:
        return None, None
    if not model_path:
        raise ConfigError(f"scheme(s) {', '.join(wanted)} need --model CHECKPOINT")
    model, pca, _ = load_checkpoint(model_path)
    if "nn+pca" in wanted and pca is None:
        raise ConfigError("checkpoint holds no dimensionality reduction; use scheme \"nn\"")
    if "nn" in wanted and pca is not None:
        raise ConfigError("checkpoint includes dimensionality reduction; use scheme \"nn+pca\"")
    arch = model.arch
    widths = [("input features", arch.input_dim if pca is None else pca.input_dim,
               flatten_features(ch).size),
              ("phase_dim", arch.phase_dim, ch.num_elements),
              ("alloc_users", arch.alloc_users, ch.num_users),
              ("alloc_cols", arch.alloc_cols, ch.side)]
    bad = [f"{name} {got} where the dataset needs {need}"
           for name, got, need in widths if got != need]
    if bad:
        raise ConfigError("checkpoint does not fit the dataset: " + "; ".join(bad))
    return model, pca


def _solve_sample(scheme, sample, index, alpha, noise, opts, model, pca, nu, budget, fixed):
    """Run one scheme on one drop, "uniform" pinned to ``fixed``; returns (theta, allocation)."""
    ch, w = sample.channels, sample.w
    if scheme in ("uniform", "bcd"):
        per = dataclasses.replace(opts, seed=_per_sample_seed(opts.seed, index))
        theta, xi, _ = bcd_optimize(ch, w, alpha, noise, per,
                                    fixed_alloc=fixed if scheme == "uniform" else None)
        return theta, xi
    if scheme in _NN_SCHEMES:
        z = flatten_features(ch)
        if pca is not None:
            z = pca_transform(pca, z)
        theta_b, xi_b, _ = mlp_forward(model, z, train_mode=False)
        return theta_b[0], project_feasible(xi_b[0])
    theta, alloc, _ = brute_force(ch, w, alpha, noise, nu=nu, budget=budget)  # "brute"
    return theta, alloc


def cmd_compare(args) -> int:
    check_value("--alpha", args.alpha, "float", POSITIVE)
    check_value("--nu", args.nu, "int", AT_LEAST_ONE)
    check_value("--budget", args.budget, "int", NON_NEGATIVE)
    _check_out_file(args.out, ".timing.csv")
    samples, manifest = load_dataset(args.data)
    train_s, val_s = train_val_split(samples, manifest)
    split = {"val": val_s, "train": train_s, "all": samples}[args.split]
    if not split:
        raise DatasetError(f"split {args.split!r} is empty")

    schemes = args.scheme or ["uniform", "bcd"]  # the parser's choices refused unknown names
    ch = split[0].channels
    fixed = uniform_contiguous(ch.num_users, ch.side) if "uniform" in schemes else None
    model, pca = _load_model_for(schemes, args.model, ch)
    opts = _options(args, BcdOptions, {"--seed": "seed"})

    noise = manifest.config.noise_watts
    _check_alpha(args.alpha, split, noise)
    bandwidth = manifest.config.bandwidth
    rows, timing_rows = [], []
    for scheme in schemes:
        utils, throughputs, sum_rates, seconds = [], [], [], []
        for i, sample in enumerate(split):
            tic = time.perf_counter()
            theta, alloc = _solve_sample(scheme, sample, i, args.alpha, noise,
                                         opts, model, pca, args.nu, args.budget, fixed)
            seconds.append(time.perf_counter() - tic)
            rates = user_rates(sample.channels, theta, alloc, sample.w, noise)
            utils.append(float(np.sum(alpha_utility(rates, args.alpha))))
            throughputs.append(alpha_mean_throughput(rates, args.alpha, bandwidth))
            sum_rates.append(bandwidth * float(rates.sum()))
        n_params = parameter_count(model.arch) if scheme in _NN_SCHEMES else ""
        rows.append([scheme, len(split), _fmt(args.alpha), _fmt(np.mean(utils)),
                     _fmt(np.mean(throughputs)), _fmt(np.mean(sum_rates)), n_params])
        timing_rows.append([scheme, _fmt(np.mean(seconds))])
        print(f"{scheme}: mean utility {_fmt(np.mean(utils))}, "
              f"mean throughput {_fmt(np.mean(throughputs))} bps")

    _write_csv(args.out,
               ["scheme", "samples", "alpha", "mean_utility",
                "mean_alpha_mean_throughput_bps", "mean_sum_rate_bps", "parameter_count"],
               rows)
    timing_path = str(args.out) + ".timing.csv"
    _write_csv(timing_path, ["scheme", "mean_seconds_per_sample"], timing_rows)
    print(f"table: {args.out}")
    print(f"timing sidecar (not reproducible): {timing_path}")
    return EXIT_OK


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="risalloc",
        description="Surface-assisted downlink benchmark harness: dataset "
                    "generation, neural allocator training, iterative "
                    "optimization, and scheme comparison.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a dataset of channel drops")
    g.add_argument("--config", help="JSON config file (scenario/bcd/training sections)")
    g.add_argument("--profile", choices=sorted(_PROFILES), default="desk",
                   help="built-in scenario when no --config is given (default desk)")
    g.add_argument("--n-train", type=int, default=200, help="training samples (default 200)")
    g.add_argument("--n-val", type=int, default=50, help="validation samples (default 50)")
    g.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    g.add_argument("--out", required=True, help="output dataset directory")

    t = sub.add_parser("train", help="train the neural allocator on a dataset")
    t.add_argument("--data", required=True, help="dataset directory")
    t.add_argument("--out", required=True, help="checkpoint output path")
    t.add_argument("--config", help="JSON config file; its training section applies")
    t.add_argument("--alpha", type=float, help="fairness order (default 1)")
    t.add_argument("--lr", type=float, dest="learning_rate", metavar="LR",
                   help="initial learning rate (default 0.01)")
    t.add_argument("--batch-size", type=int, help="mini-batch size (default 20)")
    t.add_argument("--max-epochs", type=int, help="epoch cap (default 200)")
    t.add_argument("--seed", type=int, help="training seed (default 0)")
    t.add_argument("--no-pca", action="store_const", const=False, dest="use_pca",
                   help="train on raw features without dimensionality reduction")

    b = sub.add_parser("bcd", help="run the iterative solver on one sample")
    b.add_argument("--data", required=True, help="dataset directory")
    b.add_argument("--index", type=int, default=0, help="sample index (default 0)")
    b.add_argument("--alpha", type=float, default=TrainOptions.alpha,
                   help="fairness order (default 1)")
    b.add_argument("--tol", type=float, help="relative stopping tolerance (default 1e-5)")
    b.add_argument("--max-outer-iters", type=int, help="outer iteration cap (default 200)")
    b.add_argument("--seed", type=int, help="phase init seed (default 0)")
    b.add_argument("--config", help="JSON config file; its bcd section applies")
    b.add_argument("--out", required=True, help="output directory for trace.csv + result.json")

    c = sub.add_parser("compare", help="benchmark schemes on a dataset split")
    c.add_argument("--data", required=True, help="dataset directory")
    c.add_argument("--scheme", action="append", choices=_ALL_SCHEMES, metavar="SCHEME",
                   help="scheme to run; repeatable (default: uniform, bcd); "
                        "one of " + ", ".join(_ALL_SCHEMES))
    c.add_argument("--model", help="checkpoint for the nn / nn+pca schemes")
    c.add_argument("--alpha", type=float, default=TrainOptions.alpha,
                   help="fairness order (default 1)")
    c.add_argument("--split", choices=("val", "train", "all"), default="val",
                   help="dataset slice to evaluate (default val)")
    c.add_argument("--nu", type=int, default=8, help="phase levels for brute (default 8)")
    c.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="evaluation budget for brute (default 1e7)")
    c.add_argument("--seed", type=int, help="solver seed (default 0)")
    c.add_argument("--config", help="JSON config file; its bcd section applies")
    c.add_argument("--out", required=True, help="output CSV path")
    return p


_COMMANDS = {"generate": cmd_generate, "train": cmd_train,
             "bcd": cmd_bcd, "compare": cmd_compare}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DatasetError, CheckpointError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BudgetExceededError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
