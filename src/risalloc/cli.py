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

from .allocation import _simplex_columns, binarize, uniform_contiguous
from .bcd import BcdOptions, bcd_optimize, bcd_optimize_many
from .brute import DEFAULT_BUDGET, BudgetExceededError, brute_force
from .config import (AT_LEAST_ONE, NON_NEGATIVE, ConfigError, ScenarioConfig,
                     check_value, desk_config, full_scale_config, parse_settings)
from .dataio import DatasetError, generate_dataset, load_dataset, train_val_split
from .features import feature_matrix, flatten_features, pca_transform
from .metrics import Allocation, alpha_mean_throughput, alpha_utility, sum_utility, user_rates
from .mlp import CheckpointError, load_checkpoint, mlp_forward, parameter_count, save_checkpoint
from .training import TrainOptions, train

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


def _config_sections(args) -> dict:
    """The --config file's settings keyed by type, read once per command;
    empty without --config."""
    return load_config_file(args.config) if args.config else {}


def _options(args, sections: dict, cls, flags: dict):
    """The settings of type ``cls`` a command runs with: the type's defaults,
    then the config file's section (``sections``, from _config_sections),
    then the flags given. ``flags`` maps each flag to its field, which is
    also the flag's parser dest (None if absent)."""
    options = sections[cls] if sections else cls()
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


def _out_dir(path, *files) -> Path:
    """An --out directory and the files the command writes in it, checked
    before any work: the path and its nearest existing ancestor must be
    directories, and none of the files may be one."""
    out = Path(path)
    first = next(p for p in (out, *out.parents) if p.exists())
    if not first.is_dir():
        raise ConfigError(f"--out: {first} exists and is not a directory")
    for name in files:
        if (out / name).is_dir():
            raise ConfigError(f"--out: {out / name} is a directory")
    return out


def _check_out_file(path, sidecar_suffix: str) -> None:
    """An --out file and its sidecar (path + sidecar_suffix), checked before
    any work: neither may be a directory, and their directory must exist."""
    for p in (Path(path), Path(str(path) + sidecar_suffix)):
        if p.is_dir():
            raise ConfigError(f"--out: {p} is a directory")
    if not Path(path).parent.is_dir():
        raise ConfigError(f"--out: {Path(path).parent} is not an existing directory")


def _per_sample_seed(seed: int, index: int) -> int:
    """Independent solver stream per (run seed, sample index)."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------- generate

def cmd_generate(args) -> int:
    config = (load_config_file(args.config)[ScenarioConfig] if args.config
              else _PROFILES[args.profile]())
    if args.n_train < 0 or args.n_val < 0 or args.n_train + args.n_val < 1:
        raise ConfigError("need --n-train/--n-val with at least one sample in total")
    # each record header holds its sample's seed, master seed + i, in 64 bits
    top = 2**64 - (args.n_train + args.n_val)
    check_value("--seed", args.seed, "int",
                (lambda v: 0 <= v <= top, f"in [0, {top}], so every record's seed fits in 64 bits"))
    out = _out_dir(args.out, "records.bin", "manifest.json")
    manifest = generate_dataset(config, args.n_train, args.n_val, args.seed, out)
    digest = hashlib.sha256()
    for name in ("manifest.json", "records.bin"):
        with open(out / name, "rb") as f:  # in blocks, so memory stays flat in the record count
            for block in iter(lambda: f.read(1 << 20), b""):
                digest.update(block)
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

    opts = _options(args, _config_sections(args), TrainOptions, {
        "--alpha": "alpha", "--lr": "learning_rate", "--batch-size": "batch_size",
        "--seed": "seed", "--max-epochs": "max_epochs", "--no-pca": "use_pca"})
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
    sections = _config_sections(args)
    alpha = _options(args, sections, TrainOptions, {"--alpha": "alpha"}).alpha
    out = _out_dir(args.out, "trace.csv", "result.json")
    samples, manifest = load_dataset(args.data)
    if not 0 <= args.index < len(samples):
        raise DatasetError(
            f"sample index {args.index} out of range for {len(samples)} records")
    s = samples[args.index]
    noise = manifest.config.noise_watts
    opts = _options(args, sections, BcdOptions, {"--tol": "tol", "--seed": "seed",
                                                 "--max-outer-iters": "max_outer_iters"})

    theta, xi, trace = bcd_optimize(s.channels, s.w, alpha, noise, opts)
    hard = binarize(xi.xi)

    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "trace.csv", ["iteration", "objective", "seconds"],
               [[i, _fmt(obj), _fmt(sec)]
                for i, (obj, sec) in enumerate(zip(trace.objectives, trace.seconds))])
    result = {
        "alpha": alpha,
        "sample_index": args.index,
        "seed": opts.seed,
        "outer_iterations": len(trace.objectives) - 1,
        "stop_reason": trace.stop_reason,
        "kernel_calls": trace.kernel_calls,
        "utility_relaxed": sum_utility(s.channels, theta, xi, s.w, alpha, noise),
        "utility_binary": sum_utility(s.channels, theta, hard, s.w, alpha, noise),
        "theta": theta.theta.tolist(),
        "xi": xi.xi.tolist(),
        "xi_binary": hard.xi.tolist(),
    }
    (out / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"sample {args.index}: {result['outer_iterations']} outer iterations "
          f"(stopped at the {trace.stop_reason}), {trace.kernel_calls} objective calls")
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


def _solve_split(scheme, split, alpha, noise, opts, model, pca, nu, budget, fixed):
    """Run one scheme on every drop of the split, "uniform" pinned to
    ``fixed``; returns one (theta, allocation) per drop. "uniform" and "bcd"
    solve the split in lockstep (``bcd_optimize_many``), each drop from the
    seed of its index; "nn" and "nn+pca" score the split as one stack of
    one-row forwards, and "brute" takes one drop at a time."""
    if scheme in ("uniform", "bcd"):
        seeds = [_per_sample_seed(opts.seed, i) for i in range(len(split))]
        solved = bcd_optimize_many([s.channels for s in split], [s.w for s in split], seeds,
                                   alpha, noise, opts,
                                   fixed_alloc=fixed if scheme == "uniform" else None)
        return [(theta, xi) for theta, xi, _ in solved]
    if scheme in _NN_SCHEMES:
        # a stack of one-row forwards, with the bits of one forward per drop
        z = feature_matrix([s.channels for s in split])[:, None, :]
        if pca is not None:
            z = pca_transform(pca, z)
        theta_b, xi_b, _ = mlp_forward(model, z, train_mode=False)
        return [(theta, Allocation(xi)) for theta, xi in zip(theta_b, _simplex_columns(xi_b)[0])]
    return [brute_force(s.channels, s.w, alpha, noise, nu=nu, budget=budget)[:2]  # "brute"
            for s in split]


def cmd_compare(args) -> int:
    sections = _config_sections(args)
    alpha = _options(args, sections, TrainOptions, {"--alpha": "alpha"}).alpha
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
    opts = _options(args, sections, BcdOptions, {"--seed": "seed"})

    noise = manifest.config.noise_watts
    bandwidth = manifest.config.bandwidth
    rows, timing_rows = [], []
    for scheme in schemes:
        utils, throughputs, sum_rates = [], [], []
        tic = time.perf_counter()
        answers = _solve_split(scheme, split, alpha, noise, opts, model, pca,
                               args.nu, args.budget, fixed)
        seconds = (time.perf_counter() - tic) / len(split)
        for sample, (theta, alloc) in zip(split, answers):
            rates = user_rates(sample.channels, theta, alloc, sample.w, noise)
            utils.append(float(np.sum(alpha_utility(rates, alpha))))
            throughputs.append(alpha_mean_throughput(rates, alpha, bandwidth))
            sum_rates.append(bandwidth * float(rates.sum()))
        n_params = parameter_count(model.arch) if scheme in _NN_SCHEMES else ""
        rows.append([scheme, len(split), _fmt(alpha), _fmt(np.mean(utils)),
                     _fmt(np.mean(throughputs)), _fmt(np.mean(sum_rates)), n_params])
        timing_rows.append([scheme, _fmt(seconds)])
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
    b.add_argument("--alpha", type=float, help="fairness order (default 1)")
    b.add_argument("--tol", type=float, help="relative stopping tolerance (default 1e-5)")
    b.add_argument("--max-outer-iters", type=int, help="outer iteration cap (default 200)")
    b.add_argument("--seed", type=int, help="phase init seed (default 0)")
    b.add_argument("--config", help="JSON config file; its bcd section and training alpha apply")
    b.add_argument("--out", required=True, help="output directory for trace.csv + result.json")

    c = sub.add_parser("compare", help="benchmark schemes on a dataset split")
    c.add_argument("--data", required=True, help="dataset directory")
    c.add_argument("--scheme", action="append", choices=_ALL_SCHEMES, metavar="SCHEME",
                   help="scheme to run; repeatable (default: uniform, bcd); "
                        "one of " + ", ".join(_ALL_SCHEMES))
    c.add_argument("--model", help="checkpoint for the nn / nn+pca schemes")
    c.add_argument("--alpha", type=float, help="fairness order (default 1)")
    c.add_argument("--split", choices=("val", "train", "all"), default="val",
                   help="dataset slice to evaluate (default val)")
    c.add_argument("--nu", type=int, default=8, help="phase levels for brute (default 8)")
    c.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="evaluation budget for brute (default 1e7)")
    c.add_argument("--seed", type=int, help="solver seed (default 0)")
    c.add_argument("--config", help="JSON config file; its bcd section and training alpha apply")
    c.add_argument("--out", required=True, help="output CSV path")
    return p


_COMMANDS = {"generate": cmd_generate, "train": cmd_train,
             "bcd": cmd_bcd, "compare": cmd_compare}
# the flags that can push a command's arithmetic out of the float range; those
# commands run with numpy's overflow and invalid-value errors raised, and none
# writes its outputs before its computation ends
_FLOAT_FLAGS = {"train": "--alpha or --lr", "bcd": "--alpha", "compare": "--alpha"}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = _FLOAT_FLAGS.get(args.command)
    try:
        with np.errstate(**({"over": "raise", "invalid": "raise"} if flags else {})):
            return _COMMANDS[args.command](args)
    except FloatingPointError as exc:
        print(f"config error: {flags} takes the arithmetic out of the float range "
              f"on this data ({exc})", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"config error: the run's sizes or sample counts need more memory than this "
              f"machine gives ({exc})", file=sys.stderr)
        return EXIT_CONFIG
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
