import csv
import dataclasses
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import risalloc
from risalloc import (BcdOptions, DatasetError, MlpArch, ScenarioConfig, TrainOptions,
                      bcd_optimize, init_model, load_checkpoint, load_dataset,
                      save_checkpoint)
from risalloc.brute import DEFAULT_BUDGET
from risalloc.cli import build_parser, main
from risalloc.serial import read_named_arrays, write_named_arrays


def tiny_scenario():
    return ScenarioConfig(n_bs_antennas=2, ris_side=2, num_ues=2)


def write_config(path, training=None, bcd=None, scenario=None, extra=None):
    body = {"scenario": (scenario or tiny_scenario()).to_dict()}
    if training is not None:
        body["training"] = training
    if bcd is not None:
        body["bcd"] = bcd
    if extra is not None:
        body.update(extra)
    path.write_text(json.dumps(body))
    return str(path)


@pytest.fixture
def cfg_path(tmp_path):
    return write_config(tmp_path / "config.json",
                        training={"hidden": [8, 8, 8, 8], "max_epochs": 4,
                                  "batch_size": 3},
                        bcd={"max_outer_iters": 30})


@pytest.fixture
def dataset(tmp_path, cfg_path):
    out = tmp_path / "ds"
    rc = main(["generate", "--config", cfg_path, "--n-train", "6",
               "--n-val", "2", "--seed", "3", "--out", str(out)])
    assert rc == 0
    return out


def test_generate_deterministic(tmp_path, cfg_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["generate", "--config", cfg_path, "--n-train", "3",
                     "--n-val", "1", "--seed", "7", "--out", str(out)]) == 0
    assert (a / "records.bin").read_bytes() == (b / "records.bin").read_bytes()
    assert (a / "manifest.json").read_text() == (b / "manifest.json").read_text()
    assert "sha256:" in capsys.readouterr().out


def test_generate_profile(tmp_path):
    out = tmp_path / "ds"
    assert main(["generate", "--profile", "desk", "--n-train", "1",
                 "--n-val", "1", "--out", str(out)]) == 0
    _, manifest = load_dataset(out)
    assert manifest.config.ris_side == 8


def test_generate_rejects_empty(tmp_path, cfg_path, capsys):
    rc = main(["generate", "--config", cfg_path, "--n-train", "0",
               "--n-val", "0", "--out", str(tmp_path / "ds")])
    assert rc == 2
    assert "at least one sample" in capsys.readouterr().err


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d.pop("carrier_freq"), "carrier_freq"),
    (lambda d: d.update(wavelength=1.0), "wavelength"),
    (lambda d: d.update(num_ues="3"), "num_ues"),
    (lambda d: d.update(ris_side=8.0), "ris_side"),
    (lambda d: d.update(n_bs_antennas=True), "n_bs_antennas"),
    (lambda d: d.update(bs_position=["a", 0, 10]), "bs_position"),
    (lambda d: d.update(area_side=float("nan")), "area_side"),
    (lambda d: d.update(noise_power=float("nan")), "noise_power"),
    (lambda d: d.update(tx_power=float("inf")), "tx_power"),
    pytest.param(lambda d: d.update(tx_power=1e5), "tx_power", id="tx_power-overflows"),
    pytest.param(lambda d: d.update(noise_power=-1e5), "noise_power", id="noise_power-underflows"),
    pytest.param(lambda d: d.update(area_side=1e300), "area_side", id="area_side-overflows"),
    pytest.param(lambda d: d.update(area_side=1e4), "area_side", id="area_side-out-of-range"),
    pytest.param(lambda d: d.update(area_side=1e150), "area_side", id="area_side-far-out-of-range"),
    pytest.param(lambda d: d.update(blockage_density=1e300), "blockage_density",
                 id="blockage_density-too-many"),
    pytest.param(lambda d: d.update(ris_position=[1e4, 0, 10]), "ris_position",
                 id="ris_position-out-of-range"),
    pytest.param(lambda d: d.update(ue_height=0.5), "ue_height", id="ue_height-below-environment"),
    pytest.param(lambda d: d.update(ue_height=1.0), "ue_height", id="ue_height-at-environment"),
    pytest.param(lambda d: d.update(ris_position=[25, 25, 0.5]), "ris_position",
                 id="ris_position-below-environment"),
    pytest.param(lambda d: d.update(bs_height=1e200, bs_position=[0, 0, 1e200]), "bs_height",
                 id="bs_height-too-high"),
    pytest.param(lambda d: d.update(ris_position=[25, 25, 5000.5]), "ris_position",
                 id="ris_position-too-high"),
    pytest.param(lambda d: d.update(ris_position=d["bs_position"]), "ris_position",
                 id="ris_position-at-bs_position"),
    pytest.param(lambda d: d.update(shadow_sigma=3000.0), "shadow_sigma",
                 id="shadow_sigma-overflows"),
    pytest.param(lambda d: d.update(shadow_sigma=1e300), "shadow_sigma",
                 id="shadow_sigma-far-out-of-range"),
])
def test_scenario_field_errors(tmp_path, capsys, mutate, needle):
    scen = tiny_scenario().to_dict()
    mutate(scen)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": scen}))
    rc = main(["generate", "--config", str(path), "--n-train", "1",
               "--n-val", "0", "--out", str(tmp_path / "ds")])
    assert rc == 2
    assert needle in capsys.readouterr().err


def test_config_bad_json(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    rc = main(["generate", "--config", str(path), "--n-train", "1",
               "--n-val", "0", "--out", str(tmp_path / "ds")])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err


def test_config_unknown_section(tmp_path, capsys):
    path = write_config(tmp_path / "config.json", extra={"solver": {}})
    rc = main(["generate", "--config", path, "--n-train", "1",
               "--n-val", "0", "--out", str(tmp_path / "ds")])
    assert rc == 2
    assert "solver" in capsys.readouterr().err


@pytest.mark.parametrize("body,needle", [
    ([{"scenario": {}}], "must hold a JSON object"),
    ({"bcd": {}}, 'missing the "scenario" section'),
    ({"scenario": []}, "scenario must be a JSON object"),
    ({"scenario": tiny_scenario().to_dict(), "training": 5}, "training must be a JSON object"),
], ids=["array", "no-scenario", "scenario-array", "training-number"])
def test_config_shape_errors(tmp_path, capsys, body, needle):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body))
    rc = main(["generate", "--config", str(path), "--n-train", "1",
               "--n-val", "0", "--out", str(tmp_path / "ds")])
    assert rc == 2
    assert needle in capsys.readouterr().err


def test_config_missing_file(tmp_path, capsys):
    rc = main(["generate", "--config", str(tmp_path / "absent.json"),
               "--n-train", "1", "--n-val", "0", "--out", str(tmp_path / "ds")])
    assert rc == 2


def test_config_not_utf8(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"scenario": \xff}')
    rc = main(["generate", "--config", str(path), "--out", str(tmp_path / "ds")])
    assert rc == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_generate_rejects_negative_seed(tmp_path, capsys):
    rc = main(["generate", "--seed", "-3", "--out", str(tmp_path / "ds")])
    assert rc == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


def test_generate_rejects_a_seed_past_the_record_header(tmp_path, capsys):
    # every record stores its seed, master seed + i, as a u64
    rc = main(["generate", "--seed", str(2**64 - 1), "--n-train", "1", "--n-val", "1",
               "--out", str(tmp_path / "ds")])
    assert rc == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


_SECTIONS = {"scenario": ("generate", ScenarioConfig), "bcd": ("bcd", BcdOptions),
             "training": ("train", TrainOptions)}


@pytest.mark.parametrize("section,field", [(section, f.name)
                                           for section, (_, cls) in _SECTIONS.items()
                                           for f in dataclasses.fields(cls)])
def test_every_config_field_is_checked(tmp_path, dataset, capsys, section, field):
    body = {"scenario": tiny_scenario().to_dict()}
    body.setdefault(section, {})[field] = "a string"
    path = tmp_path / "strings.json"
    path.write_text(json.dumps(body))
    command = _SECTIONS[section][0]
    data = [] if command == "generate" else ["--data", str(dataset)]
    assert main([command, *data, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err


def test_bcd_outputs(tmp_path, dataset, cfg_path):
    out = tmp_path / "run"
    rc = main(["bcd", "--data", str(dataset), "--index", "0",
               "--config", cfg_path, "--out", str(out)])
    assert rc == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,objective,seconds"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(row[0]) for row in rows] == list(range(len(rows)))
    assert repr(float(rows[0][1])) == rows[0][1]   # shortest round-trip decimal
    objs = [float(row[1]) for row in rows]
    assert len(objs) >= 2
    assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))
    result = json.loads((out / "result.json").read_text())
    assert set(result) == {"alpha", "sample_index", "seed", "outer_iterations",
                           "stop_reason", "kernel_calls", "utility_relaxed",
                           "utility_binary", "theta", "xi", "xi_binary"}
    assert result["outer_iterations"] == len(objs) - 1
    xi = np.array(result["xi"])
    assert np.all(xi >= 0) and np.all(xi.sum(axis=0) <= 1 + 1e-12)
    assert np.all(np.isin(np.array(result["xi_binary"]), (0.0, 1.0)))
    assert result["utility_relaxed"] >= objs[0] - 1e-9


def test_bcd_reports_why_it_stopped_and_its_objective_calls(tmp_path, dataset):
    samples, manifest = load_dataset(dataset)
    s = samples[1]
    runs = {"cap": BcdOptions(max_outer_iters=2, tol=1e-300), "tol": BcdOptions(tol=1e-2)}
    results = {}
    for name in ("cap", "tol", "tol again"):
        opts = runs[name.split()[0]]
        out = tmp_path / name.replace(" ", "_")
        assert main(["bcd", "--data", str(dataset), "--index", "1",
                     "--max-outer-iters", str(opts.max_outer_iters), "--tol", repr(opts.tol),
                     "--out", str(out)]) == 0
        results[name] = (out / "result.json").read_bytes()
    assert results["tol again"] == results["tol"]  # deterministic: no wall clock in it
    for name, want in (("cap", "iteration cap"), ("tol", "tolerance")):
        result = json.loads(results[name])
        _, _, trace = bcd_optimize(s.channels, s.w, 1.0, manifest.config.noise_watts,
                                   runs[name])
        assert result["stop_reason"] == trace.stop_reason == want
        # the start, then at least one phase search per outer iteration
        assert result["kernel_calls"] == trace.kernel_calls >= 1 + result["outer_iterations"]
    assert json.loads(results["cap"])["outer_iterations"] == 2


def test_bcd_index_out_of_range(dataset, tmp_path, capsys):
    rc = main(["bcd", "--data", str(dataset), "--index", "99",
               "--out", str(tmp_path / "run")])
    assert rc == 3
    assert "99" in capsys.readouterr().err


def test_bcd_missing_dataset(tmp_path, capsys):
    rc = main(["bcd", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "r")])
    assert rc == 3


def test_bcd_tol_ordering(tmp_path, dataset):
    iters = {}
    for tol in ("1e-2", "1e-8"):
        out = tmp_path / f"run{tol}"
        assert main(["bcd", "--data", str(dataset), "--tol", tol,
                     "--out", str(out)]) == 0
        iters[tol] = json.loads((out / "result.json").read_text())["outer_iterations"]
    assert iters["1e-2"] <= iters["1e-8"]


def test_train_writes_checkpoint_and_history(tmp_path, dataset, cfg_path):
    ckpt = tmp_path / "model.ckpt"
    rc = main(["train", "--data", str(dataset), "--config", cfg_path,
               "--out", str(ckpt)])
    assert rc == 0
    model, pca, meta = load_checkpoint(ckpt)
    assert pca is not None
    assert model.arch.input_dim == pca.retained
    assert meta["alpha"] == 1.0 and meta["use_pca"] is True
    assert meta["train_samples"] == 6 and meta["val_samples"] == 2
    with open(str(ckpt) + ".history.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4   # max_epochs from the config file
    assert [r["epoch"] for r in rows] == ["0", "1", "2", "3"]
    assert float(rows[0]["learning_rate"]) == 0.01


def test_train_needs_two_training_samples(tmp_path, cfg_path, capsys):
    ds = tmp_path / "ds"
    assert main(["generate", "--config", cfg_path, "--n-train", "1",
                 "--n-val", "1", "--out", str(ds)]) == 0
    rc = main(["train", "--data", str(ds), "--out", str(tmp_path / "m.ckpt")])
    assert rc == 3
    assert "at least 2 training samples" in capsys.readouterr().err


def test_train_no_pca_uses_raw_width(tmp_path, dataset, cfg_path):
    ckpt = tmp_path / "raw.ckpt"
    rc = main(["train", "--data", str(dataset), "--config", cfg_path,
               "--no-pca", "--max-epochs", "2", "--alpha", "2",
               "--out", str(ckpt)])
    assert rc == 0
    model, pca, meta = load_checkpoint(ckpt)
    assert pca is None
    assert model.arch.input_dim == 2 * (2 * 2 + 2 * 4 + 4 * 2)
    assert meta["alpha"] == 2.0


def test_train_flag_overrides_config(tmp_path, dataset, cfg_path):
    ckpt = tmp_path / "short.ckpt"
    assert main(["train", "--data", str(dataset), "--config", cfg_path,
                 "--max-epochs", "1", "--out", str(ckpt)]) == 0
    with open(str(ckpt) + ".history.csv") as f:
        assert len(list(csv.DictReader(f))) == 1


@pytest.mark.parametrize("section,options", [
    ("training", {"momentum": 0.9}),
    ("training", {"lr_patience": 0}),
    ("training", {"stop_patience": 0}),
    ("training", {"lr_decay": 2}),
    ("training", {"dropout_rate": 1.5}),
    ("training", {"hidden": []}),
    ("training", {"hidden": "ab"}),
    ("training", {"hidden": [0]}),
    ("training", {"seed": -1}),
    ("training", {"batch_size": 2.5}),
    ("training", {"use_pca": "no"}),
    ("bcd", {"seed": -1}),
    ("bcd", {"seed": 1.5}),
    ("bcd", {"max_outer_iters": 2.5}),
    ("bcd", {"inner_steps_per_block": 1.5}),
])
def test_train_bad_option_in_config(tmp_path, dataset, section, options):
    path = write_config(tmp_path / "bad.json", **{section: options})
    rc = main(["train", "--data", str(dataset), "--config", path,
               "--out", str(tmp_path / "m.ckpt")])
    assert rc == 2


def test_compare_default_schemes(tmp_path, dataset, cfg_path):
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--data", str(dataset), "--config", cfg_path,
               "--out", str(out)])
    assert rc == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert [r["scheme"] for r in rows] == ["uniform", "bcd"]
    assert all(r["samples"] == "2" for r in rows)   # val split
    assert all(r["parameter_count"] == "" for r in rows)
    assert float(rows[1]["mean_utility"]) >= float(rows[0]["mean_utility"]) - 1e-9


@pytest.mark.parametrize("command,args", [
    ("generate", ["--n-train", "1", "--n-val", "1", "--out", "ds2"]),
    ("train", ["--max-epochs", "1", "--out", "model.ckpt"]),
    ("bcd", ["--out", "solve"]),
    ("compare", ["--out", "cmp.csv"]),
])
def test_each_command_reads_its_config_once(tmp_path, dataset, cfg_path, monkeypatch, command,
                                            args):
    reads = []
    load = risalloc.cli.load_config_file
    monkeypatch.setattr(risalloc.cli, "load_config_file", lambda path: reads.append(path) or
                        load(path))
    data = [] if command == "generate" else ["--data", str(dataset)]
    *flags, out = args
    assert main([command, *data, "--config", cfg_path, *flags, str(tmp_path / out)]) == 0
    assert reads == [cfg_path]


def test_compare_deterministic_table(tmp_path, dataset, cfg_path):
    outs = []
    for name in ("c1.csv", "c2.csv"):
        out = tmp_path / name
        assert main(["compare", "--data", str(dataset), "--config", cfg_path,
                     "--scheme", "bcd", "--split", "train",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
        assert (tmp_path / (name + ".timing.csv")).exists()
    assert outs[0] == outs[1]


def test_compare_nn_scheme(tmp_path, dataset, cfg_path):
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(dataset), "--config", cfg_path,
                 "--max-epochs", "2", "--out", str(ckpt)]) == 0
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--data", str(dataset), "--config", cfg_path,
               "--scheme", "nn+pca", "--model", str(ckpt), "--out", str(out)])
    assert rc == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert rows[0]["scheme"] == "nn+pca"
    assert int(rows[0]["parameter_count"]) > 0


def test_compare_nn_needs_model(tmp_path, dataset, capsys):
    rc = main(["compare", "--data", str(dataset), "--scheme", "nn",
               "--out", str(tmp_path / "c.csv")])
    assert rc == 2
    assert "--model" in capsys.readouterr().err


def test_compare_scheme_pca_mismatch(tmp_path, dataset, cfg_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(dataset), "--config", cfg_path,
                 "--max-epochs", "2", "--out", str(ckpt)]) == 0
    rc = main(["compare", "--data", str(dataset), "--scheme", "nn",
               "--model", str(ckpt), "--out", str(tmp_path / "c.csv")])
    assert rc == 2


def test_compare_pca_scheme_needs_a_pca_checkpoint(tmp_path, dataset, cfg_path, capsys):
    ckpt = tmp_path / "raw.ckpt"
    assert main(["train", "--data", str(dataset), "--config", cfg_path, "--no-pca",
                 "--max-epochs", "2", "--out", str(ckpt)]) == 0
    rc = main(["compare", "--data", str(dataset), "--scheme", "nn+pca",
               "--model", str(ckpt), "--out", str(tmp_path / "c.csv")])
    assert rc == 2
    assert "holds no dimensionality reduction" in capsys.readouterr().err


def test_compare_takes_the_solver_seed_from_config_unless_flagged(tmp_path, dataset):
    seeded = write_config(tmp_path / "seeded.json", bcd={"max_outer_iters": 30, "seed": 5})
    plain = write_config(tmp_path / "plain.json", bcd={"max_outer_iters": 30})

    def table(config, *flags):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--data", str(dataset), "--config", config, "--scheme", "bcd",
                     *flags, "--out", str(out)]) == 0
        return out.read_bytes()

    from_file = table(seeded)
    assert from_file == table(plain, "--seed", "5")
    assert table(seeded, "--seed", "0") == table(plain)
    assert from_file != table(plain)


def test_bcd_and_compare_take_alpha_from_config_unless_flagged(tmp_path, dataset):
    weighted = write_config(tmp_path / "weighted.json", training={"alpha": 2},
                            bcd={"max_outer_iters": 30})
    plain = write_config(tmp_path / "plain.json", bcd={"max_outer_iters": 30})

    def table(config, *flags):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--data", str(dataset), "--config", config, "--scheme", "uniform",
                     "--scheme", "bcd", *flags, "--out", str(out)]) == 0
        return out.read_bytes()

    from_file = table(weighted)
    assert from_file == table(plain, "--alpha", "2")
    assert table(weighted, "--alpha", "1") == table(plain)
    assert from_file != table(plain)
    assert main(["bcd", "--data", str(dataset), "--config", weighted,
                 "--out", str(tmp_path / "solve")]) == 0
    assert json.loads((tmp_path / "solve" / "result.json").read_text())["alpha"] == 2.0


def test_help_defaults_match_the_library():
    """Each "(default X)" a flag's help prints is the value the command runs
    with when the flag is absent: the settings field the flag sets (bcd and
    compare take --alpha from TrainOptions), or else the parser default,
    which for --budget is a library value."""
    solver = (BcdOptions(), TrainOptions())
    settings = {"train": (TrainOptions(),), "bcd": solver, "compare": solver}
    commands = build_parser()._subparsers._group_actions[0].choices
    checked = 0
    for command, parser in commands.items():
        for action in parser._actions:
            text = (action.help or "").partition("(default ")[2].partition(")")[0]
            if text:
                runs = (next(getattr(s, action.dest) for s in settings[command]
                             if hasattr(s, action.dest))
                        if action.default is None else action.default)
                assert text == runs or float(text) == runs, (command, action.dest, text, runs)
                checked += 1
    assert checked == 19
    assert commands["compare"].get_default("budget") == DEFAULT_BUDGET


def test_compare_brute_tiny(tmp_path, dataset, cfg_path):
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--data", str(dataset), "--config", cfg_path,
               "--scheme", "brute", "--nu", "2", "--budget", "2000",
               "--out", str(out)])
    assert rc == 0


def test_compare_brute_budget_refusal(tmp_path, dataset, capsys):
    rc = main(["compare", "--data", str(dataset), "--scheme", "brute",
               "--nu", "8", "--budget", "100",
               "--out", str(tmp_path / "c.csv")])
    assert rc == 4
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("command,flags", [
    ("bcd", ["--alpha", "0"]),
    ("compare", ["--alpha", "-1"]),
    ("compare", ["--nu", "0", "--scheme", "brute"]),
    ("compare", ["--budget", "-1", "--scheme", "brute"]),
    ("train", ["--seed", "-3"]),
    ("bcd", ["--seed", "-3"]),
    ("compare", ["--seed", "-3"]),
    ("train", ["--lr", "nan"]),
    ("bcd", ["--max-outer-iters", "0"]),
    ("bcd", ["--alpha", "inf"]),
    ("compare", ["--alpha", "nan"]),
    ("compare", ["--alpha", "inf"]),
    ("bcd", ["--alpha", "1e308"]),        # finite, but the utility overflows
    ("compare", ["--alpha", "1e308"]),
    ("train", ["--alpha", "1e308"]),
])
def test_out_of_domain_flags_are_config_errors(tmp_path, dataset, capsys, command, flags):
    rc = main([command, "--data", str(dataset), *flags, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert flags[0] in capsys.readouterr().err


@pytest.mark.parametrize("command,out", [
    ("generate", "file"),             # a directory command given a file
    ("bcd", "file"),
    ("bcd", "file/solve"),            # or a path below a file
    ("train", "dir"),                 # a file command given a directory
    ("compare", "dir"),
    ("compare", "t.csv"),             # whose sidecar t.csv.timing.csv is a directory
    ("train", "dir/missing/m.ckpt"),  # or a file in no directory
])
def test_out_of_the_wrong_kind_is_a_config_error(tmp_path, dataset, capsys, command, out):
    (tmp_path / "file").write_text("keep")
    (tmp_path / "dir").mkdir()
    (tmp_path / "t.csv.timing.csv").mkdir()
    source = (["--n-train", "1", "--n-val", "1"] if command == "generate"
              else ["--data", str(dataset)])
    rc = main([command, *source, "--out", str(tmp_path / out)])
    assert rc == 2
    assert "--out" in capsys.readouterr().err
    assert (tmp_path / "file").read_text() == "keep" and not any((tmp_path / "dir").iterdir())
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("command,blocked", [
    ("generate", "records.bin"), ("generate", "manifest.json"),
    ("bcd", "trace.csv"), ("bcd", "result.json"),
])
def test_out_file_taken_by_a_directory_is_a_config_error(tmp_path, dataset, capsys, command,
                                                         blocked):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    source = (["--n-train", "1", "--n-val", "1"] if command == "generate"
              else ["--data", str(dataset)])
    rc = main([command, *source, "--out", str(out)])
    assert rc == 2
    assert f"--out: {out / blocked} is a directory" in capsys.readouterr().err
    # refused before any work: nothing was written beside the directory
    assert [p.name for p in out.iterdir()] == [blocked]


@pytest.mark.parametrize("corrupt", [
    lambda blob: blob[:8],                                  # cut inside the header
    lambda blob: blob[:12] + b"X" + blob[13:],              # metadata no longer JSON
    lambda blob: blob.replace(b'"arch"', b'"arcX"', 1),     # metadata key missing
    lambda blob: blob + bytes(22),                          # bytes after the payload
])
def test_malformed_checkpoint_is_data_error(tmp_path, dataset, capsys, corrupt):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_model(MlpArch(input_dim=4, phase_dim=4, alloc_users=2,
                                             alloc_cols=2, hidden=(3,))))
    ckpt.write_bytes(corrupt(ckpt.read_bytes()))
    rc = main(["compare", "--data", str(dataset), "--scheme", "nn", "--model", str(ckpt),
               "--out", str(tmp_path / "c.csv")])
    assert rc == 3
    assert "checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["missing.ckpt", "dir"])
def test_unreadable_checkpoint_is_data_error(tmp_path, dataset, capsys, model):
    (tmp_path / "dir").mkdir()
    rc = main(["compare", "--data", str(dataset), "--scheme", "nn", "--model",
               str(tmp_path / model), "--out", str(tmp_path / "c.csv")])
    assert rc == 3
    assert "cannot read checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_unreadable_records_are_data_error(tmp_path, dataset, capsys):
    (dataset / "records.bin").unlink()
    (dataset / "records.bin").mkdir()
    rc = main(["compare", "--data", str(dataset), "--out", str(tmp_path / "c.csv")])
    assert rc == 3
    assert "cannot read dataset" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--alpha", "300"), ("--lr", "1e200")], ids=["alpha", "lr"])
def test_training_that_overflows_at_large_alpha_is_a_config_error(tmp_path, capsys, flag, value):
    data, ckpt = tmp_path / "ds", tmp_path / "m.ckpt"
    assert main(["generate", "--profile", "desk", "--n-train", "2", "--n-val", "2",
                 "--out", str(data)]) == 0
    rc = main(["train", "--data", str(data), flag, value, "--out", str(ckpt)])
    assert rc == 2
    assert flag in capsys.readouterr().err
    assert not ckpt.exists() and not Path(str(ckpt) + ".history.csv").exists()


def test_float32_training_alpha_range_on_the_readme_desk_set(tmp_path):
    # README: on 6 + 2 desk drops, seed 0, train runs at alpha 30 and exits 2 at 40
    data = tmp_path / "ds"
    assert main(["generate", "--profile", "desk", "--n-train", "6", "--n-val", "2", "--seed", "0",
                 "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--alpha", "30", "--out", str(tmp_path / "30.ckpt")]) == 0
    ckpt = tmp_path / "40.ckpt"
    src = str(Path(risalloc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "risalloc", "train", "--data", str(data),
                           "--alpha", "40", "--out", str(ckpt)], env=env, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "--alpha" in proc.stderr and "Traceback" not in proc.stderr
    assert not ckpt.exists() and not Path(str(ckpt) + ".history.csv").exists()


def test_a_scenario_numpy_cannot_allocate_is_a_config_error(tmp_path):
    # a 10^6 x 10^6 surface asks numpy for 7.28 TiB at once; the child caps its
    # address space first, so the refusal does not depend on the host's
    # overcommit policy and nothing large is ever touched
    huge = dataclasses.replace(tiny_scenario(), ris_side=10**6)
    cfg = write_config(tmp_path / "huge.json", scenario=huge)
    child = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30)); "
             "from risalloc.cli import main; sys.exit(main(sys.argv[1:]))")
    src = str(Path(risalloc.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", child, "generate", "--config", cfg,
                           "--out", str(tmp_path / "ds")], env=env, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: ") and "more memory" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("field,edited", [("alloc_users", 3), ("phase_dim", 5)])
def test_checkpoint_metadata_must_match_its_arrays(tmp_path, dataset, cfg_path, capsys,
                                                   field, edited):
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(dataset), "--config", cfg_path,
                 "--max-epochs", "2", "--out", str(ckpt)]) == 0
    blob = ckpt.read_bytes()
    model, _, _ = load_checkpoint(ckpt)
    old = f'"{field}": {getattr(model.arch, field)}'.encode()
    assert blob.count(old) == 1 and len(old) == len(f'"{field}": {edited}')
    ckpt.write_bytes(blob.replace(old, f'"{field}": {edited}'.encode()))
    rc = main(["compare", "--data", str(dataset), "--scheme", "nn+pca",
               "--model", str(ckpt), "--out", str(tmp_path / "c.csv")])
    assert rc == 3
    assert "checkpoint arrays" in capsys.readouterr().err


def test_compare_rejects_model_that_does_not_fit_dataset(tmp_path, dataset, cfg_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(dataset), "--config", cfg_path,
                 "--max-epochs", "2", "--out", str(ckpt)]) == 0
    three = write_config(tmp_path / "three.json",
                         scenario=ScenarioConfig(n_bs_antennas=2, ris_side=2, num_ues=3))
    other = tmp_path / "three_users"
    assert main(["generate", "--config", three, "--n-train", "2", "--n-val", "1",
                 "--out", str(other)]) == 0
    rc = main(["compare", "--data", str(other), "--scheme", "nn+pca",
               "--model", str(ckpt), "--out", str(tmp_path / "c.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "does not fit the dataset" in err and "alloc_users 2" in err
    assert not (tmp_path / "c.csv").exists()


def test_manifest_split_sizes_checked(tmp_path, dataset, capsys):
    manifest = dataset / "manifest.json"
    manifest.write_text(manifest.read_text().replace('"n_train": 6', '"n_train": 5000'))
    rc = main(["compare", "--data", str(dataset), "--split", "train",
               "--out", str(tmp_path / "c.csv")])
    assert rc == 3
    assert "split sizes" in capsys.readouterr().err


def _rewrite_record(dataset, index, edit):
    """Apply ``edit`` to record ``index``'s arrays and store it with a fresh CRC."""
    rec = dataset / "records.bin"
    blob = rec.read_bytes()
    pos = 8
    for _ in range(index):
        pos += 20 + struct.unpack_from("<Q", blob, pos)[0]
    length, seed, _ = struct.unpack_from("<QQI", blob, pos)
    arrays, _, error = read_named_arrays(io.BytesIO(blob[pos + 20:pos + 20 + length]), length)
    assert error is None
    edit(arrays)
    payload = io.BytesIO()
    crc, size = write_named_arrays(payload, arrays)
    rec.write_bytes(blob[:pos] + struct.pack("<QQI", size, seed, crc)
                    + payload.getvalue() + blob[pos + 20 + length:])


@pytest.mark.parametrize("command", ["train", "compare"])
def test_non_finite_dataset_is_data_error(tmp_path, dataset, cfg_path, capsys, command):
    def put_nan(arrays):  # a NaN written before the CRC was computed passes the CRC check
        arrays["g_ris"][0, 0] = np.nan

    _rewrite_record(dataset, 0, put_nan)
    flags = {"train": ["--config", cfg_path, "--out", str(tmp_path / "m.ckpt")],
             "compare": ["--out", str(tmp_path / "c.csv")]}[command]
    assert main([command, "--data", str(dataset)] + flags) == 3
    assert "'g_ris' holds non-finite values" in capsys.readouterr().err


@pytest.mark.parametrize("edit,names", [
    pytest.param(lambda a: a.update(g_ris=a["g_ris"][:, :1], h_rb=a["h_rb"][:1]),
                 "'g_ris', 'h_rb'", id="smaller-surface"),
    pytest.param(lambda a: a.pop("w"), "'w'", id="missing"),
    pytest.param(lambda a: a.update(extra=np.zeros(3)), "'extra'", id="extra"),
    pytest.param(lambda a: a.update(h_direct=a["h_direct"].real), "'h_direct'", id="real-valued"),
])
@pytest.mark.parametrize("command", ["train", "bcd", "compare"])
def test_record_that_does_not_fit_its_manifest_is_data_error(tmp_path, dataset, cfg_path, capsys,
                                                              edit, names, command):
    _rewrite_record(dataset, 1, edit)
    with pytest.raises(DatasetError, match=f"record 1: arrays \\[{names}\\]"):
        load_dataset(dataset)
    flags = {"train": ["--config", cfg_path], "bcd": ["--index", "1"],
             "compare": ["--split", "all"]}[command]
    assert main([command, "--data", str(dataset), *flags, "--out", str(tmp_path / "o")]) == 3
    assert f"record 1: arrays [{names}]" in capsys.readouterr().err


@pytest.mark.parametrize("array", ["weights", "pca"])
def test_non_finite_checkpoint_is_data_error(tmp_path, dataset, cfg_path, capsys, array):
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(dataset), "--config", cfg_path,
                 "--max-epochs", "1", "--out", str(ckpt)]) == 0
    model, pca, meta = load_checkpoint(ckpt)
    (model.weights[0] if array == "weights" else pca.feature_mean)[0] = np.inf
    save_checkpoint(ckpt, model, pca, meta)
    rc = main(["compare", "--data", str(dataset), "--scheme", "nn+pca",
               "--model", str(ckpt), "--out", str(tmp_path / "c.csv")])
    assert rc == 3
    assert "non-finite values" in capsys.readouterr().err


def test_compare_empty_split(tmp_path, cfg_path, capsys):
    ds = tmp_path / "ds"
    assert main(["generate", "--config", cfg_path, "--n-train", "2",
                 "--n-val", "0", "--out", str(ds)]) == 0
    rc = main(["compare", "--data", str(ds), "--split", "val",
               "--out", str(tmp_path / "c.csv")])
    assert rc == 3


def test_compare_uniform_needs_no_more_users_than_columns(tmp_path, capsys):
    cfg = write_config(tmp_path / "three.json",
                       scenario=ScenarioConfig(n_bs_antennas=2, ris_side=2, num_ues=3))
    ds = tmp_path / "ds"
    assert main(["generate", "--config", cfg, "--n-train", "2", "--n-val", "1",
                 "--out", str(ds)]) == 0
    out = tmp_path / "c.csv"
    assert main(["compare", "--data", str(ds), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "uniform" in err and "K = 3" in err and "L = 2" in err
    assert not out.exists()
    assert main(["compare", "--data", str(ds), "--scheme", "bcd", "--out", str(out)]) == 0


def test_unknown_scheme_rejected_by_parser(dataset, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--data", str(dataset), "--scheme", "magic",
              "--out", str(tmp_path / "c.csv")])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "risalloc", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "compare" in proc.stdout


def _pipeline_bytes(tmp_path, threads):
    """generate, bcd and compare in fresh interpreters at one BLAS thread
    count; every output file's bytes, the trace without its seconds column."""
    out = tmp_path / f"threads{threads}"
    src = str(Path(risalloc.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    config = write_config(tmp_path / "config.json")
    for args in (["generate", "--config", config, "--n-train", "2", "--n-val", "1", "--seed", "5",
                  "--out", out / "ds"],
                 ["bcd", "--data", out / "ds", "--index", "0", "--out", out / "solve"],
                 ["compare", "--data", out / "ds", "--scheme", "uniform", "--scheme", "bcd",
                  "--out", out / "cmp.csv"]):
        proc = subprocess.run([sys.executable, "-m", "risalloc", *map(str, args)], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    files = {rel: (out / rel).read_bytes()
             for rel in ("ds/records.bin", "ds/manifest.json", "solve/result.json", "cmp.csv")}
    trace = (out / "solve/trace.csv").read_text().splitlines()
    files["solve/trace.csv"] = [line.rsplit(",", 1)[0] for line in trace]
    return files


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    assert _pipeline_bytes(tmp_path, 1) == _pipeline_bytes(tmp_path, 2)
