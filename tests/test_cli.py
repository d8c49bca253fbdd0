import argparse
import json
import re
from pathlib import Path

import pytest

from deepreservoir.cli import build_parser, main
from deepreservoir.harness import ExperimentConfig, ModelClass
from deepreservoir.tasks import load_dataset


def test_generate_data_caches_dataset(tmp_path, capsys):
    rc = main(["generate-data", "--task", "sinmem10", "--length", "300",
               "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    ds = load_dataset(tmp_path / "data" / "sinmem10")
    assert ds.inputs.shape == (300, 1)
    assert ds.split is not None


def test_search_emits_reports(tmp_path, capsys):
    rc = main(["search", "--task", "sinmem10", "--model", "LeakyESN",
               "--budget", "2", "--seeds", "2", "--length", "600",
               "--units", "15", "--washout", "50", "--seed", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "best config" in out
    assert (tmp_path / "results.csv").exists()
    assert (tmp_path / "results.md").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["model"] == "LeakyESN"
    assert "tau" in manifest["best_config"]


def test_search_and_generate_data_write_one_dataset_manifest(tmp_path, capsys):
    common = ["--task", "sinmem10", "--length", "600", "--seed", "1"]
    assert main(["generate-data", *common, "--out", str(tmp_path / "gen")]) == 0
    assert main(["search", *common, "--model", "LeakyESN", "--budget", "1", "--seeds", "1",
                 "--units", "10", "--washout", "50", "--out", str(tmp_path / "search")]) == 0
    manifests = [json.loads((tmp_path / out / "data" / "sinmem10" / "manifest.json").read_text())
                 for out in ("gen", "search")]
    assert manifests[0] == manifests[1]
    assert manifests[0]["meta"] == {"generator": "sinmem10", "seed": 1,
                                    "task_class": "memory", "length": 600}


def test_run_single_config(tmp_path, capsys):
    cfg = ExperimentConfig(model_class=ModelClass.RES_ESN_C, task="sinmem10",
                           total_units=15, alpha=0.9, beta=0.5,
                           washout=50)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    rc = main(["run", "--config", str(cfg_path), "--seeds", "2", "--length", "600",
               "--seed", "2", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "test" in capsys.readouterr().out
    assert (tmp_path / "out" / "results.csv").exists()


def test_run_loads_best_config_of_an_older_manifest(tmp_path, capsys):
    # best_config as searches wrote it while configs still carried
    # readout_mode and task_class
    cfg = ExperimentConfig(model_class=ModelClass.RES_ESN_C, task="sinmem10",
                           total_units=15, alpha=0.9, beta=0.5,
                           washout=50)
    old = dict(cfg.to_dict(), readout_mode="per-step", task_class="memory")
    cfg_path = tmp_path / "best.json"
    cfg_path.write_text(json.dumps(old))
    assert ExperimentConfig.from_dict(old) == cfg
    rc = main(["run", "--config", str(cfg_path), "--seeds", "1", "--length", "600",
               "--seed", "2", "--out", str(tmp_path / "out")])
    assert rc == 0, capsys.readouterr().err
    assert "(0/1 failed)" in capsys.readouterr().out


def test_run_refuses_a_nan_lam_before_any_trial(tmp_path, capsys):
    # json reads NaN as a float; every trial used to fail as "non-finite metric"
    cfg = ExperimentConfig(model_class=ModelClass.LEAKY_ESN, task="sinmem10",
                           total_units=10, tau=0.5, washout=50)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()).replace('"lam": 0.0', '"lam": NaN'))
    rc = main(["run", "--config", str(cfg_path), "--seeds", "2", "--length", "600",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": "lam must lie in [0, inf), got nan"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("written, mistyped, message", [
    ('"concat": false', '"concat": "false"', "concat must be a bool, got 'false'"),
    ('"n_layers": 1', '"n_layers": 2.0', "n_layers must be an integer, got 2.0"),
    ('"config_id": 0', '"config_id": 1.5', "config_id must be an integer, got 1.5"),
    ('"washout": 50', '"washout": true', "washout must be an integer, got True"),
])
def test_run_refuses_a_mistyped_config_field_before_any_trial(tmp_path, capsys, written,
                                                              mistyped, message):
    # a "false" string used to run, and record, a concat stack
    cfg = ExperimentConfig(model_class=ModelClass.LEAKY_ESN, task="sinmem10",
                           total_units=10, tau=0.5, washout=50)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()).replace(written, mistyped))
    rc = main(["run", "--config", str(cfg_path), "--seeds", "1", "--length", "600",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": message}
    assert not (tmp_path / "out").exists()


def test_stability_command(tmp_path, capsys):
    rc = main(["stability", "--kind", "cyclic", "--layers", "2", "--units", "10",
               "--alpha", "0.4", "--beta", "0.5", "--rho", "0.9",
               "--seed", "5", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "stability" / "report.json").read_text())
    assert set(report) >= {"global_rho", "global_c", "esp_necessary_ok", "contractive"}
    assert json.loads(capsys.readouterr().out)["global_rho"] == report["global_rho"]


def test_spectra_command(tmp_path, capsys):
    rc = main(["spectra", "--kind", "identity", "--layers", "2", "--units", "10",
               "--trials", "1", "--length", "200", "--seed", "0",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "spectra" / "identity.csv").read_text().splitlines()
    assert lines[0] == "layer,bin,magnitude"
    assert len(lines) == 1 + 2 * 101
    assert "high-band energy fraction" in capsys.readouterr().out


def test_eigen_command(tmp_path, capsys):
    rc = main(["eigen", "--kind", "random", "--layers", "2", "--units", "8",
               "--seed", "0", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "eigen" / "random.csv").read_text().splitlines()
    assert lines[0] == "re,im,layer"
    assert len(lines) == 1 + 16
    as_json = json.loads((tmp_path / "eigen" / "random.json").read_text())
    assert set(as_json) == {"layer_1", "layer_2"}
    assert len(as_json["layer_1"]) == 8


@pytest.mark.parametrize("command,flag,value,field,interval", [
    ("stability", "--omega-x", "inf", "input_scaling", "[0, inf)"),
    ("eigen", "--omega-b", "nan", "bias_scaling", "[0, inf)"),
    ("stability", "--rho", "inf", "spectral_radius", "(0, inf)"),
])
def test_layer_commands_refuse_non_finite_hyperparameters(tmp_path, capsys, command, flag,
                                                           value, field, interval):
    rc = main([command, "--layers", "2", "--units", "5", flag, value, "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError",
                   "message": f"{field} must lie in {interval}, got {value}"}
    assert not (tmp_path / command).exists()


def test_report_rebuilds_markdown(tmp_path):
    rc = main(["search", "--task", "sinmem10", "--model", "ResESN_C",
               "--budget", "1", "--seeds", "1", "--length", "300",
               "--units", "10", "--washout", "20", "--seed", "4",
               "--out", str(tmp_path)])
    assert rc == 0
    md_before = (tmp_path / "results.md").read_text()
    csv_before = (tmp_path / "results.csv").read_bytes()
    (tmp_path / "results.md").unlink()
    rc = main(["report", "--results", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "results.md").read_text() == md_before
    assert (tmp_path / "results.csv").read_bytes() == csv_before


@pytest.mark.parametrize("text, missing", [
    ("", "config_id, val_mean, val_std, test_mean, test_std, n_seeds, n_failed"),
    ("config_id,val_mean,test_mean,test_std,n_seeds,n_failed\n0,0.5,0.5,0,1,0\n", "val_std"),
], ids=["empty", "missing-column"])
def test_report_refuses_a_results_csv_without_its_header(tmp_path, capsys, text, missing):
    (tmp_path / "results.csv").write_text(text)
    rc = main(["report", "--results", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert str(tmp_path / "results.csv") in err["message"]
    assert err["message"].endswith(f"(missing columns: {missing})")
    assert not (tmp_path / "results.md").exists()


@pytest.mark.parametrize("row, cells", [("0,0.5,0.1", 3), ("1,0.5,0,0.5,0,1,0,9", 8)],
                         ids=["short-row", "long-row"])
def test_report_refuses_a_row_whose_cells_differ_from_the_header(tmp_path, capsys, row, cells):
    header = "config_id,val_mean,val_std,test_mean,test_std,n_seeds,n_failed"
    (tmp_path / "results.csv").write_text(f"{header}\n0,0.5,0,0.5,0,1,0\n{row}\n")
    rc = main(["report", "--results", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError",
                   "message": f"{tmp_path / 'results.csv'} line 3 has {cells} cells, "
                              "the header has 7"}
    assert not (tmp_path / "results.md").exists()


@pytest.mark.parametrize("row, column, cell, what", [
    ("0,abc,0,0.5,0,1,0", "val_mean", "abc", "a number"),
    ("0,0.5,0,0.5,0,0.5,0", "n_seeds", "0.5", "a whole number"),
    ("x,0.5,0,0.5,0,1,0", "config_id", "x", "a whole number"),
], ids=["float-cell", "fractional-count", "text-count"])
def test_report_refuses_a_bad_cell_naming_its_file_line_and_column(tmp_path, capsys, row,
                                                                   column, cell, what):
    # these used to raise the bare "could not convert string to float: 'abc'"
    # or "invalid literal for int() with base 10: '0.5'"
    header = "config_id,val_mean,val_std,test_mean,test_std,n_seeds,n_failed"
    (tmp_path / "results.csv").write_text(f"{header}\n1,0.5,0,0.5,0,1,0\n{row}\n")
    rc = main(["report", "--results", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError",
                   "message": f"{tmp_path / 'results.csv'} line 3 column {column}: "
                              f"{cell!r} is not {what}"}
    assert not (tmp_path / "results.md").exists()


@pytest.mark.parametrize("text, cause", [
    ("{not json", " is not JSON: Expecting property name enclosed in double quotes: "
                  "line 1 column 2 (char 1)"),
    ("[1, 2]", " holds a list, not a JSON object"),
    ('{"task": "sinmem10", "tau": 0.5}', " names no model_class"),
], ids=["not-json", "not-an-object", "no-model-class"])
def test_run_refuses_a_config_file_that_is_no_config_naming_the_file(tmp_path, capsys, text,
                                                                     cause):
    # a list used to fail as "cannot convert dictionary update sequence
    # element #0 to a sequence", a missing model_class as the bare 'model_class'
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text)
    rc = main(["run", "--config", str(cfg_path), "--seeds", "1", "--out", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": f"{cfg_path}{cause}"}
    assert not (tmp_path / "out").exists()


def test_failure_emits_machine_readable_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    rc = main(["run", "--config", str(missing), "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "error" in err and "message" in err


def test_search_rejects_zero_length(tmp_path, capsys):
    rc = main(["search", "--task", "sinmem10", "--model", "LeakyESN", "--length", "0",
               "--budget", "1", "--seeds", "1", "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": "task length must be >= 1, got 0"}


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_search_rejects_fewer_than_one_job(tmp_path, capsys, jobs):
    rc = main(["search", "--task", "sinmem10", "--model", "LeakyESN", "--length", "300",
               "--budget", "1", "--seeds", "1", "--washout", "20", "--jobs", jobs,
               "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": f"jobs must be >= 1, got {jobs}"}


@pytest.mark.parametrize("refused", [["--budget", "0"], ["--jobs", "0"]])
def test_refused_search_leaves_no_dataset_cache(tmp_path, capsys, refused):
    rc = main(["search", "--task", "sinmem10", "--model", "LeakyESN", "--length", "300",
               "--budget", "1", "--seeds", "1", "--washout", "20", *refused,
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ValueError"
    assert not (tmp_path / "out" / "data").exists()


def test_spectra_rejects_short_length_before_any_trial(tmp_path, capsys):
    rc = main(["spectra", "--kind", "identity", "--layers", "2", "--units", "10",
               "--trials", "1", "--length", "3", "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError",
                   "message": "band split needs a length of at least 5 steps, got 3"}
    assert not (tmp_path / "spectra").exists()


@pytest.mark.parametrize("command", ["search", "run"])
def test_zero_seeds_rejected(tmp_path, capsys, command):
    cfg = ExperimentConfig(model_class=ModelClass.LEAKY_ESN, task="sinmem10",
                           total_units=10, tau=0.5, washout=50)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    args = {"search": ["--task", "sinmem10", "--model", "LeakyESN", "--budget", "1"],
            "run": ["--config", str(cfg_path)]}[command]
    rc = main([command, *args, "--seeds", "0", "--length", "600",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError",
                   "message": "no seeds to run: a configuration needs at least one seed"}


@pytest.mark.parametrize("command,args", [
    ("search", ["--task", "sinmem10", "--model", "LeakyESN", "--budget", "1", "--length", "600"]),
    ("stability", ["--layers", "2", "--units", "5"]),
])
def test_negative_seed_is_refused_by_name(tmp_path, capsys, command, args):
    rc = main([command, *args, "--seed", "-1", "--out", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": "seed must be >= 0, got -1"}
    assert not (tmp_path / "out").exists()


def test_cli_rejects_unknown_task(capsys):
    with pytest.raises(SystemExit):
        main(["generate-data", "--task", "not-a-task"])


ROOT = Path(__file__).resolve().parents[1]


def _unset_options(parser: argparse.ArgumentParser, texts: list[str]) -> list[str]:
    """The options of parser's commands that no text sets: "--seed" is set
    by a text that holds it as a whole word, and "--seeds" does not set it."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {option for command in commands.choices.values() for action in command._actions
               for option in action.option_strings if option not in ("-h", "--help")}
    words = {option: re.compile(rf"(?<![\w-]){re.escape(option)}(?![\w-])") for option in options}
    return sorted(option for option, word in words.items()
                  if not any(word.search(text) for text in texts))


def test_every_cli_option_is_set_by_a_test_the_readme_or_the_benchmark():
    paths = [ROOT / "README.md", *(ROOT / "tests").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
    unset = _unset_options(build_parser(), [path.read_text() for path in paths])
    assert not unset, f"no test, README line or benchmark script sets {', '.join(unset)}"


def test_the_check_sees_an_unset_option():
    parser = argparse.ArgumentParser()
    commands = parser.add_subparsers()
    commands.add_parser("a").add_argument("--depth")
    b = commands.add_parser("b")
    b.add_argument("--width")
    b.add_argument("--widths")
    assert _unset_options(parser, ["a --depth 2", "b --widths 3"]) == ["--width"]
