import json

import pytest

from deepreservoir.cli import main
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


def test_run_single_config(tmp_path, capsys):
    cfg = ExperimentConfig(model_class=ModelClass.RES_ESN_C, task="sinmem10",
                           task_class="memory", total_units=15, alpha=0.9, beta=0.5,
                           washout=50)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    rc = main(["run", "--config", str(cfg_path), "--seeds", "2", "--length", "600",
               "--seed", "2", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "test" in capsys.readouterr().out
    assert (tmp_path / "out" / "results.csv").exists()


def test_run_loads_best_config_of_an_older_manifest(tmp_path, capsys):
    # best_config as searches wrote it while configs still carried readout_mode
    cfg = ExperimentConfig(model_class=ModelClass.RES_ESN_C, task="sinmem10",
                           task_class="memory", total_units=15, alpha=0.9, beta=0.5,
                           washout=50)
    old = dict(cfg.to_dict(), readout_mode="per-step")
    cfg_path = tmp_path / "best.json"
    cfg_path.write_text(json.dumps(old))
    assert ExperimentConfig.from_dict(old) == cfg
    rc = main(["run", "--config", str(cfg_path), "--seeds", "1", "--length", "600",
               "--seed", "2", "--out", str(tmp_path / "out")])
    assert rc == 0, capsys.readouterr().err
    assert "(0/1 failed)" in capsys.readouterr().out


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
                           task_class="memory", total_units=10, tau=0.5, washout=50)
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


def test_cli_rejects_unknown_task(capsys):
    with pytest.raises(SystemExit):
        main(["generate-data", "--task", "not-a-task"])
