import hashlib
import json

import pytest

from dpledger.cli import main


def _run(argv):
    return main(argv)


def test_run_command_writes_report(tmp_path, capsys):
    out = tmp_path / "run"
    assert _run(["run", "--scenario", "budget-155", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "savings=35.96%" in captured.out
    assert (out / "report.json").exists()
    assert (out / "budget_curve.csv").exists()


def test_run_with_config_file_and_seed_override(tmp_path):
    config = {
        "name": "from-file", "n_writes": 30, "n_queries": 10,
        "n_repeats": 2, "epsilon_t": 5.0, "seed": 1,
        "write_rate": 10, "query_rate": 10,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert _run(["run", str(path), "--seed", "9", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 9
    assert report["config"]["name"] == "from-file"


def test_config_file_can_extend_a_named_scenario(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "budget-155", "seed": 21}))
    out = tmp_path / "out"
    assert _run(["run", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["name"] == "budget-155"
    assert report["config"]["seed"] == 21


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = _run(["sweep", "--scenario", "error-150", "--epsilon-list", "1,2",
                 "--out", str(out)])
    assert code == 0
    assert (out / "error_vs_epsilon.csv").exists()
    assert "epsilon_t=1" in capsys.readouterr().out


def test_attack_command(tmp_path, capsys):
    out = tmp_path / "attack"
    assert _run(["attack", "--kind", "linking", "--out", str(out)]) == 0
    doc = json.loads((out / "attack_linking.json").read_text())
    assert "success_rate" in doc and "expected_rate" in doc
    assert _run(["attack", "--kind", "averaging", "--mode", "naive",
                 "--out", str(out)]) == 0
    assert (out / "attack_averaging.json").exists()


@pytest.mark.parametrize("mode", ["reuse", "naive"])
def test_linking_attack_rejects_a_mode(tmp_path, capsys, mode):
    # The linking attack reads one answer per trial, so no mode changes it.
    out = tmp_path / "attack"
    assert _run(["attack", "--kind", "linking", "--mode", mode, "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigInvalid"
    assert not out.exists()


@pytest.mark.parametrize("kind,knobs,bad", [
    ("linking", {"n_trials": 0}, "n_trials"),
    ("averaging", {"n": 0}, "n"),
    ("composition", {"repeats": 0}, "repeats"),
    ("composition", {"categories": 0}, "categories"),
    ("composition", {"categories": -3, "repeats": 2}, "categories"),
    # A count must be an integer: JSON true and 2.0 are not.
    ("linking", {"n_trials": True}, "n_trials"),
    ("composition", {"repeats": 2.5}, "repeats"),
    ("averaging", {"n": 2.0}, "n"),
], ids=["linking-n_trials", "averaging-n", "composition-repeats",
        "composition-categories", "composition-negative", "linking-n_trials-bool",
        "composition-repeats-float", "averaging-n-float"])
def test_attack_count_below_one_is_config_invalid(tmp_path, capsys, kind, knobs, bad):
    config = tmp_path / "knobs.json"
    config.write_text(json.dumps(knobs))
    out = tmp_path / "attack"
    assert _run(["attack", "--kind", kind, "--config", str(config), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigInvalid"
    assert f"{bad}=" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "error-150", "--seed", "-1"],
    ["init-ledger", "--scenario", "error-150", "--seed", "-1"],
    ["sweep", "--scenario", "error-150", "--seed", "-1"],
    ["attack", "--kind", "linking", "--seed", "-3"],
    ["attack", "--kind", "composition", "--seed", "-3"],
    ["attack", "--kind", "averaging", "--seed", "-3"],
], ids=["run", "init-ledger", "sweep", "attack-linking", "attack-composition",
        "attack-averaging"])
def test_negative_seed_is_config_invalid(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert _run(argv + ["--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigInvalid"
    assert "seed" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("tolerance,shown", [("-1", "-1"), ("true", "True"),
                                             ("Infinity", "inf")],
                         ids=["-1", "true", "Infinity"])
def test_linking_attack_negative_tolerance_is_config_invalid(tmp_path, capsys,
                                                             tolerance, shown):
    # A tolerance is a finite number >= 0; a bool is not a number, as in codec.
    config = tmp_path / "knobs.json"
    config.write_text(f'{{"tolerance": {tolerance}}}')
    out = tmp_path / "attack"
    assert _run(["attack", "--kind", "linking", "--config", str(config), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigInvalid"
    assert f"tolerance={shown}" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["0", "1e-7", "-1", "nan"])
@pytest.mark.parametrize("kind", ["linking", "composition", "averaging"])
def test_attack_epsilon_is_checked_first(tmp_path, capsys, kind, epsilon):
    out = tmp_path / "attack"
    assert _run(["attack", "--kind", kind, f"--epsilon={epsilon}", "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "NonPositiveEpsilon"
    assert not out.exists()


# The knobs an attack config may set: the driver's keywords but those of a flag.
_ATTACK_CONFIG_KNOBS = {
    "linking": ["dp_enabled", "n_trials", "n_writes", "tolerance"],
    "composition": ["categories", "n_writes", "repeats"],
    "averaging": ["epsilon_t", "n", "n_writes"],
}


@pytest.mark.parametrize("knobs", [
    {"bogus": 1}, {"epsilon": 2}, {"seed": 3}, {"reuse_enabled": False}, [1], "n"],
    ids=["unknown", "epsilon", "seed", "reuse_enabled", "array", "string"])
@pytest.mark.parametrize("kind", ["linking", "composition", "averaging"])
def test_attack_config_takes_only_the_drivers_other_knobs(tmp_path, capsys, kind, knobs):
    config = tmp_path / "knobs.json"
    config.write_text(json.dumps(knobs))
    out = tmp_path / "attack"
    assert _run(["attack", "--kind", kind, "--config", str(config), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigInvalid"
    assert str(_ATTACK_CONFIG_KNOBS[kind]) in err["message"]
    assert not out.exists()


def test_attack_lets_a_library_type_error_through(tmp_path, monkeypatch):
    """A ``TypeError`` raised inside the library is a fault of the library,
    not of the user's config, and is not reported as ``ConfigInvalid``."""
    from dpledger import bench

    def broken(*args, **kwargs):
        raise TypeError("a fault inside the library")

    monkeypatch.setattr(bench, "composition_attack", broken)
    config = tmp_path / "knobs.json"
    config.write_text(json.dumps({"categories": 2, "repeats": 1, "n_writes": 40}))
    with pytest.raises(TypeError, match="inside the library"):
        _run(["attack", "--kind", "composition", "--config", str(config),
              "--out", str(tmp_path / "attack")])


@pytest.mark.parametrize("dp_enabled", ["no", 0, None], ids=["string", "zero", "null"])
def test_linking_dp_enabled_must_be_a_bool(tmp_path, capsys, dp_enabled):
    config = tmp_path / "knobs.json"
    config.write_text(json.dumps({"dp_enabled": dp_enabled, "n_trials": 20, "n_writes": 40}))
    out = tmp_path / "attack"
    assert _run(["attack", "--kind", "linking", "--config", str(config), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigInvalid"
    assert "dp_enabled" in err["message"]
    assert not out.exists()


# Digests of each attack report at seed 7 with small driver knobs.
_ATTACK_SHA256 = {
    ("linking", None): "c10142d21070f5c0165bb776a2f2a3713442ebd48f280eab04978bc405077045",
    ("composition", "reuse"): "b36cb7b95621045f586dfacbf3f6affc24099c88e59db77fd5b8d7d840f7fabe",
    ("composition", "naive"): "6cc0ee634129d39ddd1471df399b582e68b83230e786709511e3eec4decdd96a",
    ("averaging", "reuse"): "605cacba0d1837ff90ba87cc926b44a5add16ff3ba53e1a13b2eee491815fb1a",
    ("averaging", "naive"): "d7e629afdf0a64bba7d2e70dec690f23a06b69b552baaa622946cac460c8738a",
}
_ATTACK_KNOBS = {
    "linking": {"n_trials": 500, "n_writes": 80},
    "composition": {"categories": 20, "repeats": 5, "n_writes": 120},
    "averaging": {"n": 20, "n_writes": 80},
}


@pytest.mark.parametrize("kind,mode", sorted(_ATTACK_SHA256, key=str))
def test_attack_report_digests(tmp_path, kind, mode):
    config = tmp_path / "knobs.json"
    config.write_text(json.dumps(_ATTACK_KNOBS[kind]))
    out = tmp_path / "attack"
    argv = ["attack", "--kind", kind, "--seed", "7", "--config", str(config), "--out", str(out)]
    assert _run(argv + (["--mode", mode] if mode else [])) == 0
    digest = hashlib.sha256((out / f"attack_{kind}.json").read_bytes()).hexdigest()
    assert digest == _ATTACK_SHA256[kind, mode]


def test_init_ledger_command(tmp_path):
    out = tmp_path / "ledger"
    assert _run(["init-ledger", "--scenario", "error-150", "--out", str(out)]) == 0
    lines = (out / "ledger.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    assert header["channel_id"] == "mychannel"
    assert len(lines) == 1 + 500


def test_export_round_trip(tmp_path):
    run_dir = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_writes": 20, "n_queries": 5, "epsilon_t": 2.0,
                               "write_rate": 10, "query_rate": 5}))
    assert _run(["run", str(cfg), "--out", str(run_dir)]) == 0
    export_dir = tmp_path / "re"
    assert _run(["export", "--report", str(run_dir / "report.json"),
                 "--out", str(export_dir)]) == 0
    for path in run_dir.iterdir():
        assert path.read_bytes() == (export_dir / path.name).read_bytes()


_SHAPED = {"config": {"name": "x", "seed": 1, "n_writes": 1, "n_queries": 1},
           "naive_eps_sum": 1.0, "reuse_eps_sum": 1.0, "savings_pct": 0.0,
           "naive": {}, "reuse": {"mean_relative_error": None, "accuracy": None},
           "rows": []}


@pytest.mark.parametrize("doc,named", [
    ({}, "'config'"),
    ([1], ""),
    ({"config": {"name": "x"}}, "'seed'"),
    ({**_SHAPED, "rows": [{"index": 0}]}, "'cum_eps_naive'"),
    ({**_SHAPED, "artifacts": {"../stray.csv": "x"}}, "'../stray.csv'"),
    ({**_SHAPED, "artifacts": {"stray.csv": 1}}, "'stray.csv'"),
], ids=["empty", "array", "no-seed", "short-row", "artifact-path", "artifact-text"])
def test_export_refuses_a_document_that_is_not_a_report(tmp_path, capsys, doc, named):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(doc))
    out = tmp_path / "out" / "re"
    assert _run(["export", "--report", str(report), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigInvalid"
    assert named in err["message"]
    assert not (tmp_path / "out").exists()


def test_errors_emit_machine_readable_json(tmp_path, capsys):
    code = _run(["run", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IoFailure"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_writes": 0}))
    code = _run(["run", str(bad), "--out", str(tmp_path)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigInvalid"

    code = _run(["attack", "--kind", "averaging", "--out", str(bad / "sub")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IoFailure"


@pytest.mark.parametrize("argv", [
    ["run", "{bad}"],
    ["init-ledger", "{bad}"],
    ["sweep", "{bad}"],
    ["attack", "--kind", "averaging", "--config", "{bad}"],
    ["export", "--report", "{bad}"],
], ids=["run", "init-ledger", "sweep", "attack", "export"])
def test_invalid_json_file_is_config_invalid(tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_writes": 5,')
    argv = [arg.format(bad=bad) for arg in argv] + ["--out", str(tmp_path / "out")]
    assert _run(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigInvalid"
    assert str(bad) in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("epsilons", ["1,x", "", " , ", "1,nan", "inf", "0", "2,-1"])
def test_sweep_rejects_a_bad_epsilon_list(tmp_path, capsys, epsilons):
    path = tmp_path / "cfg.json"  # the default schedule splits each threshold equally
    path.write_text(json.dumps({"n_writes": 20, "n_queries": 3}))
    out = tmp_path / "out"
    assert _run(["sweep", str(path), "--epsilon-list", epsilons, "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigInvalid"
    assert not out.exists()


@pytest.mark.parametrize("schedule", [
    {"kind": "uniform", "low": 0.01, "high": 1e300},
    {"kind": "uniform", "low": 0.01, "high": 2.0 ** 43},
    {"kind": "calibrated", "low": 0.01, "high": 2.0 ** 43, "fresh_total": 1.0},
], ids=["uniform-1e300", "uniform-2**43", "calibrated-2**43"])
def test_schedule_bound_numpy_cannot_draw_is_config_invalid(tmp_path, capsys, schedule):
    # 2**43 is 2**63 steps of the 2**-20 grid, one past numpy's int64 draws.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_writes": 20, "n_queries": 5, "epsilon_t": 10.0,
                                "epsilon_schedule": schedule}))
    out = tmp_path / "out"
    assert _run(["run", str(path), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigInvalid"
    assert f"high={schedule['high']!r}" in err["message"]
    assert not out.exists()


def test_run_prints_na_for_an_unanswered_pass(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_writes": 20, "n_queries": 3, "epsilon_schedule":
                                {"kind": "fixed", "value": 2.0}}))
    assert _run(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "mean relative error=n/a" in capsys.readouterr().out


def test_usage_errors_exit_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["attack", "--kind", "bogus"])
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UsageError"
