"""Command line front end: subcommands, outputs, schemas, exit codes."""

import json

import pytest

from packedhe.bench import SchemaError, load_schema, validate_schema
from packedhe.cli import main
from packedhe.federated.config import (make_synthetic_classification,
                                       save_dataset_csv, split_parties)


def run_cli(*argv):
    return main(list(argv))


def test_matmul_bench_small(tmp_path, capsys):
    code = run_cli("matmul-bench", "--sizes", "4", "--out", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert "packed" in out and "naive_lintrans" in out
    report = json.loads((tmp_path / "matmul-bench-h4.json").read_text())
    assert report["passed"] is True
    validate_schema(report, load_schema("bench_report"))


def test_matmul_bench_json_mode(tmp_path, capsys):
    code = run_cli("matmul-bench", "--sizes", "4", "--json",
                   "--out", str(tmp_path))
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "matmul-bench-h4"
    assert any(r["method"] == "alternating_packing" and r["analytic"]
               for r in report["rows"])


def test_matmul_bench_verdicts_embed_formula(tmp_path):
    run_cli("matmul-bench", "--sizes", "4", "--out", str(tmp_path))
    report = json.loads((tmp_path / "matmul-bench-h4.json").read_text())
    for verdict in report["verdicts"]:
        assert verdict["formula"]
        assert "expected" in verdict and "measured" in verdict


def test_matmul_bench_reproducible(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    run_cli("matmul-bench", "--sizes", "4", "--seed", "9", "--out", str(a_dir))
    run_cli("matmul-bench", "--sizes", "4", "--seed", "9", "--out", str(b_dir))
    a = (a_dir / "matmul-bench-h4.json").read_text()
    b = (b_dir / "matmul-bench-h4.json").read_text()
    assert json.loads(a)["verdicts"] == json.loads(b)["verdicts"]


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("wrong_call", [0, 1])
def test_matmul_bench_fails_on_a_wrong_product(monkeypatch, tmp_path, beta,
                                               wrong_call):
    from packedhe import matrix

    real, calls = matrix.he_mat_mult, []

    def product(a, b):
        calls.append(None)
        return real(b, a) if len(calls) - 1 == wrong_call else real(a, b)

    monkeypatch.setattr(matrix, "he_mat_mult", product)
    code = run_cli("matmul-bench", "--sizes", "4", "--beta", str(beta),
                   "--repeat", "2", "--out", str(tmp_path))
    assert code == 1 and len(calls) == 2
    report = json.loads((tmp_path / "matmul-bench-h4.json").read_text())
    failed = [v["name"] for v in report["verdicts"] if not v["passed"]]
    assert failed == ["correctness"]


def test_sign_bench_outputs_profile(tmp_path, capsys):
    code = run_cli("sign-bench", "--d", "2", "--sigma", "10",
                   "--delta", str(2.0 ** -10), "--grid-size", "20000",
                   "--out", str(tmp_path))
    assert code == 0
    csv_text = (tmp_path / "sign_error_profile.csv").read_text()
    header, first = csv_text.splitlines()[:2]
    assert header == "m,composite_value,abs_error"
    m, v, e = (float(x) for x in first.split(","))
    assert abs(e - abs(v - 1.0)) < 1e-15
    report = json.loads((tmp_path / "sign-bench.json").read_text())
    assert report["passed"] is True


def test_sign_bench_wall_time_covers_grid_evaluation(monkeypatch, capsys):
    import time

    import packedhe.cli as cli

    def slow_eval(grid, spec):
        time.sleep(0.02)
        return real_eval(grid, spec)

    real_eval = cli.eval_composite
    monkeypatch.setattr(cli, "eval_composite", slow_eval)
    run_cli("sign-bench", "--d", "2", "--sigma", "10", "--grid-size", "20000",
            "--json")
    report = json.loads(capsys.readouterr().out)
    assert report["wall_time_ms"] >= 20.0


@pytest.mark.parametrize("d, tallies", [(1, (2, 1, 3)), (2, (3, 1, 4)),
                                         (4, (4, 3, 7)), (6, (5, 5, 10))])
def test_sign_bench_reports_one_stages_products(d, tallies, capsys):
    code = run_cli("sign-bench", "--d", str(d), "--sigma", "10",
                   "--delta", "0.015625", "--grid-size", "20000", "--json")
    report = json.loads(capsys.readouterr().out)
    row = report["rows"][0]
    assert (row["stage_ct_mults"], row["stage_pt_mults"],
            row["stage_rescales"]) == tallies
    verdict, = [v for v in report["verdicts"]
                if v["name"] == "stage ciphertext products"]
    assert verdict["passed"] and code == 0


def test_sign_bench_depth_monotone_in_sigma(capsys):
    run_cli("sign-bench", "--d", "2", "--sigma", "8", "--grid-size", "20000",
            "--json")
    low = json.loads(capsys.readouterr().out)["rows"][0]["depth_k"]
    run_cli("sign-bench", "--d", "2", "--sigma", "20", "--grid-size", "20000",
            "--json")
    high = json.loads(capsys.readouterr().out)["rows"][0]["depth_k"]
    assert low <= high


def _write_train_fixture(tmp_path, parties=2):
    x, y = make_synthetic_classification(samples=40, features=4, classes=2,
                                         seed=5)
    for p, (sx, sy) in enumerate(split_parties(x, y, parties, seed=1)):
        save_dataset_csv(tmp_path / f"party_{p}.csv", sx, sy)
    tx, ty = make_synthetic_classification(samples=16, features=4, classes=2,
                                           seed=6)
    save_dataset_csv(tmp_path / "test.csv", tx, ty)
    config = {
        "neurons": [2],
        "learning_rate": 0.05,
        "global_iters": 3,
        "batch_size": 4,
        "party_count": parties,
        "activation": {"kind": "identity"},
        "seed": 11,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    return cfg


def test_train_end_to_end(tmp_path, capsys):
    cfg = _write_train_fixture(tmp_path)
    out_dir = tmp_path / "out"
    code = run_cli("train", "--config", str(cfg), "--data-dir", str(tmp_path),
                   "--out", str(out_dir))
    assert code == 0
    printed = capsys.readouterr().out
    assert "delta" in printed
    metrics = json.loads((out_dir / "metrics.json").read_text())
    validate_schema(metrics, load_schema("train_metrics"))
    assert len(metrics["rounds"]) == 3
    model = (out_dir / "model_layer_0.csv").read_text()
    assert len(model.splitlines()) == 4  # logical feature rows


def test_train_without_test_set_validates_schema(tmp_path):
    cfg = _write_train_fixture(tmp_path)
    (tmp_path / "test.csv").unlink()
    out_dir = tmp_path / "out"
    code = run_cli("train", "--config", str(cfg), "--data-dir", str(tmp_path),
                   "--out", str(out_dir))
    assert code == 0
    metrics = json.loads((out_dir / "metrics.json").read_text())
    validate_schema(metrics, load_schema("train_metrics"))
    assert metrics["rounds"][0]["test_acc"] is None


def test_train_metrics_deterministic(tmp_path):
    cfg = _write_train_fixture(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli("train", "--config", str(cfg), "--data-dir", str(tmp_path),
            "--out", str(out_a))
    run_cli("train", "--config", str(cfg), "--data-dir", str(tmp_path),
            "--out", str(out_b))
    assert (out_a / "metrics.json").read_bytes() == \
        (out_b / "metrics.json").read_bytes()


def test_train_missing_dataset_names_path(tmp_path, capsys):
    cfg = _write_train_fixture(tmp_path, parties=2)
    (tmp_path / "party_1.csv").unlink()
    code = run_cli("train", "--config", str(cfg), "--data-dir", str(tmp_path))
    assert code == 2
    assert "party_1.csv" in capsys.readouterr().err


def test_train_refused_input_exits_2_with_an_error_line(tmp_path, capsys):
    cfg = _write_train_fixture(tmp_path)
    lines = (tmp_path / "party_0.csv").read_text().splitlines()
    cells = lines[-1].split(",")
    cells[-1] = "5"     # a label beyond the config's 2 classes
    lines[-1] = ",".join(cells)
    (tmp_path / "party_0.csv").write_text("\n".join(lines) + "\n")
    code = run_cli("train", "--config", str(cfg), "--data-dir", str(tmp_path))
    assert code == 2
    assert "error: party 0's y holds label 5" in capsys.readouterr().err


def test_train_transport_failure_exits_2_with_an_error_line(
        monkeypatch, tmp_path, capsys):
    from packedhe import cli
    from packedhe.federated.transport import TransportError

    def fail(*args, **kwargs):
        raise TransportError("only 1 of 2 parties connected within 2.0 s")
    monkeypatch.setattr(cli, "run_training", fail)
    cfg = _write_train_fixture(tmp_path)
    code = run_cli("train", "--config", str(cfg), "--data-dir", str(tmp_path))
    assert code == 2
    assert "error: only 1 of 2 parties connected" in capsys.readouterr().err


def test_train_unknown_config_key(tmp_path, capsys):
    cfg = _write_train_fixture(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["momentum"] = 0.9
    cfg.write_text(json.dumps(raw))
    code = run_cli("train", "--config", str(cfg), "--data-dir", str(tmp_path))
    assert code == 2
    assert "momentum" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("party_count", 2.5), ("learning_rate", "0.1"), ("neurons", [2.5]),
    ("fig5_squared_loss", "yes"),
])
def test_train_mistyped_config_exits_2_naming_the_key(tmp_path, capsys, key,
                                                      value):
    cfg = _write_train_fixture(tmp_path)
    raw = json.loads(cfg.read_text())
    raw[key] = value
    cfg.write_text(json.dumps(raw))
    code = run_cli("train", "--config", str(cfg), "--data-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


def test_train_mistyped_activation_exits_2_naming_the_key(tmp_path, capsys):
    cfg = _write_train_fixture(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["activation"] = {"kind": "approx_relu", "d": 4.5}
    cfg.write_text(json.dumps(raw))
    code = run_cli("train", "--config", str(cfg), "--data-dir", str(tmp_path))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: d must be an integer")


def test_schema_validator_rejects_bad_reports():
    schema = load_schema("bench_report")
    with pytest.raises(SchemaError):
        validate_schema({"scenario": 42}, schema)
    with pytest.raises(SchemaError):
        validate_schema({"scenario": "x", "parameters": {}, "meter": {},
                         "rows": [], "verdicts": [], "passed": True,
                         "bogus": 1}, schema)
