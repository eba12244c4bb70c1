"""End-to-end tests for the command-line interface."""

import json
from pathlib import Path

import numpy as np
import pytest

from mpcsyn import cli, dataio

DATA = Path(__file__).resolve().parents[1] / "data"
TOY_CSV = str(DATA / "toy.csv")
TOY_DOMAIN = str(DATA / "toy_domain.json")


def write_small_dataset(tmp_path, n=40, seed=5):
    """A 3-attribute dataset small enough for mpc runs in tests."""
    rng = np.random.default_rng(seed)
    rows = np.column_stack([rng.integers(0, c, size=n) for c in (3, 2, 4)])
    csv_path = tmp_path / "small.csv"
    dom_path = tmp_path / "small_domain.json"
    lines = ["x0,x1,x2"] + [",".join(str(v) for v in r) for r in rows]
    csv_path.write_text("\n".join(lines) + "\n")
    dom_path.write_text(json.dumps({"attrs": [
        {"name": "x0", "cardinality": 3},
        {"name": "x1", "cardinality": 2},
        {"name": "x2", "cardinality": 4},
    ]}))
    return str(csv_path), str(dom_path)


def test_usage_errors_exit_one():
    assert cli.main([]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["gen", "--data", TOY_CSV]) == 1  # missing --domain/--out


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "gen" in capsys.readouterr().out


def test_bad_inputs_exit_one(tmp_path, capsys):
    out = str(tmp_path / "s.csv")
    base = ["gen", "--domain", TOY_DOMAIN, "--out", out, "--backend", "cdp"]
    assert cli.main(base + ["--data", str(tmp_path / "missing.csv")]) == 1
    assert cli.main(base + ["--data", TOY_CSV,
                            "--partition", "horizontal:1"]) == 1
    assert cli.main(base + ["--data", TOY_CSV, "--epsilon", "-1"]) == 1
    assert cli.main(base + ["--data", TOY_CSV, "--rounds", "0"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("flag,value", [
    ("--epsilon", "inf"), ("--delta", "inf"), ("--epsilon", "1e400"),
    ("--epsilon", "nan"),
])
def test_non_finite_budget_exits_one(tmp_path, capsys, flag, value):
    out = tmp_path / "s.csv"
    assert cli.main(["gen", "--data", TOY_CSV, "--domain", TOY_DOMAIN,
                     "--out", str(out), "--backend", "cdp",
                     flag, value]) == 1
    name = "delta" if flag == "--delta" else "epsilon_total"
    assert f"error: {name} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("noise", [[], ["--noise", "lap"]], ids=["bm", "lap"])
def test_gen_subnormal_epsilon_exits_one(tmp_path, capsys, noise):
    # epsilon_measure = 5e-324 / (2 * 10) is 0.0 as a float
    out = tmp_path / "s.csv"
    assert cli.main(["gen", "--data", TOY_CSV, "--domain", TOY_DOMAIN,
                     "--out", str(out), "--epsilon", "5e-324", *noise]) == 1
    assert "error: epsilon_measure" in capsys.readouterr().err
    assert not out.exists()


def test_internal_fault_exits_two(monkeypatch, tmp_path):
    def boom(*a, **k):
        raise RuntimeError("wires crossed")
    monkeypatch.setattr(cli, "run_pipeline", boom)
    code = cli.main(["gen", "--data", TOY_CSV, "--domain", TOY_DOMAIN,
                     "--out", str(tmp_path / "s.csv"), "--backend", "cdp"])
    assert code == 2


def test_gen_writes_synthetic_and_metrics(tmp_path):
    out = tmp_path / "synth.csv"
    met = tmp_path / "metrics.json"
    code = cli.main([
        "gen", "--data", TOY_CSV, "--domain", TOY_DOMAIN,
        "--epsilon", "1.0", "--rounds", "4", "--algo", "mwem",
        "--backend", "cdp", "--seed", "11",
        "--out", str(out), "--metrics", str(met),
    ])
    assert code == 0

    synth = dataio.load_dataset(str(out), TOY_DOMAIN)
    real = dataio.load_dataset(TOY_CSV, TOY_DOMAIN)
    assert synth.n == real.n
    assert synth.schema == real.schema

    report = json.loads(met.read_text())
    assert report["workload_error"] >= 0.0
    assert len(report["per_query"]) == 5 + 10  # singletons + pairs
    assert report["seed"] == 11
    assert report["config"]["algo"] == "mwem"
    assert report["config"]["epsilon"] == 1.0
    assert report["runtime_ms"] > 0
    # central + cdp runs with no protocol traffic at all
    assert report["transcript"]["messages"] == 0
    assert report["transcript"]["bytes"] == 0


def test_gen_deterministic_across_runs(tmp_path):
    args = ["gen", "--data", TOY_CSV, "--domain", TOY_DOMAIN,
            "--rounds", "3", "--algo", "mwem", "--backend", "cdp",
            "--seed", "7"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_mpc_partitioned(tmp_path):
    data, dom = write_small_dataset(tmp_path)
    out = tmp_path / "synth.csv"
    met = tmp_path / "metrics.json"
    code = cli.main([
        "gen", "--data", data, "--domain", dom,
        "--rounds", "2", "--algo", "aim", "--noise", "lap",
        "--backend", "mpc", "--partition", "horizontal:2",
        "--seed", "2", "--out", str(out), "--metrics", str(met),
    ])
    assert code == 0
    synth = dataio.load_dataset(str(out), dom)
    assert synth.n == 40
    report = json.loads(met.read_text())
    assert report["transcript"]["messages"] > 0


def test_gen_vertical_same_csv_on_both_backends(tmp_path):
    # vertical:2 puts cross-holder queries on the equality protocol
    data, dom = write_small_dataset(tmp_path)
    written, met = {}, tmp_path / "metrics.json"
    for backend in ("mpc", "cdp"):
        out = tmp_path / f"synth-{backend}.csv"
        assert cli.main([
            "gen", "--data", data, "--domain", dom, "--rounds", "2",
            "--backend", backend, "--partition", "vertical:2",
            "--seed", "4", "--out", str(out), "--metrics", str(met),
        ]) == 0
        written[backend] = out.read_bytes()
        assert json.loads(met.read_text())["transcript"]["counters"]["eq"] > 0
    assert written["mpc"] == written["cdp"]


def test_gen_with_workload_file(tmp_path):
    wl_path = tmp_path / "wl.json"
    wl_path.write_text(json.dumps({"queries": [["a0", "a1"], ["a2"]]}))
    out = tmp_path / "synth.csv"
    met = tmp_path / "metrics.json"
    code = cli.main([
        "gen", "--data", TOY_CSV, "--domain", TOY_DOMAIN,
        "--workload", str(wl_path), "--rounds", "2", "--algo", "mwem",
        "--backend", "cdp", "--seed", "1",
        "--out", str(out), "--metrics", str(met),
    ])
    assert code == 0
    report = json.loads(met.read_text())
    assert len(report["per_query"]) == 2


@pytest.mark.parametrize("index", [9, -1])
@pytest.mark.parametrize("command", ["gen", "metrics"])
def test_workload_index_outside_schema_exits_one(tmp_path, capsys, command, index):
    wl_path = tmp_path / "wl.json"
    wl_path.write_text(json.dumps([[0, index]]))
    if command == "gen":
        argv = ["gen", "--data", TOY_CSV, "--out", str(tmp_path / "s.csv"),
                "--backend", "cdp"]
    else:
        argv = ["metrics", "--real", TOY_CSV, "--synth", TOY_CSV]
    code = cli.main(argv + ["--domain", TOY_DOMAIN, "--workload", str(wl_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"attribute index {index} in workload is outside [0, 5)" in err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("attr", ["1.7", "true"])
def test_workload_non_integer_index_exits_one(tmp_path, capsys, attr):
    wl_path = tmp_path / "wl.json"
    wl_path.write_text(f"[[{attr}]]")
    code = cli.main(["metrics", "--real", TOY_CSV, "--synth", TOY_CSV,
                     "--domain", TOY_DOMAIN, "--workload", str(wl_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert f"attribute {attr} in workload is neither a name nor an integer index" in captured.err
    assert captured.out == ""


def test_metrics_subcommand(tmp_path, capsys):
    # identical datasets score zero; stdout when --out is omitted
    code = cli.main(["metrics", "--real", TOY_CSV, "--synth", TOY_CSV,
                     "--domain", TOY_DOMAIN])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["workload_error"] == 0.0

    out = tmp_path / "report.json"
    code = cli.main(["metrics", "--real", TOY_CSV, "--synth", TOY_CSV,
                     "--domain", TOY_DOMAIN, "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["workload_error"] == 0.0


@pytest.mark.parametrize("backend", ["mpc", "cdp"])
def test_gen_empty_dataset_exits_one(tmp_path, capsys, backend):
    csv_path, dom_path = write_small_dataset(tmp_path, n=0)
    out = tmp_path / "s.csv"
    code = cli.main(["gen", "--data", csv_path, "--domain", dom_path,
                     "--out", str(out), "--backend", backend,
                     "--partition", "vertical:2", "--rounds", "2"])
    assert code == 1
    assert "error: dataset has no rows" in capsys.readouterr().err
    assert not out.exists()


def test_gen_huge_epsilon_exits_one(tmp_path, capsys):
    # one round: selection's exponent scale is 4e19 / 4 = 1e19 >= 2^62
    csv_path, dom_path = write_small_dataset(tmp_path)
    out = tmp_path / "s.csv"
    assert cli.main(["gen", "--data", csv_path, "--domain", dom_path,
                     "--out", str(out), "--epsilon", "4e19", "--rounds", "1",
                     "--noise", "lap"]) == 1
    assert "error: selection's exponent scale" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("noise,code", [("bm", 1), ("ih", 1), ("lap", 0)])
def test_gen_gaussian_epsilon_measure_one_exits_one(tmp_path, capsys,
                                                    noise, code):
    csv_path, dom_path = write_small_dataset(tmp_path)
    out = tmp_path / "s.csv"
    # epsilon_measure = 10 / (2 * 3) = 5/3
    assert cli.main(["gen", "--data", csv_path, "--domain", dom_path,
                     "--out", str(out), "--backend", "cdp", "--algo", "mwem",
                     "--epsilon", "10", "--rounds", "3",
                     "--noise", noise]) == code
    err = capsys.readouterr().err
    if code:
        assert "error: " in err and "epsilon_measure < 1" in err
    assert out.exists() == (code == 0)


_TOY_ATTRS = json.loads(Path(TOY_DOMAIN).read_text())["attrs"]


def _with_first_attr(**fields):
    return {"attrs": [dict(_TOY_ATTRS[0], **fields)] + _TOY_ATTRS[1:]}


@pytest.mark.parametrize("kind,doc", [
    ("domain", {"attrs": {"a0": {"cardinality": 3}}}),
    ("domain", {"attrs": ["a0", "a1"]}),
    ("domain", _with_first_attr(labels=5)),
    ("domain", _with_first_attr(cardinality=3.5)),
    ("workload", {"queries": "ab"}),
    ("mixed", [{"rows": [0, 2000]}]),
    ("mixed", [{"rows": [0, 2000], "attrs": [0, 1, 2]},
               {"rows": [0, 2000], "attrs": [3, -1]}]),
    ("mixed", [{"rows": [0, 2000], "attrs": [0, 1, 2]},
               {"rows": [0, 2000], "attrs": [3, 4, 4]}]),
])
def test_malformed_input_file_exits_one(tmp_path, capsys, kind, doc):
    # without the format checks, each of these raises AttributeError,
    # TypeError or KeyError (exit 2) or is coerced into another input
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "s.csv"
    argv = ["gen", "--data", TOY_CSV, "--domain", TOY_DOMAIN, "--out", str(out),
            "--backend", "cdp", "--algo", "mwem", "--rounds", "1"]
    if kind == "domain":
        argv[4] = str(path)
    elif kind == "workload":  # one-letter names: "ab" reads as queries a and b
        data, domain = tmp_path / "ab.csv", tmp_path / "ab_domain.json"
        data.write_text("a,b\n" + "0,1\n1,0\n" * 20)
        domain.write_text(json.dumps({"attrs": [{"name": "a", "cardinality": 2},
                                                {"name": "b", "cardinality": 2}]}))
        argv[2], argv[4] = str(data), str(domain)
        argv += ["--workload", str(path)]
    else:
        argv += ["--partition", f"mixed:{path}"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert not out.exists()


@pytest.mark.parametrize("kind,text,named", [
    ("workload", '{"queries": [[0], [1]], "weights": [1, Infinity]}', None),
    ("workload", '{"queries": [[0], [1]], "weights": [1, NaN]}', None),
    ("domain", json.dumps(_with_first_attr(bins=[0, 1, 2, 3]))
     .replace("[0, 1, 2, 3]", "[0, NaN, 2, 3]"), "'a0'"),
], ids=["inf-weight", "nan-weight", "nan-bin-edge"])
def test_non_finite_input_file_exits_one(tmp_path, capsys, kind, text, named):
    # Infinity weights once exited 2 with an OverflowError, NaN weights
    # exited 1 only after aggregation, and a NaN bin edge binned silently
    path = tmp_path / f"{kind}.json"
    path.write_text(text)
    out = tmp_path / "s.csv"
    argv = ["gen", "--data", TOY_CSV, "--domain", TOY_DOMAIN, "--out", str(out),
            "--algo", "aim", "--noise", "lap", "--backend", "cdp"]
    if kind == "domain":
        argv[4] = str(path)
    else:
        argv += ["--workload", str(path)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and (named or str(path)) in err
    assert not out.exists()
