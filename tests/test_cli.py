"""Command-line front-end: sweep/verify/simulate plumbing and formats.

Runs ``main`` in-process and checks emitted values against the library,
output byte-stability, and the exit-code contract (0 ok, 1 verification,
decode or scheduling failure, 2 usage errors and refused sizes).
"""

import csv
import hashlib
import io
import json
import pathlib
import re
import shlex
import time
from fractions import Fraction as Frac

import pytest

import coopcache.bounds as bounds
import coopcache.centralized as centralized
import coopcache.cli as cli
import coopcache.decentralized as decentralized
import coopcache.simulator as simulator
from coopcache import (
    SchedulingError,
    SystemConfig,
    centralized_delay,
    decentralized_delay,
    lower_bound,
)
from coopcache.cli import main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_default_grid(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = _run(capsys, ["sweep", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 11  # M = 0, 2, ..., 20
    by_m = {row["M"]: row for row in rows}
    cfg = SystemConfig(20, 10, 4, alpha_max=5)
    assert by_m["4"]["T_upper"] == str(centralized_delay(cfg))
    assert by_m["4"]["T_lower"] == str(lower_bound(cfg).T_lower)
    assert by_m["4"]["G_c"] == "1/3"
    assert by_m["4"]["G_p"] == "2/9"
    assert by_m["4"]["T_upper_float"] == "0.888888888889"
    # no caches: cooperation gain degenerates, parallel gain is undefined
    assert by_m["0"]["G_c"] == "1"
    assert by_m["0"]["G_p"] == ""


def test_sweep_output_is_byte_stable(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _run(capsys, ["sweep", "--out", str(a)])
    _run(capsys, ["sweep", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_sweep_decentralized_values(capsys):
    code, out, _ = _run(
        capsys,
        ["sweep", "--scheme", "decentralized", "--N", "8", "--K", "8",
         "--alpha-max", "4", "--grid", "0:1:1/4", "--format", "json"],
    )
    assert code == 0
    rows = json.loads(out)
    assert [row["p"] for row in rows] == ["0", "1/4", "1/2", "3/4", "1"]
    for row in rows:
        cfg = SystemConfig(8, 8, Frac(row["p"]) * 8, alpha_max=4)
        assert row["T_upper"] == str(decentralized_delay(cfg))
    assert rows[0]["G_c"] == ""  # empty cache: gains undefined


def test_sweep_bounds_rows(capsys):
    code, out, _ = _run(
        capsys,
        ["sweep", "--scheme", "bounds", "--N", "20", "--K", "10",
         "--alpha-max", "5", "--grid", "0,4"],
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["T_lower"] == "10"
    assert rows[0]["cut_server"] == "10"
    assert rows[1]["M"] == "4"
    assert rows[1]["regime"].startswith("flexible/")


def test_sweep_json_matches_csv(tmp_path, capsys):
    args = ["sweep", "--grid", "2,6"]
    _, csv_text, _ = _run(capsys, args + ["--format", "csv"])
    _, json_text, _ = _run(capsys, args + ["--format", "json"])
    csv_rows = list(csv.DictReader(io.StringIO(csv_text)))
    json_rows = json.loads(json_text)
    assert [dict(r) for r in csv_rows] == json_rows


def test_sweep_config_file_merges_under_flags(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"scheme": "decentralized", "N": 8, "K": 8,
                               "alpha_max": 2, "grid": "1/2"}))
    code, out, _ = _run(capsys, ["sweep", "--config", str(cfg), "--alpha-max", "4"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["alpha_max"] == "4"  # flag wins over the file
    assert rows[0]["T_upper"] == str(
        decentralized_delay(SystemConfig(8, 8, 4, alpha_max=4))
    )


def test_sweep_config_file_refuses_an_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"scheme": "bounds", "alpah_max": 1}))
    code, out, err = _run(capsys, ["sweep", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert err == f"error: unknown key(s) in {cfg}: alpah_max\n"
    cfg.write_text("[1]")
    code, _, err = _run(capsys, ["sweep", "--config", str(cfg)])
    assert code == 2
    assert err == f"error: {cfg} must hold a JSON object\n"


@pytest.mark.parametrize(
    "entry,message",
    [
        ({"N": 20.7}, "N must be an integer, got 20.7"),
        ({"K": True}, "K must be an integer, got True"),
        ({"grid": 5}, "grid must be a string or a list of integers and 'p/q' "
                      "strings, got 5"),
        ({"grid": [0, 0.5]}, "grid must be a string or a list of integers and "
                             "'p/q' strings, got [0, 0.5]"),
    ],
    ids=["N-float", "K-bool", "grid-int", "grid-float-entry"],
)
def test_sweep_config_file_refuses_a_mistyped_value(entry, message, tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(entry))
    code, out, err = _run(capsys, ["sweep", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_sweep_config_file_grid_list_takes_ints_and_fractions(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"scheme": "bounds", "N": 6, "K": 6,
                               "alpha_max": 3, "grid": [0, "5/3"]}))
    code, out, _ = _run(capsys, ["sweep", "--config", str(cfg)])
    assert code == 0
    assert [row["M"] for row in csv.DictReader(io.StringIO(out))] == ["0", "5/3"]


@pytest.mark.parametrize(
    "argv,config",
    [
        (["sweep", "--grid", "1/0"], None),
        (["sweep", "--grid", "0:1:1/0"], None),
        (["sweep", "--config", "{config}"], {"grid": [0, "1/0"]}),
        (["simulate", "--scheme", "centralized", "--N", "4", "--K", "4",
          "--M", "1/0"], None),
        (["simulate", "--scheme", "centralized", "--N", "4", "--K", "4",
          "--M", "2", "--server-share", "1/0"], None),
    ],
    ids=["sweep-grid", "sweep-grid-step", "sweep-config-grid", "simulate-M",
         "simulate-server-share"],
)
def test_a_zero_denominator_exits_2(argv, config, tmp_path, capsys):
    path = tmp_path / "sweep.json"
    if config is not None:
        path.write_text(json.dumps(config))
    code, out, err = _run(capsys, [a.format(config=path) for a in argv])
    assert code == 2
    assert out == ""
    assert err == "error: '1/0' has a zero denominator\n"


def test_sweep_usage_errors(capsys):
    code, _, err = _run(capsys, ["sweep", "--N", "5", "--K", "10"])
    assert code == 2
    assert "error:" in err
    code, _, err = _run(capsys, ["sweep", "--grid", "0:10:0"])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scheme", "nonsense"])
    assert exc.value.code == 2


def test_sweep_range_error_names_the_default_grid(tmp_path, capsys):
    code, out, err = _run(capsys, ["sweep", "--N", "4", "--K", "4"])
    assert (code, out) == (2, "")
    assert err == (
        "error: grid value 6 outside [0, 4] in the default grid 0:20:2; pass --grid\n"
    )
    # a grid the user gave, by flag or config file, is named as before
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"grid": "0:20:2"}))
    for given in (["--grid", "0:20:2"], ["--config", str(cfg)]):
        code, out, err = _run(capsys, ["sweep", "--N", "4", "--K", "4", *given])
        assert (code, out, err) == (2, "", "error: grid value 6 outside [0, 4]\n")


def test_sweep_refuses_an_oversized_grid_before_building_it(capsys, monkeypatch):
    argv = ["sweep", "--scheme", "bounds", "--N", "2", "--K", "2",
            "--alpha-max", "1", "--grid", "0:1:1/10"]  # 11 values
    monkeypatch.setattr(cli, "MAX_USER_SYMBOLS", 11)
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out.count("\n") == 1 + 11
    monkeypatch.setattr(cli, "MAX_USER_SYMBOLS", 10)
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: grid 0:1:1/10 has 11 values, above the limit of 10\n"
    monkeypatch.undo()
    # at the real limit, a billion values are refused by their count alone
    code, out, err = _run(capsys, ["sweep", "--grid", "0:1:1/1000000000"])
    assert (code, out) == (2, "")
    assert "has 1000000001 values, above the limit of 500000" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# SHA-256 of the stdout of ``verify`` and of the benchmark's three sweeps,
# recorded before the analytic path moved to integer arithmetic
PINNED_ANALYTIC_STDOUT = [
    (["verify"],
     "0eb75f9bdcdceda8a4e9cc64c959c410f74be1ebdd5e0b81e09cc4a10a919af4"),
    (["sweep", "--scheme", "centralized", "--N", "20", "--K", "10",
      "--alpha-max", "5", "--grid", "0:20:1/2"],
     "1ee3e437ff5e909b9b6fa990167f2ef7ce8219ac90e7b5759954f88cd71459f2"),
    (["sweep", "--scheme", "bounds", "--N", "20", "--K", "10",
      "--alpha-max", "5", "--grid", "0:20:1/2"],
     "b9fb731338618faf9075a253924917c39db49d5b7a0e586552b90af72fd5e227"),
    (["sweep", "--scheme", "decentralized", "--N", "20", "--K", "10",
      "--alpha-max", "5", "--grid", "1/100:99/100:1/100"],
     "218e07a4b897e0fca471771d0cc89062c3caf851d03431fd58ac4e6cf20e690d"),
]


@pytest.mark.parametrize(
    "argv,digest", PINNED_ANALYTIC_STDOUT, ids=["verify", "central", "bounds", "decentral"]
)
def test_analytic_output_bytes_are_pinned(argv, digest, capsys):
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_small_grid_passes(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "centralized_gap": {"K": [2, 5], "N_max_multiple": 1,
                            "alpha_max_choices": [1, "half"]},
        "decentralized_gap": {"K": [3, 5], "p_grid_denominator": 8},
    }))
    code, out, _ = _run(capsys, ["verify", "--grid", str(grid)])
    assert code == 0
    assert "verification PASSED" in out
    assert "centralized gap <= 31" in out
    assert "decentralized branch bounds" in out
    assert "p_th strictly decreasing" in out


def test_verify_refuses_an_oversized_grid_before_enumerating(tmp_path, capsys, monkeypatch):
    grid = tmp_path / "grid.json"
    spec = {
        "centralized_gap": {"K": [2, 5], "N_max_multiple": 1,
                            "alpha_max_choices": [1, "half"]},
        "decentralized_gap": {"K": [3, 5], "p_grid_denominator": 8},
    }
    grid.write_text(json.dumps(spec))
    sizes = (len(list(bounds.centralized_gap_grid(spec))),
             len(list(bounds.decentralized_gap_grid(spec))))
    assert sizes == bounds.gap_grid_sizes(spec) == (23, 35)
    monkeypatch.setattr(cli, "MAX_USER_SYMBOLS", 35)
    code, out, _ = _run(capsys, ["verify", "--grid", str(grid)])
    assert code == 0
    assert "on 23 points" in out and "on 35 points" in out

    def refuse(spec):
        raise AssertionError("grid enumerated")

    # the certifications are what enumerate a grid in ``cmd_verify``
    monkeypatch.setattr(cli, "certify_centralized", refuse)
    monkeypatch.setattr(cli, "certify_decentralized", refuse)
    monkeypatch.setattr(cli, "MAX_USER_SYMBOLS", 34)
    code, out, err = _run(capsys, ["verify", "--grid", str(grid)])
    assert (code, out) == (2, "")
    assert err == (
        "error: decentralized gap grid has 35 points, above the limit of 34\n"
    )
    monkeypatch.setattr(cli, "MAX_USER_SYMBOLS", 22)
    code, out, err = _run(capsys, ["verify", "--grid", str(grid)])
    assert err == "error: centralized gap grid has 23 points, above the limit of 22\n"
    # at the real limit: the shipped centralized grid with K up to 400
    spec["centralized_gap"] = {"K": [2, 400], "N_max_multiple": 2,
                               "alpha_max_choices": [1, 2, "half"]}
    grid.write_text(json.dumps(spec))
    monkeypatch.undo()
    monkeypatch.setattr(cli, "certify_centralized", refuse)
    code, out, err = _run(capsys, ["verify", "--grid", str(grid)])
    assert (code, out) == (2, "")
    assert err == (
        "error: centralized gap grid has 64480708 points, above the limit of 500000\n"
    )


def test_verify_empty_grid_warns(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "centralized_gap": {"K": [5, 4], "N_max_multiple": 1,
                            "alpha_max_choices": [1]},
        "decentralized_gap": {"K": [5, 4], "p_grid_denominator": 8},
    }))
    code, out, _ = _run(capsys, ["verify", "--grid", str(grid)])
    assert code == 0
    assert "empty grid" in out


@pytest.mark.parametrize("scheme", ["centralized", "decentralized", "bounds"])
def test_sweep_empty_grid_warns_on_stderr(scheme, tmp_path, capsys):
    argv = ["sweep", "--scheme", scheme, "--N", "4", "--K", "4", "--alpha-max", "2",
            "--grid", "4:0:1" if scheme != "decentralized" else "1:0:1/2"]
    assert _run(capsys, argv) == (0, "", "warning: empty grid — no rows\n")
    path = tmp_path / "rows.csv"
    assert _run(capsys, [*argv, "--out", str(path)]) == (
        0, "", "warning: empty grid — no rows\n"
    )
    assert path.read_text() == ""
    # an output that cannot be written is refused alone, with no warning
    unwritable = str(tmp_path / "missing" / "rows.csv")
    code, out, err = _run(capsys, [*argv, "--out", unwritable])
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "spec,message",
    [
        ({}, "grid spec {grid} lacks centralized_gap, decentralized_gap"),
        (
            {
                "centralized_gap": {"K": [2, 3], "alpha_max_choices": [1]},
                "decentralized_gap": {"K": [3, 3], "p_grid_denominator": 4},
            },
            "grid spec {grid} lacks centralized_gap.N_max_multiple",
        ),
        ([1], "{grid} must hold a JSON object"),
        (
            {
                "centralized_gap": {"K": [1, 3], "N_max_multiple": 1,
                                    "alpha_max_choices": [1]},
                "decentralized_gap": {"K": [3, 3], "p_grid_denominator": 4},
            },
            "grid spec {grid}: centralized_gap.K must start at 2 or above, got [1, 3]",
        ),
        (
            {
                "centralized_gap": {"K": [2, 3], "N_max_multiple": 1,
                                    "alpha_max_choices": [1]},
                "decentralized_gap": {"K": [0, 4], "p_grid_denominator": 4},
            },
            "grid spec {grid}: decentralized_gap.K must start at 2 or above, got [0, 4]",
        ),
    ],
    ids=["empty-object", "missing-key", "not-an-object", "central-K-below-2",
         "decentral-K-below-2"],
)
def test_verify_refuses_a_malformed_grid(spec, message, tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(spec))
    code, out, err = _run(capsys, ["verify", "--grid", str(grid)])
    assert code == 2
    assert out == ""
    assert err == f"error: {message.format(grid=grid)}\n"


@pytest.mark.parametrize(
    "section,key,value,want",
    [
        ("centralized_gap", "K", 5, "a list of two integers"),
        ("decentralized_gap", "K", [3, 4, 5], "a list of two integers"),
        ("centralized_gap", "N_max_multiple", True, "an integer"),
        ("decentralized_gap", "p_grid_denominator", 100.0, "an integer"),
        ("centralized_gap", "alpha_max_choices", [1, "third"],
         'a list of integers and "half"'),
        ("centralized_gap", "alpha_max_choices", "half",
         'a list of integers and "half"'),
    ],
    ids=["K-int", "K-three", "N_max_multiple-bool", "p_grid_denominator-float",
         "alpha_max_choices-entry", "alpha_max_choices-str"],
)
def test_verify_refuses_a_mistyped_grid_value(section, key, value, want, tmp_path, capsys):
    spec = {
        "centralized_gap": {"K": [2, 3], "N_max_multiple": 1,
                            "alpha_max_choices": [1, "half"]},
        "decentralized_gap": {"K": [3, 3], "p_grid_denominator": 4},
    }
    spec[section][key] = value
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(spec))
    code, out, err = _run(capsys, ["verify", "--grid", str(grid)])
    assert code == 2
    assert out == ""
    assert err == (
        f"error: grid spec {grid}: {section}.{key} must be {want}, "
        f"got {value!r}\n"
    )


def test_verify_reports_failure_with_exit_1(tmp_path, capsys, monkeypatch):
    from coopcache.bounds import CentralizedGapReport, GapPoint

    bad = CentralizedGapReport()
    bad.points = 1
    bad.worst = GapPoint(SystemConfig(4, 4, 1, alpha_max=2), Frac(99), "middle/p<p_th")
    bad.violations = [bad.worst]
    monkeypatch.setattr(cli, "certify_centralized", lambda spec: bad)
    code, out, _ = _run(capsys, ["verify"])
    assert code == 1
    assert "verification FAILED" in out
    assert "violation" in out
    assert "  violation: ratio 99.000 at K=4 N=4 M=1 alpha_max=2" in out.splitlines()


def test_verify_decides_and_labels_the_high_t_line_from_the_report(monkeypatch, capsys):
    from coopcache.bounds import CentralizedGapReport

    monkeypatch.setattr(CentralizedGapReport, "HIGH_T_BOUND", Frac(6, 5))
    code, out, _ = _run(capsys, ["verify"])
    assert code == 1
    lines = out.splitlines()
    assert "[FAIL] centralized gap <= 6/5 on t >= K-1: worst 1.333" in lines
    assert lines[0].startswith("[FAIL] centralized gap <= 31 on 9148 points: worst ")
    assert [x for x in lines if x.startswith("  violation: ")] == [
        "  violation: ratio 1.333 at K=2 N=2 M=1 alpha_max=1",
        "  violation: ratio 1.333 at K=2 N=3 M=3/2 alpha_max=1",
        "  violation: ratio 1.333 at K=2 N=4 M=2 alpha_max=1",
    ]
    assert "verification FAILED" in lines


def test_verify_builds_no_config_per_grid_point(monkeypatch, capsys):
    # only the reported points and one point per decentralized branch-bound
    # key (K, alpha_max, side of p_th) build a config: 134 on the shipped
    # grids, against one for each of their 15,385 points
    built = []
    real = SystemConfig.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(SystemConfig, "__post_init__", counting)
    code, out, _ = _run(capsys, ["verify"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_ANALYTIC_STDOUT[0][1]
    assert 0 < len(built) < 200


def test_verify_names_the_first_user_rate_bound_failure(tmp_path, capsys, monkeypatch):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "centralized_gap": {"K": [2, 3], "N_max_multiple": 1,
                            "alpha_max_choices": [1]},
        "decentralized_gap": {"K": [3, 3], "p_grid_denominator": 4},
    }))
    real = bounds._corollary_ints
    failing = {(5, 2, Frac(3, 10)), (9, 4, Frac(1, 2))}

    def corollary_ints(K, amax, a, b):
        regime, bound = real(K, amax, a, b)
        if (K, amax, Frac(a, b)) in failing:
            return regime, (0, 1)
        return regime, bound

    monkeypatch.setattr(bounds, "_corollary_ints", corollary_ints)
    code, out, _ = _run(capsys, ["verify", "--grid", str(grid)])
    assert code == 1
    line = next(x for x in out.splitlines() if "dominate R_u" in x)
    assert line.startswith("[FAIL]")
    assert "first failure K=5 alpha_max=2 p=3/10 (" in line
    assert line == (
        "[FAIL] user-rate upper bounds dominate R_u (K in 4..12): "
        "first failure K=5 alpha_max=2 p=3/10 (flexible)"
    )


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_worked_example(capsys):
    code, out, _ = _run(
        capsys,
        ["simulate", "--scheme", "centralized", "--N", "6", "--K", "6",
         "--M", "4", "--alpha-max", "3", "--alpha", "2",
         "--server-share", "1/3"],
    )
    assert code == 0
    assert "alpha=2 lambda=1/3 L1=2" in out
    assert "R1=2/15 R2=1/3 T=1/3" in out
    assert "match=yes" in out
    assert "decode OK" in out


def _readme_simulate_lines():
    """The ``coopcache simulate`` commands of README.md's ``sh`` blocks, with
    backslash continuations joined."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    commands = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [c for c in commands if c.startswith("coopcache simulate ")]


def test_readme_simulate_examples_run(capsys):
    lines = _readme_simulate_lines()
    assert lines
    for line in lines:
        code, out, err = _run(capsys, shlex.split(line, comments=True)[1:])
        assert code == 0, (line, err)
        assert out.endswith("decode OK\n"), line


def test_simulate_export_log(tmp_path, capsys):
    log = tmp_path / "log.csv"
    code, out, _ = _run(
        capsys,
        ["simulate", "--scheme", "centralized", "--N", "4", "--K", "4",
         "--M", "2", "--alpha-max", "2", "--export-log", str(log)],
    )
    assert code == 0
    lines = log.read_text().strip().split("\n")
    assert lines[0] == "slot,sender,receivers,bits"
    assert len(lines) > 1
    assert f"log written to {log}" in out


@pytest.mark.parametrize("scheme", ["centralized", "decentralized"])
def test_simulate_refuses_an_unwritable_log_before_the_run(scheme, tmp_path, capsys, monkeypatch):
    def stop(*args, **kwargs):
        raise ValueError("the run started")

    monkeypatch.setattr(simulator, f"run_{scheme}", stop)
    argv = ["simulate", "--scheme", scheme, "--N", "4", "--K", "4", "--M", "2",
            "--alpha-max", "2", "--export-log"]
    code, out, err = _run(capsys, [*argv, str(tmp_path / "missing" / "log.csv")])
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2] ") and err.count("\n") == 1
    # a writable path passes the check, which leaves no file behind
    code, out, err = _run(capsys, [*argv, str(tmp_path / "log.csv")])
    assert (code, out, err) == (2, "", "error: the run started\n")
    assert list(tmp_path.iterdir()) == []


def test_refused_sweeps_and_verifies_leave_no_output_file(tmp_path, capsys, monkeypatch):
    def stop(config):
        raise AssertionError("a row was evaluated")

    monkeypatch.setattr(cli, "_centralized_row", stop)
    missing = str(tmp_path / "missing" / "rows.csv")
    code, out, err = _run(capsys, ["sweep", "--N", "4", "--K", "4", "--alpha-max", "2",
                                   "--grid", "0:4:1", "--out", missing])
    assert (code, out) == (2, "") and err.startswith("error: [Errno 2] ")
    # refused after the path check (alpha_max above K//2, a grid file that
    # does not exist): the output file is neither made nor emptied
    rows, report = tmp_path / "rows.csv", tmp_path / "report.txt"
    report.write_text("kept\n")
    assert _run(capsys, ["sweep", "--N", "4", "--K", "4", "--alpha-max", "3",
                         "--grid", "0:4:1", "--out", str(rows)])[:2] == (2, "")
    assert _run(capsys, ["verify", "--grid", str(tmp_path / "none.json"),
                         "--out", str(report)])[:2] == (2, "")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["report.txt"]
    assert report.read_text() == "kept\n"


_SMALL_RUN = ["--N", "4", "--K", "4", "--M", "2", "--alpha-max", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--scheme", "centralized", *_SMALL_RUN, "--server-share="],
        ["simulate", "--scheme", "decentralized", *_SMALL_RUN, "--demands="],
        ["simulate", "--scheme", "decentralized", *_SMALL_RUN, "--export-log="],
        ["simulate", "--scheme", "centralized", "--N", "4", "--K", "4", "--M="],
        ["sweep", "--N", "4", "--K", "4", "--alpha-max", "2", "--grid", "0:4:1", "--out="],
        ["sweep", "--config="],
        ["verify", "--out="],
        ["verify", "--grid="],
    ],
    ids=lambda argv: f"{argv[0]} {argv[-1]}",
)
def test_an_empty_flag_value_is_refused_by_name(argv, tmp_path, capsys, monkeypatch):
    # an empty value once ran the default (identity demands, no log,
    # stdout for --out, the packaged grid) and exited 0
    monkeypatch.chdir(tmp_path)
    flag = next(a for a in argv if a.endswith("="))[:-1]
    assert _run(capsys, argv) == (2, "", f"error: {flag} needs a value, got ''\n")
    assert list(tmp_path.iterdir()) == []


def test_simulate_decentralized_detail_round(capsys):
    code, out, _ = _run(
        capsys,
        ["simulate", "--scheme", "decentralized", "--N", "5", "--K", "5",
         "--M", "2", "--alpha-max", "2", "--detail-round", "3"],
    )
    assert code == 0
    assert "partitions with group size 3" in out
    assert "decode OK" in out


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("scheme", ["centralized", "decentralized"])
def test_simulate_refuses_a_detail_round_below_one(scheme, value, capsys, monkeypatch):
    def stop(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(simulator, f"run_{scheme}", stop)
    code, out, err = _run(
        capsys,
        ["simulate", "--scheme", scheme, "--N", "4", "--K", "4", "--M", "2",
         "--alpha-max", "2", "--detail-round", value],
    )
    assert (code, out) == (2, "")
    assert err == f"error: --detail-round must be at least 1, got {value}\n"


@pytest.mark.parametrize("value", ["5", "99999"])
@pytest.mark.parametrize("scheme", ["centralized", "decentralized"])
def test_simulate_refuses_a_detail_round_above_k(scheme, value, capsys, monkeypatch):
    # no group has more than K members, so the listing would be empty
    def stop(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(simulator, f"run_{scheme}", stop)
    code, out, err = _run(
        capsys,
        ["simulate", "--scheme", scheme, "--N", "4", "--K", "4", "--M", "2",
         "--alpha-max", "2", "--detail-round", value],
    )
    assert (code, out) == (2, "")
    assert err == f"error: --detail-round must be at most K=4, got {value}\n"


@pytest.mark.parametrize("mode", ["fluid", "bits"])
@pytest.mark.parametrize("scheme", ["centralized", "decentralized"])
def test_simulate_refuses_a_negative_seed(scheme, mode, capsys):
    code, out, err = _run(
        capsys,
        ["simulate", "--scheme", scheme, "--N", "4", "--K", "4", "--M", "2",
         "--alpha-max", "2", "--mode", mode, "--F", "600", "--seed", "-1"],
    )
    assert (code, out, err) == (2, "", "error: seed must be non-negative, got -1\n")


@pytest.mark.parametrize("scheme", ["centralized", "decentralized"])
def test_simulate_fluid_mode_warns_that_f_is_ignored(scheme, capsys):
    argv = ["simulate", "--scheme", scheme, "--N", "4", "--K", "4", "--M", "2",
            "--alpha-max", "2"]
    code, plain, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    for mode in ([], ["--mode", "fluid"]):
        code, out, err = _run(capsys, [*argv, *mode, "--F", "10"])
        assert (code, out) == (0, plain)
        assert err == "warning: --F is ignored in fluid mode\n"


def test_simulate_usage_errors(capsys):
    code, _, err = _run(
        capsys,
        ["simulate", "--scheme", "centralized", "--N", "4", "--K", "6",
         "--M", "2"],
    )
    assert code == 2 and "error:" in err
    code, _, err = _run(
        capsys,
        ["simulate", "--scheme", "centralized", "--N", "6", "--K", "4",
         "--M", "2", "--demands", "1,2,x,4"],
    )
    assert code == 2


@pytest.mark.parametrize("flag", [["--alpha", "1"], ["--server-share", "1/3"]])
def test_simulate_decentralized_refuses_centralized_flags(flag, capsys):
    code, out, err = _run(
        capsys,
        ["simulate", "--scheme", "decentralized", "--N", "4", "--K", "4",
         "--M", "2", *flag],
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: --alpha and --server-share apply to the centralized scheme only\n"
    )


@pytest.mark.parametrize("scheme", ["centralized", "decentralized"])
def test_simulate_bit_mode_without_F_exits_2(scheme, capsys):
    code, out, err = _run(
        capsys,
        ["simulate", "--scheme", scheme, "--N", "4", "--K", "4", "--M", "2",
         "--alpha-max", "2", "--mode", "bits"],
    )
    assert (code, out) == (2, "")
    assert err == "error: bit mode needs a file size F\n"


@pytest.mark.parametrize(
    "argv,need",
    [
        (["--N", "12", "--K", "12", "--M", "6", "--alpha", "3", "--alpha-max", "3"], 14784),
        (["--N", "4", "--K", "4", "--M", "2"], 30),
    ],
)
def test_simulate_refuses_an_unsplittable_F_before_any_work(argv, need, capsys, monkeypatch):
    def stop(*args):
        raise AssertionError("user schedule built before the file size check")

    monkeypatch.setattr(centralized, "_user_schedule", stop)
    code, out, err = _run(
        capsys, ["simulate", "--scheme", "centralized", *argv, "--mode", "bits", "--F", "7"]
    )
    assert (code, out) == (2, "")
    assert err == f"error: F=7 cannot be split exactly; use a multiple of {need}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--scheme", "centralized", "--M", "3/2"],
         "centralized placement needs integer t=K*M/N, got t=3/2"),
        (["--scheme", "centralized", "--M", "2", "--alpha", "3"],
         "alpha=3 outside [1, alpha_max=2]"),
        (["--scheme", "centralized", "--M", "2", "--demands", "1,2,3"],
         "need 6 demands, got 3"),
        (["--scheme", "decentralized", "--M", "2", "--demands", "1,2,3"],
         "need 6 demands, got 3"),
    ],
)
def test_simulate_refusals_write_nothing_to_stdout(argv, message, capsys):
    code, out, err = _run(
        capsys, ["simulate", "--N", "6", "--K", "6", "--alpha-max", "2", *argv]
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


def _starve_cooperation(monkeypatch):
    # drop every cooperation symbol: both schemes then fail on user 1
    execute = simulator.execute_schedule

    def starved(*args, **kwargs):
        log = execute(*args, **kwargs)
        log.entries = [e for e in log.entries if e.sender == 0]
        return log

    monkeypatch.setattr(simulator, "execute_schedule", starved)


def _assert_decode_failure_exits_1(capsys, scheme, subfile):
    code, out, err = _run(
        capsys,
        ["simulate", "--scheme", scheme, "--N", "4", "--K", "4",
         "--M", "2", "--alpha-max", "2"],
    )
    assert code == 1
    assert out.splitlines()[-1] == (
        f"decode FAILED: user 1 cannot recover file 1, subfile {subfile}"
    )
    assert err == ""


def test_simulate_decode_failure_exits_1(capsys, monkeypatch):
    _starve_cooperation(monkeypatch)
    _assert_decode_failure_exits_1(capsys, "centralized", "(2, 3)")


def test_simulate_decentralized_error_path_exits_1(capsys, monkeypatch):
    _starve_cooperation(monkeypatch)
    _assert_decode_failure_exits_1(capsys, "decentralized", "(2,)")


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_simulate_centralized_scheduling_error_exits_1(capsys, monkeypatch):
    def infeasible(config, plan, demands):
        raise SchedulingError("user delivery infeasible for K=4, t=2, alpha=1")

    monkeypatch.setattr(centralized, "_user_schedule", infeasible)
    code, out, err = _run(
        capsys,
        ["simulate", "--scheme", "centralized", "--N", "4", "--K", "4",
         "--M", "2", "--alpha-max", "2"],
    )
    assert code == 1
    assert out.splitlines()[-1] == (
        "error: user delivery infeasible for K=4, t=2, alpha=1"
    )
    assert err == ""


def test_simulate_refuses_an_oversized_schedule_with_exit_2(capsys):
    # in bit mode too, the schedule's size is refused before F = 7, which
    # no fragment layout divides
    for mode in ([], ["--mode", "bits", "--F", "7"]):
        code, out, err = _run(
            capsys,
            ["simulate", "--scheme", "centralized", "--N", "28", "--K", "14",
             "--M", "4", "--alpha-max", "7", *mode],
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: user schedule for K=14, t=2, alpha=4 may need 16816800 "
            "user symbols, above the limit of 500000\n"
        )


def test_simulate_refuses_an_oversized_server_only_plan_with_exit_2(capsys):
    start = time.perf_counter()
    code, out, err = _run(
        capsys,
        ["simulate", "--scheme", "centralized", "--N", "30", "--K", "30",
         "--M", "15", "--alpha-max", "1", "--server-share", "1"],
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: centralized placement for K=30, t=15 needs C(K,t) = 155117520 "
        "subsets, above the limit of 500000\n"
    )
    code, out, err = _run(
        capsys,
        ["simulate", "--scheme", "centralized", "--N", "24", "--K", "24",
         "--M", "7", "--alpha-max", "1", "--server-share", "1"],
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: centralized server schedule for K=24, t=7 needs C(K,t+1) = "
        "735471 server symbols, above the limit of 500000\n"
    )
    assert time.perf_counter() - start < 1.0


def test_simulate_refuses_an_oversized_decentralized_placement_with_exit_2(capsys):
    # 33 * 2^33 (file, subset) entries; a 32-bit mask code would overflow
    start = time.perf_counter()
    for mode in (["--mode", "fluid"], ["--mode", "bits", "--F", "100"]):
        code, out, err = _run(
            capsys,
            ["simulate", "--scheme", "decentralized", "--N", "33", "--K", "33",
             "--M", "1", *mode],
        )
        assert code == 2
        assert err.startswith("error: decentralized placement needs N*2^K = ")
        assert "283467841536 (file, subset) entries" in err
    assert time.perf_counter() - start < 1.0


def test_simulate_refuses_an_oversized_decentralized_schedule_with_exit_2(
    capsys, monkeypatch
):
    argv = ["simulate", "--scheme", "decentralized", "--N", "6", "--K", "6",
            "--M", "2", "--alpha-max", "3"]  # 426 user symbols
    monkeypatch.setattr(decentralized, "MAX_USER_SYMBOLS", 426)
    code, out, _ = _run(capsys, argv)
    assert code == 0 and "user symbols: 426" in out
    monkeypatch.setattr(decentralized, "MAX_USER_SYMBOLS", 425)
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: decentralized user schedule for K=6, alpha_max=3 needs 426 "
        "user symbols, above the limit of 425\n"
    )
    monkeypatch.undo()
    # at the real limit, (15, 15, 7) passes the placement guard and is
    # refused by its closed-form symbol count alone
    start = time.perf_counter()
    code, out, err = _run(
        capsys,
        ["simulate", "--scheme", "decentralized", "--N", "15", "--K", "15",
         "--M", "5", "--alpha-max", "7"],
    )
    assert (code, out) == (2, "")
    assert "needs 327972480 user symbols, above the limit of 500000" in err
    assert time.perf_counter() - start < 1.0
