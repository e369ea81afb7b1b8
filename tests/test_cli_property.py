"""A property test of ``main`` over the CLI's whole argument space.

Hypothesis draws argv for each subcommand, each flag absent, valid, at a
boundary or malformed, with sizes capped so that an accepted run stays
small (K <= 6, F <= 10^4).  An int flag always gets an int, so that every
refusal is the program's and not argparse's.  ``main`` runs in-process,
with stdout and stderr captured, and must:

* exit 0, 1 or 2, with no exception escaping;
* on exit 2, a refusal, print nothing on stdout and one ``error:`` line on
  stderr;
* exit 2 when a flag is given an empty value, as in ``--demands=``;
* on an accepted fluid ``simulate``, print ``decode OK`` and ``match=yes``.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopcache.cli import main

SCHEMES = ["centralized", "decentralized"]


def _flag(name, values):
    """``[name=value]`` for a drawn value, or nothing: the flag absent.  A
    value joined to its flag is read as a value even when it starts with a
    dash, as in ``--server-share=-1/2``."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v}"]))


# the simulate flags that can take a value argparse accepts and the program
# must refuse or survive
MALFORMABLE = ["--N", "--K", "--M", "--alpha-max", "--F", "--seed", "--demands", "--alpha",
               "--server-share", "--detail-round", "--export-log"]


@st.composite
def simulate_argv(draw, logs, broken=None):
    """Each flag absent or valid, boundaries included, but the flag named
    ``broken``, which is malformed.  ``logs`` holds a log path that can be
    written and one that cannot."""
    scheme = draw(st.sampled_from(SCHEMES))
    K = draw(st.integers(2, 6))
    N = draw(st.sampled_from([K, K + 1, 2 * K]))
    amax = draw(st.integers(1, K // 2))
    central = scheme == "centralized"
    # flag -> (valid values, or None where only absence is valid; malformed)
    flags = {
        "--N": (st.just(N), st.sampled_from([K - 1, 0, -1])),
        "--K": (st.just(K), st.sampled_from([N + 1, 1, 0, -1])),
        "--M": (
            # an integer t = KM/N centralized, any M in [0, N] decentralized
            st.integers(0, K).map(lambda t: f"{t * N}/{K}")
            if central
            else st.integers(0, 3 * N).map(lambda i: f"{i}/3"),
            st.sampled_from(["x", "1/0", "", "1/2/3", "-1/2", str(N + 1)]),
        ),
        "--alpha-max": (st.just(amax), st.sampled_from([0, K // 2 + 1])),
        "--F": (
            # 720 and 5040 split the fragments of most such centralized runs
            st.one_of(st.integers(1, 10**4), st.sampled_from([720, 5040, 10**4])),
            st.sampled_from([0, -1]),
        ),
        "--mode": (st.sampled_from(["fluid", "bits"]), None),  # argparse's choices
        "--seed": (st.integers(0, 3), st.just(-1)),
        "--demands": (
            st.permutations(range(1, N + 1)).map(lambda d: ",".join(map(str, d[:K]))),
            st.sampled_from(["1,1", "0", str(N + 1), "a", ",", "1,,2", "1", ""]),
        ),
        "--alpha": (
            st.integers(1, amax) if central else None, st.sampled_from([0, amax + 1])
        ),
        "--server-share": (
            st.sampled_from(["0", "1", "1/3"]) if central else None,
            st.sampled_from(["x", "1/0", "", "1/2/3", "-1/2", "2"]),
        ),
        "--detail-round": (st.integers(1, K), st.sampled_from([0, -1, K + 1])),
        "--export-log": (st.just(logs[0]), st.sampled_from([logs[1], ""])),
    }
    argv = ["simulate", f"--scheme={scheme}"]
    for name, (valid, malformed) in flags.items():
        if name == broken:
            argv.append(f"{name}={draw(malformed)}")
        elif name in ("--N", "--K", "--M"):  # required
            argv.append(f"{name}={draw(valid)}")
        elif valid is not None:
            argv += draw(_flag(name, valid))
    return argv


@st.composite
def sweep_argv(draw, configs, unwritable):
    argv = ["sweep"]
    for name, values in (
        ("--config", st.sampled_from(configs)),
        ("--scheme", st.sampled_from(SCHEMES + ["bounds"])),
        ("--N", st.integers(-1, 12)),
        ("--K", st.integers(0, 6)),
        ("--alpha-max", st.integers(-1, 4)),
        ("--grid", st.sampled_from(
            ["0:4:1", "0,1/2,1", "0:1:1/4", "4:0:1", "0:1:0", "0:1:1/10000000",
             "a", "1/0", "-1", "21"]
        )),
        ("--format", st.sampled_from(["csv", "json"])),
        ("--out", st.just(unwritable)),
    ):
        argv += draw(_flag(name, values))
    return argv


def verify_argv(grids, unwritable):
    return st.tuples(
        _flag("--grid", st.sampled_from(grids)), _flag("--out", st.just(unwritable))
    ).map(lambda flags: ["verify", *flags[0], *flags[1]])


def _write(directory, name, content):
    path = directory / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Sweep configs and verify grids: valid, empty, at a boundary and
    malformed, plus a path that does not exist; and an output path in a
    directory that does not exist."""
    d = tmp_path_factory.mktemp("cli")
    missing = str(d / "missing.json")

    def grid(central_K, decentral_K, denominator=4):
        return {
            "centralized_gap": {
                "K": central_K, "N_max_multiple": 2, "alpha_max_choices": [1, "half"]
            },
            "decentralized_gap": {"K": decentral_K, "p_grid_denominator": denominator},
        }

    configs = [
        _write(d, "config.json", {"scheme": "bounds", "N": 8, "K": 4, "grid": "0:8:2"}),
        _write(d, "list-grid.json", {"N": 6, "K": 3, "grid": [0, "1/2", 6]}),
        _write(d, "unknown.json", {"scheme": "centralized", "Q": 1}),
        _write(d, "mistyped.json", {"N": 20.5}),
        _write(d, "not-an-object.json", [1, 2]),
        _write(d, "broken.json", "{"),
        missing,
    ]
    grids = [
        _write(d, "grid.json", grid([2, 5], [3, 5])),
        _write(d, "boundary-grid.json", grid([2, 2], [3, 3], 1)),
        _write(d, "empty-grid.json", grid([5, 4], [6, 5])),
        _write(d, "one-user.json", grid([1, 4], [3, 4])),
        _write(d, "lacking.json", {"centralized_gap": {}}),
        _write(d, "broken-grid.json", "[1,"),
        missing,
    ]
    return configs, grids, str(d / "missing" / "out.txt")


def _check(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if any(arg.endswith("=") for arg in argv):
        assert code == 2, (argv, code)
    if code == 2:
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    elif argv[0] == "simulate" and "--mode=bits" not in argv:  # an accepted fluid run
        assert "decode OK\n" in out and "match=yes\n" in out, (argv, out)


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    """A log path that can be written, and one in a directory that does not
    exist."""
    d = tmp_path_factory.mktemp("logs")
    return str(d / "log.csv"), str(d / "missing" / "log.csv")


@given(data=st.data())
def test_simulate_exits_cleanly_on_valid_argv(logs, data):
    _check(data.draw(simulate_argv(logs), label="argv"))


@pytest.mark.parametrize("flag", MALFORMABLE)
@settings(max_examples=15)
@given(data=st.data())
def test_simulate_exits_cleanly_with_a_malformed_flag(logs, flag, data):
    _check(data.draw(simulate_argv(logs, broken=flag), label="argv"))


@given(data=st.data())
def test_sweep_exits_cleanly_on_any_argv(files, data):
    configs, _, unwritable = files
    _check(data.draw(sweep_argv(configs, unwritable), label="argv"))


@given(data=st.data())
def test_verify_exits_cleanly_on_any_argv(files, data):
    _, grids, unwritable = files
    _check(data.draw(verify_argv(grids, unwritable), label="argv"))
