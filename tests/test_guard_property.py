"""A property test of the size guards at their edges.

Hypothesis draws centralized shapes at large K and extreme t, where a set
of users spans two mask words and the guards decide between a run and a
refusal; centralized shapes at high t, where a symbol codes many
constituents and the constituent count (``MAX_CONSTITUENTS``) decides; and
bit-mode file sizes around ``MAX_BIT_BYTES``.  ``main`` runs
in-process and must exit 0 or 2, with no exception escaping; an accepted
run decodes.  Only shapes that are cheap in closed form are run: a refusal
is cheap by construction, an admitted shape is kept when its worst-case
rung codes few constituents.  A refused bit run must allocate nothing, so
the library and placement builders are patched to raise; a bit run the
guard admits reaches one of them.
"""

import contextlib
import io
import math
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coopcache import simulator
from coopcache.centralized import _user_slots, check_schedule_size
from coopcache.cli import main
from coopcache.closed_forms import make_split_plan
from coopcache.config import MAX_BIT_BYTES, SystemConfig

# an admitted shape runs only if its worst-case rung, with the server's
# symbols, codes at most this many constituents
CHEAP = 20_000


def _run(argv):
    """(exit code, stdout, stderr) of ``main`` in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _constituents(K, t, amax):
    """Constituents of the worst-case run of an admitted shape, in closed
    form; None when the guards refuse it."""
    config = SystemConfig(K, K, t, alpha_max=amax)
    plan = make_split_plan(config)
    try:
        check_schedule_size(config, plan)
    except ValueError:
        return None
    server = math.comb(K, t + 1) * (t + 1) if plan.server_share else 0
    shape = _user_slots(config, plan)
    if shape is None:
        return server
    _, fp, slots, beta = shape
    return server + math.lcm(slots, beta) * plan.alpha * (fp - 1)


@settings(max_examples=12)
@given(
    K=st.integers(60, 120),
    t_at=st.sampled_from(["1", "2", "K-2", "K-1"]),
    amax_at=st.sampled_from(["1", "2", "K//2"]),
)
def test_centralized_shapes_at_the_guard_edges_exit_cleanly(K, t_at, amax_at):
    t = {"1": 1, "2": 2, "K-2": K - 2, "K-1": K - 1}[t_at]
    amax = {"1": 1, "2": 2, "K//2": K // 2}[amax_at]
    cost = _constituents(K, t, amax)
    assume(cost is None or cost <= CHEAP)
    code, out, err = _run(["simulate", "--scheme", "centralized", "--N", str(K),
                           "--K", str(K), "--M", str(t), "--alpha-max", str(amax)])
    if cost is None:
        assert (code, out) == (2, "") and "above the limit" in err, err
    else:
        assert code == 0 and "decode OK\n" in out and "match=yes\n" in out, (code, err)


def _high_t_shapes():
    """(K, t, alpha_max) at K = 20..60 and t = K-6..K-1, where a symbol
    codes many constituents: those the guards refuse and those cheap enough
    to run."""
    out = []
    for K in range(20, 61):
        for t in range(K - 6, K):
            for amax in sorted({1, 2, K // 2}):
                cost = _constituents(K, t, amax)
                if cost is None or cost <= CHEAP:
                    out.append((K, t, amax))
    return out


HIGH_T = _high_t_shapes()


@settings(max_examples=12)
@given(shape=st.sampled_from(HIGH_T))
def test_high_t_shapes_run_or_are_refused_by_their_constituent_count(shape):
    K, t, amax = shape
    cost = _constituents(K, t, amax)
    code, out, err = _run(["simulate", "--scheme", "centralized", "--N", str(K),
                           "--K", str(K), "--M", str(t), "--alpha-max", str(amax)])
    if cost is None:
        assert (code, out) == (2, "") and "above the limit" in err, err
    else:
        assert code == 0 and "decode OK\n" in out and "match=yes\n" in out, (code, err)


def test_the_high_t_draws_hold_both_outcomes():
    # the refusals include ones only the constituent count makes
    refused = [s for s in HIGH_T if _constituents(*s) is None]
    assert refused and len(refused) < len(HIGH_T)
    assert any("constituents" in _run(["simulate", "--scheme", "centralized", "--N", str(K),
                                        "--K", str(K), "--M", str(t), "--alpha-max",
                                        str(a)])[2] for K, t, a in refused)


class _Allocated(Exception):
    """Raised by a patched bit-mode builder: the guard let the run through."""


def _refuse_to_build(*args, **kwargs):
    raise _Allocated


@settings(max_examples=20)
@given(
    scheme=st.sampled_from(["centralized", "decentralized"]),
    K=st.integers(2, 4),
    offset=st.integers(-3, 3),
)
def test_bit_runs_around_the_byte_bound_allocate_only_when_admitted(scheme, K, offset):
    # the placement orders hold F - 1 in 4 bytes at this F
    per_bit = K * (1 + (4 if scheme == "decentralized" else 0))
    F = MAX_BIT_BYTES // per_bit + offset
    argv = ["simulate", "--scheme", scheme, "--N", str(K), "--K", str(K), "--M", "1",
            "--mode", "bits", "--F", str(F)]
    with mock.patch.object(simulator.BitLibrary, "build", _refuse_to_build), \
            mock.patch.object(simulator, "build_decentral_placement", _refuse_to_build):
        if F * per_bit > MAX_BIT_BYTES:
            code, out, err = _run(argv)
            assert (code, out) == (2, "") and f"above the limit of {MAX_BIT_BYTES}" in err
            return
        try:
            code, out, err = _run(argv)
        except _Allocated:
            return
    # only a centralized F that does not split exactly is refused here
    assert scheme == "centralized" and code == 2 and "cannot be split exactly" in err, err


def test_the_bit_guard_admits_every_file_size_the_suite_and_benchmark_use():
    # the largest bit runs of the tests, the benchmark and the README
    for N, F, orders in ((9, 1008000, False), (6, 10**6, True), (7, 70000, True)):
        simulator.check_mode(SystemConfig(N, N, 1, F=F), "bits", orders)
    with pytest.raises(ValueError, match="above the limit"):
        simulator.check_mode(SystemConfig(2, 2, 1, F=3 * 10**9), "bits", True)


@pytest.mark.parametrize("K", [67, 100])
def test_centralized_runs_past_k_66_decode(K):
    # the subset ranks past C(n, i) > 2^63 stay int64; K = 100 holds users
    # in two mask words
    code, out, err = _run(["simulate", "--scheme", "centralized", "--N", str(K),
                           "--K", str(K), "--M", str(K - 1), "--alpha-max", "1"])
    assert code == 0 and out.endswith("decode OK\n"), err


# N * F bytes of library, and a 4-byte position per bit for the orders
@pytest.mark.parametrize("scheme,need,held", [
    ("centralized", 6 * 10**9, "library"),
    ("decentralized", 30 * 10**9, "library and placement orders"),
])
def test_a_bit_run_past_the_byte_bound_is_refused_by_name(scheme, need, held):
    argv = ["simulate", "--scheme", scheme, "--N", "2", "--K", "2", "--M", "1",
            "--mode", "bits", "--F", "3000000000"]
    with mock.patch.object(simulator.BitLibrary, "build", _refuse_to_build), \
            mock.patch.object(simulator, "build_decentral_placement", _refuse_to_build):
        code, out, err = _run(argv)
    assert (code, out) == (2, "") and f"needs {need} bytes for its {held}," in err
