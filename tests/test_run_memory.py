"""What bounds a centralized run's memory, and what must not move with it.

* The constituent guard (``config.MAX_CONSTITUENTS``): a run is refused by
  name, with exit 2 from ``main``, before anything is enumerated, and every
  shape the benchmark, the tests and the README run is admitted.
* The audit runs over its constituents in runs of ``model.RUN`` (2^16).
  (18, 18, 14, 1) codes 171,360 user constituents, three runs; each of four
  mutations of its assembled table, all at a constituent in the last run,
  is named with the message the audit gave before it was cut into runs
  (pinned below).
* The run's traced peak, per constituent it holds, is bounded.  Before the
  log read the schedule's own tables and the assembly, audit and decode
  intern stopped building symbol-by-word temporaries, (18, 18, 14, 1)
  peaked at 34.7 MB traced, 189 bytes per constituent (server and user),
  and held 14.1 MB, 77 bytes per constituent.
* ``model.mask_ranks``, the audit's way from a subset's mask to its
  placement row, against a lookup of the placement's masks.
"""

import contextlib
import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest

from coopcache import (
    SchedulingError,
    SystemConfig,
    build_central_placement,
    build_user_schedule,
    centralized,
    make_split_plan,
    run_centralized,
)
from coopcache.cli import main
from coopcache.config import MAX_CONSTITUENTS
from coopcache.model import (
    DeliverySchedule,
    UserRounds,
    enumerate_subsets,
    mask_ranks,
    masks,
    offsets,
    words,
)

EDGE = SystemConfig(18, 18, 14, alpha_max=1)


def _run(argv):
    """(exit code, stdout, stderr) of ``main`` in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _constituents(config):
    """The constituents the guard counts for a centralized shape."""
    plan = make_split_plan(config)
    t, K = int(config.t), config.K
    count = math.comb(K, t + 1) * (t + 1) if plan.server_share else 0
    shape = centralized._user_slots(config, plan)
    if shape is not None:
        _, fp, slots, beta = shape
        count += math.lcm(slots, beta) * plan.alpha * (fp - 1)
    return count


# ---------------------------------------------------------------------------
# the constituent guard
# ---------------------------------------------------------------------------


def test_a_shape_past_the_constituent_budget_is_refused_by_name():
    # 493,640 server and 19,251,960 user constituents
    code, out, err = _run(["simulate", "--scheme", "centralized", "--N", "43", "--K", "43",
                           "--M", "39", "--alpha-max", "1"])
    assert (code, out) == (2, "")
    assert (
        "centralized run for K=43, t=39, alpha=1 may hold 19745600 constituents, "
        f"above the limit of {MAX_CONSTITUENTS}"
    ) in err


def _enumerated(*args):
    raise AssertionError("enumerated past the guard")


def test_the_constituent_budget_is_inclusive(monkeypatch):
    argv = ["simulate", "--scheme", "centralized", "--N", "18", "--K", "18", "--M", "14",
            "--alpha-max", "1"]
    count = _constituents(EDGE)
    assert count == 816 * 15 + 12240 * 14  # C(18, 15) server symbols of 15
    monkeypatch.setattr(centralized, "MAX_CONSTITUENTS", count)
    code, out, _ = _run(argv)
    assert code == 0 and out.endswith("decode OK\n")

    monkeypatch.setattr(centralized, "MAX_CONSTITUENTS", count - 1)
    monkeypatch.setattr(centralized, "partition_table", _enumerated)
    monkeypatch.setattr(centralized, "build_central_placement", _enumerated)
    code, out, err = _run(argv)
    assert (code, out) == (2, "")
    assert f"may hold {count} constituents, above the limit of {count - 1}" in err


# (K, t, constituents, W, as many bytes as this many one-word constituents):
# the fitted weight (38 + 35 W) / 73 refuses the largest two-word shape of
# the unweighted budget, and the wide shapes it admitted far over 1 GB
@pytest.mark.parametrize("K,t,count,W,weighed", [
    (71, 68, 11831085, 2, 17503523),
    (2000, 1999, 4000000, 32, 63452054),
    (3000, 2999, 9000000, 48, 211808219),
])
def test_a_wide_shape_is_refused_by_its_weighed_constituents(K, t, count, W, weighed,
                                                             monkeypatch):
    monkeypatch.setattr(centralized, "partition_table", _enumerated)
    monkeypatch.setattr(centralized, "build_central_placement", _enumerated)
    code, out, err = _run(["simulate", "--scheme", "centralized", "--N", str(K), "--K", str(K),
                           "--M", str(t), "--alpha-max", "1"])
    assert (code, out) == (2, "")
    assert (
        f"centralized run for K={K}, t={t}, alpha=1 may hold {count} constituents of "
        f"{W}-word masks, as many bytes as {weighed} of one word, above the limit of "
        f"{MAX_CONSTITUENTS}"
    ) in err


# (N, K, M, alpha_max): the benchmark's centralized shapes, the README's,
# the largest the tests run, and the guard edges (28, 28, 23, 1) and
# (39, 39, 35, 1), the admitted shape of N = K <= 60 with the most
# constituents
ADMITTED = [
    (6, 6, 4, 3), (8, 8, 2, 4), (16, 8, 4, 4), (18, 9, 4, 3), (10, 10, 3, 5),
    (20, 10, 4, 5), (12, 12, 6, 3), (9, 9, 3, 3), (8, 8, 4, 2), (20, 10, 2, 5),
    (24, 12, 6, 3), (18, 18, 8, 9), (67, 67, 66, 1), (100, 100, 99, 1),
    (28, 28, 23, 1), (39, 39, 35, 1),
]


@pytest.mark.parametrize("shape", ADMITTED, ids=lambda s: ",".join(map(str, s)))
def test_the_constituent_budget_admits_every_shape_that_is_run(shape):
    N, K, M, amax = shape
    config = SystemConfig(N, K, M, alpha_max=amax)
    _, count = centralized.check_schedule_size(config, make_split_plan(config))
    assert count == _constituents(config) <= MAX_CONSTITUENTS


# ---------------------------------------------------------------------------
# the audit in runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def edge():
    """The (18, 18, 14, 1) user schedule, its placement and audit inputs."""
    demands = tuple(EDGE.users())
    sched = build_user_schedule(EDGE, make_split_plan(EDGE), demands)
    t = sched.user_rounds.table
    args = (int(t.count[0]), int(t.cstart[1] - t.cstart[0]), t.sizes[0])
    return sched, build_central_placement(EDGE), demands, args


C = 150_000  # a constituent in the last of the audit's three runs


def _misplaced(t, of):
    receiver = t.receiver.copy()
    receiver[C] = t.sender[of]
    return dataclasses.replace(t, receiver=receiver)


def _unstrippable(t, of):
    group = t.group[of, 0]
    other = next(
        u for u in range(1, 19) if group >> u & 1 and u not in (t.receiver[C], t.sender[of])
    )
    subset = t.subset.copy()
    subset[C, 0] &= ~(1 << other)
    return dataclasses.replace(t, subset=subset)


def _short(t, of):
    keep = np.arange(len(t.receiver)) != C
    arity = np.diff(t.cstart)
    arity[of] -= 1
    columns = {k: getattr(t, k)[keep] for k in ("receiver", "file", "subset", "part", "index",
                                                "count")}
    return dataclasses.replace(t, cstart=offsets(arity), **columns)


def _twice(t, of):
    # C takes the fragment of the first other constituent with its receiver
    # and group, so the rest of its group still caches what it strips
    group = np.repeat(t.group[:, 0], np.diff(t.cstart))
    same = np.flatnonzero((t.receiver == t.receiver[C]) & (group == t.group[of, 0]))
    other = same[(t.subset[same, 0] != t.subset[C, 0]) | (t.index[same] != t.index[C])][0]
    subset, index = t.subset.copy(), t.index.copy()
    subset[C], index[C] = subset[other], index[other]
    return dataclasses.replace(t, subset=subset, index=index)


# the audit's messages before it ran in runs, on the same mutations
MUTATIONS = {
    "misplaced": (_misplaced, "constituent receiver misplaced"),
    "unstrippable": (
        _unstrippable,
        "group (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 13, 14, 15, 16, 18) cannot strip "
        "FragmentId(file=5, subset=(2, 3, 4, 6, 7, 8, 10, 12, 13, 14, 15, 16, 18), "
        "part='u', index=12, count=14) for user 5",
    ),
    "arity": (_short, "symbol codes 13 != 14"),
    "twice": (
        _twice,
        "pico (user 5, T=(1, 2, 3, 4, 6, 7, 8, 10, 12, 13, 14, 15, 16, 18), layer 0) "
        "delivered 2 times",
    ),
}


def test_the_edge_audits_in_three_runs(edge):
    sched, placement, demands, args = edge
    t = sched.user_rounds.table
    assert len(t.receiver) == 171_360 and 2 * centralized.RUN <= C < len(t.receiver)
    centralized._audit_user_schedule(EDGE, placement, demands, sched, *args)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_a_mutation_in_the_last_run_is_named_as_before(edge, name):
    sched, placement, demands, args = edge
    rounds = sched.user_rounds
    t = rounds.table
    of = np.searchsorted(t.cstart, C, side="right") - 1
    mutate, message = MUTATIONS[name]
    broken = DeliverySchedule(UserRounds(rounds.labels, rounds.starts, mutate(t, of)))
    with pytest.raises(SchedulingError) as failure:
        centralized._audit_user_schedule(EDGE, placement, demands, broken, *args)
    assert str(failure.value) == message


# ---------------------------------------------------------------------------
# the traced peak
# ---------------------------------------------------------------------------


def test_the_edge_run_peaks_under_a_bound_per_constituent():
    # 189 and 77 bytes per constituent before the cut; about 87 and 43 after
    run_centralized(EDGE, seed=5)  # imports and caches warm outside the trace
    tracemalloc.start()
    try:
        result = run_centralized(EDGE, seed=5)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.decode_ok
    assert peak / _constituents(EDGE) < 130
    assert held / _constituents(EDGE) < 60


# ---------------------------------------------------------------------------
# mask ranks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "K,k", [(5, 2), (10, 3), (28, 23), (63, 1), (64, 62), (70, 2), (100, 99), (8, 8), (8, 0)]
)
def test_mask_ranks_are_the_placement_rows(K, k):
    W = words(K)
    sets = masks(np.array(enumerate_subsets(K, k), np.int64).reshape(math.comb(K, k), k), W)
    assert np.array_equal(mask_ranks(sets, K, k), np.arange(len(sets)))
    rng = np.random.default_rng(K * 100 + k)
    noise = rng.integers(0, 1 << 62, (300, W))
    noise &= rng.integers(0, 1 << 62, (300, W))
    user0, past = masks(np.array([[0], [K + 1]]), W)
    rows = np.concatenate([noise, sets[:40] | user0, sets[:40] | past, sets[:40] ^ sets[-1:]])
    lookup = {tuple(row): i for i, row in enumerate(sets.tolist())}
    want = [lookup.get(tuple(row), -1) for row in rows.tolist()]
    assert mask_ranks(rows, K, k).tolist() == want
