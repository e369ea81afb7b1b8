"""The rescanning peeling decoder, kept as the reference for the fast one.

``_peel_known_fragments`` and ``_uncovered_subfile`` are the decoder the
simulator shipped before it peeled from a worklist: every received symbol is
rescanned until a pass resolves nothing, and coverage sums the known
fragments once per subfile.  Both are quadratic, so they serve only as the
oracle the fast decoder in ``coopcache.decode`` is checked against.  Two
rules were added since: a bit-mode entry whose payload is not as long as
its longest constituent teaches nothing, and in fluid mode a part covers
the union of its known fragments' spans, not the sum of their sizes.
"""

from __future__ import annotations

from fractions import Fraction as Frac
from typing import Optional, Sequence

import numpy as np

from coopcache import BitLibrary, FragmentId, TransmissionLog


def _peel_known_fragments(
    log: TransmissionLog, user: int, library: Optional[BitLibrary] = None
) -> dict[FragmentId, Optional[np.ndarray]]:
    """Fragments ``user`` ends up knowing: cached subsets plus everything
    peelable from received symbols (at most one unknown constituent each).
    Values are payloads in bit mode, None in fluid mode."""
    resolver = log.resolver
    bit_mode = log.mode == "bits"
    known: dict[FragmentId, Optional[np.ndarray]] = {}

    def knows(frag: FragmentId) -> bool:
        if frag in known:
            return True
        if user in frag.subset:
            return True
        if bit_mode:
            return len(resolver.frag_positions(frag)) == 0
        return resolver.frag_size(frag) == 0

    def payload_of(frag: FragmentId) -> np.ndarray:
        if frag in known and known[frag] is not None:
            return known[frag]
        # cached (or empty) fragment: read it straight off the subfile bits
        return library.files[frag.file][resolver.frag_positions(frag)]

    received = [e for e in log.entries if user in e.receivers]
    if bit_mode:
        # a payload not exactly as long as its longest constituent is no
        # XOR of them, and teaches nothing
        received = [
            e for e in received
            if len(e.symbol.payload) == max(
                (len(resolver.frag_positions(c.fragment)) for c in e.symbol.constituents),
                default=0,
            )
        ]
    progress = True
    while progress:
        progress = False
        for e in received:
            unknown = [c for c in e.symbol.constituents if not knows(c.fragment)]
            if len(unknown) != 1:
                continue
            target = unknown[0].fragment
            if bit_mode:
                acc = np.array(e.symbol.payload, copy=True)
                for c in e.symbol.constituents:
                    if c.fragment == target:
                        continue
                    part = payload_of(c.fragment)
                    acc[: len(part)] ^= part
                length = len(resolver.frag_positions(target))
                known[target] = acc[:length]
            else:
                known[target] = None
            progress = True
    return known


def _uncovered_subfile(
    log: TransmissionLog, user: int, want: int, known: dict
) -> Optional[tuple[int, ...]]:
    """First needed subfile of ``want`` that ``known`` does not fully cover
    (exact size bookkeeping; parts partition their subfile).  In fluid mode
    the fragments of one part cover the union of their spans, fragment i
    of a count spanning [i, i + 1) times its size, so fragments of two
    counts that overlap are not counted twice."""
    resolver = log.resolver
    bit_mode = log.mode == "bits"
    for T in resolver.subfile_keys():
        if user in T:
            continue
        if bit_mode:
            target = Frac(len(resolver.subfile_positions(want, T)))
        else:
            target = resolver.subfile_size(T)
        if target == 0:
            continue
        if FragmentId(want, T, "full", 0, 1) in known:
            continue
        frags = [f for f in known if f.file == want and f.subset == T and f.part != "full"]
        if bit_mode:
            covered = sum((Frac(len(resolver.frag_positions(f))) for f in frags), Frac(0))
        else:
            covered = Frac(0)
            for part in {f.part for f in frags}:
                reach = Frac(0)
                for lo, hi in sorted(
                    (f.index * resolver.frag_size(f), (f.index + 1) * resolver.frag_size(f))
                    for f in frags if f.part == part
                ):
                    covered += max(hi - max(lo, reach), 0)
                    reach = max(reach, hi)
        if covered != target:
            return T
    return None


def decode_check(
    log: TransmissionLog,
    demands: Sequence[int],
    library: Optional[BitLibrary] = None,
) -> bool:
    """The reference verdict: every user's demanded file is covered (fluid)
    or reassembled bit-for-bit (bits) from its cache plus the log."""
    config = log.config
    resolver = log.resolver
    for k in config.users():
        want = demands[k - 1]
        known = _peel_known_fragments(log, k, library)
        if log.mode == "fluid":
            if _uncovered_subfile(log, k, want, known) is not None:
                return False
        else:
            rebuilt = np.full(config.F, 2, dtype=np.uint8)
            for T in resolver.subfile_keys():
                if k in T:
                    pos = resolver.subfile_positions(want, T)
                    rebuilt[pos] = library.files[want][pos]
            for frag, payload in known.items():
                if frag.file != want or payload is None:
                    continue
                pos = resolver.frag_positions(frag)
                rebuilt[pos] = payload
            if not np.array_equal(rebuilt, library.files[want]):
                return False
    return True


def first_uncovered(
    log: TransmissionLog, demands: Sequence[int], library: Optional[BitLibrary] = None
) -> Optional[tuple[int, int, tuple[int, ...]]]:
    """(user, file, subfile) of the first user whose demanded file the
    reference decoder leaves uncovered, or None."""
    for k in log.config.users():
        want = demands[k - 1]
        known = _peel_known_fragments(log, k, library)
        T = _uncovered_subfile(log, k, want, known)
        if T is not None:
            return k, want, T
    return None
