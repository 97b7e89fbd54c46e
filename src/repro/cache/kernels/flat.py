"""The "array" kernel: NumPy-resident state with a vectorised fast path.

State lives permanently in preallocated NumPy arrays: a line-tag matrix
of shape ``[n_sets, assoc]``, a per-set circular-buffer ``(head, cnt)``
pair encoding insertion/recency order, and a dirty bitmask of the same
shape.  Logical position ``k`` of a set (0 = oldest, ``cnt-1`` = most
recent) lives at physical slot ``(head + k) % assoc``.  Invariant:
``head`` can only be non-zero for a *full* set (heads advance on
evictions and batch wraps, both of which require fullness), so non-full
sets always store their lines at physical slots ``0..cnt-1`` with
empties after.  Keeping the authoritative state in arrays — rather than
converting Python lists to arrays per chunk — is what lets small
per-block chunks use the vectorised phases without paying a conversion
that used to dominate their runtime.

The chunk fast path (no writes, no prefetch) layers three optimisations,
all proven equivalent to the reference kernel by the differential and
property tests:

* **follower skip** — a reference whose immediately-preceding reference
  touched the same line is a hit with zero state change (under LRU the
  line is already most-recent; FIFO/RANDOM do nothing on hits).
* **certified-hit / guaranteed-miss runs** — a leading run of leaders
  that are all resident must all hit (hits never change membership), and
  a leading run of distinct non-resident lines must all miss (evictions
  only remove lines).  Hit runs apply LRU promotes wholesale with one
  ``argsort`` per touched set; miss runs apply as closed-form circular
  appends.  RANDOM misses are never batched (the eviction stream must
  consume the shared pool in exact reference order).
* **per-set rounds** — once the contiguous runs stall, the remaining
  leaders are grouped by set and replayed round by round: round ``r``
  applies every touched set's ``r``-th remaining reference in one
  gather/hit-test/scatter pass over ``[k, assoc]`` sub-matrices.  Sets
  are independent, so reordering *across* sets while preserving order
  *within* each set is exact — this replaces the old sequential
  per-set Python tail for LRU/FIFO whole-chunk calls and is what fixed
  the scattered-miss regression on conflict-heavy streams.

Everything the vectorised phases cannot do runs one sequential walk,
:meth:`ArrayKernel._walk_sets`: the shared per-reference loop of
:class:`~repro.cache.kernels.base.SetKernel` over the touched sets as
small logical-order Python lists, each built from the arrays on first
touch and written back in one batched scatter at the end of the call.
The rounds pass cannot express a global miss-budget cut (the cut point
depends on the interleaved global miss order) or RANDOM eviction (pool
pops happen in global miss order), so those leftovers take the walk, as
do the rounds pass's single-set pile-ups and calls too short for any
vectorised phase. So do whole calls with a write mask or on a
prefetching kernel: prefetch fills may touch neighbouring sets
mid-chunk and dirty bits must be set in reference order, so none of the
vectorised phases is sound there.

A call under a ``miss_budget`` runs in the windows of
:func:`~repro.cache.kernels.base.budget_windows`: the fast path sees a
window of ``max(256, 4 * budget)`` references first, then windows twice
as long, each with the budget left over, and the call stops at the
window where the budget runs out. Sampling calls are offered thousands
of references but consume a few hundred, so every phase above is paid
on about what the call consumes. Windows change no result: state
carries over between them exactly, and RANDOM's eviction pool is sized
once from the offered chunk before the first window.

A ``victims=True`` call (mechanism decorators) takes the same phases and
reads each miss's victim off the state it replaces: a fill run's victim
is the tag under its slot before the run, or the fill ``assoc`` places
earlier in its set; a rounds-tail miss's victim is the tag in the
gathered row. Its sequential parts run the shared victim walk over the
same set lists, under the refill-on-empty RANDOM draw rule.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.cache.kernels.base import (
    KernelResult,
    SetKernel,
    budget_windows,
    check_miss_budget,
    empty_result,
    victim_result,
)
from repro.cache.policies import ReplacementPolicy

#: Empty-slot sentinel; real line numbers are non-negative.
_EMPTY = -1

#: Leaders needed before the vectorised run phases are attempted (below
#: this, per-round NumPy overhead exceeds the win).
_BATCH_MIN = 64

#: Leaders needed before the rounds tail beats the sequential walk; a
#: call of fewer references goes straight to the walk.
_ROUNDS_MIN = 32

#: The chunk-scoped mutable state bundle threaded through the fast
#: paths: (tags2d, dirty2d, head, cnt).
_Arrays = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _radix_key(values: np.ndarray, maxval: int) -> np.ndarray:
    """Narrow a non-negative grouping key so stable argsort picks radix.

    NumPy's ``kind="stable"`` sort is radix for <= 16-bit integers but
    timsort for wider ones — several times slower on the chunk-sized set
    and sequence keys sorted here. The key is only used for ordering, so
    narrowing is safe whenever the value range fits.
    """
    if maxval < 1 << 16:
        return values.astype(np.uint16)
    return values


def _fast_result(
    miss_flags: bytearray,
    consumed: int,
    misses: int,
    writebacks: int,
    vic: np.ndarray | None,
) -> KernelResult:
    """Package the fast path's per-reference flags (and victims)."""
    miss_mask = np.frombuffer(
        bytes(miss_flags[:consumed]), dtype=np.uint8
    ).astype(bool)
    victims = None if vic is None else vic[:consumed][miss_mask]
    return KernelResult(miss_mask, consumed, misses, writebacks, 0, victims)


def _joined(parts: list[KernelResult], victims: bool) -> KernelResult:
    """One call's result from the results of its consecutive windows."""
    return KernelResult(
        np.concatenate([p.miss_mask for p in parts]),
        sum(p.consumed for p in parts),
        sum(p.misses for p in parts),
        sum(p.writebacks for p in parts),
        0,
        np.concatenate([p.victims for p in parts if p.victims is not None])
        if victims
        else None,
    )


class ArrayKernel(SetKernel):
    """Flat-array set-associative kernel, bit-identical to the reference."""

    name = "array"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        #: True when ``assoc`` is a power of two, enabling mask modulo.
        self._way_mask = self.assoc & (self.assoc - 1) == 0
        self._alloc()

    def _alloc(self) -> None:
        self._tags2d = np.full((self.n_sets, self.assoc), _EMPTY, dtype=np.int64)
        self._dirty2d = np.zeros((self.n_sets, self.assoc), dtype=np.int64)
        self._head_np = np.zeros(self.n_sets, dtype=np.int64)
        self._cnt_np = np.zeros(self.n_sets, dtype=np.int64)
        self._n_dirty = 0

    # ------------------------------------------------------------ state API

    def reset(self) -> None:
        self._alloc()

    def contents_line_count(self) -> int:
        return int(self._cnt_np.sum())

    def dirty_line_count(self) -> int:
        return self._n_dirty

    def lines_in_set(self, set_idx: int) -> list[int]:
        # A non-zero head only ever belongs to a full set.
        row = self._tags2d[set_idx].tolist()
        h = self._head_np.item(set_idx)
        return row[h:] + row[:h] if h else row[: self._cnt_np.item(set_idx)]

    def contains_line(self, line: int) -> bool:
        return bool((self._tags2d[line & self.set_mask] == line).any())

    def snapshot(self) -> object:
        return (
            self._tags2d.copy(),
            self._head_np.copy(),
            self._cnt_np.copy(),
            self._dirty2d.copy(),
            self._n_dirty,
            list(self._rand_pool),
            copy.deepcopy(self._rng.bit_generator.state),
            self._rand_draws,
        )

    def restore(self, state: object) -> None:
        tags, head, cnt, dirty, n_dirty, pool, rng_state, rand_draws = state
        self._tags2d = np.array(tags, dtype=np.int64).reshape(
            self.n_sets, self.assoc
        )
        self._head_np = np.array(head, dtype=np.int64)
        self._cnt_np = np.array(cnt, dtype=np.int64)
        self._dirty2d = np.array(dirty, dtype=np.int64).reshape(
            self.n_sets, self.assoc
        )
        self._n_dirty = n_dirty
        self._rand_pool = list(pool)
        self._rng.bit_generator.state = copy.deepcopy(rng_state)
        self._rand_draws = rand_draws

    # -------------------------------------------------------------- access

    def access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        writes: np.ndarray | None = None,
        victims: bool = False,
    ) -> KernelResult:
        check_miss_budget(miss_budget)
        n = len(addrs)
        if n == 0:
            return empty_result(victims)
        lines_arr = np.asarray(addrs, dtype=np.uint64) >> self.line_bits
        if not victims and self.policy is ReplacementPolicy.RANDOM:
            # Sized once from the offered chunk, never per window.
            self._ensure_rand_pool(n)
        if writes is not None or self.prefetch_next_line or n < _ROUNDS_MIN:
            return self._walk_sets(
                lines_arr.tolist(),
                None if writes is None else writes.tolist(),
                miss_budget,
                victims,
            )
        parts: list[KernelResult] = []
        left = miss_budget
        for lo, hi in budget_windows(n, miss_budget):
            part = self._access_fast(lines_arr[lo:hi], left, victims)
            parts.append(part)
            if left is not None:
                left -= part.misses
                if left == 0:
                    break
        return parts[0] if len(parts) == 1 else _joined(parts, victims)

    # ------------------------------------------------------ sequential walk

    def _walk_sets(
        self,
        lines: list[int],
        write_flags: list[bool] | None,
        budget: int | None,
        victims: bool,
    ) -> KernelResult:
        """Apply ``lines`` as one call, a reference at a time.

        Runs the walk of the call's draw rule (:meth:`SetKernel._walk`,
        or :meth:`SetKernel._victim_walk` for ``victims``) over the
        touched sets as lists built from the arrays on first touch
        (:class:`_SetLists`), and writes them back once at the end. This
        is the one sequential path: whole calls with a write mask, on a
        prefetching kernel or too short for a vectorised phase, and the
        leaders the vectorised phases leave over (:meth:`_tail`).
        """
        n = len(lines)
        sets = _SetLists(self)
        if victims:
            miss_pos, evicted, writebacks = self._victim_walk(
                lines, sets, sets.dirty, write_flags, budget
            )
            result = victim_result(n, miss_pos, evicted, writebacks, budget)
        else:
            miss_flags = bytearray(n)
            misses, writebacks, prefetches, cut = self._walk(
                lines,
                range(n),
                sets,
                sets.dirty,
                write_flags,
                miss_flags,
                n + 1 if budget is None else budget,
            )
            consumed = n if cut is None else cut
            miss_mask = np.frombuffer(miss_flags, dtype=np.uint8)[:consumed]
            result = KernelResult(
                miss_mask.astype(bool), consumed, misses, writebacks, prefetches
            )
        self._store_sets(sets)
        return result

    def _tail(
        self,
        lines: list[int],
        pos: np.ndarray,
        mf: np.ndarray,
        vic: np.ndarray | None,
        budget: int | None,
    ) -> tuple[int, int, int | None]:
        """Walk leftover leaders ``lines``, at chunk positions ``pos``, as
        one sequential call (a victim-reporting one when ``vic`` is
        given), and flag its misses in ``mf`` (and their victims in
        ``vic``). Returns the misses, the writebacks and the chunk
        position just past the ``budget``-th miss (None when the budget
        was not reached)."""
        part = self._walk_sets(lines, None, budget, vic is not None)
        miss_at = pos[: part.consumed][part.miss_mask]
        mf[miss_at] = 1
        if vic is not None:
            vic[miss_at] = part.victims
        stop = int(miss_at[-1]) + 1 if part.misses == budget else None
        return part.misses, part.writebacks, stop

    def _store_sets(self, sets: _SetLists) -> None:
        """Write the touched ``sets`` back to the arrays in one batched
        scatter (head normalised to 0, empty ways cleared), dirty bits
        included whenever a line of the kernel was or became dirty."""
        if not sets:
            return
        assoc = self.assoc
        pad = [_EMPTY] * assoc
        flat: list[int] = []
        for s in sets.values():
            flat += s
            if len(s) < assoc:
                flat += pad[len(s) :]
        idx = np.fromiter(sets, dtype=np.int64, count=len(sets))
        self._tags2d[idx] = np.array(flat, dtype=np.int64).reshape(-1, assoc)
        self._cnt_np[idx] = [len(s) for s in sets.values()]
        self._head_np[idx] = 0
        dirty = sets.dirty
        if sets.had_dirty or dirty:
            self._n_dirty += len(dirty) - int(self._dirty2d[idx].sum())
            self._dirty2d[idx] = np.array(
                [ln in dirty for ln in flat], dtype=np.int64
            ).reshape(-1, assoc)

    # ------------------------------------------------------------ fast path

    def _resident_mask(self, ss: np.ndarray, ll: np.ndarray) -> np.ndarray:
        """Per-leader residency via flat per-way gathers.

        Equivalent to ``(tags2d[ss] == ll[:, None]).any(axis=1)`` but
        several times faster: the row-gather materialises an
        ``[m, assoc]`` matrix, while ``assoc`` flat gathers stream the
        (cache-hot) tag array against ``ll`` with no 2-D temporary.
        """
        flat = self._tags2d.reshape(-1)
        base = ss * self.assoc
        out = flat[base] == ll
        for way in range(1, self.assoc):
            out |= flat[base + way] == ll
        return out

    def _access_fast(
        self,
        lines_arr: np.ndarray,
        miss_budget: int | None,
        victims: bool = False,
    ) -> KernelResult:
        """Follower skip + alternating runs + rounds tail (no writes)."""
        n = len(lines_arr)
        #: Per-reference victim line (-1 = none), for ``victims`` calls.
        vic = np.full(n, -1, dtype=np.int64) if victims else None
        if n > 1:
            leader_pos = np.flatnonzero(
                np.concatenate(([True], lines_arr[1:] != lines_arr[:-1]))
            )
        else:
            leader_pos = np.zeros(1, dtype=np.int64)
        n_lead = len(leader_pos)

        # Set-aware follower skip: a leader whose *same-set* predecessor
        # in this chunk touched the same line is a certain hit with zero
        # state change — within a set, state only moves on that set's own
        # references, so the line is still that set's MRU (LRU promote is
        # a no-op; FIFO/RANDOM do nothing on hits, and RANDOM pops the
        # pool only on misses). This catches interleaved revisit patterns
        # (A X A X ...) that the adjacent-follower skip above cannot: one
        # stable radix sort groups leaders by set while preserving chunk
        # order, so equal neighbours there are exactly the per-set
        # consecutive repeats. Streams that touch each line a few times
        # in a row per set collapse to distinct-line miss runs the
        # closed-form fill phase applies wholesale. The surviving
        # grouped order is kept (``grouped``) so the miss-run phase can
        # certify revisits as re-misses and whole-chunk fills can skip
        # re-sorting.
        grouped = None
        if n_lead >= _ROUNDS_MIN:
            pre_lines = lines_arr[leader_pos].astype(np.int64)
            pre_sets = pre_lines & self.set_mask
            pre_order = np.argsort(
                _radix_key(pre_sets, self.n_sets - 1), kind="stable"
            )
            sl = pre_lines[pre_order]
            sg = pre_sets[pre_order]
            skeep = np.ones(n_lead, dtype=bool)
            skeep[1:] = (sl[1:] != sl[:-1]) | (sg[1:] != sg[:-1])
            if not skeep.all():
                lkeep = np.ones(n_lead, dtype=bool)
                lkeep[pre_order[~skeep]] = False
                new_idx = np.cumsum(lkeep) - 1
                leader_pos = leader_pos[lkeep]
                n_lead = len(leader_pos)
                pre_order = new_idx[pre_order[skeep]]
                sg = sg[skeep]
            firstg = np.ones(n_lead, dtype=bool)
            firstg[1:] = sg[1:] != sg[:-1]
            gstart = np.flatnonzero(firstg)
            gsz = np.diff(np.append(gstart, n_lead))
            grouped = (pre_order, sg, gstart, gsz)

        miss_flags = bytearray(n)
        mf = np.frombuffer(miss_flags, dtype=np.uint8)
        budget = miss_budget  # None = unlimited
        misses = 0
        writebacks = 0
        consumed = n
        set_mask = self.set_mask
        assoc = self.assoc
        lru = self.policy is ReplacementPolicy.LRU
        random_policy = self.policy is ReplacementPolicy.RANDOM

        tags2d = self._tags2d
        arrays = (tags2d, self._dirty2d, self._head_np, self._cnt_np)
        leader_lines = lines_arr[leader_pos].astype(np.int64)
        sets_all = leader_lines & set_mask

        # -------- vectorised phases: alternate certified-hit runs and
        # guaranteed-miss runs against the live state.
        start = 0  # index into leader_pos of the first unprocessed leader
        if n_lead >= _BATCH_MIN and grouped is not None:
            unsafe_j = None  # computed lazily, once per chunk
            rounds = 0
            while True:
                rem = n_lead - start
                if rem < 64 or rounds >= 8:
                    break
                rounds += 1
                ll = leader_lines[start:]
                ss = sets_all[start:]
                resident = self._resident_mask(ss, ll)
                min_run = 64 if rem < 4096 else rem >> 6
                if resident[0]:
                    run = rem if resident.all() else int(np.argmin(resident))
                    if run < min_run:
                        break
                    if lru:
                        self._promote_run(arrays, ss[:run], ll[:run])
                    start += run
                else:
                    if random_policy:
                        break  # RANDOM misses must pop the pool in order
                    stop = (
                        int(np.argmax(resident)) if resident.any() else rem
                    )
                    if budget is not None:
                        stop = min(stop, budget)
                    if stop < min_run:
                        break  # too short even before dup trimming
                    if unsafe_j is None:
                        # A leader revisiting an earlier in-chunk leader
                        # line is itself a guaranteed re-miss when at
                        # least ``assoc`` same-set leaders sit between
                        # the two occurrences: inside an all-miss run
                        # every one of those is a fill, and ``assoc``
                        # fills are exactly what it takes to walk the
                        # revisited line out of its set under LRU and
                        # FIFO alike (no interleaved hit can refresh it
                        # — the run has none). Only *unsafe* revisits
                        # (gap <= assoc, fate state-dependent) need to
                        # stop a run — and an unsafe revisit sits within
                        # ``assoc`` positions of its previous occurrence
                        # in the set-grouped order computed at the top
                        # of the chunk, so ``assoc`` shifted equality
                        # passes over that order find them all with no
                        # further sorting. (Chunk-global, once per
                        # chunk; distant revisits never make the list.)
                        g_order, g_sets, _, _ = grouped
                        pis = []
                        pjs = []
                        sl_lines = leader_lines[g_order]
                        for d in range(1, assoc + 1):
                            near = (sl_lines[d:] == sl_lines[:-d]) & (
                                g_sets[d:] == g_sets[:-d]
                            )
                            if near.any():
                                hit_k = np.flatnonzero(near)
                                pis.append(g_order[hit_k])
                                pjs.append(g_order[hit_k + d])
                        if pis:
                            unsafe_j = (
                                np.concatenate(pis),
                                np.concatenate(pjs),
                            )
                        else:
                            empty = np.zeros(0, dtype=np.int64)
                            unsafe_j = (empty, empty)
                    p_i, p_j = unsafe_j
                    if p_j.size:
                        # Cut before the first unsafe revisit whose
                        # previous occurrence is also in this run (an
                        # older occurrence is settled by the residency
                        # test above — consecutive pairs mean nothing
                        # refills the line in between).
                        live = p_i >= start
                        if live.any():
                            m = min(stop, int(p_j[live].min()) - start)
                        else:
                            m = stop
                    else:
                        m = stop
                    if budget is not None:
                        m = min(m, budget)
                    if m < min_run:
                        break
                    presorted = None
                    if start == 0 and m == n_lead:
                        # Whole-chunk fill: reuse the set grouping from
                        # the top-of-chunk sort instead of re-sorting.
                        presorted = grouped
                    run_pos = leader_pos[start : start + m]
                    wb = self._fill_run(
                        arrays, ss[:m], ll[:m], presorted, vic, run_pos
                    )
                    mf[run_pos] = 1
                    misses += m
                    writebacks += wb
                    self._n_dirty -= wb
                    if budget is not None:
                        budget -= m
                        if budget == 0:
                            consumed = int(leader_pos[start + m - 1]) + 1
                            return _fast_result(
                                miss_flags, consumed, misses, writebacks, vic
                            )
                    start += m

        rem = n_lead - start
        if rem == 0:
            return _fast_result(miss_flags, consumed, misses, writebacks, vic)

        # -------- rounds tail: whole-chunk gather/scatter for the
        # scattered remainder. Sound only without a budget (the cut point
        # depends on global miss order) and without RANDOM eviction (pool
        # pops happen in global miss order); per-set reference order is
        # preserved exactly, and sets are independent.
        if budget is None and not random_policy and rem >= _ROUNDS_MIN:
            tail_misses, tail_wb = self._tail_rounds(
                leader_lines[start:],
                sets_all[start:],
                leader_pos[start:],
                mf,
                vic,
            )
            misses += tail_misses
            writebacks += tail_wb
            return _fast_result(miss_flags, consumed, misses, writebacks, vic)

        seq: slice | np.ndarray = slice(start, n_lead)
        if rem >= 256 and (budget is None or not lru):
            # Scattered certified-hit pass before the sequential tail:
            # any remaining leader that is resident AND precedes its own
            # set's first non-resident leader must hit — other sets'
            # misses can't evict it. Promote those wholesale and drop them
            # from the tail. With a budget the LRU variant is unsound: a
            # mid-tail stop makes the caller replay leaders whose promotes
            # were already applied.
            ll = leader_lines[start:]
            ss = sets_all[start:]
            resident = self._resident_mask(ss, ll)
            nonres = np.flatnonzero(~resident)
            if nonres.size:
                first_miss = np.full(self.n_sets, rem, dtype=np.int64)
                np.minimum.at(first_miss, ss[nonres], nonres)
                certified = resident & (np.arange(rem) < first_miss[ss])
            else:
                certified = resident  # every remaining leader hits
            if certified.any():
                if lru:
                    self._promote_run(arrays, ss[certified], ll[certified])
                seq = np.flatnonzero(~certified) + start
                if not seq.size:
                    return _fast_result(
                        miss_flags, consumed, misses, writebacks, vic
                    )

        tail_misses, tail_wb, stop = self._tail(
            leader_lines[seq].tolist(), leader_pos[seq], mf, vic, budget
        )
        if stop is not None:
            consumed = stop
        return _fast_result(
            miss_flags, consumed, misses + tail_misses, writebacks + tail_wb, vic
        )

    # --------------------------------------------------- vectorised phases

    def _tail_rounds(
        self,
        ll: np.ndarray,
        ss: np.ndarray,
        pos: np.ndarray,
        mf: np.ndarray,
        vic: np.ndarray | None = None,
    ) -> tuple[int, int]:
        """Replay the remaining leaders as per-set rounds (LRU/FIFO only).

        Leaders are stably grouped by set; round ``r`` applies every
        touched set's ``r``-th remaining reference in one vectorised
        gather/hit-test/scatter pass over compact working matrices of
        just the touched sets. Recency/insertion order is tracked as a
        per-slot *timestamp* (seeded from each line's logical position,
        then one strictly-increasing stamp per round) so that an LRU
        promote is a single scatter and eviction is an ``argmin`` —
        the canonical ``(head, cnt)`` circular encoding is restored by
        one per-row argsort at the very end of the chunk, not per round.
        Each set sees its references in chunk order and sets are
        independent, so the result is bit-identical to the sequential
        loop. Returns ``(misses, writebacks)`` and scatters the global
        miss flags (and, given ``vic``, each miss's victim: the tag its
        slot held in the gathered row) through ``mf``/``pos``.
        """
        tags2d = self._tags2d
        dirty2d = self._dirty2d
        assoc = self.assoc
        m = len(ll)

        order = np.argsort(_radix_key(ss, self.n_sets - 1), kind="stable")
        s_sets = ss[order]
        l_sets = ll[order]
        p_sets = pos[order]
        # Collapse consecutive same-line references within each set's
        # subsequence: only the first can miss (afterwards the line is
        # resident), and re-touching the MRU line is a no-op for LRU
        # recency order and FIFO insertion order alike — the sequential
        # tail skips them via its `last` check for the same reason.
        # Dictionary-style streams (compress) shed most of their rounds
        # here: the round count is the max per-set *collapsed* length.
        keep = np.ones(m, dtype=bool)
        keep[1:] = (l_sets[1:] != l_sets[:-1]) | (s_sets[1:] != s_sets[:-1])
        if not keep.all():
            s_sets = s_sets[keep]
            l_sets = l_sets[keep]
            p_sets = p_sets[keep]
            m = len(s_sets)
        first = np.ones(m, dtype=bool)
        first[1:] = s_sets[1:] != s_sets[:-1]
        grp_start = np.flatnonzero(first)
        grp_sizes = np.diff(np.append(grp_start, m))
        seq = np.arange(m, dtype=np.int64) - np.repeat(grp_start, grp_sizes)
        max_rounds = int(grp_sizes.max())
        if max_rounds > max(64, m >> 4):
            # Pathological single-set pile-up: per-round selections would
            # be tiny, so the sequential walk is faster.
            misses, wb, _ = self._tail(ll.tolist(), pos, mf, vic, None)
            return misses, wb
        order2 = np.argsort(_radix_key(seq, max_rounds - 1), kind="stable")
        bounds = np.searchsorted(seq[order2], np.arange(max_rounds + 1))

        # Compact working copies of the touched sets only. Tags and
        # timestamps ride side by side in one [T, 2*assoc] matrix so each
        # round pays a single row gather for both.
        rows_u = s_sets[grp_start]  # sorted unique touched sets
        wdirty = dirty2d[rows_u]
        h = self._head_np[rows_u]
        stride = 2 * assoc
        wstate = np.empty((len(rows_u), stride), dtype=np.int64)
        wstate[:, :assoc] = tags2d[rows_u]
        # Timestamp seed: logical position of each valid slot (empties
        # get -1 so argmin fills them first, lowest slot first — non-full
        # sets have head 0, so their empties sit above the valid slots in
        # increasing order, matching sequential fill order).
        raw = np.arange(assoc)[None, :] + (assoc - h[:, None])
        wstate[:, assoc:] = (
            raw & (assoc - 1) if self._way_mask else raw % assoc
        )
        wstate[:, assoc:][wstate[:, :assoc] == _EMPTY] = -1

        # Per-leader compact row index and line/pos, in round order.
        inv = np.repeat(np.arange(len(rows_u), dtype=np.int64), grp_sizes)
        lrows = inv[order2]
        llines = l_sets[order2]
        lpos = p_sets[order2]

        lru = self.policy is ReplacementPolicy.LRU
        wstate1 = wstate.reshape(-1)
        wdirty1 = wdirty.reshape(-1)
        track_dirty = self._n_dirty > 0
        stamp = assoc  # strictly above every seed value
        misses = 0
        writebacks = 0
        for r in range(max_rounds):
            sl = slice(int(bounds[r]), int(bounds[r + 1]))
            rows = lrows[sl]
            rl = llines[sl]
            g = wstate[rows]
            eq = g[:, :assoc] == rl[:, None]
            hit = eq.any(axis=1)
            # LRU victim = least-recent stamp; FIFO victim = earliest
            # insertion stamp (hits never refresh it). Either way argmin.
            victim = g[:, assoc:].argmin(axis=1)
            slot = np.where(hit, eq.argmax(axis=1), victim)
            flat = rows * stride + slot
            # Unconditional: a hit rewrites its own tag, a miss fills.
            wstate1[flat] = rl
            if lru:
                wstate1[flat + assoc] = stamp  # promote and fill alike
            midx = np.flatnonzero(~hit)
            if midx.size:
                if vic is not None:
                    vic[lpos[sl][midx]] = g[midx, slot[midx]]
                if track_dirty:
                    dflat = rows[midx] * assoc + slot[midx]
                    wb = int(wdirty1[dflat].sum())
                    writebacks += wb
                    wdirty1[dflat] = 0
                if not lru:
                    wstate1[flat[midx] + assoc] = stamp
                mf[lpos[sl][midx]] = 1
                misses += midx.size
            stamp += 1

        # Restore the canonical encoding: valid slots by ascending stamp
        # (oldest first), empties last, head normalised to 0.
        wtags = wstate[:, :assoc]
        empty = wtags == _EMPTY
        key = np.where(empty, np.int64(1) << 60, wstate[:, assoc:])
        orderw = np.argsort(key, axis=1, kind="stable")
        tags2d[rows_u] = np.take_along_axis(wtags, orderw, axis=1)
        dirty2d[rows_u] = np.take_along_axis(wdirty, orderw, axis=1)
        self._cnt_np[rows_u] = (~empty).sum(axis=1)
        self._head_np[rows_u] = 0
        self._n_dirty -= writebacks
        return misses, writebacks

    def _promote_run(
        self, arrays: _Arrays, run_sets: np.ndarray, run_lines: np.ndarray
    ) -> None:
        """Apply a certified-hit run's LRU promotes wholesale.

        After a sequence of hits, lines never hit keep their relative
        recency order at the bottom and hit lines stack above them
        ordered by *last* hit — so one stable argsort per touched set
        reproduces the per-reference promote loop exactly. Last-touch
        ranks come from a scatter (later writes win), so no sort over
        the run itself is needed — only tiny per-set argsorts.
        """
        tags2d, dirty2d, head_np, _ = arrays
        assoc = self.assoc
        n_r = len(run_lines)
        if n_r == 0:
            return
        phys = (tags2d[run_sets] == run_lines[:, None]).argmax(axis=1)
        last_touch = np.full(self.n_sets * assoc, -1, dtype=np.int64)
        last_touch[run_sets * assoc + phys] = np.arange(n_r)
        touched = np.zeros(self.n_sets, dtype=bool)
        touched[run_sets] = True
        rows = np.flatnonzero(touched)
        sub = tags2d[rows]
        # Sort key per slot: untouched lines keep logical position,
        # touched lines rank above by last touch, empties stay last.
        key = (np.arange(assoc)[None, :] - head_np[rows][:, None]) % assoc
        lt = last_touch.reshape(self.n_sets, assoc)[rows]
        hitm = lt >= 0
        key[hitm] = assoc + lt[hitm]
        key[sub == _EMPTY] = assoc + n_r + 1
        order = np.argsort(key, axis=1, kind="stable")
        tags2d[rows] = np.take_along_axis(sub, order, axis=1)
        dirty2d[rows] = np.take_along_axis(dirty2d[rows], order, axis=1)
        head_np[rows] = 0

    def _fill_run(
        self,
        arrays: _Arrays,
        cs: np.ndarray,
        cl: np.ndarray,
        presorted: _Arrays | None = None,
        vic: np.ndarray | None = None,
        vic_pos: np.ndarray | None = None,
    ) -> int:
        """Apply a guaranteed-miss run as vectorised circular appends.

        ``cs``/``cl`` are the run's sets and non-resident lines in chunk
        order (a line may repeat when the caller certified the revisit
        as a re-miss — by then the earlier fill has already been walked
        out, so appending again is exact); returns the number of dirty
        victims written back. Only called for LRU/FIFO. ``presorted``
        optionally carries ``(order, s_sets, grp_start, grp_sizes)``
        from a caller that already grouped the whole run by set. Given
        ``vic``, each fill's victim is stored at its chunk position from
        ``vic_pos``.
        """
        tags2d, dirty2d, head_np, cnt_np = arrays
        assoc = self.assoc
        m = len(cl)
        if presorted is not None:
            order, s_sets, grp_start, grp_sizes = presorted
            s_lines = cl[order]
        else:
            order = np.argsort(
                _radix_key(cs, self.n_sets - 1), kind="stable"
            )
            s_sets = cs[order]
            s_lines = cl[order]
            # Per-set fill sequence number: position in the set's group.
            first = np.ones(m, dtype=bool)
            first[1:] = s_sets[1:] != s_sets[:-1]
            grp_start = np.flatnonzero(first)
            grp_sizes = np.diff(np.append(grp_start, m))
        seq = np.arange(m, dtype=np.int64) - np.repeat(grp_start, grp_sizes)

        c0s = cnt_np[s_sets]
        t = c0s + seq  # logical tail index of each fill
        raw = head_np[s_sets] + t  # non-negative, so masking == modulo
        phys = raw & (assoc - 1) if self._way_mask else raw % assoc
        flat = s_sets * assoc + phys

        # A fill evicts iff its set was full at fill time (t >= assoc);
        # the victim predates the run — and so can be dirty — iff it
        # was not itself filled by an earlier wrap (t < cnt0 + assoc).
        # With no dirty line anywhere the writeback accounting is all
        # zeros, so the gather/scatter pair is skipped outright.
        wb = 0
        track_dirty = self._n_dirty > 0
        dirty_flat = dirty2d.reshape(-1)
        if track_dirty:
            evict_pre = (t >= assoc) & (t < c0s + assoc)
            wb = int(dirty_flat[flat[evict_pre]].sum())
        if vic is not None:
            # A set's first `assoc` fills replace the tag under their slot
            # (an empty way holds -1); each later fill replaces the fill
            # `assoc` places before it in the same set.
            victims = tags2d.reshape(-1)[flat]
            late = np.flatnonzero(seq >= assoc)
            victims[late] = s_lines[late - assoc]
            vic[vic_pos[order]] = victims

        # Only a set's last `assoc` fills survive, and together they hit
        # every slot the set's earlier fills touched (same phys modulo
        # assoc) — so scattering just those gives last-write-wins with
        # unique slot indices, no sort needed.
        fills = np.repeat(grp_sizes, grp_sizes)
        final = seq >= fills - assoc
        tags2d.reshape(-1)[flat[final]] = s_lines[final]
        if track_dirty:
            dirty_flat[flat[final]] = 0

        fill_sets = s_sets[grp_start]
        c0 = cnt_np[fill_sets]
        cnt_np[fill_sets] = np.minimum(assoc, c0 + grp_sizes)
        head_np[fill_sets] = (
            head_np[fill_sets] + np.maximum(0, c0 + grp_sizes - assoc)
        ) % assoc
        return wb


class _SetLists(dict[int, list[int]]):
    """An array kernel's sets as logical-order line lists, each built on
    first touch: the container its walks run on.

    A set is built from ``_tags2d``/``_head_np``/``_cnt_np`` by
    :meth:`ArrayKernel.lines_in_set`, and its dirty lines (from
    ``_dirty2d``) join :attr:`dirty`, so a walk keeps dirtiness by line
    value as the reference kernel does. :meth:`ArrayKernel._store_sets`
    writes the built sets back.
    """

    def __init__(self, kernel: ArrayKernel) -> None:
        super().__init__()
        self.kernel = kernel
        #: Dirty lines of the sets built so far.
        self.dirty: set[int] = set()
        #: Whether the arrays held any dirty line when the walk began.
        self.had_dirty = kernel._n_dirty > 0

    def __missing__(self, set_idx: int) -> list[int]:
        kernel = self.kernel
        s = self[set_idx] = kernel.lines_in_set(set_idx)
        if self.had_dirty:
            row = kernel._tags2d[set_idx].tolist()
            for line, d in zip(row, kernel._dirty2d[set_idx].tolist()):
                if d:
                    self.dirty.add(line)
        return s
