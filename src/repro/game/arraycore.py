"""Array-native CCSGA engine: the vectorized coalition candidate scan.

The object engine (:mod:`.coalition` + :mod:`.switching`) evaluates a
device's candidate moves with a Python loop over live coalitions — fast
in *algorithmic* terms after the PR-1 incremental-cost work, but still
~1 µs of interpreter overhead per candidate, which caps throughput near
n ≈ 800.  This module stores the same state struct-of-arrays style and
evaluates **all** candidate moves of a scan with a handful of numpy ops:

====================  =========================================  =========
quantity              array (one row per live coalition)         dtype
====================  =========================================  =========
charger binding       ``_charger[0:k]``                          int64
coalition id          ``_cid[0:k]``                              int64
member count          ``_size[0:k]``                             int64
cached Σ demand       ``_demand[0:k]``                           float64
cached session price  ``_price[0:k]``                            float64
cached Σ moving cost  ``_move[0:k]``                             float64
====================  =========================================  =========

plus per-device state (``_dev_row``, demand list, the shared
moving-cost / singleton matrices of the instance).  Rows are kept
*packed*: deleting a coalition swap-removes its row, so every scan
operates on contiguous ``[0:k]`` views with no gather step.

**Bit-identity contract.**  :class:`ArrayState` must be observationally
indistinguishable from :class:`~repro.game.coalition.CoalitionStructure`
driving the same dynamics: the same permitted switch chosen for every
device (identical tie-breaks), the same cached aggregates, the same
total cost *to the last bit*, and the same Zobrist hash.  That is why

- every reduction with more than one float term mirrors the object
  engine's op order exactly (sorted-member Python-loop demand sums, the
  same numpy pairwise ``.sum()`` for move sums, the same
  ``(a + (b + c)) - (d + e)`` delta grouping);
- session prices come from :class:`~repro.wpt.vector.ChargerPriceTable`,
  whose vectorized tariff arithmetic is bitwise equal to the scalar
  path (both route pow through numpy — see
  :class:`~repro.wpt.pricing.PowerLawTariff`);
- candidate selection replicates ``SwitchRule.best_move``'s
  lexicographic key ``(own_delta, is_singleton, charger, cid)`` with an
  argmin chain instead of a first-strictly-smaller scan (the key is
  unique per candidate, so both find the same winner).

:class:`StructureArrayView` applies the same vectorized kernel to a live
*object* ``CoalitionStructure`` — the service's incremental planner uses
it so improvement/repair sweeps scan in numpy while placements and
journaling keep the object representation.  For the planner's
improvement sweeps it also screens many devices in one pass
(:func:`_kernel_screen_moves`), so the exact per-device kernel runs only
for a device that will move.

dtype discipline: everything float64 / int64; narrowing dtypes and
unordered reductions in this module are rejected by ccs-lint rule
CCS008.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Protocol, Sequence, Set, Tuple, Union

import numpy as np

from ..core.costsharing import CostSharingScheme, share_from_aggregates
from ..core.schedule import Schedule, Session
from ..errors import ConfigurationError
from ..numeric import CACHE_REL_TOL, TOTAL_COST_REL_TOL
from ..wpt import Charger
from .coalition import CoalitionStructure, _charger_token, _device_token, _splitmix64
from .switching import SelfishSwitch, SociallyAwareSwitch, SwitchMove, SwitchRule

__all__ = [
    "ArrayState",
    "StructureArrayView",
    "engine_supported",
]


class _EngineInstance(Protocol):
    """The instance surface the array engine reads.

    Satisfied by :class:`~repro.core.instance.CCSInstance` and
    :class:`~repro.service.plan.PlanInstance`.
    """

    chargers: Sequence[Charger]

    @property
    def n_devices(self) -> int: ...

    @property
    def n_chargers(self) -> int: ...

    def charging_price_for_demand(self, total_demand: float, charger: int) -> float: ...

    def price_for_demand_vector(
        self, totals: np.ndarray, chargers_idx: np.ndarray
    ) -> np.ndarray: ...

    def singleton_price_matrix(self) -> np.ndarray: ...

    def singleton_cost_matrix(self) -> np.ndarray: ...


def engine_supported(
    instance: object, scheme: CostSharingScheme, rule: SwitchRule
) -> bool:
    """True when the array engine can reproduce the object engine exactly.

    Requires a cost-sharing scheme with both scalar and vectorized
    aggregate fast paths (the two paper schemes), one of the two built-in
    switch rules (exactly — a subclass may override ``permits``), and an
    instance exposing vectorized session pricing.
    """
    return (
        type(rule) in (SelfishSwitch, SociallyAwareSwitch)
        and getattr(scheme, "share_of", None) is not None
        and getattr(scheme, "share_of_vector", None) is not None
        and getattr(instance, "price_for_demand_vector", None) is not None
    )


def _capacity_vector(chargers: Sequence[Charger]) -> np.ndarray:
    """Per-charger slot capacities with ``None`` mapped to +inf."""
    return np.array(
        [float("inf") if c.capacity is None else float(c.capacity) for c in chargers],
        dtype=float,
    )


def _availability_mask(instance: object) -> Optional[np.ndarray]:
    """The instance's live charger-availability mask, or ``None`` without one.

    Mirrors the ``getattr`` probe in ``switching._scan_deltas``: frozen
    batch instances have no availability notion and skip the mask.  The
    plan instance maintains the mask as state; scans only read it.
    """
    return getattr(instance, "available_mask", None)


def _join_deltas(
    *,
    scheme: CostSharingScheme,
    instance: _EngineInstance,
    device: "Union[int, np.ndarray]",
    demand: "Union[float, np.ndarray]",
    own_now: "Union[float, np.ndarray]",
    base: "Union[float, np.ndarray]",
    total_now: float,
    cand_charger: np.ndarray,
    cand_size: np.ndarray,
    cand_demand: np.ndarray,
    cand_price: np.ndarray,
    cand_move_sum: np.ndarray,
    mv: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(own_delta, total_delta)`` of joining each candidate coalition.

    *base* is ``total_now + leave``.  One device (scalar *device*,
    *demand*, *own_now*, *base*; *mv* its moving-cost row) gives ``(k,)``
    arrays; ``(D, 1)`` columns and ``(D, m)`` moving-cost rows give
    ``(D, k)``.  Both shapes run the same operations in the same order,
    which keeps the screen bitwise equal to the one-device kernel.
    """
    new_total = cand_demand + demand
    if new_total.ndim == 1:
        new_price = instance.price_for_demand_vector(new_total, cand_charger)
    else:
        # Contiguous flattened operands: the layout of the one-device case.
        new_price = instance.price_for_demand_vector(
            new_total.ravel(), np.tile(cand_charger, new_total.shape[0])
        ).reshape(new_total.shape)
    move_ij = mv[..., cand_charger]
    share = scheme.share_of_vector(  # type: ignore[attr-defined]
        instance, device, cand_size + 1, new_total, new_price
    )
    own_delta = (share + move_ij) - own_now
    join = (new_price + (cand_move_sum + move_ij)) - (cand_price + cand_move_sum)
    return own_delta, (base + join) - total_now


def _singleton_deltas(
    *,
    scheme: CostSharingScheme,
    instance: _EngineInstance,
    device: "Union[int, np.ndarray]",
    demand: "Union[float, np.ndarray]",
    own_now: "Union[float, np.ndarray]",
    base: "Union[float, np.ndarray]",
    total_now: float,
    sp: np.ndarray,
    mv: np.ndarray,
    sc: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(own_delta, total_delta)`` of founding a singleton at each charger.

    Shapes as in :func:`_join_deltas`; *sp*, *mv* and *sc* are the
    singleton-price, moving-cost and singleton-cost entries of the
    chargers considered.
    """
    share = scheme.share_of_vector(  # type: ignore[attr-defined]
        instance, device, 1, demand, sp
    )
    return (share + mv) - own_now, (base + sc) - total_now


def _permits(rule: SwitchRule, own_delta: np.ndarray, total_delta: np.ndarray) -> np.ndarray:
    """The rule's permit predicate as a mask (socially aware: both deltas)."""
    neg = -rule.tol
    permit = own_delta < neg
    if isinstance(rule, SociallyAwareSwitch):
        permit &= total_delta < neg
    return permit


def _kernel_best_move(
    *,
    device: int,
    rule: SwitchRule,
    scheme: CostSharingScheme,
    instance: _EngineInstance,
    demand_i: float,
    own_now: float,
    total_now: float,
    leave: float,
    src_charger: int,
    src_is_singleton: bool,
    exclude_cid: int,
    cand_cid: np.ndarray,
    cand_charger: np.ndarray,
    cand_size: np.ndarray,
    cand_demand: np.ndarray,
    cand_price: np.ndarray,
    cand_move_sum: np.ndarray,
    cap: np.ndarray,
    avail: Optional[np.ndarray],
    mv_row: np.ndarray,
    sp_row: np.ndarray,
    sc_row: np.ndarray,
) -> Optional[SwitchMove]:
    """Vectorized mirror of ``_scan_deltas`` + ``SwitchRule.best_move``.

    Evaluates every join candidate (rows of the ``cand_*`` arrays) and
    every found-a-singleton candidate at once, applies the rule's permit
    predicate as a boolean mask, and selects the winner by the object
    engine's exact lexicographic key.  Candidate rows that the object
    scan would *skip* (the source coalition, full coalitions, down
    chargers) are still computed but masked out of selection — cheaper
    than compressing six arrays, and numerically inert.
    """
    base = total_now + leave
    best_key: Optional[Tuple[float, bool, int, int]] = None
    best: Optional[Tuple[Optional[int], int, float, float]] = None

    if cand_cid.shape[0]:
        ok = cand_cid != exclude_cid
        ok &= (cand_size + 1) <= cap[cand_charger]
        if avail is not None:
            ok &= avail[cand_charger]
        if ok.any():
            own_delta, total_delta = _join_deltas(
                scheme=scheme,
                instance=instance,
                device=device,
                demand=demand_i,
                own_now=own_now,
                base=base,
                total_now=total_now,
                cand_charger=cand_charger,
                cand_size=cand_size,
                cand_demand=cand_demand,
                cand_price=cand_price,
                cand_move_sum=cand_move_sum,
                mv=mv_row,
            )
            hits = np.flatnonzero(_permits(rule, own_delta, total_delta) & ok)
            if hits.size:
                od = own_delta[hits]
                sel = hits[od == od.min()]
                if sel.size > 1:
                    ch = cand_charger[sel]
                    sel = sel[ch == ch.min()]
                    if sel.size > 1:
                        cids = cand_cid[sel]
                        sel = sel[cids == cids.min()]
                win = int(sel[0])
                best_key = (
                    float(own_delta[win]),
                    False,
                    int(cand_charger[win]),
                    int(cand_cid[win]),
                )
                best = (
                    int(cand_cid[win]),
                    int(cand_charger[win]),
                    float(own_delta[win]),
                    float(total_delta[win]),
                )

    m = mv_row.shape[0]
    smask = np.ones(m, dtype=bool)
    if src_is_singleton:
        smask[src_charger] = False
    if avail is not None:
        smask &= avail
    js = np.flatnonzero(smask)
    if js.size:
        own_delta_s, total_delta_s = _singleton_deltas(
            scheme=scheme,
            instance=instance,
            device=device,
            demand=demand_i,
            own_now=own_now,
            base=base,
            total_now=total_now,
            sp=sp_row[js],
            mv=mv_row[js],
            sc=sc_row[js],
        )
        hits = np.flatnonzero(_permits(rule, own_delta_s, total_delta_s))
        if hits.size:
            od = own_delta_s[hits]
            # flatnonzero yields ascending charger order, so the first
            # minimum is the lowest-charger tie-break winner.
            win = int(hits[od == od.min()][0])
            key = (float(od.min()), True, int(js[win]), -1)
            if best_key is None or key < best_key:
                best_key = key
                best = (
                    None,
                    int(js[win]),
                    float(own_delta_s[win]),
                    float(total_delta_s[win]),
                )

    if best is None:
        return None
    return SwitchMove(device, best[0], best[1], best[2], best[3])


def _kernel_screen_moves(
    *,
    devices: np.ndarray,
    rule: SwitchRule,
    scheme: CostSharingScheme,
    instance: _EngineInstance,
    demand: np.ndarray,
    own_now: np.ndarray,
    total_now: float,
    leave: np.ndarray,
    src_charger: np.ndarray,
    src_is_singleton: np.ndarray,
    exclude_cid: np.ndarray,
    cand_cid: np.ndarray,
    cand_charger: np.ndarray,
    cand_size: np.ndarray,
    cand_demand: np.ndarray,
    cand_price: np.ndarray,
    cand_move_sum: np.ndarray,
    cap: np.ndarray,
    avail: Optional[np.ndarray],
    moving: np.ndarray,
    sp: np.ndarray,
    sc: np.ndarray,
) -> np.ndarray:
    """Which of *devices* have a permitted move: :func:`_kernel_best_move`'s
    permit test for many devices at once.

    The per-device scalars (``demand``, ``own_now``, ``leave``, the
    source coalition's charger / singleton flag / cid) become ``(D,)``
    arrays, and both candidate arms gain a leading device axis: joins
    are ``(D, k)``, singletons ``(D, m)``.  Both kernels evaluate the
    arms through :func:`_join_deltas`, :func:`_singleton_deltas` and
    :func:`_permits`, so row ``d`` of each permit mask is bitwise the
    mask the 1-D kernel builds for ``devices[d]``.  Returns a ``(D,)``
    bool array; selection among a device's permitted moves is left to
    :func:`_kernel_best_move`.
    """
    base = (total_now + leave)[:, None]
    col = devices[:, None]
    own = own_now[:, None]
    mv = moving[devices]
    found = np.zeros(devices.shape[0], dtype=bool)

    if cand_cid.shape[0]:
        ok = (cand_cid[None, :] != exclude_cid[:, None]) & (
            (cand_size + 1) <= cap[cand_charger]
        )[None, :]
        if avail is not None:
            ok &= avail[cand_charger][None, :]
        own_delta, total_delta = _join_deltas(
            scheme=scheme,
            instance=instance,
            device=col,
            demand=demand[:, None],
            own_now=own,
            base=base,
            total_now=total_now,
            cand_charger=cand_charger,
            cand_size=cand_size,
            cand_demand=cand_demand,
            cand_price=cand_price,
            cand_move_sum=cand_move_sum,
            mv=mv,
        )
        found |= (_permits(rule, own_delta, total_delta) & ok).any(axis=1)

    m = mv.shape[1]
    smask = ~(src_is_singleton[:, None] & (np.arange(m)[None, :] == src_charger[:, None]))
    if avail is not None:
        smask &= avail[None, :]
    own_delta_s, total_delta_s = _singleton_deltas(
        scheme=scheme,
        instance=instance,
        device=col,
        demand=demand[:, None],
        own_now=own,
        base=base,
        total_now=total_now,
        sp=sp[devices],
        mv=mv,
        sc=sc[devices],
    )
    found |= (_permits(rule, own_delta_s, total_delta_s) & smask).any(axis=1)
    return found


def _kernel_best_insert(
    *,
    device: int,
    scheme: CostSharingScheme,
    instance: _EngineInstance,
    demand_i: float,
    cand_cid: np.ndarray,
    cand_charger: np.ndarray,
    cand_size: np.ndarray,
    cand_demand: np.ndarray,
    cap: np.ndarray,
    avail: Optional[np.ndarray],
    mv_row: np.ndarray,
    sc_row: np.ndarray,
) -> Optional[Tuple[Optional[int], int]]:
    """Vectorized mirror of ``IncrementalPlanner._insert``'s candidate scan.

    Returns ``(target_cid_or_None, charger)`` for the cheapest placement
    of an unplaced device under the planner's exact tie-break key
    ``(cost, join-before-singleton, charger, cid)``, or ``None`` when no
    candidate is feasible.
    """
    best_key: Optional[Tuple[float, int, int, int]] = None
    best: Optional[Tuple[Optional[int], int]] = None

    if cand_cid.shape[0]:
        ok = (cand_size + 1) <= cap[cand_charger]
        if avail is not None:
            ok &= avail[cand_charger]
        idx = np.flatnonzero(ok)
        if idx.size:
            sub_ch = cand_charger[idx]
            new_total = cand_demand[idx] + demand_i
            new_price = instance.price_for_demand_vector(new_total, sub_ch)
            share = scheme.share_of_vector(  # type: ignore[attr-defined]
                instance, device, cand_size[idx] + 1, new_total, new_price
            )
            cost = share + mv_row[sub_ch]
            sel = idx[cost == cost.min()]
            if sel.size > 1:
                ch = cand_charger[sel]
                sel = sel[ch == ch.min()]
                if sel.size > 1:
                    cids = cand_cid[sel]
                    sel = sel[cids == cids.min()]
            win = int(sel[0])
            local = int(np.flatnonzero(idx == win)[0])
            best_key = (
                float(cost[local]),
                0,
                int(cand_charger[win]),
                int(cand_cid[win]),
            )
            best = (int(cand_cid[win]), int(cand_charger[win]))

    m = mv_row.shape[0]
    smask = cap >= 1
    if avail is not None:
        smask = smask & avail
    js = np.flatnonzero(smask)
    if js.size:
        row = sc_row[js]
        win = int(js[np.flatnonzero(row == row.min())[0]])
        key = (float(row.min()), 1, win, -1)
        if best_key is None or key < best_key:
            best_key = key
            best = (None, win)

    return best


class ArrayState:
    """Struct-of-arrays coalition structure — the batch array engine.

    Maintains exactly the state of a
    :class:`~repro.game.coalition.CoalitionStructure` (cached per-
    coalition aggregates, Python-float running total cost, Zobrist hash,
    monotone coalition ids) in packed numpy rows, with
    :meth:`best_move` evaluating a device's whole candidate scan
    vectorized.  Bit-identical to the object engine by construction;
    ``tests/test_game_array.py`` proves it on every golden fixture and
    under hypothesis fuzz.
    """

    def __init__(self, instance: _EngineInstance, scheme: CostSharingScheme):
        self.instance = instance
        self.scheme = scheme
        n = instance.n_devices
        m = instance.n_chargers
        self._demand_list: List[float] = instance._demand_list  # type: ignore[attr-defined]
        self._moving: np.ndarray = instance._moving_cost  # type: ignore[attr-defined]
        self._sp = instance.singleton_price_matrix()
        self._sc = instance.singleton_cost_matrix()
        self._cap = _capacity_vector(instance.chargers)
        self._dev_token: List[int] = [_device_token(i) for i in range(n)]
        self._ch_token: List[int] = [_charger_token(j) for j in range(m)]

        alloc = max(16, n)
        self._charger = np.zeros(alloc, dtype=np.int64)
        self._cid = np.zeros(alloc, dtype=np.int64)
        self._size = np.zeros(alloc, dtype=np.int64)
        self._demand = np.zeros(alloc, dtype=float)
        self._price = np.zeros(alloc, dtype=float)
        self._move = np.zeros(alloc, dtype=float)
        self._members: List[Set[int]] = []
        self._fp: List[int] = []
        self._k = 0
        self._row_of_cid: Dict[int, int] = {}
        self._dev_row = np.full(n, -1, dtype=np.int64)
        self._next_cid = 0
        self._total_cost = 0.0
        self._zhash = 0

    # ------------------------------------------------------------------ #
    # construction

    @classmethod
    def singletons(
        cls, instance: _EngineInstance, scheme: CostSharingScheme
    ) -> "ArrayState":
        """The noncooperative start state (mirrors the object engine)."""
        state = cls(instance, scheme)
        best = np.argmin(instance.singleton_cost_matrix(), axis=1)
        for i in range(instance.n_devices):
            state._create(int(best[i]), {i})
        return state

    @classmethod
    def from_schedule(
        cls,
        instance: _EngineInstance,
        scheme: CostSharingScheme,
        schedule: Schedule,
    ) -> "ArrayState":
        """Seed the array state from an existing schedule (warm start)."""
        state = cls(instance, scheme)
        for session in schedule.sessions:
            state._create(session.charger, set(session.members))
        return state

    # ------------------------------------------------------------------ #
    # row bookkeeping

    def _ensure_alloc(self, rows: int) -> None:
        alloc = self._charger.shape[0]
        if rows <= alloc:
            return
        grown = max(rows, alloc * 2)
        for name in ("_charger", "_cid", "_size"):
            arr = getattr(self, name)
            new = np.zeros(grown, dtype=np.int64)
            new[: self._k] = arr[: self._k]
            setattr(self, name, new)
        for name in ("_demand", "_price", "_move"):
            arr = getattr(self, name)
            new = np.zeros(grown, dtype=float)
            new[: self._k] = arr[: self._k]
            setattr(self, name, new)

    def _new_row(self, charger: int) -> int:
        self._ensure_alloc(self._k + 1)
        row = self._k
        self._k += 1
        cid = self._next_cid
        self._next_cid += 1
        self._charger[row] = charger
        self._cid[row] = cid
        self._size[row] = 0
        self._demand[row] = 0.0
        self._price[row] = 0.0
        self._move[row] = 0.0
        self._members.append(set())
        self._fp.append(0)
        self._row_of_cid[cid] = row
        return row

    def _delete_row(self, row: int) -> None:
        last = self._k - 1
        del self._row_of_cid[int(self._cid[row])]
        if row != last:
            for arr in (
                self._charger,
                self._cid,
                self._size,
                self._demand,
                self._price,
                self._move,
            ):
                arr[row] = arr[last]
            moved = self._members[last]
            self._members[row] = moved
            self._fp[row] = self._fp[last]
            self._row_of_cid[int(self._cid[row])] = row
            for i in moved:
                self._dev_row[i] = row
        self._members.pop()
        self._fp.pop()
        self._k = last

    def _group_cost(self, row: int) -> float:
        return float(self._price[row]) + float(self._move[row])

    def _key_row(self, row: int) -> int:
        return _splitmix64(self._fp[row] ^ self._ch_token[int(self._charger[row])])

    def _refresh(self, row: int) -> None:
        """Recompute a row's cached aggregates from its member set.

        Same summation discipline as the object engine's ``_refresh``:
        demand summed over the sorted member list in a Python loop, the
        move sum via the identical numpy pairwise reduction.
        """
        members = self._members[row]
        ordered = sorted(members)
        charger = int(self._charger[row])
        total = 0.0
        for i in ordered:
            total += self._demand_list[i]
        self._demand[row] = total
        self._price[row] = self.instance.charging_price_for_demand(total, charger)
        # ccs-lint: ignore[CCS008] -- deliberate: the object engine's
        # ``_refresh`` performs this exact pairwise reduction on the same
        # operands; sharing the call keeps both engines bit-identical.
        self._move[row] = float(self._moving[ordered, charger].sum())
        self._size[row] = len(ordered)

    def _create(self, charger: int, members: Set[int]) -> int:
        row = self._new_row(charger)
        fingerprint = 0
        for i in members:
            if int(self._dev_row[i]) != -1:
                raise ValueError(f"device {i} already placed")
            self._dev_row[i] = row
            fingerprint ^= self._dev_token[i]
        self._members[row] = set(members)
        self._fp[row] = fingerprint
        self._refresh(row)
        self._total_cost += self._group_cost(row)
        self._zhash ^= self._key_row(row)
        return row

    # ------------------------------------------------------------------ #
    # queries

    @property
    def total_cost(self) -> float:
        """Comprehensive cost of the current structure (incrementally maintained)."""
        return self._total_cost

    @property
    def n_coalitions(self) -> int:
        """Number of live coalitions."""
        return self._k

    def zobrist_hash(self) -> int:
        """Incrementally maintained 64-bit partition hash (object-engine equal)."""
        return self._zhash

    def state_key(self) -> FrozenSet[Tuple[int, FrozenSet[int]]]:
        """Canonical partition form — comparable across engines."""
        return frozenset(
            (int(self._charger[r]), frozenset(self._members[r]))
            for r in range(self._k)
        )

    def best_move(self, device: int, rule: SwitchRule) -> Optional[SwitchMove]:
        """The permitted move minimizing *device*'s own cost, vectorized.

        Returns exactly what ``rule.best_move(structure, device)`` would
        on the equivalent object structure — same move, same deltas, or
        ``None``.
        """
        src = int(self._dev_row[device])
        src_ch = int(self._charger[src])
        src_size = int(self._size[src])
        src_price = float(self._price[src])
        src_move = float(self._move[src])
        src_demand = float(self._demand[src])
        demand_i = self._demand_list[device]

        share_now = share_from_aggregates(
            self.scheme, self.instance, device, src_size, src_demand, src_price  # type: ignore[arg-type]
        )
        if share_now is None:
            raise ConfigurationError(
                "array engine requires a cost-sharing scheme with the "
                "share_of aggregate fast path"
            )
        own_now = share_now + float(self._moving[device, src_ch])

        if src_size == 1:
            leave = -(src_price + src_move)
        else:
            new_total = src_demand - demand_i
            new_price = self.instance.charging_price_for_demand(new_total, src_ch)
            new_move = src_move - float(self._moving[device, src_ch])
            leave = (new_price + new_move) - (src_price + src_move)

        k = self._k
        return _kernel_best_move(
            device=device,
            rule=rule,
            scheme=self.scheme,
            instance=self.instance,
            demand_i=demand_i,
            own_now=own_now,
            total_now=self._total_cost,
            leave=leave,
            src_charger=src_ch,
            src_is_singleton=(src_size == 1),
            exclude_cid=int(self._cid[src]),
            cand_cid=self._cid[:k],
            cand_charger=self._charger[:k],
            cand_size=self._size[:k],
            cand_demand=self._demand[:k],
            cand_price=self._price[:k],
            cand_move_sum=self._move[:k],
            cap=self._cap,
            avail=_availability_mask(self.instance),
            mv_row=self._moving[device],
            sp_row=self._sp[device],
            sc_row=self._sc[device],
        )

    def is_nash(self, rule: SwitchRule) -> bool:
        """True iff no device has a permitted deviation (vectorized audit)."""
        return all(
            self.best_move(device, rule) is None
            for device in range(self.instance.n_devices)
        )

    # ------------------------------------------------------------------ #
    # moves

    def move(self, device: int, target: Optional[int], charger: int) -> None:
        """Move *device* to coalition *target* (or found a singleton).

        Mirrors ``CoalitionStructure.move`` exactly, including the
        validation order and the total-cost accumulation sequence.
        """
        src = int(self._dev_row[device])
        if target is not None:
            dest = self._row_of_cid[target]
            if dest == src:
                raise ValueError(f"device {device} is already in coalition {target}")
            dest_ch = int(self._charger[dest])
            if not self.instance.chargers[dest_ch].admits(int(self._size[dest]) + 1):
                raise ValueError(
                    f"coalition {target} is at capacity on charger {dest_ch}"
                )
            charger = dest_ch

        token = self._dev_token[device]
        self._zhash ^= self._key_row(src)
        self._total_cost -= self._group_cost(src)
        members = self._members[src]
        members.discard(device)
        self._fp[src] ^= token
        if members:
            self._refresh(src)
            self._total_cost += self._group_cost(src)
            self._zhash ^= self._key_row(src)
        else:
            self._delete_row(src)

        if target is None:
            dest = self._new_row(charger)
        else:
            # Re-resolve: the swap-remove above may have renumbered rows.
            dest = self._row_of_cid[target]
            self._zhash ^= self._key_row(dest)
            self._total_cost -= self._group_cost(dest)
        self._members[dest].add(device)
        self._fp[dest] ^= token
        self._refresh(dest)
        self._total_cost += self._group_cost(dest)
        self._zhash ^= self._key_row(dest)
        self._dev_row[device] = dest

    # ------------------------------------------------------------------ #
    # export / verification

    def to_schedule(
        self, solver: str, metadata: Optional[Dict[str, float]] = None
    ) -> Schedule:
        """Freeze into a schedule, sessions in cid (creation) order.

        The object engine's dict iteration yields coalitions in insertion
        order, which — cids being monotone — is ascending cid order; the
        packed rows are permuted by swap-removes, so sort to match.
        """
        order = sorted(range(self._k), key=lambda r: int(self._cid[r]))
        sessions = [
            Session(
                charger=int(self._charger[r]), members=frozenset(self._members[r])
            )
            for r in order
        ]
        return Schedule(sessions, solver=solver, metadata=metadata)

    def check_invariants(self) -> None:
        """Audit partition coverage, caches, capacity, and the Zobrist hash.

        The array-engine counterpart of
        ``CoalitionStructure.check_invariants``, with the same tolerances.
        """
        seen: Set[int] = set()
        recomputed = 0.0
        zobrist = 0
        for row in range(self._k):
            members = self._members[row]
            if not members:
                raise AssertionError(f"row {row} is an empty coalition")
            charger = int(self._charger[row])
            capacity = self.instance.chargers[charger].capacity
            if capacity is not None and len(members) > capacity:
                raise AssertionError(f"row {row} exceeds capacity {capacity}")
            overlap = seen & members
            if overlap:
                raise AssertionError(f"devices {sorted(overlap)} in multiple rows")
            seen |= members
            for i in members:
                if int(self._dev_row[i]) != row:
                    raise AssertionError(f"device {i} row pointer drifted")
            if self._row_of_cid[int(self._cid[row])] != row:
                raise AssertionError(f"cid index drifted for row {row}")
            ordered = sorted(members)
            true_demand = sum(self._demand_list[i] for i in ordered)
            true_price = self.instance.charging_price_for_demand(
                true_demand, charger
            )
            # ccs-lint: ignore[CCS008] -- audit recomputation mirroring the
            # object engine's identical pairwise reduction.
            true_move = float(self._moving[ordered, charger].sum())
            for label, cached, true in (
                ("total_demand", float(self._demand[row]), true_demand),
                ("price", float(self._price[row]), true_price),
                ("move_sum", float(self._move[row]), true_move),
            ):
                if abs(cached - true) > CACHE_REL_TOL * max(1.0, abs(true)):
                    raise AssertionError(
                        f"row {row}: cached {label} {cached} drifted from {true}"
                    )
            if int(self._size[row]) != len(members):
                raise AssertionError(f"row {row}: cached size drifted")
            fingerprint = 0
            for i in members:
                fingerprint ^= self._dev_token[i]
            if fingerprint != self._fp[row]:
                raise AssertionError(f"row {row}: cached fingerprint drifted")
            zobrist ^= _splitmix64(fingerprint ^ self._ch_token[charger])
            recomputed += true_price + true_move
        expected = {
            i for i in range(self.instance.n_devices) if int(self._dev_row[i]) != -1
        }
        if seen != expected:
            raise AssertionError("array state does not cover its placed devices")
        if abs(recomputed - self._total_cost) > TOTAL_COST_REL_TOL * max(
            1.0, abs(recomputed)
        ):
            raise AssertionError(
                f"cached total cost {self._total_cost} drifted from {recomputed}"
            )
        if zobrist != self._zhash:
            raise AssertionError("cached Zobrist hash drifted from recomputation")


class StructureArrayView:
    """Vectorized candidate scans over a live object ``CoalitionStructure``.

    The incremental planner keeps its object structure (placement,
    retirement, and journaling all read it), but its improvement and
    repair sweeps spend their time in the candidate scan.  This view
    packs the live coalitions' cached aggregates into arrays — rebuilt
    lazily whenever the structure's mutation counter moves — and runs
    the same kernel as :class:`ArrayState`, so every scan returns
    bitwise-identical moves to ``rule.best_move`` on the structure.
    """

    def __init__(self, structure: CoalitionStructure):
        self.structure = structure
        self._built_version = -1
        self._cap = _capacity_vector(structure.instance.chargers)
        self._cid = np.zeros(0, dtype=np.int64)
        self._charger = np.zeros(0, dtype=np.int64)
        self._size = np.zeros(0, dtype=np.int64)
        self._demand = np.zeros(0, dtype=float)
        self._price = np.zeros(0, dtype=float)
        self._move = np.zeros(0, dtype=float)
        self._row_of_cid: Dict[int, int] = {}

    def _ensure(self) -> None:
        st = self.structure
        if st._version == self._built_version:
            return
        coals = list(st.coalitions())
        count = len(coals)
        self._cid = np.fromiter((c.cid for c in coals), np.int64, count)
        self._charger = np.fromiter((c.charger for c in coals), np.int64, count)
        self._size = np.fromiter((len(c.members) for c in coals), np.int64, count)
        self._demand = np.fromiter((c.total_demand for c in coals), float, count)
        self._price = np.fromiter((c.price for c in coals), float, count)
        self._move = np.fromiter((c.move_sum for c in coals), float, count)
        self._row_of_cid = {c.cid: row for row, c in enumerate(coals)}
        self._built_version = st._version

    def best_move(self, device: int, rule: SwitchRule) -> Optional[SwitchMove]:
        """Vectorized ``rule.best_move(structure, device)`` (bit-identical)."""
        self._ensure()
        st = self.structure
        instance = st.instance
        src = st.coalition_of(device)
        return _kernel_best_move(
            device=device,
            rule=rule,
            scheme=st.scheme,
            instance=instance,  # type: ignore[arg-type]
            demand_i=instance._demand_list[device],  # type: ignore[attr-defined]
            own_now=st.individual_cost(device),
            total_now=st.total_cost,
            leave=st.leave_delta(device),
            src_charger=src.charger,
            src_is_singleton=(src.size == 1),
            exclude_cid=src.cid,
            cand_cid=self._cid,
            cand_charger=self._charger,
            cand_size=self._size,
            cand_demand=self._demand,
            cand_price=self._price,
            cand_move_sum=self._move,
            cap=self._cap,
            avail=_availability_mask(instance),
            mv_row=instance._moving_cost[device],  # type: ignore[attr-defined]
            sp_row=instance.singleton_price_matrix()[device],
            sc_row=instance.singleton_cost_matrix()[device],
        )

    def _source_state(
        self, devices: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(devices, rows, demand, own_now, leave)`` for placed *devices*.

        ``rows`` are the devices' coalition rows in the packed arrays (the
        device→row index); ``own_now`` and ``leave`` apply the operations
        of ``individual_cost`` and ``leave_delta`` elementwise to those
        rows, so each element is bitwise the scalar method's result.
        """
        self._ensure()
        st = self.structure
        instance = st.instance
        of_device, row_of_cid = st._of_device, self._row_of_cid
        demand_list = instance._demand_list  # type: ignore[attr-defined]
        devs = np.array(devices, dtype=np.int64)
        rows = np.array([row_of_cid[of_device[d]] for d in devices], dtype=np.int64)
        demand = np.array([demand_list[d] for d in devices], dtype=float)
        size = self._size[rows]
        src_demand = self._demand[rows]
        src_price = self._price[rows]
        src_move = self._move[rows]
        src_charger = self._charger[rows]
        own_move = instance._moving_cost[devs, src_charger]  # type: ignore[attr-defined]
        own_now = (
            st.scheme.share_of_vector(  # type: ignore[attr-defined]
                instance, devs, size, src_demand, src_price
            )
            + own_move
        )
        kept_price = instance.price_for_demand_vector(  # type: ignore[attr-defined]
            src_demand - demand, src_charger
        )
        group = src_price + src_move
        leave = np.where(size == 1, -group, (kept_price + (src_move - own_move)) - group)
        return devs, rows, demand, own_now, leave

    def first_mover(self, devices: Sequence[int], rule: SwitchRule) -> Optional[int]:
        """Position in *devices* of the first one with a permitted move.

        One :func:`_kernel_screen_moves` pass over every listed (placed)
        device against the current structure; ``None`` when no device has
        a move.  Equivalent to calling :meth:`best_move` on each device in
        turn and stopping at the first that returns a move.
        """
        devs, rows, demand, own_now, leave = self._source_state(devices)
        st = self.structure
        instance = st.instance
        found = _kernel_screen_moves(
            devices=devs,
            rule=rule,
            scheme=st.scheme,
            instance=instance,  # type: ignore[arg-type]
            demand=demand,
            own_now=own_now,
            total_now=st.total_cost,
            leave=leave,
            src_charger=self._charger[rows],
            src_is_singleton=(self._size[rows] == 1),
            exclude_cid=self._cid[rows],
            cand_cid=self._cid,
            cand_charger=self._charger,
            cand_size=self._size,
            cand_demand=self._demand,
            cand_price=self._price,
            cand_move_sum=self._move,
            cap=self._cap,
            avail=_availability_mask(instance),
            moving=instance._moving_cost,  # type: ignore[attr-defined]
            sp=instance.singleton_price_matrix(),
            sc=instance.singleton_cost_matrix(),
        )
        hits = np.flatnonzero(found)
        return int(hits[0]) if hits.size else None

    def best_insert(self, device: int) -> Optional[Tuple[Optional[int], int]]:
        """Vectorized planner insert scan: cheapest placement for *device*."""
        self._ensure()
        st = self.structure
        instance = st.instance
        return _kernel_best_insert(
            device=device,
            scheme=st.scheme,
            instance=instance,  # type: ignore[arg-type]
            demand_i=instance._demand_list[device],  # type: ignore[attr-defined]
            cand_cid=self._cid,
            cand_charger=self._charger,
            cand_size=self._size,
            cand_demand=self._demand,
            cap=self._cap,
            avail=_availability_mask(instance),
            mv_row=instance._moving_cost[device],  # type: ignore[attr-defined]
            sc_row=instance.singleton_cost_matrix()[device],
        )
