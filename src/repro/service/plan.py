"""Incremental replanning on top of the PR-1 coalition engine.

The batch solvers work on a frozen :class:`~repro.core.instance.CCSInstance`;
a service cannot — devices arrive, charge, and leave while the plan is
live.  This module supplies the three pieces that bridge the gap without
ever re-solving from scratch:

- :class:`PlanInstance` — a *growable* instance facade exposing exactly
  the surface the incremental engine reads (cached demand list, the
  moving-cost matrix, lazy singleton price/cost matrices, tariff fast
  paths).  Adding a device costs ``O(m)`` (one matrix row); nothing else
  is recomputed.
- :class:`GrowableCoalitionStructure` — the PR-1
  :class:`~repro.game.coalition.CoalitionStructure` extended with
  ``place`` / ``remove`` / ``retire``, so devices can enter a live
  partition, drop out (expiry), or leave wholesale when a session departs.
  All cached aggregates, the running total cost, and the Zobrist hash stay
  incrementally maintained; ``check_invariants`` still audits everything.
- :class:`IncrementalPlanner` — the epoch replanner: fold a batch of
  admitted devices into the current structure (one ``O(sessions + m)``
  candidate scan each), run a bounded socially-aware improvement pass over
  the touched neighborhood, then *repair* individual rationality so no
  member's comprehensive cost ever exceeds its admission quote.  The
  repair always terminates: a device's best singleton cost equals its
  quote and is independent of everyone else, so forcing a persistent
  violator into a singleton pins it at the quote forever.  With charger
  *outages* (see :mod:`repro.faults`) that singleton may be gone; repair
  then **evicts** the unrepairable device instead of overcharging it,
  and the kernel re-quotes it against its original ceiling at the next
  epoch.

Every candidate evaluation is tallied in :attr:`IncrementalPlanner.ops`;
tests assert per-request work stays bounded by the *live* plan size, not
by the total number of requests ever served.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core import Device
from ..core.ccsga import resolve_engine
from ..core.costsharing import CostSharingScheme, EgalitarianSharing
from ..errors import ConfigurationError, ServiceError
from ..game.arraycore import StructureArrayView
from ..game.coalition import CoalitionStructure, _device_token
from ..game.switching import SelfishSwitch, SociallyAwareSwitch, SwitchMove, SwitchRule
from ..mobility import LinearMobility, MobilityModel
from ..numeric import DEFAULT_REL_TOL, is_exact_zero
from ..wpt import Charger, ChargerPriceTable

__all__ = ["PlanInstance", "GrowableCoalitionStructure", "IncrementalPlanner"]

#: A device's ``(moving-cost row, singleton-price row)`` over the chargers.
QuoteRows = Tuple[np.ndarray, np.ndarray]


class PlanInstance:
    """A growable CCS instance: fixed chargers, devices added over time.

    Presents the same read surface as :class:`~repro.core.instance.CCSInstance`
    (demand list, moving-cost matrix, singleton matrices, price fast
    paths) so the coalition engine and every cost-sharing scheme work
    unchanged, while :meth:`add_device` appends one device in ``O(m)``.
    Device indices are append-only and never reused — a retired device's
    row simply stops being referenced.
    """

    def __init__(
        self,
        chargers: Sequence[Charger],
        mobility: Optional[MobilityModel] = None,
    ):
        if not chargers:
            raise ConfigurationError("a plan needs at least one charger")
        self.chargers: Tuple[Charger, ...] = tuple(chargers)
        charger_ids = [c.charger_id for c in self.chargers]
        if len(set(charger_ids)) != len(charger_ids):
            raise ConfigurationError("charger identifiers must be unique")
        self.mobility: MobilityModel = (
            mobility if mobility is not None else LinearMobility()
        )
        self.devices: List[Device] = []
        self._demand_list: List[float] = []
        self._device_ids: Dict[str, int] = {}
        m = len(self.chargers)
        #: Per-charger availability (fault semantics): a down charger is
        #: excluded from quoting, insertion, improvement, and repair, but
        #: its matrix columns stay — recovery is a single flag flip.  The
        #: array engine's scans read this mask directly (never mutate it).
        self.available_mask = np.ones(m, dtype=bool)
        self._admits_one = np.array([c.admits(1) for c in self.chargers], dtype=bool)
        self._charger_xy = [(c.position.x, c.position.y) for c in self.chargers]
        self._matrix_hook = getattr(self.mobility, "moving_cost_matrix", None)
        cap = 16
        self._mc_buf = np.empty((cap, m), dtype=float)
        self._sp_buf = np.empty((cap, m), dtype=float)
        self._sc_buf = np.empty((cap, m), dtype=float)
        self._n = 0
        self._price_table: Optional[ChargerPriceTable] = None
        self._sync_views()

    def _sync_views(self) -> None:
        n = self._n
        self._moving_cost = self._mc_buf[:n]
        self._singleton_price = self._sp_buf[:n]
        self._singleton_cost = self._sc_buf[:n]

    # ------------------------------------------------------------------ #
    # growth

    def quote_rows(self, device: Device) -> QuoteRows:
        """``(moving-cost row, singleton-price row)`` for a device.

        ``O(m)``, vectorized over the charger axis: distances come from
        per-pair ``math.hypot`` (bitwise ``Point.distance_to``; the
        sqrt-of-squares form rounds differently) priced through the
        mobility model's ``moving_cost_matrix`` hook, prices from
        :meth:`~repro.wpt.vector.ChargerPriceTable.singleton_row`.  Models
        without the hook are evaluated per charger.  Both rows are bitwise
        equal to the scalar per-charger evaluation.
        """
        pos = device.position
        if self._matrix_hook is not None:
            dist = np.array(
                [[math.hypot(pos.x - cx, pos.y - cy) for cx, cy in self._charger_xy]]
            )
            move = np.asarray(
                self._matrix_hook(dist, (device.moving_rate,)), dtype=float
            )[0]
        else:
            move = np.array(
                [
                    self.mobility.moving_cost(pos, c.position, device.moving_rate)
                    for c in self.chargers
                ],
                dtype=float,
            )
        return move, self.price_table().singleton_row(device.demand)

    def best_singleton(self, device: Device, rows: Optional[QuoteRows] = None) -> Tuple[float, int]:
        """Cheapest standalone option: ``(cost, charger index)``.

        The admission *quote*: what the device would pay charging alone at
        its best *available* charger.  Ties break toward the lower charger
        index.  *rows* are the device's :meth:`quote_rows` when the caller
        already holds them; availability is applied on top.  Raises
        :class:`~repro.errors.ServiceError` when no available charger
        admits a device (e.g. every charger is down).
        """
        move, price = rows if rows is not None else self.quote_rows(device)
        admitting = np.flatnonzero(self.available_mask & self._admits_one)
        if not admitting.size:
            raise ServiceError("no available charger admits even a single device")
        costs = (move + price)[admitting]
        k = int(np.argmin(costs))
        return float(costs[k]), int(admitting[k])

    # ------------------------------------------------------------------ #
    # charger availability (fault semantics)

    def charger_available(self, charger: int) -> bool:
        """True while charger index *charger* is up.

        Also the availability hook the switch-rule candidate scan probes
        via ``getattr`` — a frozen ``CCSInstance`` has no such method, so
        the batch solvers keep their all-chargers-up fast path.
        """
        return bool(self.available_mask[charger])

    def set_available(self, charger: int, up: bool) -> None:
        """Flip charger index *charger*'s availability flag."""
        self.available_mask[charger] = bool(up)

    def rows_of(self, index: int) -> QuoteRows:
        """The :meth:`quote_rows` stored for added device *index*."""
        return self._moving_cost[index], self._singleton_price[index]

    def add_device(self, device: Device, rows: Optional[QuoteRows] = None) -> int:
        """Append *device*; returns its (permanent) index.  ``O(m)``.

        *rows* are the device's :meth:`quote_rows` when the caller still
        holds them from its quote; they are recomputed otherwise.
        A device identifier may recur (a device coming back for another
        charge after finishing an earlier session); ``device_index`` then
        resolves to the latest index.  Guarding against *concurrently*
        served duplicates is the kernel's admission job.
        """
        move, price = rows if rows is not None else self.quote_rows(device)
        if self._n == self._mc_buf.shape[0]:
            grown = self._mc_buf.shape[0] * 2
            for name in ("_mc_buf", "_sp_buf", "_sc_buf"):
                buf = getattr(self, name)
                new = np.empty((grown, buf.shape[1]), dtype=float)
                new[: self._n] = buf[: self._n]
                setattr(self, name, new)
        i = self._n
        self._mc_buf[i] = move
        self._sp_buf[i] = price
        self._sc_buf[i] = move + price
        self._n += 1
        self._sync_views()
        self.devices.append(device)
        self._demand_list.append(float(device.demand))
        self._device_ids[device.device_id] = i
        return i

    # ------------------------------------------------------------------ #
    # the CCSInstance read surface

    @property
    def n_devices(self) -> int:
        """Devices ever added (indices run ``0..n_devices-1``)."""
        return self._n

    @property
    def n_chargers(self) -> int:
        """Number of chargers (fixed for the plan's lifetime)."""
        return len(self.chargers)

    def device_index(self, device_id: str) -> int:
        """Index of the device with identifier *device_id*."""
        try:
            return self._device_ids[device_id]
        except KeyError:
            raise KeyError(f"unknown device {device_id!r}") from None

    def moving_cost(self, device: int, charger: int) -> float:
        """Moving cost of device index *device* to charger index *charger*."""
        return float(self._moving_cost[device, charger])

    def charging_price_for_demand(self, total_demand: float, charger: int) -> float:
        """Session price for an already-summed stored demand (O(1) fast path)."""
        if is_exact_zero(total_demand):
            return 0.0
        return self.chargers[charger].price_for_stored(total_demand)

    def price_table(self) -> ChargerPriceTable:
        """Lazily built vectorized tariff table (chargers are fixed)."""
        if self._price_table is None:
            self._price_table = ChargerPriceTable(self.chargers)
        return self._price_table

    def price_for_demand_vector(
        self, totals: np.ndarray, chargers_idx: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`charging_price_for_demand` (bitwise identical)."""
        return self.price_table().prices(totals, chargers_idx)

    def singleton_price_matrix(self) -> np.ndarray:
        """``(n, m)`` singleton session prices (maintained incrementally)."""
        return self._singleton_price

    def singleton_cost_matrix(self) -> np.ndarray:
        """``(n, m)`` singleton group costs (price + moving cost)."""
        return self._singleton_cost

    def charging_price(self, group, charger: int) -> float:
        """Session price when *group* shares one session at *charger*."""
        members = list(group)
        return self.chargers[charger].session_price(
            self.devices[i].demand for i in members
        )

    def group_cost(self, group, charger: int) -> float:
        """Full session cost: price plus the members' moving costs."""
        members = list(group)
        if not members:
            return 0.0
        price = self.charging_price(members, charger)
        return price + float(self._moving_cost[members, charger].sum())

    def total_demand(self, group) -> float:
        """Sum of stored-energy demands over device indices in *group*."""
        return sum(self.devices[i].demand for i in group)

    def capacity_of(self, charger: int) -> Optional[int]:
        """Slot capacity of charger index *charger* (``None`` = unbounded)."""
        return self.chargers[charger].capacity


class GrowableCoalitionStructure(CoalitionStructure):
    """The PR-1 coalition structure, opened up for a live service plan.

    Three additional mutations, all maintaining the cached total cost,
    the per-coalition aggregates, and the Zobrist hash incrementally:

    - :meth:`place` — a *new* device enters an existing coalition or
      founds a singleton (``move`` without a source);
    - :meth:`remove` — a device drops out (deadline expiry);
    - :meth:`retire` — a whole coalition leaves the plan (its session
      departed and is now charging).

    Coverage is the set of currently placed devices, not
    ``range(n_devices)`` — retired indices are tombstones.
    """

    def __init__(self, instance: PlanInstance, scheme: CostSharingScheme):
        super().__init__(instance, scheme)

    def register_device(self, device: int) -> None:
        """Extend the Zobrist token table to cover a newly added index."""
        while len(self._dev_token) <= device:
            self._dev_token.append(_device_token(len(self._dev_token)))

    def _expected_coverage(self) -> Set[int]:
        return set(self._of_device)

    def is_placed(self, device: int) -> bool:
        """True while *device* sits in some live coalition."""
        return device in self._of_device

    def place(self, device: int, target: Optional[int], charger: int):
        """Insert an unplaced *device* (``target=None`` founds a singleton).

        Returns the receiving :class:`~repro.game.coalition.Coalition`.
        """
        if device in self._of_device:
            raise ValueError(f"device {device} already placed")
        if target is None:
            return self._create(charger, {device})
        dest = self._coalitions[target]
        if dest.charger != charger:
            raise ValueError("target coalition is bound to a different charger")
        if not self.instance.chargers[dest.charger].admits(dest.size + 1):
            raise ValueError(
                f"coalition {target} is at capacity on charger {dest.charger}"
            )
        token = self._dev_token[device]
        self._zhash ^= self._key(dest)
        self._total_cost -= dest.group_cost
        # ccs-lint: ignore[CCS004] -- place() extends the refresh discipline:
        # aggregates, total cost, and the Zobrist hash are re-established below.
        dest.members.add(device)
        dest.fingerprint ^= token  # ccs-lint: ignore[CCS004] -- see above
        self._refresh(dest)
        self._total_cost += dest.group_cost
        self._zhash ^= self._key(dest)
        self._of_device[device] = dest.cid
        self._version += 1
        return dest

    def remove(self, device: int) -> int:
        """Drop *device* from its coalition; returns the source cid.

        The coalition is deleted if it empties.  The caller is responsible
        for re-establishing individual rationality of the survivors
        (:meth:`IncrementalPlanner._repair`) — removing a member can raise
        the per-head share of those left behind.
        """
        src = self.coalition_of(device)
        token = self._dev_token[device]
        self._zhash ^= self._key(src)
        self._total_cost -= src.group_cost
        # ccs-lint: ignore[CCS004] -- remove() extends the refresh discipline:
        # aggregates, total cost, and the Zobrist hash are re-established below.
        src.members.discard(device)
        src.fingerprint ^= token  # ccs-lint: ignore[CCS004] -- see above
        del self._of_device[device]
        if src.members:
            self._refresh(src)
            self._total_cost += src.group_cost
            self._zhash ^= self._key(src)
        else:
            del self._coalitions[src.cid]
        self._version += 1
        return src.cid

    def retire(self, cid: int):
        """Remove coalition *cid* wholesale; returns the dead Coalition.

        Other coalitions are untouched (a departure never changes anyone
        else's bill), so no repair is needed afterwards.
        """
        coalition = self._coalitions.pop(cid)
        self._zhash ^= self._key(coalition)
        self._total_cost -= coalition.group_cost
        for i in sorted(coalition.members):
            del self._of_device[i]
        self._version += 1
        return coalition


class IncrementalPlanner:
    """Epoch-based replanner: fold, improve, repair — never re-solve.

    Owns the growable instance + structure pair and the per-device cost
    ceilings (admission quotes).  All mutation entry points keep two
    invariants the kernel's tests assert:

    1. every placed device's comprehensive cost is at most its ceiling
       (individual rationality against the standalone quote);
    2. the structure's cached aggregates are coherent
       (:meth:`~repro.game.coalition.CoalitionStructure.check_invariants`).
    """

    def __init__(
        self,
        chargers: Sequence[Charger],
        mobility: Optional[MobilityModel] = None,
        scheme: Optional[CostSharingScheme] = None,
        tol: float = DEFAULT_REL_TOL,
        improvement_sweeps: int = 2,
        repair_rounds: int = 3,
        engine: Optional[str] = None,
    ):
        if improvement_sweeps < 0:
            raise ConfigurationError(
                f"improvement_sweeps must be nonnegative, got {improvement_sweeps}"
            )
        if repair_rounds < 0:
            raise ConfigurationError(
                f"repair_rounds must be nonnegative, got {repair_rounds}"
            )
        self.instance = PlanInstance(chargers, mobility)
        self.scheme: CostSharingScheme = (
            scheme if scheme is not None else EgalitarianSharing()
        )
        self.structure = GrowableCoalitionStructure(self.instance, self.scheme)
        self.tol = float(tol)
        self.improvement_sweeps = improvement_sweeps
        self.repair_rounds = repair_rounds
        self._social = SociallyAwareSwitch(tol=self.tol)
        self._selfish = SelfishSwitch(tol=self.tol)
        #: Scan engine (see :func:`repro.core.ccsga.resolve_engine`): the
        #: array engine runs the improvement/repair/insert candidate scans
        #: through a :class:`~repro.game.arraycore.StructureArrayView` —
        #: bit-identical moves, vectorized evaluation.  Structure mutation
        #: and journaling always stay on the object representation.
        self.engine: str = resolve_engine(
            engine, self.instance, self.scheme, self._social
        )
        self._view: Optional[StructureArrayView] = (
            StructureArrayView(self.structure) if self.engine == "array" else None
        )
        self.ceiling: Dict[int, float] = {}
        self._last_rows: Optional[Tuple[Device, QuoteRows]] = None
        #: Operation tally for the incremental-work regression tests.
        #: ``full_solves`` stays 0 by construction — there is no code path
        #: that hands the live plan to a batch solver.
        self.ops: Dict[str, int] = {
            "insert_candidates": 0,
            "scan_candidates": 0,
            "moves": 0,
            "repair_moves": 0,
            "full_solves": 0,
        }

    # ------------------------------------------------------------------ #
    # quoting and membership

    def quote(self, device: Device, rows: Optional[QuoteRows] = None) -> Tuple[float, int]:
        """Standalone quote for a (not yet admitted) device: ``(cost, charger)``.

        Only *available* chargers quote; raises
        :class:`~repro.errors.ServiceError` when none can.  Without
        *rows* the device's rows come from :meth:`quote_rows`, so a
        caller that quoted the same device object just before (the
        shard router) has already paid for them.
        """
        if rows is None:
            rows = self.quote_rows(device)
        return self.instance.best_singleton(device, rows)

    def quote_rows(self, device: Device) -> QuoteRows:
        """The device's ``(moving-cost row, singleton-price row)``.

        Memoized for the most recently quoted device object only (one
        entry): rows are a pure function of the frozen device and the
        fixed chargers, so the entry can never go stale.
        """
        last = self._last_rows
        if last is not None and last[0] is device:
            return last[1]
        rows = self.instance.quote_rows(device)
        self._last_rows = (device, rows)
        return rows

    # ------------------------------------------------------------------ #
    # charger availability (fault semantics)

    def is_available(self, charger: int) -> bool:
        """True while charger index *charger* is up."""
        return self.instance.charger_available(charger)

    def fail_charger(self, charger: int) -> None:
        """Mark charger index *charger* down (idempotent).

        Only flips the availability flag — evacuating the coalitions
        bound to it is a separate, explicit step
        (:meth:`evacuate_charger`) so the kernel can journal each
        displaced request.
        """
        self.instance.set_available(charger, False)

    def restore_charger(self, charger: int) -> None:
        """Mark charger index *charger* up again (idempotent)."""
        self.instance.set_available(charger, True)

    def evacuate_charger(self, charger: int) -> List[int]:
        """Retire every coalition bound to a (failed) charger.

        Returns the displaced device indices in ascending order.  Their
        ceilings are *kept*: the displaced devices are re-quoted against
        them at the next epoch (re-fold if the original quote still
        holds, reject with ``charger_failed`` otherwise).  No repair is
        needed — other coalitions' bills are untouched by a retirement.
        """
        displaced: List[int] = []
        for cid in self.live_cids():
            coalition = self.structure._coalitions[cid]
            if coalition.charger == charger:
                displaced.extend(sorted(coalition.members))
                self.structure.retire(cid)
        return sorted(displaced)

    def add(self, device: Device, ceiling: float, rows: Optional[QuoteRows] = None) -> int:
        """Register an admitted device (not yet placed); returns its index.

        *rows* are the device's quote rows carried from admission; they
        are recomputed when absent (e.g. a request restored from a
        snapshot).
        """
        index = self.instance.add_device(device, rows)
        self.structure.register_device(index)
        self.ceiling[index] = float(ceiling)
        return index

    def active_indices(self) -> List[int]:
        """Sorted indices of devices currently placed in the live plan."""
        return sorted(self.structure._of_device)

    def individual_cost(self, device: int) -> float:
        """Current comprehensive cost of a placed device."""
        return self.structure.individual_cost(device)

    # ------------------------------------------------------------------ #
    # the epoch fold

    def _insert(self, device: int) -> int:
        """Place one new device at its own-cost argmin; returns the cid.

        One pass over live coalitions plus the precomputed singleton-cost
        row — ``O(n_coalitions + m)`` candidate evaluations, each a single
        tariff call on cached aggregates.  Tie-breaks mirror the switch
        rules: cheaper first, then joins over singletons, then lower
        charger, then lower cid.
        """
        st, inst = self.structure, self.instance
        if self._view is not None:
            # Same tally as the object scan below: one candidate per live
            # coalition (available or not) plus one per charger.
            self.ops["insert_candidates"] += st.n_coalitions + inst.n_chargers
            choice = self._view.best_insert(device)
            if choice is None:
                raise ServiceError("no feasible placement for admitted device")
            coalition = st.place(device, choice[0], choice[1])
            self.ops["moves"] += 1
            return coalition.cid
        best_key: Optional[Tuple[float, int, int, int]] = None
        best: Optional[Tuple[Optional[int], int]] = None
        for coalition in st.coalitions():
            self.ops["insert_candidates"] += 1
            if not inst.charger_available(coalition.charger):
                continue
            cost = st.cost_if_joined(device, coalition.cid, coalition.charger)
            if cost == float("inf"):
                continue
            key = (cost, 0, coalition.charger, coalition.cid)
            if best_key is None or key < best_key:
                best_key, best = key, (coalition.cid, coalition.charger)
        row = inst.singleton_cost_matrix()[device]
        for j in range(inst.n_chargers):
            self.ops["insert_candidates"] += 1
            if not (inst.charger_available(j) and inst.chargers[j].admits(1)):
                continue
            key = (float(row[j]), 1, j, -1)
            if best_key is None or key < best_key:
                best_key, best = key, (None, j)
        if best is None:
            raise ServiceError("no feasible placement for admitted device")
        target, charger = best
        coalition = st.place(device, target, charger)
        self.ops["moves"] += 1
        return coalition.cid

    def _best_move(self, rule: SwitchRule, device: int) -> Optional[SwitchMove]:
        """Best permitted move via the active engine (bit-identical either way)."""
        if self._view is not None:
            return self._view.best_move(device, rule)
        return rule.best_move(self.structure, device)

    def fold(self, indices: Sequence[int]) -> Tuple[Dict[int, int], List[int]]:
        """Fold a batch of registered devices into the live structure.

        Returns ``(placements, evicted)``: ``placements`` maps each batch
        device to its receiving cid *at insertion time* (improvement moves
        may relocate devices afterwards), and ``evicted`` lists devices
        the repair pass had to remove because no available placement met
        their ceiling (only possible after a charger outage; empty with
        every charger up).  After the fold the individual-rationality
        invariant holds for every device still placed.
        """
        placements: Dict[int, int] = {}
        touched: Set[int] = set()
        for device in sorted(indices):
            cid = self._insert(device)
            placements[device] = cid
            touched |= self.structure._coalitions[cid].members
        self._improve(touched)
        evicted = self._repair()
        return placements, evicted

    def _improve(self, touched: Set[int]) -> None:
        """Bounded socially-aware best-response sweeps over *touched*.

        Each permitted switch strictly lowers the total comprehensive cost
        (the game's potential), so sweeps cannot cycle; we additionally
        cap them at :attr:`improvement_sweeps`.  A sweep visits a sorted
        snapshot of *touched* in order, each device seeing every move
        made before it; a mover's destination coalition joins *touched*
        for the next sweep.  Every visited device is tallied as
        ``n_coalitions + n_chargers`` candidates at the time of its scan.
        """
        st = self.structure
        m = self.instance.n_chargers
        for _ in range(self.improvement_sweeps):
            order = [d for d in sorted(touched) if st.is_placed(d)]
            moved = False
            start = 0
            while start < len(order):
                stop, move = self._next_move(order, start)
                # No move happens between start and stop, so every device
                # scanned there saw the same coalition count.
                self.ops["scan_candidates"] += (stop - start) * (st.n_coalitions + m)
                start = stop
                if move is None:
                    continue
                st.move(move.device, move.target, move.charger)
                self.ops["moves"] += 1
                moved = True
                touched |= st.coalition_of(move.device).members
            if not moved:
                break

    def _next_move(self, order: List[int], start: int) -> Tuple[int, Optional[SwitchMove]]:
        """The first socially-aware move among ``order[start:]``.

        Returns ``(stop, move)``: ``order[start:stop]`` were scanned and
        ``move`` is the last one's move, or ``(len(order), None)`` when
        none of them can move.  The array engine screens all of them in
        one pass (:meth:`~repro.game.arraycore.StructureArrayView.first_mover`)
        and runs the exact per-device scan only for the first mover; the
        object engine scans them one by one.
        """
        if self._view is not None:
            hit = self._view.first_mover(order[start:], self._social)
            if hit is None:
                return len(order), None
            stop = start + hit + 1
            return stop, self._view.best_move(order[stop - 1], self._social)
        for i in range(start, len(order)):
            move = self._social.best_move(self.structure, order[i])
            if move is not None:
                return i + 1, move
        return len(order), None

    def _repair(self) -> List[int]:
        """Re-establish ``cost <= ceiling`` for every placed device.

        Every round rescans *all* placed devices, not just the ones a
        fold or removal touched: a move re-shares its source coalition's
        cost too, and those survivors are nobody's neighborhood.
        Membership churn can push a bystander above its quote (e.g. a
        base-fee-dominated session losing a member raises everyone's
        per-head share).  Violators take their best selfish move, and
        after :attr:`repair_rounds` rounds any stragglers are *forced*
        into their best available singleton.  With every charger up that
        singleton costs exactly the quote and can never be disturbed by
        other devices leaving, so repair always converges to zero
        violators.  After a charger outage the quote's charger may be
        gone: a violator whose best *available* singleton exceeds its
        ceiling is unrepairable and is **evicted** from the structure
        (ceiling kept — the kernel re-quotes it at the next epoch and
        rejects it with ``charger_failed`` if the ceiling cannot hold).
        Returns the evicted device indices in eviction order.
        """
        st, inst = self.structure, self.instance
        evicted: List[int] = []
        for _ in range(self.repair_rounds):
            violators = [
                d for d in self.active_indices()
                if st.individual_cost(d) > self.ceiling[d] + self.tol
            ]
            if not violators:
                return evicted
            for device in violators:
                self.ops["scan_candidates"] += st.n_coalitions + inst.n_chargers
                move = self._best_move(self._selfish, device)
                if move is None:
                    continue
                st.move(device, move.target, move.charger)
                self.ops["repair_moves"] += 1
        while True:
            violators = [
                d for d in self.active_indices()
                if st.individual_cost(d) > self.ceiling[d] + self.tol
            ]
            if not violators:
                return evicted
            progressed = False
            for device in violators:
                # A force earlier in this pass may have shifted this
                # device's share either way; recheck before acting.
                if st.individual_cost(device) <= self.ceiling[device] + self.tol:
                    continue
                row = inst.singleton_cost_matrix()[device]
                candidates = [
                    j
                    for j in range(inst.n_chargers)
                    if inst.charger_available(j) and inst.chargers[j].admits(1)
                ]
                j = (
                    min(candidates, key=lambda j: (float(row[j]), j))
                    if candidates
                    else None
                )
                if j is not None and float(row[j]) <= self.ceiling[device] + self.tol:
                    src = st.coalition_of(device)
                    if src.size == 1 and src.charger == j:
                        continue
                    st.move(device, None, j)
                    self.ops["repair_moves"] += 1
                    progressed = True
                    continue
                # No available placement can meet this device's ceiling:
                # evict rather than overcharge.  The ceiling survives for
                # the kernel's re-quote.
                st.remove(device)
                evicted.append(device)
                self.ops["repair_moves"] += 1
                progressed = True
            if not progressed:
                # Every remaining "violator" already sits at its best
                # available singleton within tolerance; nothing more can
                # help (and nothing is actually above its ceiling).
                return evicted

    # ------------------------------------------------------------------ #
    # departures and expiries

    def remove(self, device: int) -> List[int]:
        """Drop a placed device out of the plan, then repair survivors.

        Used for expiries, cancellations, and no-shows: the ceiling is
        deleted (the request is gone for good) and the survivors of its
        coalition are repaired — losing a member re-shares the session
        cost and can push a survivor over its own quote.  Returns any
        devices the repair had to evict (see :meth:`_repair`; empty with
        every charger up).
        """
        self.structure.remove(device)
        del self.ceiling[device]
        return self._repair()

    def retire(self, cid: int) -> Dict[str, object]:
        """Depart coalition *cid*; returns the frozen session accounting.

        The returned dict carries everything the kernel journals and
        meters: charger index, sorted member indices, session price, the
        per-member price shares (exact, via the scheme), and per-member
        moving costs.
        """
        st, inst = self.structure, self.instance
        coalition = st._coalitions[cid]
        members = sorted(coalition.members)
        shares = self.scheme.shares(inst, members, coalition.charger)
        info = {
            "charger": coalition.charger,
            "members": members,
            "price": coalition.price,
            "demands": [inst._demand_list[i] for i in members],
            "shares": {i: float(shares[i]) for i in members},
            "moving": {i: inst.moving_cost(i, coalition.charger) for i in members},
        }
        st.retire(cid)
        for i in members:
            del self.ceiling[i]
        return info

    def live_cids(self) -> List[int]:
        """Sorted cids of the live coalitions (creation order = cid order)."""
        return sorted(self.structure._coalitions)
