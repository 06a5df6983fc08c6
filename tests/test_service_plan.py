"""Tests for the growable plan layer: the instance facade, the mutable
coalition structure, and — critically — the *incrementality* of the
replanner (bounded per-request work, zero full re-solves)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CCSInstance, Device
from repro.core.costsharing import EgalitarianSharing
from repro.errors import ServiceError
from repro.geometry import Point
from repro.mobility import LinearMobility, ManhattanMobility, QuadraticMobility
from repro.service import GrowableCoalitionStructure, IncrementalPlanner, PlanInstance
from repro.wpt import Charger, ChargerPriceTable
from repro.wpt.pricing import LinearTariff, PiecewiseConcaveTariff, PowerLawTariff


def make_chargers(capacity=None):
    return [
        Charger(charger_id="c0", position=Point(10.0, 10.0), capacity=capacity),
        Charger(charger_id="c1", position=Point(90.0, 90.0), capacity=capacity),
        Charger(charger_id="c2", position=Point(50.0, 50.0), capacity=capacity),
    ]


def device(k, x, y, demand=20e3):
    return Device(device_id=f"d{k}", position=Point(x, y), demand=demand)


def spread_devices(n, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 100.0, size=n)
    ys = rng.uniform(0.0, 100.0, size=n)
    ds = rng.uniform(10e3, 40e3, size=n)
    return [device(k, float(x), float(y), float(d)) for k, (x, y, d) in enumerate(zip(xs, ys, ds))]


class TestPlanInstance:
    def test_matches_ccsinstance_surface(self):
        chargers = make_chargers()
        devices = spread_devices(12, seed=4)
        plan = PlanInstance(chargers)
        for d in devices:
            plan.add_device(d)
        ref = CCSInstance(devices=devices, chargers=chargers, mobility=plan.mobility)
        np.testing.assert_allclose(
            plan.singleton_cost_matrix(), ref.singleton_cost_matrix()
        )
        np.testing.assert_allclose(
            plan.singleton_price_matrix(), ref.singleton_price_matrix()
        )
        group = [0, 3, 7]
        for j in range(plan.n_chargers):
            assert plan.group_cost(group, j) == pytest.approx(ref.group_cost(group, j))
            assert plan.charging_price(group, j) == pytest.approx(
                ref.charging_price(group, j)
            )
        assert plan.total_demand(group) == pytest.approx(ref.total_demand(group))

    def test_buffers_grow_past_initial_capacity(self):
        plan = PlanInstance(make_chargers())
        devices = spread_devices(50, seed=1)
        for d in devices:
            plan.add_device(d)
        assert plan.n_devices == 50
        assert plan.singleton_cost_matrix().shape == (50, 3)

    def test_best_singleton_picks_cheapest(self):
        plan = PlanInstance(make_chargers())
        cost, j = plan.best_singleton(device(0, 12.0, 12.0))
        assert j == 0
        row_cost = plan.quote_rows(device(0, 12.0, 12.0))
        assert cost == pytest.approx(float((row_cost[0] + row_cost[1]).min()))


class TestGrowableStructure:
    def make(self, n=6, capacity=None):
        plan = PlanInstance(make_chargers(capacity))
        st = GrowableCoalitionStructure(plan, EgalitarianSharing())
        for d in spread_devices(n, seed=9):
            st.register_device(plan.add_device(d))
        return plan, st

    def test_place_remove_retire_keep_invariants(self):
        plan, st = self.make(6)
        st.place(0, None, 0)
        st.place(1, None, 0)
        c = st.coalition_of(0)
        st.place(2, c.cid, 0)
        st.check_invariants()
        st.remove(1)
        st.check_invariants()
        st.retire(st.coalition_of(0).cid)
        st.check_invariants()
        assert not st.is_placed(0) and not st.is_placed(2)

    def test_place_respects_capacity(self):
        plan, st = self.make(3, capacity=1)
        st.place(0, None, 0)
        cid = st.coalition_of(0).cid
        with pytest.raises(ValueError):
            st.place(1, cid, 0)

    def test_double_place_rejected(self):
        plan, st = self.make(2)
        st.place(0, None, 0)
        with pytest.raises(ValueError):
            st.place(0, None, 1)

    def test_remove_empties_coalition(self):
        plan, st = self.make(2)
        st.place(0, None, 2)
        cid = st.coalition_of(0).cid
        st.remove(0)
        assert cid not in st._coalitions
        st.check_invariants()


class TestIncrementalPlanner:
    def test_fold_satisfies_quotes(self):
        planner = IncrementalPlanner(make_chargers())
        indices = []
        for d in spread_devices(20, seed=2):
            cost, _ = planner.quote(d)
            indices.append(planner.add(d, ceiling=cost))
        planner.fold(indices)
        planner.structure.check_invariants()
        for i in planner.active_indices():
            assert planner.individual_cost(i) <= planner.ceiling[i] + 1e-9

    def test_remove_repairs_survivors(self):
        planner = IncrementalPlanner(make_chargers())
        batch = []
        for d in spread_devices(10, seed=6):
            cost, _ = planner.quote(d)
            batch.append(planner.add(d, ceiling=cost))
        planner.fold(batch)
        planner.remove(batch[0])
        planner.structure.check_invariants()
        for i in planner.active_indices():
            assert planner.individual_cost(i) <= planner.ceiling[i] + 1e-9

    def test_retire_returns_full_accounting(self):
        planner = IncrementalPlanner(make_chargers())
        batch = []
        for d in spread_devices(6, seed=3):
            cost, _ = planner.quote(d)
            batch.append(planner.add(d, ceiling=cost))
        planner.fold(batch)
        cid = planner.live_cids()[0]
        info = planner.retire(cid)
        assert set(info) == {"charger", "members", "price", "demands", "shares", "moving"}
        assert sorted(info["shares"]) == info["members"]
        assert sum(info["shares"].values()) == pytest.approx(info["price"])
        planner.structure.check_invariants()

    def test_capacity_one_forces_singletons(self):
        # Capacity bounds *session size*, not sessions per charger: with
        # capacity 1 nobody can ever join, so every fold lands every
        # device in its own singleton at exactly its quote.
        planner = IncrementalPlanner(make_chargers(capacity=1))
        batch = []
        for d in spread_devices(6, seed=8):
            cost, _ = planner.quote(d)
            batch.append(planner.add(d, ceiling=cost))
        planner.fold(batch)
        assert planner.structure.n_coalitions == 6
        for i in planner.active_indices():
            assert planner.individual_cost(i) == pytest.approx(planner.ceiling[i])


class TestIncrementality:
    """The tentpole acceptance criterion: per-request replanning work is
    bounded by the *live* plan size, never by the history length, and no
    code path ever re-solves from scratch."""

    def test_full_solves_is_structurally_zero(self):
        planner = IncrementalPlanner(make_chargers())
        for d in spread_devices(30, seed=12):
            cost, _ = planner.quote(d)
            planner.fold([planner.add(d, ceiling=cost)])
        assert planner.ops["full_solves"] == 0

    def test_per_request_candidate_work_stays_bounded(self):
        # Feed requests one fold at a time while *retiring* sessions so
        # the live plan stays at O(K) devices — the steady state of a
        # long-running service.  If insertion, improvement, or repair
        # scanned history rather than the live plan, per-request
        # candidate counts would grow linearly over the run; with the
        # live plan bounded they must stay flat.
        planner = IncrementalPlanner(make_chargers())
        devices = spread_devices(120, seed=5)
        per_request = []
        for d in devices:
            before = (
                planner.ops["insert_candidates"] + planner.ops["scan_candidates"]
            )
            cost, _ = planner.quote(d)
            planner.fold([planner.add(d, ceiling=cost)])
            per_request.append(
                planner.ops["insert_candidates"]
                + planner.ops["scan_candidates"]
                - before
            )
            while len(planner.active_indices()) > 12:
                planner.retire(planner.live_cids()[0])
        early = sum(per_request[10:30]) / 20.0
        late = sum(per_request[100:120]) / 20.0
        # Work per request must not trend upward with history (allow 50%
        # noise headroom; an O(history) regression would be ~4x).
        assert late <= early * 1.5 + 5.0
        assert planner.ops["full_solves"] == 0

    def test_fold_batch_work_scales_with_batch_and_plan(self):
        planner = IncrementalPlanner(make_chargers())
        batch = []
        for d in spread_devices(25, seed=7):
            cost, _ = planner.quote(d)
            batch.append(planner.add(d, ceiling=cost))
        planner.fold(batch)
        live = planner.structure.n_coalitions + planner.instance.n_chargers
        # Insertion: one candidate per (live coalition or charger) per
        # inserted device — crude upper bound with the plan at final size.
        assert planner.ops["insert_candidates"] <= 25 * (25 + 3)
        assert planner.ops["full_solves"] == 0
        assert live >= 1


class _GenericPowerLaw(PowerLawTariff):
    """A power law the price table cannot recognise: no closed form."""


_TARIFFS = {
    "power": lambda k: PowerLawTariff(base=10.0 + k, unit=1.0 + 0.1 * k, exponent=0.8),
    "linear": lambda k: LinearTariff(base=5.0 + k, unit=0.02),
    "piecewise": lambda k: PiecewiseConcaveTariff(
        base=3.0 + k, breakpoints=(5e3, 2e4), marginal_prices=(0.2, 0.1, 0.05)
    ),
    "generic": lambda k: _GenericPowerLaw(base=8.0, unit=1.0, exponent=0.7 + 0.01 * k),
}
_MOBILITY = {
    "linear": LinearMobility(),
    "quadratic": QuadraticMobility(curvature=0.002),
    "manhattan": ManhattanMobility(),
}
_coord = st.floats(min_value=-500.0, max_value=500.0, allow_nan=False)
_demand = st.one_of(
    st.just(5e-324),
    st.floats(min_value=5e-324, max_value=2.2e-308),
    st.floats(min_value=1e-3, max_value=1e5),
)


def _scalar_rows(inst, dev):
    """The per-charger scalar loop the vectorized rows must reproduce."""
    mobility, rate = inst.mobility, dev.moving_rate
    move = np.array(
        [mobility.moving_cost(dev.position, c.position, rate) for c in inst.chargers], dtype=float
    )
    price = np.array([c.price_for_stored(dev.demand) for c in inst.chargers], dtype=float)
    return move, price


def _scalar_quote(inst, dev):
    move, price = _scalar_rows(inst, dev)
    costs = move + price
    admitting = [
        j for j, c in enumerate(inst.chargers) if inst.charger_available(j) and c.admits(1)
    ]
    if not admitting:
        raise ServiceError("no available charger admits even a single device")
    j = min(admitting, key=lambda j: (float(costs[j]), j))
    return float(costs[j]), j


@st.composite
def _quote_case(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    chargers = [
        Charger(
            charger_id=f"c{k}",
            position=Point(draw(_coord), draw(_coord)),
            tariff=_TARIFFS[draw(st.sampled_from(sorted(_TARIFFS)))](k),
            efficiency=draw(st.floats(min_value=0.05, max_value=1.0)),
        )
        for k in range(m)
    ]
    if draw(st.booleans()):
        # An exact twin of charger 0 at the end: every quote ties there.
        twin = chargers[0]
        chargers.append(
            Charger(charger_id="twin", position=twin.position, tariff=twin.tariff,
                    efficiency=twin.efficiency)
        )
    mobility = _MOBILITY[draw(st.sampled_from(sorted(_MOBILITY)))]
    devices = [
        Device(
            device_id=f"d{k}",
            position=Point(draw(_coord), draw(_coord)),
            demand=draw(_demand),
            moving_rate=draw(st.floats(min_value=0.0, max_value=2.0)),
        )
        for k in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    up = draw(st.lists(st.booleans(), min_size=len(chargers), max_size=len(chargers)))
    return chargers, mobility, devices, up


class TestQuoteRowProperties:
    """The vectorized quote rows are bitwise the per-charger scalar loop."""

    @settings(max_examples=150, deadline=None)
    @given(case=_quote_case())
    def test_rows_and_quote_match_scalar_loop(self, case):
        chargers, mobility, devices, up = case
        planner = IncrementalPlanner(chargers, mobility=mobility)
        for j, flag in enumerate(up):
            if not flag:
                planner.fail_charger(j)
        inst = planner.instance
        assert inst.available_mask.tolist() == up
        for dev in devices:
            move, price = inst.quote_rows(dev)
            ref_move, ref_price = _scalar_rows(inst, dev)
            assert move.tobytes() == ref_move.tobytes()
            assert price.tobytes() == ref_price.tobytes()
            try:
                expected = _scalar_quote(inst, dev)
            except ServiceError:
                with pytest.raises(ServiceError):
                    planner.quote(dev)
                continue
            got = planner.quote(dev)
            assert got == expected
            assert type(got[0]) is float and type(got[1]) is int
            # A repeat quote (memoized rows) and one from carried rows agree.
            assert planner.quote(dev) == expected
            assert planner.quote(dev, rows=(ref_move, ref_price)) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(sorted(_TARIFFS)), min_size=1, max_size=6),
        efficiency=st.floats(min_value=0.05, max_value=1.0),
        demand=st.one_of(st.just(0.0), _demand),
    )
    def test_singleton_row_matches_price_for_stored(self, kinds, efficiency, demand):
        chargers = [
            Charger(charger_id=f"c{k}", position=Point(0.0, 0.0),
                    tariff=_TARIFFS[kind](k), efficiency=efficiency)
            for k, kind in enumerate(kinds)
        ]
        table = ChargerPriceTable(chargers)
        row = table.singleton_row(demand)
        ref = np.array([c.price_for_stored(demand) for c in chargers], dtype=float)
        assert row.tobytes() == ref.tobytes()
        m = len(chargers)
        assert row.tobytes() == table.prices(np.full(m, demand), np.arange(m)).tobytes()

    def test_singleton_row_rejects_negative_demand(self):
        with pytest.raises(ValueError):
            ChargerPriceTable(make_chargers()).singleton_row(-1.0)

    def test_ties_break_toward_the_lower_charger(self):
        twin = [
            Charger(charger_id="a", position=Point(50.0, 0.0)),
            Charger(charger_id="b", position=Point(50.0, 0.0)),
            Charger(charger_id="c", position=Point(50.0, 0.0)),
        ]
        planner = IncrementalPlanner(twin)
        dev = device(0, 0.0, 0.0)
        assert planner.quote(dev)[1] == 0
        planner.fail_charger(0)
        assert planner.quote(dev)[1] == 1

    def test_all_chargers_down_is_a_service_error(self):
        planner = IncrementalPlanner(make_chargers())
        for j in range(3):
            planner.fail_charger(j)
        with pytest.raises(ServiceError):
            planner.quote(device(0, 1.0, 1.0))
        planner.restore_charger(1)
        assert planner.quote(device(0, 1.0, 1.0))[1] == 1

    def test_add_with_carried_rows_equals_add_without(self):
        devices = spread_devices(8, seed=3)
        carried, fresh = IncrementalPlanner(make_chargers()), IncrementalPlanner(make_chargers())
        for d in devices:
            cost, _ = carried.quote(d)
            carried.add(d, cost, rows=carried.quote_rows(d))
            fresh.add(d, cost)
        for name in ("moving_cost", "singleton_price", "singleton_cost"):
            a = getattr(carried.instance, f"_{name}")
            b = getattr(fresh.instance, f"_{name}")
            assert a.tobytes() == b.tobytes()
