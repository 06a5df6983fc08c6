"""Object-vs-array engine equivalence: the bit-identity contract.

The array engine (:mod:`repro.game.arraycore`) promises to be
*observationally indistinguishable* from the object engine — not "close",
identical: the same switch sequence, the same schedule, the same total
cost to the last bit, the same Zobrist hash.  Four layers enforce it:

1. **Golden bit-identity**: on every ``ccsga_golden.json`` case x both
   schemes, the two engines produce exactly equal schedules, switch and
   sweep counts, Nash certificates, and *exactly* equal traces (no
   tolerance — ``==`` on floats).
2. **Hypothesis end-to-end fuzz**: random workloads, schemes, and rules;
   both engines run CCSGA to convergence and must agree exactly.
3. **Lockstep state fuzz**: an :class:`~repro.game.arraycore.ArrayState`
   and a :class:`~repro.game.coalition.CoalitionStructure` are driven
   through the same random legal move sequence; after every move the
   cached totals, Zobrist hashes, canonical partitions, and each
   device's ``best_move`` must match bitwise, and both pass their own
   invariant audits.
4. **Engine-knob semantics**: resolution rules, the environment
   variable, unsupported-combination errors, and planner parity.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Device, EgalitarianSharing, ProportionalSharing, ShapleySharing, ccsga
from repro.core.ccsga import resolve_engine
from repro.errors import ConfigurationError
from repro.game import (
    ArrayState,
    CoalitionStructure,
    SelfishSwitch,
    SociallyAwareSwitch,
    StructureArrayView,
    engine_supported,
)
from repro.geometry import Point
from repro.io import instance_from_dict
from repro.service import IncrementalPlanner
from repro.workloads import quick_instance
from repro.wpt import Charger
from repro.wpt.pricing import LinearTariff, PiecewiseConcaveTariff, PowerLawTariff

FIXTURES = Path(__file__).parent / "fixtures"

SCHEMES = {
    "egalitarian": EgalitarianSharing(),
    "proportional": ProportionalSharing(),
}

RULES = [SociallyAwareSwitch(), SelfishSwitch()]


def load_fixture(name):
    with open(FIXTURES / f"{name}.json") as fh:
        return instance_from_dict(json.load(fh))


def _golden():
    with open(FIXTURES / "ccsga_golden.json") as fh:
        return json.load(fh)


GOLDEN = _golden()


def _instance_for(case_name):
    if case_name.startswith("quick_"):
        spec, _ = case_name.split("/")
        parts = dict((kv[0], int(kv[1:])) for kv in spec.split("_")[1:])
        return quick_instance(
            n_devices=parts["n"], n_chargers=parts["m"], seed=parts["s"], capacity=6
        )
    return load_fixture(case_name.split("/")[0])


def assert_results_bit_identical(obj, arr):
    """Exact (no-tolerance) equality of two CCSGA results."""
    assert obj.schedule.sessions == arr.schedule.sessions
    assert obj.switches == arr.switches
    assert obj.sweeps == arr.sweeps
    assert obj.nash_certified == arr.nash_certified
    # Bit-identity: == on floats, deliberately not pytest.approx.
    assert list(obj.trace.values) == list(arr.trace.values)


# --------------------------------------------------------------------- #
# 1. golden bit-identity


@pytest.mark.parametrize("case", sorted(GOLDEN))
class TestGoldenBitIdentity:
    def test_engines_bit_identical_on_golden_case(self, case):
        instance = _instance_for(case)
        scheme = SCHEMES[case.rsplit("/", 1)[1]]
        obj = ccsga(instance, scheme=scheme, certify=True, engine="object")
        arr = ccsga(instance, scheme=scheme, certify=True, engine="array")
        assert obj.engine == "object" and arr.engine == "array"
        assert_results_bit_identical(obj, arr)
        # And the array engine still matches the recorded golden outputs.
        expected = GOLDEN[case]
        got_schedule = sorted(
            [s.charger, sorted(s.members)] for s in arr.schedule.sessions
        )
        assert got_schedule == expected["schedule"]
        assert arr.switches == expected["switches"]


# --------------------------------------------------------------------- #
# 2. end-to-end hypothesis fuzz


class TestEndToEndEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=28),
        m=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
        capacity=st.sampled_from([None, 2, 4, 8]),
        scheme_name=st.sampled_from(sorted(SCHEMES)),
        rule_idx=st.integers(min_value=0, max_value=1),
    )
    def test_engines_agree_exactly_on_random_workloads(
        self, n, m, seed, capacity, scheme_name, rule_idx
    ):
        instance = quick_instance(
            n_devices=n, n_chargers=m, seed=seed, capacity=capacity
        )
        scheme = SCHEMES[scheme_name]
        rule = RULES[rule_idx]
        try:
            obj = ccsga(instance, scheme=scheme, rule=rule, engine="object")
        except Exception as exc:  # selfish dynamics may legitimately cycle
            with pytest.raises(type(exc)):
                ccsga(instance, scheme=scheme, rule=rule, engine="array")
            return
        arr = ccsga(instance, scheme=scheme, rule=rule, engine="array")
        assert_results_bit_identical(obj, arr)

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=20),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_warm_start_equivalence(self, n, seed):
        instance = quick_instance(n_devices=n, n_chargers=3, seed=seed, capacity=6)
        warm = ccsga(instance, certify=False, engine="object").schedule
        obj = ccsga(instance, warm_start=warm, engine="object")
        arr = ccsga(instance, warm_start=warm, engine="array")
        assert_results_bit_identical(obj, arr)

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=20),
        seed=st.integers(min_value=0, max_value=1_000),
        order_seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_random_visit_order_equivalence(self, n, seed, order_seed):
        instance = quick_instance(n_devices=n, n_chargers=3, seed=seed)
        obj = ccsga(instance, rng=order_seed, engine="object")
        arr = ccsga(instance, rng=order_seed, engine="array")
        assert_results_bit_identical(obj, arr)


# --------------------------------------------------------------------- #
# 3. lockstep state fuzz


class TestLockstepState:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_states_match_bitwise_under_random_moves(self, data):
        n = data.draw(st.integers(min_value=2, max_value=16), label="n")
        m = data.draw(st.integers(min_value=1, max_value=4), label="m")
        seed = data.draw(st.integers(min_value=0, max_value=5_000), label="seed")
        capacity = data.draw(st.sampled_from([None, 3, 6]), label="capacity")
        scheme = SCHEMES[
            data.draw(st.sampled_from(sorted(SCHEMES)), label="scheme")
        ]
        instance = quick_instance(
            n_devices=n, n_chargers=m, seed=seed, capacity=capacity
        )
        obj = CoalitionStructure.singletons(instance, scheme)
        arr = ArrayState.singletons(instance, scheme)
        rule = data.draw(st.sampled_from(RULES), label="rule")
        for _ in range(data.draw(st.integers(min_value=1, max_value=25), label="moves")):
            device = data.draw(
                st.integers(min_value=0, max_value=n - 1), label="device"
            )
            # Both engines must propose the identical best move...
            obj_move = rule.best_move(obj, device)
            arr_move = arr.best_move(device, rule)
            assert obj_move == arr_move
            src = obj.coalition_of(device)
            options = [
                c.cid
                for c in obj.coalitions()
                if c is not src and instance.chargers[c.charger].admits(c.size + 1)
            ]
            targets = [(cid, None) for cid in options] + [
                (None, j)
                for j in range(m)
                if not (src.size == 1 and j == src.charger)
            ]
            if not targets:
                continue
            idx = data.draw(
                st.integers(min_value=0, max_value=len(targets) - 1), label="target"
            )
            target, charger = targets[idx]
            if charger is None:
                charger = obj._coalitions[target].charger
            obj.move(device, target, charger)
            arr.move(device, target, charger)
            # ...and land in bitwise-identical states after any legal move.
            assert arr.total_cost == obj.total_cost
            assert arr.zobrist_hash() == obj.zobrist_hash()
            assert arr.state_key() == obj.state_key()
            assert arr.n_coalitions == obj.n_coalitions
        obj.check_invariants()
        arr.check_invariants()
        assert arr.to_schedule("x").sessions == obj.to_schedule("x").sessions

    def test_array_state_rejects_illegal_moves_like_object(self):
        instance = quick_instance(n_devices=4, n_chargers=2, seed=3, capacity=1)
        scheme = EgalitarianSharing()
        obj = CoalitionStructure.singletons(instance, scheme)
        arr = ArrayState.singletons(instance, scheme)
        cid = next(iter(obj.coalitions())).cid
        member = next(iter(obj.coalition_of(0).members))
        with pytest.raises(ValueError):
            obj.move(member, obj.coalition_of(member).cid, 0)
        with pytest.raises(ValueError):
            arr.move(member, obj.coalition_of(member).cid, 0)
        # capacity=1: every join is inadmissible.
        other = next(i for i in range(4) if obj.coalition_of(i).cid != cid)
        with pytest.raises(ValueError):
            obj.move(other, cid, obj._coalitions[cid].charger)
        with pytest.raises(ValueError):
            arr.move(other, cid, obj._coalitions[cid].charger)
        with pytest.raises(KeyError):
            arr.move(0, 999_999, 0)

    def test_structure_view_matches_rule_best_move(self):
        instance = quick_instance(n_devices=18, n_chargers=4, seed=11, capacity=6)
        for scheme in SCHEMES.values():
            structure = CoalitionStructure.singletons(instance, scheme)
            view = StructureArrayView(structure)
            for rule in RULES:
                # Interleave scans and moves so the view's version-keyed
                # rebuild is exercised, not just the first build.
                for device in range(instance.n_devices):
                    expected = rule.best_move(structure, device)
                    assert view.best_move(device, rule) == expected
                    if expected is not None:
                        structure.move(device, expected.target, expected.charger)


# --------------------------------------------------------------------- #
# 4. engine knob semantics


class TestEngineKnob:
    def test_auto_picks_array_for_supported_combination(self):
        instance = quick_instance(n_devices=6, n_chargers=2, seed=0)
        assert engine_supported(instance, EgalitarianSharing(), SociallyAwareSwitch())
        result = ccsga(instance, engine="auto")
        assert result.engine == "array"

    def test_auto_falls_back_for_shapley(self):
        instance = quick_instance(n_devices=5, n_chargers=2, seed=1)
        scheme = ShapleySharing()
        assert not engine_supported(instance, scheme, SociallyAwareSwitch())
        result = ccsga(instance, scheme=scheme, engine="auto")
        assert result.engine == "object"

    def test_array_with_shapley_raises(self):
        instance = quick_instance(n_devices=5, n_chargers=2, seed=1)
        with pytest.raises(ConfigurationError):
            ccsga(instance, scheme=ShapleySharing(), engine="array")

    def test_unknown_engine_rejected(self):
        instance = quick_instance(n_devices=4, n_chargers=2, seed=0)
        with pytest.raises(ConfigurationError):
            ccsga(instance, engine="vectorized")

    def test_subclassed_rule_is_not_vectorized(self):
        class TweakedSwitch(SociallyAwareSwitch):
            pass

        instance = quick_instance(n_devices=4, n_chargers=2, seed=0)
        rule = TweakedSwitch()
        assert not engine_supported(instance, EgalitarianSharing(), rule)
        assert (
            resolve_engine("auto", instance, EgalitarianSharing(), rule) == "object"
        )

    def test_env_variable_selects_engine(self, monkeypatch):
        instance = quick_instance(n_devices=6, n_chargers=2, seed=0)
        monkeypatch.setenv("CCS_ENGINE", "object")
        assert ccsga(instance).engine == "object"
        monkeypatch.setenv("CCS_ENGINE", "array")
        assert ccsga(instance).engine == "array"
        monkeypatch.delenv("CCS_ENGINE")
        assert ccsga(instance).engine == "array"  # auto, supported

    def test_explicit_argument_beats_environment(self, monkeypatch):
        instance = quick_instance(n_devices=6, n_chargers=2, seed=0)
        monkeypatch.setenv("CCS_ENGINE", "array")
        assert ccsga(instance, engine="object").engine == "object"

    def test_env_array_is_advisory_not_strict(self, monkeypatch):
        """CCS_ENGINE=array falls back where unsupported; the argument raises."""
        instance = quick_instance(n_devices=5, n_chargers=2, seed=1)
        monkeypatch.setenv("CCS_ENGINE", "array")
        result = ccsga(instance, scheme=ShapleySharing())
        assert result.engine == "object"
        with pytest.raises(ConfigurationError):
            ccsga(instance, scheme=ShapleySharing(), engine="array")


# --------------------------------------------------------------------- #
# planner parity


def _drive_planner(engine):
    chargers = [
        Charger(charger_id="c0", position=Point(10.0, 10.0), capacity=6),
        Charger(charger_id="c1", position=Point(90.0, 90.0), capacity=6),
        Charger(charger_id="c2", position=Point(50.0, 50.0), capacity=6),
    ]
    planner = IncrementalPlanner(chargers, engine=engine)
    import numpy as np

    rng = np.random.default_rng(7)
    indices = []
    for k in range(18):
        dev = Device(
            device_id=f"d{k}",
            position=Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
            demand=float(rng.uniform(10e3, 40e3)),
        )
        cost, _ = planner.quote(dev)
        indices.append(planner.add(dev, cost))
    # Fold in three epochs, with removals and a retirement between them.
    planner.fold(indices[:8])
    planner.remove(indices[2])
    planner.fold(indices[8:14])
    planner.retire(planner.live_cids()[0])
    planner.fold(indices[14:])
    planner.structure.check_invariants()
    snapshot = sorted(
        (c.charger, tuple(sorted(c.members)))
        for c in planner.structure.coalitions()
    )
    return planner, snapshot


class _UnlistedPowerLaw(PowerLawTariff):
    """A power law the price table does not recognise: priced per charger."""


_PLANNER_TARIFFS = {
    "power": lambda k: PowerLawTariff(base=10.0 + 5.0 * k, unit=1.0, exponent=0.8),
    "linear": lambda k: LinearTariff(base=40.0 + 5.0 * k, unit=0.05),
    "piecewise": lambda k: PiecewiseConcaveTariff(
        base=20.0 + 5.0 * k, breakpoints=(5e3, 2e4), marginal_prices=(0.2, 0.1, 0.05)
    ),
    "unlisted": lambda k: _UnlistedPowerLaw(base=15.0, unit=1.0, exponent=0.7 + 0.02 * k),
}
_xy = st.floats(min_value=0.0, max_value=100.0)
_add_step = st.tuples(
    st.just("add"), _xy, _xy,
    st.floats(min_value=1e3, max_value=5e4),  # demand
    st.floats(min_value=0.05, max_value=40.0),  # moving rate
)
_planner_step = st.one_of(
    _add_step,
    _add_step,  # listed twice: adds are drawn twice as often as other edits
    st.tuples(st.just("fold")),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=1000)),
    st.tuples(st.just("retire"), st.integers(min_value=0, max_value=1000)),
    st.tuples(st.just("fail"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("restore"), st.integers(min_value=0, max_value=3)),
)


@st.composite
def _planner_script(draw):
    chargers = [
        Charger(
            charger_id=f"c{k}",
            position=Point(draw(_xy), draw(_xy)),
            tariff=_PLANNER_TARIFFS[draw(st.sampled_from(sorted(_PLANNER_TARIFFS)))](k),
            capacity=draw(st.sampled_from([1, 2, 3, None])),
        )
        for k in range(draw(st.integers(min_value=2, max_value=4)))
    ]
    scheme = draw(st.sampled_from(sorted(SCHEMES)))
    sweeps = draw(st.integers(min_value=0, max_value=3))
    steps = draw(st.lists(_planner_step, min_size=1, max_size=30))
    return chargers, scheme, sweeps, steps


def _assert_planners_identical(obj, arr):
    assert arr.structure.state_key() == obj.structure.state_key()
    # Bit-identity: compare the exact bits, not a tolerance.
    assert arr.structure.total_cost.hex() == obj.structure.total_cost.hex()
    assert arr.structure.zobrist_hash() == obj.structure.zobrist_hash()
    # Identical decisions imply identical work tallies.
    assert arr.ops == obj.ops


def _assert_screen_exact(planner):
    """The array planner's screen agrees with the exact scans, device by device."""
    view, structure = planner._view, planner.structure
    placed = planner.active_indices()
    if not placed:
        return
    _, _, _, own_now, leave = view._source_state(placed)
    for k, device in enumerate(placed):
        assert float(own_now[k]).hex() == structure.individual_cost(device).hex()
        assert float(leave[k]).hex() == structure.leave_delta(device).hex()
        for rule in (planner._social, planner._selfish):
            screened = view.first_mover([device], rule) is not None
            assert screened == (rule.best_move(structure, device) is not None)


def _counting_best_move(planner):
    """Record the array planner's exact socially-aware per-device scans."""
    view = planner._view
    calls = []
    exact = view.best_move

    def counted(device, rule):
        if isinstance(rule, SociallyAwareSwitch):
            calls.append(device)
        return exact(device, rule)

    view.best_move = counted
    return calls


class TestPlannerParity:
    def test_planner_engines_bit_identical(self):
        obj_planner, obj_snapshot = _drive_planner("object")
        arr_planner, arr_snapshot = _drive_planner("array")
        assert obj_planner.engine == "object" and arr_planner.engine == "array"
        assert arr_snapshot == obj_snapshot
        _assert_planners_identical(obj_planner, arr_planner)

    @settings(max_examples=80, deadline=None)
    @given(script=_planner_script())
    def test_random_edit_sequences_bit_identical(self, script):
        """Object and array planners agree after every fold of a random
        add / fold / remove / retire / outage / recovery sequence."""
        chargers, scheme, sweeps, steps = script
        planners = [
            IncrementalPlanner(
                chargers, scheme=SCHEMES[scheme], improvement_sweeps=sweeps, engine=engine
            )
            for engine in ("object", "array")
        ]
        obj, arr = planners
        assert obj.engine == "object" and arr.engine == "array"
        exact_scans = _counting_best_move(arr)
        m = len(chargers)
        pending = []  # added, displaced or evicted devices awaiting a fold
        inserted = 0
        for n, step in enumerate([*steps, ("fold",)]):
            kind = step[0]
            if kind == "add":
                _, x, y, demand, rate = step
                dev = Device(
                    device_id=f"d{n}", position=Point(x, y), demand=demand, moving_rate=rate
                )
                quote = obj.quote(dev)
                assert arr.quote(dev) == quote
                index = obj.add(dev, quote[0])
                assert arr.add(dev, quote[0]) == index
                pending.append(index)
            elif kind == "fold":
                inserted += len(pending)
                placements, evicted = obj.fold(pending)
                assert arr.fold(pending) == (placements, evicted)
                _assert_planners_identical(obj, arr)
                _assert_screen_exact(arr)
                pending = list(evicted)
            elif kind == "remove":
                active = obj.active_indices()
                if active:
                    device = active[step[1] % len(active)]
                    evicted = obj.remove(device)
                    assert arr.remove(device) == evicted
                    pending.extend(evicted)
            elif kind == "retire":
                cids = obj.live_cids()
                if cids:
                    cid = cids[step[1] % len(cids)]
                    assert arr.retire(cid) == obj.retire(cid)
            elif kind == "fail":
                j = step[1] % m
                up = int(obj.instance.available_mask.sum())
                # Keep one charger up so every fold has a placement.
                if obj.is_available(j) and up > 1:
                    for planner in planners:
                        planner.fail_charger(j)
                    displaced = obj.evacuate_charger(j)
                    assert arr.evacuate_charger(j) == displaced
                    pending.extend(displaced)
            else:
                j = step[1] % m
                for planner in planners:
                    planner.restore_charger(j)
            assert arr.live_cids() == obj.live_cids()
        _assert_planners_identical(obj, arr)
        for planner in planners:
            planner.structure.check_invariants()
        # The screen sends exactly the improvement movers to the exact scan.
        assert len(exact_scans) == arr.ops["moves"] - inserted

    @staticmethod
    def _two_charger_planner():
        chargers = [
            Charger(
                charger_id=f"c{k}",
                position=Point(100.0 * k, 0.0),
                tariff=PowerLawTariff(base=200.0, unit=0.01),
            )
            for k in range(2)
        ]
        return IncrementalPlanner(chargers, engine="array")

    def test_fold_without_a_mover_runs_no_exact_scan(self):
        planner = self._two_charger_planner()
        calls = _counting_best_move(planner)
        dev = Device(device_id="a", position=Point(0.0, 0.0), demand=20e3, moving_rate=3.0)
        planner.fold([planner.add(dev, planner.quote(dev)[0])])
        assert planner.ops["scan_candidates"] > 0  # the sweep did visit it
        assert planner.ops["moves"] == 1  # the insert; no improvement move
        assert calls == []

    def test_fold_with_one_mover_runs_one_exact_scan(self):
        planner = self._two_charger_planner()
        calls = _counting_best_move(planner)
        a = Device(device_id="a", position=Point(0.0, 0.0), demand=20e3, moving_rate=3.0)
        b = Device(device_id="b", position=Point(100.0, 0.0), demand=20e3, moving_rate=3.0)
        ia = planner.add(a, planner.quote(a)[0])
        planner.fold([ia])
        # Strand a at the far charger, 300 moving-cost units from its own.
        planner.structure.move(ia, None, 1)
        moves = planner.ops["moves"]
        del calls[:]
        ib = planner.add(b, planner.quote(b)[0])
        planner.fold([ib])
        # b joins a's session at c1 (the shared base fee beats charging
        # alone); the sweep then sends a home, and nothing else moves.
        assert planner.ops["moves"] == moves + 2
        assert planner.structure.coalition_of(ia).charger == 0
        assert calls == [ia]


# --------------------------------------------------------------------- #
# tier-1 smoke: the array path stays exercised and fast


@pytest.mark.bench_smoke
def test_bench_smoke_engine_parity():
    """Both engines on one mid-size workload: exact agreement, every sweep."""
    instance = quick_instance(n_devices=120, n_chargers=8, seed=2026, capacity=6)
    for scheme in SCHEMES.values():
        obj = ccsga(instance, scheme=scheme, engine="object")
        arr = ccsga(instance, scheme=scheme, engine="array")
        assert_results_bit_identical(obj, arr)
        assert arr.engine == "array"
