"""repro.shard — the sharded multi-kernel charging service.

A single :class:`~repro.service.kernel.ChargingService` kernel is a
single-process ceiling (``BENCH_service.json``); this package scales the
service *out* by spatial decomposition, the same structure the
multi-charger literature gives the field: N fully independent kernels —
each with its own journal, logical clock, incremental planner, and
metrics — behind a deterministic spatial router.

Layout:

- :mod:`.partition` — :class:`GridPartition`: the field cut into one
  cell per shard (row-major, with a configurable overlap *halo*);
- :mod:`.router` — :class:`SpatialRouter`: interior devices go to their
  owner cell untouched, border devices are quoted against each candidate
  shard and admitted to the cheapest (ties → lower shard id); routing is
  a pure function of the inputs, so replay is byte-identical;
- :mod:`.service` — :class:`ShardedService`: the kernel-compatible
  facade (submit/advance/drain/faults), per-shard journals + manifest,
  merged metrics and schedules, whole-service and per-shard recovery.

Failure handling is not in this package: :func:`repro.faults.drive`
feeds a facade like any other service, and
:class:`repro.faults.ShardSupervisor` heals dead shards — automatic
failover with seed-derived backoff, crash-loop escalation into
degraded-mode routing, and a checksummed supervision journal (see
``docs/RECOVERY.md``).

Degenerate-case guarantee: ``n_shards=1`` is byte-identical — journal,
metrics snapshot, final schedule — to the unsharded service on every
input stream.  See ``docs/SHARDING.md``.
"""

from .partition import GridPartition, grid_shape
from .router import SpatialRouter
from .service import ShardedService, merge_final_schedules, shard_journal_name

__all__ = [
    "GridPartition",
    "grid_shape",
    "SpatialRouter",
    "ShardedService",
    "merge_final_schedules",
    "shard_journal_name",
]
