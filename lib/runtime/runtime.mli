(** Mira's local-node runtime: the section-based memory system.

    Combines the cache manager (swap section + custom sections), the
    two-level allocator (remote allocator on the far node, buffering
    local allocator here), per-thread simulated clocks, offloaded
    execution mode, and the profiler, and exposes it all as a
    [Memsys.t] for the interpreter.

    A freshly created runtime has only the swap section — the paper's
    initial swap-everything setup.  Its cache layout (which sections
    exist, which allocation sites route where, per-thread sections) is
    set by one [configure] call before its first allocation: the
    iterative controller in [Mira] runs each candidate configuration on
    a fresh runtime. *)

type config = {
  params : Mira_sim.Params.t;
      (** cost model; its [page_size] is the swap-section page size *)
  local_budget : int;  (** local DRAM available for caching far data *)
  far_capacity : int;
      (** far-memory address-space size; local heap/stack space (not
          the cache) is bounded by the larger of it and 1 MiB *)
  dataplane : Mira_sim.Net.dp_config;
      (** network data-plane configuration: in-flight window, doorbell
          batching, fault injection ([Mira_sim.Net.dp_default] =
          legacy synchronous behaviour) *)
  cluster : Mira_sim.Cluster.spec;
      (** far-memory cluster: node count, replication factor, crash
          schedule ([Mira_sim.Cluster.spec_default] = one node, no
          replication, no crashes — the pre-cluster system) *)
  tenants : int;
      (** independent app contexts interleaving on the runtime's
          discrete-event scheduler ([sched]); 1 (the default) is the
          historical serialized single-tenant mode and is bit-identical
          to it.  Workloads spawn one task per tenant on [sched]. *)
}

val config_default : local_budget:int -> far_capacity:int -> config
(** Default parameters, legacy data plane, one far node, one tenant;
    customize by record update:

    {[ { (config_default ~local_budget ~far_capacity) with
         dataplane = { Mira_sim.Net.dp_default with window = 8 } } ]}

    Every runtime's swap section is one-sided, pages at
    [params.page_size], and reads ahead the rest of each 8-page cluster
    (Mira's initial configuration matches an optimized kernel swap);
    the local allocator refills 1 MiB at a time. *)

type t

val create : config -> t
(** Raises [Invalid_argument] when [tenants < 1]. *)

val manager : t -> Mira_cache.Manager.t
val net : t -> Mira_sim.Net.t

val cluster : t -> Mira_sim.Cluster.t

val far_store : t -> Mira_sim.Far_store.t
(** The cluster's current primary store (changes on failover). *)

val profile : t -> Profile.t
val params : t -> Mira_sim.Params.t

val sched : t -> Mira_sim.Sched.t
(** The runtime's discrete-event scheduler.  Every per-thread/tenant
    clock handed out by this runtime is a view over it; spawn one task
    per tenant and [Mira_sim.Sched.run] to interleave them on
    simulated time (see docs/CONCURRENCY.md). *)

val tenants : t -> int
(** The configured tenant count ([config.tenants]). *)

val attribution : t -> Mira_telemetry.Attribution.t
(** The runtime's stall-attribution ledger.  Wired into every stall
    site at [create] time (sections, swap, manager fences, alloc RPCs,
    offload RPC waits via [Memsys.attribution]); [reset_timing] clears
    it alongside the other statistics.  The runtime shares it with its
    net, which stamps each submission with the ledger's tenant, and
    its scheduler, which keeps each task's ledger context across
    parks, so multi-tenant charges land under the tenant that actually
    stalled.  It also holds the tenant interference matrix
    ([Mira_telemetry.Attribution.interference_cells]). *)

val clock_stall_ns : t -> float
(** Sum of [Mira_sim.Clock.stalled_ns] over all thread clocks — the
    audit-side total the ledger is checked against.  Published as
    [runtime.clock_stall_ns]; the ledger total is [runtime.stall_ns]. *)

val memsys : t -> Memsys.t
(** The interface the interpreter executes against. *)

val configure : t -> Mira_cache.Manager.layout -> unit
(** Set the runtime's whole cache layout ([Mira_cache.Manager.configure]):
    its sections, the sites each serves, and per-thread section ids.
    It may run once, before the runtime's first allocation; a second
    call, or a call after an allocation, raises [Invalid_argument]. *)

val lost_bytes_total : t -> int
(** Far bytes wiped by node crashes with no surviving replica, restricted
    to this run's live object ranges (degraded-mode accounting). *)

val lost_bytes_by_site : t -> (int * int) list
(** Per-allocation-site lost-byte accounting, sorted by site id. *)

val publish : t -> Mira_telemetry.Metrics.t -> unit
(** Export the runtime's statistics — network counters and latency
    histograms, per-section and swap cache stats, allocator gauges,
    cluster failure counters — into a metrics registry ([net.*],
    [section.*], [swap.*], [cache.*], [node.*], [replication.*],
    [runtime.*], incl. [runtime.lost_bytes] and [runtime.degraded]),
    plus the stall ledger ([runtime.stall_ns],
    [runtime.clock_stall_ns], per-cause [stall.<cause>_ns]). *)
