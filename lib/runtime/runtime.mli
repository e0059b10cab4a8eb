(** Mira's local-node runtime: the section-based memory system.

    Combines the cache manager (swap section + custom sections), the
    two-level allocator (remote allocator on the far node, buffering
    local allocator here), per-thread simulated clocks, offloaded
    execution mode, and the profiler, and exposes it all as a
    [Memsys.t] for the interpreter.

    Configuration (which sections exist, which allocation sites route
    where, per-thread private sections) is applied from outside by the
    iterative controller in [Mira].  A freshly created runtime has only
    the swap section — the paper's initial swap-everything setup. *)

type config = {
  params : Mira_sim.Params.t;
  local_budget : int;  (** local DRAM available for caching far data *)
  far_capacity : int;  (** far-memory address-space size *)
  local_capacity : int;  (** local heap/stack space (not the cache) *)
  page : int;  (** swap-section page size *)
  swap_side : Mira_sim.Net.side;
  alloc_chunk : int;  (** local allocator refill granularity *)
  swap_readahead : int;  (** cluster readahead width of the swap section
                             (Mira's initial config matches an optimized
                             kernel swap); 0/1 disables *)
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
          to it *)
}

(** Builder for [config]: [Config.make ~local_budget ~far_capacity]
    gives the defaults (one-sided swap, 8-page readahead, legacy data
    plane); pipe through [with_*] to customize:

    {[ Config.make ~local_budget ~far_capacity
       |> Config.with_page 4096
       |> Config.with_readahead 0
       |> Config.with_dataplane { Mira_sim.Net.dp_default with window = 8 } ]} *)
module Config : sig
  type t = config

  val make : local_budget:int -> far_capacity:int -> t
  val with_params : Mira_sim.Params.t -> t -> t
  val with_page : int -> t -> t
  val with_swap_side : Mira_sim.Net.side -> t -> t
  val with_readahead : int -> t -> t
  val with_local_capacity : int -> t -> t
  val with_alloc_chunk : int -> t -> t
  val with_dataplane : Mira_sim.Net.dp_config -> t -> t
  val with_cluster : Mira_sim.Cluster.spec -> t -> t

  val with_tenants : int -> t -> t
  (** Number of tenant contexts (>= 1; raises [Invalid_argument]
      otherwise).  Workloads spawn one task per tenant on [sched]. *)
end

type t

val create : config -> t

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
(** The configured tenant count ([Config.with_tenants]). *)

val attribution : t -> Mira_telemetry.Attribution.t
(** The runtime's stall-attribution ledger.  Wired into every stall
    site at [create] time (sections, swap, manager fences, alloc RPCs,
    offload RPC waits via [Memsys.attribution]); [reset_timing] clears
    it alongside the other statistics.  Its queue sink feeds the net's
    tenant {!Mira_sim.Net.Interference} matrix, and the scheduler
    carries the attribution context (and the net's tenant stamp)
    across task parks via a TLS hook, so multi-tenant charges land
    under the tenant that actually stalled. *)

val miss_sites : t -> Mira_telemetry.Sketch.t
(** Hot miss sites across the run: a Space-Saving top-K over
    ["site<N>"] keys, touched on every recorded demand miss and
    cleared by [reset_timing].  Sampled per window by the timeline
    exporter. *)

val clock_stall_ns : t -> float
(** Sum of [Mira_sim.Clock.stalled_ns] over all thread clocks — the
    audit-side total the ledger is checked against.  Published as
    [runtime.clock_stall_ns]; the ledger total is [runtime.stall_ns]. *)

val memsys : t -> Memsys.t
(** The interface the interpreter executes against. *)

val set_private_sections : t -> site:int -> sec_ids:int array -> unit
(** Route [site] to per-thread sections: thread [i] uses
    [sec_ids.(min i (len-1))] (read-only multithreading, §4.6).
    Raises [Invalid_argument] naming the site when [sec_ids] is empty. *)

val clear_private_sections : t -> unit

val site_ranges : t -> site:int -> (int * int) list
(** Live far-memory [(addr, len)] ranges allocated at [site]. *)

val live_far_bytes : t -> int

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
