(** The local-memory cache manager.

    Owns the swap section plus every custom section, routes allocation
    sites to sections, and enforces the local-memory budget: the
    sections' bytes come out of the swap section's.  A manager's layout
    is set by one [configure] call, before the runtime's first
    allocation: every candidate configuration the controller tries runs
    on a fresh runtime, so a layout never changes once set.  One section
    may serve several sites (similar patterns grouped together); a site
    no section serves runs on swap. *)

type t

val create : Mira_sim.Net.t -> Mira_sim.Cluster.t -> budget:int -> page:int -> t
(** The whole budget initially backs the swap section (the paper's
    initial, swap-everything configuration). *)

val swap : t -> Swap_section.t

val set_attribution : t -> Mira_telemetry.Attribution.t -> unit
(** Route all cache-layer stalls into the given ledger: the swap
    section, every live section, every section created later, plus the
    manager's own failover-recovery fence waits. *)

val check_cluster : t -> clock:Mira_sim.Clock.t -> unit
(** Process cluster crash/recovery events due by now.  On failover:
    fail in-flight requests ([Net.fail_inflight], the epoch fence),
    re-issue writebacks for every still-dirty line/page ([flush_all]),
    and wait out a write fence — the elapsed simulated time is the
    recovery time recorded in [node.recovery_ns].  On a loss past
    quorum: fail in-flight requests and declare every node of the
    cluster down ([Net.set_node_down]) until enough nodes return; the
    run continues degraded.  Called by the runtime's access path, so a
    crash due before the first access is handled at that access.
    Reentrant calls made during recovery (other tenants' accesses while
    it waits) return at once. *)

type layout = {
  sections : (Section.config * int list) list;
      (** each section, in creation order, with the sites it serves *)
  per_thread : (int * int array) list;
      (** [(site, ids)]: thread [i] uses section [ids.(min i (n-1))]
          (read-only multithreading, §4.6).  Overrides a shared route
          of the same site. *)
}

val configure : t -> layout -> unit
(** Create the layout's sections in order and route their sites, then
    size the swap section, still empty, to the budget they leave.
    Raises [Failure "section N already exists"] or [Failure "section N
    (B B) exceeds local budget (U B used of T)"] for the first section
    that does not fit (the swap section keeps at least one page), and
    [Invalid_argument] naming the site when a per-thread id list is
    empty or names no section of the layout, or when the manager is
    already configured. *)

val find_section : t -> id:int -> Section.t option
val sections : t -> Section.t list

val route_handle : t -> tid:int -> site:int -> Cache_section.handle
(** The handle serving thread [tid]'s accesses to [site]: its
    per-thread section, its shared section, or the swap section's when
    no section serves it.  Resolved once per site and cached. *)

val metadata_bytes : t -> int
(** Total local-memory metadata of swap + sections. *)

val reset_stats : t -> unit

val publish : t -> Mira_telemetry.Metrics.t -> unit
(** Export every live section's stats, the swap section's, and the
    manager-level gauges ([cache.*]). *)
