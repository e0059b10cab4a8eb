(** The local-memory cache manager.

    Owns the swap section plus every live custom section, routes
    allocation sites to sections, and enforces the local-memory budget:
    creating a section takes bytes away from the swap section.  A
    manager is configured once per run: every candidate configuration
    the controller tries runs on a fresh runtime, so sections are never
    torn down.  One section may serve several sites (similar patterns
    grouped together); a site not assigned anywhere runs on swap. *)

type t

val create : Mira_sim.Net.t -> Mira_sim.Cluster.t -> budget:int -> page:int -> t
(** The whole budget initially backs the swap section (the paper's
    initial, swap-everything configuration). *)

val swap : t -> Swap_section.t

val swap_handle : t -> Cache_section.handle
(** The swap section as a [Cache_section.handle]. *)

val set_attribution : t -> Mira_telemetry.Attribution.t -> unit
(** Route all cache-layer stalls into the given ledger: the swap
    section, every live section, every section created later, plus the
    manager's own failover-recovery fence waits. *)

val check_cluster : t -> clock:Mira_sim.Clock.t -> unit
(** Process cluster crash/recovery events due by now.  On failover:
    fail in-flight requests ([Net.fail_inflight], the epoch fence),
    re-issue writebacks for every still-dirty line/page ([flush_all]),
    and wait out a write fence — the elapsed simulated time is the
    recovery time recorded in [node.recovery_ns].  On a primary loss
    with no replica: fail in-flight requests and declare the outage to
    the network ([Net.set_down]); the run continues degraded.  Called
    on entry to [add_section], so recovery never interleaves with the
    swap rebudget, and by the runtime's access path.  Reentrant calls
    made during recovery return at once. *)

val add_section :
  t -> clock:Mira_sim.Clock.t -> Section.config -> (Section.t, string) result
(** Carve a new section out of the swap section's budget.  Fails if the
    remaining swap space would drop below one page, or the id exists. *)

val find_section : t -> id:int -> Section.t option
val sections : t -> Section.t list

val assign_site : t -> site:int -> sec_id:int -> unit
(** Route an allocation site to a section.  Raises [Invalid_argument]
    if the section does not exist. *)

val route_handle : t -> site:int -> Cache_section.handle
(** Uniform routing: the assigned section's handle, or the swap
    section's when the site has none.  Callers no longer special-case
    swap. *)

val generation : t -> int
(** Changes whenever [route_handle] or [find_section] may answer
    differently: bumped by [add_section] and [assign_site].  Callers
    that cache routing revalidate against it. *)

val metadata_bytes : t -> int
(** Total local-memory metadata of swap + sections. *)

val reset_stats : t -> unit

val publish : t -> Mira_telemetry.Metrics.t -> unit
(** Export every live section's stats, the swap section's, and the
    manager-level gauges ([cache.*]). *)
