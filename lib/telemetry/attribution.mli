(** Cross-layer stall attribution.

    A ledger charging every simulated nanosecond of runtime stall to
    exactly one cause bucket and a [(function, alloc site, section,
    tenant)] key.  Cells are stored fixed-point (2^-16 ns units) so the
    conservation invariant — the per-cause totals sum to exactly what
    was charged — holds bit-exactly regardless of aggregation order.
    [check] performs the double-entry audit and is asserted by tests
    and at report time; on failure it names the offending bucket and
    the exact fixed-point remainder.

    The ledger is the one owner of the running tenant's context
    (function, site, tenant): the net reads the tenant it stamps on a
    submission from it, and the scheduler saves and restores it across
    task parks.  It also keeps the tenant interference matrix (see
    {!interference_cells}). *)

type cause =
  | Demand_wire  (** wire + propagation time of the successful transfer *)
  | Queueing  (** link/doorbell/window queueing ahead of the transfer *)
  | Retry  (** loss-detection timeouts and retransmission backoff *)
  | Fence  (** ordering fences (e.g. write fence before an offload RPC) *)
  | Writeback  (** synchronous writeback backpressure *)
  | Failover_recovery  (** node-failure detection and failover recovery *)
  | Reconfig
      (** reconfiguration barriers; nothing charges it, since sections
          are never torn down, but reports keep the bucket *)
  | Reconstruct
      (** degraded reads served by erasure-decoding k survivor chunks
          while a far node is down *)

type t

val fp_of_ns : float -> int64
(** Nanoseconds to the ledger's 2^-16 ns fixed point, truncating. *)

val ns_of_fp : int64 -> float

val causes : cause list
(** All causes, in canonical (index) order. *)

val cause_name : cause -> string
(** Stable snake_case name, as used in metric names and flame stacks. *)

val create : unit -> t
(** A fresh, enabled ledger with empty context. *)

val set_enabled : t -> bool -> unit
(** When disabled, [charge] is a no-op; flipping this never touches
    simulated state. *)

val set_context : t -> fn:string -> site:int -> unit
(** Set the attribution context subsequent charges are keyed under:
    the innermost profiled function and the allocation site being
    accessed ([site = -1] when not site-bound).  Leaves the tenant
    untouched — tenants change on task switches, fn/site change within
    a task. *)

val set_tenant : t -> int -> unit
(** Set the tenant subsequent charges are keyed under ([-1] = not
    tenant-bound, the initial state). *)

val clear_context : t -> unit
val context_fn : t -> string
val context_site : t -> int
val context_tenant : t -> int
(** The context charges are keyed under.  The scheduler saves all
    three when a task parks and restores them when it resumes. *)

val charge :
  t -> ?section:string -> ?holders:(int * int) list -> cause -> float -> unit
(** [charge t ~section cause ns] adds [ns] (simulated nanoseconds;
    non-positive amounts are ignored) under the current context.
    [section] defaults to ["-"].  [holders] (default empty) are the
    [(tenant, in-flight slots)] pairs that held the net window while a
    [Queueing] stall accrued; the charge's fixed-point amount is split
    over them in the interference matrix. *)

val charge_parts :
  t -> ?section:string -> ?holders:(int * int) list ->
  (cause * float) list -> unit

val split_stall :
  stall:float ->
  wire_ns:float ->
  queue_ns:float ->
  retry_ns:float ->
  (cause * float) list
(** Split a measured await-site stall (which may be shorter than the
    request's full latency, because the CPU overlapped part of it)
    across [Demand_wire]/[Retry]/[Queueing] tail-first.  The returned
    parts sum exactly to [stall]. *)

val unbalance_for_test : t -> cause -> int64 -> unit
(** Corrupt the online totals without touching any cell — the audit
    failure is unreachable through [charge], so tests use this to pin
    [check]'s named-bucket error message.  Never call outside tests. *)

val total_ns : t -> float
(** Everything charged since the last [reset], in ns. *)

val cause_ns : t -> cause -> float
val by_cause : t -> (cause * float) list

val tenant_cause_fp : t -> tenant:int -> cause -> int64
(** Exact fixed-point sum over all cells of one tenant and cause —
    e.g. [tenant_cause_fp t ~tenant Queueing] is the queue-stall
    bucket the interference matrix row must equal. *)

val interference_cells : t -> (int * int * int64) list
(** Who made whom wait on the net's in-flight window: sorted
    [(waiter, holder, fp)] cells in the ledger's fixed point.  Every
    [Queueing] charge that passes the positivity guard is split over
    its [holders] pro-rata by slot count (exact int64, the remainder to
    the last holder); a charge with no holders (link backlog, doorbell
    batching — not window contention) self-charges [(waiter, waiter)].
    The waiter is the context tenant. *)

val interference_rows : t -> (int * int64) list
(** [(waiter, total_fp)], tenant-sorted: each waiter's cells summed.
    A row equals [tenant_cause_fp ~tenant:waiter Queueing] exactly. *)

val check : t -> (unit, string) result
(** Double-entry audit: the cells must sum, per cause and in total, to
    the online totals accumulated by [charge].  The error message
    names the first offending bucket and its exact fixed-point
    remainder. *)

val unattributed_ns : t -> float
(** The audit remainder; exactly [0.] when [check] passes. *)

val folded : t -> string
(** Folded flame stacks: one line per [fn;site;cause count_ns], counts
    in whole nanoseconds, loadable by FlameGraph / speedscope. *)

val to_json : t -> Json.t
val publish : t -> Metrics.t -> unit
(** Publish per-cause gauges [stall.<cause>_ns]. *)

val reset : t -> unit
(** Clear all cells, the totals, the interference matrix and the
    context. *)
