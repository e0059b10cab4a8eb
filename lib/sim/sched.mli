(** Deterministic discrete-event scheduler: the time API for
    many-tenant simulation.

    [Sched] replaces "one app thread on one serialized clock" with N
    tenant contexts running as resumable tasks.  Each tenant owns a
    {!Clock.t} that is a {e view} over this scheduler: whenever a task
    moves its clock forward — compute time, or blocking on a typed
    event (net completion, cache-line fill, fence, arrival timer) — the
    task with the globally earliest clock runs next.  The moving task
    yields only when another task is earlier; otherwise it continues
    in place, and the elided park-and-resume still counts as a dispatch
    and a block, so the counters equal those of a scheduler that parks
    on every move.
    Tenants thereby contend for the shared section cache, the net
    in-flight window, and the far cluster in exact simulated-time
    order.

    {b Determinism.}  Parked tasks are ordered by the triple
    [(time, tenant id, seqno)] where time is integer fixed point in
    units of 2{^-16} ns (the attribution ledger's tick — see
    [Clock.advance]'s validation) and seqno is the global submission
    counter.  The interleaving is a pure function of the tasks' clock
    movements, so identical seeds replay byte-identically.

    {b Task-local context.}  A parked task stores its trace span
    context and its attribution ledger's function, site and tenant;
    they are reinstalled when it resumes, so a resumed task's spans,
    stall charges and net submissions land under its own tenant.  A
    freshly started task starts with no trace context and keeps the
    ledger context it finds.

    {b Single-tenant identity.}  With at most one live task the clocks
    never yield and all float time arithmetic is untouched: a 1-tenant
    scheduled run is bit-identical to the pre-scheduler serialized
    clock. *)

type event = Clock.event =
  | Net_completion of int
  | Cache_fill
  | Fence
  | Timer

type t

val create : ?attribution:Mira_telemetry.Attribution.t -> unit -> t
(** [attribution] is the ledger whose context (function, site, tenant)
    a task keeps across parks (default: a fresh one). *)

val clock : t -> tenant:int -> Clock.t
(** The tenant's clock view, created and attached on first use.
    Clocks handed out before {!run} (setup), after it returns, or in a
    run with a single live task behave exactly like free-running
    clocks. *)

val live : t -> int
(** Spawned tasks that have not yet returned.  A telemetry sampler
    task loops while [live t > 1] — i.e. while any task other than
    itself is still running. *)

val spawn : ?at_ns:float -> t -> tenant:int -> (unit -> unit) -> unit
(** Register a task for [tenant], runnable at [at_ns] (default: the
    tenant clock's current time).  Tasks may spawn further tasks while
    running. *)

val run : t -> unit
(** Dispatch until no task is runnable.  Raises [Invalid_argument] on
    re-entry.  Exceptions escaping a task abort the run and propagate. *)

val dispatched : t -> int
(** Total dispatches (task starts + resumes, counting the steps
    continued in place) — a determinism fingerprint for tests. *)

val block_counts : t -> (string * int) list
(** Yields per typed-event kind ([cache_fill], [fence],
    [net_completion], [timer]), sorted by name. *)

val publish : t -> Mira_telemetry.Metrics.t -> unit
(** Export [sched.tenants], [sched.dispatched] and per-kind
    [sched.block.<event>] counters. *)

val reset_stats : t -> unit
(** Zero [dispatched] and the per-kind block counters without touching
    clocks or parked tasks (the runtime's [reset_timing] hook). *)
