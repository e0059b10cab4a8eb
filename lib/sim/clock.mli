(** Simulated time.

    One clock per executing tenant/thread.  Time is a float number of
    nanoseconds since simulation start; it only moves forward.

    A clock is either free-running (the historical behaviour: the
    single serialized app thread owns time) or a {e per-tenant view}
    over the discrete-event scheduler ([Sched]): the scheduler installs
    an {!set_observer} hook, and every time this clock moves forward
    the owning task yields so other tenants with earlier clocks run
    first.  The float arithmetic below is byte-for-byte the same in
    both modes — a one-tenant scheduled run is bit-identical to the
    pre-scheduler serialized clock.

    The scheduler orders clocks on an integer fixed-point key in units of
    2{^-16} ns ("ticks", the same fixed point as the attribution
    ledger); the float here remains the source of truth for all time
    arithmetic, ticks are only an exact total order for the event
    queue. *)

type event =
  | Net_completion of int
      (** blocked awaiting the network completion with this sqe id *)
  | Cache_fill  (** blocked on a cache-line/page fill (incl. late prefetch) *)
  | Fence  (** blocked draining a write fence / ordering barrier *)
  | Timer  (** plain time passage: compute, arrival timers, backoff *)
(** Why a clock moved: the typed blocking events tasks suspend on.
    Purely informational for free-running clocks; the scheduler counts
    and exposes them per kind. *)

val event_name : event -> string

type t

val create : unit -> t
(** A free-running clock at time 0. *)

val now : t -> float
(** Current simulated time in nanoseconds. *)

val reached : t -> float -> bool
(** [reached t at] is [now t >= at]. *)

val mark : t -> unit
val since_mark : t -> float
(** How far the clock moved since the last {!mark}.  Like {!reached},
    no time crosses the call, so nothing is boxed where not inlined. *)

exception Past_limit
(** Raised by the stall that takes a clock past its {!set_limit}. *)

val set_limit : t -> float -> unit
(** [set_limit t l] makes the first stall ({!wait_until} or
    {!wait_event}) that ends past [l] ns raise [Past_limit], after the
    clock has moved; a stall to exactly [l] does not.  {!advance} is
    not checked, so compute costs nothing more: a clock it takes past
    [l] raises at its next stall.  [infinity], the initial limit, sets
    none.  The controller uses it to stop a run that has already lost,
    and a losing run loses on stalls. *)

val advance : t -> float -> unit
(** [advance t dt] moves time forward by [dt] ns and calls the observer
    once, with [Timer]; +0.0 does nothing.  Raises [Invalid_argument]
    when [dt] is NaN, negative or negative zero: deltas that would
    corrupt the monotonic time base the stall ledger audits against. *)

val wait_until : ?ev:event -> t -> float -> float
(** [wait_until t deadline] advances to [deadline] if it is in the
    future and returns the stall time (0 if the deadline has passed).
    [ev] (default [Timer]) names what the caller is blocked on; under
    the scheduler it is the typed event the task suspends on. *)

val wait_event : t -> ev:event -> float -> float
(** [wait_until] with a mandatory event kind (the migrated data-path
    call sites: net completions, cache fills, fences).  Both raise
    [Past_limit] when the deadline is past the clock's limit. *)

val stalled_ns : t -> float
(** Total time this clock has spent in [wait_until] stalls since
    creation or the last [reset] — the audit-side total the stall
    attribution ledger is checked against. *)

val reset : t -> unit
(** Set time back to 0, clear the stall accumulator and the limit
    (between independent runs).  The scheduler hook, if any, is kept. *)

val set_observer : t -> (event -> unit) option -> unit
(** Install (or clear) the movement hook: called with the event kind
    after every forward move (the hook reads the new time with {!now}).
    Reserved for [Sched]
    — the hook is how a tenant task yields; user code should never
    need it. *)
