(** Chrome [trace_event]-format trace sink.

    A process-wide collector, disabled by default.  When enabled,
    instrumented layers ([Mira_sim.Net] transfers, cache-section demand
    fetches, controller phases and decisions) push events tagged with
    simulated-nanosecond timestamps and a [lane] — rendered as the
    trace's thread, so each section / the network / the controller get
    their own row in [chrome://tracing] or Perfetto.

    Beyond flat [Complete]/[Instant] events, the sink supports causal
    spans: async begin/end pairs ([ph:"b"]/[ph:"e"]) carrying a trace
    id, a span id, and an optional parent span id, plus flow arrows
    ([ph:"s"]/[ph:"f"]) for asynchronous causality that must not imply
    nesting (prefetch, detached writeback).  A [span_ctx] is the
    propagation record: the runtime mints one per traced access and
    layers forward it (the net layer carries it inside the request
    record), so one far-memory access renders as a parent→child tree
    across lanes.

    Hot paths must guard event construction with [enabled ()]; when the
    sink is disabled that is the only cost (one bool read, zero
    simulated time).  The buffer is capped ([set_limit], default
    200_000 events): once full, further events are dropped and counted.
    [controller]-category events survive past the main cap so decision
    history is retained on trace-heavy runs, but under their own
    generous cap ([set_ctrl_limit], default 20_000) — overflow beyond
    that is counted in [dropped] like everything else. *)

type phase = Complete | Instant | Begin | End | Flow_start | Flow_end

type event = {
  ev_name : string;
  ev_cat : string;  (** e.g. ["net"], ["cache"], ["controller"] *)
  ev_phase : phase;
  ev_ts_ns : float;  (** simulated time *)
  ev_dur_ns : float;  (** [Complete] only; 0 otherwise *)
  ev_lane : string;
  ev_trace : int;  (** [Begin]/[End]/flows; 0 = none *)
  ev_span : int;  (** span id ([Begin]/[End]) or flow id; 0 = none *)
  ev_parent : int;  (** [Begin] only; 0 = root or flow-linked *)
  ev_args : (string * Json.t) list;
}

type span_ctx = {
  sc_trace : int;  (** trace id: one per traced access *)
  sc_span : int;  (** the parent span's id *)
  sc_site : int;  (** MIR site id of the deref, or -1 *)
  sc_lane : string;  (** parent span's lane (flow arrows start there) *)
  sc_flow : bool;
      (** asynchronous causality: children link with flow arrows only
          and carry no nesting parent *)
}

val enable : unit -> unit
(** Also clears any previously buffered events and resets id
    counters. *)

val disable : unit -> unit
val enabled : unit -> bool
val clear : unit -> unit

val set_limit : int -> unit
(** Buffer cap; events beyond it are dropped (controller category gets
    its own headroom, see [set_ctrl_limit]). *)

val set_ctrl_limit : int -> unit
(** Cap on controller events admitted after the main buffer is full. *)

val dropped : unit -> int

val mark : unit -> unit -> unit
(** [mark ()] returns [rewind], which puts the sink back as it is now:
    every event buffered or dropped in between is forgotten and the
    ambient context restored.  Ids are not reused.  For a run stopped
    part-way, whose spans would reference an access span that never
    closes. *)

(** {1 Span contexts} *)

val new_trace : unit -> int
(** Fresh nonzero trace id (reset by [enable]/[clear]). *)

val new_span : unit -> int
(** Fresh nonzero span id (reset by [enable]/[clear]). *)

val current_ctx : unit -> span_ctx option
(** Ambient context of the access being executed, if any. *)

val set_ctx : span_ctx option -> unit

(** {1 Emission} *)

val complete :
  ?args:(string * Json.t) list ->
  name:string -> cat:string -> lane:string -> ts_ns:float -> dur_ns:float ->
  unit -> unit
(** Record a span.  No-op when disabled. *)

val instant :
  ?args:(string * Json.t) list ->
  name:string -> cat:string -> lane:string -> ts_ns:float -> unit -> unit

val begin_span :
  ?args:(string * Json.t) list ->
  ?parent:int ->
  name:string -> cat:string -> lane:string -> ts_ns:float -> trace:int ->
  span:int -> unit -> unit
(** Async span open.  [parent = 0] (default) marks a root or a
    flow-linked span; a nonzero parent asserts containment within that
    span. *)

val end_span :
  ?args:(string * Json.t) list ->
  name:string -> cat:string -> lane:string -> ts_ns:float -> trace:int ->
  span:int -> unit -> unit
(** Async span close; must pair with a [begin_span] of the same
    [span] id. *)

val flow_start :
  name:string -> cat:string -> lane:string -> ts_ns:float -> trace:int ->
  id:int -> unit -> unit
(** Flow arrow tail.  [id] is the target span's id; the matching
    [flow_end] binds the head to that span. *)

val flow_end :
  name:string -> cat:string -> lane:string -> ts_ns:float -> trace:int ->
  id:int -> unit -> unit

val events : unit -> event list
(** Buffered events, oldest first. *)

val to_jsonl : unit -> string
(** The buffered trace as JSONL: one [thread_name] metadata record per
    lane, then one event per line, and a final [mira_trace_summary]
    metadata record carrying the drop count.  Loadable by Perfetto and
    [chrome://tracing] (after wrapping in a JSON array; see
    docs/OBSERVABILITY.md). *)
