(** Chrome [trace_event]-format trace sink.

    A process-wide collector, disabled by default.  When enabled,
    instrumented layers ([Mira_sim.Net] transfers, cache-section demand
    fetches, controller phases and decisions) push events tagged with
    simulated-nanosecond timestamps and a [lane] — rendered as the
    trace's thread, so each section / the network / the controller get
    their own row in [chrome://tracing] or Perfetto.

    Beyond flat [Complete]/[Instant] events, the sink records causal
    spans, each stored whole as one [span] record: a trace id, a span
    id, an optional parent span id, begin and end times, and optionally
    the lane a flow arrow into the span starts on (net member spans
    draw one from the requesting layer; for asynchronous causality
    such as prefetch or detached writeback the arrow is the only link,
    with no parent).  [to_jsonl]
    alone renders a span as Chrome async begin/end events
    ([ph:"b"]/[ph:"e"]), preceded and followed by a flow arrow
    ([ph:"s"]/[ph:"f"]) when it has a flow source.  A [span_ctx] is the
    propagation record: the runtime mints one per traced access and
    layers forward it (the net layer carries it inside the request
    record), so one far-memory access renders as a parent→child tree
    across lanes.

    Hot paths must guard event construction with [enabled ()]; when the
    sink is disabled that is the only cost (one bool read, zero
    simulated time).  The buffer is capped in rendered events
    ([set_limit], default 200_000): a span counts the two or four lines
    it renders as and is admitted or dropped whole, so the buffer never
    holds half a span.  Events beyond the cap are dropped and counted.
    [controller]-category events survive past the main cap so decision
    history is retained on trace-heavy runs, but under their own
    generous cap ([set_ctrl_limit], default 20_000) — overflow beyond
    that is counted in [dropped] like everything else. *)

type phase = Complete | Instant

type event = {
  ev_name : string;
  ev_cat : string;  (** e.g. ["net"], ["cache"], ["controller"] *)
  ev_phase : phase;
  ev_ts_ns : float;  (** simulated time *)
  ev_dur_ns : float;  (** [Complete] only; 0 otherwise *)
  ev_lane : string;
  ev_args : (string * Json.t) list;
}

type span = {
  sp_name : string;
  sp_cat : string;
  sp_lane : string;
  sp_trace : int;  (** trace id, nonzero *)
  sp_id : int;  (** span id, nonzero *)
  sp_parent : int;
      (** containing span's id; 0 = root or flow-linked.  A nonzero
          parent asserts containment within that span. *)
  sp_begin_ns : float;  (** simulated time *)
  sp_end_ns : float;
  sp_args : (string * Json.t) list;
  sp_flow_from : string option;
      (** lane a flow arrow into this span starts on, if any *)
}

type span_ctx = {
  sc_trace : int;  (** trace id: one per traced access *)
  sc_span : int;  (** the parent span's id *)
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
(** Buffer cap in rendered events; records beyond it are dropped whole
    (controller category gets its own headroom, see
    [set_ctrl_limit]). *)

val set_ctrl_limit : int -> unit
(** Cap on controller events admitted after the main buffer is full. *)

val dropped : unit -> int
(** Rendered events dropped at the cap. *)

val count : unit -> int
(** Rendered events buffered: what [to_jsonl] writes between its lane
    and summary records. *)

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
(** Record a flat [ph:"X"] span.  No-op when disabled. *)

val instant :
  ?args:(string * Json.t) list ->
  name:string -> cat:string -> lane:string -> ts_ns:float -> unit -> unit

val span :
  ?args:(string * Json.t) list ->
  ?parent:int ->
  ?flow_from:string ->
  name:string -> cat:string -> lane:string -> trace:int -> span:int ->
  begin_ns:float -> end_ns:float -> unit -> unit
(** Record one causal span whole.  [parent = 0] (default) marks a root
    or a flow-linked span; [flow_from] draws a flow arrow from that lane
    into the span.  No-op when disabled. *)

val events : unit -> event list
(** Buffered flat events, oldest first. *)

val spans : unit -> span list
(** Buffered spans, oldest first. *)

val to_jsonl : unit -> string
(** The buffered trace as JSONL: one [thread_name] metadata record per
    lane, then one event per line (a span's [b]/[e] and [s]/[f] lines
    appear only here), and a final [mira_trace_summary] metadata record
    carrying the event and drop counts.  Loadable by Perfetto and
    [chrome://tracing] (after wrapping in a JSON array; see
    docs/OBSERVABILITY.md). *)
