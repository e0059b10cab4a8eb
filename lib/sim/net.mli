(** Analytical RDMA-like network between the compute node and the
    far-memory node, redesigned as an {e asynchronous data plane}.

    Callers build typed requests ([Request.t]), post them to a
    submission queue ([submit]), and reap each typed completion by id
    with [await].  The data plane adds three
    orthogonal mechanisms on top of the original analytical link model:

    - a {b bounded in-flight window}: at most [window] transfers may be
      outstanding at any simulated instant; excess requests wait for a
      completion slot before they touch the wire (window [0] =
      unbounded, the legacy behaviour);
    - {b doorbell batching}: with [coalesce] on, adjacent
      same-direction/side/purpose submissions merge into one posted
      message (a single doorbell ring, a single round trip carrying the
      combined payload) — subsequent members of a batch cost zero local
      CPU to post;
    - {b fault injection}: a seeded, deterministic drop/delay model
      with per-request timeouts, bounded retries and exponential
      backoff, so transfers degrade gracefully (and observably) instead
      of hanging the simulation.

    The timing model underneath is unchanged: a fixed round-trip
    latency per message, payload serialization on a shared link of
    finite bandwidth (concurrent transfers overlap latency but queue on
    the wire), and local CPU time per posted doorbell.  Two-sided
    messages pay a higher base latency plus a per-byte far-node copy
    but may carry exactly the bytes requested.

    With the default configuration ([dp_default]: unbounded window, no
    coalescing, no faults) the data plane is bit-identical to the
    original blocking fetch/push model.  Every caller — the cache
    sections, the swap section, [Rpc], the baselines, the tests —
    posts typed requests with [submit] and reaps them with [await]
    (or marks them [detached]).  A blocking read is simply
    [submit ~urgent:true] + [await] + a clock wait until [done_at].
    The configuration is fixed at [create].

    Each submission is stamped with the context tenant of the
    attribution ledger the net shares with its runtime; a gated post
    records the tenants holding the window ([completion.holders]), and
    the ledger splits the resulting queue stall over them. *)

type side = One_sided | Two_sided

type purpose = Demand | Prefetch | Writeback | Rpc
(** Why the transfer happened; kept per-purpose in the statistics so
    the amplification and traffic figures can be produced. *)

(** {1 Requests} *)

module Request : sig
  type dir = Read | Write  (** [Read] = far->local, [Write] = local->far *)

  type t = {
    dir : dir;
    side : side;
    purpose : purpose;
    bytes : int;
    node : int;
        (** far node the transfer targets (default 0); per-node outage
            windows ([set_node_down]) only stall requests aimed at that
            node, and batching never coalesces across nodes *)
    ctx : Mira_telemetry.Trace.span_ctx option;
        (** causal span context of the access that issued the request;
            rides through submit/ring/post/await (including
            retries, coalescing and [fail_inflight] retargeting) so the
            reaped completion emits a member span tied to its trace.
            [None] (the default) emits nothing. *)
  }

  val read :
    ?node:int -> ?ctx:Mira_telemetry.Trace.span_ctx -> side:side -> purpose:purpose -> int -> t
  (** [read ~side ~purpose bytes] — an inbound transfer request. *)

  val write :
    ?node:int -> ?ctx:Mira_telemetry.Trace.span_ctx -> side:side -> purpose:purpose -> int -> t
  (** [write ~side ~purpose bytes] — an outbound transfer request. *)
end

(** {1 Fault injection} *)

module Fault : sig
  type t = {
    seed : int;  (** RNG seed; same seed => same drops/delays *)
    drop_prob : float;  (** probability an attempt is lost on the wire *)
    delay_prob : float;  (** probability a surviving attempt is delayed *)
    delay_ns : float;  (** extra latency charged when delayed *)
    timeout_ns : float;  (** default loss-detection timer per attempt *)
    backoff_ns : float;
        (** base retry backoff; attempt [k] (1-based) waits
            [backoff_ns * 2^(k-1)] after its timeout fires *)
    max_retries : int;  (** retries after the first attempt *)
  }

  val default : t
  (** No drops or delays, but sane timeout/backoff/retry settings to
      tweak from ([timeout_ns = 50_000], [backoff_ns = 2_000],
      [max_retries = 3]). *)

  val validate : t -> unit
  (** Raises [Invalid_argument] with a descriptive message when the
      configuration is unusable: NaN or out-of-range probabilities,
      negative [delay_ns], non-positive [timeout_ns]/[backoff_ns], or
      [max_retries < 0].  Called by [create]. *)
end

type dp_config = {
  window : int;  (** max in-flight posted messages; [0] = unbounded *)
  coalesce : bool;
      (** doorbell batching of adjacent submissions, at most 16 requests
          per message *)
  fault : Fault.t option;  (** [None] = perfectly reliable link *)
}

val dp_default : dp_config
(** Unbounded window, no coalescing, no faults: bit-identical to the
    pre-dataplane synchronous model. *)

(** {1 Completions} *)

type status =
  | Done  (** data transferred (possibly after retries) *)
  | Timed_out
      (** dropped on every attempt; the requester gave up cleanly after
          [max_retries] retries.  [done_at] is the final detection
          time. *)
  | Node_down
      (** the far node crashed: the request was in flight when the node
          died ([fail_inflight]) or was posted during a declared outage
          ([set_node_down]).  Never conflated with [Timed_out] — a timeout
          is a lossy link with a live node; [Node_down] is a dead
          node.  [done_at] is the failure-detection time. *)

type completion = {
  id : int;
  req : Request.t;
  submitted_at : float;  (** when [submit] accepted the request *)
  done_at : float;  (** completion (or final failure-detection) time *)
  attempts : int;  (** 1 + retries actually performed *)
  status : status;
  coalesced : bool;  (** rode a shared doorbell with other requests *)
  wire_ns : float;
      (** the successful attempt's start-to-done span (wire occupancy +
          propagation + any fault-injected delay); [0] on failure *)
  queue_ns : float;
      (** time queued before the successful attempt: doorbell
          batching, in-flight window gating, and link backlog *)
  retry_ns : float;
      (** loss-detection timeouts plus retransmission backoff of
          failed attempts.  The three parts telescope exactly:
          [wire_ns + queue_ns + retry_ns = done_at - submitted_at]
          (for [Node_down], [retry_ns] is the detection timer). *)
  holders : (int * int) list;
      (** [(tenant, in-flight slots)] held when this post found the
          in-flight window full, tenant-sorted; empty when the window
          never gated the post.  The queue stall observed at the await
          site is charged pro-rata against these tenants in the
          attribution ledger's interference matrix
          ([Mira_telemetry.Attribution.interference_cells]). *)
}

type sqe = {
  id : int;  (** completion-queue key for [await] *)
  issue_cpu_ns : float;
      (** local CPU consumed posting (0 when merged into an already-open
          batch; the caller advances its clock by this) *)
}

(** {1 Statistics} *)

type stats = {
  mutable msg_count : int;  (** posted wire messages (incl. retries) *)
  mutable bytes_in : int;  (** far -> local *)
  mutable bytes_out : int;  (** local -> far *)
  mutable bytes_demand : int;
  mutable bytes_prefetch : int;
  mutable bytes_writeback : int;
  mutable bytes_rpc : int;
  mutable doorbells : int;  (** doorbell rings (coalesced batches = 1) *)
  mutable coalesced : int;  (** requests that rode a shared doorbell *)
  mutable retries : int;  (** retransmissions after a detected loss *)
  mutable timeouts : int;  (** requests failed after bounded retries *)
  mutable node_down : int;  (** requests failed by a far-node crash
                                (never counted as timeouts) *)
  lat_fetch : Mira_telemetry.Metrics.hist;
      (** caller-observed latency (incl. link queueing and retries) of
          inbound transfers *)
  lat_rtt : Mira_telemetry.Metrics.hist;
      (** pure wire+latency round trip, excl. queueing, all transfers *)
  lat_attempt : Mira_telemetry.Metrics.hist;
      (** per-attempt latency (timeouts contribute the timer value) *)
  occupancy : Mira_telemetry.Metrics.hist;
      (** in-flight window occupancy sampled at each doorbell *)
}

type t

val create :
  ?dp:dp_config -> ?attribution:Mira_telemetry.Attribution.t -> Params.t -> t
(** [attribution] is the ledger whose context tenant stamps each
    submission (default: a fresh one, tenant [-1]).  Raises
    [Invalid_argument] when [dp.fault] fails [Fault.validate]. *)

val params : t -> Params.t
val stats : t -> stats
val reset_stats : t -> unit

val dataplane : t -> dp_config

val publish : t -> Mira_telemetry.Metrics.t -> unit
(** Export counters and latency histograms under [net.*] (including
    [net.inflight], [net.coalesced], [net.retries], [net.timeouts]). *)

(** {1 The asynchronous data plane} *)

val submit : t -> now:float -> ?urgent:bool -> ?detached:bool -> Request.t -> sqe
(** Post a request to the submission queue.

    [urgent] (default false) bypasses batching, posts immediately, and
    pays the full synchronous doorbell cost ([msg_cpu_ns]) — the fast
    synchronous path for blocking demand misses.  Non-urgent requests
    pay the batched doorbell cost ([async_post_ns]) and, when
    coalescing is enabled, may merge with adjacent same-kind requests
    (merged members cost zero CPU to post).

    [detached] (default false) marks a fire-and-forget request: it is
    fully accounted (statistics, link occupancy, [fence]) but produces
    no completion-queue entry.  Every other request must be reaped
    with [await] exactly once; the net keeps nothing for it after
    that, so a run of submit+await pairs holds constant memory.

    A pending batch is posted — its doorbell rings — when a different
    kind of request is submitted, when it reaches 16 requests,
    or on [ring]/[await]/[fence]. *)

val ring : t -> now:float -> unit
(** Ring the doorbell: post any pending batch at time [now].  No-op if
    nothing is pending. *)

val await : t -> now:float -> id:int -> completion
(** Reap the completion for [id] regardless of its [done_at] — the
    blocking path: the caller then advances its clock to [done_at].
    Rings the doorbell first.  Raises [Invalid_argument] for unknown or
    detached ids. *)

val fence : ?dir:Request.dir -> t -> now:float -> float
(** Time at which every transfer submitted so far (restricted to
    direction [dir] if given) has completed; at least [now].  Rings the
    doorbell first.  [fence ~dir:Write] is the writeback flush barrier
    used before RPCs and after failover recovery. *)

val in_flight : t -> now:float -> int
(** Posted messages not yet complete at [now] (testing/telemetry). *)

(** {1 Node failures} *)

val fail_inflight : t -> now:float -> int
(** The far node crashed at [now]: every transfer still in flight
    fails immediately.  Unreaped completions that had not landed become
    [Node_down] with [done_at = now] (crash detection is the failover
    notification, not a per-request timer), the in-flight window
    drains, and the link goes idle.  Rings the doorbell first.  Returns
    the number of reapable requests failed; [net.node_down] counts
    them, never [net.timeouts]. *)

val set_node_down : t -> node:int -> until:float -> unit
(** Declare one far node unreachable until [until]: messages whose
    [Request.node] targets it, posted before that instant, complete as
    [Node_down] after the loss-detection timer (the fault model's
    [timeout_ns], or one RTT without faults) without touching the
    wire; traffic to live nodes is unaffected.  Windows for distinct
    nodes are independent and cleared by [reset_link]. *)

val reset_link : t -> unit
(** Forget link occupancy and all queue state (between independent
    simulated runs). *)
