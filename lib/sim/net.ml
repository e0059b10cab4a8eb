module Metrics = Mira_telemetry.Metrics
module Trace = Mira_telemetry.Trace

type side = One_sided | Two_sided
type purpose = Demand | Prefetch | Writeback | Rpc

let purpose_name = function
  | Demand -> "demand"
  | Prefetch -> "prefetch"
  | Writeback -> "writeback"
  | Rpc -> "rpc"

module Request = struct
  type dir = Read | Write

  type t = {
    dir : dir;
    side : side;
    purpose : purpose;
    bytes : int;
    node : int;
        (* far node the transfer targets; per-node outage windows
           ([set_node_down]) only stall requests aimed at that node *)
    ctx : Trace.span_ctx option;
        (* causal origin: rides through submit/ring/post/await so
           the reaped completion can be attributed to its access *)
  }

  let make ?(node = 0) ?ctx ~dir ~side ~purpose bytes =
    assert (bytes > 0);
    { dir; side; purpose; bytes; node; ctx }

  let read ?node ?ctx ~side ~purpose bytes = make ?node ?ctx ~dir:Read ~side ~purpose bytes
  let write ?node ?ctx ~side ~purpose bytes = make ?node ?ctx ~dir:Write ~side ~purpose bytes
end

let ctx_trace (req : Request.t) =
  match req.Request.ctx with Some c -> c.Trace.sc_trace | None -> 0

module Fault = struct
  type t = {
    seed : int;
    drop_prob : float;
    delay_prob : float;
    delay_ns : float;
    timeout_ns : float;
    backoff_ns : float;
    max_retries : int;
  }

  let default =
    {
      seed = 1;
      drop_prob = 0.0;
      delay_prob = 0.0;
      delay_ns = 0.0;
      timeout_ns = 50_000.0;
      backoff_ns = 2_000.0;
      max_retries = 3;
    }

  (* Reject configurations that would make the retry machinery silently
     misbehave (NaN probabilities never compare true, a zero timeout
     spins, a negative backoff travels back in time). *)
  let validate f =
    let bad fmt = Printf.ksprintf invalid_arg fmt in
    let check_prob name p =
      if Float.is_nan p || p < 0.0 || p > 1.0 then
        bad "Net.Fault: %s must be a probability in [0, 1] (got %g)" name p
    in
    check_prob "drop_prob" f.drop_prob;
    check_prob "delay_prob" f.delay_prob;
    if Float.is_nan f.delay_ns || f.delay_ns < 0.0 then
      bad "Net.Fault: delay_ns must be >= 0 (got %g)" f.delay_ns;
    if Float.is_nan f.timeout_ns || f.timeout_ns <= 0.0 then
      bad "Net.Fault: timeout_ns must be > 0 (got %g)" f.timeout_ns;
    if Float.is_nan f.backoff_ns || f.backoff_ns <= 0.0 then
      bad "Net.Fault: backoff_ns must be > 0 (got %g)" f.backoff_ns;
    if f.max_retries < 0 then
      bad "Net.Fault: max_retries must be >= 0 (got %d)" f.max_retries

  (* Deterministic per-(seed, request, attempt, salt) uniform sample:
     splitmix64-style finalizer, purely functional so a fixed seed
     reproduces the exact same fault schedule on every run. *)
  let mix z =
    let open Int64 in
    let z = mul (logxor z (shift_right_logical z 33)) 0xff51afd7ed558ccdL in
    let z = mul (logxor z (shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L in
    logxor z (shift_right_logical z 33)

  let u01 t ~id ~attempt ~salt =
    let open Int64 in
    let z = mix (add (of_int t.seed) 0x9E3779B97F4A7C15L) in
    let z = mix (logxor z (of_int id)) in
    let z = mix (logxor z (of_int ((attempt * 0x10001) + salt))) in
    to_float (shift_right_logical z 11) /. 9007199254740992.0
end

type dp_config = { window : int; coalesce : bool; fault : Fault.t option }

let dp_default = { window = 0; coalesce = false; fault = None }

(* Most requests one doorbell-batched message carries. *)
let coalesce_limit = 16

type status = Done | Timed_out | Node_down

type completion = {
  id : int;
  req : Request.t;
  submitted_at : float;
  done_at : float;
  attempts : int;
  status : status;
  coalesced : bool;
  wire_ns : float;  (* successful attempt's wire + propagation time *)
  queue_ns : float;  (* batching + window gating + link queueing *)
  retry_ns : float;  (* loss-detection timeouts + retransmit backoff *)
  holders : (int * int) list;
      (* (tenant, in-flight slots) held when this post found the window
         full — the tenants the queue stall is charged against in the
         interference matrix; empty when the window never gated *)
}

type sqe = { id : int; issue_cpu_ns : float }

let status_name = function
  | Done -> "done"
  | Timed_out -> "timed_out"
  | Node_down -> "node_down"

(* One per-member causal span, emitted when the completion's final
   timing is known: at reap time ([await]) for reapable requests —
   after any [fail_inflight] retargeting — and at post time for
   detached ones.  The span covers submitted_at..done_at on the net
   lane; a flow arrow links it back to the requesting span's lane.
   Synchronous requests nest under the requester ([parent]); [sc_flow]
   contexts (prefetch, detached writeback) are flow-linked only so the
   parent-containment invariant stays strict. *)
let emit_member_span (c : completion) =
  if Trace.enabled () then
    match c.req.Request.ctx with
    | None -> ()
    | Some ctx ->
      let module J = Mira_telemetry.Json in
      let span = Trace.new_span () in
      let parent = if ctx.Trace.sc_flow then 0 else ctx.Trace.sc_span in
      let name = purpose_name c.req.Request.purpose in
      let trace = ctx.Trace.sc_trace in
      let args =
        [
          ("bytes", J.Int c.req.Request.bytes);
          ("status", J.Str (status_name c.status));
          ("attempts", J.Int c.attempts);
          ("coalesced", J.Bool c.coalesced);
          ("queue_ns", J.Float c.queue_ns);
          ("wire_ns", J.Float c.wire_ns);
          ("retry_ns", J.Float c.retry_ns);
        ]
      in
      Trace.span ~name ~cat:"net" ~lane:"net" ~flow_from:ctx.Trace.sc_lane
        ~trace ~span ~parent ~begin_ns:c.submitted_at ~end_ns:c.done_at ~args
        ()

type stats = {
  mutable msg_count : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable bytes_demand : int;
  mutable bytes_prefetch : int;
  mutable bytes_writeback : int;
  mutable bytes_rpc : int;
  mutable doorbells : int;
  mutable coalesced : int;
  mutable retries : int;
  mutable timeouts : int;
  mutable node_down : int;
  lat_fetch : Metrics.hist;
  lat_rtt : Metrics.hist;
  lat_attempt : Metrics.hist;
  occupancy : Metrics.hist;
}

(* One un-rung doorbell batch: same-kind submissions buffered in
   submission order (members kept newest-first). *)
type batch = {
  key : Request.dir * side * purpose * int;  (* ... * target node *)
  mutable members : (int * Request.t * float * bool * int) list;
      (* id, request, submitted_at, detached, submitting tenant *)
}

(* The attempt sequence of the message being posted, set in place by
   [run_attempts]: all floats, stored flat, so a post boxes none. *)
type attempt = {
  mutable first : float;  (* the first attempt's wire start *)
  mutable start : float;  (* the current attempt's wire start *)
  mutable done_at : float;  (* its done time, or the final detect time *)
  mutable wire : float;  (* the successful attempt's start-to-done span *)
  mutable retry : float;  (* loss-detection windows + retransmit backoffs *)
}

module Heap = Mira_util.Min_heap

(* Heap orderings.  Both tolerate ties (tie order is irrelevant:
   retirement, counting and fencing are set operations). *)
let le_done (a, _, _) (b, _, _) = (a : float) <= b
let le_gate (a : float) b = a <= b

(* Ids are issued in sequence: hashed by identity, not the generic hash. *)
module Ids = Hashtbl.Make (struct type t = int let equal = Int.equal let hash = Fun.id end)

type t = {
  params : Params.t;
  dp : dp_config;
  mutable link_free_at : float;
  mutable next_id : int;
  inflight : (float * Request.dir * int) Heap.t;
      (* (done_at, dir, tenant) of every posted message not yet
         known-complete, min-keyed by done_at so retirement pops
         instead of filtering; the tenant stamp feeds window-holder
         snapshots for the interference matrix *)
  window_q : float Heap.t;
      (* the largest min(n, window) in-flight done_ats (maintained only
         when a window is configured).  Invariant: every in-flight
         done_at outside this heap is <= its minimum, so the window
         gate is its O(1) top — see gate_time *)
  cq_tbl : completion Ids.t;
      (* unreaped completions by id; [await] removes its entry *)
  mutable pending : batch option;
  att : attempt;
  mutable attempts : int;  (* [run_attempts]' attempt count *)
  node_down_until : (int, float) Hashtbl.t;
      (* per-node outage windows: messages posted to that node before
         its instant fail with [Node_down] after the loss-detection
         timer *)
  stats : stats;
  ledger : Mira_telemetry.Attribution.t;
      (* shared with the runtime: its context tenant stamps submissions *)
}

let empty_stats () =
  {
    msg_count = 0;
    bytes_in = 0;
    bytes_out = 0;
    bytes_demand = 0;
    bytes_prefetch = 0;
    bytes_writeback = 0;
    bytes_rpc = 0;
    doorbells = 0;
    coalesced = 0;
    retries = 0;
    timeouts = 0;
    node_down = 0;
    lat_fetch = Metrics.hist_create ();
    lat_rtt = Metrics.hist_create ();
    lat_attempt = Metrics.hist_create ();
    occupancy = Metrics.hist_create ();
  }

let create ?(dp = dp_default) ?(attribution = Mira_telemetry.Attribution.create ())
    params =
  (match dp.fault with Some f -> Fault.validate f | None -> ());
  {
    params;
    dp;
    link_free_at = 0.0;
    next_id = 0;
    inflight = Heap.create ~le:le_done;
    window_q = Heap.create ~le:le_gate;
    cq_tbl = Ids.create 64;
    pending = None;
    att = { first = 0.0; start = 0.0; done_at = 0.0; wire = 0.0; retry = 0.0 };
    attempts = 0;
    node_down_until = Hashtbl.create 8;
    stats = empty_stats ();
    ledger = attribution;
  }

let params t = t.params
let stats t = t.stats
let dataplane t = t.dp
let reset_stats t =
  let s = t.stats in
  s.msg_count <- 0;
  s.bytes_in <- 0;
  s.bytes_out <- 0;
  s.bytes_demand <- 0;
  s.bytes_prefetch <- 0;
  s.bytes_writeback <- 0;
  s.bytes_rpc <- 0;
  s.doorbells <- 0;
  s.coalesced <- 0;
  s.retries <- 0;
  s.timeouts <- 0;
  s.node_down <- 0;
  Metrics.hist_reset s.lat_fetch;
  Metrics.hist_reset s.lat_rtt;
  Metrics.hist_reset s.lat_attempt;
  Metrics.hist_reset s.occupancy

let reset_link t =
  t.link_free_at <- 0.0;
  t.next_id <- 0;
  Heap.clear t.inflight;
  Heap.clear t.window_q;
  Ids.reset t.cq_tbl;
  t.pending <- None;
  Hashtbl.reset t.node_down_until

let publish t reg =
  let s = t.stats in
  Metrics.set_counter reg "net.msg_count" s.msg_count;
  Metrics.set_counter reg "net.bytes_in" s.bytes_in;
  Metrics.set_counter reg "net.bytes_out" s.bytes_out;
  Metrics.set_counter reg "net.bytes_demand" s.bytes_demand;
  Metrics.set_counter reg "net.bytes_prefetch" s.bytes_prefetch;
  Metrics.set_counter reg "net.bytes_writeback" s.bytes_writeback;
  Metrics.set_counter reg "net.bytes_rpc" s.bytes_rpc;
  Metrics.set_counter reg "net.doorbells" s.doorbells;
  Metrics.set_counter reg "net.coalesced" s.coalesced;
  Metrics.set_counter reg "net.retries" s.retries;
  Metrics.set_counter reg "net.timeouts" s.timeouts;
  Metrics.set_counter reg "net.node_down" s.node_down;
  Metrics.set_hist reg "net.fetch_latency" s.lat_fetch;
  Metrics.set_hist reg "net.rtt" s.lat_rtt;
  Metrics.set_hist reg "net.attempt_latency" s.lat_attempt;
  Metrics.set_hist reg "net.inflight" s.occupancy

let record t ~purpose ~inbound bytes =
  let s = t.stats in
  s.msg_count <- s.msg_count + 1;
  if inbound then s.bytes_in <- s.bytes_in + bytes
  else s.bytes_out <- s.bytes_out + bytes;
  match purpose with
  | Demand -> s.bytes_demand <- s.bytes_demand + bytes
  | Prefetch -> s.bytes_prefetch <- s.bytes_prefetch + bytes
  | Writeback -> s.bytes_writeback <- s.bytes_writeback + bytes
  | Rpc -> s.bytes_rpc <- s.bytes_rpc + bytes

(* --- in-flight window ---------------------------------------------------- *)

(* Drop every in-flight entry that has landed by [now] — O(log n) per
   retired entry instead of rebuilding a list.  [window_q] stays the
   top-min(n, window) of what remains: if it loses any member here,
   that member was its minimum's side of [now], and every done_at
   outside [window_q] is <= that minimum, so those are all retired by
   the same call. *)
let retire t ~now =
  while
    (not (Heap.is_empty t.inflight))
    &&
    let d, _, _ = Heap.top t.inflight in
    d <= now
  do
    ignore (Heap.pop t.inflight)
  done;
  while (not (Heap.is_empty t.window_q)) && Heap.top t.window_q <= now do
    ignore (Heap.pop t.window_q)
  done

(* Non-destructive by design: tests and telemetry probe arbitrary
   (including past) instants, so this counts rather than retires. *)
let in_flight t ~now =
  Heap.fold (fun n (d, _, _) -> if d > now then n + 1 else n) 0 t.inflight

(* Who holds window slots right now: the in-flight population grouped
   as tenant-sorted [(tenant, slots)] pairs.  Callers retire first, so
   every heap entry is live. *)
let holders_snapshot t =
  let counts = Hashtbl.create 8 in
  Heap.iter
    (fun (_, _, tn) ->
      Hashtbl.replace counts tn
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts tn)))
    t.inflight;
  Hashtbl.fold (fun tn n acc -> (tn, n) :: acc) counts [] |> List.sort compare

(* Track a newly posted message.  The bounded push keeps [window_q] the
   largest min(n, window) live done_ats, so the admission gate below
   never sorts. *)
let add_inflight t ~done_at ~dir ~tenant =
  Heap.push t.inflight (done_at, dir, tenant);
  let w = t.dp.window in
  if w > 0 then begin
    Heap.push t.window_q done_at;
    if Heap.length t.window_q > w then ignore (Heap.pop t.window_q)
  end

(* Earliest time a new message may start when the window is full: the
   moment the in-flight population drops below [window] — i.e. the
   window-th largest live done_at, which is exactly [window_q]'s O(1)
   top.  Callers retire first, so everything in the heap is live. *)
let gate_time t ~now =
  let w = t.dp.window in
  if w <= 0 || Heap.length t.window_q < w then now
  else Heap.top t.window_q

(* --- posting ------------------------------------------------------------- *)

(* One wire attempt of a whole message: occupies the link for the
   payload's serialization time (even if the message is then lost).
   Leaves its wire start and done time in [t.att]. *)
let wire_attempt t ~start ~bytes ~side ~purpose ~inbound =
  let p = t.params in
  let wire = float_of_int bytes /. p.Params.bandwidth_bytes_per_ns in
  let s = Float.max start t.link_free_at in
  t.link_free_at <- s +. wire;
  let a = t.att in
  a.start <- s;
  (match side with
  | One_sided -> a.done_at <- s +. wire +. p.Params.one_sided_rtt_ns
  | Two_sided ->
    a.done_at <-
      s +. wire +. p.Params.two_sided_rtt_ns
      +. (p.Params.remote_copy_ns_per_byte *. float_of_int bytes));
  record t ~purpose ~inbound bytes

(* Run the (possibly retried) attempt sequence for one posted message.
   Leaves in [t.att] the first wire start, the final done/detect time,
   [wire] (the successful attempt's start-to-done span, 0 on timeout)
   and [retry] (failed attempts' loss-detection windows and backoffs:
   the pieces the ledger charges per cause), and the attempt count in
   [t.attempts]; returns the status. *)
let run_attempts t ~id ~posted_at ~bytes ~side ~purpose ~inbound =
  let s = t.stats and a = t.att in
  match t.dp.fault with
  | None ->
    wire_attempt t ~start:posted_at ~bytes ~side ~purpose ~inbound;
    Metrics.hist_observe s.lat_attempt (a.done_at -. posted_at);
    a.first <- a.start;
    a.wire <- a.done_at -. a.start;
    a.retry <- 0.0;
    t.attempts <- 1;
    Done
  | Some f ->
    let rec go ~issue_at ~attempt ~retry_ns =
      wire_attempt t ~start:issue_at ~bytes ~side ~purpose ~inbound;
      if attempt = 1 then a.first <- a.start;
      t.attempts <- attempt;
      let dropped = Fault.u01 f ~id ~attempt ~salt:1 < f.Fault.drop_prob in
      if not dropped then begin
        if
          f.Fault.delay_prob > 0.0
          && Fault.u01 f ~id ~attempt ~salt:2 < f.Fault.delay_prob
        then a.done_at <- a.done_at +. f.Fault.delay_ns;
        Metrics.hist_observe s.lat_attempt (a.done_at -. issue_at);
        a.wire <- a.done_at -. a.start;
        a.retry <- retry_ns;
        Done
      end
      else begin
        let timeout = f.Fault.timeout_ns in
        Metrics.hist_observe s.lat_attempt timeout;
        let detect = issue_at +. timeout in
        if attempt > f.Fault.max_retries then begin
          s.timeouts <- s.timeouts + 1;
          a.done_at <- detect;
          a.wire <- 0.0;
          a.retry <- retry_ns +. timeout;
          Timed_out
        end
        else begin
          s.retries <- s.retries + 1;
          let backoff =
            f.Fault.backoff_ns *. (2.0 ** float_of_int (attempt - 1))
          in
          go ~issue_at:(detect +. backoff) ~attempt:(attempt + 1)
            ~retry_ns:(retry_ns +. timeout +. backoff)
        end
      end
    in
    go ~issue_at:posted_at ~attempt:1 ~retry_ns:0.0

(* The loss-detection latency for a message sent into a dead node: the
   requester's timer when faults are configured, one round trip
   otherwise. *)
let detect_ns t =
  match t.dp.fault with
  | Some f -> f.Fault.timeout_ns
  | None -> t.params.Params.one_sided_rtt_ns

(* Is [node] inside a declared outage at [at]?  While no node was ever
   declared down, no lookup. *)
let node_down_at t ~node ~at =
  Hashtbl.length t.node_down_until > 0
  &&
  match Hashtbl.find_opt t.node_down_until node with
  | Some u -> at < u
  | None -> false

(* The members of a message just posted, in submission order: a
   detached member emits its span now (and needs no completion at all
   while tracing is off); any other's completion waits for [await].
   Telescoping: done_at - submitted_at = queueing (doorbell batching +
   window gating + link backlog) + retry windows + the successful
   attempt's wire span, so the queueing residual is exact per member.
   An outage has no wire time: its loss-detection timer is retry, and
   the time buffered before the post is queueing. *)
let rec settle t ~issue_at ~coalesced ~status ~holders = function
  | [] -> ()
  | (id, req, submitted_at, detached, _) :: rest ->
    if (not detached) || Trace.enabled () then begin
      let a = t.att in
      let queue_ns =
        match status with
        | Node_down -> Float.max 0.0 (issue_at -. submitted_at)
        | Done | Timed_out ->
          Float.max 0.0 (a.done_at -. submitted_at -. a.wire -. a.retry)
      in
      let c =
        {
          id;
          req;
          submitted_at;
          done_at = a.done_at;
          attempts = t.attempts;
          status;
          coalesced;
          wire_ns = a.wire;
          retry_ns = a.retry;
          queue_ns;
          holders;
        }
      in
      if detached then emit_member_span c else Ids.replace t.cq_tbl id c
    end;
    settle t ~issue_at ~coalesced ~status ~holders rest

(* The post's span on the net lane: host-side only, no clock moves. *)
let trace_post t ~now ~n ~bytes ~inbound (r0 : Request.t) status =
  let module J = Mira_telemetry.Json in
  let a = t.att in
  let args =
    if status = Node_down then [ ("node_down", J.Bool true); ("bytes", J.Int bytes) ]
    else
      [
        ("bytes", J.Int bytes);
        ( "side",
          J.Str (match r0.Request.side with One_sided -> "one-sided" | Two_sided -> "two-sided") );
        ("inbound", J.Bool inbound);
        ("queue_ns", J.Float (a.first -. now));
      ]
      @ (if n > 1 then [ ("coalesced", J.Int n) ] else [])
      @ (if t.attempts > 1 then [ ("attempts", J.Int t.attempts) ] else [])
      @ if status = Timed_out then [ ("timed_out", J.Bool true) ] else []
  in
  Trace.complete ~name:(purpose_name r0.Request.purpose) ~cat:"net" ~lane:"net" ~ts_ns:now
    ~dur_ns:(a.done_at -. now) ~args ()

(* Post one message at time [now]: [n] requests of [bytes] in total,
   given newest-first (a coalesced batch; a single request is a
   one-member list). *)
let post t ~now ~n ~bytes members =
  let members = if n = 1 then members else List.rev members in
  let (id0, (r0 : Request.t), _, _, t0) = List.hd members in
  let inbound = r0.Request.dir = Request.Read in
  retire t ~now;
  let gate = gate_time t ~now in
  let issue_at = Float.max now gate in
  (* Snapshot the window holders only when the window actually gated
     this post — these tenants are who the resulting queue stall gets
     charged against in the interference matrix. *)
  let holders =
    if t.dp.window > 0 && gate > now then holders_snapshot t else []
  in
  let s = t.stats and a = t.att in
  let status =
    if node_down_at t ~node:r0.Request.node ~at:issue_at then begin
      (* Far node down with no failover target: the message never
         touches the wire; the requester detects the failure after its
         loss timer.  Not a [Timed_out] — nothing was dropped, the node
         is gone — and no bytes are accounted. *)
      a.done_at <- issue_at +. detect_ns t;
      a.wire <- 0.0;
      a.retry <- detect_ns t;
      t.attempts <- 1;
      s.node_down <- s.node_down + n;
      Node_down
    end
    else
      run_attempts t ~id:id0 ~posted_at:issue_at ~bytes ~side:r0.Request.side
        ~purpose:r0.Request.purpose ~inbound
  in
  add_inflight t ~done_at:a.done_at ~dir:r0.Request.dir ~tenant:t0;
  s.doorbells <- s.doorbells + 1;
  if status <> Node_down then begin
    if n > 1 then s.coalesced <- s.coalesced + (n - 1);
    Metrics.hist_observe s.occupancy (float_of_int (Heap.length t.inflight));
    if status = Done then begin
      Metrics.hist_observe s.lat_rtt (a.done_at -. a.first);
      if inbound then
        Metrics.hist_observe ~trace:(ctx_trace r0) s.lat_fetch (a.done_at -. now)
    end
  end;
  if Trace.enabled () then trace_post t ~now ~n ~bytes ~inbound r0 status;
  settle t ~issue_at ~coalesced:(n > 1) ~status ~holders members

let ring t ~now =
  match t.pending with
  | None -> ()
  | Some b ->
    t.pending <- None;
    let bytes = List.fold_left (fun a (_, (r : Request.t), _, _, _) -> a + r.Request.bytes) 0 in
    post t ~now ~n:(List.length b.members) ~bytes:(bytes b.members) b.members

let submit t ~now ?(urgent = false) ?(detached = false) (req : Request.t) =
  let id = t.next_id in
  t.next_id <- id + 1;
  let member = (id, req, now, detached, Mira_telemetry.Attribution.context_tenant t.ledger) in
  let p = t.params in
  if urgent || not t.dp.coalesce then begin
    ring t ~now;
    post t ~now ~n:1 ~bytes:req.Request.bytes [ member ];
    {
      id;
      issue_cpu_ns =
        (if urgent then p.Params.msg_cpu_ns else p.Params.async_post_ns);
    }
  end
  else begin
    let key =
      (req.Request.dir, req.Request.side, req.Request.purpose, req.Request.node)
    in
    match t.pending with
    | Some b when b.key = key && List.length b.members < coalesce_limit ->
      b.members <- member :: b.members;
      { id; issue_cpu_ns = 0.0 }
    | _ ->
      ring t ~now;
      t.pending <- Some { key; members = [ member ] };
      { id; issue_cpu_ns = p.Params.async_post_ns }
  end

(* --- completion queue ---------------------------------------------------- *)

let await t ~now ~id =
  ring t ~now;
  match Ids.find_opt t.cq_tbl id with
  | Some c ->
    Ids.remove t.cq_tbl id;
    emit_member_span c;
    c
  | None -> invalid_arg "Net.await: unknown or detached request id"

let fence ?dir t ~now =
  ring t ~now;
  Heap.fold
    (fun acc (done_at, d, _) ->
      match dir with
      | Some want when d <> want -> acc
      | _ -> Float.max acc done_at)
    now t.inflight

(* --- node failures -------------------------------------------------------- *)

(* The far node crashed at [now]: every transfer still in flight is
   gone.  Unreaped completions that had not landed yet become
   [Node_down] immediately (failure detection is the crash notification
   itself — the cluster's epoch bump — not a per-request timer), the
   in-flight window drains, and the wire is idle again.  Returns the
   number of reapable requests failed. *)
let fail_inflight t ~now =
  ring t ~now;
  let retargeted =
    Ids.fold
      (fun _ (c : completion) acc ->
        if c.done_at > now && c.status = Done then c :: acc else acc)
      t.cq_tbl []
    (* newest-first: the order the old completion list was walked in,
       so the retarget instants land in the trace identically *)
    |> List.sort (fun (a : completion) (b : completion) -> Int.compare b.id a.id)
  in
  List.iter
    (fun (c : completion) ->
      (* The member span itself is emitted at reap time and will
         show the retargeted done_at; the instant marks where the
         epoch bump cut it short. *)
      if Trace.enabled () then
        Trace.instant ~name:"retarget" ~cat:"net" ~lane:"net" ~ts_ns:now
          ~args:
            [
              ("id", Mira_telemetry.Json.Int c.id);
              ("trace", Mira_telemetry.Json.Int (ctx_trace c.req));
            ]
          ();
      Ids.replace t.cq_tbl c.id { c with status = Node_down; done_at = now })
    retargeted;
  let failed = List.length retargeted in
  (* Clamping down to [now] is monotone, so both heaps keep their
     invariants in place — no re-heapify. *)
  Heap.map_monotone
    (fun (d, dir, tn) -> ((if d > now then now else d), dir, tn))
    t.inflight;
  Heap.map_monotone (fun d -> if d > now then now else d) t.window_q;
  if t.link_free_at > now then t.link_free_at <- now;
  t.stats.node_down <- t.stats.node_down + failed;
  failed

(* Declare a single far node unreachable until [until]: messages
   targeting it ([Request.node]) posted before that instant complete as
   [Node_down] after the loss-detection timer instead of transferring;
   traffic to live nodes flows. *)
let set_node_down t ~node ~until =
  let cur =
    match Hashtbl.find_opt t.node_down_until node with
    | Some u -> u
    | None -> 0.0
  in
  Hashtbl.replace t.node_down_until node (Float.max cur until)

