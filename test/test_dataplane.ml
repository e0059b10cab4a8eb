(* Tests for the asynchronous network data plane: submission/completion
   queues, the bounded in-flight window, doorbell batching, seeded fault
   injection, and the [fence] barrier. *)
module Params = Mira_sim.Params
module Clock = Mira_sim.Clock
module Net = Mira_sim.Net
module Far_store = Mira_sim.Far_store
module Swap = Mira_cache.Swap_section

let p = Params.default

(* The pre-dataplane synchronous model, reimplemented inline: each
   message starts when both the caller and the link are free, occupies
   the wire for bytes/bandwidth, then pays the side's latency. *)
let old_model ~side requests =
  let link = ref 0.0 in
  List.map
    (fun (now, bytes) ->
      let wire = float_of_int bytes /. p.Params.bandwidth_bytes_per_ns in
      let s = Float.max now !link in
      link := s +. wire;
      let latency, extra =
        match side with
        | Net.One_sided -> (p.Params.one_sided_rtt_ns, 0.0)
        | Net.Two_sided ->
          ( p.Params.two_sided_rtt_ns,
            p.Params.remote_copy_ns_per_byte *. float_of_int bytes )
      in
      s +. wire +. latency +. extra)
    requests

(* Blocking demand read on the data plane (what the retired fetch
   veneer did): urgent submit + await. *)
let sync_read net ~side ~now bytes =
  let sq =
    Net.submit net ~now ~urgent:true
      (Net.Request.read ~side ~purpose:Net.Demand bytes)
  in
  let c = Net.await net ~now ~id:sq.Net.id in
  (sq, c)

let test_identity_no_faults () =
  (* With dp_default the new data plane must reproduce the old blocking
     model bit-for-bit, for both sides and mixed payload sizes. *)
  List.iter
    (fun side ->
      let net = Net.create p in
      let requests = [ (0.0, 64); (0.0, 4096); (100.0, 256); (9_000.0, 64) ] in
      let expected = old_model ~side requests in
      List.iter2
        (fun (now, bytes) want ->
          let sq, c = sync_read net ~side ~now bytes in
          Alcotest.(check (float 0.0)) "done_at identical" want c.Net.done_at;
          Alcotest.(check (float 0.0))
            "sync post cost" p.Params.msg_cpu_ns sq.Net.issue_cpu_ns)
        requests expected)
    [ Net.One_sided; Net.Two_sided ]

let test_window1_matches_sync () =
  (* A blocking caller (awaits every transfer before the next submit)
     sees identical times under window=1 and the unbounded legacy
     window. *)
  let drive dp =
    let net = Net.create ~dp p in
    let now = ref 0.0 in
    let times = ref [] in
    List.iter
      (fun bytes ->
        let sq =
          Net.submit net ~now:!now ~urgent:true
            (Net.Request.read ~side:Net.One_sided ~purpose:Net.Demand bytes)
        in
        let c = Net.await net ~now:!now ~id:sq.Net.id in
        now := c.Net.done_at;
        times := c.Net.done_at :: !times)
      [ 64; 1024; 64; 4096; 256 ];
    List.rev !times
  in
  let sync = drive Net.dp_default in
  let windowed = drive { Net.dp_default with Net.window = 1 } in
  List.iter2
    (fun a b -> Alcotest.(check (float 0.0)) "window=1 == sync" a b)
    sync windowed

let test_window_saturation_ordering () =
  (* Five async reads posted back-to-back at t=0.  Under a window of 2
     the third message cannot start before the first completes, so the
     batch finishes strictly later than unbounded; reaped in submission
     order, every completion is there and done_at is monotonic. *)
  let last_done dp =
    let net = Net.create ~dp p in
    let ids =
      List.init 5 (fun _ ->
          (Net.submit net ~now:0.0
             (Net.Request.read ~side:Net.One_sided ~purpose:Net.Prefetch 4096))
            .Net.id)
    in
    let comps = List.map (fun id -> Net.await net ~now:0.0 ~id) ids in
    Alcotest.(check (list int)) "completion ids = submission ids" ids
      (List.map (fun (c : Net.completion) -> c.Net.id) comps);
    let rec monotonic = function
      | (a : Net.completion) :: (b : Net.completion) :: tl ->
        Alcotest.(check bool) "done_at monotonic" true (b.Net.done_at >= a.Net.done_at);
        monotonic (b :: tl)
      | _ -> ()
    in
    monotonic comps;
    (List.nth comps 4).Net.done_at
  in
  let unbounded = last_done Net.dp_default in
  let windowed = last_done { Net.dp_default with Net.window = 2 } in
  Alcotest.(check bool) "window serializes the tail" true (windowed > unbounded)

let test_in_flight_counter () =
  let net = Net.create p in
  Alcotest.(check int) "idle" 0 (Net.in_flight net ~now:0.0);
  let sq =
    Net.submit net ~now:0.0
      (Net.Request.read ~side:Net.One_sided ~purpose:Net.Prefetch 64)
  in
  Alcotest.(check int) "one posted" 1 (Net.in_flight net ~now:0.0);
  let c = Net.await net ~now:0.0 ~id:sq.Net.id in
  Alcotest.(check int) "complete after done_at" 0
    (Net.in_flight net ~now:(c.Net.done_at +. 1.0))

let test_coalescing () =
  let dp = { Net.dp_default with Net.coalesce = true } in
  let net = Net.create ~dp p in
  let submit bytes =
    Net.submit net ~now:0.0
      (Net.Request.read ~side:Net.One_sided ~purpose:Net.Prefetch bytes)
  in
  let a = submit 100 and b = submit 200 and c = submit 300 in
  (* First member pays the async doorbell cost, merged members are free. *)
  Alcotest.(check (float 0.0)) "head pays" p.Params.async_post_ns a.Net.issue_cpu_ns;
  Alcotest.(check (float 0.0)) "member free" 0.0 b.Net.issue_cpu_ns;
  Alcotest.(check (float 0.0)) "member free" 0.0 c.Net.issue_cpu_ns;
  Net.ring net ~now:0.0;
  let s = Net.stats net in
  Alcotest.(check int) "one wire message" 1 s.Net.msg_count;
  Alcotest.(check int) "one doorbell" 1 s.Net.doorbells;
  Alcotest.(check int) "two riders" 2 s.Net.coalesced;
  Alcotest.(check int) "bytes summed" 600 s.Net.bytes_in;
  let comps =
    List.map (fun (sq : Net.sqe) -> Net.await net ~now:0.0 ~id:sq.Net.id) [ a; b; c ]
  in
  let d0 = (List.hd comps).Net.done_at in
  List.iter
    (fun (cc : Net.completion) ->
      Alcotest.(check (float 0.0)) "batch completes together" d0 cc.Net.done_at;
      Alcotest.(check bool) "flagged coalesced" true cc.Net.coalesced)
    comps

(* [await] is the only reap path, so a reaped request must leave nothing
   behind: the net's retained heap after N blocking reads does not grow
   with N. *)
let test_await_footprint_constant () =
  let words n =
    let net = Net.create p in
    let now = ref 0.0 in
    for _ = 1 to n do
      let _, c = sync_read net ~side:Net.One_sided ~now:!now 64 in
      now := c.Net.done_at
    done;
    Obj.reachable_words (Obj.repr net)
  in
  let small = words 100 and large = words 10_000 in
  if abs (large - small) > 64 then
    Alcotest.failf "net retains %d words after 100 reads, %d after 10000"
      small large

let test_coalescing_key_change_rings () =
  (* A different request kind must flush the open batch: a write after
     two reads yields two doorbells, not one. *)
  let dp = { Net.dp_default with Net.coalesce = true } in
  let net = Net.create ~dp p in
  ignore
    (Net.submit net ~now:0.0
       (Net.Request.read ~side:Net.One_sided ~purpose:Net.Prefetch 64));
  ignore
    (Net.submit net ~now:0.0
       (Net.Request.read ~side:Net.One_sided ~purpose:Net.Prefetch 64));
  ignore
    (Net.submit net ~now:0.0
       (Net.Request.write ~side:Net.One_sided ~purpose:Net.Writeback 64));
  Net.ring net ~now:0.0;
  let s = Net.stats net in
  Alcotest.(check int) "two doorbells" 2 s.Net.doorbells;
  Alcotest.(check int) "one rider" 1 s.Net.coalesced

let test_coalesce_limit () =
  let dp = { Net.dp_default with Net.coalesce = true } in
  let net = Net.create ~dp p in
  for _ = 1 to 33 do
    ignore
      (Net.submit net ~now:0.0
         (Net.Request.read ~side:Net.One_sided ~purpose:Net.Prefetch 64))
  done;
  Net.ring net ~now:0.0;
  (* 33 submissions at the cap of 16 -> batches of 16/16/1. *)
  let s = Net.stats net in
  Alcotest.(check int) "three doorbells" 3 s.Net.doorbells;
  Alcotest.(check int) "15 riders per full batch" 30 s.Net.coalesced

let faulty ?(drop = 0.3) ?(seed = 11) ?(max_retries = 3) () =
  { Net.dp_default with
    Net.fault =
      Some { Net.Fault.default with Net.Fault.seed; drop_prob = drop; max_retries } }

let test_faults_deterministic () =
  (* The same seed must reproduce the exact same completion times and
     attempt counts, run after run. *)
  let run () =
    let net = Net.create ~dp:(faulty ()) p in
    List.init 20 (fun i ->
        let sq =
          Net.submit net ~now:(float_of_int i *. 10.0) ~urgent:true
            (Net.Request.read ~side:Net.One_sided ~purpose:Net.Demand 256)
        in
        let c = Net.await net ~now:(float_of_int i *. 10.0) ~id:sq.Net.id in
        (c.Net.done_at, c.Net.attempts))
  in
  let a = run () and b = run () in
  List.iter2
    (fun (da, aa) (db, ab) ->
      Alcotest.(check (float 0.0)) "same done_at" da db;
      Alcotest.(check int) "same attempts" aa ab)
    a b;
  let retried = List.exists (fun (_, att) -> att > 1) a in
  Alcotest.(check bool) "drop rate actually exercised retries" true retried

let test_bounded_retries_then_failure () =
  (* 100% loss: the request retries [max_retries] times, then fails
     cleanly with a finite detection time instead of hanging. *)
  let net = Net.create ~dp:(faulty ~drop:1.0 ~max_retries:2 ()) p in
  let sq =
    Net.submit net ~now:0.0 ~urgent:true
      (Net.Request.read ~side:Net.One_sided ~purpose:Net.Demand 64)
  in
  let c = Net.await net ~now:0.0 ~id:sq.Net.id in
  Alcotest.(check bool) "timed out" true (c.Net.status = Net.Timed_out);
  Alcotest.(check int) "initial + 2 retries" 3 c.Net.attempts;
  let s = Net.stats net in
  Alcotest.(check int) "retries counted" 2 s.Net.retries;
  Alcotest.(check int) "timeout counted" 1 s.Net.timeouts;
  Alcotest.(check bool) "finite detection time" true
    (Float.is_finite c.Net.done_at && c.Net.done_at > 0.0);
  (* timeout + exponential backoff: detection strictly after 3 timers *)
  let f = Net.Fault.default in
  Alcotest.(check bool) "after three timeout windows" true
    (c.Net.done_at >= 3.0 *. f.Net.Fault.timeout_ns)

let test_fence_directions () =
  let net = Net.create p in
  ignore
    (Net.submit net ~now:0.0 ~detached:true
       (Net.Request.write ~side:Net.One_sided ~purpose:Net.Writeback 4096));
  let rd =
    Net.submit net ~now:0.0
      (Net.Request.read ~side:Net.One_sided ~purpose:Net.Prefetch 64)
  in
  let wfence = Net.fence ~dir:Net.Request.Write net ~now:0.0 in
  let full = Net.fence net ~now:0.0 in
  Alcotest.(check bool) "write fence waits for writeback" true (wfence > 0.0);
  Alcotest.(check bool) "full fence covers both" true (full >= wfence);
  let c = Net.await net ~now:0.0 ~id:rd.Net.id in
  Alcotest.(check bool) "fence covers the read too" true (full >= c.Net.done_at);
  (* after everything lands the fence degenerates to now *)
  let later = full +. 10.0 in
  Alcotest.(check (float 0.0)) "quiescent fence = now" later
    (Net.fence net ~now:later)

let test_await_unknown_raises () =
  let net = Net.create p in
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Net.await: unknown or detached request id") (fun () ->
      ignore (Net.await net ~now:0.0 ~id:42));
  ignore
    (Net.submit net ~now:0.0 ~detached:true
       (Net.Request.write ~side:Net.One_sided ~purpose:Net.Writeback 64));
  Alcotest.check_raises "detached id invisible"
    (Invalid_argument "Net.await: unknown or detached request id") (fun () ->
      ignore (Net.await net ~now:0.0 ~id:0))

let test_swap_readahead_coalesces () =
  (* End-to-end through the cache layer: a strided scan over the swap
     section with cluster readahead rides coalesced doorbells — fewer
     doorbell rings for the same data, and no worse caller-observed
     fetch latency (queueing drops when 7 posts become 1). *)
  let run dp =
    let net = Net.create ~dp p in
    let far = Mira_sim.Cluster.of_store (Far_store.create ~capacity:(1 lsl 20)) in
    let swap =
      Swap.create net far
        { Swap.page = 4096; capacity = 8 * 4096 }
    in
    Swap.set_readahead swap (fun _ -> (1, 7));
    let clock = Clock.create () in
    for i = 0 to 255 do
      ignore (Swap.load swap ~clock ~addr:(i * 512) ~len:8)
    done;
    let s = Net.stats net in
    (Mira_telemetry.Metrics.hist_percentile s.Net.lat_fetch 50.0, s)
  in
  let p50_plain, s_plain = run Net.dp_default in
  let p50_batched, s =
    run { Net.dp_default with Net.window = 8; Net.coalesce = true }
  in
  Alcotest.(check bool) "readahead coalesced" true (s.Net.coalesced > 0);
  Alcotest.(check bool) "fewer doorbells" true
    (s.Net.doorbells < s_plain.Net.doorbells);
  Alcotest.(check bool) "fetch p50 no worse" true (p50_batched <= p50_plain)

(* --- fault-model validation ---------------------------------------------- *)

let test_fault_validate () =
  Net.Fault.validate Net.Fault.default;
  let rejects name f =
    match Net.Fault.validate f with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  let d = Net.Fault.default in
  rejects "negative drop_prob" { d with Net.Fault.drop_prob = -0.1 };
  rejects "drop_prob > 1" { d with Net.Fault.drop_prob = 1.5 };
  rejects "NaN drop_prob" { d with Net.Fault.drop_prob = Float.nan };
  rejects "negative delay_prob" { d with Net.Fault.delay_prob = -1.0 };
  rejects "NaN delay_prob" { d with Net.Fault.delay_prob = Float.nan };
  rejects "negative delay" { d with Net.Fault.delay_ns = -5.0 };
  rejects "zero timeout" { d with Net.Fault.timeout_ns = 0.0 };
  rejects "negative timeout" { d with Net.Fault.timeout_ns = -1.0 };
  rejects "zero backoff" { d with Net.Fault.backoff_ns = 0.0 };
  rejects "negative retries" { d with Net.Fault.max_retries = -1 };
  (* Wired into the one configuration entry point: it rejects too. *)
  let bad =
    { Net.dp_default with Net.fault = Some { d with Net.Fault.drop_prob = 2.0 } }
  in
  match Net.create ~dp:bad p with
  | _ -> Alcotest.fail "create: expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- node failures -------------------------------------------------------- *)

let test_fail_inflight_node_down () =
  (* A crash fails every in-flight transfer immediately, with status
     [Node_down] at the crash time — never [Timed_out], which is
     reserved for lossy-link retry exhaustion. *)
  let net = Net.create p in
  let sq1 =
    Net.submit net ~now:0.0 (Net.Request.read ~side:Net.One_sided
                               ~purpose:Net.Demand 4096)
  in
  let sq2 =
    Net.submit net ~now:0.0 (Net.Request.read ~side:Net.One_sided
                               ~purpose:Net.Demand 4096)
  in
  let crash_at = 50.0 in
  let failed = Net.fail_inflight net ~now:crash_at in
  Alcotest.(check int) "both failed" 2 failed;
  List.iter
    (fun id ->
      let c = Net.await net ~now:crash_at ~id in
      (match c.Net.status with
      | Net.Node_down -> ()
      | Net.Done -> Alcotest.fail "still Done after crash"
      | Net.Timed_out -> Alcotest.fail "crash conflated with timeout");
      Alcotest.(check (float 0.0)) "failed at crash detection" crash_at
        c.Net.done_at)
    [ sq1.Net.id; sq2.Net.id ];
  let s = Net.stats net in
  Alcotest.(check int) "node_down counted" 2 s.Net.node_down;
  Alcotest.(check int) "never counted as timeouts" 0 s.Net.timeouts;
  (* The link is idle again: a post after the crash completes normally. *)
  let _, c = sync_read net ~side:Net.One_sided ~now:100.0 64 in
  Alcotest.(check bool) "link drained" true (c.Net.done_at < 100.0 +. 1e5)

let test_fail_inflight_spares_landed () =
  (* A transfer that already completed before the crash stays [Done]. *)
  let net = Net.create p in
  let sq =
    Net.submit net ~now:0.0 (Net.Request.read ~side:Net.One_sided
                               ~purpose:Net.Demand 64)
  in
  ignore (Net.fail_inflight net ~now:1e9);
  let c = Net.await net ~now:1e9 ~id:sq.Net.id in
  (match c.Net.status with
  | Net.Done -> ()
  | _ -> Alcotest.fail "landed transfer must stay Done");
  Alcotest.(check int) "nothing to fail" 0 (Net.stats net).Net.node_down

let test_set_down_window () =
  (* Posts to a node during its declared outage complete [Node_down]
     after the loss-detection timer, without touching the wire.  The
     read below targets node 0, the default. *)
  let net = Net.create p in
  Net.set_node_down net ~node:0 ~until:10_000.0;
  let before = (Net.stats net).Net.msg_count in
  let sq =
    Net.submit net ~now:100.0 (Net.Request.read ~side:Net.One_sided
                                 ~purpose:Net.Demand 4096)
  in
  let c = Net.await net ~now:100.0 ~id:sq.Net.id in
  (match c.Net.status with
  | Net.Node_down -> ()
  | _ -> Alcotest.fail "expected Node_down during outage");
  Alcotest.(check bool) "failed after detection timer" true
    (c.Net.done_at > 100.0);
  Alcotest.(check int) "no wire traffic" before (Net.stats net).Net.msg_count;
  Alcotest.(check int) "no timeout counted" 0 (Net.stats net).Net.timeouts;
  (* After the node returns, posts flow normally again. *)
  let _, c2 = sync_read net ~side:Net.One_sided ~now:20_000.0 64 in
  Alcotest.(check bool) "post-outage transfer completes" true
    (c2.Net.done_at > 20_000.0)

let suite =
  [
    Alcotest.test_case "identity no faults" `Quick test_identity_no_faults;
    Alcotest.test_case "window=1 == sync" `Quick test_window1_matches_sync;
    Alcotest.test_case "saturated window ordering" `Quick
      test_window_saturation_ordering;
    Alcotest.test_case "in-flight counter" `Quick test_in_flight_counter;
    Alcotest.test_case "await footprint constant" `Quick
      test_await_footprint_constant;
    Alcotest.test_case "coalescing" `Quick test_coalescing;
    Alcotest.test_case "coalescing key change" `Quick
      test_coalescing_key_change_rings;
    Alcotest.test_case "coalesce limit" `Quick test_coalesce_limit;
    Alcotest.test_case "faults deterministic" `Quick test_faults_deterministic;
    Alcotest.test_case "bounded retries" `Quick test_bounded_retries_then_failure;
    Alcotest.test_case "fence directions" `Quick test_fence_directions;
    Alcotest.test_case "await unknown raises" `Quick test_await_unknown_raises;
    Alcotest.test_case "swap readahead coalesces" `Quick
      test_swap_readahead_coalesces;
    Alcotest.test_case "fault validate" `Quick test_fault_validate;
    Alcotest.test_case "fail_inflight -> Node_down" `Quick
      test_fail_inflight_node_down;
    Alcotest.test_case "fail_inflight spares landed" `Quick
      test_fail_inflight_spares_landed;
    Alcotest.test_case "set_down window" `Quick test_set_down_window;
  ]
