(* Time-resolved telemetry: the Space-Saving sketch's guarantees, Json
   boundary round-trips for int64-exact values, a task's ledger and
   trace context kept across scheduler parks, the interference-matrix
   == queue-stall ledger invariant (as a QCheck property over random
   serving configs), zero perturbation of an instrumented run, the serving
   timeline's window ring seen through its JSONL (percentile clamping,
   pairwise merging past 256 windows, telescoping counts, closing
   in-flight samples), the named
   audit-failure message, the 8-tenant saturation-onset acceptance
   run, and a drift guard for docs/OBSERVABILITY.md's time-resolved
   telemetry section. *)
module Sketch = Mira_telemetry.Sketch
module Attribution = Mira_telemetry.Attribution
module Json = Mira_telemetry.Json
module Net = Mira_sim.Net
module Sched = Mira_sim.Sched
module Clock = Mira_sim.Clock
module Runtime = Mira_runtime.Runtime
module K = Mira_workloads.Kv_serving

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* --- Space-Saving sketch -------------------------------------------------- *)

let test_sketch () =
  let s = Sketch.create ~k:3 in
  Sketch.touch s "a";
  Sketch.touch s "a";
  Sketch.touch s "b";
  (* under capacity: all counts exact, error bound 0 *)
  Alcotest.(check int64) "exact while under capacity" 0L (Sketch.error_bound s);
  Sketch.touch s ~weight:5L "c";
  Alcotest.(check int64) "total" 8L (Sketch.total s);
  (match Sketch.top s with
  | (k1, c1, e1) :: (k2, c2, _) :: _ ->
    Alcotest.(check string) "heaviest first" "c" k1;
    Alcotest.(check int64) "weighted count" 5L c1;
    Alcotest.(check int64) "no error yet" 0L e1;
    Alcotest.(check string) "then a" "a" k2;
    Alcotest.(check int64) "a count" 2L c2
  | _ -> Alcotest.fail "expected >= 2 entries");
  (* a 4th key evicts the min entry (b, count 1) and inherits its count *)
  Sketch.touch s "d";
  let keys = List.map (fun (k, _, _) -> k) (Sketch.top s) in
  Alcotest.(check (list string)) "b evicted" [ "c"; "a"; "d" ] keys;
  (match List.find (fun (k, _, _) -> k = "d") (Sketch.top s) with
  | _, c, e ->
    Alcotest.(check int64) "inherited count + 1" 2L c;
    Alcotest.(check int64) "err = inherited count" 1L e);
  Alcotest.(check int64) "error bound total/k" 3L (Sketch.error_bound s);
  Sketch.reset s;
  Alcotest.(check int64) "reset" 0L (Sketch.total s)

let test_sketch_deterministic_ties () =
  (* all-equal counts: eviction must pick the lexicographically
     greatest key, so two identically-fed sketches agree exactly *)
  let feed () =
    let s = Sketch.create ~k:2 in
    List.iter (Sketch.touch s) [ "x"; "y"; "z" ];
    Sketch.snapshot s
  in
  Alcotest.(check (list (pair string int64))) "replays" (feed ()) (feed ());
  let keys = List.map fst (feed ()) in
  Alcotest.(check bool) "greatest key evicted on tie" false
    (List.mem "y" keys && List.mem "z" keys && List.mem "x" keys)

let test_sketch_merge () =
  let a = [ ("k1", 10L); ("k2", 3L) ] in
  let b = [ ("k2", 4L); ("k3", 9L) ] in
  let m = Sketch.merge_snapshots ~k:2 a b in
  Alcotest.(check (list (pair string int64)))
    "sum per key, keep heaviest k" [ ("k1", 10L); ("k3", 9L) ] m

(* --- Json boundary round-trips -------------------------------------------- *)

(* Fixed-point int64 values ride as decimal strings (OCaml's Json.Int
   is a 63-bit native int): Int64.max_int must survive a round-trip
   exactly, as must negative counter deltas and empty-window
   objects. *)
let test_json_roundtrips () =
  let rt j =
    match Json.parse (Json.to_string j) with
    | Ok j' -> Alcotest.(check string) "round-trip" (Json.to_string j)
                 (Json.to_string j')
    | Error m -> Alcotest.failf "parse failed: %s" m
  in
  let maxs = Int64.to_string Int64.max_int in
  rt (Json.Obj [ ("tick", Json.Str maxs) ]);
  (match Json.parse (Json.to_string (Json.Obj [ ("tick", Json.Str maxs) ])) with
  | Ok j ->
    (match Json.member "tick" j with
    | Some (Json.Str s) ->
      Alcotest.(check int64) "int64-exact through the string codec"
        Int64.max_int (Int64.of_string s)
    | _ -> Alcotest.fail "tick not a string")
  | Error m -> Alcotest.fail m);
  rt (Json.Obj [ ("delta", Json.Int (-42)) ]);
  rt (Json.Obj [ ("min_delta", Json.Str (Int64.to_string Int64.min_int)) ]);
  rt (Json.Obj []);
  rt (Json.List [ Json.Obj []; Json.Obj [ ("w", Json.Obj []) ] ]);
  (* an empty window object keeps its (empty) sub-objects distinct *)
  let w =
    Json.Obj
      [
        ("type", Json.Str "window"); ("tenants", Json.Obj []);
        ("interference", Json.Obj []); ("top_keys", Json.List []);
      ]
  in
  rt w;
  (* a bare number at Int64.max_int magnitude must not crash the
     parser (precision may degrade — which is exactly why fixed-point
     values are exported as strings) *)
  match Json.parse "9223372036854775807" with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "big literal rejected: %s" m

(* --- task context across parks ------------------------------------------- *)

(* Three tenants on one runtime each set their own ledger context and
   trace span context, then park over and over.  After every resume the
   ledger's fn/site/tenant and the ambient trace context must be the
   task's own, although the other tasks overwrote them while it slept;
   and a submission made then must be stamped with the task's tenant.
   With a one-slot window the second of two back-to-back posts is gated
   by the first, so its [holders] show the first one's stamp. *)
let test_sched_tls () =
  let module Tr = Mira_telemetry.Trace in
  let rt =
    Runtime.create
      { (Runtime.config_default ~local_budget:(1 lsl 20) ~far_capacity:(1 lsl 22)) with
        Runtime.tenants = 3;
        dataplane = { Net.dp_default with Net.window = 1 } }
  in
  let attr = Runtime.attribution rt and net = Runtime.net rt in
  let sched = Runtime.sched rt in
  let failures = ref [] in
  let fail tenant what = failures := Printf.sprintf "t%d: %s" tenant what :: !failures in
  let task tenant =
    let clock = (Runtime.memsys rt).Mira_runtime.Memsys.clock ~tid:tenant in
    let fn = Printf.sprintf "task%d" tenant in
    let ctx =
      Some
        { Tr.sc_trace = 100 + tenant; sc_span = 200 + tenant; sc_lane = fn;
          sc_flow = false }
    in
    fun () ->
      Attribution.set_context attr ~fn ~site:tenant;
      Attribution.set_tenant attr tenant;
      Tr.set_ctx ctx;
      for k = 1 to 8 do
        (* tenants 10 us apart in a 50 us period: each task's posts
           land long after the others' *)
        ignore (Clock.wait_until clock (float_of_int ((k * 50_000) + (tenant * 10_000))));
        if (Attribution.context_fn attr, Attribution.context_site attr) <> (fn, tenant) then
          fail tenant "ledger fn/site";
        if Attribution.context_tenant attr <> tenant then fail tenant "ledger tenant";
        if Tr.current_ctx () <> ctx then fail tenant "trace context";
        let now = Clock.now clock in
        let post () =
          (Net.submit net ~now ~urgent:true
             (Net.Request.read ~side:Net.One_sided ~purpose:Net.Demand 64)).Net.id
        in
        let first = post () in
        let second = post () in
        ignore (Net.await net ~now ~id:first);
        let c = Net.await net ~now ~id:second in
        if c.Net.holders <> [ (tenant, 1) ] then
          fail tenant
            (Printf.sprintf "holders [%s]"
               (String.concat "; "
                  (List.map (fun (h, n) -> Printf.sprintf "t%d x%d" h n) c.Net.holders)))
      done
  in
  for tenant = 0 to 2 do
    Sched.spawn sched ~tenant (task tenant)
  done;
  Sched.run sched;
  Alcotest.(check bool) "tasks parked" true (Sched.dispatched sched > 3 * 8);
  Alcotest.(check (list string)) "each task keeps its own context" []
    (List.rev !failures)

(* --- serving timeline ----------------------------------------------------- *)

let small_cfg ?(tenants = 3) ?(requests = 150) ?(seed = 7) () =
  {
    K.config_default with
    K.tenants;
    requests;
    keys = 512;
    value_bytes = 64;
    local_ratio = 0.25;
    seed;
  }

let run_with_window ?timeline cfg window =
  let rt_cfg =
    { (K.runtime_config cfg) with
      Runtime.dataplane = { Net.dp_default with Net.window } }
  in
  let rt = Runtime.create rt_cfg in
  let r = K.run_on ?timeline rt cfg in
  (rt, r)

let test_zero_perturbation () =
  let cfg = small_cfg () in
  let _, plain = run_with_window cfg 4 in
  let tl = K.Timeline.make () in
  let _, timed = run_with_window ~timeline:tl cfg 4 in
  Alcotest.(check int64) "checksum unchanged" plain.K.checksum timed.K.checksum;
  Alcotest.(check (float 0.0)) "elapsed unchanged" plain.K.elapsed_ns
    timed.K.elapsed_ns;
  Alcotest.(check string) "report json unchanged"
    (Json.to_string (K.report_json plain))
    (Json.to_string (K.report_json timed))

(* Find the per-window per-tenant counter sums and the summary rows in
   the exported JSONL. *)
let jsonl_parts lines =
  let windows, summaries =
    List.partition
      (fun j ->
        match Json.member "type" j with Some (Json.Str "window") -> true | _ -> false)
      lines
  in
  match summaries with
  | [ s ] -> (windows, s)
  | _ -> Alcotest.fail "expected exactly one summary line"

let window_tenant_sum windows ~tenant field =
  List.fold_left
    (fun acc w ->
      match Json.member "tenants" w with
      | Some tenants -> (
        match Json.member (Printf.sprintf "t%d" tenant) tenants with
        | Some row -> (
          match Json.member field row with
          | Some (Json.Int n) -> acc + n
          | _ -> acc)
        | None -> acc)
      | None -> Alcotest.fail "window without tenants object")
    0 windows

(* The tentpole invariant, checked two ways: directly against the
   in-memory matrix/ledger (int64-exact) and through the exported
   summary (decimal strings), over random configurations.  Plus the
   telescoping property: per-window request counters sum to each
   tenant's end-of-run completion count. *)
let qcheck_interference_invariant =
  QCheck.Test.make ~name:"interference rows = queue-stall buckets; telescoping"
    ~count:6
    QCheck.(triple (int_range 2 4) (int_range 80 200) (int_range 1 1000))
    (fun (tenants, requests, seed) ->
      let cfg = small_cfg ~tenants ~requests ~seed () in
      let tl = K.Timeline.make ~interval_ns:50_000.0 () in
      let rt, r = run_with_window ~timeline:tl cfg 2 in
      let attr = Runtime.attribution rt in
      for w = 0 to tenants - 1 do
        let row =
          Option.value ~default:0L (List.assoc_opt w (Attribution.interference_rows attr))
        in
        let ledger = Attribution.tenant_cause_fp attr ~tenant:w Attribution.Queueing in
        if row <> ledger then
          QCheck.Test.fail_reportf
            "tenant %d: interference row %Ld fp <> queue-stall bucket %Ld fp"
            w row ledger;
        (* each row also balances against its own cells *)
        let cells =
          List.fold_left
            (fun acc (waiter, _, v) -> if waiter = w then Int64.add acc v else acc)
            0L
            (Attribution.interference_cells attr)
        in
        if cells <> row then
          QCheck.Test.fail_reportf "tenant %d: cells %Ld <> row total %Ld" w
            cells row
      done;
      let windows, summary = jsonl_parts (K.Timeline.jsonl tl ~rt) in
      (* summary repeats the invariant in the export *)
      (match Json.member "tenant_rows" summary with
      | Some (Json.Obj rows) ->
        List.iter
          (fun (_, row) ->
            match (Json.member "interference_fp" row, Json.member "queueing_fp" row) with
            | Some (Json.Str a), Some (Json.Str b) ->
              if a <> b then
                QCheck.Test.fail_reportf "summary rows differ: %s <> %s" a b
            | _ -> QCheck.Test.fail_report "summary row missing fp fields")
          rows
      | _ -> QCheck.Test.fail_report "summary without tenant_rows");
      Array.iter
        (fun (tr : K.tenant_report) ->
          let sum = window_tenant_sum windows ~tenant:tr.K.tenant "requests" in
          if sum <> tr.K.completed then
            QCheck.Test.fail_reportf
              "tenant %d: window counters sum to %d, completed %d" tr.K.tenant
              sum tr.K.completed)
        r.K.per_tenant;
      true)

(* --- window ring and percentiles, through the export --------------------- *)

(* Numeric member [k] of a JSON object, following [path] first. *)
let num ?(path = []) k j =
  let j =
    List.fold_left
      (fun j p ->
        match Json.member p j with
        | Some v -> v
        | None -> Alcotest.failf "missing field %S" p)
      j path
  in
  match Json.member k j with
  | Some (Json.Float f) -> f
  | Some (Json.Int n) -> float_of_int n
  | _ -> Alcotest.failf "missing number %S" k

(* One request: the window's percentiles clamp to the exact observed
   latency, however wide its quarter-octave bucket. *)
let test_single_request_window () =
  let cfg = small_cfg ~tenants:1 ~requests:1 () in
  let tl = K.Timeline.make () in
  let rt, r = run_with_window ~timeline:tl cfg 4 in
  let lat = r.K.per_tenant.(0).K.max_ns in
  match jsonl_parts (K.Timeline.jsonl tl ~rt) with
  | [ w ], _ ->
    let path = [ "tenants"; "t0" ] in
    Alcotest.(check (float 0.0)) "one request" 1.0 (num ~path "requests" w);
    Alcotest.(check (float 0.0)) "p50 = latency" lat (num ~path "p50_ns" w);
    Alcotest.(check (float 0.0)) "p99 = latency" lat (num ~path "p99_ns" w)
  | ws, _ -> Alcotest.failf "expected 1 window, got %d" (List.length ws)

(* Windows far shorter than the run: more than 256 close, so the ring
   merges pairwise. *)
let merged_run () =
  let cfg = small_cfg ~tenants:2 ~requests:200 () in
  let tl = K.Timeline.make ~interval_ns:2_000.0 () in
  let rt, r = run_with_window ~timeline:tl cfg 2 in
  let windows, summary = jsonl_parts (K.Timeline.jsonl tl ~rt) in
  (r, windows, summary)

(* After merging, the ring still covers the whole run from 0,
   contiguously, within 256 windows, and no top-K list passes 8. *)
let test_ring_downsampling () =
  let _, windows, summary = merged_run () in
  Alcotest.(check bool) "merged at least once" true
    (num "merges" summary > 0.0);
  let n = List.length windows in
  Alcotest.(check bool) "ring bounded" true (n > 0 && n <= 256);
  Alcotest.(check (float 0.0)) "summary counts the windows" (float_of_int n)
    (num "nwindows" summary);
  let start = num "start_ns" and span = num "span_ns" in
  Alcotest.(check (float 0.0)) "first window starts at 0" 0.0
    (start (List.hd windows));
  ignore
    (List.fold_left
       (fun prev_end w ->
         Alcotest.(check (float 1e-3)) "contiguous" prev_end (start w);
         start w +. span w)
       0.0 windows);
  let last = List.nth windows (n - 1) in
  Alcotest.(check (float 1e-3)) "spans add to the last window's end"
    (start last +. span last)
    (List.fold_left (fun acc w -> acc +. span w) 0.0 windows);
  List.iter
    (fun w ->
      List.iter
        (fun k ->
          match Json.member k w with
          | Some (Json.List l) ->
            Alcotest.(check bool) (k ^ " keeps at most 8") true (List.length l <= 8)
          | _ -> Alcotest.failf "missing %s" k)
        [ "top_keys"; "top_miss_sites" ])
    windows

(* Across merges, each tenant's per-window counters sum to its
   end-of-run totals, and every window's in-flight gauges are samples
   taken as it closed: a merged window keeps the larger max and the
   later last, so last <= max, and [saturated] is set exactly when max
   reaches the in-flight window (2). *)
let test_telescoping_gauges () =
  let r, windows, _ = merged_run () in
  Array.iter
    (fun (tr : K.tenant_report) ->
      Alcotest.(check int)
        (Printf.sprintf "t%d requests telescope" tr.K.tenant)
        tr.K.completed
        (window_tenant_sum windows ~tenant:tr.K.tenant "requests");
      Alcotest.(check int)
        (Printf.sprintf "t%d slo misses telescope" tr.K.tenant)
        tr.K.slo_miss
        (window_tenant_sum windows ~tenant:tr.K.tenant "slo_miss"))
    r.K.per_tenant;
  List.iter
    (fun w ->
      let path = [ "net" ] in
      let mx = num ~path "inflight_max" w and last = num ~path "inflight_last" w in
      Alcotest.(check bool) "0 <= inflight_last <= inflight_max" true
        (0.0 <= last && last <= mx);
      match Json.member "saturated" w with
      | Some (Json.Bool b) ->
        Alcotest.(check bool) "saturated iff the sample hit the cap" (mx >= 2.0) b
      | _ -> Alcotest.fail "missing saturated")
    windows

(* Acceptance: an oversubscribed 8-tenant run on a tight in-flight
   window.  The timeline must find a saturated window no later than
   the first SLO-burn window, and the hot-key sketch must name
   per-tenant keys. *)
let test_saturation_acceptance () =
  let cfg =
    { (small_cfg ~tenants:8 ~requests:400 ()) with K.local_ratio = 0.05 }
  in
  let tl = K.Timeline.make () in
  let rt, r = run_with_window ~timeline:tl cfg 2 in
  Alcotest.(check bool) "run actually misses its SLO" true
    (r.K.agg_slo_miss_frac > 0.01);
  let sat =
    match K.Timeline.saturation_onset_ns tl with
    | Some ns -> ns
    | None -> Alcotest.fail "no saturated window found"
  in
  let burn =
    match K.Timeline.first_burn_ns tl with
    | Some ns -> ns
    | None -> Alcotest.fail "no burning window found"
  in
  Alcotest.(check bool) "occupancy pins before (or as) the SLO burns" true
    (sat <= burn);
  let windows, _ = jsonl_parts (K.Timeline.jsonl tl ~rt) in
  let some_keys =
    List.exists
      (fun w ->
        match Json.member "top_keys" w with
        | Some (Json.List (entry :: _)) -> (
          match Json.member "key" entry with
          | Some (Json.Str k) -> contains k ":k"
          | _ -> false)
        | _ -> false)
      windows
  in
  Alcotest.(check bool) "top keys name tenant:key pairs" true some_keys;
  let some_interference =
    List.exists
      (fun w ->
        match Json.member "interference" w with
        | Some (Json.Obj (_ :: _)) -> true
        | _ -> false)
      windows
  in
  Alcotest.(check bool) "interference rows present under contention" true
    some_interference

(* --- audit failure message ------------------------------------------------ *)

let test_audit_names_bucket () =
  let a = Attribution.create () in
  Attribution.set_context a ~fn:"work" ~site:1;
  Attribution.charge a Attribution.Queueing 10.0;
  Attribution.unbalance_for_test a Attribution.Queueing 7L;
  match Attribution.check a with
  | Ok () -> Alcotest.fail "expected audit failure"
  | Error msg ->
    Alcotest.(check bool) "names the bucket" true (contains msg "queueing");
    Alcotest.(check bool) "exact fp delta" true (contains msg "7 fp")

(* --- doc drift guard ------------------------------------------------------ *)

let test_doc_drift () =
  let doc =
    In_channel.with_open_bin "../docs/OBSERVABILITY.md" In_channel.input_all
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "docs/OBSERVABILITY.md mentions %S" needle)
        true (contains doc needle))
    [
      "Time-resolved telemetry"; "--timeline"; "Space-Saving"; "total/k";
      "pairwise"; "queue-stall"; "interference"; "sat_onset_ms";
    ]

let suite =
  [
    Alcotest.test_case "sketch counts/eviction/error bound" `Quick test_sketch;
    Alcotest.test_case "sketch deterministic ties" `Quick
      test_sketch_deterministic_ties;
    Alcotest.test_case "sketch snapshot merge" `Quick test_sketch_merge;
    Alcotest.test_case "json int64/negative/empty round-trips" `Quick
      test_json_roundtrips;
    Alcotest.test_case "sched TLS save/restore across parks" `Quick
      test_sched_tls;
    Alcotest.test_case "timeline is zero-perturbation" `Quick
      test_zero_perturbation;
    QCheck_alcotest.to_alcotest qcheck_interference_invariant;
    Alcotest.test_case "single request: p50 = p99 = lat" `Quick
      test_single_request_window;
    Alcotest.test_case "timeseries ring downsampling" `Quick
      test_ring_downsampling;
    Alcotest.test_case "timeseries telescoping + gauges" `Quick
      test_telescoping_gauges;
    Alcotest.test_case "8-tenant saturation precedes burn" `Quick
      test_saturation_acceptance;
    Alcotest.test_case "audit failure names bucket + fp delta" `Quick
      test_audit_names_bucket;
    Alcotest.test_case "OBSERVABILITY.md stays in sync" `Quick test_doc_drift;
  ]
