(* The telemetry subsystem: JSON writer/parser, metric registry and
   log-scale histograms, the trace sink, typed controller decisions,
   and the end-to-end machine-readable report pipeline. *)
module Json = Mira_telemetry.Json
module Metrics = Mira_telemetry.Metrics
module Trace = Mira_telemetry.Trace
module Decision = Mira_telemetry.Decision
module C = Mira.Controller
module Runtime = Mira_runtime.Runtime
module Machine = Mira_interp.Machine
module G = Mira_workloads.Graph_traversal

(* --- JSON ---------------------------------------------------------------- *)

let rec json_equal a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.Int x, Json.Int y -> x = y
  | Json.Float x, Json.Float y -> Float.abs (x -. y) <= 1e-9 *. Float.abs x
  | Json.Int x, Json.Float y | Json.Float y, Json.Int x ->
    Float.of_int x = y
  | Json.Str x, Json.Str y -> x = y
  | Json.List xs, Json.List ys ->
    List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k, v) (k', v') -> k = k' && json_equal v v')
         xs ys
  | _ -> false

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("bool", Json.Bool true);
        ("int", Json.Int (-42));
        ("float", Json.Float 1.5);
        ("str", Json.Str "plain");
        ("list", Json.List [ Json.Int 1; Json.Str "two"; Json.Null ]);
        ("nested", Json.Obj [ ("k", Json.List []) ]);
      ]
  in
  (match Json.parse (Json.to_string doc) with
  | Ok v -> Alcotest.(check bool) "compact roundtrip" true (json_equal doc v)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  match Json.parse (Json.to_string_pretty doc) with
  | Ok v -> Alcotest.(check bool) "pretty roundtrip" true (json_equal doc v)
  | Error e -> Alcotest.failf "pretty parse failed: %s" e

let test_json_escapes () =
  let s = "quote\" back\\ nl\n tab\t ctrl\x01 end" in
  (match Json.parse (Json.to_string (Json.Str s)) with
  | Ok (Json.Str s') -> Alcotest.(check string) "escape roundtrip" s s'
  | Ok _ -> Alcotest.fail "not a string"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Json.parse "\"\\u0041\\u00e9\"" with
  | Ok (Json.Str s') -> Alcotest.(check string) "unicode escapes" "A\xc3\xa9" s'
  | _ -> Alcotest.fail "unicode escape parse failed");
  (* non-finite floats must degrade to null, keeping documents valid *)
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float Float.nan))

let test_json_errors () =
  let bad = [ "{"; "[1,]"; "tru"; "\"unterminated"; "{\"a\":}"; "1 2" ] in
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed input: %s" s
      | Error _ -> ())
    bad

let test_json_accessors () =
  let doc = Json.Obj [ ("a", Json.Int 3); ("b", Json.Float 2.5) ] in
  Alcotest.(check (option (float 0.0))) "int member" (Some 3.0)
    (Option.bind (Json.member "a" doc) Json.to_float_opt);
  Alcotest.(check (option (float 0.0))) "float member" (Some 2.5)
    (Option.bind (Json.member "b" doc) Json.to_float_opt);
  Alcotest.(check bool) "missing member" true (Json.member "c" doc = None)

(* --- metrics ------------------------------------------------------------- *)

let test_hist_empty () =
  let h = Metrics.hist_create () in
  Alcotest.(check int) "count" 0 (Metrics.hist_count h);
  Alcotest.(check (float 0.0)) "p50" 0.0 (Metrics.hist_percentile h 50.0);
  Alcotest.(check (float 0.0)) "min" 0.0 (Metrics.hist_min h);
  Alcotest.(check (float 0.0)) "max" 0.0 (Metrics.hist_max h)

let test_hist_percentiles () =
  let h = Metrics.hist_create () in
  for i = 1 to 1000 do
    Metrics.hist_observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Metrics.hist_count h);
  Alcotest.(check (float 1e-6)) "exact mean" 500.5 (Metrics.hist_mean h);
  Alcotest.(check (float 0.0)) "exact min" 1.0 (Metrics.hist_min h);
  Alcotest.(check (float 0.0)) "exact max" 1000.0 (Metrics.hist_max h);
  (* quarter-octave buckets: percentiles within ~19% of truth *)
  let p50 = Metrics.hist_percentile h 50.0 in
  Alcotest.(check bool) "p50 near 500" true (p50 > 400.0 && p50 < 620.0);
  let p99 = Metrics.hist_percentile h 99.0 in
  Alcotest.(check bool) "p99 near 990" true (p99 > 800.0 && p99 <= 1000.0);
  (* clamped to exact observed extremes *)
  Alcotest.(check (float 0.0)) "p0 clamps to min" 1.0
    (Metrics.hist_percentile h 0.0);
  Alcotest.(check (float 0.0)) "p100 clamps to max" 1000.0
    (Metrics.hist_percentile h 100.0);
  Metrics.hist_reset h;
  Alcotest.(check int) "reset" 0 (Metrics.hist_count h)

let test_hist_edges () =
  (* empty: every percentile is 0, not NaN *)
  let h = Metrics.hist_create () in
  Alcotest.(check (float 0.0)) "empty p0" 0.0 (Metrics.hist_percentile h 0.0);
  Alcotest.(check (float 0.0)) "empty p100" 0.0 (Metrics.hist_percentile h 100.0);
  (* single observation: all percentiles clamp to the one value *)
  Metrics.hist_observe h 123.0;
  Alcotest.(check int) "count" 1 (Metrics.hist_count h);
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "single p%g" p)
        123.0 (Metrics.hist_percentile h p))
    [ 0.0; 50.0; 99.0; 100.0 ];
  Alcotest.(check (float 0.0)) "single mean" 123.0 (Metrics.hist_mean h)

(* [Metrics.bucket_of] steps over precomputed bucket edges instead of
   calling log2; it must bucket every value as the log2 formula does.
   Checked within 2000 ulps of every quarter-octave edge (where log2's
   rounding decides), over log-uniform values from 2^-4 to 2^50, and on
   the values the formula still serves (below 1, NaN, infinities, from
   2^44 up). *)
let log2_bucket v =
  if v < 1.0 then 0
  else Mira_util.Misc.clamp ~lo:0 ~hi:175 (int_of_float (Float.log2 v *. 4.0))

let test_bucket_of_exact () =
  let mismatches = ref 0 and checked = ref 0 in
  let check v =
    incr checked;
    if Metrics.bucket_of v <> log2_bucket v then begin
      if !mismatches < 5 then
        Printf.eprintf "bucket_of %h = %d, log2 formula %d\n" v (Metrics.bucket_of v)
          (log2_bucket v);
      incr mismatches
    end
  in
  for i = 0 to 180 do
    let edge = Int64.bits_of_float (Float.pow 2.0 (float_of_int i /. 4.0)) in
    for d = -2000 to 2000 do
      check (Int64.float_of_bits (Int64.add edge (Int64.of_int d)))
    done
  done;
  let rng = Mira_util.Prng.create 11 in
  for _ = 1 to 200_000 do
    check (Float.pow 2.0 (Mira_util.Prng.float rng 54.0 -. 4.0))
  done;
  List.iter check
    [ 0.0; -0.0; -1.0; 0.5; Float.pred 1.0; Float.nan; infinity; neg_infinity;
      0x1p44; Float.pred 0x1p44; 1e300; max_float; min_float ];
  Alcotest.(check int) (Printf.sprintf "mismatches over %d values" !checked) 0 !mismatches

let test_exemplar_reservoir () =
  let h = Metrics.hist_create () in
  List.iter
    (fun (v, t) -> Metrics.hist_observe ~trace:t h v)
    [ (10.0, 1); (50.0, 2); (50.0, 3); (30.0, 4); (70.0, 5); (20.0, 6) ]
  ;
  (* slowest [exemplar_cap] kept, value-descending, ties broken toward
     the earliest arrival: deterministic for a fixed input sequence *)
  let ex = Metrics.hist_exemplars h in
  Alcotest.(check int) "reservoir full" Metrics.exemplar_cap (List.length ex);
  Alcotest.(check (list (float 0.0))) "slowest first" [ 70.0; 50.0; 50.0; 30.0 ]
    (List.map (fun e -> e.Metrics.ex_value_ns) ex);
  Alcotest.(check (list int)) "tie keeps earliest arrival" [ 5; 2; 3; 4 ]
    (List.map (fun e -> e.Metrics.ex_seq) ex);
  Alcotest.(check (list int)) "traces ride along" [ 5; 2; 3; 4 ]
    (List.map (fun e -> e.Metrics.ex_trace) ex);
  (* a second histogram fed the same sequence agrees exactly *)
  let h2 = Metrics.hist_create () in
  List.iter
    (fun (v, t) -> Metrics.hist_observe ~trace:t h2 v)
    [ (10.0, 1); (50.0, 2); (50.0, 3); (30.0, 4); (70.0, 5); (20.0, 6) ]
  ;
  Alcotest.(check bool) "deterministic" true (ex = Metrics.hist_exemplars h2);
  (* untraced histograms keep the historical JSON shape *)
  let plain = Metrics.hist_create () in
  Metrics.hist_observe plain 5.0;
  Alcotest.(check bool) "no exemplars key when untraced" true
    (Json.member "exemplars" (Metrics.hist_to_json plain) = None);
  (match Json.member "exemplars" (Metrics.hist_to_json h) with
  | Some (Json.List l) ->
    Alcotest.(check int) "exemplars serialized" Metrics.exemplar_cap
      (List.length l)
  | _ -> Alcotest.fail "traced histogram must serialize exemplars");
  Metrics.hist_reset h;
  Alcotest.(check int) "reset clears reservoir" 0
    (List.length (Metrics.hist_exemplars h))

let test_registry () =
  let reg = Metrics.create () in
  Metrics.set_counter reg "a.count" 7;
  Metrics.set_gauge reg "a.gauge" 1.25;
  let h = Metrics.hist_create () in
  Metrics.hist_observe h 100.0;
  Metrics.set_hist reg "a.lat" h;
  Alcotest.(check (list string)) "publication order"
    [ "a.count"; "a.gauge"; "a.lat" ] (Metrics.names reg);
  (match Metrics.find reg "a.count" with
  | Some (Metrics.Counter 7) -> ()
  | _ -> Alcotest.fail "counter lookup");
  match Json.parse (Json.to_string (Metrics.to_json reg)) with
  | Ok doc ->
    Alcotest.(check (option (float 0.0))) "hist count in json" (Some 1.0)
      (Option.bind
         (Option.bind (Json.member "a.lat" doc) (Json.member "count"))
         Json.to_float_opt)
  | Error e -> Alcotest.failf "registry json invalid: %s" e

(* --- trace sink ---------------------------------------------------------- *)

let test_trace_sink () =
  Trace.enable ();
  Alcotest.(check bool) "enabled" true (Trace.enabled ());
  Trace.set_limit 10;
  for i = 0 to 19 do
    Trace.complete ~name:"xfer" ~cat:"net" ~lane:"net"
      ~ts_ns:(float_of_int i) ~dur_ns:1.0 ()
  done;
  Alcotest.(check int) "capped" 10 (List.length (Trace.events ()));
  Alcotest.(check int) "dropped counted" 10 (Trace.dropped ());
  (* controller events survive a full buffer *)
  Trace.instant ~name:"accept" ~cat:"controller" ~lane:"controller"
    ~ts_ns:99.0 ();
  Alcotest.(check int) "controller exempt" 11 (List.length (Trace.events ()));
  (* every emitted line is valid JSON *)
  let lines =
    String.split_on_char '\n' (Trace.to_jsonl ())
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check bool) "jsonl non-empty" true (List.length lines > 11);
  List.iter
    (fun l ->
      match Json.parse l with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "bad trace line %s: %s" l e)
    lines;
  Trace.set_limit 200_000;
  Trace.disable ();
  Trace.clear ();
  (* disabled sink must ignore pushes *)
  Trace.complete ~name:"xfer" ~cat:"net" ~lane:"net" ~ts_ns:0.0 ~dur_ns:1.0 ();
  Alcotest.(check int) "no-op when disabled" 0 (List.length (Trace.events ()))

(* The controller-category exemption has its own cap: once both the
   main buffer and the controller headroom are full, controller events
   are dropped and counted like everything else. *)
let test_ctrl_cap_bounded () =
  Trace.enable ();
  Trace.set_limit 5;
  Trace.set_ctrl_limit 3;
  for i = 0 to 9 do
    Trace.complete ~name:"xfer" ~cat:"net" ~lane:"net" ~ts_ns:(float_of_int i)
      ~dur_ns:1.0 ()
  done;
  for i = 0 to 9 do
    Trace.instant ~name:"accept" ~cat:"controller" ~lane:"controller"
      ~ts_ns:(float_of_int i) ()
  done;
  Alcotest.(check int) "main cap + controller headroom" 8
    (List.length (Trace.events ()));
  Alcotest.(check int) "overflow counted" 12 (Trace.dropped ());
  Trace.set_limit 200_000;
  Trace.set_ctrl_limit 20_000;
  Trace.disable ();
  Trace.clear ()

(* --- logging ------------------------------------------------------------- *)

(* A suppressed level must not even format its arguments: [%t] lets the
   message observe whether formatting ran. *)
let test_log_lazy () =
  let module Log = Mira_telemetry.Log in
  let saved = Log.level () in
  let hit = ref false in
  let probe () =
    hit := true;
    "probe"
  in
  Log.set_level Log.Quiet;
  Log.debug "%t" probe;
  Alcotest.(check bool) "suppressed level formats nothing" false !hit;
  Log.info "%t" probe;
  Alcotest.(check bool) "suppressed info formats nothing" false !hit;
  Log.set_level Log.Debug;
  Log.debug "%t" probe;
  Alcotest.(check bool) "active level formats" true !hit;
  Log.set_level saved

(* --- decisions ----------------------------------------------------------- *)

let test_decision_render () =
  Alcotest.(check string) "initial run"
    "initial swap run: work=1.000 ms"
    (Decision.render (Decision.Profile_run { iteration = 0; work_ns = 1e6 }));
  Alcotest.(check string) "select"
    "iteration 2: functions=[work,scan] sites=[3,5]"
    (Decision.render
       (Decision.Select
          { iteration = 2; functions = [ "work"; "scan" ]; sites = [ 3; 5 ] }));
  Alcotest.(check string) "rollback"
    "iteration 1: regression, rolling back"
    (Decision.render (Decision.Rollback { iteration = 1; reason = "regression" }));
  let repeat = Decision.Repeat { iteration = 4; decided_at = 2 } in
  Alcotest.(check string) "repeat"
    "iteration 4: selection decided at iteration 2, skipped" (Decision.render repeat);
  (match Json.member "decided_at" (Decision.to_json repeat) with
  | Some (Json.Int 2) -> ()
  | _ -> Alcotest.fail "repeat json missing decided_at");
  let d = Decision.Accept { iteration = 3; work_ns = 2e6 } in
  Alcotest.(check int) "iteration" 3 (Decision.iteration d);
  Alcotest.(check string) "name" "accept" (Decision.name d);
  match Json.member "event" (Decision.to_json d) with
  | Some (Json.Str "accept") -> ()
  | _ -> Alcotest.fail "decision json missing event tag"

(* --- end to end ---------------------------------------------------------- *)

let optimize_small () =
  let cfg = { G.config_default with G.num_edges = 8_000; num_nodes = 800 } in
  let prog = G.build cfg in
  let far = G.far_bytes cfg in
  let opts =
    { (C.options_default ~local_budget:(far * 3 / 10) ~far_capacity:(4 * far))
      with C.max_iterations = 3 }
  in
  (prog, opts)

let test_end_to_end_report () =
  let prog, opts = optimize_small () in
  Trace.enable ();
  let compiled = C.optimize opts prog in
  let rt, machine = C.instantiate compiled in
  let _ = C.measure_work (Runtime.memsys rt) machine in
  let jsonl = Trace.to_jsonl () in
  let events = Trace.events () and spans = Trace.spans () in
  Trace.disable ();
  Trace.clear ();
  (* the report parses and carries the decision trace *)
  (match Json.parse (Json.to_string_pretty (Mira.Report.to_json compiled)) with
  | Error e -> Alcotest.failf "report json invalid: %s" e
  | Ok doc -> (
    match Json.member "decisions" doc with
    | Some (Json.List (_ :: _)) -> ()
    | _ -> Alcotest.fail "report has no decisions"));
  (* runtime metrics parse and include fetch-latency percentiles *)
  (match Json.parse (Json.to_string (Mira.Report.runtime_stats_json rt)) with
  | Error e -> Alcotest.failf "runtime stats json invalid: %s" e
  | Ok doc ->
    Alcotest.(check bool) "has p50 fetch latency" true
      (Option.bind
         (Option.bind (Json.member "net.fetch_latency" doc)
            (Json.member "p50_ns"))
         Json.to_float_opt
      <> None));
  (* the trace saw network transfers and at least one accept/rollback *)
  Alcotest.(check bool) "net spans traced" true
    (List.exists (fun e -> e.Trace.ev_cat = "net") events
    || List.exists (fun s -> s.Trace.sp_cat = "net") spans);
  Alcotest.(check bool) "accept or rollback traced" true
    (List.exists
       (fun e ->
         e.Trace.ev_cat = "controller"
         && (e.Trace.ev_name = "accept" || e.Trace.ev_name = "rollback"))
       events);
  (* decision trace agrees *)
  Alcotest.(check bool) "accept or rollback decided" true
    (List.exists
       (function Decision.Accept _ | Decision.Rollback _ -> true | _ -> false)
       compiled.C.c_log);
  (* every trace line is one valid JSON document *)
  let lines =
    String.split_on_char '\n' jsonl
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check bool) "trace non-empty" true (List.length lines > 10);
  List.iter
    (fun l ->
      match Json.parse l with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "bad trace line: %s" e)
    lines

(* A traced search whose losing samples are stopped part-way: the
   stopped runs' events are dropped with them, so what the sink holds
   is well formed (no span left open, no child of the access span a run
   was stopped in), and tracing changes no decision. *)
let test_traced_search_with_aborts () =
  let cfg = { G.config_default with G.num_edges = 3_000; num_nodes = 300 } in
  let far = G.far_bytes cfg in
  let prog = G.build cfg in
  let opts =
    { (C.options_default ~local_budget:(far / 4) ~far_capacity:(4 * far)) with
      C.max_iterations = 2 }
  in
  let render c = List.map Decision.render c.C.c_log in
  let untraced = C.optimize opts prog in
  (* the swap-only profile run alone emits ~300k events *)
  Trace.set_limit 1_000_000;
  Trace.enable ();
  let traced = C.optimize opts prog in
  let spans = Trace.spans () and dropped = Trace.dropped () in
  Trace.disable ();
  Trace.clear ();
  Trace.set_limit 200_000;
  Alcotest.(check bool) "a sample was aborted" true
    (List.exists (function Decision.Sample_aborted _ -> true | _ -> false) traced.C.c_log);
  Alcotest.(check (list string)) "same decisions traced" (render untraced) (render traced);
  Alcotest.(check int) "nothing dropped" 0 dropped;
  Alcotest.(check bool) "runs traced" true
    (List.exists (fun s -> s.Trace.sp_parent <> 0) spans);
  Alcotest.(check (list string)) "trace well formed" []
    (Mira_telemetry.Critical_path.validate spans)

(* Telemetry must never perturb the simulation: work time with the
   trace sink and the stall-attribution ledger enabled equals work
   time with both disabled. *)
let test_no_perturbation () =
  let prog, opts = optimize_small () in
  let compiled = C.optimize opts prog in
  let run_once ~attr () =
    let rt, machine = C.instantiate compiled in
    Mira_telemetry.Attribution.set_enabled (Runtime.attribution rt) attr;
    snd (C.measure_work (Runtime.memsys rt) machine)
  in
  let off = run_once ~attr:false () in
  Trace.enable ();
  let on = run_once ~attr:true () in
  let spans = Trace.spans () in
  Trace.disable ();
  Trace.clear ();
  (* guard against the check going vacuous: the traced run must have
     actually exercised the causal-span paths, including nesting *)
  Alcotest.(check bool) "traced run emitted causal spans" true
    (List.exists (fun s -> s.Trace.sp_parent <> 0) spans);
  Alcotest.(check (float 0.0)) "identical simulated time" off on

(* Resets must clear every run counter: after [reset_timing] all
   published run metrics read zero, and two fresh instantiations of the
   same compiled configuration publish identical statistics. *)
let static_metrics =
  [
    "swap.capacity_bytes"; "cache.section_bytes"; "cache.metadata_bytes";
    "runtime.live_far_bytes"; "runtime.nthreads"; "runtime.tenants";
    "sched.tenants";
  ]

let test_reset_clears_stats () =
  let prog, opts = optimize_small () in
  let compiled = C.optimize opts prog in
  let run_stats () =
    let rt, machine = C.instantiate compiled in
    let _ = C.measure_work (Runtime.memsys rt) machine in
    (rt, Json.to_string (Mira.Report.runtime_stats_json rt))
  in
  let rt1, s1 = run_stats () in
  let _, s2 = run_stats () in
  Alcotest.(check string) "fresh runs publish identical stats" s1 s2;
  (Runtime.memsys rt1).Mira_runtime.Memsys.reset_timing ();
  let reg = Mira.Report.runtime_metrics rt1 in
  List.iter
    (fun name ->
      if not (List.mem name static_metrics) then
        match Metrics.find reg name with
        | Some (Metrics.Counter c) ->
          Alcotest.(check int) (name ^ " zero after reset") 0 c
        | Some (Metrics.Gauge g) ->
          Alcotest.(check (float 0.0)) (name ^ " zero after reset") 0.0 g
        | Some (Metrics.Hist h) ->
          Alcotest.(check int) (name ^ " empty after reset") 0
            (Metrics.hist_count h)
        | None -> Alcotest.failf "metric %s vanished" name)
    (Metrics.names reg)

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json escapes" `Quick test_json_escapes;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "hist empty" `Quick test_hist_empty;
    Alcotest.test_case "hist percentiles" `Quick test_hist_percentiles;
    Alcotest.test_case "hist edge cases" `Quick test_hist_edges;
    Alcotest.test_case "bucket_of = log2 formula" `Quick test_bucket_of_exact;
    Alcotest.test_case "exemplar reservoir" `Quick test_exemplar_reservoir;
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "trace sink" `Quick test_trace_sink;
    Alcotest.test_case "controller cap bounded" `Quick test_ctrl_cap_bounded;
    Alcotest.test_case "log lazy formatting" `Quick test_log_lazy;
    Alcotest.test_case "decision render" `Quick test_decision_render;
    Alcotest.test_case "end-to-end report" `Slow test_end_to_end_report;
    Alcotest.test_case "traced search with aborts" `Slow test_traced_search_with_aborts;
    Alcotest.test_case "no perturbation" `Slow test_no_perturbation;
    Alcotest.test_case "reset clears stats" `Slow test_reset_clears_stats;
  ]
