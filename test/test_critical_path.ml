(* The critical-path analyzer: span reconstruction and schema
   validation over the trace sink's async begin/end events, exact
   fixed-point decomposition of tail exemplars, and the folded export.

   The exactness claim under test is the one the analyzer's design
   leans on: self-times telescope over the containment tree, so an
   exemplar's queue/wire/retry/fill/recovery/local segments sum to its
   end-to-end duration with int64 equality, not within-epsilon. *)
module Trace = Mira_telemetry.Trace
module Metrics = Mira_telemetry.Metrics
module CP = Mira_telemetry.Critical_path
module Json = Mira_telemetry.Json
module Runtime = Mira_runtime.Runtime
module R = Test_random_programs

(* The cause segments, in the order the report lists them. *)
let segments = [ "queue"; "wire"; "retry"; "fill"; "recovery"; "local" ]

(* One decomposed exemplar, read back from [CP.report]. *)
type path = {
  hist : string;
  trace : int;
  root : int;
  root_lane : string;
  spans : int;
  total_fp : int64;
  segments_fp : (string * int64) list;
}

let paths reg evs =
  let field k j =
    match Json.member k j with
    | Some v -> v
    | None -> Alcotest.failf "report lacks %S" k
  in
  let str k j =
    match field k j with Json.Str s -> s | _ -> Alcotest.failf "%S not a string" k
  in
  let int k j =
    match field k j with Json.Int i -> i | _ -> Alcotest.failf "%S not an int" k
  in
  let path ex =
    let cp = field "critical_path" ex in
    {
      hist = str "hist" ex;
      trace = int "trace" cp;
      root = int "root" cp;
      root_lane = str "root_lane" cp;
      spans = int "spans" cp;
      total_fp = Int64.of_string (str "total_fp" cp);
      segments_fp =
        (match field "segments_fp" cp with
        | Json.Obj kvs ->
          List.map
            (fun (k, v) ->
              match v with
              | Json.Str s -> (k, Int64.of_string s)
              | _ -> Alcotest.failf "segment %S not a string" k)
            kvs
        | _ -> Alcotest.fail "segments_fp not an object");
    }
  in
  match field "exemplars" (CP.report reg evs) with
  | Json.List exs -> List.map path exs
  | _ -> Alcotest.fail "exemplars not a list"

(* A fixed recipe with enough far traffic to populate every access
   histogram: sequential and strided reads (prefetchable), an indirect
   RMW (demand faults), and writes (writeback traffic). *)
let fixed_recipe =
  {
    R.arrays = [ { R.a_elems = 512 }; { R.a_elems = 256 }; { R.a_elems = 320 } ];
    loops =
      [
        (96, [ R.Seq_read 0; R.Indirect_rmw (0, 1) ]);
        (64, [ R.Strided_read (2, 3); R.Seq_write 0 ]);
        (48, [ R.Rev_read 1; R.Seq_read 2 ]);
      ];
    records = [];
    streams = [];
    picks = [];
    tabled = None;
  }

(* Run [recipe] on a fresh Mira runtime under tracing; returns the
   runtime (whose metrics registry holds the run's exemplars), the
   buffered events, and the drop count. *)
let traced_run recipe =
  let prog = R.build_program recipe in
  Trace.enable ();
  let rt =
    Runtime.create
      (Runtime.config_default ~local_budget:(16 * 4096)
         ~far_capacity:R.far_capacity)
  in
  let _v = R.run_on (Runtime.memsys rt) prog in
  let evs = Trace.events () in
  let dropped = Trace.dropped () in
  Trace.disable ();
  Trace.clear ();
  (rt, evs, dropped)

let test_seeded_exemplars () =
  let rt, evs, dropped = traced_run fixed_recipe in
  Alcotest.(check int) "nothing dropped" 0 dropped;
  Alcotest.(check (list string)) "schema well-formed" [] (CP.validate evs);
  let reg = Mira.Report.runtime_metrics rt in
  let ps = paths reg evs in
  Alcotest.(check bool) "at least one exemplar path" true (ps <> []);
  (* every histogram that recorded traced exemplars gets >= 1
     decomposition — the p99 a report shows always links to a trace *)
  List.iter
    (fun name ->
      match Metrics.find reg name with
      | Some (Metrics.Hist h)
        when List.exists
               (fun e -> e.Metrics.ex_trace <> 0)
               (Metrics.hist_exemplars h) ->
        Alcotest.(check bool)
          (name ^ " has a decomposed exemplar")
          true
          (List.exists (fun p -> p.hist = name) ps)
      | _ -> ())
    (Metrics.names reg);
  let hists = List.map (fun p -> p.hist) ps in
  Alcotest.(check bool) "covers swap faults" true
    (List.mem "swap.fault_latency" hists);
  Alcotest.(check bool) "covers net fetches" true
    (List.mem "net.fetch_latency" hists);
  (* exact fixed-point telescoping, per exemplar *)
  List.iter
    (fun p ->
      let sum =
        List.fold_left (fun acc (_, fp) -> Int64.add acc fp) 0L p.segments_fp
      in
      Alcotest.(check int64)
        (Printf.sprintf "%s trace %d segments telescope" p.hist p.trace)
        p.total_fp sum;
      Alcotest.(check bool) "walked at least the root" true (p.spans >= 1);
      Alcotest.(check (list string)) "every segment present once" segments
        (List.map fst p.segments_fp))
    ps;
  (* the folded export carries the same exact sums: every line is
     [hist;root;segment <fp>] with a positive integer weight *)
  let folded = CP.folded reg evs in
  let lines =
    String.split_on_char '\n' folded |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "folded non-empty" true (lines <> []);
  List.iter
    (fun l ->
      match String.rindex_opt l ' ' with
      | None -> Alcotest.failf "folded line without weight: %s" l
      | Some i ->
        let stack = String.sub l 0 i in
        let weight =
          String.sub l (i + 1) (String.length l - i - 1) |> Int64.of_string
        in
        Alcotest.(check bool)
          (Printf.sprintf "folded weight positive: %s" l)
          true (weight > 0L);
        Alcotest.(check int)
          (Printf.sprintf "folded stack has 3 frames: %s" l)
          2
          (String.fold_left
             (fun acc c -> if c = ';' then acc + 1 else acc)
             0 stack))
    lines

(* The analyzer roots a decomposition at the access's originating span
   (the first-minted parentless span of the trace), not at any later
   flow-linked child. *)
let test_root_selection () =
  let rt, evs, _ = traced_run fixed_recipe in
  let reg = Mira.Report.runtime_metrics rt in
  List.iter
    (fun p ->
      Alcotest.(check bool) "root is parentless" true
        (List.exists
           (fun e ->
             e.Trace.ev_phase = Trace.Begin && e.Trace.ev_trace = p.trace
             && e.Trace.ev_span = p.root && e.Trace.ev_parent = 0)
           evs);
      Alcotest.(check string) "root lives on the runtime lane" "runtime"
        p.root_lane)
    (paths reg evs)

(* --- validator ----------------------------------------------------------- *)

let ev ?(args = []) ?(parent = 0) ?(cat = "net") ~phase ~trace ~span ~ts name =
  {
    Trace.ev_name = name;
    ev_cat = cat;
    ev_phase = phase;
    ev_ts_ns = ts;
    ev_dur_ns = 0.0;
    ev_lane = "net";
    ev_trace = trace;
    ev_span = span;
    ev_parent = parent;
    ev_args = args;
  }

(* A minimal well-formed trace: root span 1 containing child span 2,
   plus a flow arrow into the child. *)
let well_formed =
  [
    ev ~cat:"runtime" ~phase:Trace.Begin ~trace:7 ~span:1 ~ts:0.0 "load";
    ev ~phase:Trace.Flow_start ~trace:7 ~span:2 ~ts:0.5 "net.link";
    ev ~phase:Trace.Begin ~trace:7 ~span:2 ~parent:1 ~ts:1.0 "net.read";
    ev ~phase:Trace.Flow_end ~trace:7 ~span:2 ~ts:1.0 "net.link";
    ev ~phase:Trace.End ~trace:7 ~span:2 ~ts:2.0 "net.read";
    ev ~cat:"runtime" ~phase:Trace.End ~trace:7 ~span:1 ~ts:3.0 "load";
  ]

let check_rejects what evs =
  Alcotest.(check bool) what true (CP.validate evs <> [])

let test_validator_tampering () =
  Alcotest.(check (list string)) "well-formed passes" [] (CP.validate well_formed);
  check_rejects "unended span rejected"
    (List.filter
       (fun e -> not (e.Trace.ev_phase = Trace.End && e.Trace.ev_span = 2))
       well_formed);
  check_rejects "end without begin rejected"
    (List.filter
       (fun e -> not (e.Trace.ev_phase = Trace.Begin && e.Trace.ev_span = 2))
       well_formed);
  check_rejects "child escaping its parent rejected"
    (List.map
       (fun e ->
         if e.Trace.ev_phase = Trace.End && e.Trace.ev_span = 2 then
           { e with Trace.ev_ts_ns = 9.0 }
         else e)
       well_formed);
  check_rejects "end preceding begin rejected"
    (List.map
       (fun e ->
         if e.Trace.ev_phase = Trace.End && e.Trace.ev_span = 2 then
           { e with Trace.ev_ts_ns = 0.25 }
         else e)
       well_formed);
  check_rejects "unknown parent rejected"
    (List.map
       (fun e ->
         if e.Trace.ev_phase = Trace.Begin && e.Trace.ev_span = 2 then
           { e with Trace.ev_parent = 99 }
         else e)
       well_formed);
  check_rejects "dangling flow end rejected"
    (List.filter (fun e -> e.Trace.ev_phase <> Trace.Flow_start) well_formed);
  check_rejects "flow into a never-emitted span rejected"
    (List.map
       (fun e ->
         match e.Trace.ev_phase with
         | Trace.Flow_start | Trace.Flow_end -> { e with Trace.ev_span = 42 }
         | _ -> e)
       well_formed)

(* Decomposition of the synthetic trace: the net child's queue/wire
   args split its self-time, the root keeps the rest as local time,
   and everything telescopes. *)
let test_decompose_synthetic () =
  let q = Mira_telemetry.Json.Float 0.25 and w = Mira_telemetry.Json.Float 0.5 in
  let evs =
    List.map
      (fun e ->
        if e.Trace.ev_phase = Trace.Begin && e.Trace.ev_span = 2 then
          { e with Trace.ev_args = [ ("queue_ns", q); ("wire_ns", w) ] }
        else e)
      well_formed
  in
  (* One exemplar naming trace 7 makes the report decompose it. *)
  let reg = Metrics.create () in
  let h = Metrics.hist_create () in
  Metrics.hist_observe ~trace:7 h 3.0;
  Metrics.set_hist reg "synthetic" h;
  match paths reg evs with
  | [ d ] ->
    let fp ns = Int64.of_float (ns *. 65536.0) in
    Alcotest.(check int) "trace 7" 7 d.trace;
    Alcotest.(check int64) "total is the root duration" (fp 3.0) d.total_fp;
    Alcotest.(check int) "two spans walked" 2 d.spans;
    let seg s = List.assoc s d.segments_fp in
    Alcotest.(check int64) "queue from args" (fp 0.25) (seg "queue");
    Alcotest.(check int64) "wire from args" (fp 0.5) (seg "wire");
    (* child self = 1.0; residual after queue+wire lands in retry *)
    Alcotest.(check int64) "retry takes the residual" (fp 0.25) (seg "retry");
    Alcotest.(check int64) "root keeps local time" (fp 2.0) (seg "local");
    let sum =
      List.fold_left (fun acc (_, v) -> Int64.add acc v) 0L d.segments_fp
    in
    Alcotest.(check int64) "telescopes" d.total_fp sum
  | ps -> Alcotest.failf "%d decompositions for one exemplar" (List.length ps)

(* --- doc drift guard ----------------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* docs/OBSERVABILITY.md must keep up with the causal-tracing surface:
   every span name a traced run emits, every segment, and the report's
   field names have to appear in the doc. *)
let test_doc_drift_guard () =
  let doc =
    In_channel.with_open_bin "../docs/OBSERVABILITY.md" In_channel.input_all
  in
  let _, evs, _ = traced_run fixed_recipe in
  let span_names =
    List.filter_map
      (fun e ->
        match e.Trace.ev_phase with
        | Trace.Begin | Trace.Instant -> Some e.Trace.ev_name
        | _ -> None)
      evs
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "traced run emits spans to document" true
    (span_names <> []);
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "span %S documented" n)
        true (contains doc n))
    span_names;
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "segment %S documented" s)
        true (contains doc s))
    segments;
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (Printf.sprintf "%S documented" key)
        true (contains doc key))
    [
      "--critical-path"; "span_ctx"; "dropped_events"; "schema_errors";
      "exemplars"; "total_fp"; "segments_fp"; "value_ns"; "set_ctrl_limit";
      "ph:\"b\""; "ph:\"s\"";
    ]

(* --- property: random programs ------------------------------------------- *)

let qcheck_span_trees =
  QCheck.Test.make ~name:"span trees well-formed across random programs"
    ~count:15
    (QCheck.make ~print:R.pp_recipe R.gen_recipe)
    (fun recipe ->
      let _rt, evs, dropped = traced_run recipe in
      (* a capped sink truncates span groups; validation is only
         meaningful when nothing was dropped (never the case for these
         small programs, but don't let the property hinge on it) *)
      dropped > 0 || CP.validate evs = [])

let suite =
  [
    Alcotest.test_case "seeded exemplars decompose exactly" `Quick
      test_seeded_exemplars;
    Alcotest.test_case "roots at the originating span" `Quick
      test_root_selection;
    Alcotest.test_case "validator catches tampering" `Quick
      test_validator_tampering;
    Alcotest.test_case "synthetic decomposition" `Quick test_decompose_synthetic;
    Alcotest.test_case "doc drift guard" `Quick test_doc_drift_guard;
    QCheck_alcotest.to_alcotest qcheck_span_trees;
  ]
