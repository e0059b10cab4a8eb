(* The critical-path analyzer: schema validation over the trace sink's
   whole spans, exact fixed-point decomposition of tail exemplars, the
   folded export, and a capped sink that keeps spans whole.

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

let paths reg spans =
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
  match field "exemplars" (CP.report reg spans) with
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

(* Run [recipe] on a fresh Mira runtime with the sink enabled; the
   caller reads the sink, then disables and clears it. *)
let run_traced recipe =
  let prog = R.build_program recipe in
  Trace.enable ();
  let rt =
    Runtime.create
      (Runtime.config_default ~local_budget:(16 * 4096)
         ~far_capacity:R.far_capacity)
  in
  let _v = R.run_on (Runtime.memsys rt) prog in
  rt

(* [run_traced], returning the runtime (whose metrics registry holds
   the run's exemplars), the buffered spans and flat events, and the
   drop count. *)
let traced_run recipe =
  let rt = run_traced recipe in
  let spans = Trace.spans () and evs = Trace.events () in
  let dropped = Trace.dropped () in
  Trace.disable ();
  Trace.clear ();
  (rt, spans, evs, dropped)

let test_seeded_exemplars () =
  let rt, spans, _, dropped = traced_run fixed_recipe in
  Alcotest.(check int) "nothing dropped" 0 dropped;
  Alcotest.(check (list string)) "schema well-formed" [] (CP.validate spans);
  let reg = Mira.Report.runtime_metrics rt in
  let ps = paths reg spans in
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
  let folded = CP.folded reg spans in
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
  let rt, spans, _, _ = traced_run fixed_recipe in
  let reg = Mira.Report.runtime_metrics rt in
  List.iter
    (fun p ->
      Alcotest.(check bool) "root is parentless" true
        (List.exists
           (fun s ->
             s.Trace.sp_trace = p.trace && s.Trace.sp_id = p.root
             && s.Trace.sp_parent = 0)
           spans);
      Alcotest.(check string) "root lives on the runtime lane" "runtime"
        p.root_lane)
    (paths reg spans)

(* --- validator ----------------------------------------------------------- *)

let sp ?(parent = 0) ?(cat = "net") ?flow_from ~trace ~span ~b ~e name =
  {
    Trace.sp_name = name;
    sp_cat = cat;
    sp_lane = "net";
    sp_trace = trace;
    sp_id = span;
    sp_parent = parent;
    sp_begin_ns = b;
    sp_end_ns = e;
    sp_args = [];
    sp_flow_from = flow_from;
  }

(* A minimal well-formed trace: root span 1 containing child span 2,
   with a flow arrow into the child. *)
let well_formed =
  [
    sp ~flow_from:"runtime" ~trace:7 ~span:2 ~parent:1 ~b:1.0 ~e:2.0
      "net.read";
    sp ~cat:"runtime" ~trace:7 ~span:1 ~b:0.0 ~e:3.0 "load";
  ]

let check_rejects what spans =
  Alcotest.(check bool) what true (CP.validate spans <> [])

(* Tamper with span 2 only. *)
let child f = List.map (fun s -> if s.Trace.sp_id = 2 then f s else s) well_formed

(* A span record cannot be unended, ended without a begin, or carry a
   dangling flow arrow; what is left to catch is cross-span. *)
let test_validator_tampering () =
  Alcotest.(check (list string)) "well-formed passes" [] (CP.validate well_formed);
  check_rejects "child escaping its parent rejected"
    (child (fun s -> { s with Trace.sp_end_ns = 9.0 }));
  check_rejects "end preceding begin rejected"
    (child (fun s -> { s with Trace.sp_end_ns = 0.25 }));
  check_rejects "unknown parent rejected"
    (child (fun s -> { s with Trace.sp_parent = 99 }));
  check_rejects "duplicate span id rejected"
    (child (fun s -> { s with Trace.sp_id = 1 }));
  check_rejects "parent in another trace rejected"
    (child (fun s -> { s with Trace.sp_trace = 8 }))

(* --- capped sink ----------------------------------------------------------- *)

(* The rendered event lines of [Trace.to_jsonl ()] (metadata records
   left out), as (ph, line) pairs. *)
let rendered () =
  String.split_on_char '\n' (Trace.to_jsonl ())
  |> List.filter_map (fun l ->
         match Json.parse l with
         | Ok j -> (
           match Json.member "ph" j with
           | Some (Json.Str ph) when ph <> "M" -> Some (ph, j)
           | _ -> None)
         | Error _ -> None)

(* A cap that falls between a net member's [b] and its [f]: the sink
   admits or drops the span whole, so every [b] still has its [e],
   every [s] its [f], and no span is left open. *)
let test_capped_trace_keeps_spans_whole () =
  let _ = run_traced fixed_recipe in
  let full = rendered () in
  Trace.disable ();
  Trace.clear ();
  let rec first_flow i = function
    | [] -> Alcotest.fail "no flow arrow in the uncapped trace"
    | ("s", _) :: _ -> i
    | _ :: rest -> first_flow (i + 1) rest
  in
  (* admits the s and b of the first s,b,f,e group, one at a time *)
  Trace.set_limit (first_flow 0 full + 2);
  let _ = run_traced fixed_recipe in
  let capped = rendered () and spans = Trace.spans () in
  let dropped = Trace.dropped () in
  Trace.set_limit 200_000;
  Trace.disable ();
  Trace.clear ();
  Alcotest.(check bool) "the cap was hit" true (dropped > 0);
  let ids ph key =
    List.filter_map
      (fun (p, j) ->
        if p <> ph then None
        else
          match key j with
          | Some (Json.Int i) -> Some i
          | Some (Json.Str s) -> Some (int_of_string s)
          | _ -> Alcotest.failf "%s line without an id" ph)
      capped
    |> List.sort compare
  in
  let span j = Option.bind (Json.member "args" j) (Json.member "span") in
  let id j = Json.member "id" j in
  Alcotest.(check (list int)) "every b has its e" (ids "b" span) (ids "e" span);
  Alcotest.(check (list int)) "every s has its f" (ids "s" id) (ids "f" id);
  Alcotest.(check bool) "no span left open" false
    (List.exists
       (fun e ->
         let n = String.length e in
         n >= 10 && String.sub e (n - 10) 10 = "never ends")
       (CP.validate spans))

(* Decomposition of the synthetic trace: the net child's queue/wire
   args split its self-time, the root keeps the rest as local time,
   and everything telescopes. *)
let test_decompose_synthetic () =
  let q = Mira_telemetry.Json.Float 0.25 and w = Mira_telemetry.Json.Float 0.5 in
  let spans =
    child (fun s ->
        { s with Trace.sp_args = [ ("queue_ns", q); ("wire_ns", w) ] })
  in
  (* One exemplar naming trace 7 makes the report decompose it. *)
  let reg = Metrics.create () in
  let h = Metrics.hist_create () in
  Metrics.hist_observe ~trace:7 h 3.0;
  Metrics.set_hist reg "synthetic" h;
  match paths reg spans with
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
  let _, spans, evs, _ = traced_run fixed_recipe in
  let span_names =
    List.map (fun s -> s.Trace.sp_name) spans
    @ List.filter_map
        (fun e ->
          match e.Trace.ev_phase with
          | Trace.Instant -> Some e.Trace.ev_name
          | Trace.Complete -> None)
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
      let _rt, spans, _, dropped = traced_run recipe in
      (* a capped sink can drop a parent and keep its child;
         validation is only meaningful when nothing was dropped (never
         the case for these small programs, but don't let the property
         hinge on it) *)
      dropped > 0 || CP.validate spans = [])

let suite =
  [
    Alcotest.test_case "seeded exemplars decompose exactly" `Quick
      test_seeded_exemplars;
    Alcotest.test_case "roots at the originating span" `Quick
      test_root_selection;
    Alcotest.test_case "validator catches tampering" `Quick
      test_validator_tampering;
    Alcotest.test_case "capped trace keeps spans whole" `Quick
      test_capped_trace_keeps_spans_whole;
    Alcotest.test_case "synthetic decomposition" `Quick test_decompose_synthetic;
    Alcotest.test_case "doc drift guard" `Quick test_doc_drift_guard;
    QCheck_alcotest.to_alcotest qcheck_span_trees;
  ]
