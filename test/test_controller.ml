(* The iterative controller: section planning, end-to-end optimization,
   the rollback guarantee, and result preservation. *)
module C = Mira.Controller
module SP = Mira.Section_planner
module Pattern = Mira_analysis.Pattern
module Section = Mira_cache.Section
module Machine = Mira_interp.Machine
module Value = Mira_interp.Value
module G = Mira_workloads.Graph_traversal

let params = Mira_sim.Params.default

let summary ~site ~kind ~elem ~ro ~wo =
  {
    Pattern.ss_site = site;
    ss_kind = kind;
    ss_reads = (if wo then 0 else 4);
    ss_writes = (if ro then 0 else 4);
    ss_fields = Some [ (0, 8) ];
    ss_elem = elem;
    ss_read_only = ro;
    ss_write_only = wo;
  }

let test_planner_sequential_stream () =
  let specs =
    SP.plan ~params
      ~summaries:[ (summary ~site:0 ~kind:(Pattern.Sequential 24) ~elem:24 ~ro:true ~wo:false, (0, 0)) ]
      ~site_bytes:(fun _ -> 1 lsl 20)
      ~first_id:1
  in
  match specs with
  | [ s ] ->
    Alcotest.(check bool) "direct" true
      (s.SP.sp_cfg.Section.structure = Section.Direct);
    Alcotest.(check bool) "big line" true (s.SP.sp_cfg.Section.line >= 1024);
    Alcotest.(check bool) "no metadata" true s.SP.sp_cfg.Section.no_meta;
    Alcotest.(check bool) "streaming" true s.SP.sp_seq;
    Alcotest.(check bool) "read discard" true s.SP.sp_private_ok
  | _ -> Alcotest.failf "expected 1 spec, got %d" (List.length specs)

let test_planner_indirect () =
  let specs =
    SP.plan ~params
      ~summaries:[ (summary ~site:1 ~kind:(Pattern.Indirect 0) ~elem:128 ~ro:false ~wo:false, (0, 0)) ]
      ~site_bytes:(fun _ -> 1 lsl 20)
      ~first_id:1
  in
  match specs with
  | [ s ] ->
    Alcotest.(check bool) "set assoc" true
      (match s.SP.sp_cfg.Section.structure with Section.Set_assoc _ -> true | _ -> false);
    Alcotest.(check int) "element line" 128 s.SP.sp_cfg.Section.line;
    Alcotest.(check bool) "not streaming" false s.SP.sp_seq
  | _ -> Alcotest.fail "expected 1 spec"

let test_planner_random_full () =
  let specs =
    SP.plan ~params
      ~summaries:[ (summary ~site:1 ~kind:Pattern.Random ~elem:8 ~ro:false ~wo:false, (0, 0)) ]
      ~site_bytes:(fun _ -> 4096)
      ~first_id:1
  in
  match specs with
  | [ s ] ->
    Alcotest.(check bool) "full assoc" true
      (s.SP.sp_cfg.Section.structure = Section.Full_assoc)
  | _ -> Alcotest.fail "expected 1 spec"

let test_planner_selective_transmission () =
  (* 128B element, only one 8B field touched: two-sided partial payload *)
  let ss = summary ~site:2 ~kind:(Pattern.Indirect 0) ~elem:128 ~ro:false ~wo:false in
  let specs =
    SP.plan ~params ~summaries:[ (ss, (0, 0)) ] ~site_bytes:(fun _ -> 4096) ~first_id:1
  in
  match specs with
  | [ s ] ->
    Alcotest.(check bool) "two sided" true
      (s.SP.sp_cfg.Section.side = Mira_sim.Net.Two_sided);
    Alcotest.(check (option (list (pair int int)))) "partial payload"
      (Some [ (0, 8) ]) s.SP.sp_cfg.Section.payload
  | _ -> Alcotest.fail "expected 1 spec"

(* The payload covers every field the program touches, not only the
   fields of the measured call tree: [init] alone writes field 40, so a
   line without it would hand [work] poison where native code reads the
   value [init] wrote.  An access whose object cannot be resolved could
   reach any byte, so it keeps whole lines. *)
let fields_program ~unresolved =
  let module B = Mira_mir.Builder in
  let module T = Mira_mir.Types in
  let module Ir = Mira_mir.Ir in
  let rec_ty =
    T.struct_ "rec" (List.init 16 (fun f -> (Printf.sprintf "f%d" f, T.I64)))
  in
  let n = B.iconst 64 in
  let b = B.program "fields" in
  B.func b "init" [ ("recs", T.Ptr rec_ty); ("idx", T.Ptr T.I64) ] T.Unit (fun fb args ->
      match args with
      | [ recs; idx ] ->
        B.for_ fb ~lo:(B.iconst 0) ~hi:n (fun i ->
            B.store fb T.I64
              ~ptr:(B.gep fb ~base:recs ~index:i ~elem:rec_ty ~field_off:40 ())
              ~value:i;
            B.store fb T.I64
              ~ptr:(B.gep fb ~base:idx ~index:i ~elem:T.I64 ())
              ~value:(B.bin fb Ir.Rem (B.bin fb Ir.Mul i (B.iconst 17)) n))
      | _ -> assert false);
  B.func b "work" [ ("recs", T.Ptr rec_ty); ("idx", T.Ptr T.I64) ] T.Unit (fun fb args ->
      match args with
      | [ recs; idx ] ->
        B.for_ fb ~lo:(B.iconst 0) ~hi:n (fun i ->
            let j = B.load fb T.I64 (B.gep fb ~base:idx ~index:i ~elem:T.I64 ()) in
            let j = B.bin fb Ir.Rem j n in
            List.iter
              (fun off ->
                let p = B.gep fb ~base:recs ~index:j ~elem:rec_ty ~field_off:off () in
                B.store fb T.I64 ~ptr:p
                  ~value:(B.bin fb Ir.Add (B.load fb T.I64 p) (B.iconst 1)))
              [ 0; 8 ])
      | _ -> assert false);
  (* Called on two objects, [peek]'s pointer resolves to neither. *)
  if unresolved then
    B.func b "peek" [ ("p", T.Ptr T.I64) ] T.I64 (fun fb args ->
        match args with
        | [ p ] -> B.ret fb (B.load fb T.I64 p)
        | _ -> assert false);
  B.func b "main" [] T.I64 (fun fb _ ->
      let recs, _ = B.alloc fb ~name:"recs" rec_ty n in
      let idx, _ = B.alloc fb ~name:"idx" T.I64 n in
      ignore (B.call fb "init" [ recs; idx ]);
      ignore (B.call fb "work" [ recs; idx ]);
      if unresolved then begin
        let other, _ = B.alloc fb ~name:"other" T.I64 n in
        ignore (B.call fb "peek" [ idx ]);
        ignore (B.call fb "peek" [ other ])
      end;
      B.ret fb (B.load fb T.I64 (B.gep fb ~base:recs ~index:(B.iconst 3) ~elem:rec_ty ~field_off:40 ())));
  B.finish b ~entry:"main"

let test_planner_fields_program_wide () =
  let payload ~unresolved =
    let prog = fields_program ~unresolved in
    let site = Mira_workloads.Workload_util.site_id prog "recs" in
    match SP.plan ~params ~summaries:(C.site_summaries prog [ site ])
            ~site_bytes:(fun _ -> 8192) ~first_id:1 with
    | [ s ] -> s.SP.sp_cfg.Section.payload
    | specs -> Alcotest.failf "expected 1 spec, got %d" (List.length specs)
  in
  Alcotest.(check (option (list (pair int int)))) "fields of every function"
    (Some [ (0, 16); (40, 8) ]) (payload ~unresolved:false);
  Alcotest.(check (option (list (pair int int)))) "unresolved access: whole line"
    None (payload ~unresolved:true)

let test_planner_grouping () =
  (* identical streaming decisions merge even across disjoint lifetimes;
     identical non-streaming ones merge only when lifetimes overlap *)
  let stream site interval =
    (summary ~site ~kind:(Pattern.Sequential 8) ~elem:8 ~ro:true ~wo:false, interval)
  in
  let rw site interval =
    (summary ~site ~kind:Pattern.Random ~elem:8 ~ro:false ~wo:false, interval)
  in
  let specs =
    SP.plan ~params
      ~summaries:[ stream 0 (0, 0); stream 1 (5, 5); rw 2 (0, 0); rw 3 (5, 5) ]
      ~site_bytes:(fun _ -> 4096)
      ~first_id:1
  in
  Alcotest.(check int) "streams merge, rw stay apart" 3 (List.length specs)

let test_planner_line_rule () =
  let small = SP.seq_line_bytes ~params ~elem:8 in
  Alcotest.(check bool) "network sweet spot" true (small >= 1024 && small <= 8192);
  let sized = SP.seq_section_bytes ~params ~line:2048 ~body_ops:64 in
  Alcotest.(check bool) "window at least a few lines" true (sized >= 8 * 2048)

let optimize_graph ?(budget_frac = 0.3) ?(iters = 3) () =
  let cfg = { G.config_default with G.num_edges = 8_000; num_nodes = 800 } in
  let prog = G.build cfg in
  let far = G.far_bytes cfg in
  let opts =
    { (C.options_default ~local_budget:(int_of_float (float_of_int far *. budget_frac))
         ~far_capacity:(4 * far))
      with C.max_iterations = iters }
  in
  (prog, opts, C.optimize opts prog)

let test_controller_improves_graph () =
  let _, _, compiled = optimize_graph () in
  Alcotest.(check bool) "created sections" true
    (List.length compiled.C.c_assignments >= 1);
  (* the measured best must not be worse than the initial swap run:
     the rollback guarantee *)
  Alcotest.(check bool) "iterations ran" true (compiled.C.c_iterations >= 0);
  Alcotest.(check bool) "log kept" true (List.length compiled.C.c_log > 0)

let test_controller_rollback_guarantee () =
  (* With sections disabled the result must equal the swap-only run;
     with them enabled the final time can never exceed it. *)
  let prog, opts, compiled = optimize_graph () in
  let swap_only = C.optimize { opts with C.feat_sections = false } prog in
  Alcotest.(check bool) "never worse than swap" true
    (compiled.C.c_work_ns <= swap_only.C.c_work_ns *. 1.001)

let test_controller_result_preserved () =
  let prog, _, compiled = optimize_graph () in
  let native = Mira_baselines.Native.create ~capacity:(1 lsl 24) () in
  let expected = Machine.run (Machine.create native prog) in
  let v, _ = C.run compiled in
  Alcotest.(check bool) "checksum preserved" true (Value.equal expected v)

let test_controller_ablation_flags () =
  let cfg = { G.config_default with G.num_edges = 3_000; num_nodes = 300 } in
  let prog = G.build cfg in
  let far = G.far_bytes cfg in
  let base =
    { (C.options_default ~local_budget:(far / 4) ~far_capacity:(4 * far)) with
      C.max_iterations = 2 }
  in
  (* all-off must behave like plain swap (no sections assigned) *)
  let off =
    C.optimize
      { base with
        C.feat_sections = false; feat_prefetch = false; feat_evict = false;
        feat_fusion = false; feat_native = false }
      prog
  in
  Alcotest.(check int) "no sections" 0 (List.length off.C.c_assignments);
  let v, _ = C.run off in
  let native = Mira_baselines.Native.create ~capacity:(4 * far) () in
  Alcotest.(check bool) "all-off correct" true
    (Value.equal (Machine.run (Machine.create native prog)) v)

let test_report () =
  let _, _, compiled = optimize_graph () in
  let text = Mira.Report.describe compiled in
  Alcotest.(check bool) "mentions iterations" true
    (String.length text > 40);
  let rt, _ = C.instantiate compiled in
  let _ = C.run compiled in
  let stats = Mira.Report.runtime_stats rt in
  Alcotest.(check bool) "stats render" true (String.length stats > 40)

let test_rollback_under_faults () =
  (* A lossy link with tight timeouts punishes the sectioned
     configuration (many small line fetches) more than the swap-only
     baseline (fewer, page-sized transfers): the regression must yield
     a [Decision.Rollback] and the returned configuration must be the
     previous best, not the regressed one. *)
  let cfg = { G.config_default with G.num_edges = 8_000; num_nodes = 800 } in
  let prog = G.build cfg in
  let far = G.far_bytes cfg in
  let fault =
    { Mira_sim.Net.Fault.default with
      Mira_sim.Net.Fault.drop_prob = 0.35; seed = 11; timeout_ns = 3_000.0;
      backoff_ns = 6_000.0; max_retries = 3 }
  in
  let opts =
    { (C.options_default ~local_budget:(far / 4) ~far_capacity:(4 * far)) with
      C.max_iterations = 2;
      dataplane =
        { Mira_sim.Net.dp_default with Mira_sim.Net.fault = Some fault } }
  in
  let compiled = C.optimize opts prog in
  let measures =
    List.filter_map
      (function
        | Mira_telemetry.Decision.Measure { work_ns; _ } -> Some work_ns
        | _ -> None)
      compiled.C.c_log
  in
  let rollbacks =
    List.filter_map
      (function
        | Mira_telemetry.Decision.Rollback { reason; _ } -> Some reason
        | _ -> None)
      compiled.C.c_log
  in
  Alcotest.(check bool) "a regression was rolled back" true
    (List.exists (fun r -> r = "regression") rollbacks);
  (* Restored, not kept: the final work time is the best measure, and
     every other measured configuration was no better. *)
  List.iter
    (fun m ->
      Alcotest.(check bool) "final config is the best measured" true
        (compiled.C.c_work_ns <= m +. 1e-6))
    measures;
  (* The rolled-back configuration still computes the right answer. *)
  let native = Mira_baselines.Native.create ~capacity:(4 * far) () in
  let expected = Machine.run (Machine.create native prog) in
  let v, _ = C.run compiled in
  Alcotest.(check bool) "result preserved under faults" true
    (Value.equal expected v)

let test_work_function () =
  let prog = G.build { G.config_default with G.num_edges = 100; num_nodes = 16 } in
  Alcotest.(check string) "work" "work" (C.work_function prog)

(* Golden decisions of two small searches, captured before the controller
   reused any simulation: a change to how the search evaluates
   configurations must leave every rendered decision and the bits of the
   best work time exactly as they were.  Only the losing samples'
   records differ: a sample is stopped once its work passes twice the
   best, and reads "aborted past" that bound.  The second
   config samples two placements on an erasure-coded cluster with an
   outage schedule, where flat and rotate measure differently, so
   results stored without the cluster in their key would show here. *)
let pinned_graph () =
  let cfg = { G.config_default with G.num_edges = 3_000; num_nodes = 300 } in
  let far = G.far_bytes cfg in
  ( G.build cfg,
    { (C.options_default ~local_budget:(far / 4) ~far_capacity:(4 * far)) with
      C.max_iterations = 2 } )

(* Iteration 1 samples the payload node section (set8, 16 B + 32 B of
   metadata a slot) in its resident form (16 B a slot, no metadata),
   and then below its resident size, where it is stopped past twice the
   resident sample; the search accepts the resident sample.  Iteration 2
   extends that plan with the edge array as a stream, samples the node
   section again beside it, and accepts; its resident sample is
   compiled with no prefetch into the node section.  [samples] are the
   sample lines' records, in the order logged (ascending size). *)
let pinned_iterations ~samples ~initial ~first ~best =
  let s2, s5, s1, s3, s5' = samples in
  [
    "iteration 1: functions=[work] sites=[2]";
    "  site 2: indirect(via site 1) elem=128B ro=false wo=false";
    "  sample sec1 size=2K " ^ s2;
    "  sample sec1 size=5K resident " ^ s5;
    "  section sec1 line=128B size=5K resident sites=[2]";
    Printf.sprintf "iteration 1: work=%s ms (best %s ms)" first initial;
    Printf.sprintf "iteration 1: accepted at %s ms" first;
    "iteration 2: functions=[work] sites=[2,1]";
    "  site 2: indirect(via site 1) elem=128B ro=false wo=false";
    "  site 1: sequential(24B) elem=24B ro=true wo=false";
    "  sample sec2 size=1K " ^ s1;
    "  sample sec2 size=3K " ^ s3;
    "  sample sec2 size=5K resident " ^ s5';
    "  section sec1 line=2064B size=10K direct sites=[1]";
    "  section sec2 line=128B size=5K resident sites=[2]";
    Printf.sprintf "iteration 2: work=%s ms (best %s ms)" best first;
    Printf.sprintf "iteration 2: accepted at %s ms" best;
  ]

let check_pinned name opts prog ~log ~work_bits =
  let render c = List.map Mira_telemetry.Decision.render c.C.c_log in
  let first = C.optimize opts prog in
  Alcotest.(check (list string)) (name ^ " decisions") log (render first);
  Alcotest.(check int64) (name ^ " work_ns bits") work_bits
    (Int64.bits_of_float first.C.c_work_ns);
  let again = C.optimize opts prog in
  Alcotest.(check (list string)) (name ^ " decisions, second search")
    (render first) (render again);
  Alcotest.(check int64) (name ^ " work_ns bits, second search")
    (Int64.bits_of_float first.C.c_work_ns)
    (Int64.bits_of_float again.C.c_work_ns)

let test_pinned_decisions () =
  let prog, opts = pinned_graph () in
  check_pinned "graph" opts prog ~work_bits:4682803150692055778L
    ~log:
      ("initial swap run: work=94.040 ms"
      :: pinned_iterations
           ~samples:
             ( "aborted past 0.65ms", "work=0.33ms", "aborted past 0.23ms",
               "aborted past 0.23ms", "work=0.12ms" )
           ~initial:"94.040" ~first:"0.327" ~best:"0.117")

let test_pinned_placement_decisions () =
  let prog, opts = pinned_graph () in
  let module Cl = Mira_sim.Cluster in
  let schedule =
    Cl.schedule_of_seed ~overlap:false ~seed:7 ~nodes:4 ~crashes:2
      ~horizon_ns:2e6 ~down_ns:2e5
  in
  let opts =
    { opts with C.cluster = Cl.ec ~chunk:256 ~nodes:4 ~k:2 ~m:1 schedule }
  in
  check_pinned "placement" opts prog ~work_bits:4682803150692055778L
    ~log:
      ([
         "initial swap run: work=94.702 ms";
         "  sample placement=flat work=94.61ms";
         "  sample placement=rotate work=94.70ms";
       ]
      @ pinned_iterations
          ~samples:
            ( "aborted past 0.69ms", "work=0.35ms", "aborted past 0.23ms",
              "aborted past 0.23ms", "work=0.12ms" )
          ~initial:"94.702" ~first:"0.346" ~best:"0.117")

(* A two-thread search over the parallel edge loop: iteration 2's
   smaller node-section samples lose to the resident one and are
   stopped inside the parallel region, where each worker's clock
   carries the limit.  Stopping them must not disturb anything else:
   a second search decides the same, and the chosen plan's own
   unbounded run takes exactly the work time the search measured. *)
let test_parallel_search_aborts () =
  let cfg = { G.config_default with G.num_edges = 3_000; num_nodes = 300; parallel = true } in
  let far = G.far_bytes cfg in
  let prog = G.build cfg in
  let opts =
    { (C.options_default ~local_budget:(far / 4) ~far_capacity:(4 * far)) with
      C.max_iterations = 2; nthreads = 2 }
  in
  let render c = List.map Mira_telemetry.Decision.render c.C.c_log in
  let first = C.optimize opts prog in
  let again = C.optimize opts prog in
  Alcotest.(check bool) "a losing sample was aborted" true
    (List.exists
       (function Mira_telemetry.Decision.Sample_aborted _ -> true | _ -> false)
       first.C.c_log);
  Alcotest.(check (list string)) "decisions, second search" (render first) (render again);
  let _, run_ns = C.run first in
  Alcotest.(check int64) "work_ns bits of the plan's own run"
    (Int64.bits_of_float first.C.c_work_ns) (Int64.bits_of_float run_ns);
  Alcotest.(check int64) "work_ns bits, second search"
    (Int64.bits_of_float first.C.c_work_ns)
    (Int64.bits_of_float again.C.c_work_ns)

(* Two more iterations after the accepted [2,1] plan select the same
   sites in the same order: that selection is decided, so they are
   skipped, and iteration 2's plan is the one returned. *)
let test_repeated_plan_keeps_sections () =
  let prog, opts = pinned_graph () in
  let c = C.optimize { opts with C.max_iterations = 4 } prog in
  let module D = Mira_telemetry.Decision in
  (* iteration [i]'s select and section lines, without the iteration *)
  let planned i =
    let prefix = Printf.sprintf "iteration %d: " i in
    let n = String.length prefix in
    List.filter_map
      (fun d ->
        match d with
        | (D.Select _ | D.Plan_section _ | D.Repeat _) when D.iteration d = i ->
          let line = D.render d in
          Some
            (if String.starts_with ~prefix line then
               String.sub line n (String.length line - n)
             else line)
        | _ -> None)
      c.C.c_log
  in
  Alcotest.(check (list string)) "iteration 2"
    [
      "functions=[work] sites=[2,1]";
      "  section sec1 line=2064B size=10K direct sites=[1]";
      "  section sec2 line=128B size=5K resident sites=[2]";
    ]
    (planned 2);
  List.iter
    (fun i ->
      Alcotest.(check (list string)) (Printf.sprintf "iteration %d" i)
        [ "functions=[work] sites=[2,1]"; "selection decided at iteration 2, skipped" ]
        (planned i))
    [ 3; 4 ];
  Alcotest.(check int) "iteration 2's plan kept" 2 c.C.c_iterations

(* [optimize] picks its own log level from [verbose] but must hand the
   caller's level back when it returns. *)
let test_log_level_restored () =
  let module Log = Mira_telemetry.Log in
  let saved = Log.level () in
  Fun.protect
    ~finally:(fun () -> Log.set_level saved)
    (fun () ->
      Log.set_level Log.Debug;
      let prog, opts = pinned_graph () in
      ignore (C.optimize { opts with C.feat_sections = false } prog);
      Alcotest.(check bool) "caller's Debug level kept" true
        (Log.level () = Log.Debug))

let suite =
  [
    Alcotest.test_case "planner stream" `Quick test_planner_sequential_stream;
    Alcotest.test_case "planner indirect" `Quick test_planner_indirect;
    Alcotest.test_case "planner fields program-wide" `Quick test_planner_fields_program_wide;
    Alcotest.test_case "planner random" `Quick test_planner_random_full;
    Alcotest.test_case "planner selective" `Quick test_planner_selective_transmission;
    Alcotest.test_case "planner grouping" `Quick test_planner_grouping;
    Alcotest.test_case "planner line rule" `Quick test_planner_line_rule;
    Alcotest.test_case "controller improves" `Slow test_controller_improves_graph;
    Alcotest.test_case "controller rollback" `Slow test_controller_rollback_guarantee;
    Alcotest.test_case "controller preserves result" `Slow test_controller_result_preserved;
    Alcotest.test_case "controller ablation" `Slow test_controller_ablation_flags;
    Alcotest.test_case "rollback under faults" `Slow test_rollback_under_faults;
    Alcotest.test_case "work function" `Quick test_work_function;
    Alcotest.test_case "report" `Slow test_report;
    Alcotest.test_case "pinned decisions" `Slow test_pinned_decisions;
    Alcotest.test_case "pinned placement decisions" `Slow
      test_pinned_placement_decisions;
    Alcotest.test_case "repeated plan keeps its sections" `Slow
      test_repeated_plan_keeps_sections;
    Alcotest.test_case "log level restored" `Quick test_log_level_restored;
    Alcotest.test_case "parallel search aborts" `Slow test_parallel_search_aborts;
  ]
