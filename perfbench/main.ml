(* One benchmark for the Mira reproduction: the paper's slowdown, the
   serving tail, and the simulator's own host time, on three workloads.

     perfbench/run.sh --workload graph_20|micro_sum_20|kv_zipf \
       --seed N --seconds S --trace 0|1

   A human-readable report goes to stderr.  The last line of stdout is
   one JSON object {correct, attempted, failed, metrics}: with
   --trace 0 the end-to-end metrics, with --trace 1 the per-layer
   metrics of a separate instrumented run.  README.md defines every
   metric; BENCHMARK.json lists them with their bounds. *)

module C = Mira.Controller
module Ir = Mira_mir.Ir
module Machine = Mira_interp.Machine
module Value = Mira_interp.Value
module Runtime = Mira_runtime.Runtime
module Net = Mira_sim.Net
module Sched = Mira_sim.Sched
module Section = Mira_cache.Section
module Swap = Mira_cache.Swap_section
module Manager = Mira_cache.Manager
module Attribution = Mira_telemetry.Attribution
module Decision = Mira_telemetry.Decision
module Metrics = Mira_telemetry.Metrics
module Pipeline = Mira_passes.Pipeline
module K = Mira_workloads.Kv_serving

let time = Spans.time
let span = Spans.with_span
let median = Spans.median
let at_ref = Spans.at_ref

(* --- metric catalogue ---------------------------------------------------- *)

(* Every name here is printed on every workload; a layer a workload
   bypasses reads 0.  Simulated times carry [sim_*] units, host times
   plain ones. *)
let end_to_end =
  [
    ("mira_slowdown", "x"); ("wire_mb", "MB"); ("throughput_kops", "kop/s");
    ("setup_s", "s"); ("compile_s", "s"); ("run_s", "s"); ("live_heap_mb", "MB");
  ]

let per_layer =
  [
    ("interp.ops", "count"); ("interp.host_ns_per_op", "ns");
    ("runtime.calls", "count"); ("runtime.host_ns_per_call", "ns");
    ("runtime.stall_ms", "sim_ms");
  ]
  @ List.map
      (fun c -> ("stall." ^ Attribution.cause_name c ^ "_ms", "sim_ms"))
      Attribution.causes
  @ [
      ("cache.hits", "count"); ("cache.misses", "count");
      ("cache.hit_ratio", "frac"); ("cache.hit_ms", "sim_ms");
      ("cache.miss_ms", "sim_ms"); ("cache.prefetch_stall_ms", "sim_ms");
      ("cache.late_prefetch", "count"); ("cache.evictions", "count");
      ("cache.writebacks", "count"); ("swap.faults", "count");
      ("swap.readahead_pages", "count");
      ("net.msgs", "count"); ("net.bytes_in", "B"); ("net.bytes_out", "B");
      ("net.bytes_prefetch", "B"); ("net.bytes_writeback", "B");
      ("net.fetch_p50_ns", "sim_ns"); ("net.fetch_p99_ns", "sim_ns");
      ("net.retries", "count"); ("net.timeouts", "count");
      ("sched.dispatched", "count"); ("sched.host_ns_per_dispatch", "ns");
      ("controller.runs", "count"); ("controller.iterations", "count");
      ("controller.accepts", "count"); ("controller.rollbacks", "count");
      ("controller.best_candidate_ms", "sim_ms");
      ("controller.host_s_per_run", "s");
      ("passes.compile_ms", "ms"); ("passes.selected_sites", "count");
      ("fastswap.host_s", "s"); ("fastswap.slowdown", "x");
      ("serving.p50_us", "sim_us"); ("serving.p999_us", "sim_us");
      ("serving.slo_miss_frac", "frac");
      ("trace.overhead_frac", "frac");
    ]

(* --- outcome accounting -------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

let fail_check n fmt =
  Printf.ksprintf
    (fun msg ->
      failed := !failed + n;
      Printf.eprintf "perfbench: check failed: %s\n%!" msg)
    fmt

let check_ledger rt =
  let a = Runtime.attribution rt in
  (match Attribution.check a with
  | Ok () -> ()
  | Error e -> fail_check 1 "attribution ledger: %s" e);
  let parts = List.fold_left (fun s (_, ns) -> s +. ns) 0.0 (Attribution.by_cause a) in
  if parts <> Attribution.total_ns a then
    fail_check 1 "stall causes sum to %.17g ns, ledger total %.17g ns" parts
      (Attribution.total_ns a)

let same what a b = if a <> b then fail_check 1 "replay changed %s: %.17g -> %.17g" what a b

(* --- per-layer readings (from outside, after a run) ----------------------- *)

let stall_layer rt =
  let a = Runtime.attribution rt in
  ("runtime.stall_ms", Attribution.total_ns a /. 1e6)
  :: List.map
       (fun (c, ns) -> ("stall." ^ Attribution.cause_name c ^ "_ms", ns /. 1e6))
       (Attribution.by_cause a)

let cache_layer rt =
  let mgr = Runtime.manager rt in
  let secs = List.map Section.stats (Manager.sections mgr) in
  let sw = Swap.stats (Manager.swap mgr) in
  let sum f = List.fold_left (fun a s -> a + f s) 0 secs in
  let sum_ms f = List.fold_left (fun a s -> a +. f s) 0.0 secs /. 1e6 in
  let hits = sum (fun s -> s.Section.hits) + sw.Swap.hits in
  let misses = sum (fun s -> s.Section.misses) + sw.Swap.faults in
  [
    ("cache.hits", float hits); ("cache.misses", float misses);
    ("cache.hit_ratio", if hits + misses = 0 then 0.0 else float hits /. float (hits + misses));
    ("cache.hit_ms", sum_ms (fun s -> s.Section.hit_ns));
    ("cache.miss_ms", sum_ms (fun s -> s.Section.miss_ns) +. (sw.Swap.fault_ns /. 1e6));
    ("cache.prefetch_stall_ms", sum_ms (fun s -> s.Section.stall_ns) +. (sw.Swap.stall_ns /. 1e6));
    ("cache.late_prefetch", float (sum (fun s -> s.Section.late_prefetch) + sw.Swap.late_readahead));
    ("cache.evictions", float (sum (fun s -> s.Section.evictions) + sw.Swap.evictions));
    ("cache.writebacks", float (sum (fun s -> s.Section.writebacks) + sw.Swap.writebacks));
    ("swap.faults", float sw.Swap.faults);
    ("swap.readahead_pages", float sw.Swap.readahead_pages);
  ]

let net_layer rt =
  let s = Net.stats (Runtime.net rt) in
  [
    ("net.msgs", float s.Net.msg_count); ("net.bytes_in", float s.Net.bytes_in);
    ("net.bytes_out", float s.Net.bytes_out);
    ("net.bytes_prefetch", float s.Net.bytes_prefetch);
    ("net.bytes_writeback", float s.Net.bytes_writeback);
    ("net.fetch_p50_ns", Metrics.hist_percentile s.Net.lat_fetch 50.0);
    ("net.fetch_p99_ns", Metrics.hist_percentile s.Net.lat_fetch 99.0);
    ("net.retries", float s.Net.retries); ("net.timeouts", float s.Net.timeouts);
  ]

let wire_bytes rt =
  let s = Net.stats (Runtime.net rt) in
  s.Net.bytes_in + s.Net.bytes_out

let sched_layer rt ~host_s =
  let d = Sched.dispatched (Runtime.sched rt) in
  [
    ("sched.dispatched", float d);
    ("sched.host_ns_per_dispatch", if d = 0 then 0.0 else host_s *. 1e9 /. float d);
  ]

let controller_layer compiled ~compile_s =
  let log = compiled.C.c_log in
  let count p = float (List.length (List.filter p log)) in
  let runs =
    count (function
      | Decision.Profile_run _ | Decision.Size_sample _ | Decision.Joint_sample _
      | Decision.Placement_sample _ | Decision.Measure _ -> true
      | _ -> false)
  in
  let best =
    List.fold_left
      (fun b -> function Decision.Measure { work_ns; _ } -> Float.min b work_ns | _ -> b)
      infinity log
  in
  [
    ("controller.runs", runs);
    ("controller.iterations",
      float (List.fold_left (fun a d -> max a (Decision.iteration d)) 0 log));
    ("controller.accepts", count (function Decision.Accept _ -> true | _ -> false));
    ("controller.rollbacks", count (function Decision.Rollback _ -> true | _ -> false));
    ("controller.best_candidate_ms", if Float.is_finite best then best /. 1e6 else 0.0);
    ("controller.host_s_per_run", compile_s /. Float.max 1.0 runs);
  ]

(* --- program workloads: native, FastSwap and Mira on one MIR program ----- *)

type program_workload = {
  build : int -> Ir.program;  (** seed -> program *)
  far_bytes : int;
  items : int;  (** work items per run (edges, elements) *)
}

let graph_20 =
  let module G = Mira_workloads.Graph_traversal in
  let cfg seed = { G.config_default with G.num_edges = 40_000; num_nodes = 4_000; seed } in
  { build = (fun seed -> G.build (cfg seed)); far_bytes = G.far_bytes (cfg 0); items = 40_000 }

let micro_sum_20 =
  let module M = Mira_workloads.Micro_sum in
  let cfg seed = { M.config_default with M.seed } in
  {
    build = (fun seed -> M.build (cfg seed));
    far_bytes = M.far_bytes (cfg 0);
    items = (cfg 0).M.elems;
  }

let local_ratio = 0.2

(* The program, its instrumented copy, and the two baseline runtimes
   with their machines. *)
let setup_program wl ~seed =
  let prog = wl.build seed in
  let ctx = Harness.Ctx.make ~far_bytes:wl.far_bytes prog in
  let budget = max (10 * 4096) (int_of_float (float wl.far_bytes *. local_ratio)) in
  let measured = Harness.measured ctx in
  let p = ctx.Harness.params in
  let native = Mira_baselines.Native.create ~params:p ~capacity:ctx.Harness.far_capacity () in
  let fastswap =
    Mira_baselines.Fastswap.create ~params:p ~local_budget:budget
      ~far_capacity:ctx.Harness.far_capacity ()
  in
  ignore (Machine.create native measured, Machine.create fastswap measured);
  (ctx, budget, measured)

(* The options [Harness.run_detail] gives Mira. *)
let mira_options ctx ~budget =
  {
    (C.options_default ~local_budget:budget ~far_capacity:ctx.Harness.far_capacity) with
    C.params = ctx.Harness.params;
    max_iterations = ctx.Harness.mira_iterations;
    nthreads = ctx.Harness.nthreads;
    tenants = ctx.Harness.tenants;
    verbose = ctx.Harness.verbose;
  }

let run_baseline ctx measured ms =
  C.measure_work ms (Machine.create ~nthreads:ctx.Harness.nthreads ~seed:42 ms measured)

(* Mira's measured run on a fresh instantiation of the compiled plan;
   with [counter], the interpreter calls the runtime through the
   counting wrapper. *)
let run_mira ?counter compiled =
  let rt, machine = C.instantiate compiled in
  let ms, machine =
    match counter with
    | None -> (Runtime.memsys rt, machine)
    | Some c ->
      let o = compiled.C.c_options in
      let ms = Spans.wrap c (Runtime.memsys rt) in
      ( ms,
        Machine.create ~nthreads:o.C.nthreads ~seed:o.C.seed
          ~honor_offload:o.C.feat_offload ms compiled.C.c_program )
  in
  let value, work_ns = C.measure_work ms machine in
  check_ledger rt;
  (rt, machine, value, work_ns)

type round = {
  native_ns : float;
  fastswap_ns : float;
  mira_ns : float;
  wire : int;
  round_s : float;  (** host time of the three measured runs *)
  fastswap_s : float;
  mira_s : float;
}

(* The round's host times are scaled by the passes sampled during it. *)
let one_round ctx measured ~budget compiled =
  let sys name f =
    incr attempted;
    span name (fun () -> time f)
  in
  let p = ctx.Harness.params and cap = ctx.Harness.far_capacity in
  let (((native, native_ns), native_s), ((fastswap, fastswap_ns), fastswap_s), mira), k =
    Spans.phase (fun () ->
        let n =
          sys "native.run" (fun () ->
              run_baseline ctx measured (Mira_baselines.Native.create ~params:p ~capacity:cap ()))
        in
        let f =
          sys "fastswap.run" (fun () ->
              run_baseline ctx measured
                (Mira_baselines.Fastswap.create ~params:p ~local_budget:budget ~far_capacity:cap ()))
        in
        (n, f, sys "mira.run" (fun () -> run_mira compiled)))
  in
  let (rt, _, mira, mira_ns), mira_s = mira in
  if not (Value.equal fastswap native) then fail_check 1 "fastswap result differs from native";
  if not (Value.equal mira native) then fail_check 1 "mira result differs from native";
  {
    native_ns; fastswap_ns; mira_ns; wire = wire_bytes rt;
    round_s = (native_s +. fastswap_s +. mira_s) *. k;
    fastswap_s = fastswap_s *. k;
    mira_s = mira_s *. k;
  }

let same_round (a : round) (b : round) =
  same "native work_ns" a.native_ns b.native_ns;
  same "fastswap work_ns" a.fastswap_ns b.fastswap_ns;
  same "mira work_ns" a.mira_ns b.mira_ns;
  same "mira wire bytes" (float a.wire) (float b.wire)

(* Repeat [step] until [seconds] of wall-clock time have passed (at
   least [min] times). *)
let repeat ~seconds ~min step =
  let t0 = Spans.now_ns () in
  let rec go n acc =
    if n >= min && Spans.now_ns () -. t0 >= seconds *. 1e9 then List.rev acc
    else go (n + 1) (step n :: acc)
  in
  go 0 []

(* Set-up is repeated and its median reported, so work moved into
   set-up shows. *)
let setup_samples f = List.init 21 (fun _ -> span "setup" (fun () -> time f))

(* MB of live OCaml heap after a full major GC, while [state], a
   finished run's state, is held.  Garbage, the calibration passes'
   included, does not count: a high-water mark would move with the
   passes' timing. *)
let live_heap_mb state =
  Gc.full_major ();
  let mb = float ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6 in
  ignore (Sys.opaque_identity state);
  mb

let report_host () =
  Printf.eprintf
    "%d calibration passes: median %.3f ms, quartiles %.3f-%.3f ms (reference %.0f ms)\n%!"
    (List.length !Spans.passes) (median !Spans.passes *. 1e3)
    (Spans.quantile 0.25 !Spans.passes *. 1e3) (Spans.quantile 0.75 !Spans.passes *. 1e3)
    (Spans.pass_ref *. 1e3)

let program_workload wl ~seed ~seconds ~trace =
  let ctx, budget, _ = setup_program wl ~seed in
  let opts = mira_options ctx ~budget in
  let (compiled, raw_s), k =
    Spans.phase (fun () ->
        span "controller.optimize" (fun () -> time (fun () -> C.optimize opts ctx.Harness.prog)))
  in
  let compile_s = raw_s *. k in
  (* Set-up: everything the three measured runs need before their
     first timed call, Mira's instantiated plan included. *)
  let setups, setup_k =
    Spans.phase (fun () ->
        setup_samples (fun () ->
            let s = setup_program wl ~seed in
            ignore (C.instantiate compiled);
            s))
  in
  let ctx, budget, measured = fst (List.hd setups) in
  (* Warm-up round: warms the host heap and is the replay reference. *)
  let ref_round = one_round ctx measured ~budget compiled in
  let live = live_heap_mb (run_mira compiled) in
  let rounds =
    repeat ~seconds ~min:3 (fun _ ->
        let r = one_round ctx measured ~budget compiled in
        same_round ref_round r;
        r)
  in
  let slowdown ns = ns /. ref_round.native_ns in
  let med f = median (List.map f rounds) in
  Printf.eprintf
    "native %.4f ms | fastswap %.3fx | mira %.3fx | wire %.3f MB\n\
     host s at reference speed: compile %.3f | %d timed rounds, median %.3f \
     (mira %.3f, fastswap %.3f)\n%!"
    (ref_round.native_ns /. 1e6) (slowdown ref_round.fastswap_ns)
    (slowdown ref_round.mira_ns) (float ref_round.wire /. 1e6)
    compile_s (List.length rounds) (med (fun r -> r.round_s))
    (med (fun r -> r.mira_s)) (med (fun r -> r.fastswap_s));
  report_host ();
  if not trace then
    [
      ("mira_slowdown", slowdown ref_round.mira_ns);
      ("wire_mb", float ref_round.wire /. 1e6);
      ("throughput_kops", float wl.items /. ref_round.mira_ns *. 1e6);
      ("setup_s", median (List.map snd setups) *. setup_k);
      ("compile_s", compile_s);
      ("run_s", med (fun r -> r.round_s));
      ("live_heap_mb", live);
    ]
  else begin
    (* Traced Mira runs, each after an untraced one for the overhead;
       the wrapper must not move simulated time. *)
    let traced =
      repeat ~seconds ~min:3 (fun _ ->
          let (_, _, _, plain_ns), plain_s =
            span "mira.run" (fun () -> time (fun () -> run_mira compiled))
          in
          let c = Spans.counter () in
          let (rt, machine, _, ns), traced_s =
            span "interp" (fun () ->
                let r = time (fun () -> run_mira ~counter:c compiled) in
                Spans.aggregate "runtime" ~calls:c.Spans.calls ~ns:c.Spans.ns;
                r)
          in
          same "traced mira work_ns" plain_ns ns;
          (rt, machine, c, traced_s, plain_s))
    in
    let rt, machine, c, _, _ = List.hd (List.rev traced) in
    let traced_s = at_ref (median (List.map (fun (_, _, _, s, _) -> s) traced)) in
    let plain_s = at_ref (median (List.map (fun (_, _, _, _, s) -> s) traced)) in
    let clock_ns = median (List.init 5 (fun _ -> Spans.clock_read_ns ())) in
    let per_call = Float.max 0.0 ((c.Spans.ns /. float (max 1 c.Spans.calls)) -. clock_ns) in
    let ops = Machine.ops_executed machine in
    let apply_s =
      at_ref @@ median
        (List.init 5 (fun _ ->
             snd
               (span "passes.apply" (fun () ->
                    time (fun () ->
                        Pipeline.apply compiled.C.c_original compiled.C.c_plan
                          ~params:opts.C.params)))))
    in
    [
      ("interp.ops", float ops);
      (* interp self time: the untraced run less its runtime calls *)
      ( "interp.host_ns_per_op",
        ((plain_s *. 1e9) -. (at_ref per_call *. float c.Spans.calls)) /. float (max 1 ops) );
      ("runtime.calls", float c.Spans.calls);
      ("runtime.host_ns_per_call", at_ref per_call);
      ("passes.compile_ms", apply_s *. 1e3);
      ("passes.selected_sites", float (List.length compiled.C.c_plan.Pipeline.selected));
      ("fastswap.host_s", med (fun r -> r.fastswap_s));
      ("fastswap.slowdown", slowdown ref_round.fastswap_ns);
      ("trace.overhead_frac", (traced_s /. plain_s) -. 1.0);
    ]
    @ stall_layer rt @ cache_layer rt @ net_layer rt
    @ sched_layer rt ~host_s:traced_s
    @ controller_layer compiled ~compile_s
  end

(* --- kv_zipf: open-loop multi-tenant serving ------------------------------ *)

let tenants = 4
let slo_ns = 50_000.0
let nominal_krps = 800.0
let ladder_krps = [ 250.; 400.; 550.; 700.; 800.; 900.; 1000.; 1100.; 1200.; 1330. ]

(* [krps] is the aggregate offered rate over all tenants. *)
let kv_cfg ~seed ~krps ~local_ratio =
  {
    K.tenants;
    requests = 10_000;
    keys = 16_384;
    value_bytes = 64;
    line = 4096;
    local_ratio;
    zipf_s = 0.99;
    get_fraction = 0.9;
    slo_ns;
    arrival_ns = float tenants *. 1e6 /. krps;
    seed;
  }

(* The run's host time is scaled by the passes sampled during it. *)
let kv_run cfg =
  let rt = Runtime.create (K.runtime_config cfg) in
  let (r, raw_s), k =
    Spans.phase (fun () -> span "kv.run_on" (fun () -> time (fun () -> K.run_on rt cfg)))
  in
  let host_s = raw_s *. k in
  let total = cfg.K.tenants * cfg.K.requests in
  let completed =
    Array.fold_left (fun a t -> a + Metrics.hist_count t.K.lat_hist) 0 r.K.per_tenant
  in
  attempted := !attempted + total;
  if completed <> total then
    fail_check (total - completed) "%d of %d requests completed" completed total;
  check_ledger rt;
  (r, rt, host_s)

let mean_latency (r : K.report) =
  Array.fold_left (fun a t -> a +. t.K.mean_ns) 0.0 r.K.per_tenant
  /. float (Array.length r.K.per_tenant)

(* The offered rate at which p999 crosses the SLO: log-interpolated
   between the last rung that meets it (and keeps up with its offered
   rate) and the first that does not. *)
let rate_at_slo rungs =
  let ok (krps, (r : K.report)) =
    r.K.agg_p999_ns <= slo_ns && r.K.throughput_rps >= 0.95 *. krps *. 1e3
  in
  let rec go = function
    | a :: (b :: _ as rest) ->
      if not (ok a) then fst a
      else if ok b then go rest
      else
        let (ka, ra), (kb, rb) = (a, b) in
        let la = log ra.K.agg_p999_ns and lb = log rb.K.agg_p999_ns in
        if lb <= la then ka else ka +. ((kb -. ka) *. (log slo_ns -. la) /. (lb -. la))
    | [ a ] -> fst a
    | [] -> 0.0
  in
  go rungs

type layout = {
  nominal : K.config;
  reference : K.report;  (** the nominal-rate run *)
  rate : float;  (** offered krps at which p999 crosses the SLO *)
  slowdown : float;  (** mean latency vs all data cached *)
  wire : int;
  ladder_s : float;
}

(* One key layout: the rate ladder, the nominal rate with all data
   cached, and the nominal rate itself. *)
let kv_layout ~seed =
  let rungs =
    List.map
      (fun krps ->
        let r, _, host_s = kv_run (kv_cfg ~seed ~krps ~local_ratio:0.125) in
        (krps, r, host_s))
      ladder_krps
  in
  List.iter
    (fun (krps, r, _) ->
      Printf.eprintf
        "  seed %d, %5.0f krps offered: %5.0f krps done, p50 %6.2f us, p999 %7.2f us, \
         SLO miss %.4f\n"
        seed krps (r.K.throughput_rps /. 1e3) (r.K.agg_p50_ns /. 1e3)
        (r.K.agg_p999_ns /. 1e3) r.K.agg_slo_miss_frac)
    rungs;
  let nominal = kv_cfg ~seed ~krps:nominal_krps ~local_ratio:0.125 in
  let all_local, _, _ = kv_run { nominal with K.local_ratio = 1.0 } in
  let reference, rt, _ = kv_run nominal in
  let rate = rate_at_slo (List.map (fun (k, r, _) -> (k, r)) rungs) in
  let slowdown = mean_latency reference /. mean_latency all_local in
  Printf.eprintf
    "  seed %d, nominal %.0f krps: p50 %.2f us, p999 %.2f us, mean %.3f us (all cached: \
     %.3f us), SLO miss %.5f | rate at SLO %.1f krps | wire %.3f MB\n%!"
    seed nominal_krps (reference.K.agg_p50_ns /. 1e3) (reference.K.agg_p999_ns /. 1e3)
    (mean_latency reference /. 1e3) (mean_latency all_local /. 1e3)
    reference.K.agg_slo_miss_frac rate (float (wire_bytes rt) /. 1e6);
  {
    nominal; reference; rate; slowdown; wire = wire_bytes rt;
    ladder_s = List.fold_left (fun a (_, _, s) -> a +. s) 0.0 rungs;
  }

(* Two key layouts per seed: which lines the hot keys share moves the
   tail by several percent, and the mean over two layouts halves that
   variance. *)
let kv_zipf ~seed ~seconds ~trace =
  let setups, setup_k =
    let cfg = kv_cfg ~seed ~krps:nominal_krps ~local_ratio:0.125 in
    Spans.phase (fun () ->
        List.map snd (setup_samples (fun () -> Runtime.create (K.runtime_config cfg))))
  in
  let layouts =
    span "kv.ladder" (fun () -> List.map (fun l -> kv_layout ~seed:l) [ 2 * seed; (2 * seed) + 1 ])
  in
  let sum f = List.fold_left (fun a l -> a +. f l) 0.0 layouts in
  let mean f = sum f /. float (List.length layouts) in
  let { nominal; reference; _ } = List.hd layouts in
  let live = live_heap_mb (kv_run nominal) in
  let runs =
    repeat ~seconds ~min:3 (fun i ->
        (* the traced run alternates spans on and off for the overhead *)
        let on = i mod 2 = 0 in
        let enabled = !Spans.enabled in
        if trace then Spans.enabled := on;
        let r, rt, host_s = kv_run nominal in
        Spans.enabled := enabled;
        if r.K.checksum <> reference.K.checksum then fail_check 1 "replay changed the kv checksum";
        same "kv p999" reference.K.agg_p999_ns r.K.agg_p999_ns;
        same "kv elapsed" reference.K.elapsed_ns r.K.elapsed_ns;
        (rt, host_s, on))
  in
  let rt, _, _ = List.hd (List.rev runs) in
  let ladder_s = sum (fun l -> l.ladder_s) in
  let reps = List.map (fun (_, s, _) -> s) runs in
  Printf.eprintf "host s at reference speed: ladders %.3f | %d timed nominal runs, median %.3f\n%!"
    ladder_s (List.length runs) (median reps);
  report_host ();
  if not trace then
    [
      ("mira_slowdown", mean (fun l -> l.slowdown));
      ("wire_mb", mean (fun l -> float l.wire) /. 1e6);
      ("throughput_kops", mean (fun l -> l.rate));
      ("setup_s", median setups *. setup_k);
      ("compile_s", ladder_s);
      ("run_s", median reps);
      ("live_heap_mb", live);
    ]
  else begin
    let host on =
      median (List.filter_map (fun (_, s, t) -> if t = on then Some s else None) runs)
    in
    [
      ("serving.p50_us", reference.K.agg_p50_ns /. 1e3);
      ("serving.p999_us", reference.K.agg_p999_ns /. 1e3);
      ("serving.slo_miss_frac", reference.K.agg_slo_miss_frac);
      ("trace.overhead_frac", (host true /. host false) -. 1.0);
    ]
    @ stall_layer rt @ cache_layer rt @ net_layer rt
    @ sched_layer rt ~host_s:(median reps)
  end

(* --- entry point ---------------------------------------------------------- *)

let emit ~correct catalogue values =
  let metric (name, unit) =
    let v = Option.value ~default:0.0 (List.assoc_opt name values) in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted) !failed
    (String.concat ", " (List.map metric catalogue))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "graph_20 | micro_sum_20 | kv_zipf");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds of timed repetitions");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 in
  Spans.enabled := trace;
  let run () =
    match !workload with
    | "graph_20" -> program_workload graph_20 ~seed:!seed ~seconds:!seconds ~trace
    | "micro_sum_20" -> program_workload micro_sum_20 ~seed:!seed ~seconds:!seconds ~trace
    | "kv_zipf" -> kv_zipf ~seed:!seed ~seconds:!seconds ~trace
    | w ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      exit 2
  in
  match span ("perfbench." ^ !workload) run with
  | values ->
    if trace then begin
      Printf.eprintf "host self time by span (ms):\n";
      List.iter (fun (n, ns) -> Printf.eprintf "  %-22s %10.1f\n" n (ns /. 1e6)) (Spans.self_by_name ());
      (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
      Spans.write (Printf.sprintf "perfbench/out/spans-%s-seed%d.jsonl" !workload !seed)
    end;
    let correct = !failed = 0 in
    emit ~correct (if trace then per_layer else end_to_end) values;
    if not correct then exit 1
  | exception e ->
    fail_check 1 "%s raised %s" !workload (Printexc.to_string e);
    emit ~correct:false [] [];
    exit 1
