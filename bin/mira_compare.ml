(* Command-line driver: run one of the paper's workloads on every
   memory system at a chosen local-memory ratio.

     dune exec bin/mira_compare.exe -- --workload graph --ratio 0.2
     dune exec bin/mira_compare.exe -- -w mcf -r 0.12 -i 4 -v
     dune exec bin/mira_compare.exe -- -w graph --json report.json \
       --trace trace.jsonl *)

module C = Mira.Controller
module Machine = Mira_interp.Machine
module Json = Mira_telemetry.Json
module Trace = Mira_telemetry.Trace

type workload = {
  name : string;
  program : Mira_mir.Ir.program;
  far_bytes : int;
  aifm_gran : Mira_mir.Ir.program -> int -> int;
  params : Mira_sim.Params.t;
}

let workload_of = function
  | "graph" ->
    let module W = Mira_workloads.Graph_traversal in
    let cfg = W.config_default in
    { name = "graph"; program = W.build cfg; far_bytes = W.far_bytes cfg;
      aifm_gran = W.aifm_gran; params = Mira_sim.Params.default }
  | "dataframe" ->
    let module W = Mira_workloads.Dataframe in
    let cfg = W.config_default in
    { name = "dataframe"; program = W.build cfg; far_bytes = W.far_bytes cfg;
      aifm_gran = W.aifm_gran; params = Mira_sim.Params.default }
  | "mcf" ->
    let module W = Mira_workloads.Mcf in
    let cfg = W.config_default in
    { name = "mcf"; program = W.build cfg; far_bytes = W.far_bytes cfg;
      aifm_gran = W.aifm_gran; params = Mira_sim.Params.default }
  | "gpt2" ->
    let module W = Mira_workloads.Gpt2 in
    let cfg = { W.config_default with W.layers = 6; d_model = 32; seq = 16 } in
    { name = "gpt2"; program = W.build cfg; far_bytes = W.far_bytes cfg;
      aifm_gran = W.aifm_gran; params = W.params }
  | other -> failwith ("unknown workload: " ^ other)

(* CLI validation failures exit 2 with a usage line (never an uncaught
   exception); Cmdliner handles unknown flags/malformed literals, this
   covers well-typed but out-of-range values. *)
let usage_error msg =
  Printf.eprintf "mira_compare: %s\n" msg;
  prerr_endline
    "Usage: mira_compare [-w WORKLOAD] [-r RATIO] [-i N] [-t N] \
     [--tenants N] [OPTION]…\n\
     Try 'mira_compare --help' for more information.";
  exit 2

(* A file that cannot be written fails the run (exit 1), whichever
   output it is. *)
let write_file ~what path f =
  try
    let oc = open_out path in
    f oc;
    close_out oc
  with Sys_error msg ->
    Printf.eprintf "error: cannot write %s: %s\n" what msg;
    exit 1

let write_json ~what path j =
  write_file ~what path (fun oc ->
      output_string oc (Json.to_string_pretty j);
      output_char oc '\n')

(* The run's output files, written the same way for every workload.
   [publish] adds the workload's own histograms to the critical-path
   registry; [report] builds the --json document. *)
let write_outputs rt ~publish ~report ~json_out ~trace_out ~flame_out
    ~cpath_out =
  Option.iter
    (fun path ->
      let n = Trace.count () in
      write_file ~what:"trace" path (fun oc -> output_string oc (Trace.to_jsonl ()));
      Printf.printf "trace written to %s (%d events, %d dropped)\n" path n
        (Trace.dropped ()))
    trace_out;
  Option.iter
    (fun path ->
      (* Decompose the tail exemplars of every published histogram into
         queue/wire/retry/fill/recovery/local segments; the folded
         companion file is flamegraph.pl-compatible. *)
      let reg = Mira.Report.runtime_metrics rt in
      publish reg;
      let spans = Trace.spans () in
      let what = "critical-path report" in
      write_json ~what path (Mira_telemetry.Critical_path.report reg spans);
      write_file ~what (path ^ ".folded") (fun oc ->
          output_string oc (Mira_telemetry.Critical_path.folded reg spans));
      Printf.printf "critical-path report written to %s (+ %s.folded)\n"
        path path)
    cpath_out;
  if trace_out <> None || cpath_out <> None then Trace.disable ();
  Option.iter
    (fun path ->
      let folded =
        Mira_telemetry.Attribution.folded
          (Mira_runtime.Runtime.attribution rt)
      in
      let frames =
        String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 folded
      in
      write_file ~what:"flame output" path (fun oc -> output_string oc folded);
      Printf.printf "flame stacks written to %s (%d stack(s))\n" path frames)
    flame_out;
  Option.iter
    (fun path ->
      write_json ~what:"report" path (report ());
      Printf.printf "report written to %s\n" path)
    json_out

(* The kv workload is not a MIR program run through the interpreter:
   it drives Mira's runtime directly with N open-loop serving loops
   interleaved on the discrete-event scheduler, and reports tail
   latency against an SLO instead of a systems comparison. *)
let serve_kv ratio tenants requests net_window net_coalesce timeline_out
    verbose json_out trace_out flame_out cpath_out =
  let module K = Mira_workloads.Kv_serving in
  let module Table = Mira_util.Table in
  if not (Float.is_finite ratio) || ratio <= 0.0 || ratio > 1.0 then
    usage_error
      (Printf.sprintf
         "invalid ratio %g (the kv workload caches ratio of its data \
          locally; need a finite value in (0,1])"
         ratio);
  if requests < 1 then
    usage_error (Printf.sprintf "invalid requests %d (need >= 1)" requests);
  let cfg = { K.config_default with K.tenants; requests; local_ratio = ratio } in
  Printf.printf
    "kv: %d tenant(s), %d requests each, %d keys x %d B, %.0f%% cached \
     locally, SLO %.0f us\n\n"
    tenants cfg.K.requests cfg.K.keys cfg.K.value_bytes (ratio *. 100.0)
    (cfg.K.slo_ns /. 1e3);
  if trace_out <> None || cpath_out <> None then Trace.enable ();
  let rt_cfg =
    { (K.runtime_config cfg) with
      Mira_runtime.Runtime.dataplane =
        { Mira_sim.Net.dp_default with
          Mira_sim.Net.window = net_window; coalesce = net_coalesce } }
  in
  let rt = Mira_runtime.Runtime.create rt_cfg in
  let timeline = Option.map (fun _ -> K.Timeline.make ()) timeline_out in
  let r = K.run_on ?timeline rt cfg in
  (match (timeline_out, timeline) with
   | Some path, Some tl ->
     let lines = K.Timeline.jsonl tl ~rt in
     write_file ~what:"timeline" path (fun oc ->
         List.iter
           (fun j ->
             output_string oc (Json.to_string j);
             output_char oc '\n')
           lines);
     let sat =
       match K.Timeline.saturation_onset_ns tl with
       | Some ns -> Printf.sprintf "saturation onset %.0f us" (ns /. 1e3)
       | None -> "no saturated window"
     in
     let burn =
       match K.Timeline.first_burn_ns tl with
       | Some ns -> Printf.sprintf "first SLO burn %.0f us" (ns /. 1e3)
       | None -> "no SLO burn"
     in
     Printf.printf "timeline written to %s (%d window(s); %s; %s)\n" path
       (List.length lines - 1)
       sat burn
   | _ -> ());
  let t =
    Table.create
      ~header:[ "tenant"; "p50 us"; "p99 us"; "p999 us"; "SLO miss" ]
  in
  Array.iter
    (fun (tr : K.tenant_report) ->
      Table.add_row t
        [
          string_of_int tr.K.tenant;
          Printf.sprintf "%.1f" (tr.K.p50_ns /. 1e3);
          Printf.sprintf "%.1f" (tr.K.p99_ns /. 1e3);
          Printf.sprintf "%.1f" (tr.K.p999_ns /. 1e3);
          Printf.sprintf "%.2f%%" (100.0 *. tr.K.slo_miss_frac);
        ])
    r.K.per_tenant;
  Table.print t;
  Printf.printf
    "\naggregate: %.0f krps, p50 %.1f us, p99 %.1f us, p999 %.1f us, SLO \
     miss %.2f%%, checksum %016Lx\n"
    (r.K.throughput_rps /. 1e3)
    (r.K.agg_p50_ns /. 1e3)
    (r.K.agg_p99_ns /. 1e3)
    (r.K.agg_p999_ns /. 1e3)
    (100.0 *. r.K.agg_slo_miss_frac)
    r.K.checksum;
  if verbose then begin
    print_newline ();
    print_string (Mira.Report.runtime_stats rt)
  end;
  write_outputs rt ~publish:(K.publish r) ~json_out ~trace_out ~flame_out
    ~cpath_out ~report:(fun () ->
      Json.Obj
        [
          ("workload", Json.Str "kv");
          ("ratio", Json.Float ratio);
          ("serving", K.report_json r);
          ("mira_runtime_stats", Mira.Report.runtime_stats_json rt);
          ("stall_attribution", Mira.Report.attribution_json rt);
        ])

let compare_systems wname ratio iterations threads tenants requests
    net_window net_coalesce nodes ec timeline_out verbose json_out trace_out
    flame_out cpath_out =
  if not (Float.is_finite ratio) || ratio <= 0.0 then
    usage_error (Printf.sprintf "invalid ratio %g (need a finite value > 0)" ratio);
  if timeline_out <> None && wname <> "kv" then
    usage_error
      (Printf.sprintf
         "--timeline requires the kv workload (the '%s' workload emits no \
          windows; windowed telemetry comes from the serving loops)"
         wname);
  if wname = "kv" && (nodes <> 1 || ec <> None) then
    usage_error
      "--nodes/--ec require a MIR workload (the kv workload runs on one far \
       node)";
  if iterations < 1 then
    usage_error (Printf.sprintf "invalid iterations %d (need >= 1)" iterations);
  if threads < 1 then
    usage_error (Printf.sprintf "invalid threads %d (need >= 1)" threads);
  if tenants < 1 then
    usage_error (Printf.sprintf "invalid tenants %d (need >= 1)" tenants);
  if wname <> "kv" && tenants <> 1 then
    usage_error
      (Printf.sprintf
         "--tenants requires the kv workload (the '%s' workload runs one \
          tenant; got --tenants %d)"
         wname tenants);
  if net_window < 0 then
    usage_error
      (Printf.sprintf "invalid net-window %d (need >= 0; 0 = unbounded)"
         net_window);
  if nodes < 1 then
    usage_error (Printf.sprintf "invalid nodes %d (need >= 1)" nodes);
  let cluster =
    match ec with
    | None ->
      (* --nodes alone: n-way flat mirroring across the cluster. *)
      if nodes = 1 then Mira_sim.Cluster.spec_default
      else Mira_sim.Cluster.mirror ~nodes ~copies:nodes []
    | Some spec_str ->
      let k, m =
        match String.split_on_char ',' spec_str with
        | [ ks; ms ] -> (
          match (int_of_string_opt (String.trim ks),
                 int_of_string_opt (String.trim ms)) with
          | Some k, Some m -> (k, m)
          | _ ->
            usage_error
              (Printf.sprintf "invalid --ec '%s' (expected k,m)" spec_str))
        | _ ->
          usage_error
            (Printf.sprintf "invalid --ec '%s' (expected k,m)" spec_str)
      in
      if k < 1 then
        usage_error (Printf.sprintf "invalid --ec %d,%d (k must be >= 1)" k m);
      if m < 0 then
        usage_error (Printf.sprintf "invalid --ec %d,%d (m must be >= 0)" k m);
      if m > 2 then
        usage_error (Printf.sprintf "invalid --ec %d,%d (m must be <= 2)" k m);
      if k + m > nodes then
        usage_error
          (Printf.sprintf
             "invalid --ec %d,%d with %d node(s) (k + m must be <= nodes)" k m
             nodes);
      if m = 0 && k = 1 && nodes = 1 then Mira_sim.Cluster.spec_default
      else Mira_sim.Cluster.ec ~nodes ~k ~m []
  in
  if wname = "kv" then
    serve_kv ratio tenants requests net_window net_coalesce timeline_out
      verbose json_out trace_out flame_out cpath_out
  else begin
  let w = workload_of wname in
  let far_capacity = 4 * w.far_bytes in
  let budget =
    max (10 * 4096) (int_of_float (float_of_int w.far_bytes *. ratio))
  in
  Printf.printf "%s: %d KB far data, local budget %d KB (%.0f%%), %d thread(s)\n\n"
    w.name (w.far_bytes / 1024) (budget / 1024) (ratio *. 100.0) threads;
  let measured =
    Mira_passes.Instrument.run_only w.program
      ~names:[ C.work_function w.program ]
  in
  let results = ref [] in
  let time name ms =
    let machine = Machine.create ~nthreads:threads ~seed:42 ms measured in
    let v, ns = C.measure_work ms machine in
    Printf.printf "%-10s %12.3f ms   checksum=%s\n%!" name (ns /. 1e6)
      (Format.asprintf "%a" Mira_interp.Value.pp v);
    results := (name, ns) :: !results;
    ns
  in
  let native =
    time "native"
      (Mira_baselines.Native.create ~params:w.params ~capacity:far_capacity ())
  in
  ignore
    (time "fastswap"
       (Mira_baselines.Fastswap.create ~params:w.params ~local_budget:budget
          ~far_capacity ()));
  ignore
    (time "leap"
       (Mira_baselines.Leap.create ~params:w.params ~local_budget:budget
          ~far_capacity ()));
  (try
     ignore
       (time "aifm"
          (Mira_baselines.Aifm.create ~params:w.params ~gran:(w.aifm_gran w.program)
             ~local_budget:budget ~far_capacity ()))
   with Mira_baselines.Aifm.Oom msg -> Printf.printf "%-10s %s\n" "aifm" msg);
  if trace_out <> None || cpath_out <> None then Trace.enable ();
  let dataplane =
    { Mira_sim.Net.dp_default with
      Mira_sim.Net.window = net_window; coalesce = net_coalesce }
  in
  let opts =
    { (C.options_default ~local_budget:budget ~far_capacity) with
      C.params = w.params; max_iterations = iterations; nthreads = threads;
      tenants; dataplane; cluster; verbose }
  in
  let compiled = C.optimize opts w.program in
  let rt, machine = C.instantiate compiled in
  (* The exemplar histograms live in the fresh measured runtime, so
     when only the critical path is wanted the optimize-phase events
     would merely crowd exemplar spans out of the capped buffer: start
     the trace at the measured run.  An explicit --trace keeps the
     full optimize + run timeline. *)
  if cpath_out <> None && trace_out = None then Trace.enable ();
  let ms = Mira_runtime.Runtime.memsys rt in
  let v, mira = C.measure_work ms machine in
  results := ("mira", mira) :: !results;
  Printf.printf "%-10s %12.3f ms   checksum=%s  (%.2fx native)\n\n" "mira"
    (mira /. 1e6)
    (Format.asprintf "%a" Mira_interp.Value.pp v)
    (mira /. native);
  print_string (Mira.Report.describe compiled);
  if verbose then begin
    print_newline ();
    print_string (Mira.Report.runtime_stats rt)
  end;
  write_outputs rt ~publish:ignore ~json_out ~trace_out ~flame_out ~cpath_out
    ~report:(fun () ->
      let systems =
        List.rev_map
          (fun (name, ns) ->
            Json.Obj
              [
                ("system", Json.Str name);
                ("work_ms", Json.Float (ns /. 1e6));
                ("slowdown_vs_native", Json.Float (ns /. native));
              ])
          !results
      in
      Json.Obj
        [
          ("workload", Json.Str w.name);
          ("ratio", Json.Float ratio);
          ("threads", Json.Int threads);
          ("local_budget_bytes", Json.Int budget);
          ("far_bytes", Json.Int w.far_bytes);
          ("systems", Json.List systems);
          ("mira", Mira.Report.to_json compiled);
          ("mira_runtime_stats", Mira.Report.runtime_stats_json rt);
          ("stall_attribution", Mira.Report.attribution_json rt);
        ])
  end

open Cmdliner

let workload_arg =
  (* An enum conv: an unknown workload is a parse error (usage + exit 2),
     not an uncaught exception deep in the run. *)
  let names = [ "graph"; "dataframe"; "mcf"; "gpt2"; "kv" ] in
  Arg.(value & opt (enum (List.map (fun n -> (n, n)) names)) "graph"
       & info [ "w"; "workload" ]
           ~doc:"graph | dataframe | mcf | gpt2 | kv (kv = many-tenant \
                 serving on the discrete-event scheduler; reports tail \
                 latency instead of a systems comparison)")

let ratio_arg =
  Arg.(value & opt float 0.25
       & info [ "r"; "ratio" ] ~doc:"local memory as a fraction of far data")

let iter_arg =
  Arg.(value & opt int 4 & info [ "i"; "iterations" ] ~doc:"controller iterations")

let threads_arg =
  Arg.(value & opt int 1 & info [ "t"; "threads" ] ~doc:"simulated threads")

let tenants_arg =
  Arg.(value & opt int 1
       & info [ "tenants" ]
           ~doc:"kv workload: tenants, each running its own serving loop \
                 interleaved with the others on the discrete-event \
                 scheduler (MIR workloads run one tenant; any other \
                 value exits 2)")

let requests_arg =
  Arg.(value & opt int Mira_workloads.Kv_serving.config_default.requests
       & info [ "requests" ]
           ~doc:"kv workload: requests per tenant (ignored by the MIR \
                 workloads)")

let net_window_arg =
  Arg.(value & opt int 0
       & info [ "net-window" ]
           ~doc:"bound on in-flight network transfers in Mira's runtime \
                 (0 = unbounded, the legacy synchronous data plane)")

let net_coalesce_arg =
  Arg.(value & flag
       & info [ "net-coalesce" ]
           ~doc:"enable doorbell batching: adjacent same-kind transfers \
                 (e.g. a readahead cluster) merge into one network message")

let nodes_arg =
  Arg.(value & opt int 1
       & info [ "nodes" ]
           ~doc:"far-memory cluster size; without $(b,--ec) the data is \
                 mirrored across all nodes (1 = single node, no \
                 redundancy)")

let ec_arg =
  Arg.(value & opt (some string) None
       & info [ "ec" ] ~docv:"K,M"
           ~doc:"erasure-code the far tier into stripes of $(i,K) data + \
                 $(i,M) parity chunks (requires K+M <= $(b,--nodes); M <= \
                 2); mirroring is the special case K=1")

let timeline_arg =
  Arg.(value & opt (some string) None
       & info [ "timeline" ] ~docv:"FILE"
           ~doc:"kv workload only: write time-resolved telemetry to $(docv) \
                 as JSONL — one object per simulated-time window (per-tenant \
                 latency percentiles and SLO burn, net occupancy and wire \
                 bytes, tenant interference rows, top-K hot keys and miss \
                 sites) plus a trailing summary with the saturation-onset \
                 and first-burn windows; see docs/OBSERVABILITY.md")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"controller log")

let json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE"
           ~doc:"write a machine-readable run report (systems, sections, \
                 decision trace, runtime metrics) to $(docv)")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"write a Chrome trace_event-format JSONL trace of the mira \
                 optimization + run (network transfers, cache fetches, \
                 controller phases) to $(docv); see docs/OBSERVABILITY.md")

let flame_arg =
  Arg.(value & opt (some string) None
       & info [ "flame" ] ~docv:"FILE"
           ~doc:"write the mira run's stall-attribution ledger as folded \
                 flame stacks ($(i,fn;site;cause count_ns) per line, \
                 flamegraph.pl-compatible) to $(docv); see \
                 docs/OBSERVABILITY.md")

let cpath_arg =
  Arg.(value & opt (some string) None
       & info [ "critical-path" ] ~docv:"FILE"
           ~doc:"trace the mira run and write a critical-path report to \
                 $(docv): every tail-latency exemplar's span tree decomposed \
                 into queue/wire/retry/fill/recovery/local segments (exact \
                 fixed-point sums), as JSON plus a folded text companion \
                 $(docv).folded; see docs/OBSERVABILITY.md")

let cmd =
  let doc = "compare memory systems on a Mira workload" in
  Cmd.v (Cmd.info "mira_compare" ~doc)
    Term.(const compare_systems $ workload_arg $ ratio_arg $ iter_arg
          $ threads_arg $ tenants_arg $ requests_arg $ net_window_arg
          $ net_coalesce_arg $ nodes_arg $ ec_arg $ timeline_arg $ verbose_arg
          $ json_arg $ trace_arg $ flame_arg $ cpath_arg)

(* Exit 0 on success/help, 2 on any command-line error (Cmdliner has
   already printed the error and usage line to stderr), 125 on an
   internal error. *)
let () =
  match Cmd.eval_value cmd with
  | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit 125
