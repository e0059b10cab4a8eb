module Section = Mira_cache.Section
module Swap = Mira_cache.Swap_section
module Manager = Mira_cache.Manager
module Runtime = Mira_runtime.Runtime
module Pipeline = Mira_passes.Pipeline

let structure_name = function
  | Section.Direct -> "direct"
  | Section.Set_assoc k -> Printf.sprintf "set-assoc(%d)" k
  | Section.Full_assoc -> "full-assoc"

let side_name = function
  | Mira_sim.Net.One_sided -> "one-sided"
  | Mira_sim.Net.Two_sided -> "two-sided"

let flags (spec : Section_planner.spec) =
  let cfg = spec.Section_planner.sp_cfg in
  List.filter_map
    (fun (cond, name) -> if cond then Some name else None)
    [
      (cfg.Section.no_meta, "no-meta");
      (cfg.Section.write_no_fetch, "write-no-fetch");
      (spec.Section_planner.sp_private_ok, "read-discard");
    ]

(* The plan's enabled optimizations, in pipeline order. *)
let optimizations (plan : Pipeline.plan) =
  List.filter_map
    (fun (on, name) -> if on then Some name else None)
    [
      (plan.Pipeline.fuse, "batching");
      (plan.Pipeline.prefetch, "prefetch");
      (plan.Pipeline.evict, "evict-hints");
      (plan.Pipeline.native, "native-deref");
      (plan.Pipeline.offload, "offload");
    ]

let describe (c : Controller.compiled) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "compiled after %d iteration(s); best work time %.3f ms\n"
       c.Controller.c_iterations
       (c.Controller.c_work_ns /. 1e6));
  let opt_names = optimizations c.Controller.c_plan in
  Buffer.add_string buf
    (Printf.sprintf "optimizations: %s\n"
       (if opt_names = [] then "(none)" else String.concat ", " opt_names));
  if c.Controller.c_assignments = [] then
    Buffer.add_string buf "sections: none (generic swap configuration)\n"
  else begin
    Buffer.add_string buf "sections:\n";
    List.iter
      (fun (a : Controller.assignment) ->
        let cfg = a.Controller.a_spec.Section_planner.sp_cfg in
        Buffer.add_string buf
          (Printf.sprintf "  %-8s %-12s line=%-5dB size=%-6dKB %-10s [%s]  sites={%s}\n"
             cfg.Section.sec_name
             (structure_name cfg.Section.structure)
             cfg.Section.line
             (a.Controller.a_size / 1024)
             (side_name cfg.Section.side)
             (String.concat "," (flags a.Controller.a_spec))
             (String.concat ","
                (List.map string_of_int a.Controller.a_spec.Section_planner.sp_sites))))
      c.Controller.c_assignments
  end;
  Buffer.contents buf

module Json = Mira_telemetry.Json
module Metrics = Mira_telemetry.Metrics

let to_json (c : Controller.compiled) =
  let plan = c.Controller.c_plan in
  let opts = c.Controller.c_options in
  let optimizations =
    List.map (fun name -> Json.Str name) (optimizations plan)
  in
  let sections =
    List.map
      (fun (a : Controller.assignment) ->
        let cfg = a.Controller.a_spec.Section_planner.sp_cfg in
        Json.Obj
          [
            ("name", Json.Str cfg.Section.sec_name);
            ("structure", Json.Str (structure_name cfg.Section.structure));
            ("line_bytes", Json.Int cfg.Section.line);
            ("size_bytes", Json.Int a.Controller.a_size);
            ("side", Json.Str (side_name cfg.Section.side));
            ("flags", Json.List (List.map (fun f -> Json.Str f) (flags a.Controller.a_spec)));
            ( "sites",
              Json.List
                (List.map
                   (fun s -> Json.Int s)
                   a.Controller.a_spec.Section_planner.sp_sites) );
          ])
      c.Controller.c_assignments
  in
  Json.Obj
    [
      ("iterations", Json.Int c.Controller.c_iterations);
      ("work_ns", Json.Float c.Controller.c_work_ns);
      ("optimizations", Json.List optimizations);
      ("sections", Json.List sections);
      ( "options",
        Json.Obj
          [
            ("local_budget", Json.Int opts.Controller.local_budget);
            ("far_capacity", Json.Int opts.Controller.far_capacity);
            ("max_iterations", Json.Int opts.Controller.max_iterations);
            ("nthreads", Json.Int opts.Controller.nthreads);
            ("seed", Json.Int opts.Controller.seed);
          ] );
      ( "decisions",
        Json.List
          (List.map Mira_telemetry.Decision.to_json c.Controller.c_log) );
    ]

let runtime_metrics rt =
  let reg = Metrics.create () in
  Runtime.publish rt reg;
  reg

module Attribution = Mira_telemetry.Attribution

let attribution_json rt =
  let attr = Runtime.attribution rt in
  (match Attribution.check attr with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Report.attribution_json: " ^ msg));
  Attribution.to_json attr

let runtime_stats_json rt = Metrics.to_json (runtime_metrics rt)

let runtime_stats rt =
  let buf = Buffer.create 512 in
  let mgr = Runtime.manager rt in
  List.iter
    (fun s ->
      let st = Section.stats s in
      let cfg = Section.config s in
      Buffer.add_string buf
        (Printf.sprintf
           "section %-8s hits=%-9d misses=%-7d late-pf=%-5d evictions=%-7d \
            (hinted %d) writebacks=%-7d hit=%.2fms miss=%.2fms stall=%.2fms\n"
           cfg.Section.sec_name st.Section.hits st.Section.misses
           st.Section.late_prefetch st.Section.evictions
           st.Section.hinted_evictions st.Section.writebacks
           (st.Section.hit_ns /. 1e6) (st.Section.miss_ns /. 1e6)
           (st.Section.stall_ns /. 1e6)))
    (Manager.sections mgr);
  let sw = Swap.stats (Manager.swap mgr) in
  Buffer.add_string buf
    (Printf.sprintf
       "swap     cap=%dKB hits=%d faults=%d readahead=%d late=%d fault=%.2fms \
        stall=%.2fms\n"
       (Swap.capacity_bytes (Manager.swap mgr) / 1024)
       sw.Swap.hits sw.Swap.faults sw.Swap.readahead_pages sw.Swap.late_readahead
       (sw.Swap.fault_ns /. 1e6) (sw.Swap.stall_ns /. 1e6));
  let net = Mira_sim.Net.stats (Runtime.net rt) in
  Buffer.add_string buf
    (Printf.sprintf
       "network  msgs=%d in=%dKB out=%dKB (demand=%dKB prefetch=%dKB \
        writeback=%dKB rpc=%dKB)\n"
       net.Mira_sim.Net.msg_count
       (net.Mira_sim.Net.bytes_in / 1024)
       (net.Mira_sim.Net.bytes_out / 1024)
       (net.Mira_sim.Net.bytes_demand / 1024)
       (net.Mira_sim.Net.bytes_prefetch / 1024)
       (net.Mira_sim.Net.bytes_writeback / 1024)
       (net.Mira_sim.Net.bytes_rpc / 1024));
  let attr = Runtime.attribution rt in
  let total = Attribution.total_ns attr in
  if total > 0.0 then begin
    (match Attribution.check attr with
    | Ok () -> ()
    | Error msg ->
      Buffer.add_string buf (Printf.sprintf "stall    LEDGER AUDIT FAILED: %s\n" msg));
    Buffer.add_string buf
      (Printf.sprintf "stall    total=%.2fms (clock stall %.2fms)\n" (total /. 1e6)
         (Runtime.clock_stall_ns rt /. 1e6));
    List.iter
      (fun (cause, ns) ->
        if ns > 0.0 then
          Buffer.add_string buf
            (Printf.sprintf "  %-17s %10.2fms  %5.1f%%\n"
               (Attribution.cause_name cause) (ns /. 1e6) (100.0 *. ns /. total)))
      (Attribution.by_cause attr)
  end;
  let cl = Mira_sim.Cluster.stats (Runtime.cluster rt) in
  if
    cl.Mira_sim.Cluster.crashes > 0
    || cl.Mira_sim.Cluster.replication_bytes > 0
  then begin
    Buffer.add_string buf
      (Printf.sprintf
         "cluster  crashes=%d failovers=%d replicated=%dKB resync=%dKB \
          lost=%dB node_down=%d\n"
         cl.Mira_sim.Cluster.crashes cl.Mira_sim.Cluster.failovers
         (cl.Mira_sim.Cluster.replication_bytes / 1024)
         (cl.Mira_sim.Cluster.resync_bytes / 1024)
         cl.Mira_sim.Cluster.lost_bytes net.Mira_sim.Net.node_down);
    let k, m = Mira_sim.Cluster.scheme (Runtime.cluster rt) in
    Buffer.add_string buf
      (Printf.sprintf "scheme   ec=(%d,%d) reconstructions=%d decoded=%dKB\n" k
         m cl.Mira_sim.Cluster.reconstructions
         (cl.Mira_sim.Cluster.reconstructed_bytes / 1024));
    if Mira_sim.Cluster.degraded (Runtime.cluster rt) then begin
      Buffer.add_string buf "degraded mode: far data lost; per-object bytes:\n";
      List.iter
        (fun (site, bytes) ->
          Buffer.add_string buf
            (Printf.sprintf "  site %-4d lost=%dB\n" site bytes))
        (Runtime.lost_bytes_by_site rt)
    end
  end;
  Buffer.contents buf
