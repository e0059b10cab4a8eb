(* Many-tenant kv serving: tail latency vs tenant count.

   The sweep runs the open-loop [Kv_serving] workload at a fixed
   per-tenant offered load over growing tenant counts, so the shared
   resources (net link bandwidth, far cluster) cross saturation inside
   the sweep — p999 and the SLO-miss fraction blow up where they do in
   the paper's motivation.  Writes BENCH_serving.json (config-keyed
   rows, one [tenants=N] row per count plus a [tenants=N p999] row so
   the perf-regression gate guards the tail, not just the elapsed
   time).  Keys are uniform there, so no line is hotter than another;
   one more pair of rows, [zipf tenants=4] and [zipf tenants=4 p999],
   runs 4 tenants on Zipf 0.99 keys, where a section's victim choice
   decides whether the hot lines stay cached. *)
module K = Mira_workloads.Kv_serving
module Json = Mira_telemetry.Json
module Table = Mira_util.Table

let tenant_counts = [ 1; 2; 4; 8 ]

(* Swap-like sections (4 KiB lines), uniform keys, small cache ratio:
   high miss-byte rate, so the shared 6.25 B/ns link saturates between
   4 and 8 tenants at a 250 krps per-tenant offered load. *)
let sweep_cfg tenants =
  {
    K.config_default with
    K.tenants;
    requests = 2_500;
    keys = 16_384;
    value_bytes = 64;
    line = 4096;
    local_ratio = 0.125;
    zipf_s = 0.0;
    arrival_ns = 4_000.0;
  }

(* (row key, config); the CI gate reads the tenant count after the
   key's '='. *)
let cases =
  List.map (fun n -> (Printf.sprintf "tenants=%d" n, sweep_cfg n)) tenant_counts
  @ [ ("zipf tenants=4", { (sweep_cfg 4) with K.zipf_s = 0.99 }) ]

let run () =
  Printf.printf "\n### Serving: kv tail latency vs tenant count\n";
  let t =
    Table.create
      ~header:
        [
          "config"; "krps"; "p50 us"; "p99 us"; "p999 us"; "SLO miss";
          "sat on ms"; "host kevt/s";
        ]
  in
  let rows = ref [] in
  List.iter
    (fun (key, cfg) ->
      (* Host events/sec: scheduler dispatches per wall-clock second —
         the engine's own speed, printed only (wall time is
         nondeterministic and must never reach BENCH_serving.json). *)
      let rt = Mira_runtime.Runtime.create (K.runtime_config cfg) in
      (* The timeline sampler reads shared state only: the measured
         run (latencies, checksum, report_json) is byte-identical with
         or without it, so attaching it here cannot move the gated
         work_ms/p999 numbers — it only adds the saturation-onset
         column. *)
      let tl = K.Timeline.make () in
      let t0 = Unix.gettimeofday () in
      let r = K.run_on ~timeline:tl rt cfg in
      let wall_s = Unix.gettimeofday () -. t0 in
      let dispatched =
        Mira_sim.Sched.dispatched (Mira_runtime.Runtime.sched rt)
      in
      let kevt_s =
        if wall_s > 0.0 then float_of_int dispatched /. wall_s /. 1e3 else 0.0
      in
      let sat_onset = K.Timeline.saturation_onset_ns tl in
      Table.add_row t
        [
          key;
          Printf.sprintf "%.0f" (r.K.throughput_rps /. 1e3);
          Printf.sprintf "%.1f" (r.K.agg_p50_ns /. 1e3);
          Printf.sprintf "%.1f" (r.K.agg_p99_ns /. 1e3);
          Printf.sprintf "%.1f" (r.K.agg_p999_ns /. 1e3);
          Printf.sprintf "%.2f%%" (100.0 *. r.K.agg_slo_miss_frac);
          (match sat_onset with
           | Some ns -> Printf.sprintf "%.2f" (ns /. 1e6)
           | None -> "-");
          Printf.sprintf "%.0f" kevt_s;
        ];
      let detail =
        match K.report_json r with Json.Obj fields -> fields | _ -> []
      in
      (* Saturation onset (first window with the wire >= 95% busy on
         this unbounded data plane), from the timeline.  Additive:
         bench_diff reads only config/work_ms, so old and new baselines
         stay mutually comparable. *)
      let detail =
        detail
        @ [
            ( "sat_onset_ms",
              match sat_onset with
              | Some ns -> Json.Float (ns /. 1e6)
              | None -> Json.Null );
          ]
      in
      rows :=
        Json.Obj
          [
            ("config", Json.Str (key ^ " p999"));
            ("work_ms", Json.Float (r.K.agg_p999_ns /. 1e6));
          ]
        :: Json.Obj
             (("config", Json.Str key)
             :: ("work_ms", Json.Float (r.K.elapsed_ns /. 1e6))
             :: detail)
        :: !rows)
    cases;
  Table.print t;
  Harness.write_bench_json ~name:"serving"
    (Json.Obj [ ("title", Json.Str "serving"); ("rows", Json.List (List.rev !rows)) ])
