(* DataFrame analytics out of far memory: the workload the paper's
   evaluation runs (filter + group-by + aggregations over taxi trips),
   compared across FastSwap, AIFM, and Mira at scarce local memory.

   Run with:  dune exec examples/taxi_analytics.exe [local-memory-ratio] *)

module D = Mira_workloads.Dataframe
module C = Mira.Controller
module Machine = Mira_interp.Machine

let () =
  let ratio = try float_of_string Sys.argv.(1) with _ -> 0.15 in
  let cfg = { D.config_default with D.rows = 60_000; groups = 30_000 } in
  let prog = D.build cfg in
  let far_bytes = D.far_bytes cfg in
  let far_capacity = 4 * far_bytes in
  let budget = int_of_float (float_of_int far_bytes *. ratio) in
  Printf.printf
    "taxi trips: %d rows (%d KB of columns + group tables), local = %.0f%%\n\n"
    cfg.D.rows (far_bytes / 1024) (ratio *. 100.0);
  let measured = Mira_passes.Instrument.run_only prog ~names:[ "work" ] in
  let show name ms =
    let machine = Machine.create ~seed:7 ms measured in
    let v, ns = C.measure_work ms machine in
    Printf.printf "%-10s %10.3f ms   checksum=%s\n%!" name (ns /. 1e6)
      (Format.asprintf "%a" Mira_interp.Value.pp v);
    ns
  in
  let native = show "native" (Mira_baselines.Native.create ~capacity:far_capacity ()) in
  let fs =
    show "fastswap"
      (Mira_baselines.Fastswap.create ~local_budget:budget ~far_capacity ())
  in
  (try
     ignore
       (show "aifm"
          (Mira_baselines.Aifm.create ~gran:(D.aifm_gran prog) ~local_budget:budget
             ~far_capacity ()))
   with Mira_baselines.Aifm.Oom msg -> Printf.printf "aifm       %s\n" msg);
  let opts =
    { (C.options_default ~local_budget:budget ~far_capacity) with
      C.max_iterations = 5 }
  in
  let compiled = C.optimize opts prog in
  let _, mira = C.run compiled in
  Printf.printf "%-10s %10.3f ms   (%d profiling iterations)\n\n" "mira"
    (mira /. 1e6) compiled.C.c_iterations;
  Printf.printf "mira is %.1fx of native, %.1fx faster than fastswap\n"
    (mira /. native) (fs /. mira);
  Printf.printf "\ncontroller decisions:\n";
  List.iter
    (fun l -> if String.length l < 100 then Printf.printf "  %s\n" l)
    (List.map Mira_telemetry.Decision.render compiled.C.c_log)
