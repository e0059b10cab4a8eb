(* Shared infrastructure for the figure benchmarks: run a workload
   program on any memory system and report the simulated time of its
   measured [work] function, normalized against the native run. *)
module Ir = Mira_mir.Ir
module Machine = Mira_interp.Machine
module Value = Mira_interp.Value
module C = Mira.Controller
module Table = Mira_util.Table
module Json = Mira_telemetry.Json
module Decision = Mira_telemetry.Decision

type system =
  | Native
  | Fastswap
  | Leap
  | Aifm of (Ir.program -> int -> int)  (** granularity per site *)
  | Mira_sys of (C.options -> C.options)  (** option tweak (ablation) *)

let system_name = function
  | Native -> "native"
  | Fastswap -> "fastswap"
  | Leap -> "leap"
  | Aifm _ -> "aifm"
  | Mira_sys _ -> "mira"

type outcome = Time of float | Failed of string

type ctx = {
  params : Mira_sim.Params.t;
  far_capacity : int;
  prog : Ir.program;
  verbose : bool;
  mira_iterations : int;
  nthreads : int;
  tenants : int;
}

(* Benchmark-context builder: [Ctx.make ~far_bytes prog] gives the
   defaults, [with_*] customizes.  Every system a sweep runs receives
   the same context, so a tweak (thread count, tenant count, params)
   applies uniformly. *)
module Ctx = struct
  type t = ctx

  let make ~far_bytes prog =
    {
      params = Mira_sim.Params.default;
      far_capacity = Mira_util.Misc.round_up (4 * far_bytes) 4096;
      prog;
      verbose = false;
      mira_iterations = 4;
      nthreads = 1;
      tenants = 1;
    }

  let with_params params t = { t with params }
  let with_verbose verbose t = { t with verbose }

  let with_iterations mira_iterations t =
    if mira_iterations < 1 then
      invalid_arg "Ctx.with_iterations: must be >= 1";
    { t with mira_iterations }

  let with_nthreads nthreads t =
    if nthreads < 1 then invalid_arg "Ctx.with_nthreads: must be >= 1";
    { t with nthreads }

  let with_tenants tenants t =
    if tenants < 1 then invalid_arg "Ctx.with_tenants: must be >= 1";
    { t with tenants }
end

let measured ctx = Mira_passes.Instrument.run_only ctx.prog ~names:[ C.work_function ctx.prog ]

(* Simulated work time for one system at one local-memory budget;
   for Mira also the trajectory from the controller's decision trace:
   each iteration's work_ns, or aborted_past_ns for a measure stopped
   past twice the best. *)
let run_detail ctx ~budget system =
  let p = ctx.params in
  try
    match system with
    | Native ->
      let ms = Mira_baselines.Native.create ~params:p ~capacity:ctx.far_capacity () in
      let machine = Machine.create ~nthreads:ctx.nthreads ~seed:42 ms (measured ctx) in
      (Time (snd (C.measure_work ms machine)), None)
    | Fastswap ->
      let ms =
        Mira_baselines.Fastswap.create ~params:p ~local_budget:budget
          ~far_capacity:ctx.far_capacity ()
      in
      let machine = Machine.create ~nthreads:ctx.nthreads ~seed:42 ms (measured ctx) in
      (Time (snd (C.measure_work ms machine)), None)
    | Leap ->
      let ms =
        Mira_baselines.Leap.create ~params:p ~local_budget:budget
          ~far_capacity:ctx.far_capacity ()
      in
      let machine = Machine.create ~nthreads:ctx.nthreads ~seed:42 ms (measured ctx) in
      (Time (snd (C.measure_work ms machine)), None)
    | Aifm gran ->
      let ms =
        Mira_baselines.Aifm.create ~params:p ~gran:(gran ctx.prog)
          ~local_budget:budget ~far_capacity:ctx.far_capacity ()
      in
      let machine = Machine.create ~nthreads:ctx.nthreads ~seed:42 ms (measured ctx) in
      (Time (snd (C.measure_work ms machine)), None)
    | Mira_sys tweak ->
      let opts =
        tweak
          { (C.options_default ~local_budget:budget ~far_capacity:ctx.far_capacity) with
            C.params = p;
            max_iterations = ctx.mira_iterations;
            nthreads = ctx.nthreads;
            tenants = ctx.tenants;
            verbose = ctx.verbose }
      in
      let compiled = C.optimize opts ctx.prog in
      let trajectory =
        List.filter_map
          (function
            | Decision.Profile_run { iteration; work_ns } ->
              Some (iteration, "work_ns", work_ns)
            | Decision.Measure { iteration; work_ns; _ } ->
              Some (iteration, "work_ns", work_ns)
            | Decision.Measure_aborted { iteration; limit_ns; _ } ->
              Some (iteration, "aborted_past_ns", limit_ns)
            | _ -> None)
          compiled.C.c_log
      in
      (Time (snd (C.run compiled)), Some trajectory)
  with
  | Mira_baselines.Aifm.Oom _ -> (Failed "OOM", None)
  | e -> (Failed (Printexc.to_string e), None)

let run ctx ~budget system = fst (run_detail ctx ~budget system)

let cell ~native = function
  | Time t -> Printf.sprintf "%.2fx" (t /. native)
  | Failed msg -> msg

let cell_ms = function
  | Time t -> Printf.sprintf "%.3f" (t /. 1e6)
  | Failed msg -> msg

(* When MIRA_BENCH_JSON names a directory, every sweep also writes a
   machine-readable BENCH_<slug>.json there (see EXPERIMENTS.md). *)
let bench_json_dir () =
  match Sys.getenv_opt "MIRA_BENCH_JSON" with
  | Some d when d <> "" -> Some d
  | _ -> None

let slug title =
  let b = Buffer.create (String.length title) in
  let last_us = ref true in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' ->
        Buffer.add_char b c;
        last_us := false
      | 'A' .. 'Z' ->
        Buffer.add_char b (Char.lowercase_ascii c);
        last_us := false
      | _ ->
        if not !last_us then Buffer.add_char b '_';
        last_us := true)
    title;
  let s = Buffer.contents b in
  if s <> "" && s.[String.length s - 1] = '_' then
    String.sub s 0 (String.length s - 1)
  else s

let outcome_json ~native (outcome, trajectory) name =
  let base =
    match outcome with
    | Time t ->
      [
        ("system", Json.Str name);
        ("work_ms", Json.Float (t /. 1e6));
        ("slowdown_vs_native", Json.Float (t /. native));
      ]
    | Failed msg -> [ ("system", Json.Str name); ("failed", Json.Str msg) ]
  in
  let traj =
    match trajectory with
    | None -> []
    | Some points ->
      [
        ( "iterations",
          Json.List
            (List.map
               (fun (i, field, ns) ->
                 Json.Obj [ ("iteration", Json.Int i); (field, Json.Float ns) ])
               points) );
      ]
  in
  Json.Obj (base @ traj)

(* Sweep local-memory ratios for a list of systems; prints relative
   slowdown vs native (1.00x = full-local-memory speed) and returns the
   sweep's BENCH document. *)
let sweep_doc ctx ~far_bytes ~ratios ~systems ~title =
  Printf.printf "\n### %s\n" title;
  let native =
    match run ctx ~budget:ctx.far_capacity Native with
    | Time t -> t
    | Failed m -> failwith ("native run failed: " ^ m)
  in
  Printf.printf "native work time: %.3f ms (all cells = slowdown vs native)\n"
    (native /. 1e6);
  let t =
    Table.create ~header:("local memory" :: List.map system_name systems)
  in
  let rows = ref [] in
  List.iter
    (fun ratio ->
      let budget =
        max (10 * 4096) (int_of_float (float_of_int far_bytes *. ratio))
      in
      let outcomes =
        List.map (fun s -> (system_name s, run_detail ctx ~budget s)) systems
      in
      let row =
        Printf.sprintf "%.0f%%" (ratio *. 100.0)
        :: List.map (fun (_, (o, _)) -> cell ~native o) outcomes
      in
      Table.add_row t row;
      rows :=
        Json.Obj
          [
            ("ratio", Json.Float ratio);
            ("local_budget_bytes", Json.Int budget);
            ( "systems",
              Json.List
                (List.map (fun (n, d) -> outcome_json ~native d n) outcomes) );
          ]
        :: !rows)
    ratios;
  Table.print t;
  Json.Obj
    [
      ("title", Json.Str title);
      ("native_work_ms", Json.Float (native /. 1e6));
      ("far_bytes", Json.Int far_bytes);
      ("nthreads", Json.Int ctx.nthreads);
      ("rows", Json.List (List.rev !rows));
    ]

(* Write [doc] as BENCH_<name>.json when MIRA_BENCH_JSON is set. *)
let write_bench_json ~name doc =
  match bench_json_dir () with
  | None -> ()
  | Some dir ->
    let path = Filename.concat dir ("BENCH_" ^ name ^ ".json") in
    (* never lose a finished sweep to an unwritable output directory *)
    (try
       let oc = open_out path in
       output_string oc (Json.to_string_pretty doc);
       output_char oc '\n';
       close_out oc;
       Printf.printf "[bench json: %s]\n" path
     with Sys_error msg -> Printf.eprintf "[bench json skipped: %s]\n" msg)

let sweep ctx ~far_bytes ~ratios ~systems ~title =
  write_bench_json ~name:(slug title) (sweep_doc ctx ~far_bytes ~ratios ~systems ~title)

let checksum_guard ctx ~budget =
  (* every system must compute the same program result *)
  let value system =
    match system with
    | Native ->
      let ms = Mira_baselines.Native.create ~params:ctx.params ~capacity:ctx.far_capacity () in
      Some (Machine.run (Machine.create ~nthreads:ctx.nthreads ~seed:42 ms (measured ctx)))
    | _ -> (
      try
        match system with
        | Fastswap ->
          let ms =
            Mira_baselines.Fastswap.create ~params:ctx.params ~local_budget:budget
              ~far_capacity:ctx.far_capacity ()
          in
          Some (Machine.run (Machine.create ~nthreads:ctx.nthreads ~seed:42 ms (measured ctx)))
        | _ -> None
      with _ -> None)
  in
  match (value Native, value Fastswap) with
  | Some a, Some b when not (Value.equal a b) ->
    failwith "checksum mismatch between systems"
  | _ -> ()
