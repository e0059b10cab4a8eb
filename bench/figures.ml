(* One entry per figure/table of the paper's evaluation (see DESIGN.md
   §4 for the mapping).  Each prints the series the paper plots. *)
module Ir = Mira_mir.Ir
module Machine = Mira_interp.Machine
module C = Mira.Controller
module SP = Mira.Section_planner
module Section = Mira_cache.Section
module Swap = Mira_cache.Swap_section
module Manager = Mira_cache.Manager
module Runtime = Mira_runtime.Runtime
module Pipeline = Mira_passes.Pipeline
module Table = Mira_util.Table
module G = Mira_workloads.Graph_traversal
module D = Mira_workloads.Dataframe
module M = Mira_workloads.Mcf
module Gpt = Mira_workloads.Gpt2
module Wu = Mira_workloads.Workload_util
open Harness

(* Workload scales: large enough to exercise the memory system, small
   enough that the whole suite completes in minutes. *)
let graph_cfg = { G.config_default with G.num_edges = 40_000; num_nodes = 4_000 }
let graph3_cfg = { graph_cfg with G.with_random_array = true; random_array_elems = 40_000 }
let df_cfg = { D.config_default with D.rows = 40_000; groups = 20_000 }
let mcf_cfg = { M.config_default with M.num_nodes = 5_000; num_arcs = 30_000; rounds = 2 }
let gpt_cfg = { Gpt.config_default with Gpt.layers = 6; d_model = 32; seq = 16 }

let ratios_wide = [ 0.15; 0.2; 0.3; 0.5; 0.8; 1.0 ]
let ratios_narrow = [ 0.12; 0.2; 0.3; 0.5 ]

let mira_default o = o

(* --- manual-section runner (deep-dive figures) --------------------------- *)

(* Run a program with hand-specified sections (bypassing the controller)
   so a single knob can be swept in isolation. *)
let run_manual ?(params = Mira_sim.Params.default) ?(nthreads = 1) ~budget
    ~far_capacity ~prog ~plan ~sections () =
  let rt =
    Runtime.create
      { (Runtime.config_default ~local_budget:budget ~far_capacity) with
        Runtime.params }
  in
  Runtime.configure rt { Manager.sections; per_thread = [] };
  let compiled =
    Mira_passes.Pipeline.apply prog plan ~params
    |> Mira_passes.Instrument.run_only ~names:[ C.work_function prog ]
  in
  let ms = Runtime.memsys rt in
  let machine = Machine.create ~nthreads ~seed:42 ms compiled in
  let _, work_ns = C.measure_work ms machine in
  (work_ns, rt)

let graph_sites prog = (Wu.site_id prog "edges", Wu.site_id prog "nodes")

let graph_plan prog ~eline ~nline ~prefetch ~evict =
  let e, n = graph_sites prog in
  {
    Pipeline.selected = [ e; n ];
    lines = [ (e, eline); (n, nline) ];
    resident = [];
    fuse = true;
    prefetch;
    evict;
    native = true;
    offload = false;
    instrument = false;
  }

let edge_cfg ?(line = 2048) ?(size = 20 * 2048) () =
  { (Section.config_default ~sec_id:1 ~name:"edges" ~line ~size) with
    Section.structure = Section.Direct; no_meta = true }

let node_cfg ?(structure = Section.Set_assoc 8) ?(line = 128) ~size () =
  { (Section.config_default ~sec_id:2 ~name:"nodes" ~line ~size) with
    Section.structure }

(* --- Figure 5: graph traversal, 4 systems ------------------------------- *)

let graph_figure () =
  let far = G.far_bytes graph_cfg in
  ( Ctx.make ~far_bytes:far (G.build graph_cfg),
    far,
    "Figure 5: graph traversal, relative performance vs local memory" )

let fig5 () =
  let ctx, far, title = graph_figure () in
  sweep ctx ~far_bytes:far ~ratios:ratios_wide
    ~systems:[ Fastswap; Leap; Aifm G.aifm_gran; Mira_sys mira_default ]
    ~title

(* --- Figure 6: effect of Mira techniques (cumulative) -------------------- *)

(* Every stage keeps the controller's rollback: a stage that cannot
   beat the generic swap configuration honestly reports swap time
   (techniques whose benefit only materializes jointly show up as flat
   segments, which is what actually happens). *)
let ablations =
  [
    ("swap only", fun o -> { o with C.feat_sections = false });
    ( "+sections",
      fun o ->
        { o with C.feat_prefetch = false; feat_evict = false; feat_fusion = false;
                 feat_native = false } );
    ("+prefetch", fun o -> { o with C.feat_evict = false; feat_fusion = false });
    ("+evict hints", fun o -> { o with C.feat_fusion = false });
    ("+batch/native (all)", fun o -> o);
  ]

let cumulative_ablation ~title ~prog ~far ?(params = Mira_sim.Params.default)
    ?(extra = []) ~ratio () =
  Printf.printf "\n### %s\n" title;
  let ctx = Ctx.make ~far_bytes:far prog |> Ctx.with_params params |> Ctx.with_iterations 3 in
  let native =
    match run ctx ~budget:ctx.far_capacity Native with
    | Time t -> t
    | Failed m -> failwith m
  in
  let budget = int_of_float (float_of_int far *. ratio) in
  let t = Table.create ~header:[ "configuration"; "slowdown vs native" ] in
  List.iter
    (fun (name, tweak) ->
      Table.add_row t [ name; cell ~native (run ctx ~budget (Mira_sys tweak)) ])
    (ablations @ extra);
  Table.print t

let fig6 () =
  let prog = G.build graph_cfg in
  cumulative_ablation
    ~title:"Figure 6: effect of Mira techniques (graph traversal, 25% local)"
    ~prog ~far:(G.far_bytes graph_cfg) ~ratio:0.25 ()

(* --- Figures 7/8: cache separation -------------------------------------- *)

let fig7_8 () =
  let prog = G.build graph_cfg in
  let far = G.far_bytes graph_cfg in
  let far_capacity = 4 * far in
  Printf.printf
    "\n### Figure 7: separating cache sections (graph traversal)\n";
  Printf.printf
    "### Figure 8: node-array miss rate, joint vs separated cache\n";
  let e, n = graph_sites prog in
  let t =
    Table.create
      ~header:[ "local memory"; "joint (ms)"; "separated (ms)";
                "joint node miss%"; "separated node miss%" ]
  in
  List.iter
    (fun ratio ->
      let budget = int_of_float (float_of_int far *. ratio) in
      let section_space = max (64 * 1024) (budget - (16 * 4096)) in
      (* prefetch off: this figure isolates the interference between the
         streaming edge array and the randomly-hit node array — the
         mechanism cache separation removes (prefetching, measured in
         Figure 15, would mask the miss rates). *)
      let plan = graph_plan prog ~eline:2048 ~nline:128 ~prefetch:false ~evict:false in
      (* joint: one fully-associative section holds both arrays *)
      let joint_cfg =
        { (Section.config_default ~sec_id:1 ~name:"joint" ~line:128
             ~size:section_space)
          with Section.structure = Section.Full_assoc }
      in
      let joint_ns, joint_rt =
        run_manual ~budget ~far_capacity ~prog ~plan
          ~sections:[ (joint_cfg, [ e; n ]) ] ()
      in
      let joint_stats =
        Section.stats (Option.get (Manager.find_section (Runtime.manager joint_rt) ~id:1))
      in
      (* separated: stream section for edges + set-assoc for nodes *)
      let es = edge_cfg () in
      let ns =
        node_cfg ~size:(max (16 * 1024) (section_space - es.Section.size)) ()
      in
      let sep_ns, sep_rt =
        run_manual ~budget ~far_capacity ~prog ~plan
          ~sections:[ (es, [ e ]); (ns, [ n ]) ] ()
      in
      let sep_stats =
        Section.stats (Option.get (Manager.find_section (Runtime.manager sep_rt) ~id:2))
      in
      let miss_pct (s : Section.stats) =
        100.0 *. float_of_int s.Section.misses
        /. float_of_int (max 1 (s.Section.hits + s.Section.misses))
      in
      Table.add_row t
        [
          Printf.sprintf "%.0f%%" (ratio *. 100.0);
          Printf.sprintf "%.2f" (joint_ns /. 1e6);
          Printf.sprintf "%.2f" (sep_ns /. 1e6);
          Printf.sprintf "%.1f%%" (miss_pct joint_stats);
          Printf.sprintf "%.1f%%" (miss_pct sep_stats);
        ])
    [ 0.3; 0.5; 0.7 ];
  Table.print t

(* --- Figure 9: cache line size ------------------------------------------- *)

let fig9 () =
  let prog = G.build graph_cfg in
  let far = G.far_bytes graph_cfg in
  let far_capacity = 4 * far in
  let budget = far / 3 in
  let e, n = graph_sites prog in
  Printf.printf "\n### Figure 9: cache overhead vs line size (per section)\n";
  let t =
    Table.create ~header:[ "line size"; "edge section (ms)"; "node section (ms)" ]
  in
  List.iter
    (fun line ->
      let plan = graph_plan prog ~eline:line ~nline:128 ~prefetch:true ~evict:true in
      let es = edge_cfg ~line ~size:(20 * line) () in
      let ns = node_cfg ~size:(256 * 1024) () in
      let _, rt =
        run_manual ~budget ~far_capacity ~prog ~plan
          ~sections:[ (es, [ e ]); (ns, [ n ]) ] ()
      in
      let overhead id =
        let s = Section.stats (Option.get (Manager.find_section (Runtime.manager rt) ~id)) in
        (s.Section.hit_ns +. s.Section.miss_ns +. s.Section.stall_ns) /. 1e6
      in
      let edge_ms = overhead 1 in
      (* node line sweep uses the same run grid transposed below *)
      let plan2 =
        graph_plan prog ~eline:2048 ~nline:(min line 1024) ~prefetch:true ~evict:true
      in
      let es2 = edge_cfg () in
      let ns2 = node_cfg ~line:(min line 1024) ~size:(256 * 1024) () in
      let _, rt2 =
        run_manual ~budget ~far_capacity ~prog ~plan:plan2
          ~sections:[ (es2, [ e ]); (ns2, [ n ]) ] ()
      in
      let s2 = Section.stats (Option.get (Manager.find_section (Runtime.manager rt2) ~id:2)) in
      let node_ms = (s2.Section.hit_ns +. s2.Section.miss_ns +. s2.Section.stall_ns) /. 1e6 in
      Table.add_row t
        [ Printf.sprintf "%dB" line; Printf.sprintf "%.2f" edge_ms;
          Printf.sprintf "%.2f" node_ms ])
    [ 128; 256; 512; 1024; 2048; 4096; 8192 ];
  Table.print t

(* --- Figure 10: cache structure ------------------------------------------ *)

let fig10 () =
  let prog = G.build graph_cfg in
  let far = G.far_bytes graph_cfg in
  let far_capacity = 4 * far in
  let e, n = graph_sites prog in
  Printf.printf "\n### Figure 10: node-section structure vs local memory (work ms)\n";
  let structures =
    [ ("direct", Section.Direct); ("set2", Section.Set_assoc 2);
      ("set8", Section.Set_assoc 8); ("full", Section.Full_assoc) ]
  in
  let t = Table.create ~header:("local memory" :: List.map fst structures) in
  List.iter
    (fun ratio ->
      let budget = int_of_float (float_of_int far *. ratio) in
      let row =
        List.map
          (fun (_, structure) ->
            let plan = graph_plan prog ~eline:2048 ~nline:128 ~prefetch:true ~evict:true in
            let es = edge_cfg () in
            let nsize = max (32 * 1024) (budget - es.Section.size - (64 * 4096)) in
            let ns = node_cfg ~structure ~size:nsize () in
            let work_ns, _ =
              run_manual ~budget ~far_capacity ~prog ~plan
                ~sections:[ (es, [ e ]); (ns, [ n ]) ] ()
            in
            Printf.sprintf "%.2f" (work_ns /. 1e6))
          structures
      in
      Table.add_row t (Printf.sprintf "%.0f%%" (ratio *. 100.0) :: row))
    [ 0.2; 0.3; 0.5; 0.8 ];
  Table.print t

(* --- Figures 11/12: section sizing and the ILP --------------------------- *)

let fig11_12 () =
  let prog = G.build graph3_cfg in
  let far = G.far_bytes graph3_cfg in
  let far_capacity = 4 * far in
  let budget = far / 3 in
  let e = Wu.site_id prog "edges"
  and n = Wu.site_id prog "nodes"
  and r = Wu.site_id prog "rnd" in
  let plan =
    {
      Pipeline.selected = [ e; n; r ];
      lines = [ (e, 2048); (n, 128); (r, 8) ];
      resident = [];
      fuse = true; prefetch = true; evict = true; native = true;
      offload = false; instrument = false;
    }
  in
  let es = edge_cfg () in
  let avail = budget - es.Section.size - (32 * 4096) in
  let run_with ~nsize ~rsize =
    let ns = node_cfg ~size:nsize () in
    let rs =
      { (Section.config_default ~sec_id:3 ~name:"rnd" ~line:8 ~size:rsize) with
        Section.structure = Section.Full_assoc }
    in
    run_manual ~budget ~far_capacity ~prog ~plan
      ~sections:[ (es, [ e ]); (ns, [ n ]); (rs, [ r ]) ] ()
  in
  Printf.printf "\n### Figure 11: per-section overhead vs sampled section size\n";
  let t = Table.create ~header:[ "size (% of avail)"; "node section (ms)"; "rnd section (ms)" ] in
  let fractions = [ 0.2; 0.4; 0.6; 0.8 ] in
  let node_curve = ref [] and rnd_curve = ref [] in
  List.iter
    (fun frac ->
      let size = int_of_float (float_of_int avail *. frac) in
      let other = avail - size in
      let _, rt_n = run_with ~nsize:size ~rsize:other in
      let over id rt =
        let s = Section.stats (Option.get (Manager.find_section (Runtime.manager rt) ~id)) in
        (s.Section.hit_ns +. s.Section.miss_ns +. s.Section.stall_ns) /. 1e6
      in
      let node_ms = over 2 rt_n in
      let _, rt_r = run_with ~nsize:other ~rsize:size in
      let rnd_ms = over 3 rt_r in
      node_curve := (size, node_ms) :: !node_curve;
      rnd_curve := (size, rnd_ms) :: !rnd_curve;
      Table.add_row t
        [ Printf.sprintf "%.0f%%" (frac *. 100.0); Printf.sprintf "%.2f" node_ms;
          Printf.sprintf "%.2f" rnd_ms ])
    fractions;
  Table.print t;
  Printf.printf
    "\n### Figure 12: local-memory partitions across sections (work ms)\n";
  let t2 = Table.create ~header:[ "partition (node/rnd)"; "work (ms)" ] in
  let partitions = [ (0.25, 0.75); (0.5, 0.5); (0.75, 0.25) ] in
  let results =
    List.map
      (fun (fn, fr) ->
        let work_ns, _ =
          run_with
            ~nsize:(int_of_float (float_of_int avail *. fn))
            ~rsize:(int_of_float (float_of_int avail *. fr))
        in
        ((fn, fr), work_ns))
      partitions
  in
  List.iter
    (fun ((fn, fr), work_ns) ->
      Table.add_row t2
        [ Printf.sprintf "%.0f%%/%.0f%%" (fn *. 100.0) (fr *. 100.0);
          Printf.sprintf "%.2f" (work_ns /. 1e6) ])
    results;
  (* the ILP choice from the sampled curves *)
  let cands =
    [
      { Mira_cache.Sizing.cand_id = 2; options = Array.of_list !node_curve; aborted = [] };
      { Mira_cache.Sizing.cand_id = 3; options = Array.of_list !rnd_curve; aborted = [] };
    ]
  in
  (match Mira_cache.Sizing.solve ~budget:avail cands with
  | Ok { Mira_cache.Sizing.assignment; _ } ->
    let nsize = List.assoc 2 assignment and rsize = List.assoc 3 assignment in
    let work_ns, _ = run_with ~nsize ~rsize in
    Table.add_row t2
      [ Printf.sprintf "ILP: %d%%/%d%%" (100 * nsize / avail) (100 * rsize / avail);
        Printf.sprintf "%.2f" (work_ns /. 1e6) ]
  | Error m -> Table.add_row t2 [ "ILP"; "infeasible: " ^ m ]);
  Table.print t2

(* --- Figure 13/14: the compiled code ------------------------------------- *)

let fig13 () =
  Printf.printf
    "\n### Figure 13/14: graph traversal compiled to remotable/rmem IR\n";
  let prog = G.build { graph_cfg with G.num_edges = 1000; num_nodes = 100 } in
  let e, n = graph_sites prog in
  let plan =
    Pipeline.plan_all ~selected:[ e; n ] ~lines:[ (e, 1024); (n, 128) ]
  in
  let plan = { plan with Pipeline.offload = false } in
  let compiled = Pipeline.apply prog plan ~params:Mira_sim.Params.default in
  print_endline
    (Mira_mir.Printer.func_to_string (Ir.find_func compiled "work"))

(* --- Figure 15: prefetch + eviction hints vs Leap ------------------------- *)

let fig15 () =
  let prog = G.build graph_cfg in
  let far = G.far_bytes graph_cfg in
  let ctx = Ctx.make ~far_bytes:far prog in
  Printf.printf "\n### Figure 15: prefetching and eviction hints (graph)\n";
  let native =
    match run ctx ~budget:ctx.far_capacity Native with
    | Time t -> t
    | Failed m -> failwith m
  in
  let t =
    Table.create
      ~header:[ "local memory"; "mira no pf/ev"; "mira +prefetch"; "mira +both"; "leap" ]
  in
  List.iter
    (fun ratio ->
      let budget = int_of_float (float_of_int far *. ratio) in
      let cellf tweak = cell ~native (run ctx ~budget (Mira_sys tweak)) in
      Table.add_row t
        [
          Printf.sprintf "%.0f%%" (ratio *. 100.0);
          cellf (fun o ->
              { o with C.feat_prefetch = false; feat_evict = false; always_accept = true });
          cellf (fun o -> { o with C.feat_evict = false; always_accept = true });
          cellf (fun o -> { o with C.always_accept = true });
          cell ~native (run ctx ~budget Leap);
        ])
    [ 0.2; 0.3; 0.5 ];
  Table.print t

(* --- Figures 16/17/18: the three applications ----------------------------- *)

let df_figure () =
  let far = D.far_bytes df_cfg in
  ( Ctx.make ~far_bytes:far (D.build df_cfg) |> Ctx.with_iterations 4,
    far,
    "Figure 16: DataFrame, relative performance vs local memory" )

let fig16 () =
  let ctx, far, title = df_figure () in
  sweep ctx ~far_bytes:far ~ratios:ratios_wide
    ~systems:[ Fastswap; Leap; Aifm D.aifm_gran; Mira_sys mira_default ]
    ~title

let fig17 () =
  let prog = Gpt.build gpt_cfg in
  let far = Gpt.far_bytes gpt_cfg in
  let ctx =
    Ctx.make ~far_bytes:far prog
    |> Ctx.with_params Gpt.params |> Ctx.with_iterations 4
  in
  sweep ctx ~far_bytes:far ~ratios:ratios_narrow
    ~systems:[ Fastswap; Leap; Mira_sys mira_default ]
    ~title:"Figure 17: GPT-2 inference, relative performance vs local memory"

let mcf_figure () =
  let far = M.far_bytes mcf_cfg in
  ( Ctx.make ~far_bytes:far (M.build mcf_cfg),
    far,
    "Figure 18: MCF, relative performance vs local memory" )

let fig18 () =
  let ctx, far, title = mcf_figure () in
  sweep ctx ~far_bytes:far ~ratios:ratios_wide
    ~systems:[ Fastswap; Leap; Aifm M.aifm_gran; Mira_sys mira_default ]
    ~title

(* --- Figures 19/20: runtime and metadata overhead at full memory ---------- *)

let micro_cfg = Mira_workloads.Micro_sum.config_default

let apps () =
  [
    ("micro-sum", Mira_workloads.Micro_sum.build micro_cfg,
     Mira_workloads.Micro_sum.far_bytes micro_cfg, Mira_sim.Params.default);
    ("graph", G.build graph_cfg, G.far_bytes graph_cfg, Mira_sim.Params.default);
    ("dataframe", D.build df_cfg, D.far_bytes df_cfg, Mira_sim.Params.default);
    ("mcf", M.build mcf_cfg, M.far_bytes mcf_cfg, Mira_sim.Params.default);
  ]

let fig19 () =
  Printf.printf
    "\n### Figure 19: run-time overhead at 100%% local memory (vs native)\n";
  let t = Table.create ~header:[ "application"; "mira"; "aifm" ] in
  List.iter
    (fun (name, prog, far, params) ->
      let ctx = Ctx.make ~far_bytes:far prog |> Ctx.with_params params in
      let native =
        match run ctx ~budget:ctx.far_capacity Native with
        | Time v -> v
        | Failed m -> failwith m
      in
      let pct = function
        | Time v -> Printf.sprintf "+%.1f%%" (100.0 *. ((v /. native) -. 1.0))
        | Failed m -> m
      in
      let budget = 2 * far in
      Table.add_row t
        [
          name;
          pct (run ctx ~budget (Mira_sys mira_default));
          pct (run ctx ~budget (Aifm (fun p s -> max 128 (Wu.elem_gran p s))));
        ])
    (apps ());
  Table.print t

let fig20 () =
  Printf.printf "\n### Figure 20: local-memory metadata footprint (KB)\n";
  let t =
    Table.create
      ~header:[ "application"; "data (KB)"; "mira sections"; "mira meta"; "aifm meta" ]
  in
  List.iter
    (fun (name, prog, far, params) ->
      let budget = far / 5 in
      let far_capacity = 4 * far in
      (* Mira: the plan the controller compiles at 20% local memory
         (Fig 5's headline ratio), swap page table included *)
      let compiled =
        C.optimize
          { (C.options_default ~local_budget:budget ~far_capacity) with
            C.params; max_iterations = 4 }
          prog
      in
      let rt, _ = C.instantiate compiled in
      let mira_meta = Manager.metadata_bytes (Runtime.manager rt) in
      let sections =
        match compiled.C.c_assignments with
        | [] -> "none"
        | assignments ->
          String.concat " "
            (List.map
               (fun a ->
                 let cfg = a.C.a_spec.SP.sp_cfg in
                 Printf.sprintf "%s:%s" cfg.Section.sec_name
                   (if Section.resident_section cfg then "resident"
                    else if cfg.Section.no_meta then "no-meta"
                    else "looked-up"))
               assignments)
      in
      (* AIFM metadata: run it and ask *)
      let aifm_meta =
        try
          let ms =
            Mira_baselines.Aifm.create ~params
              ~gran:(fun s -> max 64 (Wu.elem_gran prog s))
              ~local_budget:(4 * far) ~far_capacity ()
          in
          let machine = Machine.create ~seed:42 ms prog in
          ignore (Machine.run machine);
          Printf.sprintf "%d" (ms.Mira_runtime.Memsys.metadata_bytes () / 1024)
        with _ -> "OOM"
      in
      Table.add_row t
        [ name; string_of_int (far / 1024); sections;
          Printf.sprintf "%.1f" (float_of_int mira_meta /. 1024.0); aifm_meta ])
    (apps ());
  Table.print t

(* --- Figure 21: technique deep-dive per application ----------------------- *)

let fig21 () =
  let offload_stage = [ ("+offload", fun o -> { o with C.feat_offload = true }) ] in
  let entries =
    [
      ("graph 25%", G.build graph_cfg, G.far_bytes graph_cfg,
       Mira_sim.Params.default, 0.25, []);
      ("dataframe 15%", D.build df_cfg, D.far_bytes df_cfg,
       Mira_sim.Params.default, 0.15, []);
      ("mcf 12%", M.build mcf_cfg, M.far_bytes mcf_cfg,
       Mira_sim.Params.default, 0.12, offload_stage);
    ]
  in
  List.iter
    (fun (title, prog, far, params, ratio, extra) ->
      cumulative_ablation ~title:("Figure 21: " ^ title) ~prog ~far ~params
        ~extra ~ratio ())
    entries

(* --- Figure 22: selective transmission ------------------------------------ *)

(* The node section with whole lines (one-sided) and with the field
   payload the planner picks for the node site (two-sided), each run
   once: (transfer mode, work ns, net bytes in, net bytes out). *)
let fig22_runs () =
  let prog = G.build graph_cfg in
  let far = G.far_bytes graph_cfg in
  let far_capacity = 4 * far in
  let budget = far / 4 in
  let e, n = graph_sites prog in
  let planned =
    match
      SP.plan ~params:Mira_sim.Params.default ~summaries:(C.site_summaries prog [ n ])
        ~site_bytes:(fun _ -> 0) ~first_id:2
    with
    | [ spec ] -> spec.SP.sp_cfg
    | specs -> failwith (Printf.sprintf "fig22: %d node sections" (List.length specs))
  in
  let fields =
    match planned.Section.payload with
    | Some fields -> fields
    | None -> failwith "fig22: the planner gave the node site no payload"
  in
  List.map
    (fun (name, payload, side) ->
      let plan = graph_plan prog ~eline:2048 ~nline:128 ~prefetch:true ~evict:true in
      let ns =
        { (node_cfg ~size:(max (32 * 1024) (budget / 2)) ()) with
          Section.payload; side }
      in
      let work_ns, rt =
        run_manual ~budget ~far_capacity ~prog ~plan
          ~sections:[ (edge_cfg (), [ e ]); (ns, [ n ]) ] ()
      in
      let stats = Mira_sim.Net.stats (Runtime.net rt) in
      (name, work_ns, stats.Mira_sim.Net.bytes_in, stats.Mira_sim.Net.bytes_out))
    [
      (Printf.sprintf "whole %dB line (one-sided)" G.node_bytes, None,
       Mira_sim.Net.One_sided);
      ( Printf.sprintf "accessed fields only, %dB (two-sided)"
          (List.fold_left (fun acc (_, len) -> acc + len) 0 fields),
        Some fields, planned.Section.side );
    ]

let fig22_title = "Figure 22: selective transmission (node section, 25% local)"

let fig22 () =
  Printf.printf "\n### %s\n" fig22_title;
  let t =
    Table.create ~header:[ "transfer"; "work (ms)"; "net in (KB)"; "net out (KB)" ]
  in
  List.iter
    (fun (name, work_ns, bytes_in, bytes_out) ->
      Table.add_row t
        [ name; Printf.sprintf "%.2f" (work_ns /. 1e6);
          string_of_int (bytes_in / 1024); string_of_int (bytes_out / 1024) ])
    (fig22_runs ());
  Table.print t

(* --- The gated paper headline ------------------------------------------- *)

(* The paper's headline: Mira and FastSwap on Figures 5, 16 and 18 at
   a small and a large local-memory ratio each (Figure 16 also at 20%,
   where a size plan that sums past the static budget cannot be built),
   and Figure 22's work time and bytes each way per transfer mode, as
   one document (the committed bench/baseline/BENCH_paper.json that CI
   gates). *)
let paper () =
  let figure setup ratios =
    let ctx, far, title = setup () in
    sweep_doc ctx ~far_bytes:far ~ratios ~systems:[ Fastswap; Mira_sys mira_default ]
      ~title
  in
  let fig5 = figure graph_figure [ 0.2; 0.5 ] in
  let fig16 = figure df_figure [ 0.15; 0.2; 0.5 ] in
  let fig18 = figure mcf_figure [ 0.15; 0.5 ] in
  let fig22 =
    let open Mira_telemetry.Json in
    Obj
      [
        ("title", Str fig22_title);
        ( "rows",
          List
            (List.map
               (fun (name, work_ns, bytes_in, bytes_out) ->
                 Obj
                   [
                     ("config", Str name);
                     ("work_ms", Float (work_ns /. 1e6));
                     ("bytes_in", Int bytes_in);
                     ("bytes_out", Int bytes_out);
                   ])
               (fig22_runs ())) );
      ]
  in
  write_bench_json ~name:"paper"
    (Mira_telemetry.Json.Obj
       [
         ("title", Mira_telemetry.Json.Str "paper");
         ("figures", Mira_telemetry.Json.List [ fig5; fig16; fig18; fig22 ]);
       ])

(* --- Figure 23: data-access batching -------------------------------------- *)

let fig23 () =
  let cfg = { df_cfg with D.ops = `Agg_only } in
  let prog = D.build cfg in
  let far = D.far_bytes cfg in
  let ctx = Ctx.make ~far_bytes:far prog in
  Printf.printf "\n### Figure 23: batching (DataFrame avg/min/max job)\n";
  let native =
    match run ctx ~budget:ctx.far_capacity Native with
    | Time t -> t
    | Failed m -> failwith m
  in
  let t =
    Table.create
      ~header:[ "local memory"; "fastswap"; "aifm"; "mira no batching"; "mira batching" ]
  in
  List.iter
    (fun ratio ->
      let budget = int_of_float (float_of_int far *. ratio) in
      Table.add_row t
        [
          Printf.sprintf "%.0f%%" (ratio *. 100.0);
          cell ~native (run ctx ~budget Fastswap);
          cell ~native (run ctx ~budget (Aifm D.aifm_gran));
          cell ~native
            (run ctx ~budget
               (Mira_sys (fun o -> { o with C.feat_fusion = false; always_accept = true })));
          cell ~native
            (run ctx ~budget (Mira_sys (fun o -> { o with C.always_accept = true })));
        ])
    [ 0.1; 0.2; 0.4 ];
  Table.print t

(* --- Figures 24/25: multithreading ---------------------------------------- *)

let thread_sweep ~title ~prog ~far ~params ~ratio ~systems () =
  Printf.printf "\n### %s\n" title;
  let budget = int_of_float (float_of_int far *. ratio) in
  let base_ctx =
    Ctx.make ~far_bytes:far prog
    |> Ctx.with_params params |> Ctx.with_iterations 3
  in
  let native1 =
    match run base_ctx ~budget:base_ctx.far_capacity Native with
    | Time t -> t
    | Failed m -> failwith m
  in
  let t =
    Table.create ~header:("threads" :: List.map system_name systems)
  in
  List.iter
    (fun threads ->
      let ctx = { base_ctx with nthreads = threads } in
      let row =
        List.map
          (fun s ->
            match run ctx ~budget s with
            | Time v -> Printf.sprintf "%.2fx" (native1 /. v)  (* speedup *)
            | Failed m -> m)
          systems
      in
      Table.add_row t (string_of_int threads :: row))
    [ 1; 2; 4; 8 ];
  Printf.printf "cells = speedup vs 1-thread native\n";
  Table.print t

let fig24 () =
  let cfg = { gpt_cfg with Gpt.parallel = true } in
  let prog = Gpt.build cfg in
  thread_sweep
    ~title:"Figure 24: GPT-2 multithreaded scaling (read-only sharing)"
    ~prog ~far:(Gpt.far_bytes cfg) ~params:Gpt.params ~ratio:0.3
    ~systems:[ Fastswap; Mira_sys mira_default ]
    ()

let fig25 () =
  let cfg = { df_cfg with D.parallel_filter = true } in
  let prog = D.build cfg in
  thread_sweep
    ~title:"Figure 25: DataFrame filter, writable shared multithreading"
    ~prog ~far:(D.far_bytes cfg) ~params:Mira_sim.Params.default ~ratio:0.2
    ~systems:[ Fastswap; Aifm D.aifm_gran; Mira_sys mira_default ]
    ()

(* --- Tables A/B: analysis scope + profiling overhead ----------------------- *)

let taba () =
  Printf.printf
    "\n### Table A: analysis-scope reduction and compile time (§6.1)\n";
  let t =
    Table.create
      ~header:[ "application"; "functions (selected/total)"; "sites (selected/total)";
                "compile (wall ms)" ]
  in
  List.iter
    (fun (name, prog, far, params) ->
      let opts =
        { (C.options_default ~local_budget:(far / 4) ~far_capacity:(4 * far)) with
          C.params; max_iterations = 2 }
      in
      let compiled = C.optimize opts prog in
      let total_funcs = List.length prog.Ir.p_funcs in
      let total_sites = List.length prog.Ir.p_sites in
      let sel_sites = List.length compiled.C.c_plan.Pipeline.selected in
      (* functions the profiler actually selected: widest Select event *)
      let sel_funcs =
        List.fold_left
          (fun acc d ->
            match d with
            | Mira_telemetry.Decision.Select { functions; _ } ->
              max acc (List.length functions)
            | _ -> acc)
          0 compiled.C.c_log
      in
      (* recompilation wall time for the final plan *)
      let t0 = Unix.gettimeofday () in
      ignore (Pipeline.apply prog compiled.C.c_plan ~params);
      let wall = (Unix.gettimeofday () -. t0) *. 1000.0 in
      Table.add_row t
        [ name;
          Printf.sprintf "%d/%d" (min sel_funcs total_funcs) total_funcs;
          Printf.sprintf "%d/%d" sel_sites total_sites;
          Printf.sprintf "%.1f" wall ])
    (apps ());
  Table.print t

let tabb () =
  Printf.printf "\n### Table B: profiling overhead (instrumented vs not)\n";
  let t = Table.create ~header:[ "application"; "profiling overhead" ] in
  List.iter
    (fun (name, prog, far, params) ->
      let far_capacity = 4 * far in
      let budget = far / 2 in
      let time p =
        let ms =
          Mira_baselines.Fastswap.create ~params ~local_budget:budget ~far_capacity ()
        in
        let machine = Machine.create ~seed:42 ms p in
        ignore (Machine.run machine);
        ms.Mira_runtime.Memsys.elapsed ()
      in
      let plain = time prog in
      let instrumented = time (Mira_passes.Instrument.run prog) in
      Table.add_row t
        [ name;
          Printf.sprintf "+%.4f%%" (100.0 *. ((instrumented /. plain) -. 1.0)) ])
    (apps ());
  Table.print t

(* --- Dataplane: in-flight window, doorbell batching, fault injection ------ *)

let dp_micro_cfg =
  { Mira_workloads.Micro_sum.config_default with
    Mira_workloads.Micro_sum.elems = 60_000; stride = 8 }

(* Sweep the network data plane on a strided scan over the swap cache:
   the 8-page readahead clusters turn into coalesced doorbells when
   batching is on, the window bounds how much of a cluster is in flight,
   and the final row injects 2% loss to show bounded retries instead of
   a hang. *)
let figdp () =
  let title = "Dataplane: window, doorbell batching, fault injection" in
  Printf.printf "\n### %s (strided scan on swap)\n" title;
  let prog = Mira_workloads.Micro_sum.build dp_micro_cfg in
  let far = Mira_workloads.Micro_sum.far_bytes dp_micro_cfg in
  let far_capacity = Mira_util.Misc.round_up (4 * far) 4096 in
  let budget = far / 4 in
  let run_dp dp =
    let rt =
      Runtime.create
        { (Runtime.config_default ~local_budget:budget ~far_capacity) with
          Runtime.dataplane = dp }
    in
    let ms = Runtime.memsys rt in
    let measured =
      Mira_passes.Instrument.run_only prog ~names:[ C.work_function prog ]
    in
    let machine = Machine.create ~seed:42 ms measured in
    let _, work_ns = C.measure_work ms machine in
    (work_ns, Mira_sim.Net.stats (Runtime.net rt))
  in
  let t =
    Table.create
      ~header:
        [ "dataplane"; "work (ms)"; "fetch p50 (ns)"; "doorbells";
          "coalesced"; "inflight p95"; "retries"; "timeouts" ]
  in
  let rows = ref [] in
  let record label dp =
    let work_ns, s = run_dp dp in
    let p50 =
      Mira_telemetry.Metrics.hist_percentile s.Mira_sim.Net.lat_fetch 50.0
    in
    let occ95 =
      Mira_telemetry.Metrics.hist_percentile s.Mira_sim.Net.occupancy 95.0
    in
    Table.add_row t
      [ label;
        Printf.sprintf "%.3f" (work_ns /. 1e6);
        Printf.sprintf "%.0f" p50;
        string_of_int s.Mira_sim.Net.doorbells;
        string_of_int s.Mira_sim.Net.coalesced;
        Printf.sprintf "%.1f" occ95;
        string_of_int s.Mira_sim.Net.retries;
        string_of_int s.Mira_sim.Net.timeouts ];
    rows :=
      Mira_telemetry.Json.Obj
        [ ("config", Mira_telemetry.Json.Str label);
          ("work_ms", Mira_telemetry.Json.Float (work_ns /. 1e6));
          ("fetch_p50_ns", Mira_telemetry.Json.Float p50);
          ("doorbells", Mira_telemetry.Json.Int s.Mira_sim.Net.doorbells);
          ("coalesced", Mira_telemetry.Json.Int s.Mira_sim.Net.coalesced);
          ("inflight_p95", Mira_telemetry.Json.Float occ95);
          ("retries", Mira_telemetry.Json.Int s.Mira_sim.Net.retries);
          ("timeouts", Mira_telemetry.Json.Int s.Mira_sim.Net.timeouts) ]
      :: !rows
  in
  let dp = Mira_sim.Net.dp_default in
  record "window=1 (sync)" { dp with Mira_sim.Net.window = 1 };
  record "unbounded, no batching" dp;
  record "window=4 + batching" { dp with Mira_sim.Net.window = 4; coalesce = true };
  record "window=16 + batching" { dp with Mira_sim.Net.window = 16; coalesce = true };
  let fault =
    { Mira_sim.Net.Fault.default with
      Mira_sim.Net.Fault.drop_prob = 0.02; seed = 7 }
  in
  record "window=16 + batching + 2% loss"
    { Mira_sim.Net.window = 16; coalesce = true; fault = Some fault };
  Table.print t;
  write_bench_json ~name:(slug title)
    (Mira_telemetry.Json.Obj
       [ ("title", Mira_telemetry.Json.Str title);
         ("far_bytes", Mira_telemetry.Json.Int far);
         ("local_budget_bytes", Mira_telemetry.Json.Int budget);
         ("rows", Mira_telemetry.Json.List (List.rev !rows)) ])

(* --- Chaos: node crashes, failover, degraded mode ------------------------ *)

(* The same strided scan under a seeded crash schedule.  Three configs
   per seed: no faults (baseline), a two-node cluster with replication
   (crashes are failovers — bit-identical output, recovery time
   charged), and a single node with replication off (a crash loses
   data; the run completes degraded with lost bytes accounted).  Fully
   deterministic for a fixed seed: run twice, diff the JSON. *)
let figchaos () =
  let title = "chaos" in
  Printf.printf
    "\n### Chaos: crashes, failover, degraded mode (strided scan on swap)\n";
  let prog = Mira_workloads.Micro_sum.build dp_micro_cfg in
  let far = Mira_workloads.Micro_sum.far_bytes dp_micro_cfg in
  let far_capacity = Mira_util.Misc.round_up (4 * far) 4096 in
  let budget = far / 4 in
  let measured =
    Mira_passes.Instrument.run_only prog ~names:[ C.work_function prog ]
  in
  let run_chaos spec =
    let rt =
      Runtime.create
        { (Runtime.config_default ~local_budget:budget ~far_capacity) with
          Runtime.cluster = spec }
    in
    let ms = Runtime.memsys rt in
    let machine = Machine.create ~seed:42 ms measured in
    let v, work_ns = C.measure_work ms machine in
    (v, work_ns, rt)
  in
  (* Baseline run (no faults) calibrates the crash horizon: crashes are
     scheduled inside the run, not after it.  Deterministic because the
     baseline itself is. *)
  let _, base_ns, _ = run_chaos Mira_sim.Cluster.spec_default in
  let t =
    Table.create
      ~header:
        [ "config"; "seed"; "work (ms)"; "tput (Mops/s)"; "rec p50 (us)";
          "rec p99 (us)"; "crashes"; "failovers"; "wire (KB)"; "resync (KB)";
          "recon (KB)"; "lost (B)"; "node_down"; "checksum" ]
  in
  let rows = ref [] in
  let record label ~scheme ~overlap seed spec =
    let v, work_ns, rt = run_chaos spec in
    let cl = Mira_sim.Cluster.stats (Runtime.cluster rt) in
    let net = Mira_sim.Net.stats (Runtime.net rt) in
    let rec_p50 =
      Mira_telemetry.Metrics.hist_percentile cl.Mira_sim.Cluster.recovery 50.0
    in
    let rec_p99 =
      Mira_telemetry.Metrics.hist_percentile cl.Mira_sim.Cluster.recovery 99.0
    in
    let tput =
      float_of_int dp_micro_cfg.Mira_workloads.Micro_sum.elems /. (work_ns /. 1e3)
    in
    let lost = Mira_runtime.Runtime.lost_bytes_total rt in
    let checksum = Format.asprintf "%a" Mira_interp.Value.pp v in
    Table.add_row t
      [ label; string_of_int seed;
        Printf.sprintf "%.3f" (work_ns /. 1e6);
        Printf.sprintf "%.2f" tput;
        Printf.sprintf "%.1f" (rec_p50 /. 1e3);
        Printf.sprintf "%.1f" (rec_p99 /. 1e3);
        string_of_int cl.Mira_sim.Cluster.crashes;
        string_of_int cl.Mira_sim.Cluster.failovers;
        string_of_int (cl.Mira_sim.Cluster.replication_bytes / 1024);
        string_of_int (cl.Mira_sim.Cluster.resync_bytes / 1024);
        string_of_int (cl.Mira_sim.Cluster.reconstructed_bytes / 1024);
        string_of_int lost;
        string_of_int net.Mira_sim.Net.node_down;
        checksum ];
    rows :=
      Mira_telemetry.Json.Obj
        [ ("config", Mira_telemetry.Json.Str label);
          ("scheme", Mira_telemetry.Json.Str scheme);
          ("overlap", Mira_telemetry.Json.Bool overlap);
          ("seed", Mira_telemetry.Json.Int seed);
          ("work_ms", Mira_telemetry.Json.Float (work_ns /. 1e6));
          ("throughput_mops", Mira_telemetry.Json.Float tput);
          ("recovery_p50_us", Mira_telemetry.Json.Float (rec_p50 /. 1e3));
          ("recovery_p99_us", Mira_telemetry.Json.Float (rec_p99 /. 1e3));
          ("crashes", Mira_telemetry.Json.Int cl.Mira_sim.Cluster.crashes);
          ("failovers", Mira_telemetry.Json.Int cl.Mira_sim.Cluster.failovers);
          ( "replication_bytes",
            Mira_telemetry.Json.Int cl.Mira_sim.Cluster.replication_bytes );
          ( "bytes_on_wire",
            Mira_telemetry.Json.Int cl.Mira_sim.Cluster.replication_bytes );
          ( "resync_bytes",
            Mira_telemetry.Json.Int cl.Mira_sim.Cluster.resync_bytes );
          ( "reconstructed_bytes",
            Mira_telemetry.Json.Int cl.Mira_sim.Cluster.reconstructed_bytes );
          ("lost_bytes", Mira_telemetry.Json.Int lost);
          ("node_down", Mira_telemetry.Json.Int net.Mira_sim.Net.node_down);
          ("checksum", Mira_telemetry.Json.Str checksum) ]
      :: !rows
  in
  (* Outages at 15% of the baseline run are long enough to straddle
     demand faults, so the degraded rows show real detection latency.
     The sweep crosses redundancy scheme (3-way mirror vs EC(4,2), both
     tolerating two concurrent failures) with outage shape (serialized
     vs genuinely overlapping: the overlap rows pack both crashes into
     the first tenth of the run, so two nodes are down at once and the
     quorum rules — not serial failover — keep the checksum intact). *)
  let horizon_ns = base_ns *. 0.6 and down_ns = base_ns *. 0.15 in
  let schedule ~overlap ~seed ~nodes =
    if overlap then
      Mira_sim.Cluster.schedule_of_seed ~overlap:true ~seed ~nodes ~crashes:2
        ~horizon_ns:(base_ns *. 0.1) ~down_ns:(base_ns *. 0.3)
    else
      Mira_sim.Cluster.schedule_of_seed ~overlap:false ~seed ~nodes ~crashes:2
        ~horizon_ns ~down_ns
  in
  List.iter
    (fun seed ->
      record "no-fault" ~scheme:"1,0" ~overlap:false seed
        Mira_sim.Cluster.spec_default;
      List.iter
        (fun overlap ->
          let tag = if overlap then "overlap" else "serial" in
          record (Printf.sprintf "mirror3 %s" tag) ~scheme:"1,2" ~overlap seed
            (Mira_sim.Cluster.mirror ~nodes:3 ~copies:3
               (schedule ~overlap ~seed ~nodes:3));
          record (Printf.sprintf "ec(4,2) %s" tag) ~scheme:"4,2" ~overlap seed
            (Mira_sim.Cluster.ec ~nodes:6 ~k:4 ~m:2
               (schedule ~overlap ~seed ~nodes:6)))
        [ false; true ];
      record "no-repl crash" ~scheme:"1,0" ~overlap:false seed
        { Mira_sim.Cluster.spec_default with
          Mira_sim.Cluster.schedule =
            Mira_sim.Cluster.schedule_of_seed ~overlap:false ~seed ~nodes:1
              ~crashes:1 ~horizon_ns ~down_ns })
    [ 11; 23 ];
  Table.print t;
  write_bench_json ~name:"chaos"
    (Mira_telemetry.Json.Obj
       [ ("title", Mira_telemetry.Json.Str title);
         ("far_bytes", Mira_telemetry.Json.Int far);
         ("local_budget_bytes", Mira_telemetry.Json.Int budget);
         ("rows", Mira_telemetry.Json.List (List.rev !rows)) ])

let all_figures =
  [
    ("dataplane", figdp);
    ("chaos", figchaos);
    ("fig5", fig5); ("fig6", fig6); ("fig7", fig7_8); ("fig9", fig9);
    ("fig10", fig10); ("fig11", fig11_12); ("fig13", fig13); ("fig15", fig15);
    ("fig16", fig16); ("fig17", fig17); ("fig18", fig18); ("fig19", fig19);
    ("fig20", fig20); ("fig21", fig21); ("fig22", fig22); ("fig23", fig23);
    ("fig24", fig24); ("fig25", fig25); ("taba", taba); ("tabb", tabb);
  ]
