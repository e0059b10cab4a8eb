(* Workload builders: every program must verify, run on every memory
   system with identical results, and expose the paper's structure. *)
module Ir = Mira_mir.Ir
module Verifier = Mira_mir.Verifier
module Machine = Mira_interp.Machine
module Value = Mira_interp.Value
module Wu = Mira_workloads.Workload_util
module G = Mira_workloads.Graph_traversal
module D = Mira_workloads.Dataframe
module M = Mira_workloads.Mcf
module Gpt = Mira_workloads.Gpt2

let far_capacity = 1 lsl 23

let tiny_graph = { G.config_default with G.num_edges = 800; num_nodes = 100 }
let tiny_df = { D.config_default with D.rows = 600; groups = 64 }
let tiny_mcf = { M.config_default with M.num_nodes = 120; num_arcs = 500; rounds = 2 }
let tiny_gpt = { Gpt.config_default with Gpt.layers = 2; d_model = 8; seq = 4 }

let programs () =
  [
    ("graph", G.build tiny_graph);
    ("dataframe", D.build tiny_df);
    ("mcf", M.build tiny_mcf);
    ("gpt2", Gpt.build tiny_gpt);
  ]

let test_all_verify () =
  List.iter
    (fun (name, p) ->
      match Verifier.verify p with
      | Ok () -> ()
      | Error es -> Alcotest.failf "%s: %s" name (String.concat "; " es))
    (programs ())

let test_all_have_conventions () =
  List.iter
    (fun (name, p) ->
      Alcotest.(check bool) (name ^ " has work") true
        (List.mem_assoc "work" p.Ir.p_funcs);
      Alcotest.(check bool) (name ^ " has init") true
        (List.mem_assoc "init" p.Ir.p_funcs);
      Alcotest.(check string) (name ^ " entry") "main" p.Ir.p_entry)
    (programs ())

let test_results_system_independent () =
  List.iter
    (fun (name, p) ->
      let native = Mira_baselines.Native.create ~capacity:far_capacity () in
      let expected = Machine.run (Machine.create native p) in
      let budget = 1 lsl 16 in
      let swap =
        Mira_runtime.Runtime.(
          memsys (create (config_default ~local_budget:budget ~far_capacity)))
      in
      let got = Machine.run (Machine.create swap p) in
      Alcotest.(check bool) (name ^ " matches") true (Value.equal expected got))
    (programs ())

let test_graph_far_bytes () =
  Alcotest.(check int) "far bytes"
    ((800 * G.edge_bytes) + (100 * G.node_bytes))
    (G.far_bytes { tiny_graph with G.with_random_array = false });
  Alcotest.(check int) "edge struct" 24 G.edge_bytes;
  Alcotest.(check int) "node struct" 128 G.node_bytes

let test_mcf_layout () =
  Alcotest.(check int) "node 64B" 64 M.node_bytes;
  Alcotest.(check int) "arc 64B" 64 M.arc_bytes

let test_gpt_scaling () =
  let w = Gpt.layer_weight_bytes tiny_gpt in
  (* 12 d^2 doubles *)
  Alcotest.(check int) "layer weights" (12 * 8 * 8 * 8) w;
  Alcotest.(check bool) "far covers layers" true
    (Gpt.far_bytes tiny_gpt > 2 * w)

let test_site_lookup () =
  let p = G.build tiny_graph in
  let e = Wu.site_id p "edges" in
  let n = Wu.site_id p "nodes" in
  Alcotest.(check bool) "distinct" true (e <> n);
  Alcotest.(check int) "edge gran" G.edge_bytes (Wu.elem_gran p e);
  Alcotest.(check int) "chunked" 4096 (Wu.chunked_gran ~chunk:4096 p e);
  Alcotest.(check bool) "missing raises" true
    (try
       ignore (Wu.site_id p "nope");
       false
     with Not_found -> true)

let test_graph_parallel_variant () =
  let p = G.build { tiny_graph with G.parallel = true } in
  let native = Mira_baselines.Native.create ~capacity:far_capacity () in
  let expected = Machine.run (Machine.create native p) in
  let native4 = Mira_baselines.Native.create ~capacity:far_capacity () in
  let got = Machine.run (Machine.create ~nthreads:4 native4 p) in
  Alcotest.(check bool) "parallel identical" true (Value.equal expected got)

let test_dataframe_agg_only () =
  let p = D.build { tiny_df with D.ops = `Agg_only } in
  Alcotest.(check bool) "verifies" true (Result.is_ok (Verifier.verify p));
  let native = Mira_baselines.Native.create ~capacity:far_capacity () in
  ignore (Machine.run (Machine.create native p))

let test_mcf_rounds_effect () =
  (* More rounds -> strictly more work (dynamic op count grows) *)
  let run rounds =
    let p = M.build { tiny_mcf with M.rounds } in
    let native = Mira_baselines.Native.create ~capacity:far_capacity () in
    let m = Machine.create native p in
    ignore (Machine.run m);
    Machine.ops_executed m
  in
  Alcotest.(check bool) "more rounds, more ops" true (run 3 > run 1)

let suite =
  [
    Alcotest.test_case "all verify" `Quick test_all_verify;
    Alcotest.test_case "conventions" `Quick test_all_have_conventions;
    Alcotest.test_case "system independent" `Quick test_results_system_independent;
    Alcotest.test_case "graph sizes" `Quick test_graph_far_bytes;
    Alcotest.test_case "mcf layout" `Quick test_mcf_layout;
    Alcotest.test_case "gpt scaling" `Quick test_gpt_scaling;
    Alcotest.test_case "site lookup" `Quick test_site_lookup;
    Alcotest.test_case "graph parallel" `Quick test_graph_parallel_variant;
    Alcotest.test_case "dataframe agg-only" `Quick test_dataframe_agg_only;
    Alcotest.test_case "mcf rounds" `Quick test_mcf_rounds_effect;
  ]

(* Appended: micro workloads and cross-thread determinism. *)
let test_micro_sum () =
  let module Ms = Mira_workloads.Micro_sum in
  let cfg = { Ms.config_default with Ms.elems = 4096 } in
  let p = Ms.build cfg in
  Alcotest.(check bool) "verifies" true
    (Result.is_ok (Mira_mir.Verifier.verify p));
  let native = Mira_baselines.Native.create ~capacity:(1 lsl 20) () in
  let v = Machine.run (Machine.create native p) in
  (* sum of (i land 1023) over 4096 elems = 4 * (0+..+1023) *)
  let expected = Int64.of_int (4 * (1023 * 1024 / 2)) in
  Alcotest.(check bool) "sum" true (Value.equal v (Value.Vint expected));
  let swap =
    Mira_runtime.Runtime.(
      memsys (create (config_default ~local_budget:8192 ~far_capacity:(1 lsl 20))))
  in
  Alcotest.(check bool) "swap agrees" true
    (Value.equal v (Machine.run (Machine.create swap p)))

let test_micro_sum_strided () =
  let module Ms = Mira_workloads.Micro_sum in
  let p = Ms.build { Ms.config_default with Ms.elems = 1024; stride = 4 } in
  let native = Mira_baselines.Native.create ~capacity:(1 lsl 20) () in
  ignore (Machine.run (Machine.create native p))

let test_micro_sum_bad_stride () =
  let module Ms = Mira_workloads.Micro_sum in
  List.iter
    (fun stride ->
      Alcotest.check_raises
        (Printf.sprintf "stride %d" stride)
        (Invalid_argument
           (Printf.sprintf "Micro_sum.build: stride must be >= 1 (got %d)" stride))
        (fun () -> ignore (Ms.build { Ms.config_default with Ms.stride })))
    [ 0; -3 ]

let suite =
  suite
  @ [
      Alcotest.test_case "micro sum" `Quick test_micro_sum;
      Alcotest.test_case "micro sum strided" `Quick test_micro_sum_strided;
      Alcotest.test_case "micro sum bad stride" `Quick test_micro_sum_bad_stride;
    ]
