module Ir = Mira_mir.Ir
module B = Mira_mir.Builder
module T = Mira_mir.Types

type config = {
  num_edges : int;
  num_nodes : int;
  seed : int;
  with_random_array : bool;
  random_array_elems : int;
  parallel : bool;
}

let config_default =
  {
    num_edges = 100_000;
    num_nodes = 10_000;
    seed = 7;
    with_random_array = false;
    random_array_elems = 100_000;
    parallel = false;
  }

let edge_def =
  { T.s_name = "edge"; s_fields = [ ("from", T.I64); ("to", T.I64); ("weight", T.F64) ] }

(* 128-byte node entries, as in the paper's Figure 9. *)
let node_def =
  {
    T.s_name = "node";
    s_fields =
      ("value", T.F64) :: ("count", T.I64)
      :: List.init 14 (fun i -> (Printf.sprintf "pad%d" i, T.F64));
  }

let edge_bytes = T.size_of (T.Struct edge_def)
let node_bytes = T.size_of (T.Struct node_def)

let far_bytes cfg =
  (cfg.num_edges * edge_bytes)
  + (cfg.num_nodes * node_bytes)
  + if cfg.with_random_array then cfg.random_array_elems * 8 else 0

let build cfg =
  let b = B.program "graph_traversal" in
  let edge_ty = T.Struct edge_def in
  let node_ty = T.Struct node_def in
  let e = B.iconst cfg.num_edges in
  let n = B.iconst cfg.num_nodes in
  (* init: edges get random endpoints and unit weights; nodes zeroed. *)
  B.func b "init"
    [ ("edges", T.Ptr edge_ty); ("nodes", T.Ptr node_ty) ]
    T.Unit
    (fun fb args ->
      match args with
      | [ edges; nodes ] ->
        B.for_ fb ~lo:(B.iconst 0) ~hi:e (fun i ->
            let from = B.call fb "rand_int" [ n ] in
            let to_ = B.call fb "rand_int" [ n ] in
            let pf = B.field_ptr fb ~base:edges ~index:i ~def:edge_def ~field:"from" in
            B.store fb T.I64 ~ptr:pf ~value:from;
            let pt = B.field_ptr fb ~base:edges ~index:i ~def:edge_def ~field:"to" in
            B.store fb T.I64 ~ptr:pt ~value:to_;
            let pw =
              B.field_ptr fb ~base:edges ~index:i ~def:edge_def ~field:"weight"
            in
            B.store fb T.F64 ~ptr:pw ~value:(Ir.Ofloat 1.0));
        B.for_ fb ~lo:(B.iconst 0) ~hi:n (fun i ->
            let pv = B.field_ptr fb ~base:nodes ~index:i ~def:node_def ~field:"value" in
            B.store fb T.F64 ~ptr:pv ~value:(Ir.Ofloat 0.0);
            let pc = B.field_ptr fb ~base:nodes ~index:i ~def:node_def ~field:"count" in
            B.store fb T.I64 ~ptr:pc ~value:(B.iconst 0))
      | _ -> assert false);
  (* work: the traversal of Figure 4 (update_node inlined, as in the
     paper's converted-code listing). *)
  B.func b "work"
    [ ("edges", T.Ptr edge_ty); ("nodes", T.Ptr node_ty); ("rnd", T.Ptr T.I64) ]
    T.Unit
    (fun fb args ->
      match args with
      | [ edges; nodes; rnd ] ->
        let loop = if cfg.parallel then B.par_for else B.for_ in
        loop fb ~lo:(B.iconst 0) ~hi:e (fun i ->
            let pf = B.field_ptr fb ~base:edges ~index:i ~def:edge_def ~field:"from" in
            let from = B.load fb T.I64 pf in
            let pt = B.field_ptr fb ~base:edges ~index:i ~def:edge_def ~field:"to" in
            let to_ = B.load fb T.I64 pt in
            let pw =
              B.field_ptr fb ~base:edges ~index:i ~def:edge_def ~field:"weight"
            in
            let w = B.load fb T.F64 pw in
            (* nodes[from].value += w; nodes[from].count += 1 *)
            let pv =
              B.field_ptr fb ~base:nodes ~index:from ~def:node_def ~field:"value"
            in
            let v = B.load fb T.F64 pv in
            let v' = B.fbin fb Ir.Fadd v w in
            B.store fb T.F64 ~ptr:pv ~value:v';
            let pc =
              B.field_ptr fb ~base:nodes ~index:from ~def:node_def ~field:"count"
            in
            let c = B.load fb T.I64 pc in
            let c' = B.bin fb Ir.Add c (B.iconst 1) in
            B.store fb T.I64 ~ptr:pc ~value:c';
            (* nodes[to].value -= w *)
            let pv2 =
              B.field_ptr fb ~base:nodes ~index:to_ ~def:node_def ~field:"value"
            in
            let v2 = B.load fb T.F64 pv2 in
            let v2' = B.fbin fb Ir.Fsub v2 w in
            B.store fb T.F64 ~ptr:pv2 ~value:v2');
        if cfg.with_random_array then begin
          let r = B.iconst cfg.random_array_elems in
          B.for_ fb ~lo:(B.iconst 0) ~hi:e (fun i ->
              (* Deterministic pseudo-random index: an LCG of i, opaque to
                 the affine analysis (classified Random). *)
              let x = B.bin fb Ir.Mul i (B.iconst 1103515245) in
              let x = B.bin fb Ir.Add x (B.iconst 12345) in
              let x = B.bin fb Ir.Land x (Ir.Oint 0x7FFFFFFFL) in
              let j = B.bin fb Ir.Rem x r in
              let p = B.gep fb ~base:rnd ~index:j ~elem:T.I64 () in
              let v = B.load fb T.I64 p in
              let v' = B.bin fb Ir.Add v (B.iconst 1) in
              B.store fb T.I64 ~ptr:p ~value:v')
        end
      | _ -> assert false);
  (* checksum over a prefix of the node array *)
  B.func b "checksum"
    [ ("nodes", T.Ptr node_ty) ]
    T.I64
    (fun fb args ->
      match args with
      | [ nodes ] ->
        let acc, _ = B.alloc fb ~name:"acc" ~space:Ir.Stack T.I64 (B.iconst 1) in
        B.store fb T.I64 ~ptr:acc ~value:(B.iconst 0);
        let limit = B.iconst (min 1000 cfg.num_nodes) in
        B.for_ fb ~lo:(B.iconst 0) ~hi:limit (fun i ->
            let pc = B.field_ptr fb ~base:nodes ~index:i ~def:node_def ~field:"count" in
            let c = B.load fb T.I64 pc in
            let pv = B.field_ptr fb ~base:nodes ~index:i ~def:node_def ~field:"value" in
            let v = B.load fb T.F64 pv in
            let vi = B.f2i fb v in
            let a = B.load fb T.I64 acc in
            let a = B.bin fb Ir.Add a c in
            let a = B.bin fb Ir.Add a vi in
            B.store fb T.I64 ~ptr:acc ~value:a);
        let final = B.load fb T.I64 acc in
        B.ret fb final
      | _ -> assert false);
  B.func b "main" [] T.I64 (fun fb _ ->
      let edges, _ = B.alloc fb ~name:"edges" edge_ty e in
      let nodes, _ = B.alloc fb ~name:"nodes" node_ty n in
      let rnd, _ =
        B.alloc fb ~name:"rnd" T.I64
          (B.iconst (if cfg.with_random_array then cfg.random_array_elems else 1))
      in
      ignore (B.call fb "init" [ edges; nodes ]);
      ignore (B.call fb "work" [ edges; nodes; rnd ]);
      let sum = B.call fb "checksum" [ nodes ] in
      B.ret fb sum);
  B.finish b ~entry:"main"

let aifm_gran program site = max 128 (Workload_util.elem_gran program site)
