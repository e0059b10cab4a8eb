(* Tests for scalar evolution and the pattern/lifetime/offload analyses. *)
module Scev = Mira_analysis.Scev
module Pattern = Mira_analysis.Pattern
module Lifetime = Mira_analysis.Lifetime
module Flow = Mira_analysis.Remotable_flow
module Offload = Mira_analysis.Offload_analysis
module T = Mira_mir.Types
module Ir = Mira_mir.Ir
module B = Mira_mir.Builder

let test_scev_algebra () =
  let a = Scev.const 3L in
  let b = Scev.const 4L in
  Alcotest.(check bool) "const add" true
    (Scev.const_value (Scev.add a b) = Some 7L);
  Alcotest.(check bool) "const mul" true
    (Scev.const_value (Scev.mul a b) = Some 12L);
  let iv = Scev.iv ~depth:0 ~lo:(Scev.const 0L) ~step:(Scev.const 1L) in
  let off = Scev.add (Scev.mul iv (Scev.const 24L)) (Scev.const 8L) in
  Alcotest.(check bool) "coeff" true (Scev.coeff off ~depth:0 = Some 24L);
  Alcotest.(check bool) "no dep on 1" true (Scev.coeff off ~depth:1 = Some 0L);
  Alcotest.(check bool) "unknown mul" true
    (Scev.mul iv iv = Scev.Unknown)

let test_scev_iv_with_bounds () =
  let iv = Scev.iv ~depth:2 ~lo:(Scev.const 5L) ~step:(Scev.const 3L) in
  Alcotest.(check bool) "step as coeff" true (Scev.coeff iv ~depth:2 = Some 3L);
  Alcotest.(check bool) "depends" true (Scev.depends_on iv ~depth:2);
  Alcotest.(check bool) "not on others" false (Scev.depends_on iv ~depth:0)

let qcheck_scev_linearity =
  (* Evaluate symbolic affine forms on random iv assignments and compare
     with direct arithmetic. *)
  QCheck.Test.make ~name:"scev affine evaluation" ~count:300
    QCheck.(triple (int_range (-100) 100) (int_range (-50) 50) (int_range (-50) 50))
    (fun (c, k0, k1) ->
      let iv0 = Scev.iv ~depth:0 ~lo:(Scev.const 0L) ~step:(Scev.const 1L) in
      let iv1 = Scev.iv ~depth:1 ~lo:(Scev.const 0L) ~step:(Scev.const 1L) in
      let expr =
        Scev.add
          (Scev.add
             (Scev.mul iv0 (Scev.const (Int64.of_int k0)))
             (Scev.mul iv1 (Scev.const (Int64.of_int k1))))
          (Scev.const (Int64.of_int c))
      in
      Scev.coeff expr ~depth:0 = Some (Int64.of_int k0)
      && Scev.coeff expr ~depth:1 = Some (Int64.of_int k1))

(* A function with the paper's access patterns. *)
let graph_like () =
  let edge = { T.s_name = "e2"; s_fields = [ ("from", T.I64); ("w", T.F64) ] } in
  let node = { T.s_name = "n2"; s_fields = [ ("v", T.F64); ("c", T.I64) ] } in
  let b = B.program "p" in
  B.func b "main" [] T.I64 (fun fb _ ->
      let edges, _ = B.alloc fb ~name:"edges" (T.Struct edge) (B.iconst 100) in
      let nodes, _ = B.alloc fb ~name:"nodes" (T.Struct node) (B.iconst 10) in
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst 100) (fun i ->
          let pf = B.field_ptr fb ~base:edges ~index:i ~def:edge ~field:"from" in
          let f = B.load fb T.I64 pf in
          let pv = B.field_ptr fb ~base:nodes ~index:f ~def:node ~field:"v" in
          let v = B.load fb T.F64 pv in
          B.store fb T.F64 ~ptr:pv ~value:v);
      B.ret fb (B.iconst 0));
  B.finish b ~entry:"main"

let analyze prog name =
  let f = Ir.find_func prog name in
  Pattern.analyze (Flow.build prog) f

let test_pattern_sequential_and_indirect () =
  let prog = graph_like () in
  let r = analyze prog "main" in
  let edges = Option.get (Pattern.summary_for r 0) in
  let nodes = Option.get (Pattern.summary_for r 1) in
  (match edges.Pattern.ss_kind with
  | Pattern.Sequential s -> Alcotest.(check int) "edge stride" 16 s
  | k -> Alcotest.failf "edges should be sequential, got %s" (Pattern.kind_to_string k));
  (match nodes.Pattern.ss_kind with
  | Pattern.Indirect via -> Alcotest.(check int) "indirect via edges" 0 via
  | k -> Alcotest.failf "nodes should be indirect, got %s" (Pattern.kind_to_string k));
  Alcotest.(check bool) "edges read-only" true edges.Pattern.ss_read_only;
  Alcotest.(check bool) "nodes read+write" false nodes.Pattern.ss_read_only

let test_pattern_loop_tree () =
  let prog = graph_like () in
  let r = analyze prog "main" in
  Alcotest.(check int) "one top loop" 1 (List.length r.Pattern.r_loops);
  let l = List.hd r.Pattern.r_loops in
  Alcotest.(check (option int)) "trip count" (Some 100) l.Pattern.l_trip;
  Alcotest.(check bool) "has accesses" true (List.length l.Pattern.l_accesses >= 3)

let test_pattern_affine_shape () =
  (* a[i*8 + j] must be recognized as an affine gep shape. *)
  let b = B.program "mm" in
  B.func b "main" [] T.I64 (fun fb _ ->
      let a, _ = B.alloc fb ~name:"mat" T.F64 (B.iconst 64) in
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst 8) (fun i ->
          B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst 8) (fun j ->
              let row = B.bin fb Ir.Mul i (B.iconst 8) in
              let idx = B.bin fb Ir.Add row j in
              let p = B.gep fb ~base:a ~index:idx ~elem:T.F64 () in
              ignore (B.load fb T.F64 p)));
      B.ret fb (B.iconst 0));
  let prog = B.finish b ~entry:"main" in
  let r = analyze prog "main" in
  let outer = List.hd r.Pattern.r_loops in
  let inner = List.hd outer.Pattern.l_children in
  let acc = List.hd inner.Pattern.l_accesses in
  (match acc.Pattern.a_gep with
  | Some { Pattern.g_index = Pattern.Idx_affine { terms; _ }; _ } ->
    Alcotest.(check bool) "i coeff 8" true (List.assoc_opt 0 terms = Some 8L);
    Alcotest.(check bool) "j coeff 1" true (List.assoc_opt 1 terms = Some 1L)
  | Some _ | None -> Alcotest.fail "expected affine gep shape");
  Alcotest.(check bool) "stride 8 bytes" true (acc.Pattern.a_stride = Some 8L)

let test_pattern_pointer_chase () =
  let rec node = { T.s_name = "cn"; s_fields = [ ("v", T.I64); ("next", T.Ptr (T.Struct node)) ] } in
  let nptr = T.Ptr (T.Struct node) in
  let b = B.program "chase" in
  B.func b "main" [] T.I64 (fun fb _ ->
      let arr, _ = B.alloc fb ~name:"chnodes" (T.Struct node) (B.iconst 8) in
      let cur, _ = B.alloc fb ~name:"cur" ~space:Ir.Stack nptr (B.iconst 1) in
      let head = B.gep fb ~base:arr ~index:(B.iconst 0) ~elem:(T.Struct node) () in
      B.store fb nptr ~ptr:cur ~value:head;
      B.while_ fb
        ~cond:(fun () ->
          let c = B.load fb nptr cur in
          B.cmp fb Ir.Ne c (Ir.Oint 0L))
        ~body:(fun () ->
          let c = B.load fb nptr cur in
          let pv = B.gep fb ~base:c ~index:(B.iconst 0) ~elem:(T.Struct node) () in
          ignore (B.load fb T.I64 pv);
          let pn =
            B.gep fb ~base:c ~index:(B.iconst 0) ~elem:(T.Struct node)
              ~field_off:(T.field_offset node "next") ()
          in
          let n = B.load fb nptr pn in
          B.store fb nptr ~ptr:cur ~value:n);
      B.ret fb (B.iconst 0));
  let prog = B.finish b ~entry:"main" in
  let r = analyze prog "main" in
  let nodes = Option.get (Pattern.summary_for r 0) in
  match nodes.Pattern.ss_kind with
  | Pattern.Pointer_chase -> ()
  | k -> Alcotest.failf "expected pointer-chase, got %s" (Pattern.kind_to_string k)

let phased_program () =
  let b = B.program "phases" in
  B.func b "main" [] T.I64 (fun fb _ ->
      let a, _ = B.alloc fb ~name:"pa" T.I64 (B.iconst 64) in
      let c, _ = B.alloc fb ~name:"pc" T.I64 (B.iconst 64) in
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst 64) (fun i ->
          let p = B.gep fb ~base:a ~index:i ~elem:T.I64 () in
          B.store fb T.I64 ~ptr:p ~value:i);
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst 64) (fun i ->
          let p = B.gep fb ~base:a ~index:i ~elem:T.I64 () in
          let v = B.load fb T.I64 p in
          let q = B.gep fb ~base:c ~index:i ~elem:T.I64 () in
          B.store fb T.I64 ~ptr:q ~value:v);
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst 64) (fun i ->
          let q = B.gep fb ~base:c ~index:i ~elem:T.I64 () in
          ignore (B.load fb T.I64 q));
      B.ret fb (B.iconst 0));
  B.finish b ~entry:"main"

let test_lifetime_phases () =
  let prog = phased_program () in
  let r = analyze prog "main" in
  Alcotest.(check int) "phase count" 3 (Lifetime.phases_count r);
  let phases = Lifetime.site_phases r in
  let a = List.assoc 0 phases and c = List.assoc 1 phases in
  Alcotest.(check int) "a first" 0 a.Lifetime.first_phase;
  Alcotest.(check int) "a last" 1 a.Lifetime.last_phase;
  Alcotest.(check int) "c first" 1 c.Lifetime.first_phase;
  Alcotest.(check int) "c last" 2 c.Lifetime.last_phase;
  Alcotest.(check (list int)) "a dead after phase 1" [ 0 ]
    (Lifetime.dead_after r ~phase:1)

let test_site_of_ty_unique () =
  let prog = graph_like () in
  let edge_ty = T.Struct { T.s_name = "e2"; s_fields = [] } in
  let facts = Flow.build prog in
  Alcotest.(check (option int)) "edge site" (Some 0) (Flow.site_of_ty facts edge_ty);
  Alcotest.(check (option int)) "unknown type" None (Flow.site_of_ty facts T.F64)

let test_param_sites () =
  let b = B.program "pp" in
  B.func b "use" [ ("p", T.Ptr T.I64) ] T.Unit (fun fb args ->
      match args with
      | [ p ] ->
        let q = B.gep fb ~base:p ~index:(B.iconst 0) ~elem:T.I64 () in
        ignore (B.load fb T.I64 q)
      | _ -> assert false);
  B.func b "main" [] T.I64 (fun fb _ ->
      let a, _ = B.alloc fb ~name:"only" T.I64 (B.iconst 8) in
      let b1, _ = B.alloc fb ~name:"other" T.I64 (B.iconst 8) in
      ignore b1;
      ignore (B.call fb "use" [ a ]);
      B.ret fb (B.iconst 0));
  let prog = B.finish b ~entry:"main" in
  let use_bindings = Flow.param_sites (Flow.build prog) "use" in
  Alcotest.(check (option int)) "param bound to site 0" (Some 0)
    (List.assoc_opt 0 use_bindings)

let offload_scores prog =
  let facts = Flow.build prog in
  Offload.analyze facts (Pattern.analyze_all facts prog) prog ~params:Mira_sim.Params.default

let test_remotable_functions () =
  let prog = graph_like () in
  (* main is the entry: never remotable *)
  let scores = offload_scores prog in
  Alcotest.(check (list string)) "entry excluded" []
    (List.map (fun s -> s.Offload.o_name) scores)

let test_offload_scoring () =
  let b = B.program "offl" in
  (* communication-heavy candidate: touches lots of far data per op *)
  B.func b "scan" [ ("a", T.Ptr T.I64) ] T.I64 (fun fb args ->
      match args with
      | [ a ] ->
        let acc, _ = B.alloc fb ~name:"sacc" ~space:Ir.Stack T.I64 (B.iconst 1) in
        B.store fb T.I64 ~ptr:acc ~value:(B.iconst 0);
        B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst 100000) (fun i ->
            let p = B.gep fb ~base:a ~index:i ~elem:T.I64 () in
            let v = B.load fb T.I64 p in
            let x = B.load fb T.I64 acc in
            B.store fb T.I64 ~ptr:acc ~value:(B.bin fb Ir.Add x v));
        let v = B.load fb T.I64 acc in
        B.ret fb v
      | _ -> assert false);
  B.func b "main" [] T.I64 (fun fb _ ->
      let a, _ = B.alloc fb ~name:"data" T.I64 (B.iconst 100000) in
      let v = B.call fb "scan" [ a ] in
      B.ret fb v);
  let prog = B.finish b ~entry:"main" in
  let scores = offload_scores prog in
  match List.find_opt (fun s -> s.Offload.o_name = "scan") scores with
  | Some s ->
    Alcotest.(check bool) "scan is offload-worthy" true (Offload.should_offload s);
    Alcotest.(check bool) "sites recorded" true (List.mem 1 s.Offload.o_sites)
  | None -> Alcotest.fail "scan not scored"

let suite =
  [
    Alcotest.test_case "scev algebra" `Quick test_scev_algebra;
    Alcotest.test_case "scev iv" `Quick test_scev_iv_with_bounds;
    QCheck_alcotest.to_alcotest qcheck_scev_linearity;
    Alcotest.test_case "pattern seq+indirect" `Quick test_pattern_sequential_and_indirect;
    Alcotest.test_case "pattern loop tree" `Quick test_pattern_loop_tree;
    Alcotest.test_case "pattern affine" `Quick test_pattern_affine_shape;
    Alcotest.test_case "pattern pointer chase" `Quick test_pattern_pointer_chase;
    Alcotest.test_case "lifetime phases" `Quick test_lifetime_phases;
    Alcotest.test_case "type-based sites" `Quick test_site_of_ty_unique;
    Alcotest.test_case "param sites" `Quick test_param_sites;
    Alcotest.test_case "remotable functions" `Quick test_remotable_functions;
    Alcotest.test_case "offload scoring" `Quick test_offload_scoring;
  ]
