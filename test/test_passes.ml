(* Compiler-pass tests: each transformation must produce verifying IR,
   insert what it promises, and preserve program results. *)
module T = Mira_mir.Types
module Ir = Mira_mir.Ir
module B = Mira_mir.Builder
module Verifier = Mira_mir.Verifier
module Instrument = Mira_passes.Instrument
module Convert = Mira_passes.Convert_remote
module Prefetch = Mira_passes.Prefetch_pass
module Evict = Mira_passes.Evict_hints
module Fusion = Mira_passes.Fusion
module Native = Mira_passes.Native_deref
module Loop_hints = Mira_passes.Loop_hints
module Pipeline = Mira_passes.Pipeline
module Flow = Mira_analysis.Remotable_flow
module Machine = Mira_interp.Machine
module Value = Mira_interp.Value

let params = Mira_sim.Params.default

let count_ops pred prog =
  List.fold_left
    (fun acc (_, f) ->
      Ir.fold_ops (fun n op -> if pred op then n + 1 else n) acc f.Ir.f_body)
    0 prog.Ir.p_funcs

let graph_program () =
  Mira_workloads.Graph_traversal.build
    { Mira_workloads.Graph_traversal.config_default with
      Mira_workloads.Graph_traversal.num_edges = 2000;
      num_nodes = 300 }

let run_native prog =
  let ms = Mira_baselines.Native.create ~capacity:(1 lsl 24) () in
  Machine.run (Machine.create ms prog)

let edges_site prog = Mira_workloads.Workload_util.site_id prog "edges"
let nodes_site prog = Mira_workloads.Workload_util.site_id prog "nodes"

let test_instrument () =
  let prog = graph_program () in
  let inst = Instrument.run prog in
  Alcotest.(check bool) "verifies" true (Result.is_ok (Verifier.verify inst));
  let enters = count_ops (function Ir.ProfEnter _ -> true | _ -> false) inst in
  Alcotest.(check int) "one enter per function" (List.length inst.Ir.p_funcs) enters;
  let stripped = Instrument.strip inst in
  Alcotest.(check int) "strip removes" 0
    (count_ops (function Ir.ProfEnter _ | Ir.ProfExit _ -> true | _ -> false) stripped);
  (* idempotent *)
  let twice = Instrument.run inst in
  Alcotest.(check int) "idempotent" enters
    (count_ops (function Ir.ProfEnter _ -> true | _ -> false) twice)

let test_instrument_only () =
  let prog = graph_program () in
  let inst = Instrument.run_only prog ~names:[ "work" ] in
  let enters = count_ops (function Ir.ProfEnter _ -> true | _ -> false) inst in
  Alcotest.(check int) "only work instrumented" 1 enters

let test_convert_marks_selected () =
  let prog = graph_program () in
  let facts = Flow.build prog in
  let e = edges_site prog and n = nodes_site prog in
  let conv = Convert.run facts prog ~selected:[ e; n ] in
  Alcotest.(check bool) "verifies" true (Result.is_ok (Verifier.verify conv));
  let remote_loads =
    count_ops
      (function Ir.Load { meta; _ } -> meta.Ir.am_remote | _ -> false)
      conv
  in
  Alcotest.(check bool) "loads converted" true (remote_loads > 0);
  let conv_none = Convert.run facts prog ~selected:[] in
  Alcotest.(check int) "nothing selected, nothing converted" 0
    (count_ops
       (function
         | Ir.Load { meta; _ } | Ir.Store { meta; _ } -> meta.Ir.am_remote
         | _ -> false)
       conv_none)

let test_prefetch_inserts () =
  let prog = graph_program () in
  let facts = Flow.build prog in
  let e = edges_site prog and n = nodes_site prog in
  let conv = Convert.run facts prog ~selected:[ e; n ] in
  let line_of site = if site = e then Some 1024 else if site = n then Some 128 else None in
  let pf =
    Loop_hints.run facts conv ~params ~line_of ~hint_line_of:line_of ~prefetch:true
      ~evict:false ~native:false
  in
  Alcotest.(check bool) "verifies" true (Result.is_ok (Verifier.verify pf));
  let prefetches = count_ops (function Ir.Prefetch _ -> true | _ -> false) pf in
  (* sequential edges + two indirect node groups + preamble *)
  Alcotest.(check bool) "prefetches inserted" true (prefetches >= 3)

let test_prefetch_distance () =
  let d_small = Prefetch.distance_iters ~params ~body_ops:1000 in
  let d_big = Prefetch.distance_iters ~params ~body_ops:5 in
  Alcotest.(check bool) "heavier body, shorter distance" true (d_small < d_big);
  Alcotest.(check bool) "at least 1" true (d_small >= 1)

let test_evict_inserts () =
  let prog = graph_program () in
  let facts = Flow.build prog in
  let e = edges_site prog in
  let conv = Convert.run facts prog ~selected:[ e ] in
  let line_of site = if site = e then Some 1024 else None in
  let ev =
    Loop_hints.run facts conv ~params ~line_of ~hint_line_of:line_of ~prefetch:false
      ~evict:true ~native:false
    |> Evict.end_lifetimes facts ~line_of
  in
  Alcotest.(check bool) "verifies" true (Result.is_ok (Verifier.verify ev));
  let flushes = count_ops (function Ir.FlushEvict _ -> true | _ -> false) ev in
  Alcotest.(check bool) "flush-behind inserted" true (flushes > 0)

let fusable_program () =
  let b = B.program "fuse" in
  B.func b "main" [] T.I64 (fun fb _ ->
      let n = 64 in
      let a, _ = B.alloc fb ~name:"fa" T.I64 (B.iconst n) in
      let c, _ = B.alloc fb ~name:"fc" T.I64 (B.iconst n) in
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst n) (fun i ->
          let p = B.gep fb ~base:a ~index:i ~elem:T.I64 () in
          B.store fb T.I64 ~ptr:p ~value:i);
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst n) (fun i ->
          let p = B.gep fb ~base:c ~index:i ~elem:T.I64 () in
          B.store fb T.I64 ~ptr:p ~value:(B.bin fb Ir.Mul i (B.iconst 2)));
      (* dependent loop: reads both; cannot fuse with the writers above
         (write->read across different iterations is conservative) *)
      let acc, _ = B.alloc fb ~name:"facc" ~space:Ir.Stack T.I64 (B.iconst 1) in
      B.store fb T.I64 ~ptr:acc ~value:(B.iconst 0);
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst n) (fun i ->
          let p = B.gep fb ~base:a ~index:i ~elem:T.I64 () in
          let v1 = B.load fb T.I64 p in
          let q = B.gep fb ~base:c ~index:i ~elem:T.I64 () in
          let v2 = B.load fb T.I64 q in
          let s = B.load fb T.I64 acc in
          let s = B.bin fb Ir.Add s (B.bin fb Ir.Add v1 v2) in
          B.store fb T.I64 ~ptr:acc ~value:s);
      let v = B.load fb T.I64 acc in
      B.ret fb v);
  B.finish b ~entry:"main"

let count_loops prog =
  count_ops (function Ir.For _ -> true | _ -> false) prog

let test_fusion_fuses_independent () =
  let prog = fusable_program () in
  let facts = Flow.build prog in
  let before = count_loops prog in
  let fused = Fusion.run facts prog in
  Alcotest.(check bool) "verifies" true (Result.is_ok (Verifier.verify fused));
  Alcotest.(check int) "two writers fused" (before - 1) (count_loops fused);
  (* semantics preserved *)
  Alcotest.(check bool) "same result" true
    (Value.equal (run_native prog) (run_native fused))

let test_fusion_respects_dependences () =
  (* writer then reader of the same site must NOT fuse *)
  let b = B.program "nofuse" in
  B.func b "main" [] T.I64 (fun fb _ ->
      let n = 16 in
      let a, _ = B.alloc fb ~name:"na" T.I64 (B.iconst n) in
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst n) (fun i ->
          let p = B.gep fb ~base:a ~index:i ~elem:T.I64 () in
          B.store fb T.I64 ~ptr:p ~value:i);
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst n) (fun i ->
          let p = B.gep fb ~base:a ~index:i ~elem:T.I64 () in
          ignore (B.load fb T.I64 p));
      B.ret fb (B.iconst 0));
  let prog = B.finish b ~entry:"main" in
  let facts = Flow.build prog in
  let fused = Fusion.run facts prog in
  Alcotest.(check int) "loops unchanged" (count_loops prog) (count_loops fused)

let test_native_deref_marks () =
  let prog = graph_program () in
  let facts = Flow.build prog in
  let e = edges_site prog and n = nodes_site prog in
  let conv = Convert.run facts prog ~selected:[ e; n ] in
  let line_of site = if site = e || site = n then Some 1024 else None in
  let marked = Native.run facts conv ~line_of in
  Alcotest.(check bool) "verifies" true (Result.is_ok (Verifier.verify marked));
  let natives =
    count_ops
      (function
        | Ir.Load { meta; _ } | Ir.Store { meta; _ } -> meta.Ir.am_native
        | _ -> false)
      marked
  in
  (* edges[i].to / .weight after .from, plus node field reuses *)
  Alcotest.(check bool) "subsequent accesses native" true (natives >= 2)

(* Run [compiled] on a Mira runtime with the given sections, each
   serving one site; returns the result, the sections, and the native
   misses (a section's [native_misses]) that native loads took. *)
let run_sectioned compiled sections =
  let rt =
    Mira_runtime.Runtime.create
      (Mira_runtime.Runtime.config_default ~local_budget:(1 lsl 17)
         ~far_capacity:(1 lsl 22))
  in
  let mgr = Mira_runtime.Runtime.manager rt in
  Mira_runtime.Runtime.configure rt
    {
      Mira_cache.Manager.sections = List.map (fun (site, cfg) -> (cfg, [ site ])) sections;
      per_thread = [];
    };
  let secs =
    List.map
      (fun (_, (cfg : Mira_cache.Section.config)) ->
        Option.get (Mira_cache.Manager.find_section mgr ~id:cfg.Mira_cache.Section.sec_id))
      sections
  in
  let misses () =
    List.fold_left
      (fun n sec -> n + (Mira_cache.Section.stats sec).Mira_cache.Section.native_misses)
      0 secs
  in
  let load_misses = ref 0 in
  let ms = Mira_runtime.Runtime.memsys rt in
  let ms =
    { ms with
      Mira_runtime.Memsys.load =
        (fun ~tid ~ptr ~len ~native ->
          let before = misses () in
          let v = ms.Mira_runtime.Memsys.load ~tid ~ptr ~len ~native in
          load_misses := !load_misses + misses () - before;
          v) }
  in
  let v = Machine.run (Machine.create ms compiled) in
  (v, secs, !load_misses)

let test_pipeline_preserves_semantics () =
  let prog = graph_program () in
  let e = edges_site prog and n = nodes_site prog in
  let plan = Pipeline.plan_all ~selected:[ e; n ] ~lines:[ (e, 1024); (n, 128) ] in
  let compiled = Pipeline.apply prog plan ~params in
  Alcotest.(check bool) "verifies" true (Result.is_ok (Verifier.verify compiled));
  let v1 = run_native prog in
  let v2 = run_native compiled in
  Alcotest.(check bool) "identical results" true (Value.equal v1 v2);
  (* and on the full Mira runtime with sections *)
  let v3, _, _ =
    run_sectioned compiled
      [
        (e, Mira_cache.Section.config_default ~sec_id:1 ~name:"e" ~line:1024 ~size:(1 lsl 14));
        ( n,
          { (Mira_cache.Section.config_default ~sec_id:2 ~name:"n" ~line:128
               ~size:(1 lsl 15))
            with Mira_cache.Section.structure = Mira_cache.Section.Set_assoc 8 } );
      ]
  in
  Alcotest.(check bool) "sections produce same data" true (Value.equal v1 v3)

let micro_program elems =
  Mira_workloads.Micro_sum.build
    { Mira_workloads.Micro_sum.config_default with Mira_workloads.Micro_sum.elems }

let stream_plan lines =
  { (Pipeline.plan_all ~selected:(List.map fst lines) ~lines) with Pipeline.offload = false }

let direct ~sec_id ~line =
  { (Mira_cache.Section.config_default ~sec_id ~name:(string_of_int sec_id) ~line
       ~size:(20 * line))
    with Mira_cache.Section.structure = Mira_cache.Section.Direct }

(* The strip-mined loads find their lines resident: each chunk's two
   checked loads bring in every line its native loads read, with
   prefetching on and (the loads alone) off.  Native loads elsewhere
   (same-element reuse) count too; native stores do not: elements that
   straddle a line make [Native_deref]'s store proofs fall back. *)
let test_strip_mined_loads_resident () =
  let check name prog stream sections =
    let lines = List.map (fun (s, c) -> (s, c.Mira_cache.Section.line)) sections in
    List.iter
      (fun prefetch ->
        let name = Printf.sprintf "%s (prefetch %b)" name prefetch in
        let compiled =
          Pipeline.apply prog { (stream_plan lines) with Pipeline.prefetch } ~params
        in
        let natives =
          count_ops
            (function
              | Ir.Load { meta; _ } -> meta.Ir.am_native && meta.Ir.am_site = stream
              | _ -> false)
            compiled
        in
        Alcotest.(check bool) (name ^ " has native stream loads") true (natives > 0);
        let v, secs, load_misses = run_sectioned compiled sections in
        Alcotest.(check bool) (name ^ " same result") true (Value.equal (run_native prog) v);
        let st = Mira_cache.Section.stats (List.hd secs) in
        Alcotest.(check bool) (name ^ " stream section hit") true (st.Mira_cache.Section.hits > 0);
        Alcotest.(check int) (name ^ " native load misses") 0 load_misses)
      [ true; false ]
  in
  let micro = micro_program 20_000 in
  let a = Mira_workloads.Workload_util.site_id micro "array" in
  check "micro" micro a [ (a, direct ~sec_id:1 ~line:2048) ];
  let graph = graph_program () in
  let e = edges_site graph and n = nodes_site graph in
  check "graph" graph e
    [
      (e, direct ~sec_id:1 ~line:2064);
      ( n,
        { (Mira_cache.Section.config_default ~sec_id:2 ~name:"n" ~line:128
             ~size:(1 lsl 15))
          with Mira_cache.Section.structure = Mira_cache.Section.Set_assoc 8 } );
    ]

(* The compiled streaming sum: per 256-element chunk one flush, one
   prefetch, the chunk bound and two checked loads; inside, native
   loads only; after the loop, the flush of the last range behind it. *)
let micro_work_golden =
  {|func.func @work(%0: ptr<i64>, %1: ptr<i64>) -> unit {
  %2 = memref.alloca 1 x i64 {site = 0}
  memref.store 0, %2 : i64
  %9 = memref.gep %0[0] : i64 +0
  rmem.prefetch %9, 4096 {site = 1}
  scf.for %10 = 0 to 200000 step 256 {
    %11 = arith.subi %10, 768
    %12 = arith.cmpi ge, %11, 0
    scf.if %12 {
      %13 = memref.gep %0[%11] : i64 +0
      rmem.flush_evict %13, 2048 {site = 1}
    }
    %14 = arith.addi %10, 334
    %15 = arith.cmpi lt, %14, 200000
    scf.if %15 {
      %16 = memref.gep %0[%14] : i64 +0
      rmem.prefetch %16, 2048 {site = 1}
    }
    %17 = arith.addi %10, 255
    %19 = arith.subi %17, 199999
    %20 = arith.shri %19, 63
    %21 = arith.subi 0, %20
    %22 = arith.andi %19, %21
    %18 = arith.addi 199999, %22
    %23 = memref.gep %0[%10] : i64 +0
    %24 = rmem.load %23 : i64 {site = 1}
    %25 = memref.gep %0[%18] : i64 +0
    %26 = rmem.load %25 : i64 {site = 1}
    %27 = arith.addi %18, 1
    scf.for %3 = %10 to %27 step 1 {
      %4 = memref.gep %0[%3] : i64 +0
      %5 = rmem.load.native %4 : i64 {site = 1}
      %6 = memref.load %2 : i64
      %7 = arith.addi %6, %5
      memref.store %7, %2 : i64
    }
  }
  %28 = arith.subi 199999, 520
  %29 = arith.cmpi ge, %28, 0
  scf.if %29 {
    %30 = memref.gep %0[%28] : i64 +0
    rmem.flush_evict %30, 2048 {site = 1}
  }
  %8 = memref.load %2 : i64
  memref.store %8, %1 : i64
  func.return ()
}|}

let test_strip_mined_golden () =
  let prog = micro_program 200_000 in
  let a = Mira_workloads.Workload_util.site_id prog "array" in
  let compiled = Pipeline.apply prog (stream_plan [ (a, 2048) ]) ~params in
  Alcotest.(check string) "micro work" micro_work_golden
    (Mira_mir.Printer.func_to_string (Ir.find_func compiled "work"))

(* A loop that cannot be strip-mined (it calls a function) keeps the
   gated flush-behind; with 86 elements per line the gate opens every
   64 iterations (a rounded-up gate of 128 would leave gaps), and the
   flushed ranges leave no line out. *)
let test_gated_flush_covers_lines () =
  let n = 3000 in
  let rec_ty = T.struct_ "rec24" [ ("a", T.I64); ("b", T.I64); ("c", T.I64) ] in
  let b = B.program "flush86" in
  B.func b "id" [ ("x", T.I64) ] T.I64 (fun fb args -> B.ret fb (List.hd args));
  B.func b "init" [ ("r", T.Ptr rec_ty) ] T.Unit (fun fb args ->
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst n) (fun i ->
          B.store fb T.I64 ~ptr:(B.gep fb ~base:(List.hd args) ~index:i ~elem:rec_ty ()) ~value:i));
  B.func b "work" [ ("r", T.Ptr rec_ty) ] T.I64 (fun fb args ->
      let acc, _ = B.alloc fb ~name:"acc" ~space:Ir.Stack T.I64 (B.iconst 1) in
      B.store fb T.I64 ~ptr:acc ~value:(B.iconst 0);
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst n) (fun i ->
          let v = B.load fb T.I64 (B.gep fb ~base:(List.hd args) ~index:i ~elem:rec_ty ()) in
          let w = B.call fb "id" [ v ] in
          B.store fb T.I64 ~ptr:acc ~value:(B.bin fb Ir.Add (B.load fb T.I64 acc) w));
      B.ret fb (B.load fb T.I64 acc));
  B.func b "main" [] T.I64 (fun fb _ ->
      let r, _ = B.alloc fb ~name:"recs" rec_ty (B.iconst n) in
      ignore (B.call fb "init" [ r ]);
      B.ret fb (B.call fb "work" [ r ]));
  let prog = B.finish b ~entry:"main" in
  let site = Mira_workloads.Workload_util.site_id prog "recs" in
  let line = 86 * 24 in
  let compiled = Pipeline.apply prog (stream_plan [ (site, line) ]) ~params in
  let base = ref 0 and flushed = ref [] in
  let ms = Mira_baselines.Native.create ~capacity:(1 lsl 24) () in
  let ms =
    { ms with
      Mira_runtime.Memsys.alloc =
        (fun ~tid ~site:s ~bytes ~heap ->
          let p = ms.Mira_runtime.Memsys.alloc ~tid ~site:s ~bytes ~heap in
          if s = site then base := p.Mira_runtime.Memsys.addr;
          p);
      flush_evict =
        (fun ~tid ~ptr ~len ->
          flushed := (ptr.Mira_runtime.Memsys.addr, len) :: !flushed;
          ms.Mira_runtime.Memsys.flush_evict ~tid ~ptr ~len) }
  in
  Alcotest.(check bool) "same result" true
    (Value.equal (run_native prog) (Machine.run (Machine.create ms compiled)));
  Alcotest.(check bool) "not strip-mined" true
    (count_ops (function Ir.Load { meta; _ } -> meta.Ir.am_native | _ -> false) compiled = 0);
  (* the flushed ranges tile the array from its first byte, with no
     gap between one range and the next (so no line can fall between
     them), up to the range the tail flush ends on *)
  let ranges = List.sort_uniq compare !flushed in
  Alcotest.(check int) "first flush at the array start" !base (fst (List.hd ranges));
  ignore
    (List.fold_left
       (fun reach (addr, len) ->
         if addr > reach then
           Alcotest.failf "bytes %d-%d never flushed" (reach - !base) (addr - !base);
         max reach (addr + len))
       !base ranges);
  let last = List.fold_left (fun m (addr, _) -> max m addr) 0 ranges in
  Alcotest.(check int) "tail flush behind the last element" (!base + ((n - 1 - 180) * 24)) last;
  Alcotest.(check bool) "at most one flush per 64 iterations" true
    (List.length ranges <= ((n - 180) / 64) + 2)

(* A resident section holds its whole object, so the node site gets
   no prefetch, flush-behind or lifetime end; the edge loop is still
   strip-mined around it.  Without a resident section the edge stream
   still carries the indirect prefetch of nodes, and so does a resident
   edge stream. *)
let test_resident_gets_no_hints () =
  let prog = graph_program () in
  let e = edges_site prog and n = nodes_site prog in
  let plan = Pipeline.plan_all ~selected:[ e; n ] ~lines:[ (e, 2064); (n, 128) ] in
  let hints site =
    count_ops (function
      | Ir.Prefetch { meta; _ } | Ir.FlushEvict { meta; _ } -> meta.Ir.am_site = site
      | Ir.EvictSite s -> s = site
      | _ -> false)
  in
  let compiled = Pipeline.apply prog { plan with Pipeline.resident = [ n ] } ~params in
  Alcotest.(check int) "no hint names the resident site" 0 (hints n compiled);
  Alcotest.(check bool) "the edges are still prefetched" true
    (count_ops (function Ir.Prefetch { meta; _ } -> meta.Ir.am_site = e | _ -> false) compiled
     > 0);
  (* the strip-mined shape: a chunk loop around a loop from its start *)
  let strip_mined =
    count_ops (function
      | Ir.For { iv; body; _ } ->
        List.exists (function Ir.For { lo = Ir.Oreg r; _ } -> r = iv | _ -> false) body
      | _ -> false)
  in
  Alcotest.(check bool) "the edge loop is strip-mined" true (strip_mined compiled > 0);
  Alcotest.(check bool) "same result" true (Value.equal (run_native prog) (run_native compiled));
  (* the indirect snippet: a guarded load of an edge, then a prefetch
     of the node it names *)
  let indirect =
    count_ops (function
      | Ir.If { then_; _ } ->
        List.exists (function Ir.Load { meta; _ } -> meta.Ir.am_site = e | _ -> false) then_
        && List.exists (function Ir.Prefetch { meta; _ } -> meta.Ir.am_site = n | _ -> false) then_
      | _ -> false)
  in
  Alcotest.(check bool) "indirect prefetch without a resident section" true
    (indirect (Pipeline.apply prog plan ~params) > 0);
  (* a resident index stream still feeds the prefetch of its target *)
  let compiled = Pipeline.apply prog { plan with Pipeline.resident = [ e ] } ~params in
  Alcotest.(check int) "no hint names a resident stream" 0 (hints e compiled);
  Alcotest.(check bool) "indirect prefetch through a resident stream" true (indirect compiled > 0)

let test_pipeline_all_workloads_preserved () =
  (* Every workload compiled with every optimization must compute the
     same checksum as its uncompiled form. *)
  let check name prog =
    let heap_sites =
      List.map (fun s -> s.Ir.si_id) prog.Ir.p_sites
    in
    let lines = List.map (fun s -> (s, 256)) heap_sites in
    let plan = Pipeline.plan_all ~selected:heap_sites ~lines in
    let plan = { plan with Pipeline.offload = false } in
    let compiled = Pipeline.apply prog plan ~params in
    Alcotest.(check bool) (name ^ " same result") true
      (Value.equal (run_native prog) (run_native compiled))
  in
  check "graph"
    (Mira_workloads.Graph_traversal.build
       { Mira_workloads.Graph_traversal.config_default with
         Mira_workloads.Graph_traversal.num_edges = 500; num_nodes = 64 });
  check "dataframe"
    (Mira_workloads.Dataframe.build
       { Mira_workloads.Dataframe.config_default with
         Mira_workloads.Dataframe.rows = 500; groups = 32 });
  check "mcf"
    (Mira_workloads.Mcf.build
       { Mira_workloads.Mcf.config_default with
         Mira_workloads.Mcf.num_nodes = 100; num_arcs = 400; rounds = 2 });
  check "gpt2"
    (Mira_workloads.Gpt2.build
       { Mira_workloads.Gpt2.config_default with
         Mira_workloads.Gpt2.layers = 2; d_model = 8; seq = 4 })

(* The compiled IR of every workload at test scale, under [plan_all]
   with offloading on and off, pinned by digest.  The printed program
   leaves out the sites an offloaded function flushes, so they are
   digested with it.  A change to the passes that must not change what
   they emit keeps these; one that means to updates them. *)
let pinned_workloads =
  [
    ( "graph",
      fun () ->
        Mira_workloads.Graph_traversal.build
          { Mira_workloads.Graph_traversal.config_default with
            Mira_workloads.Graph_traversal.num_edges = 500; num_nodes = 64 } );
    ( "micro_sum",
      fun () ->
        Mira_workloads.Micro_sum.build
          { Mira_workloads.Micro_sum.config_default with
            Mira_workloads.Micro_sum.elems = 1000 } );
    ( "dataframe",
      fun () ->
        Mira_workloads.Dataframe.build
          { Mira_workloads.Dataframe.config_default with
            Mira_workloads.Dataframe.rows = 500; groups = 32 } );
    ( "mcf",
      fun () ->
        Mira_workloads.Mcf.build
          { Mira_workloads.Mcf.config_default with
            Mira_workloads.Mcf.num_nodes = 100; num_arcs = 400; rounds = 2 } );
    ( "gpt2",
      fun () ->
        Mira_workloads.Gpt2.build
          { Mira_workloads.Gpt2.config_default with
            Mira_workloads.Gpt2.layers = 2; d_model = 8; seq = 4 } );
  ]

let compiled_ir_digest prog ~offload =
  let sites = List.map (fun s -> s.Ir.si_id) prog.Ir.p_sites in
  let plan = Pipeline.plan_all ~selected:sites ~lines:(List.map (fun s -> (s, 256)) sites) in
  let compiled = Pipeline.apply prog { plan with Pipeline.offload } ~params in
  let flushed =
    List.map
      (fun (name, f) ->
        name ^ ":" ^ String.concat "," (List.map string_of_int f.Ir.f_offload_sites))
      compiled.Ir.p_funcs
  in
  Mira_mir.Printer.program_to_string compiled ^ String.concat ";" flushed
  |> Digest.string |> Digest.to_hex

(* name -> (offload on, offload off) *)
let pinned_digests =
  [
    ("graph", ("01458c9d2cd6945241c7fb969ab0540c", "bb852abf72d76031a0396fbfb211b6c2"));
    ("micro_sum", ("491618fc2de7b2830fc92ef9f0e146b3", "a1fa22c22189897664958a7dfeee19dd"));
    ("dataframe", ("d897eaf9d1fcb798f813e40db1a237b3", "591f7d7433332c77478519beef1e2001"));
    ("mcf", ("e32975550f006f85da5dad850ae3cfae", "decb17db5c419cac3e83ffd83bd6204e"));
    ("gpt2", ("6f563f65c4be474257188b03c6a2b689", "bc4d1b88f2e443983a4882cd84cada17"));
  ]

(* [Pipeline.apply] builds its input's site facts once and hands them
   to every pass, which holds only while no pass changes them: the
   first pass whose output has other facts than its input, if any. *)
let pass_changing_facts prog =
  let view p =
    let facts = Flow.build p in
    ( Flow.heap_sites facts,
      List.map (fun s -> Flow.site_count facts s.Ir.si_id) p.Ir.p_sites,
      List.map (fun s -> Flow.site_of_ty facts s.Ir.si_elem) p.Ir.p_sites,
      List.map (fun (name, _) -> (Flow.param_sites facts name, Flow.callees facts name))
        p.Ir.p_funcs )
  in
  let facts = Flow.build prog in
  let sites = List.map (fun s -> s.Ir.si_id) prog.Ir.p_sites in
  let line_of s = if List.mem s sites then Some 256 else None in
  let passes =
    [
      ("fusion", Fusion.run facts);
      ("convert", fun p -> Convert.run facts p ~selected:sites);
      ( "loop hints",
        fun p ->
          Loop_hints.run facts p ~params ~line_of ~hint_line_of:line_of ~prefetch:true
            ~evict:true ~native:true );
      ("chase", fun p -> Prefetch.chase facts p ~line_of);
      ("lifetimes", fun p -> Evict.end_lifetimes facts p ~line_of);
      ("native deref", fun p -> Native.run facts p ~line_of);
      ( "offload",
        fun p ->
          let results = Mira_analysis.Pattern.analyze_all facts p in
          Mira_passes.Offload_pass.run facts results p ~params );
      ("instrument", Instrument.run);
    ]
  in
  let before = view prog in
  let rec first p = function
    | [] -> None
    | (name, pass) :: rest ->
      let p = pass p in
      if view p <> before then Some name else first p rest
  in
  first prog passes

let test_compiled_ir_pinned () =
  List.iter
    (fun (name, build) ->
      let prog = build () in
      let on, off = List.assoc name pinned_digests in
      Alcotest.(check string) (name ^ " offload on") on (compiled_ir_digest prog ~offload:true);
      Alcotest.(check string) (name ^ " offload off") off (compiled_ir_digest prog ~offload:false);
      Alcotest.(check (option string)) (name ^ " site facts kept") None (pass_changing_facts prog))
    pinned_workloads

let qcheck_passes_keep_facts =
  QCheck.Test.make ~name:"passes keep random programs' site facts" ~count:60
    (QCheck.make ~print:Test_random_programs.pp_recipe Test_random_programs.gen_recipe)
    (fun recipe -> pass_changing_facts (Test_random_programs.build_program recipe) = None)

let suite =
  [
    Alcotest.test_case "instrument" `Quick test_instrument;
    Alcotest.test_case "instrument only" `Quick test_instrument_only;
    Alcotest.test_case "convert selection" `Quick test_convert_marks_selected;
    Alcotest.test_case "prefetch inserts" `Quick test_prefetch_inserts;
    Alcotest.test_case "prefetch distance" `Quick test_prefetch_distance;
    Alcotest.test_case "evict inserts" `Quick test_evict_inserts;
    Alcotest.test_case "fusion fuses" `Quick test_fusion_fuses_independent;
    Alcotest.test_case "fusion dependences" `Quick test_fusion_respects_dependences;
    Alcotest.test_case "native deref" `Quick test_native_deref_marks;
    Alcotest.test_case "pipeline semantics" `Quick test_pipeline_preserves_semantics;
    Alcotest.test_case "strip-mined loads resident" `Quick test_strip_mined_loads_resident;
    Alcotest.test_case "strip-mined micro golden" `Quick test_strip_mined_golden;
    Alcotest.test_case "gated flush covers lines" `Quick test_gated_flush_covers_lines;
    Alcotest.test_case "resident sites get no hints" `Quick test_resident_gets_no_hints;
    Alcotest.test_case "pipeline all workloads" `Slow test_pipeline_all_workloads_preserved;
    Alcotest.test_case "compiled IR pinned" `Quick test_compiled_ir_pinned;
    QCheck_alcotest.to_alcotest qcheck_passes_keep_facts;
  ]
