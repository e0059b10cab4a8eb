(* Interpreter semantics: values, arithmetic, control flow, memory,
   parallel loops, offloaded calls — all against the native baseline
   (timing-free correctness). *)
module T = Mira_mir.Types
module Ir = Mira_mir.Ir
module B = Mira_mir.Builder
module Machine = Mira_interp.Machine
module Value = Mira_interp.Value
module Memsys = Mira_runtime.Memsys

let native_ms () = Mira_baselines.Native.create ~capacity:(1 lsl 22) ()

let run_main prog = Machine.run (Machine.create (native_ms ()) prog)

let expect_int name prog expected =
  match run_main prog with
  | Value.Vint v -> Alcotest.(check int64) name expected v
  | other -> Alcotest.failf "%s: expected int, got %s" name
               (Format.asprintf "%a" Value.pp other)

let test_value_roundtrip () =
  let cases =
    [ (T.I64, Value.Vint 42L); (T.F64, Value.Vfloat 3.25);
      (T.Bool, Value.Vbool true) ]
  in
  List.iter
    (fun (ty, v) ->
      let bits = Value.encode ty v in
      Alcotest.(check bool) "roundtrip" true (Value.equal v (Value.decode ty bits)))
    cases

let qcheck_ptr_bits =
  QCheck.Test.make ~name:"pointer bits roundtrip" ~count:500
    QCheck.(triple bool (int_bound ((1 lsl 30) - 1)) (int_range (-1) 1000))
    (fun (far, addr, site) ->
      let p =
        { Memsys.space = (if far then Memsys.Far else Memsys.Local); addr; site }
      in
      Value.bits_ptr (Value.ptr_bits p) = p)

let test_null_pointer_is_zero () =
  Alcotest.(check int64) "null encodes to 0" 0L
    (Value.encode (T.Ptr T.I64) Value.null);
  Alcotest.(check bool) "0 decodes to null" true
    (Value.is_null (Value.decode (T.Ptr T.I64) 0L))

let test_arith () =
  let b = B.program "arith" in
  B.func b "main" [] T.I64 (fun fb _ ->
      let x = B.bin fb Ir.Add (B.iconst 40) (B.iconst 2) in
      let y = B.bin fb Ir.Mul x (B.iconst 10) in
      let z = B.bin fb Ir.Rem y (B.iconst 13) in  (* 420 mod 13 = 4 *)
      let w = B.bin fb Ir.Shl z (B.iconst 3) in  (* 32 *)
      let f = B.i2f fb w in
      let g = B.fbin fb Ir.Fdiv f (Ir.Ofloat 2.0) in
      let h = B.f2i fb g in
      B.ret fb h);
  expect_int "arith" (B.finish b ~entry:"main") 16L

let test_control_flow () =
  let b = B.program "cf" in
  B.func b "main" [] T.I64 (fun fb _ ->
      let acc, _ = B.alloc fb ~name:"acc" ~space:Ir.Stack T.I64 (B.iconst 1) in
      B.store fb T.I64 ~ptr:acc ~value:(B.iconst 0);
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst 10) (fun i ->
          let even = B.bin fb Ir.Rem i (B.iconst 2) in
          let is_even = B.cmp fb Ir.Eq even (B.iconst 0) in
          B.if_ fb is_even
            (fun () ->
              let a = B.load fb T.I64 acc in
              B.store fb T.I64 ~ptr:acc ~value:(B.bin fb Ir.Add a i))
            ());
      let v = B.load fb T.I64 acc in
      B.ret fb v);
  (* 0+2+4+6+8 = 20 *)
  expect_int "if/for" (B.finish b ~entry:"main") 20L

let test_while_loop () =
  let b = B.program "wl" in
  B.func b "main" [] T.I64 (fun fb _ ->
      let n, _ = B.alloc fb ~name:"n" ~space:Ir.Stack T.I64 (B.iconst 1) in
      let acc, _ = B.alloc fb ~name:"acc2" ~space:Ir.Stack T.I64 (B.iconst 1) in
      B.store fb T.I64 ~ptr:n ~value:(B.iconst 10);
      B.store fb T.I64 ~ptr:acc ~value:(B.iconst 0);
      B.while_ fb
        ~cond:(fun () ->
          let v = B.load fb T.I64 n in
          B.cmp fb Ir.Gt v (B.iconst 0))
        ~body:(fun () ->
          let v = B.load fb T.I64 n in
          let a = B.load fb T.I64 acc in
          B.store fb T.I64 ~ptr:acc ~value:(B.bin fb Ir.Add a v);
          B.store fb T.I64 ~ptr:n ~value:(B.bin fb Ir.Sub v (B.iconst 1)));
      let v = B.load fb T.I64 acc in
      B.ret fb v);
  expect_int "while" (B.finish b ~entry:"main") 55L

let test_calls_and_args () =
  let b = B.program "calls" in
  B.func b "addmul" [ ("x", T.I64); ("y", T.I64) ] T.I64 (fun fb args ->
      match args with
      | [ x; y ] ->
        let s = B.bin fb Ir.Add x y in
        let m = B.bin fb Ir.Mul s (B.iconst 2) in
        B.ret fb m
      | _ -> assert false);
  B.func b "main" [] T.I64 (fun fb _ ->
      let v = B.call fb "addmul" [ B.iconst 3; B.iconst 4 ] in
      B.ret fb v);
  expect_int "call" (B.finish b ~entry:"main") 14L

let test_pointer_fields () =
  let def = { T.s_name = "pair"; s_fields = [ ("a", T.I64); ("b", T.I64) ] } in
  let b = B.program "ptrs" in
  B.func b "main" [] T.I64 (fun fb _ ->
      let arr, _ = B.alloc fb ~name:"pairs" (T.Struct def) (B.iconst 4) in
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst 4) (fun i ->
          let pa = B.field_ptr fb ~base:arr ~index:i ~def ~field:"a" in
          B.store fb T.I64 ~ptr:pa ~value:i;
          let pb = B.field_ptr fb ~base:arr ~index:i ~def ~field:"b" in
          B.store fb T.I64 ~ptr:pb ~value:(B.bin fb Ir.Mul i (B.iconst 10)));
      let p = B.field_ptr fb ~base:arr ~index:(B.iconst 3) ~def ~field:"b" in
      let v = B.load fb T.I64 p in
      B.ret fb v);
  expect_int "struct fields" (B.finish b ~entry:"main") 30L

let test_stored_pointers () =
  (* Store a pointer into memory, load it back, dereference. *)
  let rec node = { T.s_name = "tnode"; s_fields = [ ("v", T.I64); ("next", T.Ptr (T.Struct node)) ] } in
  let nptr = T.Ptr (T.Struct node) in
  let b = B.program "linked" in
  B.func b "main" [] T.I64 (fun fb _ ->
      let arr, _ = B.alloc fb ~name:"tnodes" (T.Struct node) (B.iconst 3) in
      (* chain 0 -> 1 -> 2 -> null, values 5,6,7 *)
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst 3) (fun i ->
          let pv = B.field_ptr fb ~base:arr ~index:i ~def:node ~field:"v" in
          B.store fb T.I64 ~ptr:pv ~value:(B.bin fb Ir.Add i (B.iconst 5)));
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst 2) (fun i ->
          let pn = B.field_ptr fb ~base:arr ~index:i ~def:node ~field:"next" in
          let succ = B.bin fb Ir.Add i (B.iconst 1) in
          let target = B.gep fb ~base:arr ~index:succ ~elem:(T.Struct node) () in
          B.store fb nptr ~ptr:pn ~value:target);
      let last = B.field_ptr fb ~base:arr ~index:(B.iconst 2) ~def:node ~field:"next" in
      B.store fb nptr ~ptr:last ~value:(Ir.Oint 0L);
      (* walk the chain summing values *)
      let cur, _ = B.alloc fb ~name:"cur" ~space:Ir.Stack nptr (B.iconst 1) in
      let acc, _ = B.alloc fb ~name:"acc3" ~space:Ir.Stack T.I64 (B.iconst 1) in
      let head = B.gep fb ~base:arr ~index:(B.iconst 0) ~elem:(T.Struct node) () in
      B.store fb nptr ~ptr:cur ~value:head;
      B.store fb T.I64 ~ptr:acc ~value:(B.iconst 0);
      B.while_ fb
        ~cond:(fun () ->
          let c = B.load fb nptr cur in
          B.cmp fb Ir.Ne c (Ir.Oint 0L))
        ~body:(fun () ->
          let c = B.load fb nptr cur in
          let pv = B.gep fb ~base:c ~index:(B.iconst 0) ~elem:(T.Struct node) () in
          let v = B.load fb T.I64 pv in
          let a = B.load fb T.I64 acc in
          B.store fb T.I64 ~ptr:acc ~value:(B.bin fb Ir.Add a v);
          let pn =
            B.gep fb ~base:c ~index:(B.iconst 0) ~elem:(T.Struct node)
              ~field_off:(T.field_offset node "next") ()
          in
          let nxt = B.load fb nptr pn in
          B.store fb nptr ~ptr:cur ~value:nxt);
      let v = B.load fb T.I64 acc in
      B.ret fb v);
  expect_int "pointer chase" (B.finish b ~entry:"main") 18L

let par_sum_program () =
  let b = B.program "psum" in
  B.func b "main" [] T.I64 (fun fb _ ->
      let n = 1000 in
      let arr, _ = B.alloc fb ~name:"parr" T.I64 (B.iconst n) in
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst n) (fun i ->
          let p = B.gep fb ~base:arr ~index:i ~elem:T.I64 () in
          B.store fb T.I64 ~ptr:p ~value:i);
      let out, _ = B.alloc fb ~name:"pout" T.I64 (B.iconst n) in
      B.par_for fb ~lo:(B.iconst 0) ~hi:(B.iconst n) (fun i ->
          let p = B.gep fb ~base:arr ~index:i ~elem:T.I64 () in
          let v = B.load fb T.I64 p in
          let q = B.gep fb ~base:out ~index:i ~elem:T.I64 () in
          B.store fb T.I64 ~ptr:q ~value:(B.bin fb Ir.Mul v (B.iconst 2)));
      let acc, _ = B.alloc fb ~name:"pacc" ~space:Ir.Stack T.I64 (B.iconst 1) in
      B.store fb T.I64 ~ptr:acc ~value:(B.iconst 0);
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst n) (fun i ->
          let q = B.gep fb ~base:out ~index:i ~elem:T.I64 () in
          let v = B.load fb T.I64 q in
          let a = B.load fb T.I64 acc in
          B.store fb T.I64 ~ptr:acc ~value:(B.bin fb Ir.Add a v));
      let v = B.load fb T.I64 acc in
      B.ret fb v);
  B.finish b ~entry:"main"

let test_parfor_result_independent_of_threads () =
  let prog = par_sum_program () in
  let expected = Int64.of_int (1000 * 999) in
  List.iter
    (fun threads ->
      let m = Machine.create ~nthreads:threads (native_ms ()) prog in
      match Machine.run m with
      | Value.Vint v ->
        Alcotest.(check int64) (Printf.sprintf "threads=%d" threads) expected v
      | other -> Alcotest.failf "bad value %s" (Format.asprintf "%a" Value.pp other))
    [ 1; 2; 4; 8 ]

let test_parfor_speedup () =
  let prog = par_sum_program () in
  let time threads =
    let ms =
      Mira_runtime.Runtime.(
        memsys (create (config_default ~local_budget:(1 lsl 20) ~far_capacity:(1 lsl 22))))
    in
    let before = ms.Memsys.elapsed () in
    ignore (Machine.run (Machine.create ~nthreads:threads ms prog));
    ms.Memsys.elapsed () -. before
  in
  let t1 = time 1 and t4 = time 4 in
  Alcotest.(check bool) "parallel faster" true (t4 < t1)

let test_offload_rpc () =
  (* An offloaded function must see flushed data and its writes must be
     visible to the caller afterwards. *)
  let b = B.program "off" in
  B.func b "bump" [ ("arr", T.Ptr T.I64) ] T.I64 (fun fb args ->
      match args with
      | [ arr ] ->
        let acc, _ = B.alloc fb ~name:"oacc" ~space:Ir.Stack T.I64 (B.iconst 1) in
        B.store fb T.I64 ~ptr:acc ~value:(B.iconst 0);
        B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst 16) (fun i ->
            let p = B.gep fb ~base:arr ~index:i ~elem:T.I64 () in
            let v = B.load fb T.I64 p in
            B.store fb T.I64 ~ptr:p ~value:(B.bin fb Ir.Add v (B.iconst 1));
            let a = B.load fb T.I64 acc in
            B.store fb T.I64 ~ptr:acc ~value:(B.bin fb Ir.Add a v));
        let v = B.load fb T.I64 acc in
        B.ret fb v
      | _ -> assert false);
  B.func b "main" [] T.I64 (fun fb _ ->
      let arr, _ = B.alloc fb ~name:"oarr" T.I64 (B.iconst 16) in
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst 16) (fun i ->
          let p = B.gep fb ~base:arr ~index:i ~elem:T.I64 () in
          B.store fb T.I64 ~ptr:p ~value:i);
      let sum = B.call fb "bump" [ arr ] in
      (* after the call, arr[i] = i+1; read one back *)
      let p = B.gep fb ~base:arr ~index:(B.iconst 5) ~elem:T.I64 () in
      let v = B.load fb T.I64 p in
      let r = B.bin fb Ir.Add sum v in
      B.ret fb r);
  let prog = B.finish b ~entry:"main" in
  (* mark bump offloaded by hand *)
  let bump = Ir.find_func prog "bump" in
  let bump = { bump with Ir.f_offloaded = true; f_offload_sites = [ 1 ] } in
  let prog =
    { prog with
      Ir.p_funcs =
        List.map (fun (name, f) -> (name, if name = "bump" then bump else f))
          prog.Ir.p_funcs }
  in
  (* Note: site of oarr discovered below; sites are numbered in builder
     order (oacc=0, oarr=1). Run on the Mira runtime with offload honored. *)
  let ms =
    Mira_runtime.Runtime.(
      memsys (create (config_default ~local_budget:(1 lsl 16) ~far_capacity:(1 lsl 20))))
  in
  let m = Machine.create ~honor_offload:true ms prog in
  (match Machine.run m with
  | Value.Vint v -> Alcotest.(check int64) "offloaded result" 126L v
  | other -> Alcotest.failf "bad %s" (Format.asprintf "%a" Value.pp other));
  (* and identical result without offloading *)
  let m2 = Machine.create ~honor_offload:false (native_ms ()) prog in
  match Machine.run m2 with
  | Value.Vint v -> Alcotest.(check int64) "same un-offloaded" 126L v
  | other -> Alcotest.failf "bad %s" (Format.asprintf "%a" Value.pp other)

let test_intrinsics () =
  let b = B.program "intr" in
  B.func b "main" [] T.I64 (fun fb _ ->
      let e = B.call fb "exp" [ Ir.Ofloat 0.0 ] in
      let s = B.call fb "sqrt" [ Ir.Ofloat 16.0 ] in
      let t = B.fbin fb Ir.Fadd e s in
      let v = B.f2i fb t in
      B.ret fb v);
  expect_int "exp(0)+sqrt(16)" (B.finish b ~entry:"main") 5L

let test_rand_deterministic () =
  let b = B.program "rnd" in
  B.func b "main" [] T.I64 (fun fb _ ->
      let acc, _ = B.alloc fb ~name:"racc" ~space:Ir.Stack T.I64 (B.iconst 1) in
      B.store fb T.I64 ~ptr:acc ~value:(B.iconst 0);
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst 100) (fun _ ->
          let r = B.call fb "rand_int" [ B.iconst 1000 ] in
          let a = B.load fb T.I64 acc in
          B.store fb T.I64 ~ptr:acc ~value:(B.bin fb Ir.Add a r));
      let v = B.load fb T.I64 acc in
      B.ret fb v);
  let prog = B.finish b ~entry:"main" in
  let v1 = Machine.run (Machine.create ~seed:9 (native_ms ()) prog) in
  let v2 = Machine.run (Machine.create ~seed:9 (native_ms ()) prog) in
  let v3 = Machine.run (Machine.create ~seed:10 (native_ms ()) prog) in
  Alcotest.(check bool) "same seed same result" true (Value.equal v1 v2);
  Alcotest.(check bool) "different seed differs" false (Value.equal v1 v3)

let suite =
  [
    Alcotest.test_case "value roundtrip" `Quick test_value_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_ptr_bits;
    Alcotest.test_case "null pointer" `Quick test_null_pointer_is_zero;
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "while loop" `Quick test_while_loop;
    Alcotest.test_case "calls" `Quick test_calls_and_args;
    Alcotest.test_case "struct fields" `Quick test_pointer_fields;
    Alcotest.test_case "stored pointers" `Quick test_stored_pointers;
    Alcotest.test_case "parfor thread-count invariant" `Quick
      test_parfor_result_independent_of_threads;
    Alcotest.test_case "parfor speedup" `Quick test_parfor_speedup;
    Alcotest.test_case "offload rpc" `Quick test_offload_rpc;
    Alcotest.test_case "intrinsics" `Quick test_intrinsics;
    Alcotest.test_case "rand deterministic" `Quick test_rand_deterministic;
  ]
