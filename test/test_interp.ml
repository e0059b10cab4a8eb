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

(* The interpreter's op semantics against a reference written here:
   one-op programs run on the native memory system, over operands that
   include the edge values, the ops' failures and the operand coercions
   programs rely on (a bool as 0/1, a pointer as its bits). *)
let binops =
  Ir.[ ("add", Add); ("sub", Sub); ("mul", Mul); ("div", Div); ("rem", Rem);
       ("and", Land); ("or", Lor); ("xor", Lxor); ("shl", Shl); ("shr", Shr) ]

let fbinops = Ir.[ ("fadd", Fadd); ("fsub", Fsub); ("fmul", Fmul); ("fdiv", Fdiv) ]
let cmpops = Ir.[ ("eq", Eq); ("ne", Ne); ("lt", Lt); ("le", Le); ("gt", Gt); ("ge", Ge) ]

let ref_bin op a b =
  let open Int64 in
  match op with
  | Ir.Add -> Ok (add a b)
  | Ir.Sub -> Ok (sub a b)
  | Ir.Mul -> Ok (mul a b)
  | Ir.Div -> if b = 0L then Error "division by zero" else Ok (div a b)
  | Ir.Rem -> if b = 0L then Error "remainder by zero" else Ok (rem a b)
  | Ir.Land -> Ok (logand a b)
  | Ir.Lor -> Ok (logor a b)
  | Ir.Lxor -> Ok (logxor a b)
  | Ir.Shl -> Ok (shift_left a (to_int b land 63))
  | Ir.Shr -> Ok (shift_right_logical a (to_int b land 63))

let ref_cmp op (a : int64) b =
  match op with
  | Ir.Eq -> a = b
  | Ir.Ne -> a <> b
  | Ir.Lt -> a < b
  | Ir.Le -> a <= b
  | Ir.Gt -> a > b
  | Ir.Ge -> a >= b

let ref_fbin op (a : float) b =
  match op with Ir.Fadd -> a +. b | Ir.Fsub -> a -. b | Ir.Fmul -> a *. b | Ir.Fdiv -> a /. b

(* IEEE comparisons: NaN is unordered and unequal to itself. *)
let ref_fcmp op (a : float) b =
  match op with
  | Ir.Eq -> a = b
  | Ir.Ne -> a <> b
  | Ir.Lt -> a < b
  | Ir.Le -> a <= b
  | Ir.Gt -> a > b
  | Ir.Ge -> a >= b

(* [main] runs [build]'s ops, then returns the operand it gives back;
   a [Failure] the run raises is its result too. *)
let run_ops build =
  let b = B.program "ops" in
  B.func b "main" [] T.I64 (fun fb _ -> B.ret fb (build fb));
  let ms = Mira_baselines.Native.create ~capacity:4096 () in
  match Machine.run (Machine.create ms (B.finish b ~entry:"main")) with
  | v -> Ok v
  | exception Failure msg -> Error msg

let show = function
  | Ok v -> Format.asprintf "%a" Value.pp v
  | Error msg -> "Failure " ^ msg

(* Floats match bit for bit, except that any NaN matches any NaN. *)
let same_result got want =
  match (got, want) with
  | Ok (Value.Vfloat x), Ok (Value.Vfloat y) ->
    (Float.is_nan x && Float.is_nan y) || Int64.bits_of_float x = Int64.bits_of_float y
  | _ -> got = want

let check_op what got want =
  same_result got want
  || QCheck.Test.fail_reportf "%s: got %s, want %s" what (show got) (show want)

let int_edges = Int64.[ 0L; 1L; -1L; min_int; max_int; 63L; 64L ]
let float_edges = Float.[ nan; 0.0; -0.0; infinity; neg_infinity; 1.0; -1.0; max_float ]

let arb_edge edges gen print =
  QCheck.make ~print QCheck.Gen.(frequency [ (1, oneofl edges); (1, gen) ])

let qcheck_int_ops =
  let arb = arb_edge int_edges QCheck.Gen.int64 Int64.to_string in
  QCheck.Test.make ~name:"int ops match the reference" ~count:200 (QCheck.pair arb arb)
    (fun (a, b) ->
      let what name = Printf.sprintf "%s %Ld %Ld" name a b in
      List.for_all
        (fun (name, o) ->
          check_op (what name)
            (run_ops (fun fb -> B.bin fb o (Ir.Oint a) (Ir.Oint b)))
            (Result.map (fun v -> Value.Vint v) (ref_bin o a b)))
        binops
      && List.for_all
           (fun (name, o) ->
             check_op (what name)
               (run_ops (fun fb -> B.cmp fb o (Ir.Oint a) (Ir.Oint b)))
               (Ok (Value.Vbool (ref_cmp o a b))))
           cmpops)

let qcheck_float_ops =
  let arb = arb_edge float_edges QCheck.Gen.float (Printf.sprintf "%h") in
  QCheck.Test.make ~name:"float ops match the reference" ~count:200 (QCheck.pair arb arb)
    (fun (a, b) ->
      let what name = Printf.sprintf "%s %h %h" name a b in
      List.for_all
        (fun (name, o) ->
          check_op (what name)
            (run_ops (fun fb -> B.fbin fb o (Ir.Ofloat a) (Ir.Ofloat b)))
            (Ok (Value.Vfloat (ref_fbin o a b))))
        fbinops
      && List.for_all
           (fun (name, o) ->
             check_op (what ("f" ^ name))
               (run_ops (fun fb -> B.fcmp fb o (Ir.Ofloat a) (Ir.Ofloat b)))
               (Ok (Value.Vbool (ref_fcmp o a b))))
           cmpops)

(* A bool operand reads as 0 or 1 in integer arithmetic; a pointer
   compares as its bits, and a null pointer (one loaded from zeroed
   memory) as 0.  Allocation is deterministic on a fresh memory system,
   so [ptr] holds the bits of the pointer each compare sees. *)
let qcheck_coercions =
  let with_ptrs f fb =
    let p, _ = B.alloc fb ~name:"p" T.I64 (B.iconst 1) in
    let t, _ = B.alloc fb ~name:"t" (T.Ptr T.I64) (B.iconst 1) in
    f fb p (B.load fb (T.Ptr T.I64) t)
  in
  let ptr =
    match run_ops (with_ptrs (fun _ p _ -> p)) with
    | Ok (Value.Vptr p) -> Value.ptr_bits p
    | r -> failwith ("allocation gave " ^ show r)
  in
  let arb = arb_edge (ptr :: int_edges) QCheck.Gen.int64 Int64.to_string in
  QCheck.Test.make ~name:"op coercions match the reference" ~count:100
    (QCheck.pair QCheck.bool arb)
    (fun (x, k) ->
      (* each operand: its label, the operand, its bits *)
      let bool = (string_of_bool x, Ir.Obool x, if x then 1L else 0L) in
      let int = (Int64.to_string k, Ir.Oint k, k) in
      List.for_all
        (fun (name, o) ->
          List.for_all
            (fun ((la, a, ia), (lb, b, ib)) ->
              check_op
                (Printf.sprintf "%s %s %s" name la lb)
                (run_ops (fun fb -> B.bin fb o a b))
                (Result.map (fun v -> Value.Vint v) (ref_bin o ia ib)))
            [ (bool, int); (int, bool) ])
        binops
      && List.for_all
           (fun (name, o) ->
             (* each operand: its label, how to build it, its bits *)
             let p = ("ptr", (fun p _ -> p), ptr) and null = ("null", (fun _ n -> n), 0L) in
             let num v = (Int64.to_string v, (fun _ _ -> Ir.Oint v), v) in
             List.for_all
               (fun ((la, a, ia), (lb, b, ib)) ->
                 check_op
                   (Printf.sprintf "%s %s %s" name la lb)
                   (run_ops (with_ptrs (fun fb pv nv -> B.cmp fb o (a pv nv) (b pv nv))))
                   (Ok (Value.Vbool (ref_cmp o ia ib))))
               [ (p, num k); (num k, p); (p, num 0L); (null, num 0L); (p, null); (num k, null) ])
           cmpops)

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

(* A parallel loop whose span is not a multiple of its step runs every
   iteration on any thread count: 0, 3, 6 and 9 each store i+1. *)
let test_parfor_partial_last_step () =
  let b = B.program "pstep" in
  B.func b "main" [] T.I64 (fun fb _ ->
      let out, _ = B.alloc fb ~name:"sout" T.I64 (B.iconst 10) in
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst 10) (fun i ->
          let p = B.gep fb ~base:out ~index:i ~elem:T.I64 () in
          B.store fb T.I64 ~ptr:p ~value:(B.iconst 0));
      B.par_for fb ~lo:(B.iconst 0) ~hi:(B.iconst 10) ~step:(B.iconst 3) (fun i ->
          let p = B.gep fb ~base:out ~index:i ~elem:T.I64 () in
          B.store fb T.I64 ~ptr:p ~value:(B.bin fb Ir.Add i (B.iconst 1)));
      let acc, _ = B.alloc fb ~name:"sacc" ~space:Ir.Stack T.I64 (B.iconst 1) in
      B.store fb T.I64 ~ptr:acc ~value:(B.iconst 0);
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst 10) (fun i ->
          let p = B.gep fb ~base:out ~index:i ~elem:T.I64 () in
          let v = B.load fb T.I64 p in
          let a = B.load fb T.I64 acc in
          B.store fb T.I64 ~ptr:acc ~value:(B.bin fb Ir.Add a v));
      let v = B.load fb T.I64 acc in
      B.ret fb v);
  let prog = B.finish b ~entry:"main" in
  List.iter
    (fun threads ->
      match Machine.run (Machine.create ~nthreads:threads (native_ms ()) prog) with
      | Value.Vint v ->
        Alcotest.(check int64) (Printf.sprintf "threads=%d" threads) 22L v
      | other -> Alcotest.failf "bad value %s" (Format.asprintf "%a" Value.pp other))
    [ 1; 2; 4 ]

(* Function bodies are compiled on their first call, so a call that
   cannot run fails when it executes, after the ops before it, with the
   same message; a function that is never called is never looked at. *)
let test_call_errors_at_the_call () =
  let b = B.program "lazy" in
  B.func b "pair" [ ("x", T.I64); ("y", T.I64) ] T.I64 (fun fb args ->
      match args with [ x; y ] -> B.ret fb (B.bin fb Ir.Add x y) | _ -> assert false);
  B.func b "never" [] T.F64 (fun fb _ ->
      B.ret fb (B.call fb "exp" [ Ir.Ofloat 1.0; Ir.Ofloat 2.0 ]));
  B.func b "ok" [] T.I64 (fun fb _ ->
      B.ret fb (B.call fb "pair" [ B.iconst 2; B.iconst 40 ]));
  B.func b "bad_arity" [] T.I64 (fun fb _ ->
      let x = B.bin fb Ir.Add (B.iconst 1) (B.iconst 2) in
      B.ret fb (B.call fb "pair" [ x ]));
  B.func b "bad_intrinsic" [] T.F64 (fun fb _ ->
      let x = B.fbin fb Ir.Fadd (Ir.Ofloat 1.0) (Ir.Ofloat 2.0) in
      B.ret fb (B.call fb "sqrt" [ x; x ]));
  let prog = B.finish b ~entry:"ok" in
  let machine entry = Machine.create (native_ms ()) { prog with Ir.p_entry = entry } in
  (match Machine.run (machine "ok") with
  | Value.Vint v -> Alcotest.(check int64) "runs" 42L v
  | other -> Alcotest.failf "bad value %s" (Format.asprintf "%a" Value.pp other));
  List.iter
    (fun (entry, msg) ->
      let m = machine entry in
      Alcotest.check_raises entry (Failure msg) (fun () -> ignore (Machine.run m));
      Alcotest.(check int) (entry ^ ": ops before the failure") 2 (Machine.ops_executed m))
    [
      ("bad_arity", "call @pair: arity mismatch");
      ("bad_intrinsic", "unknown intrinsic sqrt or bad arity");
    ]

let offload_program () =
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
  (* mark bump offloaded by hand; sites are numbered in builder order
     (oacc=0, oarr=1) *)
  let bump = Ir.find_func prog "bump" in
  let bump = { bump with Ir.f_offloaded = true; f_offload_sites = [ 1 ] } in
  { prog with
    Ir.p_funcs =
      List.map (fun (name, f) -> (name, if name = "bump" then bump else f))
        prog.Ir.p_funcs }

let test_offload_rpc () =
  (* An offloaded function must see flushed data and its writes must be
     visible to the caller afterwards. *)
  let prog = offload_program () in
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

(* Bit-for-bit oracle for the interpreter.  Each row is the dynamic op
   count, the result and the bits of the measured simulated time of one
   program on one memory system.  The figures were recorded with the
   per-op tree walker, before the interpreter compiled function bodies
   to closures; every simulated number must keep them exactly. *)
let pin_row name ms machine =
  let v, work_ns = Mira.Controller.measure_work ms machine in
  Printf.sprintf "%s: ops=%d result=%s work=%Lx" name (Machine.ops_executed machine)
    (Format.asprintf "%a" Value.pp v) (Int64.bits_of_float work_ns)

let interp_pin_rows () =
  let module C = Mira.Controller in
  let measured prog =
    Mira_passes.Instrument.run_only prog ~names:[ C.work_function prog ]
  in
  let native ?params () = Mira_baselines.Native.create ?params ~capacity:(1 lsl 22) () in
  let fastswap budget =
    Mira_baselines.Fastswap.create ~local_budget:budget ~far_capacity:(1 lsl 22) ()
  in
  let mira budget =
    Mira_runtime.Runtime.(
      memsys (create (config_default ~local_budget:budget ~far_capacity:(1 lsl 22))))
  in
  let on ?(nthreads = 1) name ms prog = pin_row name ms (Machine.create ~nthreads ms prog) in
  let optimized name prog ~budget =
    let compiled =
      C.optimize
        { (C.options_default ~local_budget:budget ~far_capacity:(1 lsl 22)) with
          C.max_iterations = 3 }
        prog
    in
    let rt, machine = C.instantiate compiled in
    pin_row name (Mira_runtime.Runtime.memsys rt) machine
  in
  let sum_cfg = { Mira_workloads.Micro_sum.config_default with elems = 3000 } in
  let sum = Mira_workloads.Micro_sum.build sum_cfg in
  let sum_budget = Mira_workloads.Micro_sum.far_bytes sum_cfg / 5 in
  let graph_cfg =
    { Mira_workloads.Graph_traversal.config_default with num_edges = 1500; num_nodes = 300 }
  in
  let graph = Mira_workloads.Graph_traversal.build graph_cfg in
  let graph_budget = Mira_workloads.Graph_traversal.far_bytes graph_cfg / 5 in
  let par = par_sum_program () and off = offload_program () in
  let gpt2_params = { Mira_sim.Params.default with Mira_sim.Params.native_op_ns = 0.05 } in
  [
    on "micro_sum/native" (native ()) (measured sum);
    on "micro_sum/native, 0.05 ns ops" (native ~params:gpt2_params ()) (measured sum);
    on "micro_sum/fastswap" (fastswap sum_budget) (measured sum);
    optimized "micro_sum/mira" sum ~budget:sum_budget;
    on "graph/native" (native ()) (measured graph);
    on "graph/fastswap" (fastswap graph_budget) (measured graph);
    optimized "graph/mira" graph ~budget:graph_budget;
    on ~nthreads:4 "parfor x4/native" (native ()) par;
    on ~nthreads:4 "parfor x4/fastswap" (fastswap 4096) par;
    on ~nthreads:4 "parfor x4/mira" (mira 4096) par;
    on "offload/native" (native ()) off;
    on "offload/fastswap" (fastswap 4096) off;
    on "offload/mira" (mira 4096) off;
  ]

let interp_pins =
  [
    "micro_sum/native: ops=24016 result=1500228 work=40e1978000000000";
    "micro_sum/native, 0.05 ns ops: ops=24016 result=1500228 work=40d27a56666659cd";
    "micro_sum/fastswap: ops=24016 result=1500228 work=40fd501851eb8519";
    "micro_sum/mira: ops=24016 result=1500228 work=40fd501851eb8519";
    "graph/native: ops=42919 result=1500 work=40eb1ba000000000";
    "graph/fastswap: ops=42919 result=1500 work=4187dde8d428f425";
    "graph/mira: ops=42919 result=1500 work=4103f8f9eb851eb4";
    "parfor x4/native: ops=12009 result=999000 work=40d2d10000000000";
    "parfor x4/fastswap: ops=12009 result=999000 work=417f8828b5c28e7f";
    "parfor x4/mira: ops=12009 result=999000 work=4176f63075c28ea5";
    "offload/native: ops=156 result=126 work=40c8892e147ae148";
    "offload/fastswap: ops=156 result=126 work=40e7939a3d70a3d8";
    "offload/mira: ops=156 result=126 work=40e7939a3d70a3d8";
  ]

let test_interp_pinned () =
  Alcotest.(check (list string)) "pinned" interp_pins (interp_pin_rows ())

let suite =
  [
    Alcotest.test_case "value roundtrip" `Quick test_value_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_ptr_bits;
    Alcotest.test_case "null pointer" `Quick test_null_pointer_is_zero;
    Alcotest.test_case "arithmetic" `Quick test_arith;
    QCheck_alcotest.to_alcotest qcheck_int_ops;
    QCheck_alcotest.to_alcotest qcheck_float_ops;
    QCheck_alcotest.to_alcotest qcheck_coercions;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "while loop" `Quick test_while_loop;
    Alcotest.test_case "calls" `Quick test_calls_and_args;
    Alcotest.test_case "struct fields" `Quick test_pointer_fields;
    Alcotest.test_case "stored pointers" `Quick test_stored_pointers;
    Alcotest.test_case "parfor thread-count invariant" `Quick
      test_parfor_result_independent_of_threads;
    Alcotest.test_case "parfor speedup" `Quick test_parfor_speedup;
    Alcotest.test_case "parfor partial last step" `Quick test_parfor_partial_last_step;
    Alcotest.test_case "call errors at the call" `Quick test_call_errors_at_the_call;
    Alcotest.test_case "offload rpc" `Quick test_offload_rpc;
    Alcotest.test_case "intrinsics" `Quick test_intrinsics;
    Alcotest.test_case "rand deterministic" `Quick test_rand_deterministic;
    Alcotest.test_case "pinned simulated figures" `Quick test_interp_pinned;
  ]
