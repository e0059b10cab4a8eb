(* Tests for the IR: types, builder, printer, verifier. *)
module T = Mira_mir.Types
module Ir = Mira_mir.Ir
module B = Mira_mir.Builder
module Printer = Mira_mir.Printer
module Verifier = Mira_mir.Verifier

let edge_def =
  { T.s_name = "edge"; s_fields = [ ("from", T.I64); ("to", T.I64); ("w", T.F64) ] }

let test_type_sizes () =
  Alcotest.(check int) "i64" 8 (T.size_of T.I64);
  Alcotest.(check int) "f64" 8 (T.size_of T.F64);
  Alcotest.(check int) "ptr" 8 (T.size_of (T.Ptr T.I64));
  Alcotest.(check int) "unit" 0 (T.size_of T.Unit);
  Alcotest.(check int) "struct" 24 (T.size_of (T.Struct edge_def))

let test_field_offsets () =
  Alcotest.(check int) "from" 0 (T.field_offset edge_def "from");
  Alcotest.(check int) "to" 8 (T.field_offset edge_def "to");
  Alcotest.(check int) "w" 16 (T.field_offset edge_def "w");
  Alcotest.(check int) "index" 2 (T.field_index edge_def "w");
  Alcotest.(check bool) "missing" true
    (try
       ignore (T.field_offset edge_def "nope");
       false
     with Not_found -> true)

let test_type_equal_nominal () =
  let other = { T.s_name = "edge"; s_fields = [] } in
  Alcotest.(check bool) "nominal equal" true
    (T.equal (T.Struct edge_def) (T.Struct other));
  Alcotest.(check bool) "ptr equal" true
    (T.equal (T.Ptr T.I64) (T.Ptr T.I64));
  Alcotest.(check bool) "distinct" false (T.equal T.I64 T.F64)

let test_recursive_type_safe () =
  (* Nominal equality must terminate on recursive node types. *)
  let rec node =
    { T.s_name = "node"; s_fields = [ ("next", T.Ptr (T.Struct node)) ] }
  in
  Alcotest.(check bool) "self equal" true
    (T.equal (T.Struct node) (T.Struct node));
  Alcotest.(check int) "size" 8 (T.size_of (T.Struct node))

let simple_program () =
  let b = B.program "t" in
  B.func b "main" [] T.I64 (fun fb _ ->
      let arr, _ = B.alloc fb ~name:"arr" T.I64 (B.iconst 10) in
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst 10) (fun i ->
          let p = B.gep fb ~base:arr ~index:i ~elem:T.I64 () in
          B.store fb T.I64 ~ptr:p ~value:i);
      let p = B.gep fb ~base:arr ~index:(B.iconst 5) ~elem:T.I64 () in
      let v = B.load fb T.I64 p in
      B.ret fb v);
  B.finish b ~entry:"main"

let test_builder_verifies () =
  let p = simple_program () in
  match Verifier.verify p with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_builder_missing_entry () =
  let b = B.program "t" in
  B.func b "foo" [] T.Unit (fun _ _ -> ());
  Alcotest.(check bool) "missing entry" true
    (try
       ignore (B.finish b ~entry:"main");
       false
     with Invalid_argument _ -> true)

let test_builder_appends_ret () =
  let b = B.program "t" in
  B.func b "f" [] T.Unit (fun _ _ -> ());
  let p = B.finish b ~entry:"f" in
  let f = Ir.find_func p "f" in
  Alcotest.(check bool) "trailing ret" true
    (match List.rev f.Ir.f_body with Ir.Ret _ :: _ -> true | _ -> false)

let test_verifier_catches_use_before_def () =
  let bad =
    {
      Ir.f_name = "bad";
      f_params = [];
      f_ret = T.I64;
      f_body = [ Ir.Bin (1, Ir.Add, Ir.Oreg 0, Ir.Oint 1L); Ir.Ret (Ir.Oreg 1) ];
      f_nregs = 2;
      f_remotable = false;
      f_offloaded = false;
      f_offload_sites = [];
    }
  in
  let p = { Ir.p_name = "t"; p_funcs = [ ("bad", bad) ]; p_entry = "bad"; p_sites = [] } in
  match Verifier.verify p with
  | Ok () -> Alcotest.fail "should reject use before def"
  | Error es ->
    Alcotest.(check bool) "mentions %0" true
      (List.exists (fun e -> String.length e > 0) es)

let test_verifier_catches_double_def () =
  let bad =
    {
      Ir.f_name = "bad";
      f_params = [];
      f_ret = T.I64;
      f_body =
        [
          Ir.Mov (0, Ir.Oint 1L);
          Ir.Mov (0, Ir.Oint 2L);
          Ir.Ret (Ir.Oreg 0);
        ];
      f_nregs = 1;
      f_remotable = false;
      f_offloaded = false;
      f_offload_sites = [];
    }
  in
  let p = { Ir.p_name = "t"; p_funcs = [ ("bad", bad) ]; p_entry = "bad"; p_sites = [] } in
  Alcotest.(check bool) "double assignment rejected" true
    (Result.is_error (Verifier.verify p))

let test_verifier_scope_leak () =
  (* A register defined inside a loop body must not be usable after it. *)
  let bad =
    {
      Ir.f_name = "bad";
      f_params = [];
      f_ret = T.I64;
      f_body =
        [
          Ir.For
            { iv = 0; lo = Ir.Oint 0L; hi = Ir.Oint 4L; step = Ir.Oint 1L;
              body = [ Ir.Mov (1, Ir.Oreg 0) ] };
          Ir.Ret (Ir.Oreg 1);
        ];
      f_nregs = 2;
      f_remotable = false;
      f_offloaded = false;
      f_offload_sites = [];
    }
  in
  let p = { Ir.p_name = "t"; p_funcs = [ ("bad", bad) ]; p_entry = "bad"; p_sites = [] } in
  Alcotest.(check bool) "scope leak rejected" true
    (Result.is_error (Verifier.verify p))

let test_verifier_bad_callee () =
  let b = B.program "t" in
  B.func b "main" [] T.I64 (fun fb _ ->
      let v = B.call fb "nonexistent" [] in
      B.ret fb v);
  let p = B.finish b ~entry:"main" in
  Alcotest.(check bool) "bad callee rejected" true
    (Result.is_error (Verifier.verify p))

let test_verifier_intrinsics_ok () =
  let b = B.program "t" in
  B.func b "main" [] T.I64 (fun fb _ ->
      let v = B.call fb "rand_int" [ B.iconst 10 ] in
      B.ret fb v);
  let p = B.finish b ~entry:"main" in
  Alcotest.(check bool) "intrinsic accepted" true (Result.is_ok (Verifier.verify p))

let test_verifier_bad_step () =
  let b = B.program "t" in
  B.func b "main" [] T.Unit (fun fb _ ->
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst 4) ~step:(Ir.Oint 0L) (fun _ -> ()));
  let p = B.finish b ~entry:"main" in
  Alcotest.(check bool) "zero step rejected" true
    (Result.is_error (Verifier.verify p))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_printer_output () =
  let p = simple_program () in
  let s = Printer.program_to_string p in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) (Printf.sprintf "contains %s" fragment) true
        (contains s fragment))
    [ "module @t"; "remotable.alloc"; "scf.for"; "memref.gep"; "func.return" ]

let test_map_and_count () =
  let p = simple_program () in
  let f = Ir.find_func p "main" in
  let n = Ir.op_count f.Ir.f_body in
  Alcotest.(check bool) "has ops" true (n > 5);
  (* identity map preserves structure *)
  Alcotest.(check int) "identity map" n
    (Ir.op_count (Ir.map_ops (fun op -> op) f.Ir.f_body));
  (* expand to double every Mov *)
  let doubled =
    Ir.expand_ops
      (fun op -> match op with Ir.Mov _ -> [ op; op ] | _ -> [ op ])
      f.Ir.f_body
  in
  Alcotest.(check bool) "expand" true (Ir.op_count doubled >= n)

let suite =
  [
    Alcotest.test_case "type sizes" `Quick test_type_sizes;
    Alcotest.test_case "field offsets" `Quick test_field_offsets;
    Alcotest.test_case "nominal equality" `Quick test_type_equal_nominal;
    Alcotest.test_case "recursive types" `Quick test_recursive_type_safe;
    Alcotest.test_case "builder verifies" `Quick test_builder_verifies;
    Alcotest.test_case "builder missing entry" `Quick test_builder_missing_entry;
    Alcotest.test_case "builder appends ret" `Quick test_builder_appends_ret;
    Alcotest.test_case "verifier use-before-def" `Quick test_verifier_catches_use_before_def;
    Alcotest.test_case "verifier double def" `Quick test_verifier_catches_double_def;
    Alcotest.test_case "verifier scope leak" `Quick test_verifier_scope_leak;
    Alcotest.test_case "verifier bad callee" `Quick test_verifier_bad_callee;
    Alcotest.test_case "verifier intrinsics" `Quick test_verifier_intrinsics_ok;
    Alcotest.test_case "verifier bad step" `Quick test_verifier_bad_step;
    Alcotest.test_case "printer output" `Quick test_printer_output;
    Alcotest.test_case "map/expand/count" `Quick test_map_and_count;
  ]
