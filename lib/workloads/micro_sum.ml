module Ir = Mira_mir.Ir
module B = Mira_mir.Builder
module T = Mira_mir.Types

type config = { elems : int; stride : int; seed : int }

let config_default = { elems = 200_000; stride = 1; seed = 17 }

let far_bytes cfg = 8 * cfg.elems

let build cfg =
  if cfg.stride < 1 then
    invalid_arg (Printf.sprintf "Micro_sum.build: stride must be >= 1 (got %d)" cfg.stride);
  let b = B.program "micro_sum" in
  let n = B.iconst cfg.elems in
  B.func b "init" [ ("a", T.Ptr T.I64) ] T.Unit (fun fb args ->
      match args with
      | [ a ] ->
        B.for_ fb ~lo:(B.iconst 0) ~hi:n (fun i ->
            let p = B.gep fb ~base:a ~index:i ~elem:T.I64 () in
            B.store fb T.I64 ~ptr:p ~value:(B.bin fb Ir.Land i (B.iconst 1023)))
      | _ -> assert false);
  B.func b "work" [ ("a", T.Ptr T.I64); ("out", T.Ptr T.I64) ] T.Unit
    (fun fb args ->
      match args with
      | [ a; out ] ->
        let acc, _ = B.alloc fb ~name:"sum_acc" ~space:Ir.Stack T.I64 (B.iconst 1) in
        B.store fb T.I64 ~ptr:acc ~value:(B.iconst 0);
        B.for_ fb ~lo:(B.iconst 0) ~hi:n ~step:(B.iconst cfg.stride) (fun i ->
            let p = B.gep fb ~base:a ~index:i ~elem:T.I64 () in
            let v = B.load fb T.I64 p in
            let s = B.load fb T.I64 acc in
            B.store fb T.I64 ~ptr:acc ~value:(B.bin fb Ir.Add s v));
        let s = B.load fb T.I64 acc in
        B.store fb T.I64 ~ptr:out ~value:s
      | _ -> assert false);
  B.func b "main" [] T.I64 (fun fb _ ->
      let a, _ = B.alloc fb ~name:"array" T.I64 n in
      let out, _ = B.alloc fb ~name:"out" T.I64 (B.iconst 1) in
      ignore (B.call fb "init" [ a ]);
      ignore (B.call fb "work" [ a; out ]);
      let v = B.load fb T.I64 out in
      B.ret fb v);
  B.finish b ~entry:"main"
