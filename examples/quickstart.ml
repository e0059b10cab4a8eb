(* Quickstart: write a program against the IR, run it out of far memory
   on a generic swap cache, then let Mira's iterative controller analyze
   and recompile it — and look at what changed.

   Run with:  dune exec examples/quickstart.exe *)

module B = Mira_mir.Builder
module T = Mira_mir.Types
module Ir = Mira_mir.Ir
module C = Mira.Controller
module Machine = Mira_interp.Machine

(* The paper's introduction example: for (i...) B[A[i]]++ — an indirect
   access pattern no history-based prefetcher can predict, but program
   analysis reads off directly. *)
let build ~n ~buckets =
  let b = B.program "histogram" in
  B.func b "init" [ ("a", T.Ptr T.I64); ("h", T.Ptr T.I64) ] T.Unit
    (fun fb args ->
      match args with
      | [ a; h ] ->
        B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst n) (fun i ->
            let v = B.call fb "rand_int" [ B.iconst buckets ] in
            let p = B.gep fb ~base:a ~index:i ~elem:T.I64 () in
            B.store fb T.I64 ~ptr:p ~value:v);
        B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst buckets) (fun i ->
            let p = B.gep fb ~base:h ~index:i ~elem:T.I64 () in
            B.store fb T.I64 ~ptr:p ~value:(B.iconst 0))
      | _ -> assert false);
  B.func b "work" [ ("a", T.Ptr T.I64); ("h", T.Ptr T.I64) ] T.Unit
    (fun fb args ->
      match args with
      | [ a; h ] ->
        B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst n) (fun i ->
            let p = B.gep fb ~base:a ~index:i ~elem:T.I64 () in
            let v = B.load fb T.I64 p in
            let q = B.gep fb ~base:h ~index:v ~elem:T.I64 () in
            let c = B.load fb T.I64 q in
            B.store fb T.I64 ~ptr:q ~value:(B.bin fb Ir.Add c (B.iconst 1)))
      | _ -> assert false);
  B.func b "main" [] T.I64 (fun fb _ ->
      let a, _ = B.alloc fb ~name:"input" T.I64 (B.iconst n) in
      let h, _ = B.alloc fb ~name:"histogram" T.I64 (B.iconst buckets) in
      ignore (B.call fb "init" [ a; h ]);
      ignore (B.call fb "work" [ a; h ]);
      (* checksum: h[0] + h[buckets/2] *)
      let p0 = B.gep fb ~base:h ~index:(B.iconst 0) ~elem:T.I64 () in
      let v0 = B.load fb T.I64 p0 in
      let p1 = B.gep fb ~base:h ~index:(B.iconst (buckets / 2)) ~elem:T.I64 () in
      let v1 = B.load fb T.I64 p1 in
      B.ret fb (B.bin fb Ir.Add v0 v1));
  B.finish b ~entry:"main"

let () =
  let n = 60_000 and buckets = 20_000 in
  let prog = build ~n ~buckets in
  let far_bytes = 8 * (n + buckets) in
  let far_capacity = 4 * far_bytes in
  let budget = far_bytes / 5 in
  Printf.printf "histogram over %d far-memory elements, local memory = 20%%\n\n" n;

  (* 1. native (everything local) for reference *)
  let native = Mira_baselines.Native.create ~capacity:far_capacity () in
  let nm = Machine.create ~seed:42 native prog in
  let expected, native_ns = C.measure_work native nm in
  Printf.printf "native     : %8.3f ms  result=%s\n" (native_ns /. 1e6)
    (Format.asprintf "%a" Mira_interp.Value.pp expected);

  (* 2. generic swap (what you get with no program knowledge) *)
  let swap =
    Mira_runtime.Runtime.(
      memsys (create (config_default ~local_budget:budget ~far_capacity)))
  in
  let sm = Machine.create ~seed:42 swap prog in
  let v1, swap_ns = C.measure_work swap sm in
  assert (Mira_interp.Value.equal v1 expected);
  Printf.printf "swap cache : %8.3f ms  (%.1fx native)\n" (swap_ns /. 1e6)
    (swap_ns /. native_ns);

  (* 3. Mira: profile, analyze, configure sections, recompile *)
  let opts =
    { (C.options_default ~local_budget:budget ~far_capacity) with
      C.max_iterations = 4 }
  in
  let compiled = C.optimize opts prog in
  let v2, mira_ns = C.run compiled in
  assert (Mira_interp.Value.equal v2 expected);
  Printf.printf "mira       : %8.3f ms  (%.1fx native, %.1fx over swap)\n\n"
    (mira_ns /. 1e6) (mira_ns /. native_ns) (swap_ns /. mira_ns);

  Printf.printf "what the controller decided:\n";
  List.iter
    (fun line -> Printf.printf "  %s\n" line)
    (List.map Mira_telemetry.Decision.render compiled.C.c_log);

  Printf.printf "\nthe compiled work function (rmem dialect):\n\n%s\n"
    (Mira_mir.Printer.func_to_string (Ir.find_func compiled.C.c_program "work"))
