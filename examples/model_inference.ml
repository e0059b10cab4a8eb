(* Transformer inference with layer-by-layer weight lifetimes (the
   paper's GPT-2 study).  The point of this example is visibility: it
   prints the lifetime phases Mira's analysis derives for each layer's
   weights, and the eviction hints that release a layer's section space
   as soon as its computation finishes.

   Run with:  dune exec examples/model_inference.exe *)

module Gpt = Mira_workloads.Gpt2
module C = Mira.Controller
module Ir = Mira_mir.Ir
module Lifetime = Mira_analysis.Lifetime
module Pattern = Mira_analysis.Pattern
module Machine = Mira_interp.Machine

let () =
  let cfg = { Gpt.config_default with Gpt.layers = 4; d_model = 16; seq = 8 } in
  let prog = Gpt.build cfg in
  let far_bytes = Gpt.far_bytes cfg in
  Printf.printf
    "GPT-2-style model: %d layers, d=%d, seq=%d (%d KB of weights+KV)\n\n"
    cfg.Gpt.layers cfg.Gpt.d_model cfg.Gpt.seq (far_bytes / 1024);

  (* 1. what the lifetime analysis sees in the forward pass *)
  let work = Ir.find_func prog "work" in
  let result = Pattern.analyze (Mira_analysis.Remotable_flow.build prog) work in
  Printf.printf "the forward pass has %d phases (top-level loop nests)\n"
    (Lifetime.phases_count result);
  Printf.printf "weight lifetimes by allocation site:\n";
  List.iter
    (fun (site, iv) ->
      match Ir.find_site prog site with
      | info ->
        let name = info.Ir.si_name in
        if String.length name > 1 && name.[0] = 'w' then
          Printf.printf "  %-10s phases %d..%d\n" name iv.Lifetime.first_phase
            iv.Lifetime.last_phase
      | exception Not_found -> ())
    (Lifetime.site_phases result);

  (* 2. run it out of far memory, small local budget *)
  let far_capacity = 4 * far_bytes in
  let budget = max (12 * 4096) (far_bytes / 4) in
  let params = Gpt.params in
  let measured = Mira_passes.Instrument.run_only prog ~names:[ "work" ] in
  let time name ms =
    let machine = Machine.create ~seed:3 ms measured in
    let _, ns = C.measure_work ms machine in
    Printf.printf "  %-9s %8.3f ms\n%!" name (ns /. 1e6);
    ns
  in
  Printf.printf "\nrunning at %d%% local memory:\n" (100 * budget / far_bytes);
  let native =
    time "native" (Mira_baselines.Native.create ~params ~capacity:far_capacity ())
  in
  ignore
    (time "fastswap"
       (Mira_baselines.Fastswap.create ~params ~local_budget:budget ~far_capacity ()));
  let opts =
    { (C.options_default ~local_budget:budget ~far_capacity) with
      C.params; max_iterations = 4 }
  in
  let compiled = C.optimize opts prog in
  let _, mira = C.run compiled in
  Printf.printf "  %-9s %8.3f ms  (%.2fx native)\n" "mira" (mira /. 1e6)
    (mira /. native)
