module Ir = Mira_mir.Ir
module Offload = Mira_analysis.Offload_analysis

let mark_remotable program =
  let remotable = Mira_analysis.Remotable_flow.remotable_functions program in
  {
    program with
    Ir.p_funcs =
      List.map
        (fun (name, f) ->
          (name, { f with Ir.f_remotable = List.mem name remotable }))
        program.Ir.p_funcs;
  }

let run program ~params =
  let program = mark_remotable program in
  let scores = Offload.analyze program ~params () in
  let chosen =
    List.filter_map
      (fun s -> if Offload.should_offload s then Some s.Offload.o_name else None)
      scores
  in
  let sites_of name =
    match List.find_opt (fun s -> String.equal s.Offload.o_name name) scores with
    | Some s -> s.Offload.o_sites
    | None -> []
  in
  {
    program with
    Ir.p_funcs =
      List.map
        (fun (name, f) ->
          if List.mem name chosen && f.Ir.f_remotable then
            (name, { f with Ir.f_offloaded = true; f_offload_sites = sites_of name })
          else (name, f))
        program.Ir.p_funcs;
  }
