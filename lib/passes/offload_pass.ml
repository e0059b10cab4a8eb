module Ir = Mira_mir.Ir
module Offload = Mira_analysis.Offload_analysis

let run facts program ~params =
  let scores = Offload.analyze facts program ~params in
  {
    program with
    Ir.p_funcs =
      List.map
        (fun (name, f) ->
          match List.find_opt (fun s -> String.equal s.Offload.o_name name) scores with
          | Some s when Offload.should_offload s ->
            ( name,
              { f with Ir.f_remotable = true; f_offloaded = true;
                       f_offload_sites = s.Offload.o_sites } )
          | Some _ -> (name, { f with Ir.f_remotable = true })
          | None -> (name, { f with Ir.f_remotable = false }))
        program.Ir.p_funcs;
  }
