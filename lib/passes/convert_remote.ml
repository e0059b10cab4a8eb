module Ir = Mira_mir.Ir
module Flow = Mira_analysis.Remotable_flow

let convert_func facts selected (f : Ir.func) =
  let regs = Flow.regs facts f in
  let meta_for ptr (old : Ir.access_meta) =
    let site = Flow.site_of_operand regs ptr in
    if site >= 0 && List.mem site selected then
      { old with Ir.am_site = site; am_remote = true }
    else old
  in
  let body =
    Ir.map_ops
      (fun op ->
        match op with
        | Ir.Load ({ ptr; meta; _ } as l) -> Ir.Load { l with meta = meta_for ptr meta }
        | Ir.Store ({ ptr; meta; _ } as s) -> Ir.Store { s with meta = meta_for ptr meta }
        | Ir.Bin _ | Ir.Fbin _ | Ir.Cmp _ | Ir.Fcmp _ | Ir.Not _ | Ir.I2f _
        | Ir.F2i _ | Ir.Mov _ | Ir.Alloc _ | Ir.Free _ | Ir.Gep _ | Ir.Call _
        | Ir.For _ | Ir.ParFor _ | Ir.While _ | Ir.If _ | Ir.Ret _
        | Ir.Prefetch _ | Ir.FlushEvict _ | Ir.EvictSite _ | Ir.ProfEnter _
        | Ir.ProfExit _ ->
          op)
      f.Ir.f_body
  in
  { f with Ir.f_body = body }

let run facts program ~selected =
  {
    program with
    Ir.p_funcs =
      List.map (fun (name, f) -> (name, convert_func facts selected f)) program.Ir.p_funcs;
  }
