module Ir = Mira_mir.Ir
module Pattern = Mira_analysis.Pattern

let defined_regs block =
  let defs = Hashtbl.create 32 in
  Ir.iter_ops
    (fun op ->
      let add r = Hashtbl.replace defs r () in
      match op with
      | Ir.Bin (r, _, _, _) | Ir.Fbin (r, _, _, _) | Ir.Cmp (r, _, _, _)
      | Ir.Fcmp (r, _, _, _) | Ir.Not (r, _) | Ir.I2f (r, _) | Ir.F2i (r, _)
      | Ir.Mov (r, _) ->
        add r
      | Ir.Alloc { dst; _ } | Ir.Gep { dst; _ } | Ir.Load { dst; _ }
      | Ir.Call { dst; _ } ->
        add dst
      | Ir.For { iv; _ } | Ir.ParFor { iv; _ } -> add iv
      | Ir.Store _ | Ir.Free _ | Ir.While _ | Ir.If _ | Ir.Ret _
      | Ir.Prefetch _ | Ir.FlushEvict _ | Ir.EvictSite _ | Ir.ProfEnter _
      | Ir.ProfExit _ ->
        ())
    block;
  defs

let operand_defined_in defs = function
  | Ir.Oreg r -> Hashtbl.mem defs r
  | Ir.Oint _ | Ir.Ofloat _ | Ir.Obool _ | Ir.Ounit -> false

let remote_meta site = { Ir.am_site = site; am_remote = true; am_native = false }

type hint = Prefetch_ahead of int64 | Flush_behind of int

let guarded_hint ~fresh hint ~at ~bound ~(g : Pattern.simple_gep) ~line =
  let d = fresh () in
  let c = fresh () in
  let p = fresh () in
  let ptr = Ir.Oreg p and meta = remote_meta g.Pattern.g_site in
  let index, cmp, op =
    match hint with
    | Prefetch_ahead k ->
      (Ir.Bin (d, Ir.Add, at, Ir.Oint k), Ir.Lt, Ir.Prefetch { ptr; len = line; meta })
    | Flush_behind k ->
      ( Ir.Bin (d, Ir.Sub, at, Ir.Oint (Int64.of_int k)),
        Ir.Ge,
        Ir.FlushEvict { ptr; len = line; meta } )
  in
  [
    index;
    Ir.Cmp (c, cmp, Ir.Oreg d, bound);
    Ir.If
      {
        cond = Ir.Oreg c;
        then_ =
          [
            Ir.Gep
              { dst = p; base = g.Pattern.g_base; index = Ir.Oreg d; elem = g.Pattern.g_elem;
                field_off = 0 };
            op;
          ];
        else_ = [];
      };
  ]
