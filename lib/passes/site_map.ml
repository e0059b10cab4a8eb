module Ir = Mira_mir.Ir
module Types = Mira_mir.Types

type t = {
  sites : int array;
  chased_flags : bool array;
  geps : (Ir.operand * Ir.operand * Types.ty * int) option array;
}

let build ?(param_sites = []) program func =
  let n = max 1 func.Ir.f_nregs in
  let t =
    { sites = Array.make n (-1);
      chased_flags = Array.make n false;
      geps = Array.make n None }
  in
  let site_of_ty = Mira_analysis.Remotable_flow.site_of_ty program in
  let of_operand = function
    | Ir.Oreg r -> t.sites.(r)
    | Ir.Oint _ | Ir.Ofloat _ | Ir.Obool _ | Ir.Ounit -> -1
  in
  List.iter
    (fun (r, ty) ->
      match List.assoc_opt r param_sites with
      | Some s -> t.sites.(r) <- s
      | None ->
        (match ty with
        | Types.Ptr pointee ->
          t.sites.(r) <- (match site_of_ty pointee with Some s -> s | None -> -1)
        | Types.Unit | Types.Bool | Types.I64 | Types.F64 | Types.Struct _ -> ()))
    func.Ir.f_params;
  Ir.iter_ops
    (fun op ->
      match op with
      | Ir.Alloc { dst; site; _ } -> t.sites.(dst) <- site
      | Ir.Gep { dst; base; index; elem; field_off } ->
        t.sites.(dst) <- of_operand base;
        t.geps.(dst) <- Some (base, index, elem, field_off);
        (match base with
        | Ir.Oreg b -> t.chased_flags.(dst) <- t.chased_flags.(b)
        | Ir.Oint _ | Ir.Ofloat _ | Ir.Obool _ | Ir.Ounit -> ())
      | Ir.Mov (dst, src) ->
        t.sites.(dst) <- of_operand src;
        (match src with
        | Ir.Oreg s -> t.chased_flags.(dst) <- t.chased_flags.(s)
        | Ir.Oint _ | Ir.Ofloat _ | Ir.Obool _ | Ir.Ounit -> ())
      | Ir.Load { dst; ty = Types.Ptr pointee; _ } ->
        t.sites.(dst) <- (match site_of_ty pointee with Some s -> s | None -> -1);
        t.chased_flags.(dst) <- true
      | Ir.Load _ | Ir.Store _ | Ir.Bin _ | Ir.Fbin _ | Ir.Cmp _ | Ir.Fcmp _
      | Ir.Not _ | Ir.I2f _ | Ir.F2i _ | Ir.Free _ | Ir.Call _ | Ir.For _
      | Ir.ParFor _ | Ir.While _ | Ir.If _ | Ir.Ret _ | Ir.Prefetch _
      | Ir.FlushEvict _ | Ir.EvictSite _ | Ir.ProfEnter _ | Ir.ProfExit _ -> ())
    func.Ir.f_body;
  t

let site_of_operand t = function
  | Ir.Oreg r -> t.sites.(r)
  | Ir.Oint _ | Ir.Ofloat _ | Ir.Obool _ | Ir.Ounit -> -1

let gep_parts t r = t.geps.(r)
