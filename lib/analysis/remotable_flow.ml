module Ir = Mira_mir.Ir
module Types = Mira_mir.Types

type t = {
  heap : int list;
  counts : (int, int64 option) Hashtbl.t;
  types : (Types.ty * int option) list;  (* element type -> its only heap site *)
  bindings : (string, (Ir.reg * int) list) Hashtbl.t;
  calls : (string, string list) Hashtbl.t;
}

let heap_sites t = t.heap
let site_count t site = Option.join (Hashtbl.find_opt t.counts site)

let site_of_ty t ty =
  List.find_map (fun (e, s) -> if Types.equal e ty then Some s else None) t.types
  |> Option.join

let param_sites t name = Option.value ~default:[] (Hashtbl.find_opt t.bindings name)
let callees t name = Option.value ~default:[] (Hashtbl.find_opt t.calls name)

type regs = {
  sites : int array;
  geps : (Ir.operand * Ir.operand * Types.ty * int) option array;
}

let site_of_operand r = function
  | Ir.Oreg x -> r.sites.(x)
  | Ir.Oint _ | Ir.Ofloat _ | Ir.Obool _ | Ir.Ounit -> -1

let gep_parts r x = r.geps.(x)

let regs t (f : Ir.func) =
  let n = max 1 f.Ir.f_nregs in
  let r = { sites = Array.make n (-1); geps = Array.make n None } in
  let of_ty ty = Option.value ~default:(-1) (site_of_ty t ty) in
  let bound = param_sites t f.Ir.f_name in
  List.iter
    (fun (x, ty) ->
      match (List.assoc_opt x bound, ty) with
      | Some s, _ -> r.sites.(x) <- s
      | None, Types.Ptr pointee -> r.sites.(x) <- of_ty pointee
      | None, (Types.Unit | Types.Bool | Types.I64 | Types.F64 | Types.Struct _) -> ())
    f.Ir.f_params;
  Ir.iter_ops
    (fun op ->
      match op with
      | Ir.Alloc { dst; site; _ } -> r.sites.(dst) <- site
      | Ir.Gep { dst; base; index; elem; field_off } ->
        r.sites.(dst) <- site_of_operand r base;
        r.geps.(dst) <- Some (base, index, elem, field_off)
      | Ir.Mov (dst, src) -> r.sites.(dst) <- site_of_operand r src
      | Ir.Load { dst; ty = Types.Ptr pointee; _ } -> r.sites.(dst) <- of_ty pointee
      | Ir.Load _ | Ir.Store _ | Ir.Bin _ | Ir.Fbin _ | Ir.Cmp _ | Ir.Fcmp _
      | Ir.Not _ | Ir.I2f _ | Ir.F2i _ | Ir.Free _ | Ir.Call _ | Ir.For _
      | Ir.ParFor _ | Ir.While _ | Ir.If _ | Ir.Ret _ | Ir.Prefetch _
      | Ir.FlushEvict _ | Ir.EvictSite _ | Ir.ProfEnter _ | Ir.ProfExit _ -> ())
    f.Ir.f_body;
  r

(* Interprocedural parameter-site bindings: a callee parameter is bound
   to a site when every call site passes a pointer into that site;
   conflicting call sites make it unknown. *)
let bind_params t (program : Ir.program) =
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 4 do
    changed := false;
    incr rounds;
    List.iter
      (fun (_, caller) ->
        let r = regs t caller in
        Ir.iter_ops
          (fun op ->
            match op with
            | Ir.Call { callee; args; _ } ->
              (match List.assoc_opt callee program.Ir.p_funcs with
              | None -> ()
              | Some cf ->
                List.iteri
                  (fun i arg ->
                    match List.nth_opt cf.Ir.f_params i with
                    | Some (preg, Types.Ptr _) ->
                      let s = site_of_operand r arg in
                      let current = param_sites t callee in
                      let updated =
                        match List.assoc_opt preg current with
                        | None when s >= 0 -> Some ((preg, s) :: current)
                        | Some old when old <> s && old >= 0 ->
                          (* Conflicting callers: mark ambiguous. *)
                          Some ((preg, -1) :: List.remove_assoc preg current)
                        | None | Some _ -> None
                      in
                      (match updated with
                      | Some b ->
                        Hashtbl.replace t.bindings callee b;
                        changed := true
                      | None -> ())
                    | Some _ | None -> ())
                  args)
            | Ir.Bin _ | Ir.Fbin _ | Ir.Cmp _ | Ir.Fcmp _ | Ir.Not _ | Ir.I2f _
            | Ir.F2i _ | Ir.Mov _ | Ir.Alloc _ | Ir.Free _ | Ir.Gep _
            | Ir.Load _ | Ir.Store _ | Ir.For _ | Ir.ParFor _ | Ir.While _
            | Ir.If _ | Ir.Ret _ | Ir.Prefetch _ | Ir.FlushEvict _
            | Ir.EvictSite _ | Ir.ProfEnter _ | Ir.ProfExit _ ->
              ())
          caller.Ir.f_body)
      program.Ir.p_funcs
  done

let build (program : Ir.program) =
  let heap = Hashtbl.create 16 in
  let counts = Hashtbl.create 16 in
  let calls = Hashtbl.create 16 in
  List.iter
    (fun (name, f) ->
      let called =
        Ir.fold_ops
          (fun called op ->
            match op with
            | Ir.Alloc { site; space; count; _ } ->
              (match space with Ir.Heap -> Hashtbl.replace heap site () | Ir.Stack -> ());
              (match (count, Hashtbl.find_opt counts site) with
              | Ir.Oint n, Some (Some m) when m <> n -> Hashtbl.replace counts site None
              | Ir.Oint _, Some _ -> ()
              | Ir.Oint n, None -> Hashtbl.replace counts site (Some n)
              | (Ir.Oreg _ | Ir.Ofloat _ | Ir.Obool _ | Ir.Ounit), _ ->
                Hashtbl.replace counts site None);
              called
            | Ir.Call { callee; _ } -> callee :: called
            | Ir.Bin _ | Ir.Fbin _ | Ir.Cmp _ | Ir.Fcmp _ | Ir.Not _ | Ir.I2f _
            | Ir.F2i _ | Ir.Mov _ | Ir.Free _ | Ir.Gep _ | Ir.Load _ | Ir.Store _
            | Ir.For _ | Ir.ParFor _ | Ir.While _ | Ir.If _ | Ir.Ret _
            | Ir.Prefetch _ | Ir.FlushEvict _ | Ir.EvictSite _ | Ir.ProfEnter _
            | Ir.ProfExit _ ->
              called)
          [] f.Ir.f_body
      in
      Hashtbl.replace calls name (List.sort_uniq compare called))
    program.Ir.p_funcs;
  let types =
    List.fold_left
      (fun acc (s : Ir.site_info) ->
        if not (Hashtbl.mem heap s.Ir.si_id) then acc
        else if List.exists (fun (e, _) -> Types.equal e s.Ir.si_elem) acc then
          List.map
            (fun (e, site) -> if Types.equal e s.Ir.si_elem then (e, None) else (e, site))
            acc
        else (s.Ir.si_elem, Some s.Ir.si_id) :: acc)
      [] program.Ir.p_sites
  in
  let t =
    {
      heap = Hashtbl.fold (fun s () acc -> s :: acc) heap [] |> List.sort compare;
      counts;
      types;
      bindings = Hashtbl.create 16;
      calls;
    }
  in
  bind_params t program;
  t
