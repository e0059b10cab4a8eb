module Ir = Mira_mir.Ir
module Types = Mira_mir.Types
module Flow = Mira_analysis.Remotable_flow

(* Key identifying "the same element": the gep's base and index
   operands.  Two geps with equal base+index but different field
   offsets address the same element, hence (line permitting) the same
   cache line. *)
type key = Ir.operand * Ir.operand

let mark_block facts line_of (f : Ir.func) =
  let regs = Flow.regs facts f in
  let elem_fits site elem_bytes =
    match line_of site with Some line -> elem_bytes <= line | None -> false
  in
  (* Whether a remote access through [r] repeats an element already
     dereferenced in [seen]; a first one is recorded there. *)
  let repeat seen meta r =
    meta.Ir.am_remote
    &&
    match Flow.gep_parts regs r with
    | Some (base, index, elem, _field) when elem_fits meta.Ir.am_site (Types.size_of elem) ->
      let key = (base, index) in
      Hashtbl.mem seen key || (Hashtbl.replace seen key (); false)
    | Some _ | None -> false
  in
  (* Walk one block linearly, tracking the elements already dereferenced
     in this block instance.  Nested loops/whiles start fresh scopes
     (their bodies re-execute); ifs inherit a copy (branches execute at
     most once within the instance, but marking inside a branch based on
     a leader outside it is sound since the leader dominates). *)
  let rec go (seen : (key, unit) Hashtbl.t) block =
    List.map (go_op seen) block
  and go_op seen op =
    match op with
    | Ir.Load ({ ptr = Ir.Oreg r; meta; _ } as l) when repeat seen meta r ->
      Ir.Load { l with meta = { meta with Ir.am_native = true } }
    | Ir.Store ({ ptr = Ir.Oreg r; meta; _ } as s) when repeat seen meta r ->
      Ir.Store { s with meta = { meta with Ir.am_native = true } }
    | Ir.For fo -> Ir.For { fo with body = go (Hashtbl.create 8) fo.body }
    | Ir.ParFor fo -> Ir.ParFor { fo with body = go (Hashtbl.create 8) fo.body }
    | Ir.While w ->
      Ir.While
        { w with
          cond = go (Hashtbl.create 8) w.cond;
          body = go (Hashtbl.create 8) w.body }
    | Ir.If i ->
      Ir.If
        { i with
          then_ = go (Hashtbl.copy seen) i.then_;
          else_ = go (Hashtbl.copy seen) i.else_ }
    | Ir.Load _ | Ir.Store _ | Ir.Bin _ | Ir.Fbin _ | Ir.Cmp _ | Ir.Fcmp _
    | Ir.Not _ | Ir.I2f _ | Ir.F2i _ | Ir.Mov _ | Ir.Alloc _ | Ir.Free _
    | Ir.Gep _ | Ir.Call _ | Ir.Ret _ | Ir.Prefetch _ | Ir.FlushEvict _
    | Ir.EvictSite _ | Ir.ProfEnter _ | Ir.ProfExit _ ->
      op
  in
  { f with Ir.f_body = go (Hashtbl.create 8) f.Ir.f_body }

let run facts program ~line_of =
  {
    program with
    Ir.p_funcs = List.map (fun (name, f) -> (name, mark_block facts line_of f)) program.Ir.p_funcs;
  }
