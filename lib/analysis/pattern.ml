module Ir = Mira_mir.Ir
module Types = Mira_mir.Types
module Flow = Remotable_flow

type gep_shape =
  | Idx_iv
  | Idx_iv_plus of int64
  | Idx_affine of { c0 : int64; terms : (int * int64) list }
  | Idx_loaded of simple_gep
  | Idx_const of int64
  | Idx_other

and simple_gep = {
  g_base : Ir.operand;
  g_elem : Types.ty;
  g_field : int;
  g_site : int;
  g_index : gep_shape;
}

type access = {
  a_site : int;
  a_rw : [ `R | `W ];
  a_ty : Types.ty;
  a_elem : int;
  a_field : int;
  a_stride : int64 option;
  a_indirect_via : int option;
  a_pointer_chase : bool;
  a_gep : simple_gep option;
  a_ptr : Ir.operand;
  a_meta : Ir.access_meta;
  a_own : bool;
}

type loop_info = {
  l_iv : Ir.reg;
  l_depth : int;
  l_parallel : bool;
  l_lo : Ir.operand;
  l_hi : Ir.operand;
  l_trip : int option;
  l_body_ops : int;
  l_straight : bool;
  l_accesses : access list;
  l_children : loop_info list;
}

type kind =
  | Sequential of int
  | Strided of int
  | Indirect of int
  | Pointer_chase
  | Random

type site_summary = {
  ss_site : int;
  ss_kind : kind;
  ss_reads : int;
  ss_writes : int;
  ss_fields : (int * int) list option;
  ss_elem : int;
  ss_read_only : bool;
  ss_write_only : bool;
}

type result = {
  r_loops : loop_info list;
  r_summaries : site_summary list;
  r_sites : int list;
  r_unresolved : int;
}

(* --- walker environment -------------------------------------------------- *)

type ptr_info = {
  p_off : Scev.t;  (* byte offset within the object, if affine *)
  p_loaded_at : int;
      (* depth of the load that gave the base pointer, -1 if not loaded;
         a loop this deep or deeper sees one base *)
  p_indirect : int option;  (* index values loaded from this site *)
  p_elem : int;  (* element size of the producing gep (bytes) *)
  p_field : int;  (* field offset within the element; -1 = unknown *)
  p_gep : simple_gep option;  (* reconstructible shape *)
}

type binding =
  | Bnone
  | Bsym of { sym : Scev.t; from_gep : simple_gep option }
  | Bptr of ptr_info

type ctx = {
  regs : Flow.regs;  (* every register's site *)
  env : binding array;
  mutable all_accesses : access list;
  mutable unresolved : int;
  mutable loop : (int * Scev.t * Ir.reg) option;  (* innermost For: (depth, iv sym, iv) *)
  mutable depth : int;  (* loop depth including While bodies *)
  mutable top : bool;  (* in a loop body's own ops, not in an If or a While *)
  mutable straight : bool;  (* no call or While seen in the current loop body *)
  iv_plus : Ir.reg array;  (* [iv] for [iv], [iv + literals] and a gep's pointer there, all made in its loop's own ops; -1 else *)
}

let operand_sym ctx = function
  | Ir.Oint i -> Scev.const i
  | Ir.Obool b -> Scev.const (if b then 1L else 0L)
  | Ir.Ofloat _ | Ir.Ounit -> Scev.Unknown
  | Ir.Oreg r ->
    (match ctx.env.(r) with
    | Bsym { sym; _ } -> sym
    | Bptr _ | Bnone -> Scev.Unknown)

let operand_binding ctx = function
  | Ir.Oreg r -> ctx.env.(r)
  | (Ir.Oint _ | Ir.Ofloat _ | Ir.Obool _ | Ir.Ounit) as o ->
    Bsym { sym = operand_sym ctx o; from_gep = None }

let index_shape ctx index =
  let sym = operand_sym ctx index in
  match Scev.const_value sym with
  | Some c -> Idx_const c
  | None ->
    (match ctx.loop with
    | None ->
      (match operand_binding ctx index with
      | Bsym { from_gep = Some g; _ } -> Idx_loaded g
      | Bsym _ | Bptr _ | Bnone -> Idx_other)
    | Some (_, iv_sym, _) ->
      if Scev.equal sym iv_sym then Idx_iv
      else begin
        match Scev.const_value (Scev.sub sym iv_sym) with
        | Some c -> Idx_iv_plus c
        | None ->
          (match operand_binding ctx index with
          | Bsym { from_gep = Some g; _ } -> Idx_loaded g
          | Bsym _ | Bptr _ | Bnone ->
            (match sym with
            | Scev.Affine { c0; terms } when terms <> [] -> Idx_affine { c0; terms }
            | Scev.Affine _ | Scev.Loaded _ | Scev.Unknown -> Idx_other))
      end)

(* A pointer to the start of an element of [elem]; a loaded one is
   loaded at depth [loaded_at]. *)
let elem_ptr ?(loaded_at = -1) elem =
  Bptr
    { p_off = Scev.const 0L; p_loaded_at = loaded_at; p_indirect = None;
      p_elem = Types.size_of elem; p_field = 0; p_gep = None }

let access_of ctx ~site ~rw ~ty ~ptr ~meta (p : ptr_info) =
  (* Offsets are relative to the base, so they give a stride only
     where the base is one: not in a loop that loads it anew. *)
  let stride =
    match ctx.loop with
    | Some (depth, _, _) when p.p_loaded_at <= depth ->
      Scev.innermost_stride p.p_off ~depth
    | Some _ | None -> None
  in
  {
    a_site = site;
    a_rw = rw;
    a_ty = ty;
    a_elem = p.p_elem;
    a_field = p.p_field;
    a_stride = stride;
    a_indirect_via = p.p_indirect;
    a_pointer_chase = p.p_loaded_at >= 0;
    a_gep = p.p_gep;
    a_ptr = ptr;
    a_meta = meta;
    a_own =
      (match (ctx.loop, ptr) with
      | Some (_, _, iv), Ir.Oreg p -> ctx.top && ctx.iv_plus.(p) = iv
      | (Some _ | None), _ -> false);
  }

(* The access through [ptr], recorded when its site resolves. *)
let record ctx ~rw ~ty ~ptr ~meta =
  match (Flow.site_of_operand ctx.regs ptr, operand_binding ctx ptr) with
  | site, Bptr p when site >= 0 ->
    let acc = access_of ctx ~site ~rw ~ty ~ptr ~meta p in
    ctx.all_accesses <- acc :: ctx.all_accesses;
    Some acc
  | _, (Bptr _ | Bsym _ | Bnone) ->
    ctx.unresolved <- ctx.unresolved + 1;
    None

(* [r] is [iv] plus literals (or a gep's pointer at that index) when
   [x] is and the op sits in the current loop's own ops. *)
let follow ctx r x =
  match ctx.loop with
  | Some (_, _, iv) when ctx.top && ctx.iv_plus.(x) = iv -> ctx.iv_plus.(r) <- iv
  | Some _ | None -> ()

(* --- the walk ------------------------------------------------------------ *)

(* Returns the accesses recorded in the direct body (not nested loops)
   and the loop subtree found in the block. *)
let rec walk_block ctx block : access list * loop_info list =
  List.fold_left
    (fun (accs, loops) op ->
      let a, l = walk_op ctx op in
      (accs @ a, loops @ l))
    ([], []) block

and walk_op ctx op : access list * loop_info list =
  match op with
  | Ir.Bin (r, o, a, b) ->
    let sa = operand_sym ctx a and sb = operand_sym ctx b in
    let sym =
      match o with
      | Ir.Add -> Scev.add sa sb
      | Ir.Sub -> Scev.sub sa sb
      | Ir.Mul -> Scev.mul sa sb
      | Ir.Div | Ir.Rem | Ir.Land | Ir.Lor | Ir.Lxor | Ir.Shl | Ir.Shr ->
        Scev.Unknown
    in
    (* Preserve indirection provenance through simple arithmetic: if one
       operand was loaded from a site and the other is constant, the
       result still indexes "via" that site. *)
    let from_gep =
      match (operand_binding ctx a, operand_binding ctx b) with
      | Bsym { from_gep = Some g; _ }, Bsym { sym = s; _ }
        when Scev.const_value s <> None ->
        Some g
      | Bsym { sym = s; _ }, Bsym { from_gep = Some g; _ }
        when Scev.const_value s <> None ->
        Some g
      | _, _ -> None
    in
    set ctx r (Bsym { sym; from_gep });
    (match (o, a, b) with
    | (Ir.Add | Ir.Sub), Ir.Oreg x, Ir.Oint _ | Ir.Add, Ir.Oint _, Ir.Oreg x -> follow ctx r x
    | _, _, _ -> ());
    ([], [])
  | Ir.Fbin (r, _, _, _) | Ir.Fcmp (r, _, _, _) | Ir.I2f (r, _) ->
    set_sym ctx r Scev.Unknown;
    ([], [])
  | Ir.Cmp (r, _, _, _) | Ir.Not (r, _) | Ir.F2i (r, _) ->
    set_sym ctx r Scev.Unknown;
    ([], [])
  | Ir.Mov (r, a) ->
    (* a copied pointer is no gep's own pointer *)
    (match (a, operand_binding ctx a) with Ir.Oreg x, Bsym _ -> follow ctx r x | _, _ -> ());
    set ctx r (operand_binding ctx a);
    ([], [])
  | Ir.Alloc { dst; elem; _ } ->
    set ctx dst (elem_ptr elem);
    ([], [])
  | Ir.Free _ -> ([], [])
  | Ir.Gep { dst; base; index; elem; field_off } ->
    (match operand_binding ctx base with
    | Bptr p ->
      let elem_bytes = Types.size_of elem in
      let shape = index_shape ctx index in
      let idx_sym = operand_sym ctx index in
      let off, indirect =
        match shape with
        | Idx_loaded g -> (Scev.Unknown, Some g.g_site)
        | Idx_iv | Idx_iv_plus _ | Idx_affine _ | Idx_const _ | Idx_other ->
          ( Scev.add p.p_off
              (Scev.add
                 (Scev.mul idx_sym (Scev.const (Int64.of_int elem_bytes)))
                 (Scev.const (Int64.of_int field_off))),
            p.p_indirect )
      in
      let gep =
        Some
          { g_base = base; g_elem = elem; g_field = field_off;
            g_site = Flow.site_of_operand ctx.regs base; g_index = shape }
      in
      set ctx dst
        (Bptr
           {
             p_off = off;
             p_loaded_at = p.p_loaded_at;
             p_indirect = indirect;
             p_elem = elem_bytes;
             (* A field of the element only when the base points at an
                element boundary of the same element type. *)
             p_field =
               (if p.p_field = 0 && p.p_elem = elem_bytes then field_off
                else -1);
             p_gep = gep;
           });
      (match index with Ir.Oreg x -> follow ctx dst x | _ -> ())
    | Bsym _ | Bnone -> set ctx dst Bnone);
    ([], [])
  | Ir.Load { dst; ty; ptr; meta } ->
    let acc = record ctx ~rw:`R ~ty ~ptr ~meta in
    (match (ty, acc) with
    | Types.Ptr pointee, _ ->
      (* resolved or not, as in [regs]: its site is its pointee type's *)
      set ctx dst (elem_ptr ~loaded_at:ctx.depth pointee)
    | (Types.Unit | Types.Bool | Types.I64 | Types.F64 | Types.Struct _), Some a ->
      set ctx dst (Bsym { sym = Scev.Loaded a.a_site; from_gep = a.a_gep })
    | (Types.Unit | Types.Bool | Types.I64 | Types.F64 | Types.Struct _), None ->
      set_sym ctx dst Scev.Unknown);
    (Option.to_list acc, [])
  | Ir.Store { ty; ptr; meta; _ } -> (Option.to_list (record ctx ~rw:`W ~ty ~ptr ~meta), [])
  | Ir.Call { dst; callee = _; args = _ } ->
    (* Intra-procedural: the callee's effects are summarized separately. *)
    ctx.straight <- false;
    set_sym ctx dst Scev.Unknown;
    ([], [])
  | Ir.For { iv; lo; hi; step; body } ->
    ([], [ walk_loop ctx ~iv ~lo ~hi ~step ~body ~parallel:false ])
  | Ir.ParFor { iv; lo; hi; step; body } ->
    ([], [ walk_loop ctx ~iv ~lo ~hi ~step ~body ~parallel:true ])
  | Ir.While { cond; cond_val = _; body } ->
    let saved_loop = ctx.loop in
    let saved_depth = ctx.depth in
    let saved_top = ctx.top in
    ctx.loop <- None;
    ctx.depth <- ctx.depth + 1;
    ctx.top <- false;
    ctx.straight <- false;
    let a1, l1 = walk_block ctx cond in
    let a2, l2 = walk_block ctx body in
    ctx.loop <- saved_loop;
    ctx.depth <- saved_depth;
    ctx.top <- saved_top;
    (a1 @ a2, l1 @ l2)
  | Ir.If { cond = _; then_; else_ } ->
    let saved_top = ctx.top in
    ctx.top <- false;
    let a1, l1 = walk_block ctx then_ in
    let a2, l2 = walk_block ctx else_ in
    ctx.top <- saved_top;
    (a1 @ a2, l1 @ l2)
  | Ir.Ret _ | Ir.Prefetch _ | Ir.FlushEvict _ | Ir.EvictSite _
  | Ir.ProfEnter _ | Ir.ProfExit _ ->
    ([], [])

and walk_loop ctx ~iv ~lo ~hi ~step ~body ~parallel =
  let saved_loop = ctx.loop in
  let saved_depth = ctx.depth in
  let saved_top = ctx.top in
  let saved_straight = ctx.straight in
  let depth = ctx.depth in
  let lo_sym = operand_sym ctx lo in
  let step_sym = operand_sym ctx step in
  let iv_sym = Scev.iv ~depth ~lo:lo_sym ~step:step_sym in
  set_sym ctx iv iv_sym;
  ctx.loop <- Some (depth, iv_sym, iv);
  ctx.iv_plus.(iv) <- iv;
  ctx.depth <- depth + 1;
  ctx.top <- true;
  ctx.straight <- true;
  let accesses, children = walk_block ctx body in
  let straight = ctx.straight in
  ctx.loop <- saved_loop;
  ctx.depth <- saved_depth;
  ctx.top <- saved_top;
  ctx.straight <- saved_straight && straight;
  let trip =
    match
      ( Scev.const_value lo_sym,
        Scev.const_value (operand_sym ctx hi),
        Scev.const_value step_sym )
    with
    | Some l, Some h, Some s when Int64.compare s 0L > 0 ->
      Some
        (Int64.to_int
           (Int64.div (Int64.sub h l) s)
        + (if Int64.rem (Int64.sub h l) s <> 0L then 1 else 0))
    | _, _, _ -> None
  in
  {
    l_iv = iv;
    l_depth = depth;
    l_parallel = parallel;
    l_lo = lo;
    l_hi = hi;
    l_trip = trip;
    l_body_ops = Ir.op_count body;
    l_straight = straight;
    l_accesses = accesses;
    l_children = children;
  }

and set ctx r b = ctx.env.(r) <- b
and set_sym ctx r sym = ctx.env.(r) <- Bsym { sym; from_gep = None }

(* --- summaries ----------------------------------------------------------- *)

let summarize accesses =
  let sites = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let existing = try Hashtbl.find sites a.a_site with Not_found -> [] in
      Hashtbl.replace sites a.a_site (a :: existing))
    accesses;
  Hashtbl.fold
    (fun site accs acc ->
      let reads = List.filter (fun a -> a.a_rw = `R) accs in
      let writes = List.filter (fun a -> a.a_rw = `W) accs in
      let elem =
        List.fold_left (fun m a -> max m a.a_elem) 8 accs
      in
      let field a =
        let len = Types.size_of a.a_ty in
        if a.a_field >= 0 && a.a_elem = elem && a.a_field + len <= elem then
          Some (a.a_field, len)
        else None
      in
      let fields =
        List.fold_left
          (fun acc a ->
            match (acc, field a) with
            | Some l, Some f -> Some (f :: l)
            | _, _ -> None)
          (Some []) accs
        |> Option.map Mira_util.Misc.merge_extents
      in
      (* an access through a loaded base that it walks at a constant
         stride is a stream over that base, not a chase *)
      let chases a =
        a.a_pointer_chase && (match a.a_stride with Some s -> s = 0L | None -> true)
      in
      let kind =
        if List.exists chases accs then Pointer_chase
        else begin
          match List.find_opt (fun a -> a.a_indirect_via <> None) accs with
          | Some a ->
            (match a.a_indirect_via with Some v -> Indirect v | None -> Random)
          | None ->
            let strides =
              List.filter_map (fun a -> a.a_stride) accs
              |> List.map Int64.to_int |> List.sort_uniq compare
              |> List.filter (fun s -> s <> 0)
            in
            (match strides with
            | [] -> Random
            | [ s ] when s > 0 && s <= 2 * elem -> Sequential s
            | [ s ] -> Strided s
            | many ->
              if List.for_all (fun s -> s > 0 && s <= 2 * elem) many then
                Sequential (List.fold_left max 0 many)
              else if List.exists (fun a -> a.a_stride = None) accs then Random
              else Strided (List.fold_left max 0 many))
        end
      in
      {
        ss_site = site;
        ss_kind = kind;
        ss_reads = List.length reads;
        ss_writes = List.length writes;
        ss_fields = fields;
        ss_elem = elem;
        ss_read_only = writes = [] && reads <> [];
        ss_write_only = reads = [] && writes <> [];
      }
      :: acc)
    sites []
  |> List.sort (fun a b -> compare a.ss_site b.ss_site)

let analyze facts func =
  let n = max 1 func.Ir.f_nregs in
  let ctx =
    {
      regs = Flow.regs facts func;
      env = Array.make n Bnone;
      all_accesses = [];
      unresolved = 0;
      loop = None;
      depth = 0;
      top = true;
      straight = true;
      iv_plus = Array.make n (-1);
    }
  in
  List.iter
    (fun (r, ty) ->
      ctx.env.(r) <-
        (match ty with
        | Types.Ptr pointee ->
          (* Treat the parameter as the object base: absolute offsets may
             be wrong for interior pointers, but stride classification
             only needs offsets relative to the pointer, which are exact. *)
          elem_ptr pointee
        | Types.Unit | Types.Bool | Types.I64 | Types.F64 | Types.Struct _ ->
          Bsym { sym = Scev.Unknown; from_gep = None }))
    func.Ir.f_params;
  let _, loops = walk_block ctx func.Ir.f_body in
  let accesses = List.rev ctx.all_accesses in
  let summaries = summarize accesses in
  {
    r_loops = loops;
    r_summaries = summaries;
    r_sites = List.map (fun s -> s.ss_site) summaries;
    r_unresolved = ctx.unresolved;
  }

let analyze_all facts (program : Ir.program) =
  List.map (fun (name, f) -> (name, analyze facts f)) program.Ir.p_funcs

let summary_for result site =
  List.find_opt (fun s -> s.ss_site = site) result.r_summaries

let kind_to_string = function
  | Sequential s -> Printf.sprintf "sequential(%dB)" s
  | Strided s -> Printf.sprintf "strided(%dB)" s
  | Indirect v -> Printf.sprintf "indirect(via site %d)" v
  | Pointer_chase -> "pointer-chase"
  | Random -> "random"
