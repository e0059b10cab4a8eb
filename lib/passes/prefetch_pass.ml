module Ir = Mira_mir.Ir
module Types = Mira_mir.Types
module Pattern = Mira_analysis.Pattern
module Flow = Mira_analysis.Remotable_flow

let distance_iters ~params ~body_ops =
  let p = params in
  (* Estimated cost of one iteration: its ops plus a couple of cache
     hits (hits in compiler-controlled sections cost a native access). *)
  let iter_ns =
    (float_of_int (max 1 body_ops) *. p.Mira_sim.Params.native_op_ns)
    +. (2.0 *. p.Mira_sim.Params.native_mem_ns)
  in
  let d = ceil (p.Mira_sim.Params.one_sided_rtt_ns /. iter_ns) in
  Mira_util.Misc.clamp ~lo:1 ~hi:8192 (int_of_float d)

type ctx = {
  facts : Flow.t;
  params : Mira_sim.Params.t;
  line_of : int -> int option;
  hint_line_of : int -> int option;  (* [line_of], but [None] where no hint goes *)
  fresh : unit -> Ir.reg;
}

(* Lookahead in index units: [dist] iterations of [step], plus the
   access's constant offset from the induction variable. *)
let ahead_offset ~dist ~step (g : Pattern.simple_gep) =
  let c = match g.Pattern.g_index with Pattern.Idx_iv_plus c -> c | _ -> 0L in
  Int64.add (Int64.mul (Int64.of_int dist) step) c

(* [body] gated to fire once per half-line of progress of [iv], which
   advances [step] elements of [g] an iteration: the strength
   reduction a real compiler would apply to a hot snippet. *)
let per_half_line ctx ~iv ~step ~(g : Pattern.simple_gep) ~line body =
  let elem = Mira_mir.Types.size_of g.Pattern.g_elem in
  let gate =
    Mira_util.Misc.next_pow2
      (max 1 (line / max 1 (elem * Int64.to_int (max 1L step)) / 2))
  in
  if gate <= 1 then body
  else begin
    let m = ctx.fresh () in
    let z = ctx.fresh () in
    [
      Ir.Bin (m, Ir.Land, Ir.Oreg iv, Ir.Oint (Int64.of_int (gate - 1)));
      Ir.Cmp (z, Ir.Eq, Ir.Oreg m, Ir.Oint 0L);
      Ir.If { cond = Ir.Oreg z; then_ = body; else_ = [] };
    ]
  end

(* [c + sum coeff_d * iv_d] over the [terms] whose induction variable
   is in scope in [ivs]: its ops and the operand holding it. *)
let affine_index ctx ~ivs ~c terms =
  List.fold_left
    (fun (ops, acc) (d, coeff) ->
      match List.assoc_opt d ivs with
      | Some iv ->
        let t = ctx.fresh () in
        let a = ctx.fresh () in
        ( ops @ [ Ir.Bin (t, Ir.Mul, Ir.Oreg iv, Ir.Oint coeff);
                  Ir.Bin (a, Ir.Add, acc, Ir.Oreg t) ],
          Ir.Oreg a )
      | None -> (ops, acc))
    ([], Ir.Oint c) terms

(* Prefetch [len] bytes from element [index] of [g]'s object. *)
let prefetch_at ~fresh ~index ~(g : Pattern.simple_gep) ~len =
  let p = fresh () in
  [
    Ir.Gep { dst = p; base = g.Pattern.g_base; index; elem = g.Pattern.g_elem; field_off = 0 };
    Ir.Prefetch { ptr = Ir.Oreg p; len; meta = Block_util.remote_meta g.Pattern.g_site };
  ]

(* The guarded prefetch snippet for one access group. *)
let sequential_snippet ctx ~iv ~hi ~step ~dist ~(g : Pattern.simple_gep) ~line =
  per_half_line ctx ~iv ~step ~g ~line
    (Block_util.guarded_hint ~fresh:ctx.fresh
       (Block_util.Prefetch_ahead (ahead_offset ~dist ~step g))
       ~at:(Ir.Oreg iv) ~bound:hi ~g ~line)

let indirect_snippet ctx ~iv ~hi ~step ~dist ~(outer : Pattern.simple_gep)
    ~(inner : Pattern.simple_gep) ~line =
  let offset = ahead_offset ~dist ~step inner in
  let d = ctx.fresh () in
  let cmp = ctx.fresh () in
  let pa = ctx.fresh () in
  let tv = ctx.fresh () in
  let pb = ctx.fresh () in
  [
    Ir.Bin (d, Ir.Add, Ir.Oreg iv, Ir.Oint offset);
    Ir.Cmp (cmp, Ir.Lt, Ir.Oreg d, hi);
    Ir.If
      {
        cond = Ir.Oreg cmp;
        then_ =
          [
            Ir.Gep
              {
                dst = pa;
                base = inner.Pattern.g_base;
                index = Ir.Oreg d;
                elem = inner.Pattern.g_elem;
                field_off = inner.Pattern.g_field;
              };
            Ir.Load
              {
                dst = tv;
                ty = Types.I64;
                ptr = Ir.Oreg pa;
                meta = Block_util.remote_meta inner.Pattern.g_site;
              };
            Ir.Gep
              {
                dst = pb;
                base = outer.Pattern.g_base;
                index = Ir.Oreg tv;
                elem = outer.Pattern.g_elem;
                field_off = 0;
              };
            Ir.Prefetch
              {
                ptr = Ir.Oreg pb;
                len = line;
                meta = Block_util.remote_meta outer.Pattern.g_site;
              };
          ];
        else_ = [];
      };
  ]

(* Flattened multi-dimensional index (a[i*k + kk]): rebuild the affine
   form from the in-scope induction variables and prefetch [dist]
   innermost iterations ahead, guarded by the object's element count. *)
let affine_snippet ctx ~ivs ~depth ~dist ~c0 ~terms ~count ~(g : Pattern.simple_gep)
    ~line =
  let s_inner = match List.assoc_opt depth terms with Some s -> s | None -> 1L in
  let ops, index =
    affine_index ctx ~ivs ~c:(Int64.add c0 (Int64.mul (Int64.of_int dist) s_inner)) terms
  in
  let cmp = ctx.fresh () in
  let then_ = prefetch_at ~fresh:ctx.fresh ~index ~g ~len:line in
  let body =
    ops
    @ [
        Ir.Cmp (cmp, Ir.Lt, index, Ir.Oint count);
        Ir.If { cond = Ir.Oreg cmp; then_; else_ = [] };
      ]
  in
  match List.assoc_opt depth ivs with
  | None -> body
  | Some iv -> per_half_line ctx ~iv ~step:s_inner ~g ~line body

(* Loop preamble: prefetch the first window of a streaming access
   before the loop starts, so the loop's opening iterations do not
   demand-miss while the in-loop prefetcher ramps up. *)
let preamble_len ~dist ~stride_elems ~elem ~line =
  let bytes = dist * Int64.to_int (max 1L stride_elems) * elem in
  Mira_util.Misc.round_up (Mira_util.Misc.clamp ~lo:line ~hi:32768 bytes) line

let sequential_preamble ~fresh ~lo ~dist ~(g : Pattern.simple_gep) ~line =
  let elem = Mira_mir.Types.size_of g.Pattern.g_elem in
  prefetch_at ~fresh ~index:lo ~g ~len:(preamble_len ~dist ~stride_elems:1L ~elem ~line)

let preamble_for_group ctx ~ivs ~depth ~lo ~dist ~(g : Pattern.simple_gep) ~line =
  let elem = Mira_mir.Types.size_of g.Pattern.g_elem in
  match g.Pattern.g_index with
  | Pattern.Idx_iv | Pattern.Idx_iv_plus _ ->
    sequential_preamble ~fresh:ctx.fresh ~lo ~dist ~g ~line
  | Pattern.Idx_affine { c0; terms } ->
    (* Start index with the inner iv at its lower bound (constant only). *)
    let lo_c = match lo with Ir.Oint c -> Some c | _ -> None in
    let s_inner = match List.assoc_opt depth terms with Some s -> s | None -> 1L in
    (match lo_c with
    | None -> []
    | Some lo_c ->
      let outer_ok =
        List.for_all (fun (d, _) -> d = depth || List.mem_assoc d ivs) terms
      in
      if not outer_ok then []
      else begin
        let ops, index =
          affine_index ctx ~ivs ~c:(Int64.add c0 (Int64.mul lo_c s_inner))
            (List.filter (fun (d, _) -> d <> depth) terms)
        in
        let len = preamble_len ~dist ~stride_elems:s_inner ~elem ~line in
        ops @ prefetch_at ~fresh:ctx.fresh ~index ~g ~len
      end)
  | Pattern.Idx_loaded _ | Pattern.Idx_const _ | Pattern.Idx_other -> []

(* Deduplicate prefetch targets within a loop: one per
   (site, base operand, index class). *)
let group_key (g : Pattern.simple_gep) =
  let idx_class =
    match g.Pattern.g_index with
    | Pattern.Idx_iv | Pattern.Idx_iv_plus _ | Pattern.Idx_affine _ -> `Seq
    | Pattern.Idx_loaded inner -> `Ind (inner.Pattern.g_base, inner.Pattern.g_field)
    | Pattern.Idx_const _ | Pattern.Idx_other -> `Other
  in
  (g.Pattern.g_site, g.Pattern.g_base, idx_class)

(* Returns (preamble ops emitted before the loop, snippets for the
   body start).  [skip g] excludes the accesses whose prefetching the
   caller schedules itself. *)
let loop_snippets ctx (l : Pattern.loop_info) ~ivs ~lo ~hi ~step ~skip ~defs =
  let step_c = match step with Ir.Oint s -> s | _ -> 1L in
  let dist = distance_iters ~params:ctx.params ~body_ops:l.Pattern.l_body_ops in
  let preambles = ref [] in
  let seen = Hashtbl.create 8 in
  let snippets = List.concat_map
    (fun (a : Pattern.access) ->
      match (a.Pattern.a_gep, ctx.hint_line_of a.Pattern.a_site) with
      | Some g, Some line
        when (not (skip g)) && not (Hashtbl.mem seen (group_key g)) ->
        Hashtbl.replace seen (group_key g) ();
        if Block_util.operand_defined_in defs g.Pattern.g_base then []
        else begin
          match g.Pattern.g_index with
          | Pattern.Idx_iv | Pattern.Idx_iv_plus _ ->
            preambles :=
              preamble_for_group ctx ~ivs ~depth:l.Pattern.l_depth ~lo ~dist ~g
                ~line
              :: !preambles;
            sequential_snippet ctx ~iv:l.Pattern.l_iv ~hi ~step:step_c ~dist ~g
              ~line
          | Pattern.Idx_affine { c0; terms } ->
            (* Needs every referenced iv in scope and a constant object
               size to guard against running past the allocation. *)
            (match Flow.site_count ctx.facts g.Pattern.g_site with
            | Some count
              when List.for_all (fun (d, _) -> List.mem_assoc d ivs) terms ->
              preambles :=
                preamble_for_group ctx ~ivs ~depth:l.Pattern.l_depth ~lo ~dist
                  ~g ~line
                :: !preambles;
              affine_snippet ctx ~ivs ~depth:l.Pattern.l_depth ~dist ~c0 ~terms
                ~count ~g ~line
            | Some _ | None -> [])
          | Pattern.Idx_loaded inner ->
            (match
               ( inner.Pattern.g_index,
                 ctx.line_of inner.Pattern.g_site,
                 Block_util.operand_defined_in defs inner.Pattern.g_base )
             with
            | (Pattern.Idx_iv | Pattern.Idx_iv_plus _), Some _, false ->
              indirect_snippet ctx ~iv:l.Pattern.l_iv ~hi ~step:step_c ~dist
                ~outer:g ~inner ~line
            | _, _, _ -> [])
          | Pattern.Idx_const _ | Pattern.Idx_other -> []
        end
      | _, _ -> [])
    l.Pattern.l_accesses
  in
  (List.rev !preambles, snippets)

(* Pointer-chase: prefetch the target of a freshly loaded remote pointer. *)
let chase_expansion facts ~line_of op =
  match op with
  | Ir.Load { dst; ty = Types.Ptr pointee; meta; _ }
    when meta.Ir.am_remote ->
    let target =
      match Flow.site_of_ty facts pointee with
      | Some s -> s
      | None -> -1
    in
    (match (target >= 0, line_of target) with
    | true, Some line ->
      [ op;
        Ir.Prefetch
          { ptr = Ir.Oreg dst; len = line; meta = Block_util.remote_meta target } ]
    | _, _ -> [ op ])
  | Ir.Bin _ | Ir.Fbin _ | Ir.Cmp _ | Ir.Fcmp _ | Ir.Not _ | Ir.I2f _
  | Ir.F2i _ | Ir.Mov _ | Ir.Alloc _ | Ir.Free _ | Ir.Gep _ | Ir.Load _
  | Ir.Store _ | Ir.Call _ | Ir.For _ | Ir.ParFor _ | Ir.While _ | Ir.If _
  | Ir.Ret _ | Ir.Prefetch _ | Ir.FlushEvict _ | Ir.EvictSite _
  | Ir.ProfEnter _ | Ir.ProfExit _ ->
    [ op ]

let context facts ~params ~line_of ~hint_line_of ~fresh =
  { facts; params; line_of; hint_line_of; fresh }

let chase facts program ~line_of =
  {
    program with
    Ir.p_funcs =
      List.map
        (fun (name, f) ->
          ( name,
            { f with Ir.f_body = Ir.expand_ops (chase_expansion facts ~line_of) f.Ir.f_body }
          ))
        program.Ir.p_funcs;
  }
