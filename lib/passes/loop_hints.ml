module Ir = Mira_mir.Ir
module Types = Mira_mir.Types
module Pattern = Mira_analysis.Pattern

(* One stream of a loop: the top-level loads of one sectioned object
   at element [iv + c]. *)
type stream = {
  g : Pattern.simple_gep;
  c : int64;
  line : int;
  lo_field : int;  (* lowest field offset a load reads *)
  hi_field : int;  (* highest *)
  ptrs : Ir.operand list;  (* the pointers the loads dereference *)
  exclusive : bool;  (* the loads are all the body's accesses to the site *)
}

(* Per function: a register supply, the analysis and the plan's flags. *)
type ctx = {
  fresh : unit -> Ir.reg;
  params : Mira_sim.Params.t;
  line_of : int -> int option;
  hint_line_of : int -> int option;  (* [line_of], but [None] where no hint goes *)
  prefetch : bool;
  evict : bool;
  native : bool;
  streaming : int -> bool;
  loops : (Ir.reg, Pattern.loop_info) Hashtbl.t;
  pf : Prefetch_pass.ctx;
}

let per_line_iters st ~step = st.line / (Types.size_of st.g.Pattern.g_elem * step)

(* The streams of an innermost loop, read off its accesses in [l] by
   the rule in the interface ([run]); [defs] are the registers its body
   defines. *)
let streams ~line_of ~defs ~step (l : Pattern.loop_info) =
  let load (a : Pattern.access) =
    match a.Pattern.a_gep with
    | Some
        ({ Pattern.g_base = Ir.Oreg b; g_index = Pattern.Idx_iv | Pattern.Idx_iv_plus _; _ } as g)
      when a.Pattern.a_own && a.Pattern.a_rw = `R && a.Pattern.a_meta.Ir.am_remote
           && Types.size_of a.Pattern.a_ty > 0 && not (Hashtbl.mem defs b) ->
      Some (a.Pattern.a_site, a.Pattern.a_ptr, g)
    | Some _ | None -> None
  in
  let loads = if l.Pattern.l_straight then List.filter_map load l.Pattern.l_accesses else [] in
  let accesses site =
    List.length (List.filter (fun (a : Pattern.access) -> a.Pattern.a_site = site) l.Pattern.l_accesses)
  in
  let offset (g : Pattern.simple_gep) =
    match g.Pattern.g_index with
    | Pattern.Idx_iv_plus c -> c
    | Pattern.Idx_iv | Pattern.Idx_affine _ | Pattern.Idx_loaded _ | Pattern.Idx_const _
    | Pattern.Idx_other ->
      0L
  in
  List.sort_uniq compare (List.map (fun (site, _, _) -> site) loads)
  |> List.filter_map (fun site ->
         let mine = List.filter (fun (s, _, _) -> s = site) loads in
         let gs = List.map (fun (_, _, g) -> g) mine in
         let g = List.hd gs in
         let same (g' : Pattern.simple_gep) =
           g'.Pattern.g_base = g.Pattern.g_base
           && Types.equal g'.Pattern.g_elem g.Pattern.g_elem
           && offset g' = offset g
           && g'.Pattern.g_field + 8 <= Types.size_of g.Pattern.g_elem
         in
         let fields = List.map (fun (g' : Pattern.simple_gep) -> g'.Pattern.g_field) gs in
         match line_of site with
         | Some line when List.for_all same gs ->
           let st =
             {
               g;
               c = offset g;
               line;
               lo_field = List.fold_left min max_int fields;
               hi_field = List.fold_left max 0 fields;
               ptrs = List.map (fun (_, p, _) -> p) mine;
               exclusive = List.length mine = accesses site;
             }
           in
           if per_line_iters st ~step >= 2 then Some st else None
         | Some _ | None -> None)

(* The last value the induction variable takes: [hl] with its ops. *)
let last_iv ~fresh ~lo ~hi ~step =
  match (lo, hi) with
  | _, Ir.Oint h when step = 1 -> ([], Ir.Oint (Int64.pred h))
  | Ir.Oint l, Ir.Oint h ->
    let s = Int64.of_int step in
    let n = Int64.sub (Int64.pred h) l in
    ([], Ir.Oint (if Int64.compare n 0L < 0 then l else Int64.add l (Int64.mul (Int64.div n s) s)))
  | _, _ when step = 1 ->
    let r = fresh () in
    ([ Ir.Bin (r, Ir.Sub, hi, Ir.Oint 1L) ], Ir.Oreg r)
  | _, _ ->
    let a = fresh () in
    let b = fresh () in
    let q = fresh () in
    let m = fresh () in
    let r = fresh () in
    let s = Ir.Oint (Int64.of_int step) in
    ( [
        Ir.Bin (a, Ir.Sub, hi, Ir.Oint 1L);
        Ir.Bin (b, Ir.Sub, Ir.Oreg a, lo);
        Ir.Bin (q, Ir.Div, Ir.Oreg b, s);
        Ir.Bin (m, Ir.Mul, Ir.Oreg q, s);
        Ir.Bin (r, Ir.Add, lo, Ir.Oreg m);
      ],
      Ir.Oreg r )

(* [dst = min(a, b)] without a branch (registers are single-assignment
   and the IR has no select): [d = a-b; dst = b + (d land -(d lsr 63))]. *)
let min_ops ~fresh ~dst a b =
  let d = fresh () in
  let sh = fresh () in
  let neg = fresh () in
  let m = fresh () in
  [
    Ir.Bin (d, Ir.Sub, a, b);
    Ir.Bin (sh, Ir.Shr, Ir.Oreg d, Ir.Oint 63L);
    Ir.Bin (neg, Ir.Sub, Ir.Oint 0L, Ir.Oreg sh);
    Ir.Bin (m, Ir.Land, Ir.Oreg d, Ir.Oreg neg);
    Ir.Bin (dst, Ir.Add, b, Ir.Oreg m);
  ]

(* A checked load of element [at + c], field [field]: makes its line
   resident and pays for it through the runtime. *)
let touch ~fresh ~at st ~field =
  let idx, ops =
    if st.c = 0L then (at, [])
    else begin
      let r = fresh () in
      (Ir.Oreg r, [ Ir.Bin (r, Ir.Add, at, Ir.Oint st.c) ])
    end
  in
  let p = fresh () in
  ops
  @ [
      Ir.Gep
        { dst = p; base = st.g.Pattern.g_base; index = idx;
          elem = st.g.Pattern.g_elem; field_off = field };
      Ir.Load
        { dst = fresh (); ty = Types.I64; ptr = Ir.Oreg p;
          meta = Block_util.remote_meta st.g.Pattern.g_site };
    ]

let mark_native streams body =
  let ptrs = List.concat_map (fun st -> if st.exclusive then st.ptrs else []) streams in
  List.map
    (fun op ->
      match op with
      | Ir.Load ({ ptr; meta; _ } as l) when List.mem ptr ptrs ->
        Ir.Load { l with meta = { meta with Ir.am_native = true } }
      | Ir.Bin _ | Ir.Fbin _ | Ir.Cmp _ | Ir.Fcmp _ | Ir.Not _ | Ir.I2f _
      | Ir.F2i _ | Ir.Mov _ | Ir.Alloc _ | Ir.Free _ | Ir.Gep _ | Ir.Load _
      | Ir.Store _ | Ir.Call _ | Ir.For _ | Ir.ParFor _ | Ir.While _ | Ir.If _
      | Ir.Ret _ | Ir.Prefetch _ | Ir.FlushEvict _ | Ir.EvictSite _
      | Ir.ProfEnter _ | Ir.ProfExit _ ->
        op)
    body

(* [for iv = lo to hi step s { body }] becomes

     for io = lo to hi step k*s {
       per stream: flush behind, prefetch [dist] iterations ahead
       last = min(io + (k-1)*s, hl)      (hl: the last iv, hoisted)
       per stream: checked loads of elements io and last
       for iv = io to last+1 step s { body, stream loads native }
     }

   with [k] iterations per line of the densest stream. *)
let strip c ~dist ~hl ~iv ~lo ~hi ~step ~body streams =
  let fresh = c.fresh in
  let k = List.fold_left (fun k st -> min k (per_line_iters st ~step)) max_int streams in
  let step64 = Int64.of_int step in
  let each f = List.concat_map f streams in
  let hinted st = c.hint_line_of st.g.Pattern.g_site <> None in
  let prefetched st = c.prefetch && hinted st in
  let preamble =
    each (fun st ->
        if prefetched st then
          Prefetch_pass.sequential_preamble ~fresh ~lo ~dist ~g:st.g ~line:st.line
        else [])
  in
  let io = fresh () in
  let at = Ir.Oreg io in
  let flushed st = c.evict && c.streaming st.g.Pattern.g_site && hinted st in
  let flushes =
    each (fun st ->
        if flushed st then
          (* the lag rounded to whole chunks: the first flush starts at [lo] *)
          let behind =
            Evict_hints.behind_distance ~line:st.line
              ~elem:(Types.size_of st.g.Pattern.g_elem)
          in
          Block_util.guarded_hint ~fresh
            (Block_util.Flush_behind (Mira_util.Misc.round_up behind (k * step)))
            ~at ~bound:lo ~g:st.g ~line:st.line
        else [])
  in
  let prefetches =
    each (fun st ->
        if prefetched st then
          Block_util.guarded_hint ~fresh
            (Block_util.Prefetch_ahead (Prefetch_pass.ahead_offset ~dist ~step:step64 st.g))
            ~at ~bound:hi ~g:st.g ~line:st.line
        else [])
  in
  let t = fresh () in
  let last = fresh () in
  let bound =
    Ir.Bin (t, Ir.Add, at, Ir.Oint (Int64.mul (Int64.of_int (k - 1)) step64))
    :: min_ops ~fresh ~dst:last (Ir.Oreg t) hl
  in
  let touches =
    each (fun st ->
        if st.exclusive then
          let first = touch ~fresh ~at st ~field:st.lo_field in
          first @ touch ~fresh ~at:(Ir.Oreg last) st ~field:st.hi_field
        else [])
  in
  let ihi = fresh () in
  let per_line =
    flushes @ prefetches @ bound @ touches @ [ Ir.Bin (ihi, Ir.Add, Ir.Oreg last, Ir.Oint 1L) ]
  in
  preamble
  @ [
      Ir.For
        {
          iv = io;
          lo;
          hi;
          step = Ir.Oint (Int64.mul (Int64.of_int k) step64);
          body =
            per_line
            @ [
                Ir.For
                  { iv; lo = at; hi = Ir.Oreg ihi; step = Ir.Oint step64;
                    body = mark_native streams body };
              ];
        };
    ]
  @ each (fun st ->
        if flushed st then Evict_hints.flush_tail ~fresh ~at:hl ~lo ~g:st.g ~line:st.line
        else [])

(* An innermost loop gets its flush-behind and prefetch snippets for
   every access outside its streams, with the loop's own bounds; with
   streams it is then strip-mined around them. *)
let innermost c (l : Pattern.loop_info) ~ivs ~parallel ~iv ~lo ~hi ~step body =
  (* the constant positive step, or 0 *)
  let s =
    match step with
    | Ir.Oint s when Int64.compare s 0L > 0 -> Int64.to_int s
    | Ir.Oint _ | Ir.Oreg _ | Ir.Ofloat _ | Ir.Obool _ | Ir.Ounit -> 0
  in
  let defs = Block_util.defined_regs body in
  let streams =
    if c.native && (not parallel) && s > 0 then streams ~line_of:c.line_of ~defs ~step:s l
    else []
  in
  (* a stream's own sequential accesses get their hints per chunk *)
  let skip (g : Pattern.simple_gep) =
    match g.Pattern.g_index with
    | Pattern.Idx_iv | Pattern.Idx_iv_plus _ ->
      List.exists
        (fun st -> st.g.Pattern.g_site = g.Pattern.g_site && st.g.Pattern.g_base = g.Pattern.g_base)
        streams
    | Pattern.Idx_affine _ | Pattern.Idx_loaded _ | Pattern.Idx_const _ | Pattern.Idx_other ->
      false
  in
  (* the last induction value: the chunk bound and the tail flushes *)
  let hl_ops, last =
    if s > 0 && (c.evict || streams <> []) then begin
      let ops, hl = last_iv ~fresh:c.fresh ~lo ~hi ~step:s in
      (ops, Some hl)
    end
    else ([], None)
  in
  let flushes, tails =
    if c.evict then
      Evict_hints.loop_snippets ~fresh:c.fresh ~line_of:c.hint_line_of
        ~streaming:c.streaming l ~lo ~step ~last ~skip ~defs
    else ([], [])
  in
  let preamble, prefetches =
    if c.prefetch then Prefetch_pass.loop_snippets c.pf l ~ivs ~lo ~hi ~step ~skip ~defs
    else ([], [])
  in
  let body = flushes @ prefetches @ body in
  let loop =
    match last with
    | Some hl when streams <> [] ->
      let dist =
        Prefetch_pass.distance_iters ~params:c.params ~body_ops:l.Pattern.l_body_ops
      in
      strip c ~dist ~hl ~iv ~lo ~hi ~step:s ~body streams
    | Some _ | None ->
      if parallel then [ Ir.ParFor { iv; lo; hi; step; body } ]
      else [ Ir.For { iv; lo; hi; step; body } ]
  in
  List.concat preamble @ hl_ops @ loop @ tails

let rec rewrite_block c ~ivs block = List.concat_map (rewrite_op c ~ivs) block

and rewrite_op c ~ivs op =
  let loop ~parallel ~iv ~lo ~hi ~step body =
    let ivs = (List.length ivs, iv) :: ivs in
    let body = rewrite_block c ~ivs body in
    match Hashtbl.find_opt c.loops iv with
    | Some l when l.Pattern.l_children = [] ->
      innermost c l ~ivs ~parallel ~iv ~lo ~hi ~step body
    | Some _ | None ->
      if parallel then [ Ir.ParFor { iv; lo; hi; step; body } ]
      else [ Ir.For { iv; lo; hi; step; body } ]
  in
  match op with
  | Ir.For { iv; lo; hi; step; body } -> loop ~parallel:false ~iv ~lo ~hi ~step body
  | Ir.ParFor { iv; lo; hi; step; body } -> loop ~parallel:true ~iv ~lo ~hi ~step body
  | Ir.While w ->
    [ Ir.While
        { w with
          cond = rewrite_block c ~ivs w.cond;
          body = rewrite_block c ~ivs w.body } ]
  | Ir.If i ->
    [ Ir.If
        { i with
          then_ = rewrite_block c ~ivs i.then_;
          else_ = rewrite_block c ~ivs i.else_ } ]
  | Ir.Bin _ | Ir.Fbin _ | Ir.Cmp _ | Ir.Fcmp _ | Ir.Not _ | Ir.I2f _
  | Ir.F2i _ | Ir.Mov _ | Ir.Alloc _ | Ir.Free _ | Ir.Gep _ | Ir.Load _
  | Ir.Store _ | Ir.Call _ | Ir.Ret _ | Ir.Prefetch _ | Ir.FlushEvict _
  | Ir.EvictSite _ | Ir.ProfEnter _ | Ir.ProfExit _ ->
    [ op ]

let rec index_loops tbl (loops : Pattern.loop_info list) =
  List.iter
    (fun l ->
      Hashtbl.replace tbl l.Pattern.l_iv l;
      index_loops tbl l.Pattern.l_children)
    loops

let run facts program ~params ~line_of ~hint_line_of ~prefetch ~evict ~native =
  let run_func (f : Ir.func) =
    let result = Pattern.analyze facts f in
    let next = ref f.Ir.f_nregs in
    let fresh () =
      let r = !next in
      incr next;
      r
    in
    let loops = Hashtbl.create 16 in
    index_loops loops result.Pattern.r_loops;
    let c =
      {
        fresh;
        params;
        line_of;
        hint_line_of;
        prefetch;
        evict;
        native;
        streaming = Evict_hints.streaming result;
        loops;
        pf = Prefetch_pass.context facts ~params ~line_of ~hint_line_of ~fresh;
      }
    in
    let body = rewrite_block c ~ivs:[] f.Ir.f_body in
    { f with Ir.f_body = body; f_nregs = !next }
  in
  { program with Ir.p_funcs = List.map (fun (name, f) -> (name, run_func f)) program.Ir.p_funcs }
