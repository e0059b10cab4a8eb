module Ir = Mira_mir.Ir
module Pattern = Mira_analysis.Pattern
module Lifetime = Mira_analysis.Lifetime

(* Far enough behind that prefetched-but-unused lines are not flushed,
   close enough that dead lines free space promptly. *)
let behind_distance ~line ~elem = (2 * line / max 1 elem) + 8

(* After a loop whose flushes ran once per line or chunk: the last
   range a per-iteration flush would have reached, [behind] behind the
   last induction value [at]. *)
let flush_tail ~fresh ~at ~lo ~(g : Pattern.simple_gep) ~line =
  let behind = behind_distance ~line ~elem:(Mira_mir.Types.size_of g.Pattern.g_elem) in
  Block_util.guarded_hint ~fresh (Block_util.Flush_behind behind) ~at ~bound:lo
    ~g ~line

(* Flush once per line: behind a gate that opens every [gate] index
   units of [d - lo], where [gate] is the largest power of two at most
   the iterations per line, times the step's power-of-two factor, so
   consecutive flushed [line]-byte ranges still touch (a rounded-up
   gate would leave gaps between them).  The lag is rounded up to whole steps, so
   the first flush that passes [d >= lo] starts at [lo]. *)
let gated_flush ~fresh ~iv ~lo ~step ~(g : Pattern.simple_gep) ~line =
  let elem = Mira_mir.Types.size_of g.Pattern.g_elem in
  let behind = behind_distance ~line ~elem in
  match step with
  | Ir.Oint s when Int64.compare s 0L > 0 ->
    let s = Int64.to_int s in
    let per_line = max 1 (line / max 1 (elem * s)) in
    let gate = (1 lsl Mira_util.Misc.log2 per_line) * (s land (-s)) in
    let dist = Mira_util.Misc.round_up behind s in
    let flush () =
      Block_util.guarded_hint ~fresh (Block_util.Flush_behind dist)
        ~at:(Ir.Oreg iv) ~bound:lo ~g ~line
    in
    if gate <= 1 then flush ()
    else begin
      (* [(iv - dist - lo) land (gate-1) = 0]: with a constant [lo], a
         compare of [iv land (gate-1)] against a constant *)
      let mask = Int64.of_int (gate - 1) in
      let key, phase, from_lo =
        match lo with
        | Ir.Oint l -> (Ir.Oreg iv, Int64.logand (Int64.add (Int64.of_int dist) l) mask, [])
        | Ir.Oreg _ | Ir.Ofloat _ | Ir.Obool _ | Ir.Ounit ->
          let r = fresh () in
          (Ir.Oreg r, Int64.logand (Int64.of_int dist) mask, [ Ir.Bin (r, Ir.Sub, Ir.Oreg iv, lo) ])
      in
      let m = fresh () in
      let z = fresh () in
      from_lo
      @ [
          Ir.Bin (m, Ir.Land, key, Ir.Oint mask);
          Ir.Cmp (z, Ir.Eq, Ir.Oreg m, Ir.Oint phase);
          Ir.If { cond = Ir.Oreg z; then_ = flush (); else_ = [] };
        ]
    end
  | Ir.Oint _ | Ir.Oreg _ | Ir.Ofloat _ | Ir.Obool _ | Ir.Ounit ->
    Block_util.guarded_hint ~fresh (Block_util.Flush_behind behind) ~at:(Ir.Oreg iv) ~bound:lo
      ~g ~line

(* [skip g] excludes the accesses whose flushing the caller schedules
   itself.  With the loop's last induction value [last], the flush the
   gate would leave out at the end runs once after the loop. *)
let loop_snippets ~fresh ~line_of ~streaming (l : Pattern.loop_info) ~lo ~step ~last ~skip
    ~defs =
  let seen = Hashtbl.create 8 in
  let groups =
    List.concat_map
      (fun (a : Pattern.access) ->
        match (a.Pattern.a_gep, line_of a.Pattern.a_site) with
        | Some g, Some line when streaming a.Pattern.a_site && not (skip g) ->
          let key = (g.Pattern.g_site, g.Pattern.g_base) in
          (match (g.Pattern.g_index, Hashtbl.mem seen key) with
          | (Pattern.Idx_iv | Pattern.Idx_iv_plus _), false
            when not
                   (match g.Pattern.g_base with
                   | Ir.Oreg r -> Hashtbl.mem defs r
                   | Ir.Oint _ | Ir.Ofloat _ | Ir.Obool _ | Ir.Ounit -> true) ->
            Hashtbl.replace seen key ();
            [ (g, line) ]
          | _, _ -> [])
        | Some _, Some _ | _, _ -> [])
      l.Pattern.l_accesses
  in
  let tail (g, line) =
    match last with Some at -> flush_tail ~fresh ~at ~lo ~g ~line | None -> []
  in
  let flushes =
    List.concat_map
      (fun (g, line) -> gated_flush ~fresh ~iv:l.Pattern.l_iv ~lo ~step ~g ~line)
      groups
  in
  (flushes, List.concat_map tail groups)

(* Insert EvictSite after the last top-level loop touching each site. *)
let insert_lifetime_ends result line_of body =
  let dead_by_phase =
    List.init (Lifetime.phases_count result) (fun phase ->
        Lifetime.dead_after result ~phase
        |> List.filter (fun site -> line_of site <> None))
  in
  let nphases = List.length dead_by_phase in
  let phase = ref (-1) in
  List.concat_map
    (fun op ->
      match op with
      | Ir.For _ | Ir.ParFor _ ->
        incr phase;
        (* Only end lifetimes strictly before the function's last phase:
           function exit handles the rest naturally. *)
        if !phase < nphases - 1 then
          op :: List.map (fun s -> Ir.EvictSite s) (List.nth dead_by_phase !phase)
        else [ op ]
      | Ir.Bin _ | Ir.Fbin _ | Ir.Cmp _ | Ir.Fcmp _ | Ir.Not _ | Ir.I2f _
      | Ir.F2i _ | Ir.Mov _ | Ir.Alloc _ | Ir.Free _ | Ir.Gep _ | Ir.Load _
      | Ir.Store _ | Ir.Call _ | Ir.While _ | Ir.If _ | Ir.Ret _
      | Ir.Prefetch _ | Ir.FlushEvict _ | Ir.EvictSite _ | Ir.ProfEnter _
      | Ir.ProfExit _ ->
        [ op ])
    body

(* Flush-behind only pays off for data a function streams through once;
   a re-scanned read-write buffer would be written back and refetched
   over and over. *)
let streaming result site =
  match Pattern.summary_for result site with
  | Some ss -> ss.Pattern.ss_read_only || ss.Pattern.ss_write_only
  | None -> false

let end_lifetimes facts program ~line_of =
  {
    program with
    Ir.p_funcs =
      List.map
        (fun (name, (f : Ir.func)) ->
          let result = Pattern.analyze facts f in
          (name, { f with Ir.f_body = insert_lifetime_ends result line_of f.Ir.f_body }))
        program.Ir.p_funcs;
  }
