(* Critical-path analysis over causal span trees.

   Spans are reconstructed from the trace sink's async Begin/End pairs
   and arranged into containment trees (parent id 0 = root or
   flow-linked).  Each exemplar recorded by a [Metrics] histogram names
   a trace id; the analyzer walks that trace's root tree and decomposes
   the root's end-to-end duration into cause segments using self-time:

     self(s) = dur(s) - sum(dur(child) for parented children of s)

   computed in 2^-16 ns fixed point (the [Attribution] ledger's unit).
   Every non-root parented span appears exactly once as someone's
   child, so the self-times telescope: their sum equals the root's
   duration EXACTLY, as int64 arithmetic — the decomposition is audited
   by construction, never "approximately adds up". *)

type span = {
  s_id : int;
  s_trace : int;
  s_parent : int;
  s_name : string;
  s_cat : string;
  s_lane : string;
  s_begin_ns : float;
  s_end_ns : float;
  s_args : (string * Json.t) list;  (* begin-side args *)
}

(* --- schema validation --------------------------------------------------- *)

(* Structural invariants of an emitted trace:
   - every End pairs with exactly one earlier Begin of the same span id
     and trace id, and never runs backwards in time;
   - every Begin is eventually Ended;
   - a nonzero parent names a Begin-ed span of the same trace, and the
     child's [begin, end] interval nests inside the parent's;
   - every flow start/end pair refers to a span that exists. *)
let validate evs =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let begins = Hashtbl.create 64 in
  let ended = Hashtbl.create 64 in
  List.iter
    (fun (ev : Trace.event) ->
      match ev.Trace.ev_phase with
      | Trace.Begin ->
        if ev.Trace.ev_span = 0 then err "begin %S without a span id" ev.Trace.ev_name;
        if Hashtbl.mem begins ev.Trace.ev_span then
          err "span %d begun twice" ev.Trace.ev_span
        else Hashtbl.replace begins ev.Trace.ev_span ev
      | Trace.End -> (
        match Hashtbl.find_opt begins ev.Trace.ev_span with
        | None -> err "end of span %d without a begin" ev.Trace.ev_span
        | Some b ->
          if Hashtbl.mem ended ev.Trace.ev_span then
            err "span %d ended twice" ev.Trace.ev_span;
          if b.Trace.ev_trace <> ev.Trace.ev_trace then
            err "span %d changes trace id between begin and end"
              ev.Trace.ev_span;
          if ev.Trace.ev_ts_ns < b.Trace.ev_ts_ns then
            err "span %d ends before it begins" ev.Trace.ev_span;
          Hashtbl.replace ended ev.Trace.ev_span ev)
      | _ -> ())
    evs;
  Hashtbl.iter
    (fun id _ ->
      if not (Hashtbl.mem ended id) then err "span %d never ends" id)
    begins;
  (* Parent existence and containment. *)
  Hashtbl.iter
    (fun id (b : Trace.event) ->
      let parent = b.Trace.ev_parent in
      if parent <> 0 then
        match (Hashtbl.find_opt begins parent, Hashtbl.find_opt ended id) with
        | None, _ -> err "span %d has unknown parent %d" id parent
        | Some pb, Some e -> (
          if pb.Trace.ev_trace <> b.Trace.ev_trace then
            err "span %d and parent %d are in different traces" id parent;
          match Hashtbl.find_opt ended parent with
          | None -> ()
          | Some pe ->
            if
              b.Trace.ev_ts_ns < pb.Trace.ev_ts_ns
              || e.Trace.ev_ts_ns > pe.Trace.ev_ts_ns
            then
              err "span %d [%g, %g] does not nest within parent %d [%g, %g]"
                id b.Trace.ev_ts_ns e.Trace.ev_ts_ns parent pb.Trace.ev_ts_ns
                pe.Trace.ev_ts_ns)
        | Some _, None -> ())
    begins;
  (* Flow referential integrity. *)
  let flow_starts = Hashtbl.create 16 in
  let flow_ends = Hashtbl.create 16 in
  List.iter
    (fun (ev : Trace.event) ->
      match ev.Trace.ev_phase with
      | Trace.Flow_start -> Hashtbl.replace flow_starts ev.Trace.ev_span ev
      | Trace.Flow_end -> Hashtbl.replace flow_ends ev.Trace.ev_span ev
      | _ -> ())
    evs;
  Hashtbl.iter
    (fun id _ ->
      if not (Hashtbl.mem flow_ends id) then
        err "flow %d started but never bound" id;
      if not (Hashtbl.mem begins id) then
        err "flow %d refers to an unknown span" id)
    flow_starts;
  Hashtbl.iter
    (fun id _ ->
      if not (Hashtbl.mem flow_starts id) then
        err "flow %d bound but never started" id)
    flow_ends;
  List.rev !errors

(* --- span reconstruction ------------------------------------------------- *)

let spans_of_events evs =
  let begins = Hashtbl.create 64 in
  let spans = ref [] in
  List.iter
    (fun (ev : Trace.event) ->
      match ev.Trace.ev_phase with
      | Trace.Begin -> Hashtbl.replace begins ev.Trace.ev_span ev
      | Trace.End -> (
        match Hashtbl.find_opt begins ev.Trace.ev_span with
        | None -> ()
        | Some b ->
          Hashtbl.remove begins ev.Trace.ev_span;
          spans :=
            {
              s_id = b.Trace.ev_span;
              s_trace = b.Trace.ev_trace;
              s_parent = b.Trace.ev_parent;
              s_name = b.Trace.ev_name;
              s_cat = b.Trace.ev_cat;
              s_lane = b.Trace.ev_lane;
              s_begin_ns = b.Trace.ev_ts_ns;
              s_end_ns = ev.Trace.ev_ts_ns;
              s_args = b.Trace.ev_args;
            }
            :: !spans)
      | _ -> ())
    evs;
  List.rev !spans

(* --- decomposition ------------------------------------------------------- *)

type segment = Queue | Wire | Retry | Fill | Recovery | Local

let segment_name = function
  | Queue -> "queue"
  | Wire -> "wire"
  | Retry -> "retry"
  | Fill -> "fill"
  | Recovery -> "recovery"
  | Local -> "local"

let all_segments = [ Queue; Wire; Retry; Fill; Recovery; Local ]

type decomposition = {
  d_trace : int;
  d_root : span;
  d_total_fp : int64;
  d_segments : (segment * int64) list;  (* every segment, fp units *)
  d_spans : int;  (* spans in the containment tree *)
}

let arg_float args name =
  match List.assoc_opt name args with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> 0.0

let dur_fp s =
  Int64.sub (Attribution.fp_of_ns s.s_end_ns) (Attribution.fp_of_ns s.s_begin_ns)

(* Decompose the containment tree rooted at [root]: walk every parented
   descendant, credit its self-time to a cause segment.  Net member
   spans split their self-time further into queue/wire/retry using the
   completion's telescoped components (retry takes the exact residual,
   so the split introduces no rounding drift). *)
let decompose spans ~root =
  let children = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.s_parent <> 0 then
        Hashtbl.replace children s.s_parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt children s.s_parent)))
    spans;
  let totals = Hashtbl.create 8 in
  let credit seg fp =
    Hashtbl.replace totals seg
      (Int64.add fp (Option.value ~default:0L (Hashtbl.find_opt totals seg)))
  in
  let count = ref 0 in
  let rec walk s =
    incr count;
    let kids = Option.value ~default:[] (Hashtbl.find_opt children s.s_id) in
    let kids_fp =
      List.fold_left (fun acc k -> Int64.add acc (dur_fp k)) 0L kids
    in
    let self = Int64.sub (dur_fp s) kids_fp in
    (if s.s_cat = "net" then begin
       let q = Attribution.fp_of_ns (arg_float s.s_args "queue_ns") in
       let w = Attribution.fp_of_ns (arg_float s.s_args "wire_ns") in
       (* Residual keeps the sum exact even where q + w round off. *)
       let r = Int64.sub self (Int64.add q w) in
       credit Queue q;
       credit Wire w;
       credit Retry r
     end
     else
       let seg =
         if s.s_name = "failover" then Recovery
         else if s.s_cat = "cache" then Fill
         else Local
       in
       credit seg self);
    List.iter walk kids
  in
  walk root;
  {
    d_trace = root.s_trace;
    d_root = root;
    d_total_fp = dur_fp root;
    d_segments =
      List.map
        (fun seg ->
          (seg, Option.value ~default:0L (Hashtbl.find_opt totals seg)))
        all_segments;
    d_spans = !count;
  }

(* The root of a trace's containment tree: the first-minted span with
   no parent.  Flow-linked spans of the same trace are also parentless
   but minted later (children are created while their originator runs),
   so minimum span id picks the originating deref/fault. *)
let root_of spans ~trace =
  List.fold_left
    (fun acc s ->
      if s.s_trace = trace && s.s_parent = 0 then
        match acc with
        | Some best when best.s_id <= s.s_id -> acc
        | _ -> Some s
      else acc)
    None spans

(* --- exemplar reports ---------------------------------------------------- *)

type exemplar_path = {
  p_hist : string;
  p_exemplar : Metrics.exemplar;
  p_decomp : decomposition;
}

(* Every traced exemplar of every histogram in [reg], decomposed.
   Exemplars without a trace id (tracing off, or the sample predates
   enabling) and traces whose spans were dropped from the sink buffer
   are skipped. *)
let paths reg evs =
  let spans = spans_of_events evs in
  List.concat_map
    (fun name ->
      match Metrics.find reg name with
      | Some (Metrics.Hist h) ->
        List.filter_map
          (fun (ex : Metrics.exemplar) ->
            if ex.Metrics.ex_trace = 0 then None
            else
              Option.map
                (fun root ->
                  {
                    p_hist = name;
                    p_exemplar = ex;
                    p_decomp = decompose spans ~root;
                  })
                (root_of spans ~trace:ex.Metrics.ex_trace))
          (Metrics.hist_exemplars h)
      | _ -> [])
    (Metrics.names reg)

let decomposition_to_json d =
  Json.Obj
    [
      ("trace", Json.Int d.d_trace);
      ("root", Json.Int d.d_root.s_id);
      ("root_name", Json.Str d.d_root.s_name);
      ("root_lane", Json.Str d.d_root.s_lane);
      ("spans", Json.Int d.d_spans);
      ("total_ns", Json.Float (Attribution.ns_of_fp d.d_total_fp));
      ("total_fp", Json.Str (Int64.to_string d.d_total_fp));
      ( "segments_ns",
        Json.Obj
          (List.map
             (fun (seg, fp) ->
               (segment_name seg, Json.Float (Attribution.ns_of_fp fp)))
             d.d_segments) );
      ( "segments_fp",
        Json.Obj
          (List.map
             (fun (seg, fp) -> (segment_name seg, Json.Str (Int64.to_string fp)))
             d.d_segments) );
    ]

let path_to_json p =
  Json.Obj
    [
      ("hist", Json.Str p.p_hist);
      ("value_ns", Json.Float p.p_exemplar.Metrics.ex_value_ns);
      ("seq", Json.Int p.p_exemplar.Metrics.ex_seq);
      ("critical_path", decomposition_to_json p.p_decomp);
    ]

let report reg evs =
  let ps = paths reg evs in
  let errors = validate evs in
  Json.Obj
    [
      (* A capped sink truncates span groups, so validation is only
         conclusive when nothing was dropped. *)
      ("dropped_events", Json.Int (Trace.dropped ()));
      ("schema_errors", Json.List (List.map (fun e -> Json.Str e) errors));
      ("exemplars", Json.List (List.map path_to_json ps));
    ]

(* Folded text form (flamegraph-style): one line per exemplar segment,
   [hist;root_name;segment <fp>], fp = 2^-16 ns so lines for one
   exemplar sum exactly to its total. *)
let folded reg evs =
  let buf = Buffer.create 1024 in
  List.iter
    (fun p ->
      List.iter
        (fun (seg, fp) ->
          if Int64.compare fp 0L <> 0 then
            Buffer.add_string buf
              (Printf.sprintf "%s;%s;%s %Ld\n" p.p_hist p.p_decomp.d_root.s_name
                 (segment_name seg) fp))
        p.p_decomp.d_segments)
    (paths reg evs);
  Buffer.contents buf
