(* Critical-path analysis over causal span trees.

   The trace sink stores each span whole; spans are arranged into
   containment trees (parent id 0 = root or flow-linked).  Each
   exemplar recorded by a [Metrics] histogram names a trace id; the
   analyzer walks that trace's root tree and decomposes the root's
   end-to-end duration into cause segments using self-time:

     self(s) = dur(s) - sum(dur(child) for parented children of s)

   computed in 2^-16 ns fixed point (the [Attribution] ledger's unit).
   Every non-root parented span appears exactly once as someone's
   child, so the self-times telescope: their sum equals the root's
   duration EXACTLY, as int64 arithmetic — the decomposition is audited
   by construction, never "approximately adds up". *)

type span = Trace.span

(* --- schema validation --------------------------------------------------- *)

(* Structural invariants of recorded spans: span ids are unique, no
   span ends before it begins, and a nonzero parent names a span of the
   same trace whose [begin, end] interval contains the child's.  A
   capped sink keeps or drops spans whole, so only a parent can go
   missing. *)
let validate (spans : span list) =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun (s : span) ->
      if Hashtbl.mem by_id s.sp_id then err "span %d recorded twice" s.sp_id
      else Hashtbl.replace by_id s.sp_id s;
      if s.sp_end_ns < s.sp_begin_ns then
        err "span %d ends before it begins" s.sp_id)
    spans;
  List.iter
    (fun (s : span) ->
      if s.sp_parent <> 0 then
        match Hashtbl.find_opt by_id s.sp_parent with
        | None -> err "span %d has unknown parent %d" s.sp_id s.sp_parent
        | Some p ->
          if p.sp_trace <> s.sp_trace then
            err "span %d and parent %d are in different traces" s.sp_id
              s.sp_parent;
          if s.sp_begin_ns < p.sp_begin_ns || s.sp_end_ns > p.sp_end_ns then
            err "span %d [%g, %g] does not nest within parent %d [%g, %g]"
              s.sp_id s.sp_begin_ns s.sp_end_ns s.sp_parent p.sp_begin_ns
              p.sp_end_ns)
    spans;
  List.rev !errors

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

let dur_fp (s : span) =
  Int64.sub (Attribution.fp_of_ns s.sp_end_ns) (Attribution.fp_of_ns s.sp_begin_ns)

(* Decompose the containment tree rooted at [root]: walk every parented
   descendant, credit its self-time to a cause segment.  Net member
   spans split their self-time further into queue/wire/retry using the
   completion's telescoped components (retry takes the exact residual,
   so the split introduces no rounding drift). *)
let decompose (spans : span list) ~(root : span) =
  let children = Hashtbl.create 16 in
  List.iter
    (fun (s : span) ->
      if s.sp_parent <> 0 then
        Hashtbl.replace children s.sp_parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt children s.sp_parent)))
    spans;
  let totals = Hashtbl.create 8 in
  let credit seg fp =
    Hashtbl.replace totals seg
      (Int64.add fp (Option.value ~default:0L (Hashtbl.find_opt totals seg)))
  in
  let count = ref 0 in
  let rec walk (s : span) =
    incr count;
    let kids = Option.value ~default:[] (Hashtbl.find_opt children s.sp_id) in
    let kids_fp =
      List.fold_left (fun acc k -> Int64.add acc (dur_fp k)) 0L kids
    in
    let self = Int64.sub (dur_fp s) kids_fp in
    (if s.sp_cat = "net" then begin
       let q = Attribution.fp_of_ns (arg_float s.sp_args "queue_ns") in
       let w = Attribution.fp_of_ns (arg_float s.sp_args "wire_ns") in
       (* Residual keeps the sum exact even where q + w round off. *)
       let r = Int64.sub self (Int64.add q w) in
       credit Queue q;
       credit Wire w;
       credit Retry r
     end
     else
       let seg =
         if s.sp_name = "failover" then Recovery
         else if s.sp_cat = "cache" then Fill
         else Local
       in
       credit seg self);
    List.iter walk kids
  in
  walk root;
  {
    d_trace = root.sp_trace;
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
let root_of (spans : span list) ~trace =
  List.fold_left
    (fun (acc : span option) (s : span) ->
      if s.sp_trace = trace && s.sp_parent = 0 then
        match acc with
        | Some best when best.sp_id <= s.sp_id -> acc
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
let paths reg spans =
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
      ("root", Json.Int d.d_root.sp_id);
      ("root_name", Json.Str d.d_root.sp_name);
      ("root_lane", Json.Str d.d_root.sp_lane);
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

let report reg spans =
  let ps = paths reg spans in
  let errors = validate spans in
  Json.Obj
    [
      (* A capped sink drops whole spans: a parent may be missing, so
         validation is only conclusive when nothing was dropped. *)
      ("dropped_events", Json.Int (Trace.dropped ()));
      ("schema_errors", Json.List (List.map (fun e -> Json.Str e) errors));
      ("exemplars", Json.List (List.map path_to_json ps));
    ]

(* Folded text form (flamegraph-style): one line per exemplar segment,
   [hist;root_name;segment <fp>], fp = 2^-16 ns so lines for one
   exemplar sum exactly to its total. *)
let folded reg spans =
  let buf = Buffer.create 1024 in
  List.iter
    (fun p ->
      List.iter
        (fun (seg, fp) ->
          if Int64.compare fp 0L <> 0 then
            Buffer.add_string buf
              (Printf.sprintf "%s;%s;%s %Ld\n" p.p_hist p.p_decomp.d_root.sp_name
                 (segment_name seg) fp))
        p.p_decomp.d_segments)
    (paths reg spans);
  Buffer.contents buf
