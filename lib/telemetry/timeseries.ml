(* Time-resolved telemetry: fixed-interval windows over the simulated
   clock, each recording counter deltas, gauge samples, sparse
   log-bucket histograms, and named top-K snapshots.

   The store is entirely host-side and driven from outside: whoever
   owns the simulated clock (a scheduler sampler task) calls [roll] at
   each window boundary; nothing here reads wall time or advances
   simulated time, so an instrumented run is byte-identical to an
   uninstrumented one.

   Downsampling.  Closed windows live in a bounded ring of [cap]
   slots.  When a close would exceed the cap, adjacent pairs merge
   oldest-first — counters add, gauges combine (sum/count/max, the
   later sample wins [last]), histogram buckets add, top-K snapshots
   merge by summing counts per key and re-truncating — so the ring
   always covers the whole run at a resolution that degrades by
   doubling, deterministically: the ring's contents are a pure
   function of the update/roll sequence. *)

type gauge = {
  mutable g_sum : float;
  mutable g_count : int;
  mutable g_max : float;
  mutable g_last : float;
}

(* Sparse histogram over [Metrics]' quarter-octave buckets: windows
   see a handful of distinct latencies, so a hashtable beats a
   176-slot array per window per name. *)
type whist = {
  wh_counts : (int, int ref) Hashtbl.t;
  mutable wh_n : int;
  mutable wh_max : float;
}

type window = {
  mutable w_start : float;
  mutable w_span : float;
  w_counters : (string, int64 ref) Hashtbl.t;
  w_gauges : (string, gauge) Hashtbl.t;
  w_hists : (string, whist) Hashtbl.t;
  w_tops : (string, (string * int64) list) Hashtbl.t;
}

type t = {
  cap : int;
  mutable closed : window list;  (* newest first *)
  mutable nclosed : int;
  mutable cur : window;
  mutable merges : int;  (* pairwise-merge passes performed *)
}

let fresh_window ~start =
  {
    w_start = start;
    w_span = 0.0;
    w_counters = Hashtbl.create 8;
    w_gauges = Hashtbl.create 8;
    w_hists = Hashtbl.create 8;
    w_tops = Hashtbl.create 4;
  }

let create ?(cap = 256) () =
  if cap < 2 then
    invalid_arg (Printf.sprintf "Timeseries.create: cap = %d (need >= 2)" cap);
  {
    cap;
    closed = [];
    nclosed = 0;
    cur = fresh_window ~start:0.0;
    merges = 0;
  }

let merges t = t.merges

(* --- recording into the current window ----------------------------------- *)

let add t name delta =
  match Hashtbl.find_opt t.cur.w_counters name with
  | Some cell -> cell := Int64.add !cell delta
  | None -> Hashtbl.replace t.cur.w_counters name (ref delta)

let sample t name v =
  match Hashtbl.find_opt t.cur.w_gauges name with
  | Some g ->
    g.g_sum <- g.g_sum +. v;
    g.g_count <- g.g_count + 1;
    if v > g.g_max then g.g_max <- v;
    g.g_last <- v
  | None ->
    Hashtbl.replace t.cur.w_gauges name
      { g_sum = v; g_count = 1; g_max = v; g_last = v }

let observe t name v =
  let h =
    match Hashtbl.find_opt t.cur.w_hists name with
    | Some h -> h
    | None ->
      let h = { wh_counts = Hashtbl.create 8; wh_n = 0; wh_max = 0.0 } in
      Hashtbl.replace t.cur.w_hists name h;
      h
  in
  let b = Metrics.bucket_of v in
  (match Hashtbl.find_opt h.wh_counts b with
  | Some c -> incr c
  | None -> Hashtbl.replace h.wh_counts b (ref 1));
  h.wh_n <- h.wh_n + 1;
  if v > h.wh_max then h.wh_max <- v

let set_top t name entries = Hashtbl.replace t.cur.w_tops name entries

(* --- the bounded ring ---------------------------------------------------- *)

(* Entries kept per name when two top-K snapshots merge. *)
let topk = 8

(* Merge [b] (the later window) into [a] (the earlier), in place. *)
let merge_into a b =
  a.w_span <- a.w_span +. b.w_span;
  Hashtbl.iter
    (fun name v ->
      match Hashtbl.find_opt a.w_counters name with
      | Some cell -> cell := Int64.add !cell !v
      | None -> Hashtbl.replace a.w_counters name (ref !v))
    b.w_counters;
  Hashtbl.iter
    (fun name gb ->
      match Hashtbl.find_opt a.w_gauges name with
      | Some ga ->
        ga.g_sum <- ga.g_sum +. gb.g_sum;
        ga.g_count <- ga.g_count + gb.g_count;
        if gb.g_max > ga.g_max then ga.g_max <- gb.g_max;
        ga.g_last <- gb.g_last
      | None ->
        Hashtbl.replace a.w_gauges name
          { g_sum = gb.g_sum; g_count = gb.g_count; g_max = gb.g_max;
            g_last = gb.g_last })
    b.w_gauges;
  Hashtbl.iter
    (fun name hb ->
      match Hashtbl.find_opt a.w_hists name with
      | Some ha ->
        Hashtbl.iter
          (fun bucket c ->
            match Hashtbl.find_opt ha.wh_counts bucket with
            | Some cell -> cell := !cell + !c
            | None -> Hashtbl.replace ha.wh_counts bucket (ref !c))
          hb.wh_counts;
        ha.wh_n <- ha.wh_n + hb.wh_n;
        if hb.wh_max > ha.wh_max then ha.wh_max <- hb.wh_max
      | None -> Hashtbl.replace a.w_hists name hb)
    b.w_hists;
  Hashtbl.iter
    (fun name tb ->
      match Hashtbl.find_opt a.w_tops name with
      | Some ta ->
        Hashtbl.replace a.w_tops name (Sketch.merge_snapshots ~k:topk ta tb)
      | None -> Hashtbl.replace a.w_tops name tb)
    b.w_tops

(* Merge adjacent pairs oldest-first over the whole ring, halving the
   slot count (an odd newest window stays unpaired). *)
let downsample t =
  let oldest_first = List.rev t.closed in
  let rec pair acc = function
    | a :: b :: rest ->
      merge_into a b;
      pair (a :: acc) rest
    | [ last ] -> last :: acc
    | [] -> acc
  in
  t.closed <- pair [] oldest_first;
  t.nclosed <- List.length t.closed;
  t.merges <- t.merges + 1

let close_current t ~now_ns =
  let w = t.cur in
  w.w_span <- Float.max 0.0 (now_ns -. w.w_start);
  if t.nclosed >= t.cap then downsample t;
  t.closed <- w :: t.closed;
  t.nclosed <- t.nclosed + 1

let roll t ~now_ns =
  close_current t ~now_ns;
  t.cur <- fresh_window ~start:now_ns

let window_empty w =
  Hashtbl.length w.w_counters = 0
  && Hashtbl.length w.w_gauges = 0
  && Hashtbl.length w.w_hists = 0
  && Hashtbl.length w.w_tops = 0

let finish t ~now_ns =
  (* The trailing partial window only survives if it recorded anything
     (the sampler may have parked one boundary past the last event). *)
  if not (window_empty t.cur) then
    close_current t ~now_ns:(Float.max now_ns t.cur.w_start);
  t.cur <- fresh_window ~start:(Float.max now_ns t.cur.w_start)

(* --- export --------------------------------------------------------------- *)

type gauge_stat = { g_count : int; g_mean : float; g_max : float; g_last : float }

type hist_stat = {
  h_count : int;
  h_max_ns : float;
  h_p50_ns : float;
  h_p99_ns : float;
}

type snapshot = {
  s_start_ns : float;
  s_span_ns : float;
  s_counters : (string * int64) list;
  s_gauges : (string * gauge_stat) list;
  s_hists : (string * hist_stat) list;
  s_tops : (string * (string * int64) list) list;
}

(* Window percentile: the upper edge of the bucket holding the rank —
   conservative (never under-reports) and deterministic. *)
let whist_percentile h p =
  if h.wh_n = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int h.wh_n)) in
      if r < 1 then 1 else r
    in
    let buckets =
      Hashtbl.fold (fun b c acc -> (b, !c) :: acc) h.wh_counts []
      |> List.sort compare
    in
    let rec walk cum = function
      | [] -> h.wh_max
      | (b, c) :: rest ->
        let cum = cum + c in
        if cum >= rank then Float.min (Metrics.bucket_hi b) h.wh_max
        else walk cum rest
    in
    walk 0 buckets
  end

let sorted_bindings tbl f =
  Hashtbl.fold (fun name v acc -> (name, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot_of w =
  {
    s_start_ns = w.w_start;
    s_span_ns = w.w_span;
    s_counters = sorted_bindings w.w_counters (fun v -> !v);
    s_gauges =
      sorted_bindings w.w_gauges (fun g ->
          {
            g_count = g.g_count;
            g_mean =
              (if g.g_count > 0 then g.g_sum /. float_of_int g.g_count else 0.0);
            g_max = g.g_max;
            g_last = g.g_last;
          });
    s_hists =
      sorted_bindings w.w_hists (fun h ->
          {
            h_count = h.wh_n;
            h_max_ns = h.wh_max;
            h_p50_ns = whist_percentile h 50.0;
            h_p99_ns = whist_percentile h 99.0;
          });
    s_tops = sorted_bindings w.w_tops (fun entries -> entries);
  }

let snapshots t = List.rev_map snapshot_of t.closed
let nwindows t = t.nclosed
