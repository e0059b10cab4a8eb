module Stats = Mira_util.Stats

(* Quarter-octave buckets: bucket i covers [2^(i/4), 2^((i+1)/4)) ns.
   176 buckets reach 2^44 ns (~4.8 hours of simulated time), far beyond
   any latency the simulator produces. *)
let buckets_per_octave = 4
let nbuckets = 176

let log2_bucket v =
  if v < 1.0 then 0
  else
    Mira_util.Misc.clamp ~lo:0 ~hi:(nbuckets - 1)
      (int_of_float (Float.log2 v *. float_of_int buckets_per_octave))

(* [edges.(i)]: the least float that [log2_bucket] puts in bucket [i]
   or above, by bisection over the bits of the floats in [1, 2^44]
   (ordered as their bits are); [edges.(nbuckets)] is 2^44. *)
let edges =
  let bucket b = log2_bucket (Int64.float_of_bits b) in
  Array.init (nbuckets + 1) (fun i ->
      let lo = ref (Int64.bits_of_float 1.0) and hi = ref (Int64.bits_of_float 0x1p44) in
      if bucket !lo >= i then hi := !lo;
      while Int64.sub !hi !lo > 1L do
        let mid = Int64.add !lo (Int64.div (Int64.sub !hi !lo) 2L) in
        if bucket mid >= i then hi := mid else lo := mid
      done;
      Int64.float_of_bits !hi)

(* [log2_bucket] without the C call: the exponent's first bucket, plus
   the edges up to the next octave's first that the value reaches
   (log2's rounding puts a value just below a power of two in the next
   octave), then a step down should log2 be lower than the exponent. *)
let bucket_of v =
  if v >= 1.0 && v < 0x1p44 then begin
    let e = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) 52) - 1023 in
    let b = buckets_per_octave * e in
    let i =
      ref
        (b + Bool.to_int (v >= edges.(b + 1)) + Bool.to_int (v >= edges.(b + 2))
        + Bool.to_int (v >= edges.(b + 3)) + Bool.to_int (v >= edges.(b + 4)))
    in
    while v < edges.(!i) do
      decr i
    done;
    !i
  end
  else log2_bucket v

let bucket_lo i = Float.pow 2.0 (float_of_int i /. float_of_int buckets_per_octave)
let bucket_hi i = bucket_lo (i + 1)

type exemplar = { ex_value_ns : float; ex_trace : int; ex_seq : int }

let exemplar_cap = 4

type hist = {
  counts : int array;
  online : Stats.online;
  mutable h_min : float;
  mutable h_max : float;
  mutable exemplars : exemplar list;  (* slowest first, at most [exemplar_cap] *)
  mutable obs_seq : int;
}

let hist_create () =
  {
    counts = Array.make nbuckets 0;
    online = Stats.online_create ();
    h_min = infinity;
    h_max = neg_infinity;
    exemplars = [];
    obs_seq = 0;
  }

(* Ranking is total (value desc, then arrival order), so the reservoir
   contents are a deterministic function of the observation stream. *)
let ex_before a b =
  a.ex_value_ns > b.ex_value_ns
  || (a.ex_value_ns = b.ex_value_ns && a.ex_seq < b.ex_seq)

(* Can an observation of [v] enter a reservoir of [n] slots holding
   [l]?  The newest observation ranks after every equal value, so once
   the reservoir is full it enters only by beating the slowest exemplar
   outright.  When it cannot enter, the list is not rebuilt. *)
let rec has_room v n = function
  | [] -> true
  | x :: rest -> if n = 1 then v > x.ex_value_ns else has_room v (n - 1) rest

let hist_observe ?(trace = 0) h v =
  let i = bucket_of v in
  h.counts.(i) <- h.counts.(i) + 1;
  Stats.online_add h.online v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  h.obs_seq <- h.obs_seq + 1;
  if has_room v exemplar_cap h.exemplars then begin
    let ex = { ex_value_ns = v; ex_trace = trace; ex_seq = h.obs_seq } in
    let rec insert = function
      | [] -> [ ex ]
      | x :: rest -> if ex_before ex x then ex :: x :: rest else x :: insert rest
    in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    h.exemplars <- take exemplar_cap (insert h.exemplars)
  end

let hist_exemplars h = h.exemplars
let hist_count h = Stats.online_count h.online
let hist_mean h = Stats.online_mean h.online
let hist_stddev h = Stats.online_stddev h.online
let hist_min h = if hist_count h = 0 then 0.0 else h.h_min
let hist_max h = if hist_count h = 0 then 0.0 else h.h_max

let hist_percentile h p =
  let n = hist_count h in
  if n = 0 then 0.0
  else begin
    let rank = p /. 100.0 *. float_of_int n in
    let rec walk i seen =
      if i >= nbuckets then hist_max h
      else begin
        let seen' = seen + h.counts.(i) in
        if float_of_int seen' >= rank && h.counts.(i) > 0 then begin
          (* Linear interpolation inside the bucket's span. *)
          let frac =
            (rank -. float_of_int seen) /. float_of_int h.counts.(i)
          in
          let frac = Mira_util.Misc.clamp_f ~lo:0.0 ~hi:1.0 frac in
          bucket_lo i +. (frac *. (bucket_hi i -. bucket_lo i))
        end
        else walk (i + 1) seen'
      end
    in
    let est = walk 0 0 in
    Mira_util.Misc.clamp_f ~lo:(hist_min h) ~hi:(hist_max h) est
  end

let hist_reset h =
  Array.fill h.counts 0 nbuckets 0;
  Stats.online_reset h.online;
  h.h_min <- infinity;
  h.h_max <- neg_infinity;
  h.exemplars <- [];
  h.obs_seq <- 0

let exemplar_to_json e =
  Json.Obj
    [
      ("value_ns", Json.Float e.ex_value_ns);
      ("trace", Json.Int e.ex_trace);
      ("seq", Json.Int e.ex_seq);
    ]

let hist_to_json h =
  let base =
    [
      ("count", Json.Int (hist_count h));
      ("mean_ns", Json.Float (hist_mean h));
      ("stddev_ns", Json.Float (hist_stddev h));
      ("min_ns", Json.Float (hist_min h));
      ("max_ns", Json.Float (hist_max h));
      ("p50_ns", Json.Float (hist_percentile h 50.0));
      ("p95_ns", Json.Float (hist_percentile h 95.0));
      ("p99_ns", Json.Float (hist_percentile h 99.0));
      ("p999_ns", Json.Float (hist_percentile h 99.9));
    ]
  in
  (* Exemplars appear only when tracing actually tagged one: untraced
     runs keep the historical JSON shape byte-for-byte. *)
  let exemplars =
    if List.exists (fun e -> e.ex_trace <> 0) h.exemplars then
      [ ("exemplars", Json.List (List.map exemplar_to_json h.exemplars)) ]
    else []
  in
  Json.Obj (base @ exemplars)

(* --- registry ------------------------------------------------------------ *)

type value = Counter of int | Gauge of float | Hist of hist

type t = {
  table : (string, value) Hashtbl.t;
  mutable order : string list;  (* reverse publication order *)
}

let create () = { table = Hashtbl.create 64; order = [] }

let set t name v =
  if Hashtbl.mem t.table name then
    invalid_arg
      (Printf.sprintf
         "Metrics: duplicate metric name %S (two publishers claimed it)" name);
  t.order <- name :: t.order;
  Hashtbl.replace t.table name v

let set_counter t name i = set t name (Counter i)
let set_gauge t name f = set t name (Gauge f)
let set_hist t name h = set t name (Hist h)
let find t name = Hashtbl.find_opt t.table name
let names t = List.rev t.order

let to_json t =
  Json.Obj
    (List.map
       (fun name ->
         ( name,
           match Hashtbl.find t.table name with
           | Counter i -> Json.Int i
           | Gauge f -> Json.Float f
           | Hist h -> hist_to_json h ))
       (names t))
