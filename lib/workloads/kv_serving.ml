module Clock = Mira_sim.Clock
module Sched = Mira_sim.Sched
module Runtime = Mira_runtime.Runtime
module Memsys = Mira_runtime.Memsys
module Profile = Mira_runtime.Profile
module Section = Mira_cache.Section
module Manager = Mira_cache.Manager
module Metrics = Mira_telemetry.Metrics
module Trace = Mira_telemetry.Trace
module Json = Mira_telemetry.Json
module Prng = Mira_util.Prng
module Stats = Mira_util.Stats
module Sketch = Mira_telemetry.Sketch
module Attribution = Mira_telemetry.Attribution
module Net = Mira_sim.Net

type config = {
  tenants : int;
  requests : int;
  keys : int;
  value_bytes : int;
  zipf_s : float;
  arrival_ns : float;
  get_fraction : float;
  slo_ns : float;
  local_ratio : float;
  line : int;
  seed : int;
}

let config_default =
  {
    tenants = 4;
    requests = 20_000;
    keys = 8192;
    value_bytes = 128;
    zipf_s = 0.99;
    arrival_ns = 8_000.0;
    get_fraction = 0.95;
    slo_ns = 50_000.0;
    local_ratio = 0.5;
    line = 256;
    seed = 42;
  }

let fail fmt = Printf.ksprintf invalid_arg ("Kv_serving: " ^^ fmt)

let validate cfg =
  if cfg.tenants < 1 then fail "tenants must be >= 1 (got %d)" cfg.tenants;
  if cfg.requests < 1 then fail "requests must be >= 1 (got %d)" cfg.requests;
  if cfg.keys < 1 then fail "keys must be >= 1 (got %d)" cfg.keys;
  if cfg.value_bytes < 8 || cfg.value_bytes mod 8 <> 0 then
    fail "value_bytes must be a positive multiple of 8 (got %d)" cfg.value_bytes;
  if cfg.line < 8 || cfg.line mod 8 <> 0 then
    fail "line must be a positive multiple of 8 (got %d)" cfg.line;
  if not (cfg.zipf_s >= 0.0) then fail "zipf_s must be >= 0 (got %g)" cfg.zipf_s;
  if not (cfg.arrival_ns > 0.0) then
    fail "arrival_ns must be > 0 (got %g)" cfg.arrival_ns;
  if not (cfg.get_fraction >= 0.0 && cfg.get_fraction <= 1.0) then
    fail "get_fraction must be in [0,1] (got %g)" cfg.get_fraction;
  if not (cfg.slo_ns > 0.0) then fail "slo_ns must be > 0 (got %g)" cfg.slo_ns;
  if not (cfg.local_ratio > 0.0 && cfg.local_ratio <= 1.0) then
    fail "local_ratio must be in (0,1] (got %g)" cfg.local_ratio

type tenant_report = {
  tenant : int;
  completed : int;
  mean_ns : float;
  p50_ns : float;
  p99_ns : float;
  p999_ns : float;
  max_ns : float;
  slo_miss : int;
  slo_miss_frac : float;
  lat_hist : Metrics.hist;
}

type report = {
  r_cfg : config;
  per_tenant : tenant_report array;
  elapsed_ns : float;
  throughput_rps : float;
  agg_p50_ns : float;
  agg_p99_ns : float;
  agg_p999_ns : float;
  agg_slo_miss_frac : float;
  checksum : int64;
}

(* Sizing.  Per-tenant data is one contiguous far allocation of
   [keys * value_bytes]; the section caches [local_ratio] of it. *)
let data_bytes cfg = cfg.keys * cfg.value_bytes

let round_up n m = (n + m - 1) / m * m

let sec_bytes cfg =
  let want = int_of_float (cfg.local_ratio *. float_of_int (data_bytes cfg)) in
  max (4 * cfg.line) (round_up want cfg.line)

let page = 4096
let site_of_tenant i = 9100 + i
let sec_id_of_tenant i = 7000 + i

let runtime_config cfg =
  let local_budget = (cfg.tenants * sec_bytes cfg) + (4 * page) in
  let far_capacity =
    (2 * page) + (cfg.tenants * (round_up (data_bytes cfg) page + page))
  in
  { (Runtime.config_default ~local_budget ~far_capacity) with
    Runtime.tenants = cfg.tenants }

(* Zipfian popularity: rank r (0-based) has weight (r+1)^-s.  Ranks are
   mapped onto key indices through a seed-deterministic permutation so
   the hot set is scattered over the keyspace (and thus over cache
   lines) instead of sitting in the first few lines. *)
type generator = { cum : float array; perm : int array }

let make_generator cfg rng =
  let cum = Array.make cfg.keys 0.0 in
  let total = ref 0.0 in
  for r = 0 to cfg.keys - 1 do
    total := !total +. (1.0 /. Float.pow (float_of_int (r + 1)) cfg.zipf_s);
    cum.(r) <- !total
  done;
  let perm = Array.init cfg.keys (fun i -> i) in
  Prng.shuffle rng perm;
  { cum; perm }

let draw_key g rng =
  let n = Array.length g.cum in
  let u = Prng.float rng g.cum.(n - 1) in
  (* first rank with cum > u *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if g.cum.(mid) > u then hi := mid else lo := mid + 1
  done;
  g.perm.(!lo)

let draw_interarrival rng mean =
  let u = Prng.float rng 1.0 in
  -.mean *. Float.log (1.0 -. u)

let mix64 x =
  let ( ^^^ ) a b = Int64.logxor a b in
  let x = x ^^^ Int64.shift_right_logical x 33 in
  let x = Int64.mul x 0xff51afd7ed558ccdL in
  let x = x ^^^ Int64.shift_right_logical x 33 in
  let x = Int64.mul x 0xc4ceb9fe1a85ec53L in
  x ^^^ Int64.shift_right_logical x 33

let value_of ~tenant ~key ~req ~word =
  mix64
    (Int64.of_int
       ((tenant * 0x1000003) lxor (key * 8191) lxor (req * 131) lxor word))

(* Mutable per-tenant run state, written by the task, read afterwards. *)
type tenant_state = {
  ts_lats : float array;
  mutable ts_checksum : int64;
  ts_hist : Metrics.hist;
  mutable ts_slo_miss : int;
}

let serving_lane i = Printf.sprintf "serving.t%d" i

(* --- time-resolved telemetry --------------------------------------------- *)

(* Windowed observability over a serving run: a sampler task on the
   scheduler closes a typed window at fixed simulated-time boundaries,
   and the per-request path records into the current window.  Entirely
   host-side — the sampler only reads shared state, and its clock is a
   scheduler clock outside the runtime's registry — so a run with a
   timeline attached is byte-identical (checksum, latencies, report)
   to one without. *)
module Timeline = struct
  (* A window "burns" when its SLO-miss fraction exceeds this. *)
  let burn_threshold = 0.01

  (* Closed windows kept before adjacent pairs merge. *)
  let ring_cap = 256

  (* Entries per hot-key list, and per list of a merged window. *)
  let topk = 8

  type tenant = {
    mutable requests : int;
    mutable slo_miss : int;
    (* sparse latency histogram: [Metrics.bucket_of] bucket -> count
       (a window sees a handful of distinct latencies) *)
    lat : (int, int) Hashtbl.t;
    mutable lat_max : float;
  }

  type window = {
    start : float;
    mutable span : float;  (* spans add under merging *)
    tenants : tenant array;
    mutable bytes : int;  (* wire bytes, both directions *)
    (* in-flight count sampled when the window closes; a merged window
       keeps the larger max and the later sample *)
    mutable inflight_max : int;
    mutable inflight_last : int;
    ifr : (int * int, int64) Hashtbl.t;  (* (waiter, holder) -> fp delta *)
    mutable top_keys : (string * int64) list;
    mutable top_miss_sites : (string * int64) list;
  }

  type t = {
    interval : float;
    keys : Sketch.t;  (* hot keys of the current window; reset per boundary *)
    (* wired by [attach], before the sampler runs *)
    mutable rt : Runtime.t option;
    mutable bandwidth : float;  (* bytes/ns, for the wire-busy fraction *)
    mutable window_cap : int;
    (* cumulative snapshots diffed at each boundary *)
    mutable prev_bytes : int;
    mutable prev_miss_sites : (string * int64) list;
    prev_ifr : (int * int, int64) Hashtbl.t;
    (* the bounded ring *)
    mutable cur : window;
    mutable closed : window list;  (* newest first *)
    mutable merges : int;  (* pairwise-merge passes performed *)
  }

  let fresh_window ~ntenants ~start =
    {
      start;
      span = 0.0;
      tenants =
        Array.init ntenants (fun _ ->
            { requests = 0; slo_miss = 0; lat = Hashtbl.create 8; lat_max = 0.0 });
      bytes = 0;
      inflight_max = 0;
      inflight_last = 0;
      ifr = Hashtbl.create 8;
      top_keys = [];
      top_miss_sites = [];
    }

  let make ?(interval_ns = 250_000.0) () =
    if not (interval_ns > 0.0) then
      fail "Timeline: interval_ns must be > 0 (got %g)" interval_ns;
    {
      interval = interval_ns;
      keys = Sketch.create ~k:topk;
      rt = None;
      bandwidth = 0.0;
      window_cap = 0;
      prev_bytes = 0;
      prev_miss_sites = [];
      prev_ifr = Hashtbl.create 16;
      cur = fresh_window ~ntenants:0 ~start:0.0;
      closed = [];
      merges = 0;
    }

  let interval_ns t = t.interval

  let attach t rt (cfg : config) =
    t.rt <- Some rt;
    t.bandwidth <- (Runtime.params rt).Mira_sim.Params.bandwidth_bytes_per_ns;
    t.window_cap <- (Net.dataplane (Runtime.net rt)).Net.window;
    t.cur <- fresh_window ~ntenants:cfg.tenants ~start:0.0

  let bump tbl k n =
    Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))

  (* Per-request instrumentation, called from the serving loop. *)
  let on_request t ~tenant ~key ~lat ~miss =
    let tn = t.cur.tenants.(tenant) in
    tn.requests <- tn.requests + 1;
    if miss then tn.slo_miss <- tn.slo_miss + 1;
    bump tn.lat (Metrics.bucket_of lat) 1;
    if lat > tn.lat_max then tn.lat_max <- lat;
    Sketch.touch t.keys (Printf.sprintf "t%d:k%d" tenant key)

  let entry_order (ka, ca) (kb, cb) =
    match Int64.compare cb ca with 0 -> String.compare ka kb | c -> c

  (* Per-window view of cumulative per-site miss counts: each site's
     count delta, heaviest first. *)
  let diff_snapshot prev cur =
    let tbl = Hashtbl.create 16 in
    List.iter (fun (k, c) -> Hashtbl.replace tbl k c) prev;
    List.filter_map
      (fun (k, c) ->
        let p = Option.value ~default:0L (Hashtbl.find_opt tbl k) in
        if Int64.compare c p > 0 then Some (k, Int64.sub c p) else None)
      cur
    |> List.sort entry_order

  (* Sample the net and convert the cumulative counters (bytes,
     interference cells, miss sites) into deltas for the current
     window.  Runs once per window, as it closes. *)
  let capture t ~now =
    let w = t.cur in
    match t.rt with
    | None -> ()
    | Some rt ->
      let net = Runtime.net rt in
      w.inflight_max <- Net.in_flight net ~now;
      w.inflight_last <- w.inflight_max;
      let s = Net.stats net in
      let bytes = s.Net.bytes_in + s.Net.bytes_out in
      w.bytes <- bytes - t.prev_bytes;
      t.prev_bytes <- bytes;
      List.iter
        (fun (wt, h, fp) ->
          let prev =
            Option.value ~default:0L (Hashtbl.find_opt t.prev_ifr (wt, h))
          in
          let d = Int64.sub fp prev in
          if d > 0L then begin
            Hashtbl.replace w.ifr (wt, h) d;
            Hashtbl.replace t.prev_ifr (wt, h) fp
          end)
        (Attribution.interference_cells (Runtime.attribution rt));
      let cur =
        List.filter_map
          (fun (site, (st : Profile.site_stat)) ->
            if st.Profile.misses > 0 then
              Some (Printf.sprintf "site%d" site, Int64.of_int st.Profile.misses)
            else None)
          (Profile.site_stats (Runtime.profile rt))
      in
      w.top_miss_sites <- diff_snapshot t.prev_miss_sites cur;
      t.prev_miss_sites <- cur

  (* --- the bounded ring ---------------------------------------------------- *)

  (* An empty list was never set.  Merging with one keeps the other
     as it is, so a miss-site delta that no merge touched still lists
     every site that missed in its window (more than [topk]). *)
  let merge_top a b =
    match (a, b) with
    | [], l | l, [] -> l
    | _ -> Sketch.merge_snapshots ~k:topk a b

  (* Merge [b] (the later window) into [a] (the earlier), in place. *)
  let merge_into a b =
    a.span <- a.span +. b.span;
    Array.iteri
      (fun i tb ->
        let ta = a.tenants.(i) in
        ta.requests <- ta.requests + tb.requests;
        ta.slo_miss <- ta.slo_miss + tb.slo_miss;
        Hashtbl.iter (bump ta.lat) tb.lat;
        ta.lat_max <- Float.max ta.lat_max tb.lat_max)
      b.tenants;
    a.bytes <- a.bytes + b.bytes;
    a.inflight_max <- max a.inflight_max b.inflight_max;
    a.inflight_last <- b.inflight_last;
    Hashtbl.iter
      (fun k v ->
        let prev = Option.value ~default:0L (Hashtbl.find_opt a.ifr k) in
        Hashtbl.replace a.ifr k (Int64.add prev v))
      b.ifr;
    a.top_keys <- merge_top a.top_keys b.top_keys;
    a.top_miss_sites <- merge_top a.top_miss_sites b.top_miss_sites

  (* Merge adjacent pairs oldest-first over the whole ring, halving the
     slot count (an odd newest window stays unpaired): the ring covers
     the whole run at a resolution that degrades by doubling. *)
  let downsample t =
    let rec pair acc = function
      | a :: b :: rest ->
        merge_into a b;
        pair (a :: acc) rest
      | [ last ] -> last :: acc
      | [] -> acc
    in
    t.closed <- pair [] (List.rev t.closed);
    t.merges <- t.merges + 1

  let close_current t ~now =
    let w = t.cur in
    w.span <- Float.max 0.0 (now -. w.start);
    if List.length t.closed >= ring_cap then downsample t;
    t.closed <- w :: t.closed

  (* Close the window ending at [now]: capture the deltas, install the
     hot-key snapshot, and open the next window. *)
  let boundary t ~now =
    capture t ~now;
    t.cur.top_keys <- Sketch.snapshot t.keys;
    Sketch.reset t.keys;
    close_current t ~now;
    t.cur <- fresh_window ~ntenants:(Array.length t.cur.tenants) ~start:now

  (* End of run: close the partial window past the last boundary, but
     only when it served requests (the key sketch is non-empty), so an
     idle tail never resurrects an empty window. *)
  let finish t ~now =
    let keys = Sketch.snapshot t.keys in
    if keys <> [] then begin
      t.cur.top_keys <- keys;
      Sketch.reset t.keys;
      capture t ~now;
      close_current t ~now:(Float.max now t.cur.start)
    end

  let windows t = List.rev t.closed

  (* --- per-window derived figures ---------------------------------------- *)

  (* Window percentile: the upper edge of the bucket holding the rank,
     clamped to the observed max — conservative (never under-reports)
     and deterministic. *)
  let percentile tn p =
    if tn.requests = 0 then 0.0
    else begin
      let rank =
        max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int tn.requests)))
      in
      let rec walk cum = function
        | [] -> tn.lat_max
        | (b, c) :: rest ->
          let cum = cum + c in
          if cum >= rank then Float.min (Metrics.bucket_hi b) tn.lat_max
          else walk cum rest
      in
      walk 0
        (List.sort compare (Hashtbl.fold (fun b c acc -> (b, c) :: acc) tn.lat []))
    end

  let miss_frac w =
    let sum f = Array.fold_left (fun acc tn -> acc + f tn) 0 w.tenants in
    let req = sum (fun tn -> tn.requests) in
    if req = 0 then 0.0
    else float_of_int (sum (fun tn -> tn.slo_miss)) /. float_of_int req

  let burning w = miss_frac w > burn_threshold

  let wire_busy t w =
    if t.bandwidth > 0.0 && w.span > 0.0 then
      float_of_int w.bytes /. t.bandwidth /. w.span
    else 0.0

  (* Saturation: with a bounded in-flight window, the closing sample
     pinned at the cap; with an unbounded window, the wire >= 95%
     busy. *)
  let saturated t w =
    if t.window_cap > 0 then w.inflight_max >= t.window_cap
    else wire_busy t w >= 0.95

  let first_start p t =
    List.find_map (fun w -> if p w then Some w.start else None) (windows t)

  let saturation_onset_ns t = first_start (saturated t) t
  let first_burn_ns t = first_start burning t

  (* --- JSONL export ------------------------------------------------------- *)

  let tenant_label w = if w < 0 then "-" else Printf.sprintf "t%d" w

  let top_json entries =
    Json.List
      (List.map
         (fun (k, c) ->
           Json.Obj
             [ ("key", Json.Str k); ("count", Json.Str (Int64.to_string c)) ])
         entries)

  (* Interference cells as nested waiter -> holder rows; fixed-point
     values export as decimal strings (int64-exact). *)
  let interference_json w =
    let cells =
      Hashtbl.fold (fun (wt, h) v acc -> (wt, h, v) :: acc) w.ifr []
      |> List.sort compare
    in
    let waiters = List.sort_uniq compare (List.map (fun (wt, _, _) -> wt) cells) in
    Json.Obj
      (List.map
         (fun wt ->
           ( tenant_label wt,
             Json.Obj
               (List.filter_map
                  (fun (wt', h, v) ->
                    if wt' = wt then
                      Some (tenant_label h, Json.Str (Int64.to_string v))
                    else None)
                  cells) ))
         waiters)

  let window_json t w =
    let tenant_json i tn =
      ( Printf.sprintf "t%d" i,
        Json.Obj
          [
            ("requests", Json.Int tn.requests);
            ("slo_miss", Json.Int tn.slo_miss);
            ("p50_ns", Json.Float (percentile tn 50.0));
            ("p99_ns", Json.Float (percentile tn 99.0));
          ] )
    in
    Json.Obj
      [
        ("type", Json.Str "window");
        ("start_ns", Json.Float w.start);
        ("span_ns", Json.Float w.span);
        ( "net",
          Json.Obj
            [
              ("inflight_max", Json.Float (float_of_int w.inflight_max));
              ("inflight_last", Json.Float (float_of_int w.inflight_last));
              ("bytes", Json.Str (string_of_int w.bytes));
              ("wire_busy", Json.Float (wire_busy t w));
            ] );
        ("tenants", Json.Obj (Array.to_list (Array.mapi tenant_json w.tenants)));
        ( "burn",
          Json.Obj
            [
              ("miss_frac", Json.Float (miss_frac w));
              ("burning", Json.Bool (burning w));
            ] );
        ("saturated", Json.Bool (saturated t w));
        ("top_keys", top_json w.top_keys);
        ("top_miss_sites", top_json w.top_miss_sites);
        ("interference", interference_json w);
      ]

  (* Trailing summary line: onset figures plus the exact fixed-point
     row-sum audit material (interference rows vs queue-stall ledger
     buckets), so a consumer can assert the invariant from the JSONL
     alone. *)
  let summary_json t ~rt =
    let attr = Runtime.attribution rt in
    let rows =
      match t.rt with
      | None -> []
      | Some _ ->
        List.map
          (fun (w, fp) ->
            ( tenant_label w,
              Json.Obj
                [
                  ("interference_fp", Json.Str (Int64.to_string fp));
                  ( "queueing_fp",
                    Json.Str
                      (Int64.to_string
                         (Attribution.tenant_cause_fp attr ~tenant:w
                            Attribution.Queueing)) );
                ] ))
          (Attribution.interference_rows attr)
    in
    let opt_ns = function Some v -> Json.Float v | None -> Json.Null in
    Json.Obj
      [
        ("type", Json.Str "summary");
        ("interval_ns", Json.Float t.interval);
        ("nwindows", Json.Int (List.length t.closed));
        ("merges", Json.Int t.merges);
        ("window_cap", Json.Int t.window_cap);
        ("burn_threshold", Json.Float burn_threshold);
        ("sat_onset_ns", opt_ns (saturation_onset_ns t));
        ("first_burn_ns", opt_ns (first_burn_ns t));
        ("tenant_rows", Json.Obj rows);
      ]

  let jsonl t ~rt =
    List.rev_map (window_json t) t.closed @ [ summary_json t ~rt ]
end

(* One tenant's open-loop serving task.  Runs as a scheduler task; every
   clock movement inside (waits, access costs, net stalls) yields to the
   globally earliest tenant. *)
let run_tenant ?timeline cfg (ms : Memsys.t) ~base ~tenant:i rng gen st =
  let c = ms.Memsys.clock ~tid:i in
  let site = site_of_tenant i in
  let fn = Printf.sprintf "kv_t%d" i in
  let words = cfg.value_bytes / 8 in
  ms.Memsys.enter ~tid:i fn;
  let arrival = ref 0.0 in
  for r = 0 to cfg.requests - 1 do
    arrival := !arrival +. draw_interarrival rng cfg.arrival_ns;
    if Clock.now c < !arrival then ignore (Clock.wait_until c !arrival);
    let key = draw_key gen rng in
    let addr = base + (key * cfg.value_bytes) in
    let is_get = Prng.float rng 1.0 < cfg.get_fraction in
    (* Request span, emitted retroactively and only for requests that
       stalled (missed, waited on a fill/fence): hit-only requests cost
       one bool read, and trace volume stays proportional to
       interesting events — the convention every layer follows. *)
    let traced = Trace.enabled () in
    let saved = if traced then Trace.current_ctx () else None in
    let trace = if traced then Trace.new_trace () else 0 in
    let span = if traced then Trace.new_span () else 0 in
    let stall0 = Clock.stalled_ns c in
    if traced then
      Trace.set_ctx
        (Some
           {
             Trace.sc_trace = trace;
             sc_span = span;
             sc_lane = serving_lane i;
             sc_flow = false;
           });
    let ptr w =
      { Memsys.space = Memsys.Far; addr = addr + (8 * w); site }
    in
    if is_get then begin
      let acc = ref 0L in
      for w = 0 to words - 1 do
        acc :=
          Int64.add !acc (ms.Memsys.load ~tid:i ~ptr:(ptr w) ~len:8 ~native:false)
      done;
      st.ts_checksum <- mix64 (Int64.add st.ts_checksum !acc)
    end
    else
      for w = 0 to words - 1 do
        ms.Memsys.store ~tid:i ~ptr:(ptr w) ~len:8 ~native:false
          ~value:(value_of ~tenant:i ~key ~req:r ~word:w)
      done;
    let finish = Clock.now c in
    let emitted = traced && Clock.stalled_ns c > stall0 in
    if traced then begin
      Trace.set_ctx saved;
      if emitted then
        Trace.span
          ~args:
            [
              ("tenant", Json.Int i);
              ("key", Json.Int key);
              ("op", Json.Str (if is_get then "get" else "put"));
            ]
          ~name:"request" ~cat:"serving" ~lane:(serving_lane i) ~trace ~span
          ~begin_ns:!arrival ~end_ns:finish ()
    end;
    let lat = finish -. !arrival in
    st.ts_lats.(r) <- lat;
    Metrics.hist_observe ~trace:(if emitted then trace else 0) st.ts_hist lat;
    let miss = lat > cfg.slo_ns in
    if miss then st.ts_slo_miss <- st.ts_slo_miss + 1;
    (match timeline with
    | Some tl -> Timeline.on_request tl ~tenant:i ~key ~lat ~miss
    | None -> ())
  done;
  ms.Memsys.exit_ ~tid:i fn

let run_on ?timeline rt cfg =
  validate cfg;
  if Runtime.tenants rt <> cfg.tenants then
    fail "runtime has %d tenants but config wants %d" (Runtime.tenants rt)
      cfg.tenants;
  let ms = Runtime.memsys rt in
  let sched = Runtime.sched rt in
  ms.Memsys.set_nthreads cfg.tenants;
  (* Setup: one section per tenant, then each tenant's far data, then
     zero the clocks so measurement starts at t=0 for every tenant. *)
  Runtime.configure rt
    {
      Manager.sections =
        List.init cfg.tenants (fun i ->
            ( Section.config_default ~sec_id:(sec_id_of_tenant i)
                ~name:(Printf.sprintf "kv%d" i) ~line:cfg.line ~size:(sec_bytes cfg),
              [ site_of_tenant i ] ));
      per_thread = [];
    };
  let bases =
    Array.init cfg.tenants (fun i ->
        (ms.Memsys.alloc ~tid:i ~site:(site_of_tenant i) ~bytes:(data_bytes cfg)
           ~heap:true)
          .Memsys.addr)
  in
  ms.Memsys.reset_timing ();
  let master = Prng.create cfg.seed in
  let gen = make_generator cfg master in
  let states =
    Array.init cfg.tenants (fun _ ->
        {
          ts_lats = Array.make cfg.requests 0.0;
          ts_checksum = 0L;
          ts_hist = Metrics.hist_create ();
          ts_slo_miss = 0;
        })
  in
  let rngs = Array.init cfg.tenants (fun _ -> Prng.split master) in
  for i = 0 to cfg.tenants - 1 do
    Sched.spawn sched ~tenant:i (fun () ->
        run_tenant ?timeline cfg ms ~base:bases.(i) ~tenant:i rngs.(i) gen
          states.(i))
  done;
  (* The window sampler: one extra task, one tenant id past the real
     ones, on a scheduler clock that is NOT in the runtime's clock
     registry — so [elapsed]/[clock_stall_ns] and every reported
     figure are untouched by its presence.  It wakes at each window
     boundary (after all earlier events have dispatched — the
     scheduler is earliest-first), flushes the closing window, and
     exits once every serving task has returned; the trailing partial
     window is flushed below at the run's true elapsed time. *)
  (match timeline with
  | None -> ()
  | Some tl ->
    Timeline.attach tl rt cfg;
    let sc = Sched.clock sched ~tenant:cfg.tenants in
    Sched.spawn sched ~tenant:cfg.tenants (fun () ->
        let k = ref 1 in
        while Sched.live sched > 1 do
          let b = float_of_int !k *. Timeline.interval_ns tl in
          ignore (Clock.wait_until sc b);
          if Sched.live sched > 1 then Timeline.boundary tl ~now:(Clock.now sc);
          incr k
        done));
  Sched.run sched;
  let elapsed = ms.Memsys.elapsed () in
  (match timeline with
  | Some tl -> Timeline.finish tl ~now:elapsed
  | None -> ());
  let per_tenant =
    Array.mapi
      (fun i st ->
        let q = Stats.percentiles st.ts_lats [| 50.0; 99.0; 99.9; 100.0 |] in
        {
          tenant = i;
          completed = cfg.requests;
          mean_ns = Stats.mean st.ts_lats;
          p50_ns = q.(0);
          p99_ns = q.(1);
          p999_ns = q.(2);
          max_ns = q.(3);
          slo_miss = st.ts_slo_miss;
          slo_miss_frac = float_of_int st.ts_slo_miss /. float_of_int cfg.requests;
          lat_hist = st.ts_hist;
        })
      states
  in
  let agg =
    Stats.percentiles
      (Array.concat (Array.to_list (Array.map (fun s -> s.ts_lats) states)))
      [| 50.0; 99.0; 99.9 |]
  in
  let total = cfg.tenants * cfg.requests in
  let misses = Array.fold_left (fun a s -> a + s.ts_slo_miss) 0 states in
  let checksum =
    Array.fold_left (fun a s -> mix64 (Int64.add a s.ts_checksum)) 0L states
  in
  {
    r_cfg = cfg;
    per_tenant;
    elapsed_ns = elapsed;
    throughput_rps =
      (if elapsed > 0.0 then float_of_int total /. (elapsed *. 1e-9) else 0.0);
    agg_p50_ns = agg.(0);
    agg_p99_ns = agg.(1);
    agg_p999_ns = agg.(2);
    agg_slo_miss_frac = float_of_int misses /. float_of_int total;
    checksum;
  }

let run cfg =
  validate cfg;
  run_on (Runtime.create (runtime_config cfg)) cfg

let publish r m =
  let total = Array.fold_left (fun a t -> a + t.completed) 0 r.per_tenant in
  let misses = Array.fold_left (fun a t -> a + t.slo_miss) 0 r.per_tenant in
  Metrics.set_counter m "serving.requests" total;
  Metrics.set_counter m "serving.slo_miss" misses;
  Array.iter
    (fun t ->
      Metrics.set_hist m
        (Printf.sprintf "serving.tenant%d.latency" t.tenant)
        t.lat_hist;
      Metrics.set_counter m
        (Printf.sprintf "serving.tenant%d.slo_miss" t.tenant)
        t.slo_miss)
    r.per_tenant

let report_json r =
  let tenant_json t =
    Json.Obj
      [
        ("tenant", Json.Int t.tenant);
        ("completed", Json.Int t.completed);
        ("mean_ns", Json.Float t.mean_ns);
        ("p50_ns", Json.Float t.p50_ns);
        ("p99_ns", Json.Float t.p99_ns);
        ("p999_ns", Json.Float t.p999_ns);
        ("max_ns", Json.Float t.max_ns);
        ("slo_miss", Json.Int t.slo_miss);
        ("slo_miss_frac", Json.Float t.slo_miss_frac);
      ]
  in
  Json.Obj
    [
      ("tenants", Json.Int r.r_cfg.tenants);
      ("requests_per_tenant", Json.Int r.r_cfg.requests);
      ("elapsed_ns", Json.Float r.elapsed_ns);
      ("throughput_rps", Json.Float r.throughput_rps);
      ("p50_ns", Json.Float r.agg_p50_ns);
      ("p99_ns", Json.Float r.agg_p99_ns);
      ("p999_ns", Json.Float r.agg_p999_ns);
      ("slo_ns", Json.Float r.r_cfg.slo_ns);
      ("slo_miss_frac", Json.Float r.agg_slo_miss_frac);
      ("checksum", Json.Str (Printf.sprintf "%016Lx" r.checksum));
      ("per_tenant", Json.List (Array.to_list (Array.map tenant_json r.per_tenant)));
    ]
