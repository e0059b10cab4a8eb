(* Tests for the runtime layer: the buffering local allocator,
   profiling counters, and the section-based memory system. *)
module Local_alloc = Mira_runtime.Local_alloc
module Profile = Mira_runtime.Profile
module Runtime = Mira_runtime.Runtime
module Memsys = Mira_runtime.Memsys
module Manager = Mira_cache.Manager
module Section = Mira_cache.Section
module Swap = Mira_cache.Swap_section
module Remote_alloc = Mira_sim.Remote_alloc

let test_local_alloc_buffers () =
  let remote = Remote_alloc.create ~base:0 ~limit:(1 lsl 20) in
  let la = Local_alloc.create remote ~chunk:4096 in
  let _, refilled1 = Local_alloc.alloc la 100 in
  Alcotest.(check bool) "first refills" true refilled1;
  let _, refilled2 = Local_alloc.alloc la 100 in
  Alcotest.(check bool) "second buffered" false refilled2;
  Alcotest.(check int) "one remote round trip" 1 (Local_alloc.refills la)

let test_local_alloc_reuse () =
  let remote = Remote_alloc.create ~base:0 ~limit:(1 lsl 20) in
  let la = Local_alloc.create remote ~chunk:4096 in
  let a, _ = Local_alloc.alloc la 256 in
  Local_alloc.free la ~addr:a ~len:256;
  let b, refilled = Local_alloc.alloc la 256 in
  Alcotest.(check bool) "reused without refill" false refilled;
  Alcotest.(check int) "same range" a b

let test_local_alloc_fallback () =
  (* When the remote space is smaller than the chunk, refill must fall
     back to the exact request instead of failing. *)
  let remote = Remote_alloc.create ~base:0 ~limit:1024 in
  let la = Local_alloc.create remote ~chunk:(1 lsl 20) in
  let _, refilled = Local_alloc.alloc la 512 in
  Alcotest.(check bool) "fallback worked" true refilled

let test_profile_attribution () =
  let p = Profile.create () in
  Profile.enter p ~tid:0 ~now:0.0 "outer";
  Profile.enter p ~tid:0 ~now:10.0 "inner";
  Profile.charge (Profile.stack p ~tid:0) ~ns:5.0;
  Profile.exit_ p ~tid:0 ~now:50.0 "inner";
  Profile.exit_ p ~tid:0 ~now:100.0 "outer";
  let stats = Profile.fn_stats p in
  let outer = List.assoc "outer" stats and inner = List.assoc "inner" stats in
  Alcotest.(check (float 1e-9)) "outer inclusive" 100.0 outer.Profile.total_ns;
  Alcotest.(check (float 1e-9)) "inner inclusive" 40.0 inner.Profile.total_ns;
  (* runtime time attributed to the whole stack *)
  Alcotest.(check (float 1e-9)) "outer runtime" 5.0 outer.Profile.runtime_ns;
  Alcotest.(check (float 1e-9)) "inner runtime" 5.0 inner.Profile.runtime_ns

(* A frame skips the set lookup for a repeated site; every site still
   lands in the touched set of every open function, and a reset starts
   the sets afresh. *)
let test_profile_touched_sites () =
  let p = Profile.create () in
  let sites name = List.sort compare (Profile.largest_sites p ~frac:1.0 ~among:[ name ]) in
  Profile.enter p ~tid:0 ~now:0.0 "outer";
  Profile.enter p ~tid:0 ~now:1.0 "inner";
  List.iter (fun site -> Profile.touch (Profile.stack p ~tid:0) ~site) [ 3; 3; 1; 3; 1 ];
  Profile.exit_ p ~tid:0 ~now:2.0 "inner";
  Profile.touch (Profile.stack p ~tid:0) ~site:2;
  Alcotest.(check (list int)) "inner" [ 1; 3 ] (sites "inner");
  Alcotest.(check (list int)) "outer" [ 1; 2; 3 ] (sites "outer");
  Profile.reset p;
  Profile.enter p ~tid:0 ~now:0.0 "outer";
  Profile.touch (Profile.stack p ~tid:0) ~site:2;
  Alcotest.(check (list int)) "after reset" [ 2 ] (sites "outer")

let test_profile_selection () =
  let p = Profile.create () in
  Profile.enter p ~tid:0 ~now:0.0 "hot";
  Profile.touch (Profile.stack p ~tid:0) ~site:1;
  Profile.charge (Profile.stack p ~tid:0) ~ns:1000.0;
  Profile.add_site_overhead p ~site:1 ~ns:1000.0;
  Profile.exit_ p ~tid:0 ~now:1100.0 "hot";
  Profile.enter p ~tid:0 ~now:1100.0 "cold";
  Profile.touch (Profile.stack p ~tid:0) ~site:2;
  Profile.charge (Profile.stack p ~tid:0) ~ns:10.0;
  Profile.add_site_overhead p ~site:2 ~ns:10.0;
  Profile.exit_ p ~tid:0 ~now:2200.0 "cold";
  Profile.add_alloc p ~site:1 ~bytes:100;
  Profile.add_alloc p ~site:2 ~bytes:1_000_000;
  (match Profile.top_functions p ~frac:0.5 with
  | [ f ] -> Alcotest.(check string) "hot first" "hot" f
  | other -> Alcotest.failf "expected 1 function, got %d" (List.length other));
  (* overhead outranks size *)
  match Profile.largest_sites p ~frac:0.5 ~among:[ "hot"; "cold" ] with
  | [ s ] -> Alcotest.(check int) "costliest site" 1 s
  | other -> Alcotest.failf "expected 1 site, got %d" (List.length other)

(* Readahead off, so each test sees only the pages it touches. *)
let make_runtime ?(budget = 1 lsl 16) () =
  let rt =
    Runtime.create (Runtime.config_default ~local_budget:budget ~far_capacity:(1 lsl 20))
  in
  Swap.set_readahead (Manager.swap (Runtime.manager rt)) (fun _ -> (1, 0));
  rt

let test_runtime_alloc_load_store () =
  let rt = make_runtime () in
  let ms = Runtime.memsys rt in
  let ptr = ms.Memsys.alloc ~tid:0 ~site:1 ~bytes:4096 ~heap:true in
  Alcotest.(check bool) "far" true (ptr.Memsys.space = Memsys.Far);
  ms.Memsys.store ~tid:0 ~ptr ~len:8 ~native:false ~value:77L;
  Alcotest.(check int64) "read" 77L (ms.Memsys.load ~tid:0 ~ptr ~len:8 ~native:false);
  let sptr = ms.Memsys.alloc ~tid:0 ~site:2 ~bytes:64 ~heap:false in
  Alcotest.(check bool) "stack local" true (sptr.Memsys.space = Memsys.Local);
  ms.Memsys.store ~tid:0 ~ptr:sptr ~len:8 ~native:false ~value:5L;
  Alcotest.(check int64) "stack read" 5L
    (ms.Memsys.load ~tid:0 ~ptr:sptr ~len:8 ~native:false)

let test_runtime_section_routing () =
  let rt = make_runtime () in
  let ms = Runtime.memsys rt in
  let mgr = Runtime.manager rt in
  let cfg = Section.config_default ~sec_id:1 ~name:"s" ~line:64 ~size:4096 in
  Runtime.configure rt { Manager.sections = [ (cfg, [ 7 ]) ]; per_thread = [] };
  let ptr = ms.Memsys.alloc ~tid:0 ~site:7 ~bytes:1024 ~heap:true in
  ms.Memsys.store ~tid:0 ~ptr ~len:8 ~native:false ~value:3L;
  let section = Option.get (Manager.find_section mgr ~id:1) in
  Alcotest.(check bool) "went through the section" true
    ((Section.stats section).Section.misses > 0);
  Alcotest.(check int64) "value" 3L (ms.Memsys.load ~tid:0 ~ptr ~len:8 ~native:false)

let test_runtime_free_reuses () =
  let rt = make_runtime () in
  let ms = Runtime.memsys rt in
  let ptr = ms.Memsys.alloc ~tid:0 ~site:1 ~bytes:1024 ~heap:true in
  ms.Memsys.free ~tid:0 ~ptr;
  let ptr2 = ms.Memsys.alloc ~tid:0 ~site:1 ~bytes:1024 ~heap:true in
  Alcotest.(check int) "address reused" ptr.Memsys.addr ptr2.Memsys.addr

let test_runtime_flush_discard_sites () =
  let rt = make_runtime () in
  let ms = Runtime.memsys rt in
  let far = Runtime.far_store rt in
  let ptr = ms.Memsys.alloc ~tid:0 ~site:3 ~bytes:256 ~heap:true in
  ms.Memsys.store ~tid:0 ~ptr ~len:8 ~native:false ~value:11L;
  ms.Memsys.flush_sites ~tid:0 ~sites:[ 3 ];
  Alcotest.(check int64) "flushed to far" 11L
    (Mira_sim.Far_store.read_le far ~addr:ptr.Memsys.addr ~len:8);
  (* Far-side mutation then discard: next load must see the new value. *)
  Mira_sim.Far_store.write_le far ~addr:ptr.Memsys.addr ~len:8 22L;
  ms.Memsys.discard_sites ~tid:0 ~sites:[ 3 ];
  Alcotest.(check int64) "sees far mutation" 22L
    (ms.Memsys.load ~tid:0 ~ptr ~len:8 ~native:false)

let test_runtime_offload_mode () =
  let rt = make_runtime () in
  let ms = Runtime.memsys rt in
  let ptr = ms.Memsys.alloc ~tid:0 ~site:1 ~bytes:256 ~heap:true in
  ms.Memsys.store ~tid:0 ~ptr ~len:8 ~native:false ~value:1L;
  ms.Memsys.flush_sites ~tid:0 ~sites:[ 1 ];
  ms.Memsys.offload_begin ~tid:0;
  (* Offloaded accesses are far-node local: no cache involvement. *)
  ms.Memsys.store ~tid:0 ~ptr ~len:8 ~native:false ~value:42L;
  Alcotest.(check int64) "far-node read" 42L
    (ms.Memsys.load ~tid:0 ~ptr ~len:8 ~native:false);
  ms.Memsys.offload_end ~tid:0;
  ms.Memsys.discard_sites ~tid:0 ~sites:[ 1 ];
  Alcotest.(check int64) "local node sees far write" 42L
    (ms.Memsys.load ~tid:0 ~ptr ~len:8 ~native:false)

let test_runtime_reset_timing () =
  let rt = make_runtime () in
  let ms = Runtime.memsys rt in
  let ptr = ms.Memsys.alloc ~tid:0 ~site:1 ~bytes:256 ~heap:true in
  ms.Memsys.store ~tid:0 ~ptr ~len:8 ~native:false ~value:9L;
  Alcotest.(check bool) "time advanced" true (ms.Memsys.elapsed () > 0.0);
  ms.Memsys.reset_timing ();
  Alcotest.(check (float 0.0)) "clocks zeroed" 0.0 (ms.Memsys.elapsed ());
  Alcotest.(check int64) "data kept" 9L
    (ms.Memsys.load ~tid:0 ~ptr ~len:8 ~native:false)

let test_runtime_private_sections () =
  let rt = make_runtime () in
  let ms = Runtime.memsys rt in
  let mgr = Runtime.manager rt in
  let sec id = (Section.config_default ~sec_id:id ~name:"p" ~line:64 ~size:2048, []) in
  Runtime.configure rt { Manager.sections = [ sec 1; sec 2 ]; per_thread = [ (5, [| 1; 2 |]) ] };
  let ptr = ms.Memsys.alloc ~tid:0 ~site:5 ~bytes:512 ~heap:true in
  ignore (ms.Memsys.load ~tid:0 ~ptr ~len:8 ~native:false);
  ignore (ms.Memsys.load ~tid:1 ~ptr ~len:8 ~native:false);
  let s1 = Option.get (Manager.find_section mgr ~id:1) in
  let s2 = Option.get (Manager.find_section mgr ~id:2) in
  Alcotest.(check int) "tid0 in section 1" 1 (Section.stats s1).Section.misses;
  Alcotest.(check int) "tid1 in section 2" 1 (Section.stats s2).Section.misses

(* One configure call, before the first allocation, sets the layout;
   a layout that cannot be built fails with the reason. *)
let test_runtime_configure_validation () =
  let sec ?(size = 2048) id =
    (Section.config_default ~sec_id:id ~name:"v" ~line:64 ~size, [])
  in
  let configure_fresh layout = Runtime.configure (make_runtime ()) layout in
  Alcotest.check_raises "over budget"
    (Failure "section 2 (65536 B) exceeds local budget (2048 B used of 65536)")
    (fun () ->
      configure_fresh { Manager.sections = [ sec 1; sec ~size:65536 2 ]; per_thread = [] });
  Alcotest.check_raises "duplicate id" (Failure "section 1 already exists") (fun () ->
      configure_fresh { Manager.sections = [ sec 1; sec 1 ]; per_thread = [] });
  Alcotest.check_raises "no per-thread ids"
    (Invalid_argument "Manager.configure: site 9 needs at least one section id")
    (fun () -> configure_fresh { Manager.sections = [ sec 1 ]; per_thread = [ (9, [||]) ] });
  let rt = make_runtime () in
  Runtime.configure rt { Manager.sections = [ sec 1 ]; per_thread = [] };
  Alcotest.check_raises "second call"
    (Invalid_argument "Manager.configure: the layout is already set") (fun () ->
      Runtime.configure rt { Manager.sections = []; per_thread = [] });
  let rt = make_runtime () in
  ignore ((Runtime.memsys rt).Memsys.alloc ~tid:0 ~site:1 ~bytes:64 ~heap:true);
  Alcotest.check_raises "after the first allocation"
    (Invalid_argument "Runtime.configure: the runtime has already allocated") (fun () ->
      Runtime.configure rt { Manager.sections = [ sec 1 ]; per_thread = [] })

(* Allocation guard for the hit path: minor words per resident section
   load through [Runtime.memsys], 1 tenant, untraced, on a whole-line
   section and on a payload section (packed slots, remapped offsets).
   It was 85 words when every access made ~10 generic-hash lookups, and
   19 (dev profile; release 17) when the section's lookup returned an
   option and every clock move boxed the new time.  The pin is the dev
   profile's 17 words (the clock reads it cannot inline, the float
   counters and the boxed int64 result); the release profile, with
   cross-module inlining, allocates 11. *)
let hit_words_pinned = 17.0

let test_runtime_hit_words () =
  let whole = Section.config_default ~sec_id:1 ~name:"r" ~line:64 ~size:2048 in
  let payload =
    { whole with Section.payload = Some [ (0, 8); (32, 8) ]; side = Mira_sim.Net.Two_sided }
  in
  List.iter
    (fun (name, cfg) ->
      let rt = make_runtime () in
      let ms = Runtime.memsys rt in
      let mgr = Runtime.manager rt in
      Runtime.configure rt { Manager.sections = [ (cfg, [ 4 ]) ]; per_thread = [] };
      let base = ms.Memsys.alloc ~tid:0 ~site:4 ~bytes:1024 ~heap:true in
      let ptrs =
        Array.init 16 (fun i ->
            { base with Memsys.addr = base.Memsys.addr + (64 * i) + (32 * (i land 1)) })
      in
      ms.Memsys.enter ~tid:0 "f";
      Array.iter (fun ptr -> ignore (ms.Memsys.load ~tid:0 ~ptr ~len:8 ~native:false)) ptrs;
      let n = 4096 in
      let w0 = Gc.minor_words () in
      for i = 0 to n - 1 do
        ignore (ms.Memsys.load ~tid:0 ~ptr:ptrs.(i land 15) ~len:8 ~native:false)
      done;
      let words = (Gc.minor_words () -. w0) /. float_of_int n in
      let section = Option.get (Manager.find_section mgr ~id:1) in
      Alcotest.(check int) (name ^ ": all hits") n ((Section.stats section).Section.hits);
      if words > hit_words_pinned then
        Alcotest.failf "%s: %.2f minor words per section hit, pinned at %.0f" name
          words hit_words_pinned)
    [ ("whole line", whole); ("payload", payload) ]

(* Allocation guard for a real scheduler yield on a runtime: 4 tenants
   a quarter ns apart, each moving its clock 64 times by 1 ns, so every
   move parks its task and resumes the next one, and the parked entry
   saves the trace context and the ledger's fn/site/tenant each time.
   Minor words per dispatch: what a park and resume allocate (the
   effect, the parked entry with its saved context).  It was 46.0 in
   both profiles when the scheduler keyed entries by boxed int64 ticks
   and every clock move boxed its time, and 43.1 (dev) and 41.1
   (release) while a runtime hook returned a restore closure per park;
   now 30.2 (dev) and 28.2 (release), and the pin is the larger,
   rounded up. *)
let yield_words_pinned = 31.0

let test_sched_yield_words () =
  let module Sched = Mira_sim.Sched in
  let module Clock = Mira_sim.Clock in
  let rt =
    Runtime.create
      { (Runtime.config_default ~local_budget:(1 lsl 20) ~far_capacity:(1 lsl 22)) with
        Runtime.tenants = 4 }
  in
  let ms = Runtime.memsys rt and sched = Runtime.sched rt in
  let clocks = Array.init 4 (fun tid -> ms.Memsys.clock ~tid) in
  Array.iteri (fun i c -> ignore (Clock.wait_until c (float_of_int i *. 0.25))) clocks;
  let run () =
    Array.iteri
      (fun tenant c ->
        Sched.spawn sched ~tenant (fun () ->
            for _ = 1 to 64 do
              Clock.advance c 1.0
            done))
      clocks;
    Sched.run sched
  in
  (* the first run grows the event queue to its working size *)
  run ();
  let d0 = Sched.dispatched sched and w0 = Gc.minor_words () in
  run ();
  let words = (Gc.minor_words () -. w0) /. float_of_int (Sched.dispatched sched - d0) in
  if words > yield_words_pinned then
    Alcotest.failf "%.2f minor words per scheduler yield, pinned at %.0f" words
      yield_words_pinned

(* Allocation guard for the interpreter's compute path, through Mira's
   runtime: a loop of register arithmetic that never touches memory.
   What is left per op is the value it boxes (5 words for an int); the
   clock keeps its time unboxed.  It was 13 words when every op charged
   through [op_cost], and 7.67 while every charge boxed the new time.
   It reads 5.01 in both profiles, before and after each op got a
   closure of its own: per iteration the add, the multiply and the loop
   index box 5 words each, and the compare's bool is static. *)
let compute_words_pinned = 6.0

let test_compute_op_words () =
  let module B = Mira_mir.Builder in
  let module Ir = Mira_mir.Ir in
  let module Machine = Mira_interp.Machine in
  let b = B.program "compute" in
  B.func b "main" [] Mira_mir.Types.I64 (fun fb _ ->
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst 20_000) (fun i ->
          let x = B.bin fb Ir.Add i (B.iconst 7) in
          let y = B.bin fb Ir.Mul x (B.iconst 3) in
          ignore (B.cmp fb Ir.Lt y (B.iconst 1000)));
      B.ret fb (B.iconst 0));
  let prog = B.finish b ~entry:"main" in
  let ms = Runtime.memsys (make_runtime ()) in
  let machine = Machine.create ms prog in
  let w0 = Gc.minor_words () in
  ignore (Machine.run machine);
  let words = (Gc.minor_words () -. w0) /. float_of_int (Machine.ops_executed machine) in
  if words > compute_words_pinned then
    Alcotest.failf "%.2f minor words per compute op, pinned at %.0f" words
      compute_words_pinned

(* Allocation guard for one serving report's latency figures, read the
   way [Kv_serving.run_on] reads them: p50/p99/p999/max of each of 4
   tenants' 10k latencies, then p50/p99/p999 of the 40k aggregate.
   Each array's needed ranks are selected in one copy, boxing nothing.
   The copies and the aggregate go straight to the major heap, so the
   minor words left are a few small result arrays: 0.0032 a request in
   both profiles (0.0051 while each array was sorted).  It was ~560
   when each figure copied its array and ran the generic sort over
   boxed floats. *)
let report_words_pinned = 0.004

let test_serving_report_words () =
  let tenants = 4 and requests = 10_000 in
  let rng = Mira_util.Prng.create 3 in
  let lats =
    Array.init tenants (fun _ ->
        Array.init requests (fun _ -> 1e3 +. Mira_util.Prng.float rng 5e4))
  in
  let w0 = Gc.minor_words () in
  Array.iter
    (fun l -> ignore (Mira_util.Stats.percentiles l [| 50.0; 99.0; 99.9; 100.0 |]))
    lats;
  ignore
    (Mira_util.Stats.percentiles
       (Array.concat (Array.to_list lats))
       [| 50.0; 99.0; 99.9 |]);
  let words = (Gc.minor_words () -. w0) /. float_of_int (tenants * requests) in
  if words > report_words_pinned then
    Alcotest.failf
      "%.4f minor words per request for the report's percentiles, pinned at %.3f"
      words report_words_pinned

(* Refactor oracle for the swap page path: a FastSwap-configured
   runtime (8-page readahead) over a 6-frame pool moves pages through
   faults, readahead, CLOCK evictions with writebacks, an evict hint
   and a discard (a freed object).  Every figure below was recorded
   before the path was rewritten for host time; a rewrite must
   reproduce each one exactly, float bits included.  Run on the default
   data plane on a windowed,
   doorbell-batched one, and on a lossy one that retries. *)
let swap_path_figures dataplane =
  let rt =
    Runtime.create
      { (Runtime.config_default ~local_budget:(6 * 4096) ~far_capacity:(1 lsl 20)) with
        Runtime.dataplane }
  in
  let ms = Runtime.memsys rt in
  let page = 4096 in
  let obj = ms.Memsys.alloc ~tid:0 ~site:1 ~bytes:(40 * page) ~heap:true in
  let tmp = ms.Memsys.alloc ~tid:0 ~site:2 ~bytes:(3 * page) ~heap:true in
  let at base off = { base with Memsys.addr = base.Memsys.addr + off } in
  let sum = ref 0L in
  let load ptr =
    let v = ms.Memsys.load ~tid:0 ~ptr ~len:8 ~native:false in
    sum := Int64.add (Int64.mul !sum 31L) v
  in
  let store ptr v = ms.Memsys.store ~tid:0 ~ptr ~len:8 ~native:false ~value:v in
  for i = 0 to 39 do
    store (at obj ((i * 7 mod 40 * page) + (8 * i))) (Int64.of_int ((i * 131) + 5))
  done;
  for i = 0 to 2 do
    store (at tmp ((i * page) + 16)) (Int64.of_int (900 + i))
  done;
  ms.Memsys.flush_evict ~tid:0 ~ptr:(at obj (3 * page)) ~len:(2 * page);
  ms.Memsys.free ~tid:0 ~ptr:tmp;
  for i = 0 to 39 do
    load (at obj ((i * 13 mod 40 * page) + (8 * (i * 13 mod 40 * 7 mod 40))))
  done;
  for i = 0 to 39 do
    load (at obj ((i * page) + (8 * (i * 3 mod 40))))
  done;
  let sw = Swap.stats (Manager.swap (Runtime.manager rt)) in
  let net = Mira_sim.Net.stats (Runtime.net rt) in
  let module H = Mira_telemetry.Metrics in
  let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f) in
  (* a histogram's whole JSON rendering: count, moments, percentiles *)
  let digest hs =
    Digest.to_hex
      (Digest.string
         (String.concat "|"
            (List.map (fun h -> Mira_telemetry.Json.to_string (H.hist_to_json h)) hs)))
  in
  [
    ("swap hits", string_of_int sw.Swap.hits);
    ("swap faults", string_of_int sw.Swap.faults);
    ("swap readahead", string_of_int sw.Swap.readahead_pages);
    ("swap late readahead", string_of_int sw.Swap.late_readahead);
    ("swap evictions", string_of_int sw.Swap.evictions);
    ("swap writebacks", string_of_int sw.Swap.writebacks);
    ("swap bytes fetched", string_of_int sw.Swap.bytes_fetched);
    ("swap fault ns", bits sw.Swap.fault_ns);
    ("swap stall ns", bits sw.Swap.stall_ns);
    ("swap fault hist", digest [ sw.Swap.lat_fault ]);
    ("net msgs", string_of_int net.Mira_sim.Net.msg_count);
    ("net bytes in", string_of_int net.Mira_sim.Net.bytes_in);
    ("net bytes out", string_of_int net.Mira_sim.Net.bytes_out);
    ("net prefetch bytes", string_of_int net.Mira_sim.Net.bytes_prefetch);
    ("net writeback bytes", string_of_int net.Mira_sim.Net.bytes_writeback);
    ("net doorbells", string_of_int net.Mira_sim.Net.doorbells);
    ("net coalesced", string_of_int net.Mira_sim.Net.coalesced);
    ("net retries", string_of_int net.Mira_sim.Net.retries);
    ("net timeouts", string_of_int net.Mira_sim.Net.timeouts);
    ( "net hists",
      digest Mira_sim.Net.[ net.lat_fetch; net.lat_rtt; net.lat_attempt; net.occupancy ] );
    ("clock ns", bits (Mira_sim.Clock.now (ms.Memsys.clock ~tid:0)));
    ("loaded", Int64.to_string !sum);
  ]

let test_swap_path_oracle () =
  List.iter
    (fun (name, dp, expected) ->
      let got = swap_path_figures dp in
      List.iter2
        (fun (what, want) (_, v) -> Alcotest.(check string) (name ^ ": " ^ what) want v)
        expected got)
    [
      ( "default",
        Mira_sim.Net.dp_default,
        [
          ("swap hits", "20");
          ("swap faults", "103");
          ("swap readahead", "721");
          ("swap late readahead", "20");
          ("swap evictions", "920");
          ("swap writebacks", "42");
          ("swap bytes fetched", "3375104");
          ("swap fault ns", "4132e67c147ae153");
          ("swap stall ns", "41046625c28f5bee");
          ("swap fault hist", "f9b4dd14c2b47a2b0a82b80ecd17f68e");
          ("net msgs", "868");
          ("net bytes in", "3375136");
          ("net bytes out", "172032");
          ("net prefetch bytes", "2953216");
          ("net writeback bytes", "172032");
          ("net doorbells", "868");
          ("net coalesced", "0");
          ("net retries", "0");
          ("net timeouts", "0");
          ("net hists", "ae082967613f458ab30b9604403a3b4f");
          ("clock ns", "41359060851eb855");
          ("loaded", "5265751334333014372");
        ] );
      ( "batched",
        { Mira_sim.Net.window = 4; coalesce = true; fault = None },
        [
          ("swap hits", "42");
          ("swap faults", "81");
          ("swap readahead", "513");
          ("swap late readahead", "33");
          ("swap evictions", "650");
          ("swap writebacks", "41");
          ("swap bytes fetched", "2433024");
          ("swap fault ns", "412cff5051eb851e");
          ("swap stall ns", "410b3608f5c28f57");
          ("swap fault hist", "4819afb8e830b5e82f0541564e222a8b");
          ("net msgs", "205");
          ("net bytes in", "2433056");
          ("net bytes out", "167936");
          ("net prefetch bytes", "2101248");
          ("net writeback bytes", "167936");
          ("net doorbells", "205");
          ("net coalesced", "432");
          ("net retries", "0");
          ("net timeouts", "0");
          ("net hists", "5ed1e60c2854a93bdb18eab18cc84422");
          ("clock ns", "41320388ffffffff");
          ("loaded", "5265751334333014372");
        ] );
      ( "lossy",
        {
          Mira_sim.Net.window = 0;
          coalesce = false;
          fault =
            Some
              { Mira_sim.Net.Fault.default with drop_prob = 0.05; delay_prob = 0.1; delay_ns = 500.0 };
        },
        [
          ("swap hits", "20");
          ("swap faults", "103");
          ("swap readahead", "721");
          ("swap late readahead", "20");
          ("swap evictions", "920");
          ("swap writebacks", "42");
          ("swap bytes fetched", "3375104");
          ("swap fault ns", "414476be5c28f5ba");
          ("swap stall ns", "412323e2e147ae04");
          ("swap fault hist", "367c7e6ca052c24325271bd7882a6842");
          ("net msgs", "913");
          ("net bytes in", "3551264");
          ("net bytes out", "180224");
          ("net prefetch bytes", "3108864");
          ("net writeback bytes", "180224");
          ("net doorbells", "868");
          ("net coalesced", "0");
          ("net retries", "45");
          ("net timeouts", "0");
          ("net hists", "5ed4f5e98d9da31910a8f72ddeaab3f9");
          ("clock ns", "41494e46f0a3d6fd");
          ("loaded", "5265751334333014372");
        ] );
    ]

(* Allocation guard for the page path, next to the oracle above: minor
   words per page moved (faulted or read ahead) through [Runtime.memsys]
   on a FastSwap-configured runtime, streaming 512 pages through 16
   frames with one store in four, so every page moved also evicts one
   and a quarter write back.  The figure includes the access's own
   wrapper (see [hit_words_pinned]).  It was 244 words when
   every message built a completion, boxed its float tuples and hashed
   its id, and every fault built its readahead list and closures.  The
   dev profile allocates 135.5 words a page and the release profile
   127.8 (138.8 and 133.0 while every clock move boxed the new time);
   the pin is the larger, rounded up. *)
let page_words_pinned = 136.0

let test_swap_page_words () =
  let page = 4096 in
  let rt =
    Runtime.create (Runtime.config_default ~local_budget:(16 * page) ~far_capacity:(1 lsl 22))
  in
  let ms = Runtime.memsys rt in
  let base = ms.Memsys.alloc ~tid:0 ~site:1 ~bytes:(512 * page) ~heap:true in
  ms.Memsys.enter ~tid:0 "f";
  let pass () =
    for i = 0 to 511 do
      let ptr = { base with Memsys.addr = base.Memsys.addr + (i * page) + (8 * (i land 7)) } in
      if i land 3 = 0 then ms.Memsys.store ~tid:0 ~ptr ~len:8 ~native:false ~value:1L
      else ignore (ms.Memsys.load ~tid:0 ~ptr ~len:8 ~native:false)
    done
  in
  pass ();
  let sw = Swap.stats (Manager.swap (Runtime.manager rt)) in
  let moved () = sw.Swap.faults + sw.Swap.readahead_pages in
  let m0 = moved () and w0 = Gc.minor_words () in
  for _ = 1 to 8 do
    pass ()
  done;
  let m = moved () - m0 in
  let words = (Gc.minor_words () -. w0) /. float_of_int m in
  Alcotest.(check int) "every access moves a page" (8 * 512) m;
  if words > page_words_pinned then
    Alcotest.failf "%.2f minor words per page moved, pinned at %.0f" words page_words_pinned

(* Regression: objects must never share a swap page / section line —
   two incoherent cached copies of the overlap would clobber each other
   (found by the DataFrame checksum guard). *)
let test_runtime_no_page_sharing () =
  let rt = make_runtime () in
  let ms = Runtime.memsys rt in
  Runtime.configure rt
    {
      Manager.sections =
        [ (Section.config_default ~sec_id:1 ~name:"s" ~line:2048 ~size:8192, [ 1 ]) ];
      per_thread = [];
    };
  (* site 1 sectioned, site 2 on swap, allocated back to back *)
  let p1 = ms.Memsys.alloc ~tid:0 ~site:1 ~bytes:24 ~heap:true in
  let p2 = ms.Memsys.alloc ~tid:0 ~site:2 ~bytes:24 ~heap:true in
  Alcotest.(check bool) "page aligned" true (p1.Memsys.addr mod 4096 = 0);
  Alcotest.(check bool) "no shared page" true
    (p1.Memsys.addr / 4096 <> p2.Memsys.addr / 4096);
  (* interleaved writes through the two paths stay coherent *)
  ms.Memsys.store ~tid:0 ~ptr:p1 ~len:8 ~native:false ~value:1L;
  ms.Memsys.store ~tid:0 ~ptr:p2 ~len:8 ~native:false ~value:2L;
  ms.Memsys.flush_sites ~tid:0 ~sites:[ 1; 2 ];
  Alcotest.(check int64) "site1 intact" 1L
    (ms.Memsys.load ~tid:0 ~ptr:p1 ~len:8 ~native:false);
  Alcotest.(check int64) "site2 intact" 2L
    (ms.Memsys.load ~tid:0 ~ptr:p2 ~len:8 ~native:false)

(* The swap page is the cost model's page: a runtime built with 8 KiB
   pages swaps and segregates allocations at 8 KiB. *)
let test_runtime_page_from_params () =
  let params = { Mira_sim.Params.default with Mira_sim.Params.page_size = 8192 } in
  let rt =
    Runtime.create
      { (Runtime.config_default ~local_budget:(1 lsl 16) ~far_capacity:(1 lsl 20)) with
        Runtime.params }
  in
  let swap = Manager.swap (Runtime.manager rt) in
  Alcotest.(check int) "swap page" 8192 (Swap.config swap).Swap.page;
  let ms = Runtime.memsys rt in
  let p1 = ms.Memsys.alloc ~tid:0 ~site:1 ~bytes:24 ~heap:true in
  let p2 = ms.Memsys.alloc ~tid:0 ~site:2 ~bytes:24 ~heap:true in
  Alcotest.(check int) "allocations one page apart" 8192
    (p2.Memsys.addr - p1.Memsys.addr);
  ms.Memsys.store ~tid:0 ~ptr:p2 ~len:8 ~native:false ~value:9L;
  Alcotest.(check int) "one fault for the page" 1 (Swap.stats swap).Swap.faults;
  (* the faulting page and the rest of its 8-page readahead cluster *)
  Alcotest.(check int) "8 KiB per page fetched" (8 * 8192)
    (Swap.stats swap).Swap.bytes_fetched

let test_runtime_rejects_zero_tenants () =
  Alcotest.check_raises "tenants 0"
    (Invalid_argument "Runtime.create: 0 tenants (need >= 1)") (fun () ->
      ignore
        (Runtime.create
           { (Runtime.config_default ~local_budget:(1 lsl 16) ~far_capacity:(1 lsl 20)) with
             Runtime.tenants = 0 }))

let suite =
  [
    Alcotest.test_case "local_alloc buffers" `Quick test_local_alloc_buffers;
    Alcotest.test_case "local_alloc reuse" `Quick test_local_alloc_reuse;
    Alcotest.test_case "local_alloc fallback" `Quick test_local_alloc_fallback;
    Alcotest.test_case "profile attribution" `Quick test_profile_attribution;
    Alcotest.test_case "profile selection" `Quick test_profile_selection;
    Alcotest.test_case "profile touched sites" `Quick test_profile_touched_sites;
    Alcotest.test_case "runtime alloc/load/store" `Quick test_runtime_alloc_load_store;
    Alcotest.test_case "runtime section routing" `Quick test_runtime_section_routing;
    Alcotest.test_case "runtime free reuse" `Quick test_runtime_free_reuses;
    Alcotest.test_case "runtime flush/discard" `Quick test_runtime_flush_discard_sites;
    Alcotest.test_case "runtime offload mode" `Quick test_runtime_offload_mode;
    Alcotest.test_case "runtime reset timing" `Quick test_runtime_reset_timing;
    Alcotest.test_case "runtime private sections" `Quick test_runtime_private_sections;
    Alcotest.test_case "runtime page segregation" `Quick test_runtime_no_page_sharing;
    Alcotest.test_case "runtime page from params" `Quick test_runtime_page_from_params;
    Alcotest.test_case "runtime rejects zero tenants" `Quick
      test_runtime_rejects_zero_tenants;
    Alcotest.test_case "runtime configure validation" `Quick
      test_runtime_configure_validation;
    Alcotest.test_case "runtime hit allocation" `Quick test_runtime_hit_words;
    Alcotest.test_case "compute op allocation" `Quick test_compute_op_words;
    Alcotest.test_case "scheduler yield allocation" `Quick test_sched_yield_words;
    Alcotest.test_case "serving report allocation" `Quick test_serving_report_words;
    Alcotest.test_case "swap page path oracle" `Quick test_swap_path_oracle;
    Alcotest.test_case "swap page allocation" `Quick test_swap_page_words;
  ]
