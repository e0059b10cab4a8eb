(* Bechamel micro-benchmarks of the runtime's real (wall-clock) hot
   paths: cache lookups per structure, a section miss, the swap fault
   path, pointer encoding, and the value codec.  These measure the simulator itself,
   complementing the simulated-time figures. *)
module Section = Mira_cache.Section
module Swap = Mira_cache.Swap_section
open Bechamel
open Toolkit

let make_section structure =
  let net = Mira_sim.Net.create Mira_sim.Params.default in
  let far = Mira_sim.Cluster.of_store (Mira_sim.Far_store.create ~capacity:(1 lsl 22)) in
  let clock = Mira_sim.Clock.create () in
  let s =
    Section.create net far
      { (Section.config_default ~sec_id:1 ~name:"b" ~line:256 ~size:(1 lsl 18)) with
        Section.structure }
  in
  (* warm it *)
  for i = 0 to 255 do
    Section.store s ~clock ~addr:(i * 256) ~len:8 (Int64.of_int i)
  done;
  (s, clock)

let bench_section_hit name structure =
  let s, clock = make_section structure in
  let i = ref 0 in
  Test.make ~name (Staged.stage (fun () ->
      i := (!i + 1) land 255;
      ignore (Section.load s ~clock ~addr:(!i * 256) ~len:8)))

(* A kv-style section miss: a fully associative section (CLOCK with
   frequency admission) of 16 lines of 4 KiB, each op storing into the
   next of 1024 lines in turn, so every op misses, fills a whole line
   and writes a dirty victim back. *)
let bench_section_miss =
  let net = Mira_sim.Net.create Mira_sim.Params.default in
  let far = Mira_sim.Cluster.of_store (Mira_sim.Far_store.create ~capacity:(1 lsl 23)) in
  let clock = Mira_sim.Clock.create () in
  let s =
    Section.create net far
      (Section.config_default ~sec_id:1 ~name:"kv" ~line:4096 ~size:(16 * 4096))
  in
  let i = ref 0 in
  Test.make ~name:"section miss (full, 4 KiB, dirty victim)" (Staged.stage (fun () ->
      i := (!i + 1) land 1023;
      Section.store s ~clock ~addr:((!i * 4096) + 64) ~len:8 (Int64.of_int !i)))

let bench_swap_hit =
  let net = Mira_sim.Net.create Mira_sim.Params.default in
  let far = Mira_sim.Cluster.of_store (Mira_sim.Far_store.create ~capacity:(1 lsl 22)) in
  let clock = Mira_sim.Clock.create () in
  let sw =
    Swap.create net far
      { Swap.page = 4096; capacity = 1 lsl 20 }
  in
  for i = 0 to 127 do
    Swap.store sw ~clock ~addr:(i * 4096) ~len:8 1L
  done;
  let i = ref 0 in
  Test.make ~name:"swap hit path" (Staged.stage (fun () ->
      i := (!i + 1) land 127;
      ignore (Swap.load sw ~clock ~addr:(!i * 4096) ~len:8)))

(* The page path a FastSwap run spends its host time on: a load
   stream over 512 pages through a 64-frame swap section that reads
   ahead the 7 pages after each faulting page, one store in four, so a
   fault posts a demand read and 7 prefetches, and installing them
   evicts 8 frames and writes back the dirty ones.  One op is one load
   or store: one fault per 8 ops, every op moves a page. *)
let bench_swap_fault =
  let net = Mira_sim.Net.create Mira_sim.Params.default in
  let far = Mira_sim.Cluster.of_store (Mira_sim.Far_store.create ~capacity:(1 lsl 22)) in
  let clock = Mira_sim.Clock.create () in
  let sw = Swap.create net far { Swap.page = 4096; capacity = 64 * 4096 } in
  Swap.set_readahead sw (fun _ -> (1, 7));
  let i = ref 0 in
  Test.make ~name:"swap fault, 7-page readahead" (Staged.stage (fun () ->
      i := (!i + 1) land 511;
      let addr = (!i * 4096) + (8 * (!i land 7)) in
      if !i land 3 = 0 then Swap.store sw ~clock ~addr ~len:8 1L
      else ignore (Swap.load sw ~clock ~addr ~len:8)))

(* Steady-state eviction in a full 256-frame swap cache: every load of
   a page outside the warm set faults and evicts.  With [~hinted] the
   page loaded last is marked evict-first before each load; it sits in
   the last frame, so [pick_victim]'s scan for hinted frames visits all
   256 frames before it finds it.  Without a hint the victim comes from
   the CLOCK hand, which is the reference for the scan's cost. *)
let bench_swap_evict ~hinted =
  let net = Mira_sim.Net.create Mira_sim.Params.default in
  let far = Mira_sim.Cluster.of_store (Mira_sim.Far_store.create ~capacity:(1 lsl 22)) in
  let clock = Mira_sim.Clock.create () in
  let frames = 256 and pages = (1 lsl 22) / 4096 in
  let sw =
    Swap.create net far
      { Swap.page = 4096; capacity = frames * 4096 }
  in
  for p = 0 to frames - 1 do
    ignore (Swap.load sw ~clock ~addr:(p * 4096) ~len:8)
  done;
  let last = ref (frames - 1) in
  let name =
    if hinted then "swap evict (1 hint, 256 frames)"
    else "swap evict (clock, 256 frames)"
  in
  Test.make ~name (Staged.stage (fun () ->
      if hinted then Swap.evict_hint sw ~clock ~addr:(!last * 4096) ~len:8;
      last := if !last + 1 = pages then frames else !last + 1;
      ignore (Swap.load sw ~clock ~addr:(!last * 4096) ~len:8)))

let bench_value_codec =
  let i = ref 0 in
  Test.make ~name:"value encode+decode" (Staged.stage (fun () ->
      incr i;
      let v = Mira_interp.Value.Vint (Int64.of_int !i) in
      let bits = Mira_interp.Value.encode Mira_mir.Types.I64 v in
      ignore (Mira_interp.Value.decode Mira_mir.Types.I64 bits)))

(* Dispatch-heavy scheduler run: 8 tenants, 25 tasks each, 4 clock
   moves per task — ~1000 dispatches against a ~200-entry event queue.
   This is the engine's hot loop under serving load; before the binary
   heap, every dispatch scanned and rebuilt the whole queue. *)
let bench_sched_dispatch =
  let module Sched = Mira_sim.Sched in
  Test.make ~name:"sched dispatch (8 tenants)" (Staged.stage (fun () ->
      let s = Sched.create () in
      for tenant = 0 to 7 do
        for task = 0 to 24 do
          Sched.spawn s ~tenant (fun () ->
              let c = Sched.clock s ~tenant in
              for k = 1 to 4 do
                Mira_sim.Clock.advance c (float_of_int ((task * 4) + k))
              done)
        done
      done;
      Sched.run s))

(* A resident section load through the whole runtime access path
   ([Runtime.memsys], 1 tenant, untraced): routing, profiling and
   attribution around the section's own lookup. *)
let bench_runtime_hit =
  let module Runtime = Mira_runtime.Runtime in
  let module Memsys = Mira_runtime.Memsys in
  let module Manager = Mira_cache.Manager in
  let rt =
    Runtime.create
      (Runtime.config_default ~local_budget:(1 lsl 20) ~far_capacity:(1 lsl 22))
  in
  let ms = Runtime.memsys rt in
  Runtime.configure rt
    {
      Manager.sections =
        [ (Section.config_default ~sec_id:1 ~name:"b" ~line:256 ~size:(1 lsl 17), [ 3 ]) ];
      per_thread = [];
    };
  let base = ms.Memsys.alloc ~tid:0 ~site:3 ~bytes:(1 lsl 16) ~heap:true in
  let ptrs =
    Array.init 256 (fun i -> { base with Memsys.addr = base.Memsys.addr + (i * 256) })
  in
  ms.Memsys.enter ~tid:0 "bench";
  Array.iter (fun ptr -> ignore (ms.Memsys.load ~tid:0 ~ptr ~len:8 ~native:false)) ptrs;
  let i = ref 0 in
  Test.make ~name:"runtime load hit (section)" (Staged.stage (fun () ->
      i := (!i + 1) land 255;
      ignore (ms.Memsys.load ~tid:0 ~ptr:ptrs.(!i) ~len:8 ~native:false)))

(* 4 tenants whose start times are 1 us apart, each making 64 clock
   moves of 1 ns: every move leaves its task the earliest, so the
   scheduler continues it in place instead of parking and resuming it.
   Only the 4 task starts are real dispatches. *)
let bench_sched_in_place =
  let module Sched = Mira_sim.Sched in
  Test.make ~name:"sched 4 tenants, in-place advances" (Staged.stage (fun () ->
      let s = Sched.create () in
      for tenant = 0 to 3 do
        let c = Sched.clock s ~tenant in
        Sched.spawn s ~tenant ~at_ns:(float_of_int (tenant * 1000)) (fun () ->
            if tenant > 0 then ignore (Mira_sim.Clock.wait_until c (float_of_int (tenant * 1000)));
            for _ = 1 to 64 do
              Mira_sim.Clock.advance c 1.0
            done)
      done;
      Sched.run s))

(* The latency figures of one 4-tenant serving report, as
   [Kv_serving.run_on] computes them: p50/p99/p999/max of each tenant's
   10k latencies, then p50/p99/p999 of the 40k aggregate. *)
let bench_kv_report =
  let rng = Mira_util.Prng.create 5 in
  let lats =
    Array.init 4 (fun _ -> Array.init 10_000 (fun _ -> Mira_util.Prng.float rng 5e4))
  in
  Test.make ~name:"kv report percentiles (4x10k + 40k)" (Staged.stage (fun () ->
      Array.iter
        (fun l -> ignore (Mira_util.Stats.percentiles l [| 50.0; 99.0; 99.9; 100.0 |]))
        lats;
      ignore
        (Mira_util.Stats.percentiles
           (Array.concat (Array.to_list lats))
           [| 50.0; 99.0; 99.9 |])))

(* 4 tenants on a runtime's scheduler, a quarter ns apart, each making
   64 clock moves of 1 ns: every move leaves another tenant earlier, so
   each is a real park and resume, with the runtime's TLS hook saving
   and restoring the attribution and net context. *)
let bench_sched_runtime_tls =
  let module Runtime = Mira_runtime.Runtime in
  let module Sched = Mira_sim.Sched in
  let rt =
    Runtime.create
      { (Runtime.config_default ~local_budget:(1 lsl 20) ~far_capacity:(1 lsl 22)) with
        Runtime.tenants = 4 }
  in
  let ms = Runtime.memsys rt in
  let sched = Runtime.sched rt in
  let clocks = Array.init 4 (fun tid -> ms.Mira_runtime.Memsys.clock ~tid) in
  (* the stagger persists: every tenant moves by the same amount *)
  Array.iteri (fun i c -> ignore (Mira_sim.Clock.wait_until c (float_of_int i *. 0.25))) clocks;
  Test.make ~name:"sched yield with runtime TLS (4 tenants)" (Staged.stage (fun () ->
      Array.iteri
        (fun tenant c ->
          Sched.spawn sched ~tenant (fun () ->
              for _ = 1 to 64 do
                Mira_sim.Clock.advance c 1.0
              done))
        clocks;
      Sched.run sched))

(* A bounded in-flight window under heavy backlog: 512 posts against a
   64-slot window, none retiring (the probe time never advances), so
   the in-flight set only grows.  Before the done-at-keyed heaps every
   post re-sorted the whole set to find the admission gate. *)
let bench_net_window =
  let module Net = Mira_sim.Net in
  Test.make ~name:"net saturated window" (Staged.stage (fun () ->
      let dp = { Net.dp_default with Net.window = 64 } in
      let net = Net.create ~dp Mira_sim.Params.default in
      for _ = 1 to 512 do
        ignore
          (Net.submit net ~now:0.0 ~urgent:true ~detached:true
             (Net.Request.read ~side:Mira_sim.Net.One_sided
                ~purpose:Net.Demand 256))
      done;
      ignore (Net.fence net ~now:0.0)))

let tests () =
  Test.make_grouped ~name:"runtime hot paths"
    [
      bench_section_hit "section hit (direct)" Section.Direct;
      bench_section_hit "section hit (set8)" (Section.Set_assoc 8);
      bench_section_hit "section hit (full)" Section.Full_assoc;
      bench_section_miss;
      bench_swap_hit;
      bench_swap_evict ~hinted:false;
      bench_swap_evict ~hinted:true;
      bench_swap_fault;
      bench_value_codec;
      bench_sched_dispatch;
      bench_sched_in_place;
      bench_runtime_hit;
      bench_kv_report;
      bench_sched_runtime_tls;
      bench_net_window;
    ]

(* Deterministic simulated-time sweep: the CI perf-regression gate's
   input.  Unlike [run] (wall clock), every number here is simulated
   time, so two runs with the same build produce byte-identical
   BENCH_micro.json files (set MIRA_BENCH_JSON to collect one). *)
let sweep () =
  let module W = Mira_workloads.Micro_sum in
  let cfg = W.config_default in
  let prog = W.build cfg in
  let far = W.far_bytes cfg in
  let ctx =
    Harness.Ctx.make ~far_bytes:far prog |> Harness.Ctx.with_iterations 3
  in
  Harness.sweep ctx ~far_bytes:far ~ratios:[ 0.2; 0.5 ]
    ~systems:
      [ Harness.Fastswap; Harness.Leap; Harness.Mira_sys (fun o -> o) ]
    ~title:"micro"

let run () =
  Printf.printf "\n### Microbenchmarks: real (wall-clock) runtime hot paths\n%!";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances (tests ()) in
  let results =
    List.map (fun i -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) i raw) instances
  in
  let results = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) instances results in
  Hashtbl.iter
    (fun _measure tbl ->
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-40s %8.1f ns/op\n" name est
          | _ -> Printf.printf "%-40s (no estimate)\n" name)
        tbl)
    results
