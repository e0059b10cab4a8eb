(* Bechamel micro-benchmarks of the runtime's real (wall-clock) hot
   paths: cache lookups per structure, a section miss, the swap fault
   path, pointer encoding, the value codec and the interpreter's compute
   op.  These measure the simulator itself, complementing the
   simulated-time figures.  Each case is set up just before it is
   measured, so [run_case] times one case on a heap that holds only its
   own state. *)
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

let bench_section_hit structure name =
  let s, clock = make_section structure in
  let i = ref 0 in
  Test.make ~name (Staged.stage (fun () ->
      i := (!i + 1) land 255;
      ignore (Section.load s ~clock ~addr:(!i * 256) ~len:8)))

(* A kv-style section miss: a fully associative section (CLOCK with
   frequency admission) of 16 lines of 4 KiB, each op storing into the
   next of 1024 lines in turn, so every op misses, fills a whole line
   and writes a dirty victim back. *)
let bench_section_miss name =
  let net = Mira_sim.Net.create Mira_sim.Params.default in
  let far = Mira_sim.Cluster.of_store (Mira_sim.Far_store.create ~capacity:(1 lsl 23)) in
  let clock = Mira_sim.Clock.create () in
  let s =
    Section.create net far
      (Section.config_default ~sec_id:1 ~name:"kv" ~line:4096 ~size:(16 * 4096))
  in
  let i = ref 0 in
  Test.make ~name (Staged.stage (fun () ->
      i := (!i + 1) land 1023;
      Section.store s ~clock ~addr:((!i * 4096) + 64) ~len:8 (Int64.of_int !i)))

let bench_swap_hit name =
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
  Test.make ~name (Staged.stage (fun () ->
      i := (!i + 1) land 127;
      ignore (Swap.load sw ~clock ~addr:(!i * 4096) ~len:8)))

(* The page path a FastSwap run spends its host time on: a load
   stream over 512 pages through a 64-frame swap section that reads
   ahead the 7 pages after each faulting page, one store in four, so a
   fault posts a demand read and 7 prefetches, and installing them
   evicts 8 frames and writes back the dirty ones.  One op is one load
   or store: one fault per 8 ops, every op moves a page. *)
let bench_swap_fault name =
  let net = Mira_sim.Net.create Mira_sim.Params.default in
  let far = Mira_sim.Cluster.of_store (Mira_sim.Far_store.create ~capacity:(1 lsl 22)) in
  let clock = Mira_sim.Clock.create () in
  let sw = Swap.create net far { Swap.page = 4096; capacity = 64 * 4096 } in
  Swap.set_readahead sw (fun _ -> (1, 7));
  let i = ref 0 in
  Test.make ~name (Staged.stage (fun () ->
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
let bench_swap_evict ~hinted name =
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
  Test.make ~name (Staged.stage (fun () ->
      if hinted then Swap.evict_hint sw ~clock ~addr:(!last * 4096) ~len:8;
      last := if !last + 1 = pages then frames else !last + 1;
      ignore (Swap.load sw ~clock ~addr:(!last * 4096) ~len:8)))

let bench_value_codec name =
  let i = ref 0 in
  Test.make ~name (Staged.stage (fun () ->
      incr i;
      let v = Mira_interp.Value.Vint (Int64.of_int !i) in
      let bits = Mira_interp.Value.encode Mira_mir.Types.I64 v in
      ignore (Mira_interp.Value.decode Mira_mir.Types.I64 bits)))

(* Dispatch-heavy scheduler run: 8 tenants, 25 tasks each, 4 clock
   moves per task — ~1000 dispatches against a ~200-entry event queue.
   This is the engine's hot loop under serving load; before the binary
   heap, every dispatch scanned and rebuilt the whole queue. *)
let bench_sched_dispatch name =
  let module Sched = Mira_sim.Sched in
  Test.make ~name (Staged.stage (fun () ->
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
let bench_runtime_hit name =
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
  Test.make ~name (Staged.stage (fun () ->
      i := (!i + 1) land 255;
      ignore (ms.Memsys.load ~tid:0 ~ptr:ptrs.(!i) ~len:8 ~native:false)))

(* 4 tenants whose start times are 1 us apart, each making 64 clock
   moves of 1 ns: every move leaves its task the earliest, so the
   scheduler continues it in place instead of parking and resuming it.
   Only the 4 task starts are real dispatches. *)
let bench_sched_in_place name =
  let module Sched = Mira_sim.Sched in
  Test.make ~name (Staged.stage (fun () ->
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
let bench_kv_report name =
  let rng = Mira_util.Prng.create 5 in
  let lats =
    Array.init 4 (fun _ -> Array.init 10_000 (fun _ -> Mira_util.Prng.float rng 5e4))
  in
  Test.make ~name (Staged.stage (fun () ->
      Array.iter
        (fun l -> ignore (Mira_util.Stats.percentiles l [| 50.0; 99.0; 99.9; 100.0 |]))
        lats;
      ignore
        (Mira_util.Stats.percentiles
           (Array.concat (Array.to_list lats))
           [| 50.0; 99.0; 99.9 |])))

(* 4 tenants on a runtime's scheduler, a quarter ns apart, each making
   64 clock moves of 1 ns: every move leaves another tenant earlier, so
   each is a real park and resume, the parked entry saving and restoring
   the trace context and the ledger's fn/site/tenant. *)
let bench_sched_runtime_park name =
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
  Test.make ~name (Staged.stage (fun () ->
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
let bench_net_window name =
  let module Net = Mira_sim.Net in
  Test.make ~name (Staged.stage (fun () ->
      let dp = { Net.dp_default with Net.window = 64 } in
      let net = Net.create ~dp Mira_sim.Params.default in
      for _ = 1 to 512 do
        ignore
          (Net.submit net ~now:0.0 ~urgent:true ~detached:true
             (Net.Request.read ~side:Mira_sim.Net.One_sided
                ~purpose:Net.Demand 256))
      done;
      ignore (Net.fence net ~now:0.0)))

(* Register arithmetic in a [For] loop on the native memory system:
   the interpreter's own cost per op, its compute charge included, with
   no memory access.  A run is three ops per iteration, the [For] and
   the [Ret]; the case reports ns per op. *)
let interp_iters = 1000
let interp_ops = (3 * interp_iters) + 2

let bench_interp_compute name =
  let module B = Mira_mir.Builder in
  let module Ir = Mira_mir.Ir in
  let module Machine = Mira_interp.Machine in
  let b = B.program "compute" in
  B.func b "main" [] Mira_mir.Types.I64 (fun fb _ ->
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst interp_iters) (fun i ->
          let x = B.bin fb Ir.Add i (B.iconst 7) in
          let y = B.bin fb Ir.Mul x (B.iconst 3) in
          ignore (B.cmp fb Ir.Lt y (B.iconst 1000)));
      B.ret fb (B.iconst 0));
  let ms = Mira_baselines.Native.create ~capacity:4096 () in
  let machine = Machine.create ms (B.finish b ~entry:"main") in
  ignore (Machine.run machine);
  assert (Machine.ops_executed machine = interp_ops);
  Test.make ~name (Staged.stage (fun () -> ignore (Machine.run machine)))

(* Each case: its name, the ops one call of its test makes, and its
   set-up. *)
let cases =
  [
    ("section hit (direct)", 1, bench_section_hit Section.Direct);
    ("section hit (set8)", 1, bench_section_hit (Section.Set_assoc 8));
    ("section hit (full)", 1, bench_section_hit Section.Full_assoc);
    ("section miss (full, 4 KiB, dirty victim)", 1, bench_section_miss);
    ("swap hit path", 1, bench_swap_hit);
    ("swap evict (clock, 256 frames)", 1, bench_swap_evict ~hinted:false);
    ("swap evict (1 hint, 256 frames)", 1, bench_swap_evict ~hinted:true);
    ("swap fault, 7-page readahead", 1, bench_swap_fault);
    ("value encode+decode", 1, bench_value_codec);
    ("sched dispatch (8 tenants)", 1, bench_sched_dispatch);
    ("sched 4 tenants, in-place advances", 1, bench_sched_in_place);
    ("runtime load hit (section)", 1, bench_runtime_hit);
    ("kv report percentiles (4x10k + 40k)", 1, bench_kv_report);
    ("sched park with ledger context (4 tenants)", 1, bench_sched_runtime_park);
    ("net saturated window", 1, bench_net_window);
    ("interp compute op (native)", interp_ops, bench_interp_compute);
  ]

let case_names = List.map (fun (name, _, _) -> name) cases

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

let measure (name, ops, make) =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (make name) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  match Analyze.OLS.estimates (Hashtbl.find (Analyze.all ols Instance.monotonic_clock raw) name) with
  | Some [ est ] -> Printf.printf "%-40s %8.1f ns/op\n%!" name (est /. float_of_int ops)
  | _ -> Printf.printf "%-40s (no estimate)\n%!" name

let header () = Printf.printf "\n### Microbenchmarks: real (wall-clock) runtime hot paths\n%!"

let run () =
  header ();
  List.iter measure cases

(* One case alone, in a process that sets up nothing else. *)
let run_case name =
  match List.find_opt (fun (n, _, _) -> n = name) cases with
  | Some case -> header (); measure case
  | None ->
    Printf.printf "unknown micro case %S; cases:\n" name;
    List.iter (Printf.printf "  micro:%s\n") case_names
