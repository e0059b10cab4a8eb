(* Baseline memory systems: correctness on every system plus the
   behavioural properties each baseline models. *)
module Machine = Mira_interp.Machine
module Value = Mira_interp.Value
module W = Mira_workloads.Graph_traversal

let small_cfg = { W.config_default with W.num_edges = 3000; num_nodes = 400 }
let prog () = W.build small_cfg
let far_capacity = 1 lsl 22

let run ms p = Machine.run (Machine.create ms p)

(* [run] plus the simulated nanoseconds the run took on [ms]. *)
let run_timed ?nthreads (ms : Mira_runtime.Memsys.t) p =
  let before = ms.Mira_runtime.Memsys.elapsed () in
  let v = Machine.run (Machine.create ?nthreads ms p) in
  (v, ms.Mira_runtime.Memsys.elapsed () -. before)

let test_all_systems_agree () =
  let p = prog () in
  let expected = run (Mira_baselines.Native.create ~capacity:far_capacity ()) p in
  let budget = W.far_bytes small_cfg / 2 in
  let systems =
    [
      ("fastswap", Mira_baselines.Fastswap.create ~local_budget:budget ~far_capacity ());
      ("leap", Mira_baselines.Leap.create ~local_budget:budget ~far_capacity ());
      ( "aifm",
        Mira_baselines.Aifm.create
          ~gran:(fun _ -> 256)
          ~local_budget:budget ~far_capacity () );
      ( "mira-swap",
        Mira_runtime.Runtime.(
          memsys (create (config_default ~local_budget:budget ~far_capacity))) );
    ]
  in
  List.iter
    (fun (name, ms) ->
      Alcotest.(check bool) (name ^ " matches native") true
        (Value.equal expected (run ms p)))
    systems

let test_far_memory_slower_than_native () =
  let p = prog () in
  let time ms = snd (run_timed ms p) in
  let native = time (Mira_baselines.Native.create ~capacity:far_capacity ()) in
  let budget = W.far_bytes small_cfg / 4 in
  let fs = time (Mira_baselines.Fastswap.create ~local_budget:budget ~far_capacity ()) in
  Alcotest.(check bool) "fastswap slower than native" true (fs > native)

let test_fastswap_degrades_with_less_memory () =
  let p = prog () in
  let time budget =
    let ms = Mira_baselines.Fastswap.create ~local_budget:budget ~far_capacity () in
    snd (run_timed ms p)
  in
  let big = time (W.far_bytes small_cfg) in
  let small = time (W.far_bytes small_cfg / 8) in
  Alcotest.(check bool) "less memory, more time" true (small > big)

let test_leap_majority_prefetch () =
  (* A pure sequential scan: Leap must detect the stride and its swap
     section must see readahead pages. *)
  let module B = Mira_mir.Builder in
  let module T = Mira_mir.Types in
  let b = B.program "seq" in
  B.func b "main" [] T.I64 (fun fb _ ->
      let n = 64 * 512 in
      let arr, _ = B.alloc fb ~name:"seqarr" T.I64 (B.iconst n) in
      let acc, _ = B.alloc fb ~name:"seqacc" ~space:Mira_mir.Ir.Stack T.I64 (B.iconst 1) in
      B.store fb T.I64 ~ptr:acc ~value:(B.iconst 0);
      B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst n) (fun i ->
          let p = B.gep fb ~base:arr ~index:i ~elem:T.I64 () in
          let v = B.load fb T.I64 p in
          let a = B.load fb T.I64 acc in
          B.store fb T.I64 ~ptr:acc ~value:(B.bin fb Mira_mir.Ir.Add a v));
      let v = B.load fb T.I64 acc in
      B.ret fb v);
  let p = B.finish b ~entry:"main" in
  let leap = Mira_baselines.Leap.create ~local_budget:(1 lsl 16) ~far_capacity () in
  let fs_time =
    let ms = Mira_baselines.Fastswap.create ~local_budget:(1 lsl 16) ~far_capacity () in
    snd (run_timed ms p)
  in
  let v, leap_time = run_timed leap p in
  Alcotest.(check bool) "correct" true (Value.equal v (Value.Vint 0L));
  (* Leap's trend prefetch keeps it within ~2x of cluster readahead on a
     pure stream (it pays its data-path penalty but hides latency). *)
  Alcotest.(check bool) "leap competitive on streams" true
    (leap_time < 3.0 *. fs_time)

let test_aifm_oom_on_fine_granularity () =
  let p = prog () in
  let far_bytes = W.far_bytes small_cfg in
  (* Per-element metadata (8B granules, 16B metadata each) must exceed a
     half-sized local memory: AIFM fails to execute (paper Fig. 18). *)
  let ms =
    Mira_baselines.Aifm.create ~gran:(fun _ -> 8) ~local_budget:(far_bytes / 2)
      ~far_capacity ()
  in
  Alcotest.(check bool) "oom raised" true
    (try
       ignore (run ms p);
       false
     with Mira_baselines.Aifm.Oom _ -> true)

let test_aifm_deref_overhead_at_full_memory () =
  let p = prog () in
  let native = Mira_baselines.Native.create ~capacity:far_capacity () in
  let native_t = snd (run_timed native p) in
  let aifm =
    Mira_baselines.Aifm.create
      ~gran:(fun _ -> 4096)
      ~local_budget:(2 * W.far_bytes small_cfg)
      ~far_capacity ()
  in
  let aifm_t = snd (run_timed aifm p) in
  (* Even with all data cached, AIFM pays per-dereference overhead. *)
  Alcotest.(check bool) "aifm slower even at full memory" true
    (aifm_t > 1.5 *. native_t)

let test_fastswap_thread_contention () =
  let pcfg = { small_cfg with W.parallel = true } in
  let p = W.build pcfg in
  let budget = W.far_bytes pcfg / 4 in
  let time threads =
    let ms = Mira_baselines.Fastswap.create ~local_budget:budget ~far_capacity () in
    snd (run_timed ~nthreads:threads ms p)
  in
  let t1 = time 1 in
  let t8 = time 8 in
  (* swap-lock contention must erode scaling: 8 threads cannot be 8x *)
  Alcotest.(check bool) "sublinear scaling" true (t8 > t1 /. 8.0)

(* The compute contract of [Memsys.t] the interpreter charges against:
   [clock ~tid] is one object for the life of the memory system, and
   [op_cost ~tid ns] adds exactly [ns] to it, or [ns] scaled by
   [remote_compute_slowdown] while the thread runs offloaded on a
   system that models offload. *)
let test_compute_contract () =
  let module Ms = Mira_runtime.Memsys in
  let module Clock = Mira_sim.Clock in
  let p = Mira_sim.Params.default in
  let budget = 1 lsl 16 in
  let slow = p.Mira_sim.Params.remote_compute_slowdown in
  let systems =
    [
      ("native", Mira_baselines.Native.create ~capacity:far_capacity (), 1.0);
      ("fastswap", Mira_baselines.Fastswap.create ~local_budget:budget ~far_capacity (), slow);
      ("leap", Mira_baselines.Leap.create ~local_budget:budget ~far_capacity (), slow);
      ("aifm", Mira_baselines.Aifm.create ~local_budget:budget ~far_capacity (), 1.0);
      ( "mira",
        Mira_runtime.Runtime.(
          memsys (create (config_default ~local_budget:budget ~far_capacity))),
        slow );
    ]
  in
  List.iter
    (fun (name, (ms : Ms.t), scale) ->
      let check what tid ns expected_scale =
        let c = ms.Ms.clock ~tid in
        let before = Clock.now c in
        ms.Ms.op_cost ~tid ns;
        Alcotest.(check int64) (Printf.sprintf "%s: %s" name what)
          (Int64.bits_of_float (before +. (ns *. expected_scale)))
          (Int64.bits_of_float (Clock.now c))
      in
      let c0 = ms.Ms.clock ~tid:0 and c1 = ms.Ms.clock ~tid:1 in
      check "op_cost" 0 0.1 1.0;
      check "op_cost again" 0 0.05 1.0;
      check "op_cost, thread 1" 1 0.3 1.0;
      ms.Ms.offload_begin ~tid:0;
      check "offloaded op_cost" 0 0.7 scale;
      check "op_cost, other thread" 1 0.7 1.0;
      ms.Ms.offload_end ~tid:0;
      check "op_cost after offload" 0 0.7 1.0;
      ms.Ms.reset_timing ();
      Alcotest.(check bool) (name ^ ": same clock") true (ms.Ms.clock ~tid:0 == c0);
      Alcotest.(check bool) (name ^ ": same clock, thread 1") true
        (ms.Ms.clock ~tid:1 == c1);
      check "op_cost after reset" 0 0.1 1.0)
    systems

let test_leap_majority_vote () =
  let module L = Mira_baselines.Leap in
  (* steady stride of 1 (newest first: 9,8,7,...) *)
  Alcotest.(check (option int)) "stride 1" (Some 1)
    (L.majority_delta [ 9; 8; 7; 6; 5; 4 ]);
  Alcotest.(check (option int)) "stride 3" (Some 3)
    (L.majority_delta [ 30; 27; 24; 21; 18 ]);
  Alcotest.(check (option int)) "no trend" None
    (L.majority_delta [ 5; 90; 2; 77; 30; 1 ]);
  Alcotest.(check (option int)) "too short" None (L.majority_delta [ 4 ]);
  (* majority with noise: 1,1,17,1,1 deltas *)
  Alcotest.(check (option int)) "noisy majority" (Some 1)
    (L.majority_delta [ 25; 24; 23; 6; 5; 4 ])

let suite =
  [
    Alcotest.test_case "leap majority vote" `Quick test_leap_majority_vote;
    Alcotest.test_case "all systems agree" `Quick test_all_systems_agree;
    Alcotest.test_case "far memory slower" `Quick test_far_memory_slower_than_native;
    Alcotest.test_case "fastswap degrades" `Quick test_fastswap_degrades_with_less_memory;
    Alcotest.test_case "leap stream prefetch" `Quick test_leap_majority_prefetch;
    Alcotest.test_case "aifm metadata oom" `Quick test_aifm_oom_on_fine_granularity;
    Alcotest.test_case "aifm deref overhead" `Quick test_aifm_deref_overhead_at_full_memory;
    Alcotest.test_case "fastswap contention" `Quick test_fastswap_thread_contention;
    Alcotest.test_case "compute contract" `Quick test_compute_contract;
  ]
