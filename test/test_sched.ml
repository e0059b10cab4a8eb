(* Tests for the discrete-event scheduler (Mira_sim.Sched) and the
   time-API hardening that came with it:

   - Clock.advance rejects NaN / negative / negative-zero deltas.
   - N-tenant interleavings are a pure function of the clock
     movements: identical programs replay identically (QCheck).
   - A 1-tenant scheduled run is bit-identical to the pre-scheduler
     free-running clock, and scheduling does not perturb any float
     arithmetic even when tasks interleave.
   - The kv_serving workload built on top is seed-deterministic, and
     pinned to golden values: checksum, time bits, dispatch and block
     counters, timeline export. *)

module Clock = Mira_sim.Clock
module Sched = Mira_sim.Sched
module K = Mira_workloads.Kv_serving

(* --- Clock.advance validation ------------------------------------------ *)

let test_advance_rejects () =
  let c = Clock.create () in
  let rejects name dt =
    Alcotest.(check bool)
      name true
      (try
         Clock.advance c dt;
         false
       with Invalid_argument _ -> true)
  in
  rejects "nan" Float.nan;
  rejects "negative" (-1.0);
  rejects "neg zero" (-0.0);
  Clock.advance c 0.0;
  Clock.advance c 1.5;
  Alcotest.(check (float 0.0)) "clock unpoisoned" 1.5 (Clock.now c)

(* --- deterministic interleaving ---------------------------------------- *)

(* Run [progs] (one step list per tenant) under a fresh scheduler and
   record the interleaving as (tenant, now-bits) pairs; int64 bits so
   any float divergence at all is visible. *)
type step = Advance of float | Wait of Clock.event * float

let run_progs progs =
  let s = Sched.create () in
  let log = ref [] in
  List.iteri
    (fun tenant steps ->
      Sched.spawn s ~tenant (fun () ->
          let c = Sched.clock s ~tenant in
          List.iter
            (fun st ->
              (match st with
              | Advance dt -> Clock.advance c dt
              | Wait (ev, deadline) -> ignore (Clock.wait_until ~ev c deadline));
              log := (tenant, Int64.bits_of_float (Clock.now c)) :: !log)
            steps))
    progs;
  Sched.run s;
  let elapsed =
    List.fold_left
      (fun acc tenant -> Float.max acc (Clock.now (Sched.clock s ~tenant)))
      0.0
      (List.init (List.length progs) Fun.id)
  in
  (List.rev !log, Sched.dispatched s, Sched.block_counts s, elapsed)

let test_interleaves_in_time_order () =
  (* Tenant 0 makes one big move, tenant 1 several small ones: the
     small moves must all dispatch before tenant 0 resumes. *)
  let progs =
    [
      [ Advance 10.0; Advance 1.0 ];
      [ Advance 1.0; Advance 1.0; Advance 1.0; Advance 1.0 ];
    ]
  in
  let log, _, _, elapsed = run_progs progs in
  let order = List.map fst log in
  Alcotest.(check (list int)) "time order" [ 1; 1; 1; 1; 0; 0 ] order;
  Alcotest.(check (float 1e-9)) "elapsed" 11.0 elapsed

let test_block_counts () =
  let progs =
    [
      [ Wait (Clock.Net_completion 7, 5.0); Wait (Clock.Fence, 9.0) ];
      [ Wait (Clock.Cache_fill, 4.0); Advance 2.0 ];
    ]
  in
  let _, _, blocks, _ = run_progs progs in
  let get k = Option.value ~default:0 (List.assoc_opt k blocks) in
  Alcotest.(check int) "net_completion" 1 (get "net_completion");
  Alcotest.(check int) "cache_fill" 1 (get "cache_fill");
  Alcotest.(check int) "fence" 1 (get "fence");
  Alcotest.(check int) "timer" 1 (get "timer")

let step_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun dt -> Advance dt) (float_range 0.0 50.0));
        ( 2,
          map2
            (fun ev deadline -> Wait (ev, deadline))
            (oneofl [ Clock.Net_completion 1; Clock.Cache_fill; Clock.Fence; Clock.Timer ])
            (float_range 0.0 200.0) );
      ])

let progs_gen =
  QCheck.Gen.(
    int_range 2 6 >>= fun tenants ->
    list_repeat tenants (list_size (int_range 1 25) step_gen))

let progs_arb =
  QCheck.make progs_gen ~print:(fun progs ->
      Printf.sprintf "%d tenants, steps %s" (List.length progs)
        (String.concat ","
           (List.map (fun p -> string_of_int (List.length p)) progs)))

let qcheck_replay_identical =
  QCheck.Test.make ~name:"N-tenant interleaving replays byte-identically"
    ~count:60 progs_arb (fun progs ->
      let a = run_progs progs in
      let b = run_progs progs in
      a = b)

(* --- 1-tenant bit-identity --------------------------------------------- *)

(* The same step program on a free-running clock and on a scheduled
   clock must produce bit-identical time and stall values — and the
   float arithmetic must stay untouched even when another tenant's
   task interleaves with it. *)
let fingerprint c =
  (Int64.bits_of_float (Clock.now c), Int64.bits_of_float (Clock.stalled_ns c))

let drive c =
  Clock.advance c 3.125;
  ignore (Clock.wait_until ~ev:Clock.Cache_fill c 10.7);
  Clock.advance c 0.3;
  ignore (Clock.wait_until ~ev:Clock.Timer c 9.0);
  (* past deadline: free *)
  Clock.advance c 1e-7;
  ignore (Clock.wait_until ~ev:(Clock.Net_completion 3) c 12.34567890123)

let test_single_tenant_bit_identity () =
  let free = Clock.create () in
  drive free;
  let s1 = Sched.create () in
  Sched.spawn s1 ~tenant:0 (fun () -> drive (Sched.clock s1 ~tenant:0));
  Sched.run s1;
  Alcotest.(check (pair int64 int64))
    "1-tenant scheduled == free-running" (fingerprint free)
    (fingerprint (Sched.clock s1 ~tenant:0));
  (* Same program with a second interfering tenant: tenant 0's floats
     are still bit-identical because scheduling never touches them. *)
  let s2 = Sched.create () in
  Sched.spawn s2 ~tenant:0 (fun () -> drive (Sched.clock s2 ~tenant:0));
  Sched.spawn s2 ~tenant:1 (fun () ->
      let c = Sched.clock s2 ~tenant:1 in
      for _ = 1 to 17 do
        Clock.advance c 0.77
      done);
  Sched.run s2;
  Alcotest.(check (pair int64 int64))
    "interleaved tenant 0 == free-running" (fingerprint free)
    (fingerprint (Sched.clock s2 ~tenant:0))

(* --- kv_serving determinism -------------------------------------------- *)

let small_cfg tenants =
  {
    K.config_default with
    K.tenants;
    requests = 150;
    keys = 256;
    value_bytes = 64;
    line = 256;
    arrival_ns = 4_000.0;
  }

let test_kv_deterministic () =
  let cfg = small_cfg 3 in
  let a = K.run cfg in
  let b = K.run cfg in
  Alcotest.(check int64) "checksum replays" a.K.checksum b.K.checksum;
  Alcotest.(check (float 0.0)) "elapsed replays" a.K.elapsed_ns b.K.elapsed_ns;
  let c = K.run { cfg with K.seed = cfg.K.seed + 1 } in
  Alcotest.(check bool) "seed matters" true (c.K.checksum <> a.K.checksum)

(* Golden values of the interleaving, every simulated figure, the
   dispatch and block counters and the timeline export: a scheduler
   change must not move them by one bit.  (They were last recorded when
   fully associative sections gained frequency admission, which turns
   some misses into hits.) *)
let kv_fingerprint ?timeline cfg =
  let rt = Mira_runtime.Runtime.create (K.runtime_config cfg) in
  let r = K.run_on ?timeline rt cfg in
  let s = Mira_runtime.Runtime.sched rt in
  ( (r.K.checksum, Int64.bits_of_float r.K.elapsed_ns,
     Int64.bits_of_float r.K.agg_p999_ns),
    (Sched.dispatched s, Sched.block_counts s),
    rt )

let check_kv_golden name (run, counts, _) ~golden:(run', counts') =
  Alcotest.(check (triple int64 int64 int64)) (name ^ ": checksum, elapsed, p999 bits")
    run' run;
  Alcotest.(check (pair int (list (pair string int))))
    (name ^ ": dispatched, block counts") counts' counts

let test_kv_pinned_goldens () =
  check_kv_golden "3 tenants" (kv_fingerprint (small_cfg 3))
    ~golden:
      ( (1022144450799174498L, 4693781915070637862L, 4666175360304848442L),
        (7694, [ ("cache_fill", 152); ("timer", 7539) ]) );
  let tl = K.Timeline.make ~interval_ns:50_000.0 () in
  let ((_, _, rt) as fp) = kv_fingerprint ~timeline:tl (small_cfg 4) in
  check_kv_golden "4 tenants + timeline" fp
    ~golden:
      ( (5216776624622018257L, 4693811826783033491L, 4666737621553279897L),
        (10449, [ ("cache_fill", 215); ("timer", 10229) ]) );
  let lines = List.map Mira_telemetry.Json.to_string (K.Timeline.jsonl tl ~rt) in
  Alcotest.(check int) "timeline lines" 14 (List.length lines);
  Alcotest.(check string) "timeline JSONL digest" "23bb4780f711f2911fbdd2a1c276477e"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

let test_kv_completes_all () =
  let cfg = small_cfg 2 in
  let r = K.run cfg in
  Array.iter
    (fun (t : K.tenant_report) ->
      Alcotest.(check int)
        (Printf.sprintf "tenant %d completed" t.K.tenant)
        cfg.K.requests t.K.completed)
    r.K.per_tenant;
  Alcotest.(check int) "tenant count" 2 (Array.length r.K.per_tenant)

let test_kv_validate () =
  let bad name cfg =
    Alcotest.(check bool)
      name true
      (try
         K.validate cfg;
         false
       with Invalid_argument _ -> true)
  in
  bad "tenants 0" { K.config_default with K.tenants = 0 };
  bad "requests 0" { K.config_default with K.requests = 0 };
  bad "value not x8" { K.config_default with K.value_bytes = 12 };
  bad "ratio 0" { K.config_default with K.local_ratio = 0.0 };
  bad "ratio > 1" { K.config_default with K.local_ratio = 1.5 };
  bad "nan arrival" { K.config_default with K.arrival_ns = Float.nan };
  bad "get_fraction" { K.config_default with K.get_fraction = 1.5 };
  K.validate K.config_default

(* --- doc drift guards --------------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* cwd is _build/default/test under `dune runtest` but the project
   root under a bare `dune exec test/test_main.exe`. *)
let read_doc name =
  let candidates = [ "../docs/" ^ name; "docs/" ^ name ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> In_channel.with_open_bin p In_channel.input_all
  | None -> Alcotest.failf "doc %s not found" name

(* Every metric a many-tenant serving run publishes must be documented
   in docs/OBSERVABILITY.md (per-tenant families under their
   placeholder forms). *)
let test_serving_metrics_documented () =
  let doc = read_doc "OBSERVABILITY.md" in
  let cfg = small_cfg 2 in
  let rt = Mira_runtime.Runtime.create (K.runtime_config cfg) in
  let r = K.run_on rt cfg in
  let reg = Mira.Report.runtime_metrics rt in
  K.publish r reg;
  let normalize name =
    if starts_with ~prefix:"serving.tenant" name then
      "serving.tenant<N>." ^ List.nth (String.split_on_char '.' name) 2
    else if starts_with ~prefix:"sched.block." name then "sched.block.<event>"
    else name
  in
  let interesting =
    Mira_telemetry.Metrics.names reg
    |> List.filter (fun n ->
           starts_with ~prefix:"serving." n
           || starts_with ~prefix:"sched." n
           || String.equal n "runtime.tenants")
    |> List.map normalize
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "serving metrics published" true
    (List.exists (starts_with ~prefix:"serving.tenant<N>.") interesting);
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%S documented" n)
        true (contains doc n))
    interesting

(* docs/CONCURRENCY.md must keep up with the scheduler surface: the
   typed event kinds, the guarantees, and the user-facing knobs. *)
let test_concurrency_doc_guard () =
  let doc = read_doc "CONCURRENCY.md" in
  let must =
    List.map Clock.event_name
      [ Clock.Net_completion 0; Clock.Cache_fill; Clock.Fence; Clock.Timer ]
    @ [
        "(time, tenant id, seqno)"; "2^-16"; "bit-identical"; "with_tenants";
        "--workload kv"; "--tenants"; "open-loop"; "slo_ns";
        "BENCH_serving.json"; "sched.block.<event>"; "kv_t<N>";
        "serving.t<N>"; "Invalid_argument";
      ]
  in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%S documented" n)
        true (contains doc n))
    must

let suite =
  [
    Alcotest.test_case "advance rejects bad deltas" `Quick test_advance_rejects;
    Alcotest.test_case "interleaves in time order" `Quick
      test_interleaves_in_time_order;
    Alcotest.test_case "typed block counts" `Quick test_block_counts;
    Alcotest.test_case "1-tenant bit identity" `Quick
      test_single_tenant_bit_identity;
    Alcotest.test_case "kv_serving deterministic" `Quick test_kv_deterministic;
    Alcotest.test_case "kv_serving pinned goldens" `Quick test_kv_pinned_goldens;
    Alcotest.test_case "kv_serving completes all" `Quick test_kv_completes_all;
    Alcotest.test_case "kv_serving validate" `Quick test_kv_validate;
    Alcotest.test_case "serving metrics documented" `Quick
      test_serving_metrics_documented;
    Alcotest.test_case "CONCURRENCY.md drift guard" `Quick
      test_concurrency_doc_guard;
    QCheck_alcotest.to_alcotest qcheck_replay_identical;
  ]
