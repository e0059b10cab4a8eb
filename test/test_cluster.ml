(* Tests for the far-memory failure domain: the striped (k, m)
   erasure-coded [Cluster], seeded crash schedules (serialized and
   genuinely overlapping), quorum-rule failover, parity fan-out, and
   degraded-mode operation.  The central property: under any schedule
   that keeps at most m nodes of a (k, m) scheme concurrently down, a
   workload's output is bit-identical to the no-fault run — crashes
   cost time, never data. *)
module Clock = Mira_sim.Clock
module Net = Mira_sim.Net
module Far_store = Mira_sim.Far_store
module Cluster = Mira_sim.Cluster
module Manager = Mira_cache.Manager
module Section = Mira_cache.Section
module Runtime = Mira_runtime.Runtime
module Machine = Mira_interp.Machine
module C = Mira.Controller

(* --- spec validation and schedules -------------------------------------- *)

let rejects name spec =
  match Cluster.validate_spec spec with
  | () -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_validate_spec () =
  let ok spec = Cluster.validate_spec spec in
  ok Cluster.spec_default;
  ok (Cluster.mirror ~nodes:3 ~copies:2 []);
  ok (Cluster.ec ~nodes:6 ~k:4 ~m:2 []);
  ok (Cluster.ec ~chunk:64 ~placement:Cluster.Flat ~nodes:3 ~k:2 ~m:1 []);
  rejects "no nodes" { Cluster.spec_default with Cluster.nodes = 0 };
  rejects "zero data chunks" { Cluster.spec_default with Cluster.k = 0 };
  rejects "m out of range"
    { (Cluster.ec ~nodes:8 ~k:4 ~m:2 []) with Cluster.m = 3 };
  rejects "scheme wider than cluster" (Cluster.ec ~nodes:5 ~k:4 ~m:2 []);
  rejects "chunk not multiple of 8"
    { Cluster.spec_default with Cluster.chunk = 100 };
  rejects "bad node index"
    (Cluster.mirror ~nodes:2 ~copies:2
       [ { Cluster.ev_node = 2; ev_at = 1.0; ev_down_for = 1.0 } ]);
  rejects "negative time"
    (Cluster.mirror ~nodes:1 ~copies:1
       [ { Cluster.ev_node = 0; ev_at = -1.0; ev_down_for = 1.0 } ]);
  rejects "nan time"
    (Cluster.mirror ~nodes:1 ~copies:1
       [ { Cluster.ev_node = 0; ev_at = Float.nan; ev_down_for = 1.0 } ]);
  (* Satellite: non-finite values are rejected, not just NaN. *)
  rejects "infinite time"
    (Cluster.mirror ~nodes:1 ~copies:1
       [ { Cluster.ev_node = 0; ev_at = Float.infinity; ev_down_for = 1.0 } ]);
  rejects "infinite outage"
    (Cluster.mirror ~nodes:1 ~copies:1
       [ { Cluster.ev_node = 0; ev_at = 1.0; ev_down_for = Float.infinity } ]);
  rejects "non-positive outage"
    (Cluster.mirror ~nodes:1 ~copies:1
       [ { Cluster.ev_node = 0; ev_at = 1.0; ev_down_for = 0.0 } ])

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_schedule_of_seed () =
  let mk ?(overlap = false) seed =
    Cluster.schedule_of_seed ~overlap ~seed ~nodes:3 ~crashes:8 ~horizon_ns:1e6
      ~down_ns:1e4
  in
  (* Deterministic: same seed, same schedule — in both modes. *)
  Alcotest.(check bool) "deterministic" true (mk 7 = mk 7);
  Alcotest.(check bool) "deterministic overlap" true
    (mk ~overlap:true 7 = mk ~overlap:true 7);
  Alcotest.(check bool) "seed-sensitive" true (mk 7 <> mk 8);
  let sched = mk 7 in
  Alcotest.(check int) "count" 8 (List.length sched);
  (* Serialized: each crash begins only after the previous node has
     recovered, so at most one node is ever down. *)
  let rec check_serial = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "no overlapping outages" true
        (b.Cluster.ev_at >= a.Cluster.ev_at +. a.Cluster.ev_down_for);
      check_serial rest
    | _ -> ()
  in
  check_serial sched;
  List.iter
    (fun e ->
      Alcotest.(check bool) "node in range" true
        (e.Cluster.ev_node >= 0 && e.Cluster.ev_node < 3);
      Alcotest.(check bool) "positive outage" true (e.Cluster.ev_down_for > 0.0))
    sched;
  (* Overlap mode keeps the raw times: sorted, inside the horizon, and
     (with 8 outages of >= 2e4 ns packed into a 1e5 ns horizon, by
     pigeonhole) at least one outage starts while another is still
     running — the regime the quorum rules exist for. *)
  let raw =
    Cluster.schedule_of_seed ~overlap:true ~seed:7 ~nodes:3 ~crashes:8
      ~horizon_ns:1e5 ~down_ns:4e4
  in
  let sorted = List.sort (fun a b -> compare a.Cluster.ev_at b.Cluster.ev_at) raw in
  Alcotest.(check bool) "overlap times sorted" true (raw = sorted);
  List.iter
    (fun e ->
      Alcotest.(check bool) "inside horizon" true
        (e.Cluster.ev_at >= 0.0 && e.Cluster.ev_at <= 1e5))
    raw;
  let rec any_overlap = function
    | a :: (b :: _ as rest) ->
      b.Cluster.ev_at < a.Cluster.ev_at +. a.Cluster.ev_down_for
      || any_overlap rest
    | _ -> false
  in
  Alcotest.(check bool) "outages genuinely overlap" true (any_overlap raw);
  (* Satellite: bad arguments raise Invalid_argument (never an
     assertion, so the checks survive release builds). *)
  expect_invalid "negative crashes" (fun () ->
      Cluster.schedule_of_seed ~overlap:false ~seed:1 ~nodes:2 ~crashes:(-1)
        ~horizon_ns:1e6 ~down_ns:1e4);
  expect_invalid "zero nodes" (fun () ->
      Cluster.schedule_of_seed ~overlap:false ~seed:1 ~nodes:0 ~crashes:1
        ~horizon_ns:1e6 ~down_ns:1e4);
  expect_invalid "infinite horizon" (fun () ->
      Cluster.schedule_of_seed ~overlap:false ~seed:1 ~nodes:2 ~crashes:1
        ~horizon_ns:Float.infinity ~down_ns:1e4);
  expect_invalid "nan outage" (fun () ->
      Cluster.schedule_of_seed ~overlap:true ~seed:1 ~nodes:2 ~crashes:1
        ~horizon_ns:1e6 ~down_ns:Float.nan)

(* --- crash/failover state machine ---------------------------------------- *)

let test_failover_epoch () =
  let t =
    Cluster.create ~capacity:65536
      (Cluster.mirror ~nodes:2 ~copies:2
         [ { Cluster.ev_node = 0; ev_at = 100.0; ev_down_for = 50.0 } ])
  in
  Cluster.write_le t ~addr:0 ~len:8 42L;
  Alcotest.(check int) "epoch 0" 0 (Cluster.epoch t);
  Alcotest.(check bool) "redundant" true (snd (Cluster.scheme t) >= 1);
  Alcotest.(check (pair int int)) "scheme" (1, 1) (Cluster.scheme t);
  Alcotest.(check int) "node 0 serving" 0 (Cluster.serving_node t);
  (* Before the crash is due, poll is a no-op. *)
  Alcotest.(check int) "no early incidents" 0 (List.length (Cluster.poll t ~now:99.0));
  let incidents = Cluster.poll t ~now:120.0 in
  (match incidents with
  | [ Cluster.Failover { failed; epoch; down; _ } ] ->
    Alcotest.(check int) "failed node" 0 failed;
    Alcotest.(check int) "epoch bumped" 1 epoch;
    Alcotest.(check int) "one down" 1 down
  | _ -> Alcotest.fail "expected exactly one Failover");
  Alcotest.(check int) "epoch accessor" 1 (Cluster.epoch t);
  Alcotest.(check int) "service moved" 1 (Cluster.serving_node t);
  Alcotest.(check (float 0.0)) "node outage window" 150.0
    (Cluster.node_down_until t ~node:0);
  (* The surviving copy decodes the data: failover lost nothing. *)
  Alcotest.(check int64) "data survived" 42L (Cluster.read_le t ~addr:0 ~len:8);
  Alcotest.(check bool) "reconstruction counted" true
    ((Cluster.stats t).Cluster.reconstructions > 0);
  (* The crashed node returns at t=150 and is rebuilt from survivors. *)
  (match Cluster.poll t ~now:200.0 with
  | [ Cluster.Recovered { node; whole; resync_bytes; _ } ] ->
    Alcotest.(check int) "node 0 back" 0 node;
    Alcotest.(check bool) "cluster whole again" true whole;
    Alcotest.(check bool) "resynced bytes" true (resync_bytes > 0)
  | _ -> Alcotest.fail "expected exactly one Recovered");
  Alcotest.(check int) "node 0 serving again" 0 (Cluster.serving_node t);
  Alcotest.(check int64) "rebuilt data" 42L (Cluster.read_le t ~addr:0 ~len:8);
  Alcotest.(check bool) "never degraded" false (Cluster.degraded t)

(* Directed overlapping-two-node-outage test for m = 2: with two nodes
   of an EC(4,2) group down at once, every read still decodes the
   exact written bytes (double-erasure Reed-Solomon recovery), writes
   made during the outage survive, and nothing is ever lost. *)
let test_overlapping_outages_m2 () =
  let v a = Int64.of_int ((a * 7) + 1) in
  let cap = 8192 in
  let t =
    Cluster.create ~capacity:cap
      (Cluster.ec ~chunk:64 ~nodes:6 ~k:4 ~m:2
         [
           { Cluster.ev_node = 1; ev_at = 100.0; ev_down_for = 500.0 };
           { Cluster.ev_node = 2; ev_at = 150.0; ev_down_for = 500.0 };
         ])
  in
  let addrs = List.init (cap / 8) (fun i -> i * 8) in
  List.iter (fun a -> Cluster.write_le t ~addr:a ~len:8 (v a)) addrs;
  (match Cluster.poll t ~now:200.0 with
  | [ Cluster.Failover { down = 1; _ }; Cluster.Failover { down = 2; _ } ] -> ()
  | _ -> Alcotest.fail "expected two quorum-holding Failovers");
  Alcotest.(check int) "two down" 2 (Cluster.down_count t);
  Alcotest.(check (float 0.0)) "within quorum" 0.0 (Cluster.down_until t);
  (* Every read decodes bit-identically while both nodes are down. *)
  List.iter
    (fun a ->
      Alcotest.(check int64)
        (Printf.sprintf "decode addr %d" a)
        (v a) (Cluster.read_le t ~addr:a ~len:8))
    addrs;
  Alcotest.(check bool) "double-erasure decodes counted" true
    ((Cluster.stats t).Cluster.reconstructions > 0);
  (* Decode debt is drained by the cache layer; here we drain manually. *)
  Alcotest.(check bool) "survivor read debt" true
    (Cluster.take_reconstruction t > 0);
  Alcotest.(check int) "debt drained" 0 (Cluster.take_reconstruction t);
  (* Writes during the outage update surviving parity incrementally. *)
  List.iter
    (fun a -> Cluster.write_le t ~addr:a ~len:8 (Int64.neg (v a)))
    (List.filteri (fun i _ -> i mod 5 = 0) addrs);
  (match Cluster.poll t ~now:1000.0 with
  | [ Cluster.Recovered _; Cluster.Recovered { whole = true; _ } ] -> ()
  | _ -> Alcotest.fail "expected two Recovered, cluster whole");
  List.iter
    (fun a ->
      let expect = if a / 8 mod 5 = 0 then Int64.neg (v a) else v a in
      Alcotest.(check int64)
        (Printf.sprintf "post-recovery addr %d" a)
        expect (Cluster.read_le t ~addr:a ~len:8))
    addrs;
  Alcotest.(check bool) "never degraded" false (Cluster.degraded t);
  Alcotest.(check int) "nothing lost" 0 (Cluster.stats t).Cluster.lost_bytes

(* Past-quorum data loss is exact: only the crashed node's data chunks
   in over-quorum stripe groups are lost; chunks decodable at crash
   time (the first down node's) are materialized and keep serving. *)
let test_past_quorum_loss_accounting () =
  let v a = Int64.of_int ((a * 13) + 5) in
  let cap = 4096 in
  let t =
    Cluster.create ~capacity:cap
      (Cluster.ec ~chunk:64 ~nodes:3 ~k:2 ~m:1
         [
           { Cluster.ev_node = 0; ev_at = 100.0; ev_down_for = 1000.0 };
           { Cluster.ev_node = 1; ev_at = 200.0; ev_down_for = 1000.0 };
         ])
  in
  let addrs = List.init (cap / 8) (fun i -> i * 8) in
  List.iter (fun a -> Cluster.write_le t ~addr:a ~len:8 (v a)) addrs;
  (match Cluster.poll t ~now:150.0 with
  | [ Cluster.Failover { failed = 0; _ } ] -> ()
  | _ -> Alcotest.fail "first crash holds quorum");
  (* One down of m = 1: reads still decode. *)
  List.iter
    (fun a -> Alcotest.(check int64) "decode ok" (v a) (Cluster.read_le t ~addr:a ~len:8))
    addrs;
  let lost_bytes =
    match Cluster.poll t ~now:250.0 with
    | [ Cluster.Data_lost { node = 1; lost_bytes; down = 2; _ } ] -> lost_bytes
    | _ -> Alcotest.fail "second crash loses data"
  in
  Alcotest.(check bool) "bytes lost" true (lost_bytes > 0);
  Alcotest.(check bool) "degraded" true (Cluster.degraded t);
  Alcotest.(check (float 0.0)) "outage window until first recovery" 1100.0
    (Cluster.down_until t);
  let extents = Cluster.take_lost_extents t in
  Alcotest.(check int) "extent sum matches lost_bytes" lost_bytes
    (List.fold_left (fun acc (_, l) -> acc + l) 0 extents);
  Alcotest.(check int) "drained" 0 (List.length (Cluster.take_lost_extents t));
  let in_lost a = List.exists (fun (ea, el) -> a >= ea && a < ea + el) extents in
  List.iter
    (fun a ->
      if in_lost a then
        Alcotest.(check int64)
          (Printf.sprintf "lost addr %d reads zero" a)
          0L (Cluster.read_le t ~addr:a ~len:8)
      else
        Alcotest.(check int64)
          (Printf.sprintf "surviving addr %d intact" a)
          (v a) (Cluster.read_le t ~addr:a ~len:8))
    addrs;
  Alcotest.(check int) "stats agree" lost_bytes (Cluster.stats t).Cluster.lost_bytes

(* The scheme's bytes-on-wire: EC(4,2) pays two parity-row updates of
   one chunk each per full-stripe write; a 3-way mirror pays two full
   copies.  Equal fault tolerance (both survive any two concurrent
   failures), >= 30% less redundancy traffic — the acceptance bar. *)
let test_bytes_on_wire_scheme () =
  let mirror3 =
    Cluster.create ~capacity:65536 (Cluster.mirror ~nodes:3 ~copies:3 [])
  in
  let ec42 = Cluster.create ~capacity:65536 (Cluster.ec ~nodes:6 ~k:4 ~m:2 []) in
  let wire t =
    List.fold_left (fun a (_, b) -> a + b) 0
      (Cluster.replica_payloads t ~addr:0 ~extents:[ (0, 4096) ])
  in
  Alcotest.(check int) "mirror pays two full copies" (2 * 4096) (wire mirror3);
  Alcotest.(check int) "ec pays two chunk rows" 2048 (wire ec42);
  Alcotest.(check bool) "ec cuts bytes-on-wire >= 30%" true
    (float_of_int (wire ec42) <= 0.7 *. float_of_int (wire mirror3));
  (* The data-plane write accounts exactly the advertised payloads. *)
  let buf = Bytes.make 4096 'x' in
  Cluster.write ec42 ~addr:0 ~len:4096 ~src:buf ~src_off:0;
  Alcotest.(check int) "write stats match payloads" 2048
    (Cluster.stats ec42).Cluster.replication_bytes

(* Satellite: [clear] resets the sticky degraded flag and all per-run
   stats, so a reused cluster never reports a previous run's damage. *)
let test_clear_resets_degraded () =
  let t =
    Cluster.create ~capacity:4096
      { Cluster.spec_default with
        Cluster.schedule =
          [ { Cluster.ev_node = 0; ev_at = 100.0; ev_down_for = 50.0 } ]
      }
  in
  Cluster.write_le t ~addr:0 ~len:8 9L;
  ignore (Cluster.poll t ~now:120.0);
  Cluster.observe_recovery t 123.0;
  Alcotest.(check bool) "degraded after loss" true (Cluster.degraded t);
  Alcotest.(check bool) "stats dirty" true ((Cluster.stats t).Cluster.crashes > 0);
  Cluster.clear t;
  Alcotest.(check bool) "degraded reset" false (Cluster.degraded t);
  let st = Cluster.stats t in
  Alcotest.(check int) "crashes reset" 0 st.Cluster.crashes;
  Alcotest.(check int) "failovers reset" 0 st.Cluster.failovers;
  Alcotest.(check int) "lost reset" 0 st.Cluster.lost_bytes;
  Alcotest.(check int) "replication reset" 0 st.Cluster.replication_bytes;
  Alcotest.(check int) "reconstructions reset" 0 st.Cluster.reconstructions;
  Alcotest.(check int) "recovery hist reset" 0
    (Mira_telemetry.Metrics.hist_count st.Cluster.recovery);
  Alcotest.(check int) "lost extents drained" 0
    (List.length (Cluster.take_lost_extents t));
  Alcotest.(check int64) "stores zeroed" 0L (Cluster.read_le t ~addr:0 ~len:8)

let test_of_store_passthrough () =
  let far = Far_store.create ~capacity:4096 in
  let t = Cluster.of_store far in
  Cluster.write_le t ~addr:8 ~len:8 5L;
  Alcotest.(check int64) "shared store" 5L (Far_store.read_le far ~addr:8 ~len:8);
  Alcotest.(check bool) "no events ever" true (Cluster.next_event_at t = infinity);
  Alcotest.(check int) "no incidents" 0 (List.length (Cluster.poll t ~now:1e12))

(* --- crash due before the first access ----------------------------------- *)

let test_crash_before_first_access () =
  (* Setting the layout touches no cluster state: a failover due before
     the first far access is processed at that access, like any other
     crash, and the surviving mirror serves the data. *)
  let rt =
    Runtime.create
      { (Runtime.config_default ~local_budget:65536 ~far_capacity:(1 lsl 20)) with
        Runtime.cluster =
          Cluster.mirror ~nodes:2 ~copies:2
            [ { Cluster.ev_node = 0; ev_at = 1.0; ev_down_for = 1e4 } ] }
  in
  let cluster = Runtime.cluster rt in
  Runtime.configure rt
    {
      Manager.sections =
        [ (Section.config_default ~sec_id:1 ~name:"s" ~line:64 ~size:4096, [ 3 ]) ];
      per_thread = [];
    };
  let ms = Runtime.memsys rt in
  let ptr = ms.Mira_runtime.Memsys.alloc ~tid:0 ~site:3 ~bytes:128 ~heap:true in
  let addr = ptr.Mira_runtime.Memsys.addr in
  Cluster.write_le cluster ~addr ~len:8 1L;
  Cluster.write_le cluster ~addr:(addr + 64) ~len:8 2L;
  Alcotest.(check bool) "crash due" true
    (Cluster.next_event_at cluster <= Clock.now (ms.Mira_runtime.Memsys.clock ~tid:0));
  Alcotest.(check int) "not processed before the first access" 0
    (Cluster.stats cluster).Cluster.failovers;
  let load a =
    ms.Mira_runtime.Memsys.load ~tid:0 ~ptr:{ ptr with Mira_runtime.Memsys.addr = a } ~len:8
      ~native:false
  in
  Alcotest.(check int64) "data survived the crash" 1L (load addr);
  let st = Cluster.stats cluster in
  Alcotest.(check int) "failover at the first access" 1 st.Cluster.failovers;
  Alcotest.(check int) "recovery time recorded" 1
    (Mira_telemetry.Metrics.hist_count st.Cluster.recovery);
  Alcotest.(check int64) "second line too" 2L (load (addr + 64));
  Alcotest.(check bool) "never degraded" false (Cluster.degraded cluster)

let micro_cfg =
  { Mira_workloads.Micro_sum.config_default with
    Mira_workloads.Micro_sum.elems = 20_000; stride = 8 }

let run_workload spec =
  let far = Mira_workloads.Micro_sum.far_bytes micro_cfg in
  let far_capacity = Mira_util.Misc.round_up (4 * far) 4096 in
  let prog = Mira_workloads.Micro_sum.build micro_cfg in
  let rt =
    Runtime.create
      { (Runtime.config_default ~local_budget:(far / 4) ~far_capacity) with
        Runtime.cluster = spec }
  in
  let ms = Runtime.memsys rt in
  let measured =
    Mira_passes.Instrument.run_only prog ~names:[ C.work_function prog ]
  in
  let machine = Machine.create ~seed:42 ms measured in
  let v, work_ns = C.measure_work ms machine in
  (v, work_ns, rt)

(* Satellite: the quorum property over random overlapping schedules.
   Any (k, m) scheme from the pool, any seeded schedule of up to m
   genuinely concurrent outages (so at most m nodes are ever down at
   once): the workload's output is bit-identical to the no-fault run
   and nothing is lost.  Generalizes the old replication-2 property. *)
let qcheck_quorum_bit_identical =
  let baseline = lazy (let v, _, _ = run_workload Cluster.spec_default in v) in
  QCheck.Test.make
    ~name:"(k,m) quorum: output bit-identical while <= m down (overlapping)"
    ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let nodes, k, m =
        match seed mod 4 with
        | 0 -> (2, 1, 1)  (* classic primary + mirror *)
        | 1 -> (3, 2, 1)  (* XOR stripe *)
        | 2 -> (6, 4, 2)  (* RAID-6-style double parity *)
        | _ -> (3, 1, 2)  (* 3-way mirror *)
      in
      let schedule =
        Cluster.schedule_of_seed ~overlap:true ~seed ~nodes ~crashes:m
          ~horizon_ns:2e5 ~down_ns:2e4
      in
      let v, work_ns, rt =
        run_workload (Cluster.ec ~chunk:1024 ~nodes ~k ~m schedule)
      in
      let st = Cluster.stats (Runtime.cluster rt) in
      Mira_interp.Value.equal v (Lazy.force baseline)
      && st.Cluster.lost_bytes = 0
      && Runtime.lost_bytes_total rt = 0
      && work_ns > 0.0)

let test_degraded_run_completes () =
  (* Redundancy off, the only node crashes mid-run: the workload still
     completes (no exception), lost bytes are accounted per object, and
     the report says degraded. *)
  let schedule =
    Cluster.schedule_of_seed ~overlap:false ~seed:3 ~nodes:1 ~crashes:1
      ~horizon_ns:1e5 ~down_ns:3e4
  in
  let v, _, rt =
    run_workload { Cluster.spec_default with Cluster.schedule }
  in
  ignore v;
  Alcotest.(check bool) "degraded" true (Cluster.degraded (Runtime.cluster rt));
  Alcotest.(check bool) "lost bytes accounted" true
    (Runtime.lost_bytes_total rt > 0);
  Alcotest.(check bool) "per-site attribution" true
    (Runtime.lost_bytes_by_site rt <> []);
  (* The metrics registry carries the same accounting. *)
  let reg = Mira_telemetry.Metrics.create () in
  Runtime.publish rt reg;
  (match Mira_telemetry.Metrics.find reg "runtime.degraded" with
  | Some (Mira_telemetry.Metrics.Counter 1) -> ()
  | _ -> Alcotest.fail "runtime.degraded not published");
  match Mira_telemetry.Metrics.find reg "node.crashes" with
  | Some (Mira_telemetry.Metrics.Counter n) ->
    Alcotest.(check bool) "crashes counted" true (n >= 1)
  | _ -> Alcotest.fail "node.crashes not published"

let test_replication_traffic_modeled () =
  (* With redundancy on, writebacks produce extra outbound messages
     (the parity updates ride detached writes) and the cluster counts
     the bytes-on-wire. *)
  let run spec =
    let _, _, rt = run_workload spec in
    let net = Net.stats (Runtime.net rt) in
    (net.Net.bytes_writeback, Cluster.stats (Runtime.cluster rt))
  in
  let wb1, _ = run Cluster.spec_default in
  let wb2, st2 = run (Cluster.mirror ~nodes:2 ~copies:2 []) in
  Alcotest.(check bool) "replica traffic on the wire" true (wb2 >= wb1);
  Alcotest.(check bool) "no crashes, no resync" true
    (st2.Cluster.resync_bytes = 0);
  (* EC metrics are exported for non-trivial clusters. *)
  let _, _, rt = run_workload (Cluster.ec ~nodes:6 ~k:4 ~m:2 []) in
  let reg = Mira_telemetry.Metrics.create () in
  Runtime.publish rt reg;
  (match Mira_telemetry.Metrics.find reg "ec.k" with
  | Some (Mira_telemetry.Metrics.Counter 4) -> ()
  | _ -> Alcotest.fail "ec.k not published");
  match Mira_telemetry.Metrics.find reg "ec.node0.served_bytes" with
  | Some (Mira_telemetry.Metrics.Counter n) ->
    Alcotest.(check bool) "node 0 served traffic" true (n > 0)
  | _ -> Alcotest.fail "ec.node0.served_bytes not published"

(* --- doc drift guard ------------------------------------------------------ *)

(* docs/FAULT_TOLERANCE.md must keep describing the fault-tolerance
   vocabulary the code exports: incident names, placement names, the
   quorum/epoch rules, and the reconstruction attribution cause.
   Rename any of these and this test fails until the doc catches up —
   the same pattern as the OBSERVABILITY.md metric guard. *)
let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_fault_doc_guard () =
  let doc =
    In_channel.with_open_bin "../docs/FAULT_TOLERANCE.md" In_channel.input_all
  in
  let required =
    [
      "Failover"; "Data_lost"; "Recovered";  (* incident constructors *)
      Cluster.placement_name Cluster.Flat;
      Cluster.placement_name Cluster.Rotate;
      "quorum"; "epoch"; "stripe"; "parity"; "placement";
      Mira_telemetry.Attribution.cause_name Mira_telemetry.Attribution.Reconstruct;
      "take_lost_extents"; "schedule_of_seed"; "overlap";
      "Transfer.writeback";
    ]
  in
  List.iter
    (fun tok ->
      if not (contains_sub doc tok) then
        Alcotest.failf "docs/FAULT_TOLERANCE.md no longer mentions %S" tok)
    required

let suite =
  [
    Alcotest.test_case "spec validation" `Quick test_validate_spec;
    Alcotest.test_case "seeded schedule" `Quick test_schedule_of_seed;
    Alcotest.test_case "failover + epoch" `Quick test_failover_epoch;
    Alcotest.test_case "overlapping outages (m=2)" `Quick
      test_overlapping_outages_m2;
    Alcotest.test_case "past-quorum loss accounting" `Quick
      test_past_quorum_loss_accounting;
    Alcotest.test_case "bytes-on-wire per scheme" `Quick
      test_bytes_on_wire_scheme;
    Alcotest.test_case "clear resets degraded + stats" `Quick
      test_clear_resets_degraded;
    Alcotest.test_case "of_store passthrough" `Quick test_of_store_passthrough;
    Alcotest.test_case "crash due before the first access" `Quick
      test_crash_before_first_access;
    Alcotest.test_case "fault-tolerance doc guard" `Quick test_fault_doc_guard;
    QCheck_alcotest.to_alcotest qcheck_quorum_bit_identical;
    Alcotest.test_case "degraded run completes" `Slow test_degraded_run_completes;
    Alcotest.test_case "replication traffic" `Slow test_replication_traffic_modeled;
  ]
