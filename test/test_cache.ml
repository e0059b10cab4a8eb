(* Tests for cache sections, the swap section, the manager and the
   sizing solver — including the central coherence property: any
   access sequence through any section configuration must read the same
   data as a flat reference memory. *)
module Params = Mira_sim.Params
module Clock = Mira_sim.Clock
module Net = Mira_sim.Net
module Far_store = Mira_sim.Far_store
module Cluster = Mira_sim.Cluster
module Section = Mira_cache.Section
module Swap = Mira_cache.Swap_section
module Manager = Mira_cache.Manager
module Cache_section = Mira_cache.Cache_section
module Sizing = Mira_cache.Sizing
module Attribution = Mira_telemetry.Attribution

let make_env () =
  let net = Net.create Params.default in
  let far = Cluster.of_store (Far_store.create ~capacity:(1 lsl 20)) in
  (net, far, Clock.create ())

let cfg_of structure ~line ~size =
  { (Section.config_default ~sec_id:1 ~name:"t" ~line ~size) with
    Section.structure }

let test_section_basic structure () =
  let net, far, clock = make_env () in
  let s = Section.create net far (cfg_of structure ~line:64 ~size:1024) in
  Section.store s ~clock ~addr:128 ~len:8 42L;
  Alcotest.(check int64) "read back" 42L (Section.load s ~clock ~addr:128 ~len:8);
  Alcotest.(check bool) "resident" true (Section.resident s ~addr:128);
  let st = Section.stats s in
  Alcotest.(check bool) "counted" true (st.Section.hits + st.Section.misses >= 2)

let test_section_writeback_on_evict () =
  let net, far, clock = make_env () in
  (* Two-line direct section: address 0 and 128 conflict (line 64, 2 slots:
     lines 0 and 2 map to slot 0). *)
  let s = Section.create net far (cfg_of Section.Direct ~line:64 ~size:128) in
  Section.store s ~clock ~addr:0 ~len:8 7L;
  (* line index 2 -> slot 0: evicts line 0, forcing writeback *)
  Section.store s ~clock ~addr:128 ~len:8 9L;
  Alcotest.(check int64) "evicted data persisted" 7L (Cluster.read_le far ~addr:0 ~len:8);
  Alcotest.(check int64) "reload" 7L (Section.load s ~clock ~addr:0 ~len:8)

let test_section_prefetch_ready_time () =
  let net, far, clock = make_env () in
  let s = Section.create net far (cfg_of Section.Full_assoc ~line:64 ~size:1024) in
  Cluster.write_le far ~addr:256 ~len:8 5L;
  Section.prefetch s ~clock ~addr:256 ~len:8;
  let before = Clock.now clock in
  let v = Section.load s ~clock ~addr:256 ~len:8 in
  Alcotest.(check int64) "prefetched value" 5L v;
  let st = Section.stats s in
  Alcotest.(check int) "late prefetch stalled" 1 st.Section.late_prefetch;
  Alcotest.(check bool) "clock moved to ready" true (Clock.now clock > before)

let test_section_flush_evict_priority () =
  let net, far, clock = make_env () in
  let s = Section.create net far (cfg_of Section.Full_assoc ~line:64 ~size:256) in
  (* Fill the 4 slots. *)
  List.iter (fun a -> Section.store s ~clock ~addr:a ~len:8 1L) [ 0; 64; 128; 192 ];
  Section.flush_evict s ~clock ~addr:64 ~len:8;
  (* Next insertion should evict the hinted line (64). *)
  Section.store s ~clock ~addr:512 ~len:8 2L;
  let st = Section.stats s in
  Alcotest.(check int) "hinted victim" 1 st.Section.hinted_evictions;
  Alcotest.(check bool) "hinted line gone" false (Section.resident s ~addr:64)

let test_section_native_fallback () =
  let net, far, clock = make_env () in
  let s = Section.create net far (cfg_of Section.Direct ~line:64 ~size:256) in
  Cluster.write_le far ~addr:0 ~len:8 77L;
  (* native load on an absent line must still return correct data *)
  Alcotest.(check int64) "fallback correct" 77L
    (Section.access s ~clock ~addr:0 ~len:8 ~native:true ~write:false 0L)

let test_section_no_meta_cheap_hits () =
  let net, far, clock = make_env () in
  let cfg = { (cfg_of Section.Direct ~line:64 ~size:256) with Section.no_meta = true } in
  let s = Section.create net far cfg in
  Section.store s ~clock ~addr:0 ~len:8 1L;
  let t0 = Clock.now clock in
  ignore (Section.load s ~clock ~addr:0 ~len:8);
  let hit_cost = Clock.now clock -. t0 in
  Alcotest.(check bool) "hit is native cost" true
    (hit_cost <= Params.default.Params.native_mem_ns +. 0.001);
  Alcotest.(check int) "no metadata" 0 (Section.metadata_bytes s)

let test_section_discard_range () =
  let net, far, clock = make_env () in
  let s = Section.create net far (cfg_of Section.Full_assoc ~line:64 ~size:256) in
  Cluster.write_le far ~addr:0 ~len:8 10L;
  ignore (Section.load s ~clock ~addr:0 ~len:8);
  Section.store s ~clock ~addr:0 ~len:8 99L;
  (* Simulate a far-side mutation, then discard the stale line. *)
  Section.discard_range s ~addr:0 ~len:8;
  Cluster.write_le far ~addr:0 ~len:8 55L;
  Alcotest.(check int64) "fresh data after discard" 55L
    (Section.load s ~clock ~addr:0 ~len:8)

(* --- fully associative victim choice: CLOCK with frequency admission --- *)

(* [loads] Zipf 0.99 line loads (line [r] has rank [r]) from a fixed
   seed, through a [slots]-line fully associative section. *)
let zipf_trace_hits ~slots ~lines ~loads =
  let line = 64 in
  let net, far, clock = make_env () in
  let s = Section.create net far (cfg_of Section.Full_assoc ~line ~size:(slots * line)) in
  let cum = Array.make lines 0.0 in
  for r = 0 to lines - 1 do
    cum.(r) <- (if r = 0 then 0.0 else cum.(r - 1)) +. (1.0 /. Float.pow (float (r + 1)) 0.99)
  done;
  let rng = Mira_util.Prng.create 7 in
  for _ = 1 to loads do
    let u = Mira_util.Prng.float rng cum.(lines - 1) in
    let lo = ref 0 and hi = ref (lines - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) > u then hi := mid else lo := mid + 1
    done;
    ignore (Section.load s ~clock ~addr:(!lo * line) ~len:8)
  done;
  (Section.stats s).Section.hits

(* 32 slots over 256 lines, as each kv_zipf tenant's section.  Plain
   CLOCK (recency only) scored 10,194 hits on this trace: a line
   touched once pushed out lines touched hundreds of times. *)
let test_full_assoc_zipf_hits () =
  let clock_hits = 10_194 in
  let hits = zipf_trace_hits ~slots:32 ~lines:256 ~loads:20_000 in
  Alcotest.(check int) "hits with frequency admission" 13_008 hits;
  Alcotest.(check bool) "more than plain CLOCK" true (hits > clock_hits)

(* A stream prefetched [distance] lines ahead through 8 slots: only the
   lines before the first prefetch lands miss, exactly as under plain
   CLOCK, so no prefetched line is evicted before its use. *)
let test_full_assoc_prefetch_stream () =
  let line = 64 in
  let run distance =
    let net, far, clock = make_env () in
    let s = Section.create net far (cfg_of Section.Full_assoc ~line ~size:(8 * line)) in
    for l = 0 to 255 do
      Section.prefetch s ~clock ~addr:((l + distance) * line) ~len:line;
      for w = 0 to (line / 8) - 1 do
        ignore (Section.load s ~clock ~addr:((l * line) + (8 * w)) ~len:8)
      done
    done;
    let st = Section.stats s in
    (st.Section.misses, st.Section.late_prefetch, st.Section.admit_rejects)
  in
  Alcotest.(check (list (triple int int int)))
    "(misses, late prefetches, admission rejects) at distance 1 and 2"
    [ (1, 127, 0); (2, 84, 0) ]
    [ run 1; run 2 ]

(* Lines 0-2 loaded five times each and line 3 once fill a 4-slot
   section; line 3's slot is then the probationary one. *)
let probation_setup () =
  let net, far, clock = make_env () in
  let s = Section.create net far (cfg_of Section.Full_assoc ~line:64 ~size:256) in
  let load l = ignore (Section.load s ~clock ~addr:(l * 64) ~len:8) in
  List.iter (fun l -> for _ = 1 to 5 do load l done) [ 0; 1; 2 ];
  load 3;
  (s, clock, load)

let test_full_assoc_probation () =
  let resident s lines = List.map (fun l -> Section.resident s ~addr:(l * 64)) lines in
  let rejects s = (Section.stats s).Section.admit_rejects in
  (* A hint clears probation: once re-used, line 3 (2 accesses) is an
     ordinary line, so CLOCK's candidate, line 0 (5), goes. *)
  let s, clock, load = probation_setup () in
  Section.flush_evict s ~clock ~addr:(3 * 64) ~len:8;
  load 3;
  load 4;
  Alcotest.(check (list bool)) "hinted: CLOCK's candidate evicted" [ false; true; true ]
    (resident s [ 0; 3; 4 ]);
  Alcotest.(check int) "hinted: no rejection" 0 (rejects s);
  (* Line 4's demand fill is probationary: 1 access against CLOCK's
     candidate line 1 (5), so line 4 goes instead. *)
  load 5;
  Alcotest.(check (list bool)) "demand fill on probation evicted" [ true; false; true ]
    (resident s [ 1; 4; 5 ]);
  Alcotest.(check int) "one rejection" 1 (rejects s);
  (* A discard clears probation, and a prefetch that reuses the
     discarded slot is never probationary: line 6 (0 accesses) stays
     and CLOCK's candidate, line 0, goes. *)
  let s, clock, load = probation_setup () in
  Section.discard_range s ~addr:(3 * 64) ~len:8;
  Section.prefetch s ~clock ~addr:(6 * 64) ~len:8;
  load 4;
  Alcotest.(check (list bool)) "discarded, then prefetched: CLOCK's candidate evicted"
    [ false; true; true ] (resident s [ 0; 6; 4 ]);
  Alcotest.(check int) "discarded: no rejection" 0 (rejects s)

let test_swap_basic () =
  let net, far, clock = make_env () in
  let sw = Swap.create net far { Swap.page = 4096; capacity = 16384 } in
  Swap.store sw ~clock ~addr:100 ~len:8 13L;
  Alcotest.(check int64) "read" 13L (Swap.load sw ~clock ~addr:100 ~len:8);
  let st = Swap.stats sw in
  Alcotest.(check int) "one fault" 1 st.Swap.faults;
  Alcotest.(check int) "one hit" 1 st.Swap.hits

let test_swap_eviction_and_writeback () =
  let net, far, clock = make_env () in
  let sw = Swap.create net far { Swap.page = 4096; capacity = 8192 } in
  Swap.store sw ~clock ~addr:0 ~len:8 1L;
  Swap.store sw ~clock ~addr:4096 ~len:8 2L;
  Swap.store sw ~clock ~addr:8192 ~len:8 3L;  (* evicts a dirty page *)
  Alcotest.(check int64) "data survives eviction" 1L
    (Swap.load sw ~clock ~addr:0 ~len:8)

(* Hinted frames are evicted lowest frame first, whatever order the
   hints came in; a hit on a hinted page withdraws its hint, and with
   no hint left the CLOCK hand picks the victim. *)
let test_swap_hinted_victims () =
  let net, far, clock = make_env () in
  let sw =
    Swap.create net far { Swap.page = 4096; capacity = 8 * 4096 }
  in
  let load page = ignore (Swap.load sw ~clock ~addr:(page * 4096) ~len:8) in
  let resident page = Swap.resident sw ~addr:(page * 4096) in
  let hint page = Swap.evict_hint sw ~clock ~addr:(page * 4096) ~len:8 in
  for page = 0 to 7 do load page done;  (* page p in frame p *)
  hint 5;
  hint 2;
  load 8;
  Alcotest.(check (list bool)) "frame 2 first" [ false; true ] [ resident 2; resident 5 ];
  load 9;
  Alcotest.(check bool) "then frame 5" false (resident 5);
  hint 6;
  load 6;
  load 10;
  Alcotest.(check (list bool)) "hit withdrew the hint; CLOCK took frame 0"
    [ true; false ] [ resident 6; resident 0 ]

let test_swap_readahead () =
  let net, far, clock = make_env () in
  let sw = Swap.create net far { Swap.page = 4096; capacity = 65536 } in
  Swap.set_readahead sw (fun _ -> (1, 2));
  ignore (Swap.load sw ~clock ~addr:0 ~len:8);
  Alcotest.(check bool) "readahead pages present" true
    (Swap.resident sw ~addr:4096 && Swap.resident sw ~addr:8192);
  let st = Swap.stats sw in
  Alcotest.(check int) "readahead count" 2 st.Swap.readahead_pages

let test_swap_prefetch_past_capacity () =
  let mk () =
    let net = Net.create Params.default in
    let far = Cluster.of_store (Far_store.create ~capacity:(16 * 4096)) in
    let sw =
      Swap.create net far { Swap.page = 4096; capacity = 65536 }
    in
    (sw, Clock.create ())
  in
  let sw, clock = mk () in
  Swap.set_readahead sw (fun _ -> (1, 7));
  ignore (Swap.load sw ~clock ~addr:(12 * 4096) ~len:8);
  Alcotest.(check int) "readahead inside capacity" 3 (Swap.stats sw).Swap.readahead_pages;
  Alcotest.(check bool) "last page resident" true (Swap.resident sw ~addr:(15 * 4096));
  let sw, clock = mk () in
  Swap.prefetch_range sw ~clock ~addr:(15 * 4096) ~len:(4 * 4096);
  Alcotest.(check int) "prefetch inside capacity" 1 (Swap.stats sw).Swap.readahead_pages

(* Both caches move lines through the same transfer path.  Under EC(2,1)
   with the data node of line 0 down, a demand fill pays the erasure
   decode and charges it to [reconstruct]; a synchronous flush of the
   dirty line posts the line plus one write per live parity row, and
   drains the decode the write itself needed as one more (inbound)
   message. *)
let test_transfer_under_ec () =
  let line = 4096 in
  let spec events = Cluster.ec ~nodes:3 ~k:2 ~m:1 events in
  let down = Cluster.node_of_addr (Cluster.create ~capacity:(1 lsl 20) (spec [])) ~addr:0 in
  let check name make =
    let net = Net.create Params.default in
    let far =
      Cluster.create ~capacity:(1 lsl 20)
        (spec [ { Cluster.ev_node = down; ev_at = 1.0; ev_down_for = 1e12 } ])
    in
    ignore (Cluster.poll far ~now:2.0);
    let clock = Clock.create () in
    let ledger = Attribution.create () in
    let load, store, flush = make net far ledger in
    ignore (load ~clock ~addr:0 ~len:8);
    Alcotest.(check bool) (name ^ ": fill charges reconstruct") true
      (Attribution.cause_ns ledger Attribution.Reconstruct > 0.0);
    store ~clock ~addr:0 ~len:8 7L;
    let payloads = Cluster.replica_payloads far ~addr:0 ~extents:[ (0, line) ] in
    Alcotest.(check int) (name ^ ": one live parity row") 1 (List.length payloads);
    let st = Net.stats net in
    let msgs = st.Net.msg_count and wb = st.Net.bytes_writeback in
    let bytes_in = st.Net.bytes_in in
    flush ~clock ~addr:0 ~len:8;
    Alcotest.(check int) (name ^ ": writeback bytes")
      (line + List.fold_left (fun acc (_, b) -> acc + b) 0 payloads)
      (st.Net.bytes_writeback - wb);
    Alcotest.(check bool) (name ^ ": write decoded") true (st.Net.bytes_in > bytes_in);
    Alcotest.(check int) (name ^ ": messages")
      (1 + List.length payloads + 1)
      (st.Net.msg_count - msgs);
    Alcotest.(check bool) (name ^ ": sync writeback charged") true
      (Attribution.cause_ns ledger Attribution.Writeback > 0.0);
    Alcotest.(check int64) (name ^ ": data") 7L (load ~clock ~addr:0 ~len:8)
  in
  check "section" (fun net far ledger ->
      let s = Section.create net far (cfg_of Section.Full_assoc ~line ~size:(4 * line)) in
      Section.set_attribution s ledger;
      (Section.load s, Section.store s, Section.flush_range s));
  check "swap" (fun net far ledger ->
      let sw =
        Swap.create net far { Swap.page = line; capacity = 4 * line }
      in
      Swap.set_attribution sw ledger;
      (Swap.load sw, Swap.store sw, Swap.flush_range sw))

(* Selective transmission both ways.  A payload section holding the
   fields at [payload_extents] of 128-byte elements fills, and writes
   back, exactly those bytes: N dirty evictions post N x payload bytes,
   the far copy of every other byte keeps its contents, and a slot
   stores only the payload, so an access outside it fails. *)
let payload_extents = [ (0, 16); (40, 8) ]
let payload_bytes = 24

let payload_cfg ?(structure = Section.Direct) ?(extents = payload_extents) ~line
    slots =
  let cfg =
    { (cfg_of structure ~line ~size:line) with
      Section.payload = Some extents; side = Net.Two_sided }
  in
  { cfg with Section.size = slots * Section.slot_bytes cfg }

(* Far bytes that are never zero, so a lost or misplaced byte shows. *)
let far_pattern len = Bytes.init len (fun i -> Char.chr (1 + (i * 7 land 0x7f)))

(* Store [i] into field 40 of each of [n] elements through a direct
   section of 4 lines: the first n - 4 lines are evicted dirty. *)
let store_fields s ~clock ~model ~line n =
  for i = 0 to n - 1 do
    let addr = (i * line) + 40 in
    Section.store s ~clock ~addr ~len:8 (Int64.of_int i);
    Bytes.set_int64_le model addr (Int64.of_int i)
  done

let test_payload_writeback_bytes () =
  let line = 128 and n = 12 in
  let evicted = n - 4 in
  let run cfg =
    let net, far, clock = make_env () in
    let model = far_pattern (n * line) in
    Cluster.write far ~addr:0 ~len:(n * line) ~src:model ~src_off:0;
    let s = Section.create net far cfg in
    store_fields s ~clock ~model ~line n;
    let st = Section.stats s in
    Alcotest.(check int) "dirty evictions" evicted st.Section.writebacks;
    let got = Bytes.create (evicted * line) in
    Cluster.read far ~addr:0 ~len:(evicted * line) ~dst:got ~dst_off:0;
    Alcotest.(check string) "far copy of the evicted lines"
      (Bytes.sub_string model 0 (evicted * line)) (Bytes.to_string got);
    ((Net.stats net).Net.bytes_writeback, st.Section.bytes_written)
  in
  let wire, written = run (payload_cfg ~line 4) in
  Alcotest.(check int) "payload writebacks on the wire" (evicted * payload_bytes) wire;
  Alcotest.(check int) "bytes_written" (evicted * payload_bytes) written;
  let wire, written = run (cfg_of Section.Direct ~line ~size:(4 * line)) in
  Alcotest.(check int) "whole-line writebacks on the wire" (evicted * line) wire;
  Alcotest.(check int) "whole-line bytes_written" (evicted * line) written

let fails_check name f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" name
  | exception Assert_failure _ -> ()

let test_payload_packed () =
  let line = 128 in
  let net, far, clock = make_env () in
  let model = far_pattern (4 * line) in
  Cluster.write far ~addr:0 ~len:(4 * line) ~src:model ~src_off:0;
  let s = Section.create net far (payload_cfg ~line 4) in
  Alcotest.(check int64) "payload field" (Bytes.get_int64_le model (line + 8))
    (Section.load s ~clock ~addr:(line + 8) ~len:8);
  Alcotest.(check int64) "field 40" (Bytes.get_int64_le model (line + 40))
    (Section.load s ~clock ~addr:(line + 40) ~len:8);
  Section.store s ~clock ~addr:(line + 44) ~len:4 7L;
  Alcotest.(check int64) "stored in the second extent" 7L
    (Section.load s ~clock ~addr:(line + 44) ~len:4);
  List.iter
    (fun off ->
      fails_check (Printf.sprintf "load at offset %d" off) (fun () ->
          Section.load s ~clock ~addr:(line + off) ~len:8);
      fails_check (Printf.sprintf "store at offset %d" off) (fun () ->
          Section.store s ~clock ~addr:(line + off) ~len:8 1L))
    [ 12; 16; 32; 36; 48; 120 ];
  (* Extents (0, 4) and (8, 8) pack to adjacent bytes; a load from 2 to
     9 spans both and the gap between them. *)
  let s = Section.create net far (payload_cfg ~extents:[ (0, 4); (8, 8) ] ~line 4) in
  Alcotest.(check int64) "second extent" (Bytes.get_int64_le model 8)
    (Section.load s ~clock ~addr:8 ~len:8);
  fails_check "load straddling two extents" (fun () ->
      Section.load s ~clock ~addr:2 ~len:8);
  fails_check "store straddling two extents" (fun () ->
      Section.store s ~clock ~addr:2 ~len:8 1L)

(* A payload section spends its capacity in [slot_bytes] units, its
   extents plus per-slot metadata; a whole-line section still in lines. *)
let test_payload_slot_capacity () =
  let line = 128 and size = 4096 in
  let lines_before_eviction cfg =
    let net, far, clock = make_env () in
    let s = Section.create net far cfg in
    let rec go n =
      ignore (Section.load s ~clock ~addr:(n * line) ~len:8);
      if (Section.stats s).Section.evictions = 0 then go (n + 1) else n
    in
    let n = go 0 in
    (n, Section.metadata_bytes s)
  in
  let payload = { (payload_cfg ~structure:Section.Full_assoc ~line 1) with Section.size } in
  let slot = Section.slot_bytes payload in
  Alcotest.(check int) "slot bytes: payload + full-assoc metadata" (payload_bytes + 48) slot;
  Alcotest.(check (list int)) "slot bytes by structure" [ 48; 56; payload_bytes ]
    (List.map Section.slot_bytes
       [
         payload_cfg ~line 1;
         payload_cfg ~structure:(Section.Set_assoc 2) ~line 1;
         { (payload_cfg ~line 1) with Section.no_meta = true };
       ]);
  let n, meta = lines_before_eviction payload in
  Alcotest.(check int) "payload lines before the first eviction" (size / slot) n;
  (* and 16 B per access count: the [n] lines and the one that evicted *)
  Alcotest.(check int) "metadata per slot and count" ((48 * n) + (16 * (n + 1))) meta;
  Alcotest.(check bool) "packed bytes and slot metadata fit" true
    ((n * (payload_bytes + 48)) <= size);
  let whole = cfg_of Section.Full_assoc ~line ~size in
  Alcotest.(check int) "whole-line slot bytes" line (Section.slot_bytes whole);
  Alcotest.(check int) "whole lines before the first eviction" (size / line)
    (fst (lines_before_eviction whole))

(* On a mirror and on EC(2,1), payload writebacks keep the redundancy
   consistent: with the first line's data node down, decoding returns
   every byte as written, and the fan-out is payload-sized. *)
(* One object allocated into a resident section: a metadata-free
   set-associative payload section with a slot for every line of the
   object.  The runtime fills it at allocation, so every load and store
   after that is a hit at native cost, with nothing missed or evicted;
   eviction hints are ignored, and a line dropped by [discard_range]
   comes back as a charged miss. *)
let test_resident_section () =
  let module Runtime = Mira_runtime.Runtime in
  let module Memsys = Mira_runtime.Memsys in
  let line = 128 and n = 32 and seeded = 1 lsl 16 in
  let rt =
    Runtime.create (Runtime.config_default ~local_budget:(1 lsl 16) ~far_capacity:(1 lsl 20))
  in
  let model = far_pattern seeded in
  Cluster.write (Runtime.cluster rt) ~addr:0 ~len:seeded ~src:model ~src_off:0;
  let cfg =
    { (payload_cfg ~structure:(Section.Set_assoc 8) ~line n) with Section.no_meta = true }
  in
  let cfg = { cfg with Section.size = n * Section.slot_bytes cfg } in
  Alcotest.(check bool) "resident" true (Section.resident_section cfg);
  Alcotest.(check int) "a slot holds only the payload" (n * payload_bytes) cfg.Section.size;
  let mgr = Runtime.manager rt in
  Runtime.configure rt { Manager.sections = [ (cfg, [ 3 ]) ]; per_thread = [] };
  let ms = Runtime.memsys rt in
  let ptr = ms.Memsys.alloc ~tid:0 ~site:3 ~bytes:(n * line) ~heap:true in
  let base = ptr.Memsys.addr in
  Alcotest.(check bool) "object inside the seeded far bytes" true (base + (n * line) <= seeded);
  let s = Option.get (Manager.find_section mgr ~id:1) in
  for i = 0 to n - 1 do
    if not (Section.resident s ~addr:(base + (i * line))) then
      Alcotest.failf "line %d not filled at allocation" i
  done;
  let clock = ms.Memsys.clock ~tid:0 in
  (* past every fill's arrival: no access waits on one *)
  Clock.advance clock 1e6;
  let at i off = { ptr with Memsys.addr = base + (i * line) + off } in
  let access f =
    let t0 = Clock.now clock in
    let v = f () in
    Alcotest.(check (float 1e-6)) "native cost" Params.default.Params.native_mem_ns
      (Clock.now clock -. t0);
    v
  in
  for i = 0 to n - 1 do
    Alcotest.(check int64) "filled from far memory"
      (Bytes.get_int64_le model (base + (i * line)))
      (access (fun () -> ms.Memsys.load ~tid:0 ~ptr:(at i 0) ~len:8 ~native:false));
    access (fun () -> ms.Memsys.store ~tid:0 ~ptr:(at i 40) ~len:8 ~native:false ~value:(Int64.of_int i));
    Alcotest.(check int64) "stored value" (Int64.of_int i)
      (access (fun () -> ms.Memsys.load ~tid:0 ~ptr:(at i 40) ~len:8 ~native:true))
  done;
  let st = Section.stats s in
  Alcotest.(check (list int)) "hits, misses, evictions, late fills" [ 3 * n; 0; 0; 0 ]
    [ st.Section.hits; st.Section.misses; st.Section.evictions; st.Section.late_prefetch ];
  Alcotest.(check (float 0.0)) "hit_ns" 0.0 st.Section.hit_ns;
  Section.flush_evict s ~clock ~addr:base ~len:(n * line);
  Alcotest.(check int) "eviction hints write nothing back" 0 st.Section.writebacks;
  Section.discard_range s ~addr:base ~len:line;
  let t0 = Clock.now clock in
  Alcotest.(check int64) "refetched after discard" (Bytes.get_int64_le model base)
    (ms.Memsys.load ~tid:0 ~ptr:(at 0 0) ~len:8 ~native:true);
  Alcotest.(check int) "one miss" 1 st.Section.misses;
  Alcotest.(check bool) "the miss is charged" true
    (st.Section.miss_ns > 0.0 && Clock.now clock -. t0 > Params.default.Params.native_mem_ns)

let test_payload_redundant () =
  let line = 128 and n = 12 in
  let check name spec ~down =
    let outage = [ { Cluster.ev_node = down; ev_at = 1e15; ev_down_for = 1e15 } ] in
    let far = Cluster.create ~capacity:(1 lsl 16) (spec outage) in
    let model = far_pattern (n * line) in
    Cluster.write far ~addr:0 ~len:(n * line) ~src:model ~src_off:0;
    let replicated = (Cluster.stats far).Cluster.replication_bytes in
    let net = Net.create Params.default and clock = Clock.create () in
    let s = Section.create net far (payload_cfg ~line 4) in
    store_fields s ~clock ~model ~line n;
    Section.flush_all s ~clock;
    Alcotest.(check int) (name ^ ": writebacks") n (Section.stats s).Section.writebacks;
    Alcotest.(check int) (name ^ ": replication bytes") (n * payload_bytes)
      ((Cluster.stats far).Cluster.replication_bytes - replicated);
    Alcotest.(check int) (name ^ ": bytes on the wire") (2 * n * payload_bytes)
      (Net.stats net).Net.bytes_writeback;
    ignore (Cluster.poll far ~now:1.5e15);
    Alcotest.(check int) (name ^ ": node down") 1 (Cluster.down_count far);
    let got = Bytes.create (n * line) in
    Cluster.read far ~addr:0 ~len:(n * line) ~dst:got ~dst_off:0;
    Alcotest.(check bool) (name ^ ": decoded") true
      ((Cluster.stats far).Cluster.reconstructions > 0);
    Alcotest.(check string) (name ^ ": data after the crash") (Bytes.to_string model)
      (Bytes.to_string got)
  in
  check "mirror" (fun ev -> Cluster.mirror ~nodes:2 ~copies:2 ev) ~down:0;
  let ec ev = Cluster.ec ~chunk:256 ~nodes:3 ~k:2 ~m:1 ev in
  check "ec(2,1)" ec
    ~down:(Cluster.node_of_addr (Cluster.create ~capacity:(1 lsl 16) (ec [])) ~addr:0)

let test_manager_budget () =
  let net, far, _ = make_env () in
  let m = Manager.create net far ~budget:65536 ~page:4096 in
  Manager.configure m
    { Manager.sections = [ (cfg_of Section.Direct ~line:64 ~size:16384, []) ]; per_thread = [] };
  Alcotest.(check int) "swap shrank" (65536 - 16384)
    (Swap.capacity_bytes (Manager.swap m));
  (* A layout that does not fit leaves the swap section as it was. *)
  let m = Manager.create net far ~budget:65536 ~page:4096 in
  let too_big = { (cfg_of Section.Direct ~line:64 ~size:65536) with Section.sec_id = 2 } in
  Alcotest.check_raises "over budget rejected"
    (Failure "section 2 (65536 B) exceeds local budget (0 B used of 65536)") (fun () ->
      Manager.configure m { Manager.sections = [ (too_big, []) ]; per_thread = [] });
  Alcotest.(check int) "rejection leaves swap as it was" 65536
    (Swap.capacity_bytes (Manager.swap m))

let test_manager_routing () =
  let net, far, _ = make_env () in
  let m = Manager.create net far ~budget:65536 ~page:4096 in
  let sec id = { (cfg_of Section.Direct ~line:64 ~size:8192) with Section.sec_id = id } in
  Manager.configure m
    {
      Manager.sections = [ (sec 1, [ 3; 5 ]); (sec 2, []); (sec 3, []) ];
      per_thread = [ (5, [| 2; 3 |]) ];
    };
  let routed ?(tid = 0) site =
    match Manager.route_handle m ~tid ~site with
    | Cache_section.Section s -> Some (Section.config s).Section.sec_id
    | Cache_section.Swap _ -> None
  in
  (* twice: the second lookup runs on the cached route *)
  for _ = 1 to 2 do
    Alcotest.(check (option int)) "routed" (Some 1) (routed 3);
    Alcotest.(check (option int)) "unrouted runs on swap" None (routed 9);
    Alcotest.(check (option int)) "per-thread wins, tid 0" (Some 2) (routed 5);
    Alcotest.(check (option int)) "per-thread, tid 1" (Some 3) (routed ~tid:1 5);
    Alcotest.(check (option int)) "per-thread, past the last" (Some 3) (routed ~tid:5 5)
  done;
  let m = Manager.create net far ~budget:65536 ~page:4096 in
  Alcotest.check_raises "unknown section"
    (Invalid_argument "Manager.configure: site 4: no section 7") (fun () ->
      Manager.configure m { Manager.sections = [ (sec 1, []) ]; per_thread = [ (4, [| 7 |]) ] })

(* --- the coherence property ---------------------------------------------- *)

type op =
  | Load of int
  | Store of int * int64
  | Pf of int
  | Flush of int
  | Evict of int
  | Discard of int  (* flush_range, then discard_range, as callers do *)

let op_gen space =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun a -> Load (a * 8 mod space)) (int_bound (space / 8)));
        ( 4,
          map2
            (fun a v -> Store (a * 8 mod space, Int64.of_int v))
            (int_bound (space / 8))
            (int_bound 1_000_000) );
        (1, map (fun a -> Pf (a * 8 mod space)) (int_bound (space / 8)));
        (1, map (fun a -> Flush (a * 8 mod space)) (int_bound (space / 8)));
        (1, map (fun a -> Evict (a * 8 mod space)) (int_bound (space / 8)));
        (1, map (fun a -> Discard (a * 8 mod space)) (int_bound (space / 8)));
      ])

(* A [space] a few times the section's [size] makes lines come back
   while others are cached: hits, and victim choices between counted
   lines. *)
let coherence_for ?(space = 8192) structure line size =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "coherence %s line=%d size=%d%s"
         (match structure with
         | Section.Direct -> "direct"
         | Section.Set_assoc k -> Printf.sprintf "set%d" k
         | Section.Full_assoc -> "full")
         line size
         (if space = 8192 then "" else Printf.sprintf " space=%d" space))
    ~count:60
    QCheck.(make (QCheck.Gen.list_size (QCheck.Gen.int_bound 200) (op_gen space)))
    (fun ops ->
      let net, far, clock = make_env () in
      let cfg = cfg_of structure ~line ~size in
      let s = Section.create net far cfg in
      let reference = Hashtbl.create 64 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Load addr ->
            let expect =
              match Hashtbl.find_opt reference addr with Some v -> v | None -> 0L
            in
            let got = Section.load s ~clock ~addr ~len:8 in
            if got <> expect then ok := false
          | Store (addr, v) ->
            Hashtbl.replace reference addr v;
            Section.store s ~clock ~addr ~len:8 v
          | Pf addr -> Section.prefetch s ~clock ~addr ~len:8
          | Flush addr -> Section.flush_evict s ~clock ~addr ~len:8
          | Evict addr -> Section.flush_range s ~clock ~addr ~len:8
          | Discard addr ->
            Section.flush_range s ~clock ~addr ~len:8;
            Section.discard_range s ~addr ~len:8)
        ops;
      (* Final drain: everything must land in the far store. *)
      Section.flush_all s ~clock;
      Hashtbl.iter
        (fun addr v -> if Cluster.read_le far ~addr ~len:8 <> v then ok := false)
        reference;
      !ok)

let coherence_swap =
  QCheck.Test.make ~name:"coherence swap section" ~count:60
    QCheck.(make (QCheck.Gen.list_size (QCheck.Gen.int_bound 200) (op_gen 65536)))
    (fun ops ->
      let net, far, clock = make_env () in
      let sw =
        Swap.create net far { Swap.page = 4096; capacity = 16384 }
      in
      let reference = Hashtbl.create 64 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Load addr ->
            let expect =
              match Hashtbl.find_opt reference addr with Some v -> v | None -> 0L
            in
            if Swap.load sw ~clock ~addr ~len:8 <> expect then ok := false
          | Store (addr, v) ->
            Hashtbl.replace reference addr v;
            Swap.store sw ~clock ~addr ~len:8 v
          | Pf addr -> Swap.prefetch_range sw ~clock ~addr ~len:8
          | Flush addr -> Swap.evict_hint sw ~clock ~addr ~len:8
          | Evict addr -> Swap.flush_range sw ~clock ~addr ~len:8
          | Discard addr ->
            Swap.flush_range sw ~clock ~addr ~len:8;
            Swap.discard_range sw ~addr ~len:8)
        ops;
      Swap.flush_all sw ~clock;
      Hashtbl.iter
        (fun addr v -> if Cluster.read_le far ~addr ~len:8 <> v then ok := false)
        reference;
      !ok)

(* The swap section's page table against a page-set model, with
   readahead on: every access leaves its page resident, a discard
   removes it, the table never names a page the model rules out (one
   neither accessed nor read ahead since its discard), never more pages
   than frames, and every load reads the value last stored.  A resize
   (after discarding everything, as it requires) starts an empty table
   over a new frame count. *)
type pt_op = Pt_load of int | Pt_store of int | Pt_discard of int | Pt_resize of int

let qcheck_page_table =
  let pages = 24 in
  let gen =
    QCheck.Gen.(
      list_size (int_bound 150)
        (frequency
           [
             (4, map (fun p -> Pt_load p) (int_bound (pages - 1)));
             (3, map (fun p -> Pt_store p) (int_bound (pages - 1)));
             (2, map (fun p -> Pt_discard p) (int_bound (pages - 1)));
             (1, map (fun f -> Pt_resize f) (int_range 1 8));
           ]))
  in
  QCheck.Test.make ~name:"swap page table matches a page-set model" ~count:200
    (QCheck.make gen) (fun ops ->
      let net, far, clock = make_env () in
      let sw = Swap.create net far { Swap.page = 4096; capacity = 4 * 4096 } in
      Swap.set_readahead sw (fun _ -> (1, 3));
      let frames = ref 4 in
      let maybe = Hashtbl.create 16 and values = Hashtbl.create 16 in
      let resident p = Swap.resident sw ~addr:(p * 4096) in
      let touch p =
        for q = p to p + 3 do
          Hashtbl.replace maybe q ()
        done
      in
      let discard p =
        Swap.flush_range sw ~clock ~addr:(p * 4096) ~len:8;
        Swap.discard_range sw ~addr:(p * 4096) ~len:8;
        Hashtbl.remove maybe p
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Pt_load p ->
              touch p;
              let want = Option.value ~default:0L (Hashtbl.find_opt values p) in
              Swap.load sw ~clock ~addr:(p * 4096) ~len:8 = want && resident p
            | Pt_store p ->
              touch p;
              let v = Int64.of_int (Hashtbl.length values + (1000 * p)) in
              Hashtbl.replace values p v;
              Swap.store sw ~clock ~addr:(p * 4096) ~len:8 v;
              resident p
            | Pt_discard p ->
              discard p;
              not (resident p)
            | Pt_resize n ->
              for p = 0 to pages + 3 do
                discard p
              done;
              Swap.resize sw ~capacity:(n * 4096);
              frames := n;
              true
          in
          let held = List.filter resident (List.init (pages + 4) Fun.id) in
          ok
          && List.length held <= !frames
          && List.for_all (Hashtbl.mem maybe) held)
        ops)

(* --- sizing --------------------------------------------------------------- *)

let test_sizing_simple () =
  let candidates =
    [
      { Sizing.cand_id = 1; options = [| (100, 10.0); (200, 4.0) |]; aborted = [] };
      { Sizing.cand_id = 2; options = [| (100, 8.0); (200, 2.0) |]; aborted = [] };
    ]
  in
  (* (200,4)+(200,2) would be 6 but needs 400 > 300; the optimum mixes
     one large and one small section at total overhead 12. *)
  match Sizing.solve ~budget:300 candidates with
  | Ok { Sizing.assignment; total_overhead } ->
    Alcotest.(check (float 1e-9)) "optimal" 12.0 total_overhead;
    Alcotest.(check int) "fits budget" 300
      (List.fold_left (fun acc (_, s) -> acc + s) 0 assignment)
  | Error e -> Alcotest.fail e

let test_sizing_infeasible () =
  let candidates =
    [ { Sizing.cand_id = 1; options = [| (500, 1.0) |]; aborted = [] } ]
  in
  Alcotest.(check bool) "infeasible" true
    (Result.is_error (Sizing.solve ~budget:100 candidates))

let qcheck_sizing_matches_brute =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 4 in
      let* budget = int_range 100 600 in
      let* cands =
        list_repeat n
          (let* k = int_range 1 4 in
           let* opts =
             list_repeat k (pair (int_range 10 300) (float_bound_exclusive 100.0))
           in
           return (Array.of_list opts))
      in
      return (budget, cands))
  in
  QCheck.Test.make ~name:"sizing branch&bound == brute force" ~count:200
    (QCheck.make gen)
    (fun (budget, cands) ->
      let candidates =
        List.mapi (fun i options -> { Sizing.cand_id = i; options; aborted = [] }) cands
      in
      let fits s =
        List.fold_left (fun acc (_, size) -> acc + size) 0 s.Sizing.assignment <= budget
      in
      match (Sizing.solve ~budget candidates, Sizing.solve_brute ~budget candidates) with
      | Ok a, Ok b ->
        fits a && fits b
        && Float.abs (a.Sizing.total_overhead -. b.Sizing.total_overhead) < 1e-9
      | Error _, Error _ -> true
      | Ok _, Error _ | Error _, Ok _ -> false)

(* Candidates as the controller builds them: each option's size is
   distinct, and an aborted option is scored at least as high as every
   measured option of its candidate (its abort bound, never below what
   a measured sample of the same section took).  Ties are drawn on
   purpose: a bound equal to a measured score is the case the tie rule
   settles. *)
let gen_bounded_candidates =
  QCheck.Gen.(
    let candidate =
      let* sizes = map (List.sort_uniq compare) (list_size (int_range 1 4) (int_range 10 300)) in
      let* drawn =
        flatten_l (List.map (fun size -> pair (return size) (pair bool (int_range 1 20))) sizes)
      in
      let* slack = int_range 0 3 in
      let measured =
        List.filter_map (fun (_, (ab, score)) -> if ab then None else Some (float_of_int score)) drawn
      in
      let bound = List.fold_left Float.max 0.0 measured +. float_of_int slack in
      return
        ( Array.of_list
            (List.map (fun (size, (ab, score)) -> (size, if ab then bound else float_of_int score)) drawn),
          List.filter_map (fun (size, (ab, _)) -> if ab then Some size else None) drawn )
    in
    pair (int_range 100 600) (list_size (int_range 1 4) candidate))

let qcheck_sizing_aborted_matches_brute =
  QCheck.Test.make ~name:"sizing with aborted options == brute force" ~count:300
    (QCheck.make gen_bounded_candidates)
    (fun (budget, cands) ->
      let candidates =
        List.mapi (fun i (options, aborted) -> { Sizing.cand_id = i; options; aborted }) cands
      in
      match (Sizing.solve ~budget candidates, Sizing.solve_brute ~budget candidates) with
      | Ok a, Ok b -> Float.abs (a.Sizing.total_overhead -. b.Sizing.total_overhead) < 1e-9
      | Error _, Error _ -> true
      | Ok _, Error _ | Error _, Ok _ -> false)

let qcheck_sizing_prefers_measured =
  QCheck.Test.make ~name:"sizing never picks an aborted size over a measured one"
    ~count:300
    (QCheck.make gen_bounded_candidates)
    (fun (_, cands) ->
      let options, aborted = List.hd cands in
      let candidate = { Sizing.cand_id = 0; options; aborted } in
      let measured = Array.exists (fun (size, _) -> not (List.mem size aborted)) options in
      (* every option fits: the choice is the scores' alone *)
      match Sizing.solve ~budget:max_int [ candidate ] with
      | Ok { Sizing.assignment = [ (0, size) ]; _ } ->
        (not measured) || not (List.mem size aborted)
      | Ok _ | Error _ -> false)

let suite =
  [
    Alcotest.test_case "section basic direct" `Quick (test_section_basic Section.Direct);
    Alcotest.test_case "section basic set4" `Quick (test_section_basic (Section.Set_assoc 4));
    Alcotest.test_case "section basic full" `Quick (test_section_basic Section.Full_assoc);
    Alcotest.test_case "section writeback" `Quick test_section_writeback_on_evict;
    Alcotest.test_case "section prefetch ready" `Quick test_section_prefetch_ready_time;
    Alcotest.test_case "section evict hint" `Quick test_section_flush_evict_priority;
    Alcotest.test_case "section native fallback" `Quick test_section_native_fallback;
    Alcotest.test_case "section no_meta" `Quick test_section_no_meta_cheap_hits;
    Alcotest.test_case "section discard" `Quick test_section_discard_range;
    Alcotest.test_case "full-assoc zipf hits" `Quick test_full_assoc_zipf_hits;
    Alcotest.test_case "full-assoc prefetch stream" `Quick test_full_assoc_prefetch_stream;
    Alcotest.test_case "full-assoc probation" `Quick test_full_assoc_probation;
    Alcotest.test_case "swap basic" `Quick test_swap_basic;
    Alcotest.test_case "swap eviction" `Quick test_swap_eviction_and_writeback;
    Alcotest.test_case "swap hinted victims" `Quick test_swap_hinted_victims;
    Alcotest.test_case "swap readahead" `Quick test_swap_readahead;
    Alcotest.test_case "swap prefetch past capacity" `Quick test_swap_prefetch_past_capacity;
    Alcotest.test_case "transfer under EC, both caches" `Quick test_transfer_under_ec;
    Alcotest.test_case "payload writeback bytes" `Quick test_payload_writeback_bytes;
    Alcotest.test_case "payload packed" `Quick test_payload_packed;
    Alcotest.test_case "payload slot capacity" `Quick test_payload_slot_capacity;
    Alcotest.test_case "payload on mirror and EC" `Quick test_payload_redundant;
    Alcotest.test_case "resident section" `Quick test_resident_section;
    Alcotest.test_case "manager budget" `Quick test_manager_budget;
    Alcotest.test_case "manager routing" `Quick test_manager_routing;
    QCheck_alcotest.to_alcotest (coherence_for Section.Direct 64 512);
    QCheck_alcotest.to_alcotest (coherence_for (Section.Set_assoc 4) 64 1024);
    QCheck_alcotest.to_alcotest (coherence_for Section.Full_assoc 128 1024);
    QCheck_alcotest.to_alcotest (coherence_for ~space:1024 Section.Full_assoc 64 256);
    QCheck_alcotest.to_alcotest (coherence_for Section.Direct 256 512);
    QCheck_alcotest.to_alcotest coherence_swap;
    QCheck_alcotest.to_alcotest qcheck_page_table;
    Alcotest.test_case "sizing simple" `Quick test_sizing_simple;
    Alcotest.test_case "sizing infeasible" `Quick test_sizing_infeasible;
    QCheck_alcotest.to_alcotest qcheck_sizing_matches_brute;
    QCheck_alcotest.to_alcotest qcheck_sizing_aborted_matches_brute;
    QCheck_alcotest.to_alcotest qcheck_sizing_prefers_measured;
  ]
