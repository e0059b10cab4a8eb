(* Unit and property tests for Mira_sim. *)
module Params = Mira_sim.Params
module Clock = Mira_sim.Clock
module Net = Mira_sim.Net
module Far_store = Mira_sim.Far_store
module Remote_alloc = Mira_sim.Remote_alloc
module Rpc = Mira_sim.Rpc

let test_clock_basic () =
  let c = Clock.create () in
  Alcotest.(check (float 0.0)) "starts at 0" 0.0 (Clock.now c);
  Clock.advance c 5.0;
  Clock.advance c 2.5;
  Alcotest.(check (float 1e-9)) "advances" 7.5 (Clock.now c);
  let stall = Clock.wait_until c 10.0 in
  Alcotest.(check (float 1e-9)) "stall" 2.5 stall;
  Alcotest.(check (float 1e-9)) "at deadline" 10.0 (Clock.now c);
  let stall2 = Clock.wait_until c 3.0 in
  Alcotest.(check (float 0.0)) "past deadline free" 0.0 stall2;
  Clock.reset c;
  Alcotest.(check (float 0.0)) "reset" 0.0 (Clock.now c)

(* A limit stops the first stall that ends past it, after the clock
   has moved; a stall to exactly the limit is not past it.  Compute
   ([advance]) is not checked: a clock it takes past the limit raises
   at its next stall. *)
let test_clock_limit () =
  let raises f = match f () with _ -> false | exception Clock.Past_limit -> true in
  let c = Clock.create () in
  Clock.set_limit c 10.0;
  Alcotest.(check (float 0.0)) "wait to the limit" 10.0 (Clock.wait_until c 10.0);
  Alcotest.(check bool) "wait past the limit raises" true
    (raises (fun () -> Clock.wait_event c ~ev:Clock.Cache_fill 10.5));
  Alcotest.(check (float 0.0)) "the move was made" 10.5 (Clock.now c);
  Alcotest.(check (float 0.0)) "the stall was counted" 10.5 (Clock.stalled_ns c);
  Clock.reset c;
  Alcotest.(check (float 0.0)) "reset clears the limit" 20.0 (Clock.wait_until c 20.0);
  Clock.set_limit c 30.0;
  Clock.advance c 10.0;
  Alcotest.(check (float 0.0)) "advance to the limit" 30.0 (Clock.now c);
  Clock.advance c 1.0;
  Alcotest.(check (float 0.0)) "advance past the limit does not raise" 31.0 (Clock.now c);
  Alcotest.(check (float 0.0)) "a passed deadline is no stall" 0.0 (Clock.wait_until c 31.0);
  Alcotest.(check bool) "the next stall raises" true
    (raises (fun () -> Clock.wait_until c 31.5));
  Clock.set_limit c infinity;
  Alcotest.(check (float 0.0)) "infinity sets none" 1e9 (Clock.wait_until c (31.5 +. 1e9))

(* [advance]'s contract: a delta that is NaN, negative or negative
   zero raises with the same text; +0.0 does not move the clock and
   calls no observer; a positive delta calls it once, with [Timer]; and
   constant advances on a clock with no observer allocate nothing. *)
let test_clock_advance_contract () =
  let prefix = "Clock.advance: invalid time delta" in
  let c = Clock.create () in
  let seen = ref [] in
  Clock.set_observer c (Some (fun ev -> seen := ev :: !seen));
  Clock.advance c 2.0;
  List.iter
    (fun (name, dt) ->
      match Clock.advance c dt with
      | () -> Alcotest.failf "advance %s did not raise" name
      | exception Invalid_argument msg ->
        Alcotest.(check string) ("advance " ^ name ^ " raises") prefix
          (String.sub msg 0 (min (String.length msg) (String.length prefix))))
    [ ("nan", Float.nan); ("-0.0", -0.0); ("-1.0", -1.0); ("-infinity", Float.neg_infinity) ];
  Alcotest.(check (float 0.0)) "a rejected delta does not move the clock" 2.0 (Clock.now c);
  Alcotest.(check int) "a rejected delta calls no observer" 1 (List.length !seen);
  seen := [];
  Clock.advance c 0.0;
  Alcotest.(check (float 0.0)) "+0.0 leaves now" 2.0 (Clock.now c);
  Alcotest.(check int) "+0.0 calls no observer" 0 (List.length !seen);
  Clock.advance c 0.5;
  Alcotest.(check (float 0.0)) "a positive delta moves the clock" 2.5 (Clock.now c);
  Alcotest.(check bool) "a positive delta calls the observer once, with Timer" true
    (!seen = [ Clock.Timer ]);
  let c = Clock.create () in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000_000 do
    Clock.advance c 1.0
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "1M advances allocate nothing" 0.0 words;
  Alcotest.(check (float 0.0)) "1M advances" 1e6 (Clock.now c)

let qcheck_clock_unlimited =
  QCheck.Test.make ~name:"a clock with no limit never raises Past_limit" ~count:200
    QCheck.(list (pair bool (float_bound_inclusive 1e12)))
    (fun moves ->
      let c = Clock.create () in
      List.for_all
        (fun (wait, dt) ->
          match
            if wait then ignore (Clock.wait_until c (Clock.now c +. dt))
            else Clock.advance c dt
          with
          | () -> true
          | exception Clock.Past_limit -> false)
        moves)

(* Blocking one-shot transfer on the data plane (what the retired
   fetch/push veneers did): submit, await, return (issue cpu, done_at). *)
let sync_read net ?(urgent = true) ~side ~purpose ~now bytes =
  let sq = Net.submit net ~now ~urgent (Net.Request.read ~side ~purpose bytes) in
  let c = Net.await net ~now ~id:sq.Net.id in
  (sq.Net.issue_cpu_ns, c.Net.done_at)

let sync_write net ?(urgent = false) ~side ~purpose ~now bytes =
  let sq = Net.submit net ~now ~urgent (Net.Request.write ~side ~purpose bytes) in
  let c = Net.await net ~now ~id:sq.Net.id in
  (sq.Net.issue_cpu_ns, c.Net.done_at)

let test_net_latency_ordering () =
  let net = Net.create Params.default in
  let _, d1 = sync_read net ~side:Net.One_sided ~purpose:Net.Demand ~now:0.0 64 in
  let _, d2 = sync_read net ~side:Net.Two_sided ~purpose:Net.Demand ~now:0.0 64 in
  Alcotest.(check bool) "two-sided slower" true (d2 > d1)

let test_net_bandwidth_serializes () =
  let net = Net.create Params.default in
  let big = 1 lsl 20 in
  let _, d1 = sync_read net ~side:Net.One_sided ~purpose:Net.Demand ~now:0.0 big in
  let _, d2 = sync_read net ~side:Net.One_sided ~purpose:Net.Demand ~now:0.0 big in
  let wire = float_of_int big /. Params.default.Params.bandwidth_bytes_per_ns in
  Alcotest.(check bool) "second waits for wire" true (d2 -. d1 >= wire -. 1.0)

let test_net_async_cheaper () =
  let net = Net.create Params.default in
  let sync_cpu, _ =
    sync_read net ~side:Net.One_sided ~purpose:Net.Demand ~now:0.0 64
  in
  let async_cpu, _ =
    sync_read net ~urgent:false ~side:Net.One_sided ~purpose:Net.Prefetch
      ~now:0.0 64
  in
  Alcotest.(check bool) "async post cheaper" true (async_cpu < sync_cpu)

let test_net_stats () =
  let net = Net.create Params.default in
  ignore (sync_read net ~side:Net.One_sided ~purpose:Net.Demand ~now:0.0 100);
  ignore (sync_write net ~side:Net.One_sided ~purpose:Net.Writeback ~now:0.0 50);
  let s = Net.stats net in
  Alcotest.(check int) "msgs" 2 s.Net.msg_count;
  Alcotest.(check int) "in" 100 s.Net.bytes_in;
  Alcotest.(check int) "out" 50 s.Net.bytes_out;
  Alcotest.(check int) "demand" 100 s.Net.bytes_demand;
  Alcotest.(check int) "writeback" 50 s.Net.bytes_writeback;
  Net.reset_stats net;
  Alcotest.(check int) "reset" 0 (Net.stats net).Net.msg_count

let test_far_store_rw () =
  let fs = Far_store.create ~capacity:(1 lsl 16) in
  Far_store.write_le fs ~addr:128 ~len:8 0xDEADBEEFL;
  Alcotest.(check int64) "read back" 0xDEADBEEFL (Far_store.read_le fs ~addr:128 ~len:8);
  Alcotest.(check int64) "zero fill" 0L (Far_store.read_le fs ~addr:1024 ~len:8);
  let src = Bytes.of_string "hello world!" in
  Far_store.write fs ~addr:500 ~len:12 ~src ~src_off:0;
  let dst = Bytes.make 12 ' ' in
  Far_store.read fs ~addr:500 ~len:12 ~dst ~dst_off:0;
  Alcotest.(check string) "blit" "hello world!" (Bytes.to_string dst)

let test_far_store_capacity () =
  let fs = Far_store.create ~capacity:4096 in
  Alcotest.check_raises "over capacity"
    (Failure "Far_store: access at 4104 exceeds capacity 4096") (fun () ->
      Far_store.write_le fs ~addr:4096 ~len:8 1L)

(* A read past the written bytes returns zeros and leaves the backing
   buffer as it was; the touched high-water mark still moves. *)
let test_far_store_read_past_written () =
  let fs = Far_store.create ~capacity:(1 lsl 20) in
  let chunk = 1 lsl 16 in
  Far_store.write_le fs ~addr:(chunk - 4) ~len:4 0x0A0B0C0DL;
  let words () = Obj.reachable_words (Obj.repr fs) in
  let before = words () in
  Alcotest.(check int64) "straddling the written end" 0x0A0B0C0DL
    (Far_store.read_le fs ~addr:(chunk - 4) ~len:8);
  Alcotest.(check int64) "past the written bytes" 0L
    (Far_store.read_le fs ~addr:(1 lsl 19) ~len:8);
  let dst = Bytes.make 16 'x' in
  Far_store.read fs ~addr:(chunk - 8) ~len:16 ~dst ~dst_off:0;
  Alcotest.(check string) "block read zero-filled"
    "\000\000\000\000\r\012\011\n\000\000\000\000\000\000\000\000"
    (Bytes.to_string dst);
  Alcotest.(check int) "backing bytes not grown" before (words ());
  Alcotest.(check int) "high-water mark" ((1 lsl 19) + 8) (Far_store.size fs)

let test_remote_alloc_basic () =
  let ra = Remote_alloc.create ~base:64 ~limit:4096 in
  let a = Remote_alloc.alloc ra 100 in
  let b = Remote_alloc.alloc ra 100 in
  Alcotest.(check bool) "disjoint" true (abs (a - b) >= 104);
  Alcotest.(check bool) "aligned" true (a mod 8 = 0 && b mod 8 = 0);
  Alcotest.(check int) "live" 208 (Remote_alloc.live_bytes ra);
  Remote_alloc.free ra ~addr:a ~len:100;
  Alcotest.(check int) "after free" 104 (Remote_alloc.live_bytes ra);
  Alcotest.(check bool) "no overlap" true (Remote_alloc.check_no_overlap ra)

let test_remote_alloc_exhaustion () =
  let ra = Remote_alloc.create ~base:0 ~limit:256 in
  let _ = Remote_alloc.alloc ra 128 in
  let _ = Remote_alloc.alloc ra 120 in
  Alcotest.check_raises "exhausted" Out_of_memory (fun () ->
      ignore (Remote_alloc.alloc ra 64))

let test_remote_alloc_coalesce () =
  let ra = Remote_alloc.create ~base:0 ~limit:256 in
  let a = Remote_alloc.alloc ra 64 in
  let b = Remote_alloc.alloc ra 64 in
  let c = Remote_alloc.alloc ra 64 in
  Remote_alloc.free ra ~addr:a ~len:64;
  Remote_alloc.free ra ~addr:c ~len:64;
  Remote_alloc.free ra ~addr:b ~len:64;
  (* After coalescing, a full-size allocation must succeed again. *)
  let big = Remote_alloc.alloc ra 256 in
  Alcotest.(check int) "coalesced" 0 big

let test_remote_alloc_double_free () =
  let ra = Remote_alloc.create ~base:0 ~limit:256 in
  let a = Remote_alloc.alloc ra 64 in
  Remote_alloc.free ra ~addr:a ~len:64;
  Alcotest.(check bool) "double free rejected" true
    (try
       Remote_alloc.free ra ~addr:a ~len:64;
       false
     with Invalid_argument _ -> true)

(* Property: random alloc/free sequences keep live ranges disjoint and
   high-water monotone. *)
let qcheck_alloc_free =
  QCheck.Test.make ~name:"remote_alloc random ops stay consistent" ~count:100
    QCheck.(list (int_range 8 512))
    (fun sizes ->
      let ra = Remote_alloc.create ~base:0 ~limit:(1 lsl 20) in
      let live = ref [] in
      let step i size =
        if i mod 3 = 2 && !live <> [] then begin
          match !live with
          | (addr, len) :: rest ->
            Remote_alloc.free ra ~addr ~len;
            live := rest
          | [] -> ()
        end
        else begin
          let addr = Remote_alloc.alloc ra size in
          live := (addr, size) :: !live
        end
      in
      List.iteri step sizes;
      Remote_alloc.check_no_overlap ra
      && Remote_alloc.high_water ra >= Remote_alloc.live_bytes ra)

let test_rpc_cost () =
  let net = Net.create Params.default in
  let c = Rpc.issue net ~now:0.0 ~args_bytes:64 in
  Alcotest.(check bool) "send after rpc overhead" true
    (c.Rpc.send_done_at >= Params.default.Params.rpc_overhead_ns);
  let done_at = Rpc.complete net ~body_done_at:c.Rpc.send_done_at ~ret_bytes:8 in
  Alcotest.(check bool) "completion later" true (done_at > c.Rpc.send_done_at)

let suite =
  [
    Alcotest.test_case "clock basic" `Quick test_clock_basic;
    Alcotest.test_case "clock limit" `Quick test_clock_limit;
    Alcotest.test_case "clock advance contract" `Quick test_clock_advance_contract;
    QCheck_alcotest.to_alcotest qcheck_clock_unlimited;
    Alcotest.test_case "net latency" `Quick test_net_latency_ordering;
    Alcotest.test_case "net bandwidth" `Quick test_net_bandwidth_serializes;
    Alcotest.test_case "net async" `Quick test_net_async_cheaper;
    Alcotest.test_case "net stats" `Quick test_net_stats;
    Alcotest.test_case "far_store rw" `Quick test_far_store_rw;
    Alcotest.test_case "far_store capacity" `Quick test_far_store_capacity;
    Alcotest.test_case "far_store read past written" `Quick test_far_store_read_past_written;
    Alcotest.test_case "remote_alloc basic" `Quick test_remote_alloc_basic;
    Alcotest.test_case "remote_alloc exhaustion" `Quick test_remote_alloc_exhaustion;
    Alcotest.test_case "remote_alloc coalesce" `Quick test_remote_alloc_coalesce;
    Alcotest.test_case "remote_alloc double free" `Quick test_remote_alloc_double_free;
    Alcotest.test_case "rpc cost" `Quick test_rpc_cost;
    QCheck_alcotest.to_alcotest qcheck_alloc_free;
  ]
