(* Tests for the Mira_util.Min_heap hot-path structure and for the
   determinism contract the scheduler builds on it:

   - pop sequence = le-sorted push sequence (QCheck, random int lists);
   - stable under duplicate keys once the caller folds an insertion
     index into [le] (the Sched recipe);
   - interleaved push/pop agrees with a sorted-list reference model;
   - differential: Sched's dispatch log, dispatch count and block
     counts on random N-tenant programs equal those of the old
     scan-for-min over an unordered list that parked on every clock
     move (the implementation the heap and the in-place continuation
     replaced), including moves of other tenants' clocks, exact-tick
     ties and one tenant's long run of moves.

   docs/PERFORMANCE.md has a drift guard here too: it documents these
   structures and must keep naming them. *)

module Heap = Mira_util.Min_heap
module Clock = Mira_sim.Clock
module Sched = Mira_sim.Sched

(* --- basic shape --------------------------------------------------------- *)

let test_empty () =
  let h = Heap.create ~le:(fun (a : int) b -> a <= b) in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check int) "length" 0 (Heap.length h);
  Alcotest.(check (option int)) "pop" None (Heap.pop h);
  Heap.push h 3;
  Heap.push h 1;
  Heap.push h 2;
  Alcotest.(check int) "top min" 1 (Heap.top h);
  Alcotest.(check int) "length 3" 3 (Heap.length h);
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h);
  Alcotest.(check (option int)) "pop after clear" None (Heap.pop h)

let test_map_monotone () =
  (* Clamp-to-bound is the monotone rewrite Net.fail_inflight uses:
     min-clamping every key preserves the heap order pointwise. *)
  let h = Heap.create ~le:(fun (a : int) b -> a <= b) in
  List.iter (Heap.push h) [ 9; 2; 14; 5; 5; 31; 0 ];
  Heap.map_monotone (fun x -> min x 5) h;
  let rec drain acc = match Heap.pop h with
    | None -> List.rev acc
    | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "clamped drain sorted"
    [ 0; 2; 5; 5; 5; 5; 5 ] (drain [])

(* --- QCheck properties --------------------------------------------------- *)

let drain_heap h =
  let rec go acc = match Heap.pop h with
    | None -> List.rev acc
    | Some x -> go (x :: acc)
  in
  go []

let qcheck_pop_is_sorted_push =
  QCheck.Test.make ~name:"pop sequence = sorted push sequence" ~count:300
    QCheck.(list small_int)
    (fun xs ->
      let h = Heap.create ~le:(fun (a : int) b -> a <= b) in
      List.iter (Heap.push h) xs;
      drain_heap h = List.sort compare xs)

let qcheck_stable_with_index =
  (* Duplicate-heavy keys; folding the insertion index into [le] makes
     the pop order the stable sort of the push order — exactly how
     Sched's seqno and Profile.stable_top_k recover determinism. *)
  QCheck.Test.make ~name:"duplicate keys stable via insertion index" ~count:300
    QCheck.(list (int_bound 7))
    (fun keys ->
      let le (ka, ia) (kb, ib) = ka < kb || (ka = kb && ia <= ib) in
      let h = Heap.create ~le in
      List.iteri (fun i k -> Heap.push h (k, i)) keys;
      let expect =
        List.mapi (fun i k -> (k, i)) keys
        |> List.stable_sort (fun (ka, _) (kb, _) -> compare ka kb)
      in
      drain_heap h = expect)

type op = Push of int | Pop

let ops_gen =
  QCheck.Gen.(
    list_size (int_range 0 120)
      (frequency [ (3, map (fun x -> Push x) (int_bound 50)); (2, return Pop) ]))

let ops_arb =
  QCheck.make ops_gen ~print:(fun ops ->
      String.concat ";"
        (List.map (function Push x -> "push " ^ string_of_int x | Pop -> "pop") ops))

let qcheck_interleaved_model =
  (* Reference model: a sorted list popped from the front.  Every pop
     must agree, as must the final drains. *)
  QCheck.Test.make ~name:"interleaved push/pop matches list model" ~count:300
    ops_arb
    (fun ops ->
      let h = Heap.create ~le:(fun (a : int) b -> a <= b) in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (function
          | Push x ->
            Heap.push h x;
            model := List.sort compare (x :: !model)
          | Pop ->
            let expect = match !model with
              | [] -> None
              | x :: rest -> model := rest; Some x
            in
            if Heap.pop h <> expect then ok := false;
            if Heap.length h <> List.length !model then ok := false)
        ops;
      !ok && drain_heap h = !model)

(* --- differential: Sched dispatch vs the old scan ------------------------ *)

(* The scheduler's park queue used to be an unordered list scanned with
   List.fold_left for the earliest entry and List.filter to remove it,
   and every clock move used to park the moving task.  The reference
   below replays a random N-tenant program under exactly that
   discipline — keys are the same (time ticks, tenant, seqno) triples
   Sched uses, and a move parks whenever more than one task is live —
   and the dispatch log, the dispatch count and the block counts must
   equal what Sched produces, although Sched continues a task in place
   when it would be the next one out anyway.

   A step is (clock, dt): the running task advances tenant [clock]'s
   clock by [dt], which need not be its own.  A parked entry carries
   the running task's tenant, whichever clock moved; after each step
   the task logs (tenant, bits of that clock's time) once it runs
   again. *)

type ref_entry = {
  at : int64;  (* ticks, 2^-16 ns *)
  tenant : int;
  seq : int;
  log_clock : int option;  (* clock to log when dispatched *)
  remaining : (int * float) list;
}

let entry_before a b =
  (* verbatim ordering of the old scan-based scheduler *)
  match Int64.compare a.at b.at with
  | 0 -> (match compare a.tenant b.tenant with
          | 0 -> compare a.seq b.seq < 0
          | c -> c < 0)
  | c -> c < 0

let scan_pop entries =
  match entries with
  | [] -> None
  | first :: rest ->
    let best =
      List.fold_left (fun acc e -> if entry_before e acc then e else acc)
        first rest
    in
    Some (best, List.filter (fun e -> e != best) entries)

(* (dispatch log, dispatches, block counts) of the always-yield
   scan-based scheduler. *)
let reference_run progs =
  let clocks = Array.make (List.length progs) 0.0 in
  let log = ref [] and dispatched = ref 0 and timers = ref 0 in
  let live = ref (List.length progs) in
  let next_seq = ref 0 in
  let fresh_seq () = let s = !next_seq in incr next_seq; s in
  let entries =
    ref
      (List.mapi
         (fun tenant steps ->
           { at = 0L; tenant; seq = fresh_seq (); log_clock = None;
             remaining = steps })
         progs)
  in
  let emit tenant c = log := (tenant, Int64.bits_of_float clocks.(c)) :: !log in
  (* Run [tenant]'s steps until one parks or the task returns. *)
  let rec run tenant = function
    | [] -> decr live
    | (c, dt) :: more ->
      clocks.(c) <- clocks.(c) +. dt;
      if dt > 0.0 && !live > 1 then begin
        incr timers;
        entries :=
          { at = Int64.of_float (Float.round (clocks.(c) *. 65536.0));
            tenant; seq = fresh_seq ();
            log_clock = Some c; remaining = more }
          :: !entries
      end
      else begin
        emit tenant c;
        run tenant more
      end
  in
  let running = ref true in
  while !running do
    match scan_pop !entries with
    | None -> running := false
    | Some (e, rest) ->
      entries := rest;
      incr dispatched;
      Option.iter (emit e.tenant) e.log_clock;
      run e.tenant e.remaining
  done;
  let blocks = if !timers > 0 then [ ("timer", !timers) ] else [] in
  (List.rev !log, !dispatched, blocks)

let sched_run progs =
  let s = Sched.create () in
  let log = ref [] in
  List.iteri
    (fun tenant steps ->
      Sched.spawn s ~tenant (fun () ->
          List.iter
            (fun (c, dt) ->
              let clock = Sched.clock s ~tenant:c in
              Clock.advance clock dt;
              log := (tenant, Int64.bits_of_float (Clock.now clock)) :: !log)
            steps))
    progs;
  Sched.run s;
  (List.rev !log, Sched.dispatched s, Sched.block_counts s)

let own_clocks progs = List.mapi (fun tenant steps -> List.map (fun dt -> (tenant, dt)) steps) progs

let progs_arb gen =
  QCheck.make gen ~print:(fun progs ->
      String.concat " | "
        (List.map
           (fun p ->
             String.concat ","
               (List.map (fun (c, dt) -> Printf.sprintf "%d:%g" c dt) p))
           progs))

let advance_progs_gen =
  QCheck.Gen.(
    int_range 2 6 >>= fun tenants ->
    list_repeat tenants
      (list_size (int_range 1 25)
         (* small range with zero included: maximizes tick collisions,
            the case where tenant/seqno tie-breaks carry the order *)
         (frequency [ (4, float_range 0.0 12.0); (1, return 0.0) ]))
    >|= own_clocks)

(* Tasks that move other tenants' clocks as well as their own.  Mostly
   whole-nanosecond moves, so a parked entry often ties the queue's top
   on time and its tenant decides the order. *)
let cross_progs_gen =
  QCheck.Gen.(
    int_range 2 5 >>= fun tenants ->
    list_repeat tenants
      (list_size (int_range 1 20)
         (pair (int_bound (tenants - 1))
            (frequency
               [ (3, map float_of_int (int_bound 4)); (1, float_range 0.0 12.0) ]))))

(* Whole-nanosecond moves: tenants meet on exactly the same tick. *)
let tie_progs_gen =
  QCheck.Gen.(
    int_range 2 6 >>= fun tenants ->
    list_repeat tenants
      (list_size (int_range 1 25) (oneofl [ 0.0; 1.0; 2.0; 4.0 ]))
    >|= own_clocks)

(* One tenant makes a long run of small moves while the others sleep
   far ahead: most of its moves continue in place. *)
let run_progs_gen =
  QCheck.Gen.(
    int_range 1 4 >>= fun others ->
    list_size (int_range 50 300) (float_range 0.0 1.0) >>= fun busy ->
    list_repeat others (list_size (int_range 1 3) (float_range 20.0 200.0))
    >|= fun rest -> own_clocks (busy :: rest))

let matches_reference name gen =
  QCheck.Test.make ~name ~count:80 (progs_arb gen) (fun progs ->
      sched_run progs = reference_run progs)

let qcheck_sched_matches_scan =
  matches_reference "Sched dispatch order = old scan-based implementation"
    advance_progs_gen

let qcheck_sched_cross_clocks =
  matches_reference "Sched = always-yield scan, cross-tenant clocks"
    cross_progs_gen

let qcheck_sched_tick_ties =
  matches_reference "Sched = always-yield scan, exact-tick ties" tie_progs_gen

let qcheck_sched_long_run =
  matches_reference "Sched = always-yield scan, one tenant's long run"
    run_progs_gen

(* --- docs/PERFORMANCE.md drift guard ------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let read_doc name =
  let candidates = [ "../docs/" ^ name; "docs/" ^ name ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> In_channel.with_open_bin p In_channel.input_all
  | None -> Alcotest.failf "doc %s not found" name

(* docs/PERFORMANCE.md must keep naming the hot-path structures, the
   determinism argument, and the self-benchmark entry points. *)
let test_performance_doc_guard () =
  let doc = read_doc "PERFORMANCE.md" in
  let must =
    [
      "Min_heap"; "O(log n)"; "(time, tenant id, seqno)"; "total order";
      "map_monotone"; "window"; "Bytes_le"; "stable_top_k"; "Regions";
      "dune exec bench/main.exe"; "--only micro";
      "sched dispatch (8 tenants)"; "net saturated window"; "host kevt/s";
      "byte-identical"; "Controller search"; "Access path";
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
    Alcotest.test_case "empty/push/peek/clear" `Quick test_empty;
    Alcotest.test_case "map_monotone clamp" `Quick test_map_monotone;
    Alcotest.test_case "PERFORMANCE.md drift guard" `Quick
      test_performance_doc_guard;
    QCheck_alcotest.to_alcotest qcheck_pop_is_sorted_push;
    QCheck_alcotest.to_alcotest qcheck_stable_with_index;
    QCheck_alcotest.to_alcotest qcheck_interleaved_model;
    QCheck_alcotest.to_alcotest qcheck_sched_matches_scan;
    QCheck_alcotest.to_alcotest qcheck_sched_cross_clocks;
    QCheck_alcotest.to_alcotest qcheck_sched_tick_ties;
    QCheck_alcotest.to_alcotest qcheck_sched_long_run;
  ]
