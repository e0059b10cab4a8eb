(* Tests for the Mira_util.Min_heap hot-path structure and for the
   determinism contract the scheduler builds on it:

   - pop sequence = le-sorted push sequence (QCheck, random int lists);
   - stable under duplicate keys once the caller folds an insertion
     index into [le] (the Sched recipe);
   - interleaved push/pop agrees with a sorted-list reference model;
   - differential: Sched dispatch order on random N-tenant programs is
     byte-identical to the old scan-for-min over an unordered list
     (the implementation the heap replaced).

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
  Alcotest.(check (option int)) "peek" None (Heap.peek h);
  Alcotest.(check (option int)) "pop" None (Heap.pop h);
  Heap.push h 3;
  Heap.push h 1;
  Heap.push h 2;
  Alcotest.(check (option int)) "peek min" (Some 1) (Heap.peek h);
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
   List.fold_left for the earliest entry and List.filter to remove it.
   The reference below replays a random N-tenant Advance program under
   exactly that discipline — keys are the same (time ticks, tenant,
   seqno) triples Sched uses — and the resulting dispatch log must be
   byte-identical to what the heap-based Sched produces. *)

type ref_entry = {
  at : int64;  (* ticks, 2^-16 ns *)
  tenant : int;
  seq : int;
  now : float;  (* tenant clock after the advance that parked it *)
  pending_log : bool;  (* emit (tenant, now) when dispatched *)
  remaining : float list;
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

let reference_log progs =
  let log = ref [] in
  let next_seq = ref 0 in
  let fresh_seq () = let s = !next_seq in incr next_seq; s in
  let entries =
    ref
      (List.mapi
         (fun tenant steps ->
           { at = 0L; tenant; seq = fresh_seq (); now = 0.0;
             pending_log = false; remaining = steps })
         progs)
  in
  let running = ref true in
  while !running do
    match scan_pop !entries with
    | None -> running := false
    | Some (e, rest) ->
      entries := rest;
      if e.pending_log then
        log := (e.tenant, Int64.bits_of_float e.now) :: !log;
      (match e.remaining with
      | [] -> ()  (* task body returned; nothing re-parks *)
      | dt :: more ->
        let now = e.now +. dt in
        entries :=
          { at = Sched.ticks_of_ns now; tenant = e.tenant;
            seq = fresh_seq (); now; pending_log = true; remaining = more }
          :: !entries)
  done;
  List.rev !log

let sched_log progs =
  let s = Sched.create () in
  let log = ref [] in
  List.iteri
    (fun tenant steps ->
      Sched.spawn s ~tenant (fun () ->
          let c = Sched.clock s ~tenant in
          List.iter
            (fun dt ->
              Clock.advance c dt;
              log := (tenant, Int64.bits_of_float (Clock.now c)) :: !log)
            steps))
    progs;
  Sched.run s;
  List.rev !log

let advance_progs_gen =
  QCheck.Gen.(
    int_range 2 6 >>= fun tenants ->
    list_repeat tenants
      (list_size (int_range 1 25)
         (* small range with zero included: maximizes tick collisions,
            the case where tenant/seqno tie-breaks carry the order *)
         (frequency [ (4, float_range 0.0 12.0); (1, return 0.0) ])))

let advance_progs_arb =
  QCheck.make advance_progs_gen ~print:(fun progs ->
      String.concat " | "
        (List.map
           (fun p -> String.concat "," (List.map string_of_float p))
           progs))

let qcheck_sched_matches_scan =
  QCheck.Test.make
    ~name:"Sched dispatch order = old scan-based implementation" ~count:80
    advance_progs_arb
    (fun progs -> sched_log progs = reference_log progs)

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
      "byte-identical"; "Controller search";
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
  ]
