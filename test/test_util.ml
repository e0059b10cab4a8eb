(* Unit and property tests for Mira_util. *)
module Prng = Mira_util.Prng
module Stats = Mira_util.Stats
module Misc = Mira_util.Misc
module Table = Mira_util.Table

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_bounds () =
  let t = Prng.create 11 in
  for _ = 1 to 10_000 do
    let v = Prng.int t 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_in () =
  let t = Prng.create 3 in
  for _ = 1 to 1_000 do
    let v = Prng.int_in t (-5) 5 in
    Alcotest.(check bool) "in range" true (v >= -5 && v <= 5)
  done

let test_prng_split_independent () =
  let t = Prng.create 9 in
  let u = Prng.split t in
  let xs = List.init 16 (fun _ -> Prng.next_int64 t) in
  let ys = List.init 16 (fun _ -> Prng.next_int64 u) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_prng_uniformish () =
  let t = Prng.create 123 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Prng.int t 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform" true
        (abs (c - (n / 10)) < n / 50))
    buckets

let test_prng_shuffle_permutation () =
  let t = Prng.create 5 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_stats_mean_stddev () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean xs);
  let o = Stats.online_create () in
  Array.iter (Stats.online_add o) xs;
  Alcotest.(check (float 1e-9)) "stddev" 2.0 (Stats.online_stddev o)

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "p25" 2.0 (Stats.percentile xs 25.0)

let test_stats_empty () =
  Alcotest.(check (float 0.0)) "mean empty" 0.0 (Stats.mean [||]);
  Alcotest.check_raises "percentile empty"
    (Invalid_argument "Stats.percentile: empty array") (fun () ->
      ignore (Stats.percentile [||] 50.0))

let test_stats_percentile_edges () =
  (* single element: every percentile is that element *)
  let one = [| 42.0 |] in
  Alcotest.(check (float 1e-9)) "single p0" 42.0 (Stats.percentile one 0.0);
  Alcotest.(check (float 1e-9)) "single p50" 42.0 (Stats.percentile one 50.0);
  Alcotest.(check (float 1e-9)) "single p100" 42.0 (Stats.percentile one 100.0);
  (* input order must not matter: percentile sorts a copy *)
  let unsorted = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  Alcotest.(check (float 1e-9)) "unsorted median" 3.0
    (Stats.percentile unsorted 50.0);
  Alcotest.(check (float 1e-9)) "unsorted p0" 1.0 (Stats.percentile unsorted 0.0);
  Alcotest.(check (float 1e-9)) "unsorted p100" 5.0
    (Stats.percentile unsorted 100.0);
  (* and the original array stays untouched *)
  Alcotest.(check (float 1e-9)) "input not sorted in place" 5.0 unsorted.(0)

let test_stats_percentile_bad_p () =
  let xs = [| 1.0; 2.0; 3.0 |] in
  List.iter
    (fun (p, shown) ->
      let reason = Printf.sprintf "Stats.percentile: p must be in [0,100] (got %s)" shown in
      Alcotest.check_raises ("percentile " ^ shown) (Invalid_argument reason) (fun () ->
          ignore (Stats.percentile xs p));
      Alcotest.check_raises ("percentiles " ^ shown) (Invalid_argument reason) (fun () ->
          ignore (Stats.percentiles xs [| 50.0; p |])))
    [ (-1.0, "-1"); (100.5, "100.5"); (Float.nan, "nan"); (Float.infinity, "inf") ]

(* The sort-based reference [Stats.percentiles] used to be: a stable
   sort by [compare]'s order (NaN first), as its own insertion-plus-
   merge sort was, so ties of both zero signs and of NaN payloads keep
   their input order here as they did there. *)
let naive_percentile xs p =
  let sorted = Array.copy xs in
  Array.stable_sort compare sorted;
  let n = Array.length sorted in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

(* Values with many ties (small integers, zeros of both signs, NaNs of
   two payloads) mixed with spread-out ones and infinities; arrays of
   one element, and of up to 300. *)
let qcheck_percentiles =
  let value =
    QCheck.Gen.(
      frequency
        [
          (4, map float_of_int (int_range (-3) 3));
          (4, float_range (-1e6) 1e6);
          (1, oneofl [ infinity; neg_infinity ]);
          (2, oneofl [ 0.0; -0.0 ]);
          (1, oneofl [ Float.nan; Int64.float_of_bits 0x7ff8000000000001L ]);
        ])
  in
  let gen = QCheck.Gen.(array_size (oneof [ return 1; int_range 1 300 ]) value) in
  let ps = [| 0.0; 50.0; 99.0; 99.9; 100.0 |] in
  QCheck.Test.make ~name:"percentiles = copy-and-sort reference, bit for bit" ~count:1000
    (QCheck.make ~print:QCheck.Print.(array float) gen)
    (fun xs ->
      let bits = Array.map Int64.bits_of_float in
      let want = bits (Array.map (naive_percentile xs) ps) in
      bits (Stats.percentiles xs ps) = want
      && bits (Array.map (Stats.percentile xs) ps) = want)

let test_stats_online () =
  let o = Stats.online_create () in
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Array.iter (Stats.online_add o) xs;
  Alcotest.(check int) "count" 8 (Stats.online_count o);
  Alcotest.(check (float 1e-9)) "mean" (Stats.mean xs) (Stats.online_mean o);
  Alcotest.(check (float 1e-6)) "stddev" 2.0 (Stats.online_stddev o);
  Stats.online_reset o;
  Alcotest.(check int) "reset count" 0 (Stats.online_count o);
  Alcotest.(check (float 0.0)) "reset mean" 0.0 (Stats.online_mean o);
  Alcotest.(check (float 0.0)) "reset stddev" 0.0 (Stats.online_stddev o);
  (* refilling after reset behaves like a fresh accumulator *)
  Array.iter (Stats.online_add o) xs;
  Alcotest.(check (float 1e-9)) "refill mean" (Stats.mean xs)
    (Stats.online_mean o)

let test_misc_round () =
  Alcotest.(check int) "round_up" 16 (Misc.round_up 13 8);
  Alcotest.(check int) "round_up exact" 16 (Misc.round_up 16 8);
  Alcotest.(check int) "round_down" 8 (Misc.round_down 13 8);
  Alcotest.(check int) "divide_ceil" 3 (Misc.divide_ceil 17 8)

let test_misc_pow2 () =
  Alcotest.(check bool) "pow2" true (Misc.is_pow2 64);
  Alcotest.(check bool) "not pow2" false (Misc.is_pow2 48);
  Alcotest.(check int) "next_pow2" 64 (Misc.next_pow2 33);
  Alcotest.(check int) "next_pow2 exact" 32 (Misc.next_pow2 32);
  Alcotest.(check int) "log2" 5 (Misc.log2 32);
  Alcotest.(check int) "log2 floor" 5 (Misc.log2 63)

let test_misc_clamp () =
  Alcotest.(check int) "clamp lo" 3 (Misc.clamp ~lo:3 ~hi:9 1);
  Alcotest.(check int) "clamp hi" 9 (Misc.clamp ~lo:3 ~hi:9 99);
  Alcotest.(check int) "clamp mid" 5 (Misc.clamp ~lo:3 ~hi:9 5)

let test_table_render () =
  let t = Table.create ~header:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let out = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length out > 0 && String.sub out 0 4 = "name");
  (* rows render in insertion order *)
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "line count" 4 (List.length lines)

let qcheck_round_up =
  QCheck.Test.make ~name:"round_up is minimal multiple" ~count:500
    QCheck.(pair (int_bound 100_000) (int_range 1 512))
    (fun (x, align) ->
      let r = Misc.round_up x align in
      r >= x && r mod align = 0 && r - x < align)

(* --- Index_set and Tid_map ------------------------------------------------- *)

module Index_set = Mira_util.Index_set
module Tid_map = Mira_util.Tid_map

type set_op = Add of int | Remove of int

(* Against a bool-array model, over sizes spanning one to three levels:
   membership, emptiness and the minimum after every operation. *)
let qcheck_index_set =
  let gen =
    QCheck.Gen.(
      oneofl [ 1; 31; 32; 33; 200; 1024; 1025; 5000 ] >>= fun n ->
      list_size (int_range 0 200)
        (map2 (fun add i -> if add then Add i else Remove i) bool (int_bound (n - 1)))
      >|= fun ops -> (n, ops))
  in
  QCheck.Test.make ~name:"Index_set matches a bool-array model" ~count:300
    (QCheck.make gen) (fun (n, ops) ->
      let s = Index_set.create n and model = Array.make n false in
      List.for_all
        (fun op ->
          (match op with
          | Add i -> Index_set.add s i; model.(i) <- true
          | Remove i -> Index_set.remove s i; model.(i) <- false);
          let rec first i = if i >= n then None else if model.(i) then Some i else first (i + 1) in
          Index_set.min_elt s = first 0
          && Index_set.is_empty s = (first 0 = None)
          && List.for_all (fun i -> Index_set.mem s i = model.(i)) (List.init n Fun.id))
        ops)

(* The accumulator keeps its count as a float so its record is flat;
   against the int-count Welford it replaced, the count, mean and
   stddev are the same bits on any stream. *)
let qcheck_online_welford =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 300)
        (oneof [ float_bound_inclusive 1e4; float_range (-1e12) 1e12; float ]))
  in
  QCheck.Test.make ~name:"Stats.online matches the int-count Welford" ~count:300
    (QCheck.make gen) (fun xs ->
      let o = Stats.online_create () in
      let count = ref 0 and m = ref 0.0 and s = ref 0.0 in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      List.for_all
        (fun x ->
          Stats.online_add o x;
          incr count;
          let delta = x -. !m in
          m := !m +. (delta /. float_of_int !count);
          s := !s +. (delta *. (x -. !m));
          let sd = if !count < 2 then 0.0 else sqrt (!s /. float_of_int !count) in
          Stats.online_count o = !count
          && same (Stats.online_mean o) !m
          && same (Stats.online_stddev o) sd)
        xs)

(* Same answers as a plain table, and folds in the plain table's order
   (float sums over per-thread state depend on it), for small, large
   and negative ids alike. *)
let qcheck_tid_map =
  QCheck.Test.make ~name:"Tid_map = Hashtbl, fold order included" ~count:300
    QCheck.(list (pair (oneof [ int_bound 20; int_range (-5) (-1); int_range 4000 5000 ]) small_int))
    (fun binds ->
      let m = Tid_map.create 8 and h = Hashtbl.create 8 in
      List.iter (fun (k, v) -> Tid_map.replace m k v; Hashtbl.replace h k v) binds;
      let pairs fold t = fold (fun k v acc -> (k, v) :: acc) t [] in
      pairs Tid_map.fold m = pairs Hashtbl.fold h
      && List.for_all (fun (k, _) -> Tid_map.find_opt m k = Hashtbl.find_opt h k) binds
      && Tid_map.find_opt m 21 = None
      && (Tid_map.reset m; Tid_map.find_opt m 0 = None && pairs Tid_map.fold m = []))

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng int_in" `Quick test_prng_int_in;
    Alcotest.test_case "prng split" `Quick test_prng_split_independent;
    Alcotest.test_case "prng uniform" `Quick test_prng_uniformish;
    Alcotest.test_case "prng shuffle" `Quick test_prng_shuffle_permutation;
    Alcotest.test_case "stats mean/stddev" `Quick test_stats_mean_stddev;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    Alcotest.test_case "stats percentile edges" `Quick
      test_stats_percentile_edges;
    Alcotest.test_case "stats percentile bad p" `Quick test_stats_percentile_bad_p;
    Alcotest.test_case "stats online" `Quick test_stats_online;
    Alcotest.test_case "misc round" `Quick test_misc_round;
    Alcotest.test_case "misc pow2" `Quick test_misc_pow2;
    Alcotest.test_case "misc clamp" `Quick test_misc_clamp;
    Alcotest.test_case "table render" `Quick test_table_render;
    QCheck_alcotest.to_alcotest qcheck_percentiles;
    QCheck_alcotest.to_alcotest qcheck_round_up;
    QCheck_alcotest.to_alcotest qcheck_index_set;
    QCheck_alcotest.to_alcotest qcheck_online_welford;
    QCheck_alcotest.to_alcotest qcheck_tid_map;
  ]
