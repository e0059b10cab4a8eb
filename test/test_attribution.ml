(* The stall-attribution ledger: fixed-point exactness and the
   double-entry conservation audit, the tail-first stall split, the
   folded flame export, duplicate metric-name rejection, the profiler's
   mismatched enter/exit handling, the BENCH diff gate's comparison
   logic, and a doc-drift guard keeping docs/OBSERVABILITY.md's metric
   table in sync with what the code publishes. *)
module Attribution = Mira_telemetry.Attribution
module Metrics = Mira_telemetry.Metrics
module Json = Mira_telemetry.Json
module Diff = Mira_telemetry.Bench_diff
module Profile = Mira_runtime.Profile
module Runtime = Mira_runtime.Runtime
module Cluster = Mira_sim.Cluster
module Machine = Mira_interp.Machine
module C = Mira.Controller

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* --- ledger basics -------------------------------------------------------- *)

let test_charge_and_check () =
  let a = Attribution.create () in
  Alcotest.(check (float 0.0)) "empty total" 0.0 (Attribution.total_ns a);
  Attribution.set_context a ~fn:"work" ~site:3;
  Attribution.charge a ~section:"sec1" Attribution.Demand_wire 100.0;
  Attribution.charge a ~section:"sec1" Attribution.Demand_wire 50.0;
  Attribution.charge a Attribution.Queueing 25.0;
  Attribution.clear_context a;
  Attribution.charge a Attribution.Writeback 12.5;
  Alcotest.(check (float 1e-9)) "total" 187.5 (Attribution.total_ns a);
  Alcotest.(check (float 1e-9)) "demand bucket" 150.0
    (Attribution.cause_ns a Attribution.Demand_wire);
  Alcotest.(check (float 1e-9)) "writeback bucket" 12.5
    (Attribution.cause_ns a Attribution.Writeback);
  (match Attribution.check a with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check (float 0.0)) "no unattributed remainder" 0.0
    (Attribution.unattributed_ns a);
  (* by_cause always lists all eight buckets and sums to the total *)
  let by_cause = Attribution.by_cause a in
  Alcotest.(check int) "eight buckets" 8 (List.length by_cause);
  let sum = List.fold_left (fun acc (_, ns) -> acc +. ns) 0.0 by_cause in
  Alcotest.(check (float 0.0)) "buckets sum to total exactly"
    (Attribution.total_ns a) sum;
  (* negative and zero charges are ignored, not subtracted *)
  Attribution.charge a Attribution.Retry 0.0;
  Attribution.charge a Attribution.Retry (-5.0);
  Alcotest.(check (float 1e-9)) "non-positive charges ignored" 187.5
    (Attribution.total_ns a);
  Attribution.reset a;
  Alcotest.(check (float 0.0)) "reset clears" 0.0 (Attribution.total_ns a);
  Alcotest.(check bool) "reset clears context" true
    ((Attribution.context_fn a, Attribution.context_site a) = ("(runtime)", -1))

let test_disabled_no_charge () =
  let a = Attribution.create () in
  Attribution.set_enabled a false;
  Attribution.charge a Attribution.Demand_wire 100.0;
  Alcotest.(check (float 0.0)) "disabled ledger stays empty" 0.0
    (Attribution.total_ns a);
  Attribution.set_enabled a true;
  Attribution.charge a Attribution.Demand_wire 100.0;
  Alcotest.(check bool) "re-enabled charges land" true
    (Attribution.total_ns a > 0.0)

(* A queueing charge splits its exact fixed-point amount over the window
   holders: pro-rata by slots, the remainder to the last holder; with no
   holders the waiter charges itself.  Other causes and a disabled
   ledger record nothing, and [reset] clears the matrix. *)
let test_interference_split () =
  let a = Attribution.create () in
  let ns fp = Int64.to_float fp /. 65536.0 in
  Attribution.set_tenant a 2;
  Attribution.charge a ~holders:[ (0, 1); (1, 2) ] Attribution.Queueing (ns 10L);
  Attribution.charge a Attribution.Queueing (ns 5L);
  Attribution.charge a ~holders:[ (0, 1) ] Attribution.Demand_wire (ns 7L);
  Attribution.set_enabled a false;
  Attribution.charge a ~holders:[ (0, 1) ] Attribution.Queueing (ns 7L);
  Alcotest.(check (list (triple int int int64))) "cells"
    [ (2, 0, 3L); (2, 1, 7L); (2, 2, 5L) ]
    (Attribution.interference_cells a);
  Alcotest.(check (list (pair int int64))) "row = queueing bucket"
    [ (2, Attribution.tenant_cause_fp a ~tenant:2 Attribution.Queueing) ]
    (Attribution.interference_rows a);
  Attribution.reset a;
  Alcotest.(check (list (pair int int64))) "reset clears" []
    (Attribution.interference_rows a)

let test_split_stall () =
  let parts_sum parts = List.fold_left (fun a (_, ns) -> a +. ns) 0.0 parts in
  let find c parts = List.assoc c parts in
  (* stall longer than wire: wire capped, retry next, queue residual *)
  let p =
    Attribution.split_stall ~stall:100.0 ~wire_ns:40.0 ~queue_ns:999.0
      ~retry_ns:35.0
  in
  Alcotest.(check (float 1e-12)) "parts sum to stall" 100.0 (parts_sum p);
  Alcotest.(check (float 1e-12)) "wire" 40.0 (find Attribution.Demand_wire p);
  Alcotest.(check (float 1e-12)) "retry" 35.0 (find Attribution.Retry p);
  Alcotest.(check (float 1e-12)) "queue residual" 25.0
    (find Attribution.Queueing p);
  (* stall shorter than wire (CPU overlapped the head): all wire *)
  let p =
    Attribution.split_stall ~stall:10.0 ~wire_ns:40.0 ~queue_ns:0.0
      ~retry_ns:35.0
  in
  Alcotest.(check (float 1e-12)) "tail-first: all wire" 10.0
    (find Attribution.Demand_wire p);
  Alcotest.(check (float 1e-12)) "short stall sums" 10.0 (parts_sum p);
  (* non-positive stall: nothing to attribute *)
  Alcotest.(check bool) "zero stall empty" true
    (Attribution.split_stall ~stall:0.0 ~wire_ns:1.0 ~queue_ns:1.0
       ~retry_ns:1.0
    = []);
  (* negative component inputs are clamped, never uncharged *)
  let p =
    Attribution.split_stall ~stall:5.0 ~wire_ns:(-1.0) ~queue_ns:0.0
      ~retry_ns:(-2.0)
  in
  Alcotest.(check (float 1e-12)) "clamped inputs still conserve" 5.0
    (parts_sum p)

let test_folded_format () =
  let a = Attribution.create () in
  Attribution.set_context a ~fn:"work" ~site:2;
  Attribution.charge a ~section:"sec1" Attribution.Demand_wire 1000.5;
  Attribution.set_context a ~fn:"scan" ~site:(-1);
  Attribution.charge a Attribution.Writeback 250.0;
  (* sub-ns cells round to zero and are dropped from the export *)
  Attribution.charge a Attribution.Retry 0.2;
  let lines =
    String.split_on_char '\n' (Attribution.folded a)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check (list string)) "folded lines"
    [ "scan;-;writeback 250"; "work;site2;demand_wire 1001" ]
    lines

let test_attribution_json () =
  let a = Attribution.create () in
  Attribution.set_context a ~fn:"work" ~site:1;
  Attribution.charge a ~section:"s" Attribution.Demand_wire 100.0;
  Attribution.charge a ~section:"s" Attribution.Fence 30.0;
  match Json.parse (Json.to_string (Attribution.to_json a)) with
  | Error e -> Alcotest.failf "attribution json invalid: %s" e
  | Ok doc ->
    Alcotest.(check (option (float 1e-9))) "total" (Some 130.0)
      (Option.bind (Json.member "total_ns" doc) Json.to_float_opt);
    Alcotest.(check (option (float 0.0))) "unattributed" (Some 0.0)
      (Option.bind (Json.member "unattributed_ns" doc) Json.to_float_opt);
    (match Json.member "conserved" doc with
    | Some (Json.Bool true) -> ()
    | _ -> Alcotest.fail "conserved flag missing or false");
    (match Json.member "by_cause" doc with
    | Some (Json.Obj fields) ->
      Alcotest.(check int) "all eight causes in json" 8 (List.length fields)
    | _ -> Alcotest.fail "by_cause missing")

(* --- duplicate metric names ----------------------------------------------- *)

let test_duplicate_metric_rejected () =
  let reg = Metrics.create () in
  Metrics.set_counter reg "a.count" 1;
  Metrics.set_gauge reg "a.gauge" 1.0;
  (match Metrics.set_counter reg "a.count" 2 with
  | () -> Alcotest.fail "duplicate counter name accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "error names the metric" true
      (contains msg "a.count"));
  (* a kind collision under the same name is equally rejected *)
  (match Metrics.set_hist reg "a.gauge" (Metrics.hist_create ()) with
  | () -> Alcotest.fail "duplicate name across kinds accepted"
  | exception Invalid_argument _ -> ());
  (* a fresh registry starts clean: per-report registries can re-claim *)
  let reg2 = Metrics.create () in
  Metrics.set_counter reg2 "a.count" 3;
  match Metrics.find reg2 "a.count" with
  | Some (Metrics.Counter 3) -> ()
  | _ -> Alcotest.fail "fresh registry lookup"

(* --- profiler mismatched enter/exit --------------------------------------- *)

let test_profile_strict_mismatch () =
  let p = Profile.create () in
  Profile.set_strict p true;
  Profile.enter p ~tid:0 ~now:0.0 "a";
  Profile.enter p ~tid:0 ~now:1.0 "b";
  (match Profile.exit_ p ~tid:0 ~now:2.0 "a" with
  | () -> Alcotest.fail "strict mode accepted a mismatched exit"
  | exception Profile.Mismatched_exit { name; tid; stack } ->
    Alcotest.(check string) "offending name" "a" name;
    Alcotest.(check int) "thread" 0 tid;
    Alcotest.(check (list string)) "stack snapshot" [ "b"; "a" ] stack);
  (* a well-nested exit still works in strict mode *)
  Profile.exit_ p ~tid:0 ~now:2.0 "b";
  Profile.exit_ p ~tid:0 ~now:3.0 "a";
  Alcotest.(check (option string)) "stack drained" None (Profile.current p ~tid:0)

let test_profile_pop_to_match () =
  let p = Profile.create () in
  Profile.enter p ~tid:0 ~now:0.0 "outer";
  Profile.enter p ~tid:0 ~now:10.0 "inner";
  (* non-strict: exiting [outer] closes [inner] too, charging it as if
     it exited now — no leaked frame to misattribute later time *)
  Profile.exit_ p ~tid:0 ~now:50.0 "outer";
  Alcotest.(check (option string)) "stack empty" None (Profile.current p ~tid:0);
  let stats = Profile.fn_stats p in
  let total name = (List.assoc name stats).Profile.total_ns in
  Alcotest.(check (float 1e-9)) "outer charged" 50.0 (total "outer");
  Alcotest.(check (float 1e-9)) "skipped inner charged" 40.0 (total "inner");
  (* an exit with no matching enter anywhere is dropped, not unwound *)
  Profile.enter p ~tid:0 ~now:60.0 "outer";
  Profile.exit_ p ~tid:0 ~now:70.0 "never-entered";
  Alcotest.(check (option string)) "unrelated frame untouched" (Some "outer")
    (Profile.current p ~tid:0);
  Profile.exit_ p ~tid:0 ~now:80.0 "outer"

let test_profile_recursion () =
  let p = Profile.create () in
  Profile.set_strict p true;
  (* recursive enter/exit of the same name must match innermost-first
     and never raise *)
  Profile.enter p ~tid:0 ~now:0.0 "f";
  Profile.enter p ~tid:0 ~now:10.0 "f";
  Profile.exit_ p ~tid:0 ~now:30.0 "f";
  Alcotest.(check (option string)) "outer frame remains" (Some "f")
    (Profile.current p ~tid:0);
  Profile.exit_ p ~tid:0 ~now:100.0 "f";
  Alcotest.(check (option string)) "drained" None (Profile.current p ~tid:0);
  let stats = Profile.fn_stats p in
  let s = List.assoc "f" stats in
  Alcotest.(check int) "two calls" 2 s.Profile.calls;
  (* inner 20 + outer 100 *)
  Alcotest.(check (float 1e-9)) "nested self-times accumulate" 120.0
    s.Profile.total_ns

(* --- conservation over random workload/fault/cluster configs -------------- *)

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
  let _, work_ns = C.measure_work ms machine in
  (work_ns, rt)

let qcheck_conservation =
  QCheck.Test.make
    ~name:"ledger conserves: cause buckets sum exactly to total stall"
    ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      (* random failure domain: sometimes quiet, sometimes a replicated
         pair with crashes, sometimes an unreplicated crash (degraded) *)
      let nodes = 1 + (seed mod 2) in
      let schedule =
        if seed mod 3 = 0 then []
        else
          Cluster.schedule_of_seed ~overlap:false ~seed ~nodes
            ~crashes:(1 + (seed mod 2))
            ~horizon_ns:2e5 ~down_ns:2e4
      in
      let work_ns, rt =
        run_workload (Cluster.mirror ~nodes ~copies:nodes schedule)
      in
      let attr = Runtime.attribution rt in
      let total = Attribution.total_ns attr in
      let sum =
        List.fold_left (fun a (_, ns) -> a +. ns) 0.0
          (Attribution.by_cause attr)
      in
      let clock = Runtime.clock_stall_ns rt in
      Attribution.check attr = Ok ()
      && Attribution.unattributed_ns attr = 0.0
      && sum = total
      (* single-threaded micro_sum has no app-level joins, so the
         ledger accounts for (essentially) every stalled clock ns;
         the slack covers fixed-point truncation, < 2^-16 ns/charge *)
      && total <= clock +. 1.0
      && clock -. total <= 1.0 +. (1e-6 *. clock)
      && work_ns > 0.0)

let test_attribution_off_identical () =
  (* the ledger observes, never steers: disabling it must not change
     simulated results *)
  let run attr_on =
    let far = Mira_workloads.Micro_sum.far_bytes micro_cfg in
    let far_capacity = Mira_util.Misc.round_up (4 * far) 4096 in
    let prog = Mira_workloads.Micro_sum.build micro_cfg in
    let rt =
      Runtime.create (Runtime.config_default ~local_budget:(far / 4) ~far_capacity)
    in
    Attribution.set_enabled (Runtime.attribution rt) attr_on;
    let ms = Runtime.memsys rt in
    let measured =
      Mira_passes.Instrument.run_only prog ~names:[ C.work_function prog ]
    in
    let machine = Machine.create ~seed:42 ms measured in
    snd (C.measure_work ms machine)
  in
  Alcotest.(check (float 0.0)) "identical simulated time" (run false) (run true)

(* --- doc drift guard ------------------------------------------------------ *)

(* docs/OBSERVABILITY.md's publisher table compresses families with
   slashes (net.bytes_in/out) and placeholders (section.<name>.hits,
   site<N>).  Expand the doc's tokens, normalize the published names,
   and require every published metric to be documented. *)
let doc_metric_names doc_text =
  let is_tok c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '.' || c = '_' || c = '/' || c = '<' || c = '>'
  in
  let tokens = ref [] in
  let buf = Buffer.create 32 in
  let flush () =
    if Buffer.length buf > 0 then begin
      tokens := Buffer.contents buf :: !tokens;
      Buffer.clear buf
    end
  in
  String.iter (fun c -> if is_tok c then Buffer.add_char buf c else flush ())
    doc_text;
  flush ();
  let strip_dots s =
    let n = String.length s in
    let i = if n > 0 && s.[0] = '.' then 1 else 0 in
    let j = if n > i && s.[n - 1] = '.' then n - 1 else n in
    String.sub s i (j - i)
  in
  let expand tok =
    match String.split_on_char '/' tok with
    | [] | [ _ ] -> [ tok ]
    | first :: rest ->
      (* the doc compresses families as net.bytes_in/out and
         section.<name>.hits/misses: an alternative replaces the
         trailing segment of [first], but "trailing segment" may start
         at a dot or an underscore — generate a candidate at every
         separator (over-generation is harmless, the guard only tests
         membership) *)
      let prefixes = ref [ "" ] in
      String.iteri
        (fun i c ->
          if c = '.' || c = '_' then
            prefixes := String.sub first 0 (i + 1) :: !prefixes)
        first;
      first
      :: List.concat_map
           (fun alt -> List.map (fun p -> p ^ alt) !prefixes)
           rest
  in
  !tokens
  |> List.map strip_dots
  |> List.filter (fun t -> String.contains t '.')
  |> List.concat_map expand

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let test_doc_drift_guard () =
  let doc_text =
    In_channel.with_open_bin "../docs/OBSERVABILITY.md" In_channel.input_all
  in
  let documented = doc_metric_names doc_text in
  let _, rt = run_workload Cluster.spec_default in
  let reg = Mira.Report.runtime_metrics rt in
  let section_names =
    List.map
      (fun s -> (Mira_cache.Section.config s).Mira_cache.Section.sec_name)
      (Mira_cache.Manager.sections (Runtime.manager rt))
  in
  let normalize name =
    let name =
      List.fold_left
        (fun n sec ->
          let p = "section." ^ sec ^ "." in
          if starts_with ~prefix:p n then
            "section.<name>."
            ^ String.sub n (String.length p) (String.length n - String.length p)
          else n)
        name section_names
    in
    if starts_with ~prefix:"runtime.lost_bytes.site" name then
      "runtime.lost_bytes.site<N>"
    else if starts_with ~prefix:"sched.block." name then "sched.block.<event>"
    else if starts_with ~prefix:"serving.tenant" name then
      "serving.tenant<N>." ^ List.nth (String.split_on_char '.' name) 2
    else name
  in
  let missing =
    Metrics.names reg
    |> List.map normalize
    |> List.sort_uniq compare
    |> List.filter (fun n -> not (List.mem n documented))
  in
  if missing <> [] then
    Alcotest.failf
      "metrics published but absent from docs/OBSERVABILITY.md: %s"
      (String.concat ", " missing);
  (* the stall gauges specifically must stay documented *)
  List.iter
    (fun c ->
      let n = Printf.sprintf "stall.%s_ns" (Attribution.cause_name c) in
      Alcotest.(check bool) (n ^ " documented") true (List.mem n documented))
    Attribution.causes

(* --- bench diff gate ------------------------------------------------------ *)

let mk_doc ?(title = "micro") ?(native = Some 2.0) rows =
  { Diff.d_title = title; d_native_work_ms = native; d_rows = rows }

let row ratio systems =
  { Diff.r_key = Printf.sprintf "ratio=%g" ratio; r_systems = systems }

let baseline_doc =
  mk_doc
    [
      row 0.2 [ ("fastswap", Diff.Time_ms 4.0); ("mira", Diff.Time_ms 3.0) ];
      row 0.5 [ ("fastswap", Diff.Time_ms 3.0); ("mira", Diff.Time_ms 2.5) ];
    ]

let test_diff_identical_passes () =
  let v =
    Diff.compare_docs ~tolerance:0.05 ~baseline:baseline_doc
      ~candidate:baseline_doc
  in
  Alcotest.(check (list string)) "no regressions" [] v.Diff.v_regressions;
  Alcotest.(check (list string)) "no improvements" [] v.Diff.v_improvements;
  Alcotest.(check int) "five pairs (incl native)" 5 v.Diff.v_compared

let test_diff_catches_regression () =
  let cand =
    mk_doc
      [
        row 0.2 [ ("fastswap", Diff.Time_ms 4.0); ("mira", Diff.Time_ms 4.5) ];
        row 0.5 [ ("fastswap", Diff.Time_ms 3.0); ("mira", Diff.Time_ms 2.5) ];
      ]
  in
  let v =
    Diff.compare_docs ~tolerance:0.05 ~baseline:baseline_doc ~candidate:cand
  in
  Alcotest.(check int) "one regression" 1 (List.length v.Diff.v_regressions);
  Alcotest.(check bool) "regression names the cell" true
    (contains (List.hd v.Diff.v_regressions) "ratio=0.2 mira");
  (* within tolerance: a 4% slowdown under a 5% gate passes *)
  let cand_ok =
    mk_doc
      [
        row 0.2 [ ("fastswap", Diff.Time_ms 4.0); ("mira", Diff.Time_ms 3.12) ];
        row 0.5 [ ("fastswap", Diff.Time_ms 3.0); ("mira", Diff.Time_ms 2.5) ];
      ]
  in
  let v =
    Diff.compare_docs ~tolerance:0.05 ~baseline:baseline_doc ~candidate:cand_ok
  in
  Alcotest.(check (list string)) "within tolerance" [] v.Diff.v_regressions

let test_diff_failures_and_coverage () =
  (* a system that ran in baseline but fails in candidate regresses *)
  let cand =
    mk_doc
      [
        row 0.2
          [ ("fastswap", Diff.Time_ms 4.0); ("mira", Diff.Failed "OOM") ];
      ]
  in
  let v =
    Diff.compare_docs ~tolerance:0.05 ~baseline:baseline_doc ~candidate:cand
  in
  (* mira fails at 0.2, and row 0.5 vanished: two regressions *)
  Alcotest.(check int) "fail + missing row" 2 (List.length v.Diff.v_regressions);
  (* a missing system is a regression; a new one is only a note *)
  let cand2 =
    mk_doc
      [
        row 0.2 [ ("fastswap", Diff.Time_ms 4.0); ("leap", Diff.Time_ms 9.9) ];
        row 0.5 [ ("fastswap", Diff.Time_ms 3.0); ("mira", Diff.Time_ms 2.5) ];
      ]
  in
  let v =
    Diff.compare_docs ~tolerance:0.05 ~baseline:baseline_doc ~candidate:cand2
  in
  Alcotest.(check int) "missing system regresses" 1
    (List.length v.Diff.v_regressions);
  Alcotest.(check bool) "new system noted" true
    (List.exists (fun n -> contains n "leap") v.Diff.v_notes);
  (* a fixed failure is an improvement, not a regression *)
  let base3 = mk_doc [ row 0.2 [ ("aifm", Diff.Failed "OOM") ] ] in
  let cand3 = mk_doc [ row 0.2 [ ("aifm", Diff.Time_ms 5.0) ] ] in
  let v = Diff.compare_docs ~tolerance:0.05 ~baseline:base3 ~candidate:cand3 in
  Alcotest.(check (list string)) "fix is not a regression" []
    v.Diff.v_regressions;
  Alcotest.(check int) "fix is an improvement" 1
    (List.length v.Diff.v_improvements)

let test_diff_of_json () =
  let doc =
    Json.Obj
      [
        ("title", Json.Str "micro");
        ("native_work_ms", Json.Float 2.0);
        ( "rows",
          Json.List
            [
              Json.Obj
                [
                  ("ratio", Json.Float 0.2);
                  ( "systems",
                    Json.List
                      [
                        Json.Obj
                          [
                            ("system", Json.Str "mira");
                            ("work_ms", Json.Float 3.0);
                          ];
                        Json.Obj
                          [
                            ("system", Json.Str "aifm");
                            ("failed", Json.Str "OOM");
                          ];
                      ] );
                ];
            ] );
      ]
  in
  (match Diff.of_json doc with
  | Error e -> Alcotest.failf "well-formed doc rejected: %s" e
  | Ok d ->
    Alcotest.(check string) "title" "micro" d.Diff.d_title;
    Alcotest.(check int) "one row" 1 (List.length d.Diff.d_rows);
    let r = List.hd d.Diff.d_rows in
    Alcotest.(check bool) "outcomes parsed" true
      (List.assoc "mira" r.Diff.r_systems = Diff.Time_ms 3.0
      && List.assoc "aifm" r.Diff.r_systems = Diff.Failed "OOM"));
  (* a "figures" document keys each sweep's rows by the sweep's title;
     a figure of config rows (Fig 22's transfer modes, which also carry
     byte counts) gates its flat work time *)
  let modes =
    Json.Obj
      [
        ("title", Json.Str "fig22");
        ( "rows",
          Json.List
            [
              Json.Obj
                [
                  ("config", Json.Str "whole");
                  ("work_ms", Json.Float 20.0);
                  ("bytes_in", Json.Int 9);
                  ("bytes_out", Json.Int 8);
                ];
            ] );
      ]
  in
  (match
     Diff.of_json
       (Json.Obj
          [ ("title", Json.Str "paper"); ("figures", Json.List [ doc; doc; modes ]) ])
   with
  | Error e -> Alcotest.failf "figures doc rejected: %s" e
  | Ok d ->
    Alcotest.(check (list string)) "prefixed keys"
      [ "micro: ratio=0.2"; "micro: ratio=0.2"; "fig22: whole" ]
      (List.map (fun r -> r.Diff.r_key) d.Diff.d_rows);
    Alcotest.(check bool) "config row time" true
      ((List.nth d.Diff.d_rows 2).Diff.r_systems = [ ("work_ms", Diff.Time_ms 20.0) ]));
  (* malformed documents are errors, not crashes *)
  List.iter
    (fun bad ->
      match Diff.of_json bad with
      | Ok _ -> Alcotest.fail "malformed doc accepted"
      | Error _ -> ())
    [
      Json.Obj [ ("title", Json.Str "x") ];
      Json.Obj [ ("figures", Json.List [ Json.Obj [ ("title", Json.Str "x") ] ]) ];
      Json.Obj [ ("rows", Json.List [ Json.Obj [ ("ratio", Json.Str "x") ] ]) ];
      Json.Obj
        [
          ( "rows",
            Json.List
              [
                Json.Obj
                  [
                    ("ratio", Json.Float 0.1);
                    ("systems", Json.List [ Json.Obj [] ]);
                  ];
              ] );
        ];
    ]

let suite =
  [
    Alcotest.test_case "charge + conservation audit" `Quick test_charge_and_check;
    Alcotest.test_case "disabled ledger" `Quick test_disabled_no_charge;
    Alcotest.test_case "interference split" `Quick test_interference_split;
    Alcotest.test_case "tail-first stall split" `Quick test_split_stall;
    Alcotest.test_case "folded flame export" `Quick test_folded_format;
    Alcotest.test_case "attribution json" `Quick test_attribution_json;
    Alcotest.test_case "duplicate metric rejected" `Quick
      test_duplicate_metric_rejected;
    Alcotest.test_case "profile strict mismatch" `Quick
      test_profile_strict_mismatch;
    Alcotest.test_case "profile pop-to-match" `Quick test_profile_pop_to_match;
    Alcotest.test_case "profile recursion" `Quick test_profile_recursion;
    QCheck_alcotest.to_alcotest qcheck_conservation;
    Alcotest.test_case "attribution off: identical results" `Slow
      test_attribution_off_identical;
    Alcotest.test_case "doc drift guard" `Slow test_doc_drift_guard;
    Alcotest.test_case "diff: identical passes" `Quick test_diff_identical_passes;
    Alcotest.test_case "diff: catches regression" `Quick
      test_diff_catches_regression;
    Alcotest.test_case "diff: failures and coverage" `Quick
      test_diff_failures_and_coverage;
    Alcotest.test_case "diff: json parsing" `Quick test_diff_of_json;
  ]
