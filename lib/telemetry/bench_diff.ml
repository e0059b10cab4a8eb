(* Comparison logic for the perf-regression gate: two BENCH_*.json
   documents (written by the bench harness sweep) are matched row by
   row and system by system, and simulated work times are compared
   with a relative noise tolerance.  Pure (no I/O beyond [load]) so
   the test suite can drive it on synthetic documents. *)

type outcome = Time_ms of float | Failed of string

type row = {
  r_key : string;
  r_systems : (string * outcome) list;
}

type doc = {
  d_title : string;
  d_native_work_ms : float option;
  d_rows : row list;
}

let ( let* ) = Result.bind

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = collect f rest in
    Ok (y :: ys)

let system_of_json j =
  match Json.member "system" j with
  | Some (Json.Str name) -> (
    match Json.member "failed" j with
    | Some (Json.Str msg) -> Ok (name, Failed msg)
    | Some _ -> Error (Printf.sprintf "system %S: non-string \"failed\"" name)
    | None -> (
      match Option.bind (Json.member "work_ms" j) Json.to_float_opt with
      | Some ms -> Ok (name, Time_ms ms)
      | None ->
        Error
          (Printf.sprintf "system %S: neither \"work_ms\" nor \"failed\"" name)))
  | _ -> Error "system entry without a string \"system\" field"

(* Two row shapes share the gate.  Sweep documents (BENCH_micro) key
   rows by local-memory ratio and nest per-system outcomes; dataplane
   and chaos documents key rows by a config string (plus a seed for
   chaos) and report a single flat [work_ms].  Both reduce to a string
   key and a [(system, outcome)] list. *)
let row_of_json j =
  match Option.bind (Json.member "ratio" j) Json.to_float_opt with
  | Some ratio -> (
    let r_key = Printf.sprintf "ratio=%g" ratio in
    match Json.member "systems" j with
    | Some (Json.List systems) ->
      let* r_systems = collect system_of_json systems in
      Ok { r_key; r_systems }
    | _ -> Error (Printf.sprintf "row %s without a \"systems\" list" r_key))
  | None -> (
    match Json.member "config" j with
    | Some (Json.Str config) -> (
      let r_key =
        match Option.bind (Json.member "seed" j) Json.to_float_opt with
        | Some seed -> Printf.sprintf "%s seed=%g" config seed
        | None -> config
      in
      match Json.member "failed" j with
      | Some (Json.Str msg) -> Ok { r_key; r_systems = [ ("work_ms", Failed msg) ] }
      | Some _ -> Error (Printf.sprintf "row %s: non-string \"failed\"" r_key)
      | None -> (
        match Option.bind (Json.member "work_ms" j) Json.to_float_opt with
        | Some ms -> Ok { r_key; r_systems = [ ("work_ms", Time_ms ms) ] }
        | None ->
          Error
            (Printf.sprintf "row %s: neither \"work_ms\" nor \"failed\"" r_key)))
    | _ -> Error "row without a numeric \"ratio\" or string \"config\" field")

(* A document is one sweep, or (BENCH_paper) a list of sweeps under
   "figures", whose rows are keyed by figure title and row key. *)
let rec of_json j =
  let d_title =
    match Json.member "title" j with Some (Json.Str s) -> s | _ -> ""
  in
  let d_native_work_ms =
    Option.bind (Json.member "native_work_ms" j) Json.to_float_opt
  in
  match (Json.member "rows" j, Json.member "figures" j) with
  | Some (Json.List rows), _ ->
    let* d_rows = collect row_of_json rows in
    Ok { d_title; d_native_work_ms; d_rows }
  | None, Some (Json.List figures) ->
    let* docs = collect of_json figures in
    let d_rows =
      List.concat_map
        (fun d ->
          List.map (fun r -> { r with r_key = d.d_title ^ ": " ^ r.r_key }) d.d_rows)
        docs
    in
    Ok { d_title; d_native_work_ms; d_rows }
  | _ -> Error "document without a \"rows\" or \"figures\" list"

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
    match Json.parse contents with
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
    | Ok j -> (
      match of_json j with
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | Ok doc -> Ok doc))

type verdict = {
  v_regressions : string list;
  v_improvements : string list;
  v_notes : string list;
  v_compared : int;
}

let compare_time ~tolerance ~label ~base ~cand acc =
  let regressions, improvements, compared = acc in
  if base <= 0.0 then
    ( regressions,
      Printf.sprintf "%s: baseline time %g ms not comparable" label base
      :: improvements,
      compared )
  else
    let rel = (cand -. base) /. base in
    let line =
      Printf.sprintf "%s: %.3f ms -> %.3f ms (%+.1f%%, tolerance %.1f%%)" label
        base cand (100.0 *. rel) (100.0 *. tolerance)
    in
    if rel > tolerance then (line :: regressions, improvements, compared + 1)
    else if rel < -.tolerance then
      (regressions, line :: improvements, compared + 1)
    else (regressions, improvements, compared + 1)

let compare_docs ~tolerance ~baseline ~candidate =
  let regressions = ref [] and improvements = ref [] and notes = ref [] in
  let compared = ref 0 in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let regress fmt = Printf.ksprintf (fun s -> regressions := s :: !regressions) fmt in
  if baseline.d_title <> candidate.d_title then
    note "title mismatch: baseline %S vs candidate %S" baseline.d_title
      candidate.d_title;
  (match (baseline.d_native_work_ms, candidate.d_native_work_ms) with
  | Some b, Some c ->
    let r, i, n =
      compare_time ~tolerance ~label:"native" ~base:b ~cand:c
        (!regressions, !improvements, !compared)
    in
    regressions := r;
    improvements := i;
    compared := n
  | Some _, None -> regress "native_work_ms missing from candidate"
  | None, _ -> ());
  List.iter
    (fun brow ->
      match
        List.find_opt (fun c -> String.equal c.r_key brow.r_key)
          candidate.d_rows
      with
      | None -> regress "row %s missing from candidate" brow.r_key
      | Some crow ->
        List.iter
          (fun (name, bout) ->
            let label = Printf.sprintf "%s %s" brow.r_key name in
            match (bout, List.assoc_opt name crow.r_systems) with
            | _, None -> regress "%s missing from candidate" label
            | Time_ms b, Some (Time_ms c) ->
              let r, i, n =
                compare_time ~tolerance ~label ~base:b ~cand:c
                  (!regressions, !improvements, !compared)
              in
              regressions := r;
              improvements := i;
              compared := n
            | Time_ms b, Some (Failed msg) ->
              regress "%s: ran in %.3f ms in baseline, now fails (%s)" label b
                msg
            | Failed _, Some (Time_ms c) ->
              improvements :=
                Printf.sprintf "%s: failed in baseline, now runs in %.3f ms"
                  label c
                :: !improvements
            | Failed _, Some (Failed _) -> ())
          brow.r_systems;
        List.iter
          (fun (name, _) ->
            if not (List.mem_assoc name brow.r_systems) then
              note "%s %s: new system not in baseline" brow.r_key name)
          crow.r_systems)
    baseline.d_rows;
  List.iter
    (fun crow ->
      if
        not
          (List.exists (fun b -> String.equal b.r_key crow.r_key)
             baseline.d_rows)
      then note "row %s is new in candidate" crow.r_key)
    candidate.d_rows;
  {
    v_regressions = List.rev !regressions;
    v_improvements = List.rev !improvements;
    v_notes = List.rev !notes;
    v_compared = !compared;
  }
