type t =
  | Profile_run of { iteration : int; work_ns : float }
  | Select of { iteration : int; functions : string list; sites : int list }
  | Analyze of {
      iteration : int;
      site : int;
      pattern : string;
      elem : int;
      read_only : bool;
      write_only : bool;
    }
  | Plan_section of {
      iteration : int;
      name : string;
      line : int;
      size : int;
      structure : string;
      sites : int list;
    }
  | Size_sample of { iteration : int; sec_id : int; size : int; resident : bool; work_ns : float }
  | Sample_aborted of {
      iteration : int;
      sec_id : int;
      size : int;
      resident : bool;
      limit_ns : float;
    }
  | Joint_sample of { iteration : int; work_ns : float }
  | Placement_sample of { iteration : int; placement : string; work_ns : float }
  | Measure of { iteration : int; work_ns : float; best_ns : float }
  | Measure_aborted of { iteration : int; limit_ns : float; best_ns : float }
  | Accept of { iteration : int; work_ns : float }
  | Rollback of { iteration : int; reason : string }
  | Repeat of { iteration : int; decided_at : int }

let iteration = function
  | Profile_run { iteration; _ }
  | Select { iteration; _ }
  | Analyze { iteration; _ }
  | Plan_section { iteration; _ }
  | Size_sample { iteration; _ }
  | Sample_aborted { iteration; _ }
  | Joint_sample { iteration; _ }
  | Placement_sample { iteration; _ }
  | Measure { iteration; _ }
  | Measure_aborted { iteration; _ }
  | Accept { iteration; _ }
  | Rollback { iteration; _ }
  | Repeat { iteration; _ } ->
    iteration

let name = function
  | Profile_run _ -> "profile_run"
  | Select _ -> "select"
  | Analyze _ -> "analyze"
  | Plan_section _ -> "plan_section"
  | Size_sample _ -> "size_sample"
  | Sample_aborted _ -> "sample_aborted"
  | Joint_sample _ -> "joint_sample"
  | Placement_sample _ -> "placement_sample"
  | Measure _ -> "measure"
  | Measure_aborted _ -> "measure_aborted"
  | Accept _ -> "accept"
  | Rollback _ -> "rollback"
  | Repeat _ -> "repeat"

let ints xs = String.concat "," (List.map string_of_int xs)

let render = function
  | Profile_run { iteration = 0; work_ns } ->
    Printf.sprintf "initial swap run: work=%.3f ms" (work_ns /. 1e6)
  | Profile_run { iteration; work_ns } ->
    Printf.sprintf "profile run %d: work=%.3f ms" iteration (work_ns /. 1e6)
  | Select { iteration; functions; sites } ->
    Printf.sprintf "iteration %d: functions=[%s] sites=[%s]" iteration
      (String.concat "," functions) (ints sites)
  | Analyze { site; pattern; elem; read_only; write_only; _ } ->
    Printf.sprintf "  site %d: %s elem=%dB ro=%b wo=%b" site pattern elem
      read_only write_only
  | Plan_section { name; line; size; structure; sites; _ } ->
    Printf.sprintf "  section %s line=%dB size=%dK %s sites=[%s]" name line
      (size / 1024) structure (ints sites)
  | Size_sample { sec_id; size; resident; work_ns; _ } ->
    Printf.sprintf "  sample sec%d size=%dK%s work=%.2fms" sec_id (size / 1024)
      (if resident then " resident" else "")
      (work_ns /. 1e6)
  | Sample_aborted { sec_id; size; resident; limit_ns; _ } ->
    Printf.sprintf "  sample sec%d size=%dK%s aborted past %.2fms" sec_id (size / 1024)
      (if resident then " resident" else "")
      (limit_ns /. 1e6)
  | Joint_sample { work_ns; _ } ->
    Printf.sprintf "  joint allocation: work=%.2fms" (work_ns /. 1e6)
  | Placement_sample { placement; work_ns; _ } ->
    Printf.sprintf "  sample placement=%s work=%.2fms" placement
      (work_ns /. 1e6)
  | Measure { iteration; work_ns; best_ns } ->
    Printf.sprintf "iteration %d: work=%.3f ms (best %.3f ms)" iteration
      (work_ns /. 1e6) (best_ns /. 1e6)
  | Measure_aborted { iteration; limit_ns; best_ns } ->
    Printf.sprintf "iteration %d: aborted past %.3f ms (best %.3f ms)" iteration
      (limit_ns /. 1e6) (best_ns /. 1e6)
  | Accept { iteration; work_ns } ->
    Printf.sprintf "iteration %d: accepted at %.3f ms" iteration (work_ns /. 1e6)
  | Rollback { iteration; reason } ->
    Printf.sprintf "iteration %d: %s, rolling back" iteration reason
  | Repeat { iteration; decided_at } ->
    Printf.sprintf "iteration %d: selection decided at iteration %d, skipped" iteration
      decided_at

let to_json d =
  let tag n fields =
    Json.Obj (("event", Json.Str n) :: ("iteration", Json.Int (iteration d)) :: fields)
  in
  match d with
  | Profile_run { work_ns; _ } -> tag "profile_run" [ ("work_ns", Json.Float work_ns) ]
  | Select { functions; sites; _ } ->
    tag "select"
      [
        ("functions", Json.List (List.map (fun f -> Json.Str f) functions));
        ("sites", Json.List (List.map (fun s -> Json.Int s) sites));
      ]
  | Analyze { site; pattern; elem; read_only; write_only; _ } ->
    tag "analyze"
      [
        ("site", Json.Int site);
        ("pattern", Json.Str pattern);
        ("elem_bytes", Json.Int elem);
        ("read_only", Json.Bool read_only);
        ("write_only", Json.Bool write_only);
      ]
  | Plan_section { name; line; size; structure; sites; _ } ->
    tag "plan_section"
      [
        ("section", Json.Str name);
        ("line_bytes", Json.Int line);
        ("size_bytes", Json.Int size);
        ("structure", Json.Str structure);
        ("sites", Json.List (List.map (fun s -> Json.Int s) sites));
      ]
  | Size_sample { sec_id; size; resident; work_ns; _ } ->
    tag "size_sample"
      [
        ("sec_id", Json.Int sec_id);
        ("size_bytes", Json.Int size);
        ("resident", Json.Bool resident);
        ("work_ns", Json.Float work_ns);
      ]
  | Sample_aborted { sec_id; size; resident; limit_ns; _ } ->
    tag "sample_aborted"
      [
        ("sec_id", Json.Int sec_id);
        ("size_bytes", Json.Int size);
        ("resident", Json.Bool resident);
        ("aborted_past_ns", Json.Float limit_ns);
      ]
  | Joint_sample { work_ns; _ } ->
    tag "joint_sample" [ ("work_ns", Json.Float work_ns) ]
  | Placement_sample { placement; work_ns; _ } ->
    tag "placement_sample"
      [ ("placement", Json.Str placement); ("work_ns", Json.Float work_ns) ]
  | Measure { work_ns; best_ns; _ } ->
    tag "measure"
      [ ("work_ns", Json.Float work_ns); ("best_ns", Json.Float best_ns) ]
  | Measure_aborted { limit_ns; best_ns; _ } ->
    tag "measure_aborted"
      [ ("aborted_past_ns", Json.Float limit_ns); ("best_ns", Json.Float best_ns) ]
  | Accept { work_ns; _ } -> tag "accept" [ ("work_ns", Json.Float work_ns) ]
  | Rollback { reason; _ } -> tag "rollback" [ ("reason", Json.Str reason) ]
  | Repeat { decided_at; _ } -> tag "repeat" [ ("decided_at", Json.Int decided_at) ]
