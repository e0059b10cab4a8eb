type plan = {
  selected : int list;
  lines : (int * int) list;
  resident : int list;
  fuse : bool;
  prefetch : bool;
  evict : bool;
  native : bool;
  offload : bool;
  instrument : bool;
}

let plan_default =
  {
    selected = [];
    lines = [];
    resident = [];
    fuse = false;
    prefetch = false;
    evict = false;
    native = false;
    offload = false;
    instrument = false;
  }

let plan_all ~selected ~lines =
  {
    selected;
    lines;
    resident = [];
    fuse = true;
    prefetch = true;
    evict = true;
    native = true;
    offload = true;
    instrument = false;
  }

let apply ?analysis program plan ~params =
  let line_of site = List.assoc_opt site plan.lines in
  (* a resident section holds its whole object: nothing to hint *)
  let hint_line_of site = if List.mem site plan.resident then None else line_of site in
  let program = Instrument.strip program in
  (* no pass adds an allocation, a call or a parameter: the input's
     site facts hold for every pass *)
  let facts, results =
    match analysis with
    | Some (facts, results) -> (facts, Lazy.from_val results)
    | None ->
      let facts = Mira_analysis.Remotable_flow.build program in
      (facts, lazy (Mira_analysis.Pattern.analyze_all facts program))
  in
  let program = if plan.fuse then Fusion.run facts program else program in
  let program = Convert_remote.run facts program ~selected:plan.selected in
  let program =
    if plan.prefetch || plan.evict || plan.native then
      Loop_hints.run facts program ~params ~line_of ~hint_line_of ~prefetch:plan.prefetch
        ~evict:plan.evict ~native:plan.native
    else program
  in
  let program =
    if plan.prefetch then Prefetch_pass.chase facts program ~line_of:hint_line_of
    else program
  in
  let program =
    if plan.evict then Evict_hints.end_lifetimes facts program ~line_of:hint_line_of
    else program
  in
  let program =
    if plan.native then Native_deref.run facts program ~line_of else program
  in
  let program =
    if plan.offload then Offload_pass.run facts (Lazy.force results) program ~params
    else program
  in
  let program = if plan.instrument then Instrument.run program else program in
  Mira_mir.Verifier.verify_exn program;
  program
