module Ir = Mira_mir.Ir
module Params = Mira_sim.Params
module Section = Mira_cache.Section
module Sizing = Mira_cache.Sizing
module Manager = Mira_cache.Manager
module Runtime = Mira_runtime.Runtime
module Profile = Mira_runtime.Profile
module Machine = Mira_interp.Machine
module Value = Mira_interp.Value
module Pattern = Mira_analysis.Pattern
module Lifetime = Mira_analysis.Lifetime
module Flow = Mira_analysis.Remotable_flow
module Pipeline = Mira_passes.Pipeline
module Instrument = Mira_passes.Instrument
module Decision = Mira_telemetry.Decision
module Trace = Mira_telemetry.Trace
module Log = Mira_telemetry.Log

type options = {
  params : Params.t;
  local_budget : int;
  far_capacity : int;
  dataplane : Mira_sim.Net.dp_config;
  cluster : Mira_sim.Cluster.spec;
  placement_candidates : Mira_sim.Cluster.placement list;
  max_iterations : int;
  nthreads : int;
  tenants : int;
  seed : int;
  feat_sections : bool;
  feat_prefetch : bool;
  feat_evict : bool;
  feat_fusion : bool;
  feat_native : bool;
  feat_offload : bool;
  always_accept : bool;
  verbose : bool;
}

let options_default ~local_budget ~far_capacity =
  {
    params = Params.default;
    local_budget;
    far_capacity;
    dataplane = Mira_sim.Net.dp_default;
    cluster = Mira_sim.Cluster.spec_default;
    placement_candidates = [];
    max_iterations = 3;
    nthreads = 1;
    tenants = 1;
    seed = 42;
    feat_sections = true;
    feat_prefetch = true;
    feat_evict = true;
    feat_fusion = true;
    feat_native = true;
    feat_offload = false;
    always_accept = false;
    verbose = false;
  }

type assignment = { a_spec : Section_planner.spec; a_size : int }

type compiled = {
  c_program : Ir.program;
  c_original : Ir.program;
  c_plan : Pipeline.plan;
  c_assignments : assignment list;
  c_options : options;
  c_iterations : int;
  c_work_ns : float;
  c_log : Decision.t list;
}

let work_function (p : Ir.program) =
  if List.mem_assoc "work" p.Ir.p_funcs then "work" else p.Ir.p_entry

(* --- running one configuration ------------------------------------------ *)

(* A fresh runtime laid out for the given assignments.  Read-only
   sections are split per-thread when running multithreaded (§4.6);
   shared writable sections other than resident ones are forced
   fully-associative. *)
let make_runtime opts assignments =
  let rt =
    Runtime.create
      { (Runtime.config_default ~local_budget:opts.local_budget
           ~far_capacity:opts.far_capacity)
        with
        Runtime.params = opts.params;
        dataplane = opts.dataplane;
        cluster = opts.cluster;
        tenants = opts.tenants;
      }
  in
  let next_id = ref 0 in
  let fresh_id () =
    incr next_id;
    !next_id
  in
  let multi = opts.nthreads > 1 in
  let per_thread = ref [] in
  let sections =
    List.concat_map
      (fun { a_spec; a_size } ->
        let base_cfg = a_spec.Section_planner.sp_cfg in
        let sites = a_spec.Section_planner.sp_sites in
        if multi && a_spec.Section_planner.sp_private_ok then begin
          let per = max base_cfg.Section.line (a_size / opts.nthreads) in
          let cfgs =
            Array.init opts.nthreads (fun _ ->
                let id = fresh_id () in
                { base_cfg with
                  Section.sec_id = id;
                  sec_name = Printf.sprintf "%s.t%d" base_cfg.Section.sec_name id;
                  size = per })
          in
          let ids = Array.map (fun c -> c.Section.sec_id) cfgs in
          per_thread := !per_thread @ List.map (fun site -> (site, ids)) sites;
          Array.to_list (Array.map (fun c -> (c, [])) cfgs)
        end
        else begin
          let structure =
            if multi && not (Section.resident_section base_cfg) then Section.Full_assoc
            else base_cfg.Section.structure
          in
          [ ({ base_cfg with Section.sec_id = fresh_id (); size = a_size; structure }, sites) ]
        end)
      assignments
  in
  Runtime.configure rt { Manager.sections; per_thread = !per_thread };
  rt

let measure_work ms machine =
  let result = Machine.run machine in
  let stats = Profile.fn_stats ms.Mira_runtime.Memsys.profile in
  let work_ns =
    match List.assoc_opt "work" stats with
    | Some s -> s.Profile.total_ns
    | None -> ms.Mira_runtime.Memsys.elapsed ()
  in
  (result, work_ns)

(* A size sample or a measure whose work time passes [abort_factor]
   times the best work time known has lost: its run is stopped there. *)
let abort_factor = 2.0

type outcome =
  | Completed of float * Profile.t  (** work time and the run's profile *)
  | Aborted of float  (** stopped once its work time passed this *)

(* [ms] with every thread clock limited to [limit] ns of work time:
   each entry to [work] arms the clocks handed out so far, and those
   handed out later, at the time left to it; the exit disarms them.
   A clock checks its limit when it stalls (see [Clock.set_limit]). *)
let bounded (ms : Mira_runtime.Memsys.t) limit =
  let module Clock = Mira_sim.Clock in
  let clocks = ref [] and armed = ref infinity in
  let spent = ref 0.0 and entered = ref 0.0 in
  let arm at =
    armed := at;
    List.iter (fun c -> Clock.set_limit c at) !clocks
  in
  let clock ~tid =
    let c = ms.clock ~tid in
    if not (List.memq c !clocks) then begin
      clocks := c :: !clocks;
      Clock.set_limit c !armed
    end;
    c
  in
  {
    ms with
    clock;
    enter =
      (fun ~tid name ->
        ms.enter ~tid name;
        if name = "work" then begin
          entered := Clock.now (clock ~tid);
          arm (!entered +. limit -. !spent)
        end);
    exit_ =
      (fun ~tid name ->
        if name = "work" then begin
          spent := !spent +. (Clock.now (clock ~tid) -. !entered);
          arm infinity
        end;
        ms.exit_ ~tid name);
  }

(* Evaluate a (program, assignments) pair on a fresh runtime; the
   program must already carry the instrumentation it needs.  Nothing
   of the runtime is kept but the run's profile, so its far stores die
   with it.  A run whose work time passes [limit] is stopped there, and
   the trace events it emitted are dropped: they would hang off the
   access it stopped in, whose span never closes. *)
let simulate ~limit opts program assignments =
  let rt = make_runtime opts assignments in
  let ms = Runtime.memsys rt in
  let ms = if Float.is_finite limit then bounded ms limit else ms in
  let machine =
    Machine.create ~nthreads:opts.nthreads ~seed:opts.seed
      ~honor_offload:opts.feat_offload ms program
  in
  let rewind = Trace.mark () in
  match measure_work ms machine with
  | _, work_ns when work_ns > limit -> Aborted limit (* passed it computing *)
  | _, work_ns -> Completed (work_ns, Runtime.profile rt)
  | exception Mira_sim.Clock.Past_limit ->
    rewind ();
    Aborted limit

(* [simulate] behind a memo that lives for one search.  A fresh runtime
   and a fixed-seed machine make a run a pure function of (options,
   program, assignments), so a configuration the search has already
   simulated returns what a new run would: a completed run its result,
   or an abort if its work time passes the new limit; a run aborted at
   [l] an abort under any limit up to [l].  Only a run aborted under a
   smaller limit runs again.  The key holds the whole options record
   because the placement search varies [cluster].  A run that raised
   raises again when repeated. *)
let memo_eval () =
  let memo = ref [] in
  fun ~limit opts program assignments ->
    let key = (opts, program, assignments) in
    match List.assoc_opt key !memo with
    | Some (Completed (work_ns, _)) when work_ns > limit -> Aborted limit
    | Some (Completed _ as result) -> result
    | Some (Aborted past) when limit <= past -> Aborted limit
    | Some (Aborted _) | None ->
      let result = simulate ~limit opts program assignments in
      memo := (key, result) :: List.remove_assoc key !memo;
      result

(* --- analysis aggregation ------------------------------------------------ *)

(* Scope selection to the measured function's dynamic call tree:
   initialization code is not part of what the paper (or we) report. *)
let work_scope facts (original : Ir.program) =
  let rec close acc name =
    if List.mem name acc || not (List.mem_assoc name original.Ir.p_funcs) then acc
    else List.fold_left close (name :: acc) (Flow.callees facts name)
  in
  close [] (work_function original)

(* Merge a site's per-function summaries: the section must serve the
   most demanding pattern the site ever exhibits (a sequential scan
   still works in an element-line associative section, but a random
   update stream in a big-line direct section is disastrous), and the
   read/write flags must hold across every scope of the measured call
   tree. *)
let demand_rank = function
  | Pattern.Pointer_chase -> 4
  | Pattern.Indirect _ -> 3
  | Pattern.Random -> 2
  | Pattern.Strided _ -> 1
  | Pattern.Sequential _ -> 0

(* The touched fields, by contrast, are a union over every function of
   the program: a payload section's lines hold nothing else, so a field
   only [init] or [checksum] touches must cross the wire too.  An
   access with no resolved site could reach any object, and one that
   maps to no field of the element could reach any byte: either keeps
   the whole line. *)
let site_fields all_fns ~elem site =
  if List.exists (fun (_, (r : Pattern.result)) -> r.Pattern.r_unresolved > 0) all_fns
  then None
  else
    List.fold_left
      (fun acc (_, r) ->
        match (acc, Pattern.summary_for r site) with
        | None, _ -> None
        | acc, None -> acc
        | Some l, Some ss ->
          if ss.Pattern.ss_elem <> elem then None
          else Option.map (fun f -> l @ f) ss.Pattern.ss_fields)
      (Some []) all_fns
    |> Option.map Mira_util.Misc.merge_extents

(* [within] is the measured call tree and [all_fns] every function's
   analysis, both computed once per search. *)
let summaries_within ~within ~all_fns sites =
  let per_fn = List.filter (fun (fn, _) -> List.mem fn within) all_fns in
  List.filter_map
    (fun site ->
      let candidates =
        List.filter_map
          (fun (_fn, (r : Pattern.result)) ->
            match Pattern.summary_for r site with
            | Some ss ->
              let interval =
                match List.assoc_opt site (Lifetime.site_phases r) with
                | Some iv -> (iv.Lifetime.first_phase, iv.Lifetime.last_phase)
                | None -> (0, 0)
              in
              Some (ss, interval)
            | None -> None)
          per_fn
      in
      match candidates with
      | [] -> None
      | (first, iv0) :: rest ->
        let merged, iv =
          List.fold_left
            (fun ((acc : Pattern.site_summary), iv) ((ss : Pattern.site_summary), iv') ->
              let kind =
                if demand_rank ss.Pattern.ss_kind > demand_rank acc.Pattern.ss_kind
                then ss.Pattern.ss_kind
                else acc.Pattern.ss_kind
              in
              ( {
                  acc with
                  Pattern.ss_kind = kind;
                  ss_reads = acc.Pattern.ss_reads + ss.Pattern.ss_reads;
                  ss_writes = acc.Pattern.ss_writes + ss.Pattern.ss_writes;
                  ss_elem = max acc.Pattern.ss_elem ss.Pattern.ss_elem;
                  ss_read_only = acc.Pattern.ss_read_only && ss.Pattern.ss_read_only;
                  ss_write_only =
                    acc.Pattern.ss_write_only && ss.Pattern.ss_write_only;
                },
                (min (fst iv) (fst iv'), max (snd iv) (snd iv')) ))
            (first, iv0) rest
        in
        let ss_fields = site_fields all_fns ~elem:merged.Pattern.ss_elem site in
        Some ({ merged with Pattern.ss_fields }, iv))
    sites

let site_summaries program sites =
  let facts = Flow.build program in
  summaries_within ~within:(work_scope facts program)
    ~all_fns:(Pattern.analyze_all facts program) sites

(* --- sizing --------------------------------------------------------------- *)

(* Budget fractions sampled for a non-sequential section. *)
let size_samples = [ 0.15; 0.35; 0.7 ]

let size_specs ~eval opts specs ~compile ~iter ~best_ns =
  let page = opts.params.Params.page_size in
  let budget = opts.local_budget in
  let body_ops_hint = 64 in
  let seq, nonseq =
    List.partition (fun s -> s.Section_planner.sp_seq) specs
  in
  let seq_assignments =
    List.map
      (fun s ->
        let line = s.Section_planner.sp_cfg.Section.line in
        let window =
          Section_planner.seq_section_bytes ~params:opts.params ~line
            ~body_ops:body_ops_hint
        in
        (* Small streamed-and-reused objects become fully resident: the
           section holds the whole group, so re-scans never refetch. *)
        let total =
          Mira_util.Misc.round_up
            (max line s.Section_planner.sp_total_bytes) line
        in
        let size = if total <= 2 * window then total else window in
        { a_spec = s; a_size = max s.Section_planner.sp_min_size size })
      seq
  in
  (* Cap the sequential sections' share of the budget: a third when
     other sections still need sampling room, most of it otherwise. *)
  let reserve = max (2 * page) (budget / 16) in
  let seq_cap = if nonseq = [] then max page (budget - reserve) else budget / 3 in
  let seq_total = List.fold_left (fun a x -> a + x.a_size) 0 seq_assignments in
  let seq_assignments =
    if seq_total > seq_cap then begin
      let scale = float_of_int seq_cap /. float_of_int seq_total in
      List.map
        (fun a ->
          let line = a.a_spec.Section_planner.sp_cfg.Section.line in
          let scaled =
            Mira_util.Misc.round_up
              (max a.a_spec.Section_planner.sp_min_size
                 (int_of_float (float_of_int a.a_size *. scale)))
              line
          in
          { a with a_size = scaled })
        seq_assignments
    end
    else seq_assignments
  in
  let seq_total = List.fold_left (fun a x -> a + x.a_size) 0 seq_assignments in
  let avail = budget - seq_total - reserve in
  if nonseq = [] then (seq_assignments, [])
  else begin
    (* Sample each non-sequential section's overhead at a few sizes by
       actually running the program (others at an equal share). *)
    let k = List.length nonseq in
    let equal_share = max page (avail / max 1 k) in
    (* A section never outgrows its object: every size is clamped to
       the site's resident bytes, one slot per line the object spans
       (whole sets), and rounded to whole slots. *)
    let resident { Section_planner.sp_cfg = cfg; sp_total_bytes; sp_min_size; _ } =
      let lines = Mira_util.Misc.divide_ceil sp_total_bytes cfg.Section.line in
      let ways = match cfg.Section.structure with Section.Set_assoc k -> k | _ -> 1 in
      Mira_util.Misc.round_up
        (max sp_min_size (Mira_util.Misc.round_up lines ways * Section.slot_bytes cfg))
        (Section.slot_bytes cfg)
    in
    let clamp_spec spec size =
      Mira_util.Misc.round_up
        (Mira_util.Misc.clamp ~lo:spec.Section_planner.sp_min_size
           ~hi:(resident spec) size)
        (Section.slot_bytes spec.Section_planner.sp_cfg)
    in
    (* At its resident size a non-sequential section needs no metadata:
       as a resident section (set-associative) it is filled when its
       object is allocated and read at native cost.  Per-thread private
       copies would each need their own fill, so they keep lookups. *)
    let resident_form spec =
      let cfg = spec.Section_planner.sp_cfg in
      let ways = match cfg.Section.structure with Section.Set_assoc k -> k | _ -> 8 in
      if cfg.Section.structure = Section.Direct
         || (opts.nthreads > 1 && spec.Section_planner.sp_private_ok)
      then None
      else begin
        let cfg = { cfg with Section.no_meta = true; structure = Section.Set_assoc ways } in
        let spec = { spec with Section_planner.sp_cfg = cfg } in
        Some (spec, resident spec)
      end
    in
    (* The configuration a size stands for: from the resident size up,
       the resident form. *)
    let assign spec size =
      match resident_form spec with
      | Some (r, bytes) when size >= bytes -> { a_spec = r; a_size = bytes }
      | Some _ | None -> { a_spec = spec; a_size = clamp_spec spec size }
    in
    (* Each section's sizes run largest first, so its own fastest sample
       bounds its smaller ones; they are logged and scored in ascending
       order.  A sample that fails is dropped; an aborted one is scored
       with the bound it passed (see Sizing). *)
    let fastest = ref best_ns in
    let sample_logs = ref [] in
    let candidates =
      List.mapi
        (fun idx spec ->
          (* A looked-up section at least as large as the resident one
             is slower and no smaller: it is not sampled. *)
          let form = resident_form spec in
          let top = match form with Some (_, bytes) -> bytes | None -> resident spec in
          let sample_sizes =
            (if top <= avail then [ top ] else [])
            @ List.filter_map
                (fun frac ->
                  let size = clamp_spec spec (int_of_float (float_of_int avail *. frac)) in
                  if size < top then Some size else None)
                size_samples
            |> List.sort_uniq compare
          in
          let sec_id = spec.Section_planner.sp_cfg.Section.sec_id in
          let samples =
            List.filter_map
              (fun size ->
                if size > avail then None
                else begin
                  let assignments =
                    seq_assignments
                    @ List.mapi
                        (fun j s ->
                          if j = idx then assign s size
                          else assign s (min equal_share (avail - size) / max 1 (k - 1)))
                        nonseq
                  in
                  let resident = size = top && form <> None in
                  let limit = abort_factor *. !fastest in
                  match eval ~limit opts (compile assignments) assignments with
                  | Completed (work_ns, _) ->
                    fastest := Float.min !fastest work_ns;
                    Some
                      ( Decision.Size_sample
                          { iteration = iter; sec_id; size; resident; work_ns },
                        (size, work_ns) )
                  | Aborted limit_ns ->
                    Some
                      ( Decision.Sample_aborted
                          { iteration = iter; sec_id; size; resident; limit_ns },
                        (size, limit_ns) )
                  | exception _ -> None
                end)
              (List.rev sample_sizes)
            |> List.rev
          in
          sample_logs := List.rev_append (List.map fst samples) !sample_logs;
          {
            Sizing.cand_id = sec_id;
            options = Array.of_list (List.map snd samples);
            aborted =
              List.filter_map
                (function Decision.Sample_aborted { size; _ }, _ -> Some size | _ -> None)
                samples;
          })
        nonseq
    in
    let assignments =
      match Sizing.solve ~budget:avail (List.filter (fun c -> Array.length c.Sizing.options > 0) candidates) with
      | Ok solution ->
        List.map
          (fun spec ->
            let size =
              match
                List.assoc_opt spec.Section_planner.sp_cfg.Section.sec_id
                  solution.Sizing.assignment
              with
              | Some s -> s
              | None -> avail / max 1 k
            in
            assign spec size)
          nonseq
      | Error _ -> List.map (fun spec -> assign spec (avail / max 1 k)) nonseq
    in
    (seq_assignments @ assignments, List.rev !sample_logs)
  end

(* --- the iterative loop --------------------------------------------------- *)

let build_plan_for opts assignments ~instrument =
  let selected =
    List.concat_map (fun a -> a.a_spec.Section_planner.sp_sites) assignments
  in
  let lines =
    List.concat_map
      (fun a ->
        List.map
          (fun site -> (site, a.a_spec.Section_planner.sp_cfg.Section.line))
          a.a_spec.Section_planner.sp_sites)
      assignments
  in
  let read_only_all =
    List.for_all
      (fun a -> a.a_spec.Section_planner.sp_private_ok)
      assignments
  in
  let resident =
    List.concat_map
      (fun { a_spec = s; _ } ->
        if Section.resident_section s.Section_planner.sp_cfg then s.Section_planner.sp_sites else [])
      assignments
  in
  {
    Pipeline.selected;
    lines;
    resident;
    fuse = opts.feat_fusion;
    prefetch = opts.feat_prefetch;
    evict = opts.feat_evict && (opts.nthreads = 1 || read_only_all);
    native = opts.feat_native;
    offload = opts.feat_offload;
    instrument;
  }

let search opts original =
  let eval = memo_eval () in
  let unbounded opts program assignments =
    match eval ~limit:infinity opts program assignments with
    | Completed (work_ns, profile) -> (work_ns, profile)
    | Aborted _ -> assert false (* no limit *)
  in
  let log = ref [] in
  (* Controller phases happen in host time, which the simulation never
     sees; to still give them a trace lane we lay them out on a
     synthetic sequence clock: consecutive fixed-width spans, in
     decision order.  docs/OBSERVABILITY.md explains the convention. *)
  let seq = ref 0.0 in
  let phase name =
    if Trace.enabled () then begin
      Trace.complete ~name ~cat:"controller" ~lane:"controller" ~ts_ns:!seq
        ~dur_ns:1000.0 ();
      seq := !seq +. 1000.0
    end
  in
  let decide d =
    log := d :: !log;
    Log.info "%s" (Decision.render d);
    if Trace.enabled () then
      Trace.instant ~name:(Decision.name d) ~cat:"controller"
        ~lane:"controller" ~ts_ns:!seq
        ~args:[ ("detail", Decision.to_json d) ]
        ()
  in
  (* Iteration 0: generic swap, fully instrumented. *)
  phase "profile";
  let prog0 = Instrument.run original in
  let base_ns, profile0 = unbounded opts prog0 [] in
  decide (Decision.Profile_run { iteration = 0; work_ns = base_ns });
  (* Placement axis: how stripes map to cluster nodes is searched like
     section sizing — measure the instrumented baseline under each
     candidate layout and keep the fastest one for every subsequent
     compile and the final runtime. *)
  let opts =
    match opts.placement_candidates with
    | [] -> opts
    | cands ->
      phase "placement";
      let scored =
        List.map
          (fun pl ->
            let o =
              { opts with
                cluster =
                  { opts.cluster with Mira_sim.Cluster.placement = pl } }
            in
            let ns, _ = unbounded o prog0 [] in
            decide
              (Decision.Placement_sample
                 {
                   iteration = 0;
                   placement = Mira_sim.Cluster.placement_name pl;
                   work_ns = ns;
                 });
            (ns, o))
          cands
      in
      let _, best_o =
        List.fold_left
          (fun (bn, bo) (n, o) -> if n < bn then (n, o) else (bn, bo))
          (List.hd scored) (List.tl scored)
      in
      best_o
  in
  (* the site facts and the analysis of the program the search compiles *)
  let facts = Flow.build original in
  let heap = Flow.heap_sites facts in
  let allowed_functions = work_scope facts original in
  let all_fns = Pattern.analyze_all facts original in
  let analysis = (facts, all_fns) in
  (* best work, its selection, assignments and plan, and its iteration *)
  let best = ref (base_ns, [], [], Pipeline.plan_default, 0) in
  let profile = ref profile0 in
  (* each measured selection and the iteration that measured it *)
  let decided = ref [] in
  let continue_ = ref opts.feat_sections in
  let i = ref 0 in
  while !continue_ && !i < opts.max_iterations do
    incr i;
    let frac = 0.1 *. float_of_int !i in
    let funcs =
      Profile.top_functions !profile ~frac:1.0
      |> List.filter (fun f -> List.mem f allowed_functions)
      |> (fun fs ->
           let n = List.length fs in
           let keep =
             Mira_util.Misc.clamp ~lo:1 ~hi:(max 1 n)
               (int_of_float (ceil (frac *. float_of_int n)))
           in
           List.filteri (fun i _ -> i < keep) fs)
    in
    (* The selection widens each round (§4.1): it starts from the
       accepted plan's sites, so an iteration extends that plan rather
       than replacing it.  They keep their order in the accepted
       selection: the planner numbers sections in that order, so an
       unchanged plan is the configuration already simulated. *)
    let sites =
      let _, selected, accepted, _, _ = !best in
      let assigned = List.concat_map (fun a -> a.a_spec.Section_planner.sp_sites) accepted in
      let kept = List.filter (fun s -> List.mem s assigned) selected in
      kept
      @ (Profile.largest_sites !profile ~frac:(2.0 *. frac) ~among:funcs
        |> List.filter (fun s -> List.mem s heap && not (List.mem s kept)))
    in
    phase "select";
    decide (Decision.Select { iteration = !i; functions = funcs; sites });
    match List.assoc_opt sites !decided with
    | Some decided_at -> decide (Decision.Repeat { iteration = !i; decided_at })
    | None when sites = [] -> continue_ := false
    | None -> begin
      phase "analyze";
      let summaries = summaries_within ~within:allowed_functions ~all_fns sites in
      List.iter
        (fun ((ss : Pattern.site_summary), _) ->
          decide
            (Decision.Analyze
               {
                 iteration = !i;
                 site = ss.Pattern.ss_site;
                 pattern = Pattern.kind_to_string ss.Pattern.ss_kind;
                 elem = ss.Pattern.ss_elem;
                 read_only = ss.Pattern.ss_read_only;
                 write_only = ss.Pattern.ss_write_only;
               }))
        summaries;
      let site_bytes site =
        match List.assoc_opt site (Profile.site_stats !profile) with
        | Some st -> st.Profile.alloc_bytes
        | None -> 0
      in
      phase "plan";
      let specs =
        Section_planner.plan ~params:opts.params ~summaries ~site_bytes
          ~first_id:1
      in
      (* A size sample runs the program compiled for its own
         assignments (instrumented so `work` is measured): its resident
         sections get no hints. *)
      let compile assignments =
        Pipeline.apply ~analysis original (build_plan_for opts assignments ~instrument:true)
          ~params:opts.params
      in
      phase "size";
      let best_ns, _, _, _, _ = !best in
      let assignments, sample_log =
        size_specs ~eval opts specs ~compile ~iter:!i ~best_ns
      in
      List.iter decide sample_log;
      List.iter
        (fun a ->
          let cfg = a.a_spec.Section_planner.sp_cfg in
          decide
            (Decision.Plan_section
               {
                 iteration = !i;
                 name = cfg.Section.sec_name;
                 line = cfg.Section.line;
                 size = a.a_size;
                 structure =
                   (if Section.resident_section cfg then "resident"
                    else
                      match cfg.Section.structure with
                      | Section.Direct -> "direct"
                      | Section.Set_assoc k -> Printf.sprintf "set%d" k
                      | Section.Full_assoc -> "full");
                 sites = a.a_spec.Section_planner.sp_sites;
               }))
        assignments;
      phase "compile";
      let plan = build_plan_for opts assignments ~instrument:true in
      let prog = Mira_passes.Pipeline.apply ~analysis original plan ~params:opts.params in
      decided := (sites, !i) :: !decided;
      let limit = if opts.always_accept then infinity else abort_factor *. best_ns in
      match eval ~limit opts prog assignments with
      | Completed (work_ns, run_profile) ->
        decide
          (Decision.Measure { iteration = !i; work_ns; best_ns });
        if work_ns < best_ns || opts.always_accept then begin
          phase "accept";
          decide (Decision.Accept { iteration = !i; work_ns });
          best := (work_ns, sites, assignments, plan, !i);
          profile := run_profile;
          if work_ns > 0.98 *. best_ns && not opts.always_accept then
            continue_ := false
        end
        else begin
          (* Roll back to the previous configuration but keep iterating
             with a wider selection (§4.1). *)
          phase "rollback";
          decide (Decision.Rollback { iteration = !i; reason = "regression" })
        end
      | Aborted limit_ns ->
        decide (Decision.Measure_aborted { iteration = !i; limit_ns; best_ns });
        phase "rollback";
        decide
          (Decision.Rollback
             {
               iteration = !i;
               reason =
                 Printf.sprintf "aborted past %.3f ms (%gx best)" (limit_ns /. 1e6)
                   abort_factor;
             })
      | exception e ->
        phase "rollback";
        decide
          (Decision.Rollback
             {
               iteration = !i;
               reason = Printf.sprintf "failed (%s)" (Printexc.to_string e);
             })
    end
  done;
  let best_ns, _, assignments, plan, iters = !best in
  (* Final compilation: no profiling except the measured work function. *)
  let final_plan = { plan with Pipeline.instrument = false } in
  let final_prog =
    Mira_passes.Pipeline.apply ~analysis original final_plan ~params:opts.params
    |> Instrument.run_only ~names:[ work_function original ]
  in
  {
    c_program = final_prog;
    c_original = original;
    c_plan = final_plan;
    c_assignments = assignments;
    c_options = opts;
    c_iterations = iters;
    c_work_ns = best_ns;
    c_log = List.rev !log;
  }

let optimize opts original =
  let caller_level = Log.level () in
  Log.set_level (if opts.verbose then Log.Info else Log.Quiet);
  Fun.protect
    ~finally:(fun () -> Log.set_level caller_level)
    (fun () -> search opts original)

let instantiate compiled =
  let opts = compiled.c_options in
  let rt = make_runtime opts compiled.c_assignments in
  let machine =
    Machine.create ~nthreads:opts.nthreads ~seed:opts.seed
      ~honor_offload:opts.feat_offload (Runtime.memsys rt) compiled.c_program
  in
  (rt, machine)

let run compiled =
  let rt, machine = instantiate compiled in
  let result, work_ns = measure_work (Runtime.memsys rt) machine in
  (result, work_ns)
