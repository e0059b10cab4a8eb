(* Differential testing with randomly generated programs.

   A generator builds random (but always verifying) programs over a few
   far-memory arrays — nested loops, affine and data-dependent indexing
   guarded by modulo, reads/writes, reductions, and streaming loops over
   record arrays with offset bounds, steps and fields.  The property: the full
   optimization pipeline (fusion, conversion, prefetching, eviction
   hints, native-deref) and every memory system must compute exactly
   the value the native baseline computes.  A record array may also be
   reached only through a table of pointers, from two call sites. *)
module T = Mira_mir.Types
module Ir = Mira_mir.Ir
module B = Mira_mir.Builder
module Machine = Mira_interp.Machine
module Value = Mira_interp.Value
module Pipeline = Mira_passes.Pipeline

(* Recipe for one random program, small enough to print on failure. *)
type array_spec = { a_elems : int }

type stmt =
  | Seq_read of int  (** arr index, a[i] added to the accumulator *)
  | Seq_write of int  (** a[i] <- f(i) *)
  | Indirect_rmw of int * int  (** b[a[i] mod |b|] += 1 *)
  | Strided_read of int * int  (** a[(i*s) mod n] *)
  | Rev_read of int  (** a[n-1-i] *)

(* A streaming loop over an array of [words]-word records:
   [for i = lo to hi step s] reading fields of element [i + off].  The
   bounds put exactly [trip] iterations in the loop and [slack] (less
   than a step) between the last one and [hi]. *)
type stream_loop = {
  s_arr : int;
  s_lo : int;
  s_trip : int;
  s_step : int;
  s_slack : int;
  s_off : int;
  s_fields : int list;
}

(* A record array of [p_words]-word elements that only [p_fields] of
   are ever touched: [p_trip] read-modify-writes of an element picked
   through the values of array [p_via] ([p_indirect]) or by an LCG of
   the induction variable.  The planner gives such a site a payload
   section, whose lines hold only those fields. *)
type pick = {
  p_words : int;
  p_fields : int list;
  p_via : int;
  p_indirect : bool;
  p_trip : int;
}

(* A record array of [t_words]-word elements reached through a table:
   [main] stores its base in two one-element tables and calls
   [tabsum t] with each, which sums field 0 of [t[0][i]] for [i] below
   [t_trip].  The table's element type is allocated at both tables and
   the callers pass different ones, so the table load has no site and
   the base loaded through it has its pointee type's. *)
type tabled = { t_words : int; t_trip : int }

type recipe = {
  arrays : array_spec list;
  loops : (int * stmt list) list;  (** (trip count, body statements) *)
  records : int list;  (** words per element of each record array *)
  streams : stream_loop list;
  picks : pick list;
  tabled : tabled option;
}

let record_elems = 300

let stream_hi s =
  if s.s_trip = 0 then s.s_lo else s.s_lo + ((s.s_trip - 1) * s.s_step) + 1 + s.s_slack

let pp_stmt = function
  | Seq_read a -> Printf.sprintf "read a%d[i]" a
  | Seq_write a -> Printf.sprintf "write a%d[i]" a
  | Indirect_rmw (a, b) -> Printf.sprintf "a%d[a%d[i] mod n]+=1" b a
  | Strided_read (a, s) -> Printf.sprintf "read a%d[i*%d mod n]" a s
  | Rev_read a -> Printf.sprintf "read a%d[n-1-i]" a

let pp_stream s =
  Printf.sprintf "for i=%d..%d step %d {r%d[i+%d].{%s}}" s.s_lo (stream_hi s) s.s_step
    s.s_arr s.s_off
    (String.concat "," (List.map string_of_int s.s_fields))

let pp_pick p =
  Printf.sprintf "%dx{rp%d[%s].{%s}+=1}" p.p_trip p.p_words
    (if p.p_indirect then Printf.sprintf "a%d[i] mod n" p.p_via else "lcg(i)")
    (String.concat "," (List.map string_of_int p.p_fields))

let pp_tabled = function
  | None -> "none"
  | Some t -> Printf.sprintf "2 callers x {t[0][i<%d].0 of %d words}" t.t_trip t.t_words

let pp_recipe r =
  Printf.sprintf "arrays=[%s] loops=[%s] records=[%s] streams=[%s] picks=[%s] tabled=[%s]"
    (String.concat ";" (List.map (fun a -> string_of_int a.a_elems) r.arrays))
    (String.concat " | "
       (List.map
          (fun (trip, body) ->
            Printf.sprintf "%dx{%s}" trip (String.concat "," (List.map pp_stmt body)))
          r.loops))
    (String.concat ";" (List.map string_of_int r.records))
    (String.concat " | " (List.map pp_stream r.streams))
    (String.concat " | " (List.map pp_pick r.picks))
    (pp_tabled r.tabled)

let gen_recipe =
  QCheck.Gen.(
    let* n_arrays = int_range 1 3 in
    let* arrays = list_repeat n_arrays (map (fun e -> { a_elems = 64 + (e * 8) }) (int_bound 64)) in
    let arr = int_bound (n_arrays - 1) in
    let gen_stmt =
      frequency
        [
          (3, map (fun a -> Seq_read a) arr);
          (3, map (fun a -> Seq_write a) arr);
          (2, map2 (fun a b -> Indirect_rmw (a, b)) arr arr);
          (2, map2 (fun a s -> Strided_read (a, 1 + s)) arr (int_bound 6));
          (1, map (fun a -> Rev_read a) arr);
        ]
    in
    let* n_loops = int_range 1 4 in
    let* loops =
      list_repeat n_loops
        (let* trip = int_range 8 128 in
         let* body = list_size (int_range 1 4) gen_stmt in
         return (trip, body))
    in
    (* 8-, 24- and 128-byte records; 24 does not divide a line, so some
       elements straddle two *)
    let* records = list_size (int_range 1 2) (oneofl [ 1; 3; 16 ]) in
    let gen_stream =
      let* s_arr = int_bound (List.length records - 1) in
      let words = List.nth records s_arr in
      let* s_lo = oneof [ return 0; int_range 1 20 ] in
      let* s_trip = oneof [ return 0; return 1; int_range 2 90 ] in
      let* s_step = int_range 1 3 in
      let* s_slack = int_bound (s_step - 1) in
      let* s_off = int_bound 2 in
      let* s_fields = list_size (int_range 1 2) (int_bound (words - 1)) in
      return { s_arr; s_lo; s_trip; s_step; s_slack; s_off; s_fields }
    in
    let* streams = list_size (int_range 1 3) gen_stream in
    let gen_pick =
      let* p_words = oneofl [ 8; 16 ] in
      let* p_fields = list_size (int_range 1 3) (int_bound (p_words - 1)) in
      let* p_via = arr in
      let* p_indirect = bool in
      let* p_trip = int_range 8 128 in
      return { p_words; p_fields; p_via; p_indirect; p_trip }
    in
    let* picks = list_size (int_range 0 2) gen_pick in
    let* tabled =
      opt
        (let* t_words = oneofl [ 1; 3 ] in
         let* t_trip = int_range 1 record_elems in
         return { t_words; t_trip })
    in
    return { arrays; loops; records; streams; picks; tabled })

(* A struct even of one word: no other site allocates its type. *)
let tabled_ty t =
  T.struct_ (Printf.sprintf "trow%d" t.t_words)
    (List.init t.t_words (fun f -> (Printf.sprintf "f%d" f, T.I64)))

let build_program (r : recipe) =
  let b = B.program "random" in
  Option.iter
    (fun t ->
      let ty = tabled_ty t in
      B.func b "tabsum" [ ("t", T.Ptr (T.Ptr ty)) ] T.I64 (fun fb args ->
          let acc, _ = B.alloc fb ~name:"tacc" ~space:Ir.Stack T.I64 (B.iconst 1) in
          B.store fb T.I64 ~ptr:acc ~value:(B.iconst 0);
          let base = B.load fb (T.Ptr ty) (List.hd args) in
          B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst t.t_trip) (fun i ->
              let v = B.load fb T.I64 (B.gep fb ~base ~index:i ~elem:ty ()) in
              B.store fb T.I64 ~ptr:acc ~value:(B.bin fb Ir.Add (B.load fb T.I64 acc) v));
          B.ret fb (B.load fb T.I64 acc)))
    r.tabled;
  B.func b "main" [] T.I64 (fun fb _ ->
      let arrays =
        List.mapi
          (fun idx spec ->
            let ptr, _ =
              B.alloc fb ~name:(Printf.sprintf "ra%d" idx) T.I64
                (B.iconst spec.a_elems)
            in
            (ptr, spec.a_elems))
          r.arrays
      in
      let acc, _ = B.alloc fb ~name:"racc" ~space:Ir.Stack T.I64 (B.iconst 1) in
      B.store fb T.I64 ~ptr:acc ~value:(B.iconst 0);
      (* deterministic init *)
      List.iter
        (fun (ptr, elems) ->
          B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst elems) (fun i ->
              let p = B.gep fb ~base:ptr ~index:i ~elem:T.I64 () in
              let v = B.bin fb Ir.Mul i (B.iconst 7) in
              let v = B.bin fb Ir.Land v (B.iconst 0xFF) in
              B.store fb T.I64 ~ptr:p ~value:v))
        arrays;
      let bump v =
        let s = B.load fb T.I64 acc in
        B.store fb T.I64 ~ptr:acc ~value:(B.bin fb Ir.Add s v)
      in
      List.iter
        (fun (trip, body) ->
          B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst trip) (fun i ->
              List.iter
                (fun stmt ->
                  match stmt with
                  | Seq_read a ->
                    let ptr, elems = List.nth arrays a in
                    let idx = B.bin fb Ir.Rem i (B.iconst elems) in
                    let p = B.gep fb ~base:ptr ~index:idx ~elem:T.I64 () in
                    bump (B.load fb T.I64 p)
                  | Seq_write a ->
                    let ptr, elems = List.nth arrays a in
                    let idx = B.bin fb Ir.Rem i (B.iconst elems) in
                    let p = B.gep fb ~base:ptr ~index:idx ~elem:T.I64 () in
                    B.store fb T.I64 ~ptr:p ~value:(B.bin fb Ir.Add i (B.iconst 3))
                  | Indirect_rmw (a, bdst) ->
                    let aptr, aelems = List.nth arrays a in
                    let bptr, belems = List.nth arrays bdst in
                    let ai = B.bin fb Ir.Rem i (B.iconst aelems) in
                    let p = B.gep fb ~base:aptr ~index:ai ~elem:T.I64 () in
                    let v = B.load fb T.I64 p in
                    let bi = B.bin fb Ir.Rem v (B.iconst belems) in
                    let q = B.gep fb ~base:bptr ~index:bi ~elem:T.I64 () in
                    let w = B.load fb T.I64 q in
                    B.store fb T.I64 ~ptr:q ~value:(B.bin fb Ir.Add w (B.iconst 1))
                  | Strided_read (a, s) ->
                    let ptr, elems = List.nth arrays a in
                    let idx = B.bin fb Ir.Rem (B.bin fb Ir.Mul i (B.iconst s)) (B.iconst elems) in
                    let p = B.gep fb ~base:ptr ~index:idx ~elem:T.I64 () in
                    bump (B.load fb T.I64 p)
                  | Rev_read a ->
                    let ptr, elems = List.nth arrays a in
                    let idx = B.bin fb Ir.Rem i (B.iconst elems) in
                    let idx = B.bin fb Ir.Sub (B.iconst (elems - 1)) idx in
                    let p = B.gep fb ~base:ptr ~index:idx ~elem:T.I64 () in
                    bump (B.load fb T.I64 p))
                body))
        r.loops;
      let records =
        List.mapi
          (fun idx words ->
            let ty =
              if words = 1 then T.I64
              else
                T.struct_ (Printf.sprintf "rec%d" words)
                  (List.init words (fun f -> (Printf.sprintf "f%d" f, T.I64)))
            in
            let ptr, _ =
              B.alloc fb ~name:(Printf.sprintf "rr%d" idx) ty (B.iconst record_elems)
            in
            B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst record_elems) (fun i ->
                for f = 0 to words - 1 do
                  let p = B.gep fb ~base:ptr ~index:i ~elem:ty ~field_off:(8 * f) () in
                  let v = B.bin fb Ir.Mul i (B.iconst (7 + f)) in
                  B.store fb T.I64 ~ptr:p ~value:(B.bin fb Ir.Land v (B.iconst 0xFF))
                done);
            (ptr, ty))
          r.records
      in
      List.iter
        (fun st ->
          let ptr, ty = List.nth records st.s_arr in
          B.for_ fb ~lo:(B.iconst st.s_lo) ~hi:(B.iconst (stream_hi st))
            ~step:(B.iconst st.s_step) (fun i ->
              let idx = B.bin fb Ir.Add i (B.iconst st.s_off) in
              List.iter
                (fun f ->
                  let p = B.gep fb ~base:ptr ~index:idx ~elem:ty ~field_off:(8 * f) () in
                  bump (B.load fb T.I64 p))
                st.s_fields))
        r.streams;
      List.iteri
        (fun idx pk ->
          let ty =
            T.struct_ (Printf.sprintf "pick%d" pk.p_words)
              (List.init pk.p_words (fun f -> (Printf.sprintf "f%d" f, T.I64)))
          in
          let ptr, _ =
            B.alloc fb ~name:(Printf.sprintf "rp%d" idx) ty (B.iconst record_elems)
          in
          let n = B.iconst record_elems in
          B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst pk.p_trip) (fun i ->
              let j =
                if pk.p_indirect then begin
                  let vptr, velems = List.nth arrays pk.p_via in
                  let vi = B.bin fb Ir.Rem i (B.iconst velems) in
                  let v = B.load fb T.I64 (B.gep fb ~base:vptr ~index:vi ~elem:T.I64 ()) in
                  B.bin fb Ir.Rem v n
                end
                else begin
                  let x = B.bin fb Ir.Mul i (B.iconst 1103515245) in
                  let x = B.bin fb Ir.Add x (B.iconst 12345) in
                  let x = B.bin fb Ir.Land x (Ir.Oint 0x7FFFFFFFL) in
                  B.bin fb Ir.Rem x n
                end
              in
              List.iter
                (fun f ->
                  let p = B.gep fb ~base:ptr ~index:j ~elem:ty ~field_off:(8 * f) () in
                  let v = B.bin fb Ir.Add (B.load fb T.I64 p) (B.iconst (f + 1)) in
                  B.store fb T.I64 ~ptr:p ~value:v;
                  bump v)
                (List.sort_uniq compare pk.p_fields)))
        r.picks;
      Option.iter
        (fun t ->
          let ty = tabled_ty t in
          let ptr, _ = B.alloc fb ~name:"rt" ty (B.iconst record_elems) in
          B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst record_elems) (fun i ->
              let v = B.bin fb Ir.Mul i (B.iconst 5) in
              B.store fb T.I64 ~ptr:(B.gep fb ~base:ptr ~index:i ~elem:ty ())
                ~value:(B.bin fb Ir.Land v (B.iconst 0xFF)));
          List.iter
            (fun name ->
              let table, _ = B.alloc fb ~name (T.Ptr ty) (B.iconst 1) in
              B.store fb (T.Ptr ty) ~ptr:table ~value:ptr;
              bump (B.call fb "tabsum" [ table ]))
            [ "rt0"; "rt1" ])
        r.tabled;
      (* fold the arrays into the checksum *)
      List.iter
        (fun (ptr, elems) ->
          B.for_ fb ~lo:(B.iconst 0) ~hi:(B.iconst elems) (fun i ->
              let p = B.gep fb ~base:ptr ~index:i ~elem:T.I64 () in
              bump (B.load fb T.I64 p)))
        arrays;
      let v = B.load fb T.I64 acc in
      B.ret fb v);
  B.finish b ~entry:"main"

let far_capacity = 1 lsl 20

let run_on ms prog = Machine.run (Machine.create ~seed:9 ms prog)

let native_value prog =
  run_on (Mira_baselines.Native.create ~capacity:far_capacity ()) prog

let qcheck_pipeline_preserves =
  QCheck.Test.make ~name:"pipeline preserves random programs" ~count:60
    (QCheck.make ~print:pp_recipe gen_recipe)
    (fun recipe ->
      let prog = build_program recipe in
      Mira_mir.Verifier.verify_exn prog;
      let expected = native_value prog in
      let sites = List.map (fun s -> s.Ir.si_id) prog.Ir.p_sites in
      let plan =
        Pipeline.plan_all ~selected:sites ~lines:(List.map (fun s -> (s, 256)) sites)
      in
      let plan = { plan with Pipeline.offload = false } in
      let compiled = Pipeline.apply prog plan ~params:Mira_sim.Params.default in
      Value.equal expected (native_value compiled))

let qcheck_systems_agree =
  QCheck.Test.make ~name:"all memory systems agree on random programs" ~count:40
    (QCheck.make ~print:pp_recipe gen_recipe)
    (fun recipe ->
      let prog = build_program recipe in
      let expected = native_value prog in
      let budget = 16 * 4096 in
      let swap =
        Mira_runtime.Runtime.(
          memsys (create (config_default ~local_budget:budget ~far_capacity)))
      in
      let fs =
        Mira_baselines.Fastswap.create ~local_budget:budget ~far_capacity ()
      in
      let aifm =
        Mira_baselines.Aifm.create ~gran:(fun _ -> 512) ~local_budget:budget
          ~far_capacity ()
      in
      Value.equal expected (run_on swap prog)
      && Value.equal expected (run_on fs prog)
      && Value.equal expected (run_on aifm prog))

let qcheck_controller_preserves =
  QCheck.Test.make ~name:"controller preserves random programs" ~count:10
    (QCheck.make ~print:pp_recipe gen_recipe)
    (fun recipe ->
      let prog = build_program recipe in
      let expected = native_value prog in
      let opts =
        { (Mira.Controller.options_default ~local_budget:(16 * 4096)
             ~far_capacity)
          with Mira.Controller.max_iterations = 2; seed = 9 }
      in
      let compiled = Mira.Controller.optimize opts prog in
      let planned =
        List.fold_left
          (fun acc a -> acc + a.Mira.Controller.a_size)
          0 compiled.Mira.Controller.c_assignments
      in
      let joint =
        List.exists
          (function Mira_telemetry.Decision.Joint_sample _ -> true | _ -> false)
          compiled.Mira.Controller.c_log
      in
      let v, _ = Mira.Controller.run compiled in
      Value.equal expected v
      && planned <= opts.Mira.Controller.local_budget
      && not joint)

(* Every site in a resident section: the planner's line, payload and
   flags, metadata-free and set-associative, with a slot for every
   line the site allocates (measured on a first run).  The runtime
   fills each object at allocation, so no line is evicted or missed,
   and the result is native's: for the program as built, and compiled
   through the pipeline with every site resident, which then places no
   prefetch, flush or lifetime-end hint. *)
let qcheck_resident_preserves =
  QCheck.Test.make ~name:"resident sections preserve random programs" ~count:30
    (QCheck.make ~print:pp_recipe gen_recipe)
    (fun recipe ->
      let module Rt = Mira_runtime.Runtime in
      let module Section = Mira_cache.Section in
      let module SP = Mira.Section_planner in
      let prog = build_program recipe in
      let sites = List.map (fun s -> s.Ir.si_id) prog.Ir.p_sites in
      let specs =
        SP.plan ~params:Mira_sim.Params.default
          ~summaries:(Mira.Controller.site_summaries prog sites)
          ~site_bytes:(fun _ -> 0) ~first_id:1
      in
      let planned site =
        List.find_opt (fun s -> List.mem site s.SP.sp_sites) specs
        |> Option.fold ~some:(fun s -> s.SP.sp_cfg)
             ~none:(Section.config_default ~sec_id:0 ~name:"" ~line:64 ~size:64)
      in
      let create () = Rt.create (Rt.config_default ~local_budget:far_capacity ~far_capacity) in
      let probe = create () in
      ignore (run_on (Rt.memsys probe) prog);
      let allocated = Mira_runtime.Profile.site_stats (Rt.profile probe) in
      let run_resident prog =
        let rt = create () in
        let mgr = Rt.manager rt in
        let sections =
          List.mapi
            (fun i (site, (st : Mira_runtime.Profile.site_stat)) ->
            let cfg =
              { (planned site) with
                Section.sec_id = i + 1;
                sec_name = Printf.sprintf "r%d" site;
                structure = Section.Set_assoc 8;
                no_meta = true }
            in
            (* an object may straddle one line more than its bytes fill *)
            let lines =
              Mira_util.Misc.divide_ceil st.Mira_runtime.Profile.alloc_bytes cfg.Section.line
              + st.Mira_runtime.Profile.allocs
            in
            let cfg =
              { cfg with Section.size = Mira_util.Misc.round_up lines 8 * Section.slot_bytes cfg }
            in
            assert (Section.resident_section cfg);
            (cfg, [ site ]))
            allocated
        in
        Rt.configure rt { Mira_cache.Manager.sections; per_thread = [] };
        let v = run_on (Rt.memsys rt) prog in
        (* filled at allocation and never evicted: only the lines a store
           installs without a fetch can miss *)
        List.iteri
          (fun i _ ->
            let s = Option.get (Mira_cache.Manager.find_section mgr ~id:(i + 1)) in
            let st = Section.stats s in
            if st.Section.evictions > 0
               || (st.Section.misses > 0 && not (Section.config s).Section.write_no_fetch)
            then
              QCheck.Test.fail_reportf "section %s: %d misses, %d evictions"
                (Section.config s).Section.sec_name st.Section.misses st.Section.evictions)
          allocated;
        v
      in
      let plan =
        Pipeline.plan_all ~selected:sites
          ~lines:(List.map (fun s -> (s, (planned s).Section.line)) sites)
      in
      let compiled =
        Pipeline.apply prog
          { plan with Pipeline.offload = false; resident = sites }
          ~params:Mira_sim.Params.default
      in
      let hints =
        List.fold_left
          (fun acc (_, f) ->
            Ir.fold_ops
              (fun n op ->
                match op with
                | Ir.Prefetch _ | Ir.FlushEvict _ | Ir.EvictSite _ -> n + 1
                | _ -> n)
              acc f.Ir.f_body)
          0 compiled.Ir.p_funcs
      in
      if hints > 0 then QCheck.Test.fail_reportf "%d hints into resident sections" hints;
      let expected = native_value prog in
      Value.equal expected (run_resident prog) && Value.equal expected (run_resident compiled))

(* Loops of the strip-mined shape: a [For] whose body holds a [For]
   starting at the outer induction variable. *)
let strip_mined prog =
  List.fold_left
    (fun acc (_, f) ->
      Ir.fold_ops
        (fun n op ->
          match op with
          | Ir.For { iv; body; _ }
            when List.exists
                   (function Ir.For { lo = Ir.Oreg r; _ } -> r = iv | _ -> false)
                   body ->
            n + 1
          | _ -> n)
        acc f.Ir.f_body)
    0 prog.Ir.p_funcs

(* Iterations per 256-byte line of a stream loop. *)
let per_line r st = 256 / (8 * List.nth r.records st.s_arr * st.s_step)

(* Every site in its own small section, so lines are evicted while the
   loops run: [planned site]'s configuration when it has one, else a
   direct-mapped one of 256-byte lines. *)
let run_sectioned ?(planned = fun _ -> None) compiled =
  let module Rt = Mira_runtime.Runtime in
  let module Section = Mira_cache.Section in
  let rt = Rt.create (Rt.config_default ~local_budget:(16 * 4096) ~far_capacity) in
  let sections =
    List.mapi
      (fun i (site : Ir.site_info) ->
      let cfg =
        match planned site.Ir.si_id with
        | Some cfg ->
          { cfg with Section.sec_id = i + 1; sec_name = site.Ir.si_name; size = 1024 }
        | None ->
          { (Section.config_default ~sec_id:(i + 1) ~name:site.Ir.si_name
               ~line:256 ~size:1024)
            with Section.structure = Section.Direct }
      in
      (cfg, [ site.Ir.si_id ]))
      compiled.Ir.p_sites
  in
  Rt.configure rt { Mira_cache.Manager.sections; per_thread = [] };
  run_on (Rt.memsys rt) compiled

(* The generated streams reach the strip-mined path, in every shape the
   pass must handle, and keep computing the native result both on the
   native memory system and through real sections. *)
let test_strip_mined_random () =
  let rand = Random.State.make [| 16 |] in
  let recipes = QCheck.Gen.generate ~rand ~n:60 gen_recipe in
  let strips = ref 0 in
  List.iter
    (fun r ->
      let prog = build_program r in
      let sites = List.map (fun s -> s.Ir.si_id) prog.Ir.p_sites in
      let plan =
        Pipeline.plan_all ~selected:sites ~lines:(List.map (fun s -> (s, 256)) sites)
      in
      let compiled =
        Pipeline.apply prog { plan with Pipeline.offload = false }
          ~params:Mira_sim.Params.default
      in
      (* [main]'s streams are counted apart from [tabsum]'s loop *)
      let tabsum, rest =
        List.partition (fun (name, _) -> name = "tabsum") compiled.Ir.p_funcs
      in
      let n = strip_mined { compiled with Ir.p_funcs = rest } in
      let want = List.length (List.filter (fun st -> per_line r st >= 2) r.streams) in
      if n < want then
        Alcotest.failf "%s: %d strip-mined loops, want at least %d" (pp_recipe r) n want;
      let n_tab = strip_mined { compiled with Ir.p_funcs = tabsum } in
      if r.tabled <> None && n_tab = 0 then
        Alcotest.failf "%s: the loop through the table is not strip-mined" (pp_recipe r);
      strips := !strips + n + n_tab;
      let expected = native_value prog in
      if not (Value.equal expected (native_value compiled)) then
        Alcotest.failf "%s: compiled result differs from native" (pp_recipe r);
      if not (Value.equal expected (run_sectioned compiled)) then
        Alcotest.failf "%s: sectioned result differs from native" (pp_recipe r))
    recipes;
  let streams = List.concat_map (fun r -> List.map (fun st -> (r, st)) r.streams) recipes in
  let covers what p =
    if not (List.exists (fun (r, st) -> per_line r st >= 2 && p r st) streams) then
      Alcotest.failf "no strip-mined stream with %s" what
  in
  covers "lo <> 0" (fun _ st -> st.s_lo <> 0);
  covers "hi off the chunk grid" (fun r st ->
      st.s_trip > 1 && (stream_hi st - st.s_lo) mod (per_line r st * st.s_step) <> 0);
  List.iter
    (fun step -> covers (Printf.sprintf "step %d" step) (fun _ st -> st.s_step = step))
    [ 1; 2; 3 ];
  covers "iv + c" (fun _ st -> st.s_off > 0);
  List.iter
    (fun words ->
      covers (Printf.sprintf "%d-byte elements" (8 * words)) (fun r st ->
          List.nth r.records st.s_arr = words))
    [ 1; 3; 16 ];
  if not (List.exists (fun r -> r.tabled <> None) recipes) then
    Alcotest.fail "no stream through a base loaded from a table";
  covers "0 trips" (fun _ st -> st.s_trip = 0);
  covers "1 trip" (fun _ st -> st.s_trip = 1);
  Alcotest.(check bool) "strip-mined loops" true (!strips > 0)

(* The generated picks reach payload sections, and running through the
   planner's own payload configurations (lines holding only the touched
   fields, poison elsewhere) computes the native result. *)
let test_payload_random () =
  let module SP = Mira.Section_planner in
  let rand = Random.State.make [| 17 |] in
  let recipes = QCheck.Gen.generate ~rand ~n:30 gen_recipe in
  let payload_sections = ref 0 in
  List.iter
    (fun r ->
      let prog = build_program r in
      let sites = List.map (fun s -> s.Ir.si_id) prog.Ir.p_sites in
      let specs =
        SP.plan ~params:Mira_sim.Params.default
          ~summaries:(Mira.Controller.site_summaries prog sites)
          ~site_bytes:(fun _ -> 0) ~first_id:1
        |> List.filter (fun s -> s.SP.sp_cfg.Mira_cache.Section.payload <> None)
      in
      payload_sections := !payload_sections + List.length specs;
      let planned site =
        List.find_opt (fun s -> List.mem site s.SP.sp_sites) specs
        |> Option.map (fun s -> s.SP.sp_cfg)
      in
      if not (Value.equal (native_value prog) (run_sectioned ~planned prog)) then
        Alcotest.failf "%s: payload-sectioned result differs from native" (pp_recipe r))
    recipes;
  Alcotest.(check bool) "payload sections" true (!payload_sections > 0)

let suite =
  [
    Alcotest.test_case "strip-mined random programs" `Quick test_strip_mined_random;
    Alcotest.test_case "payload sections on random programs" `Quick test_payload_random;
    QCheck_alcotest.to_alcotest qcheck_pipeline_preserves;
    QCheck_alcotest.to_alcotest qcheck_systems_agree;
    QCheck_alcotest.to_alcotest qcheck_controller_preserves;
    QCheck_alcotest.to_alcotest qcheck_resident_preserves;
  ]
