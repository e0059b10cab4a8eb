(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md section 4 and EXPERIMENTS.md).

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --list       # available targets
     dune exec bench/main.exe -- --only fig5  # one figure
     dune exec bench/main.exe -- --only fig5,fig18,micro
     dune exec bench/main.exe -- --only 'micro:swap hit path'  # one micro case alone *)

let targets =
  Figures.all_figures
  @ [
      ("micro", Micro.run);
      ("micro-sweep", Micro.sweep);
      ("serving", Serving.run);
      ("paper", Figures.paper);
    ]

let usage () =
  print_endline "usage: main.exe [--list | --only <id>[,<id>...] | --only micro:<case>]";
  print_endline "targets:";
  List.iter (fun (name, _) -> Printf.printf "  %s\n" name) targets;
  List.iter (Printf.printf "  micro:%s\n") Micro.case_names

let run_target (name, fn) =
  Printf.printf "\n================ %s ================\n%!" name;
  let t0 = Unix.gettimeofday () in
  (try fn () with e ->
     Printf.printf "!! %s failed: %s\n" name (Printexc.to_string e));
  Printf.printf "[%s took %.1f s wall]\n%!" name (Unix.gettimeofday () -. t0)

let () =
  let args = Array.to_list Sys.argv in
  match args with
  | _ :: "--list" :: _ -> usage ()
  | _ :: "--only" :: id :: _ when String.starts_with ~prefix:"micro:" id ->
    (* a case name may hold commas, so the rest of the id is one name *)
    let case = String.sub id 6 (String.length id - 6) in
    run_target (id, fun () -> Micro.run_case case)
  | _ :: "--only" :: ids :: _ ->
    let wanted = String.split_on_char ',' ids in
    let known = List.filter (fun (n, _) -> List.mem n wanted) targets in
    if known = [] then usage () else List.iter run_target known
  | [ _ ] ->
    print_endline "Mira reproduction: regenerating all evaluation figures.";
    print_endline "(relative numbers; see EXPERIMENTS.md for the mapping)";
    List.iter run_target targets
  | _ -> usage ()
