type interval = { first_phase : int; last_phase : int }

let rec loop_sites (l : Pattern.loop_info) =
  List.map (fun (a : Pattern.access) -> a.Pattern.a_site) l.Pattern.l_accesses
  @ List.concat_map loop_sites l.Pattern.l_children

let phases_count (r : Pattern.result) = max 1 (List.length r.Pattern.r_loops)

let site_phases (r : Pattern.result) =
  let n = List.length r.Pattern.r_loops in
  let table = Hashtbl.create 16 in
  List.iteri
    (fun phase l ->
      List.iter
        (fun site ->
          match Hashtbl.find_opt table site with
          | None -> Hashtbl.replace table site { first_phase = phase; last_phase = phase }
          | Some iv -> Hashtbl.replace table site { iv with last_phase = phase })
        (List.sort_uniq compare (loop_sites l)))
    r.Pattern.r_loops;
  (* Sites accessed but never inside a top-level loop span everything. *)
  List.iter
    (fun site ->
      if not (Hashtbl.mem table site) then
        Hashtbl.replace table site { first_phase = 0; last_phase = max 0 (n - 1) })
    r.Pattern.r_sites;
  Hashtbl.fold (fun site iv acc -> (site, iv) :: acc) table []
  |> List.sort compare

let dead_after r ~phase =
  site_phases r
  |> List.filter (fun (_, iv) -> iv.last_phase = phase)
  |> List.map fst
