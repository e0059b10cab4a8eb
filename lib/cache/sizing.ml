type candidate = {
  cand_id : int;
  options : (int * float) array;
  aborted : int list;
}

type solution = { assignment : (int * int) list; total_overhead : float }

let solve_brute ~budget candidates =
  let best = ref None in
  let rec go acc used total = function
    | [] ->
      if used <= budget then begin
        match !best with
        | Some (_, best_total) when best_total <= total -> ()
        | _ -> best := Some (List.rev acc, total)
      end
    | c :: rest ->
      Array.iter
        (fun (size, overhead) ->
          go ((c.cand_id, size) :: acc) (used + size) (total +. overhead) rest)
        c.options
  in
  go [] 0 0.0 candidates;
  match !best with
  | Some (assignment, total_overhead) -> Ok { assignment; total_overhead }
  | None -> Error "no feasible section size assignment fits the budget"

(* Branch and bound: identical search ordered by overhead with a
   lower-bound prune (sum of per-candidate minima of the remainder).
   Among equal overheads a measured option is tried before an aborted
   one, and only a strictly lower total replaces the best, so a tie goes
   to the measured option. *)
let solve ~budget candidates =
  let sorted_opts c =
    let opts = Array.copy c.options in
    let key (size, overhead) = (overhead, List.mem size c.aborted) in
    Array.sort (fun a b -> compare (key a) (key b)) opts;
    opts
  in
  let cands = List.map (fun c -> (c, sorted_opts c)) candidates in
  let rec min_rest = function
    | [] -> 0.0
    | (_, opts) :: rest ->
      (if Array.length opts = 0 then 0.0 else snd opts.(0)) +. min_rest rest
  in
  let best_total = ref infinity in
  let best = ref None in
  let rec go acc used total = function
    | [] ->
      if total < !best_total then begin
        best_total := total;
        best := Some (List.rev acc)
      end
    | ((c, opts) :: rest : (candidate * (int * float) array) list) ->
      if total +. min_rest ((c, opts) :: rest) >= !best_total then ()
      else
        Array.iter
          (fun (size, overhead) ->
            (* Sizes are non-negative, so an exceeded budget can only
               stay exceeded: prune infeasible prefixes. *)
            if used + size <= budget then
              go ((c.cand_id, size) :: acc) (used + size) (total +. overhead) rest)
          opts
  in
  go [] 0 0.0 cands;
  match !best with
  | Some assignment ->
    (* Restore input order for a stable API. *)
    let in_order =
      List.map
        (fun c -> (c.cand_id, List.assoc c.cand_id assignment))
        candidates
    in
    Ok { assignment = in_order; total_overhead = !best_total }
  | None -> Error "no feasible section size assignment fits the budget"
