type t =
  | Affine of { c0 : int64; terms : (int * int64) list }
  | Loaded of int
  | Unknown

let const c = Affine { c0 = c; terms = [] }

let normalize terms =
  terms
  |> List.filter (fun (_, c) -> c <> 0L)
  |> List.sort (fun (d1, _) (d2, _) -> compare d1 d2)

let merge_terms f a b =
  let rec go a b =
    match (a, b) with
    | [], rest -> List.map (fun (d, c) -> (d, f 0L c)) rest
    | rest, [] -> rest
    | (da, ca) :: ra, (db, cb) :: rb ->
      if da = db then (da, f ca cb) :: go ra rb
      else if da < db then (da, ca) :: go ra ((db, cb) :: rb)
      else (db, f 0L cb) :: go ((da, ca) :: ra) rb
  in
  normalize (go a b)

let add a b =
  match (a, b) with
  | Affine x, Affine y ->
    Affine { c0 = Int64.add x.c0 y.c0; terms = merge_terms Int64.add x.terms y.terms }
  | (Loaded _ | Unknown | Affine _), _ -> Unknown

let neg = function
  | Affine { c0; terms } ->
    Affine { c0 = Int64.neg c0; terms = List.map (fun (d, c) -> (d, Int64.neg c)) terms }
  | Loaded _ | Unknown -> Unknown

let sub a b = add a (neg b)

let scale k = function
  | Affine { c0; terms } ->
    Affine
      { c0 = Int64.mul k c0;
        terms = normalize (List.map (fun (d, c) -> (d, Int64.mul k c)) terms) }
  | Loaded _ | Unknown -> Unknown

let const_value = function
  | Affine { c0; terms = [] } -> Some c0
  | Affine _ | Loaded _ | Unknown -> None

let mul a b =
  match (const_value a, const_value b) with
  | Some ka, _ -> scale ka b
  | _, Some kb -> scale kb a
  | None, None -> Unknown

let iv ~depth ~lo ~step =
  let step_c = match const_value step with Some s -> s | None -> 1L in
  let base = match const_value lo with Some c -> c | None -> 0L in
  Affine { c0 = base; terms = [ (depth, step_c) ] }

let coeff t ~depth =
  match t with
  | Affine { terms; _ } ->
    Some (match List.assoc_opt depth terms with Some c -> c | None -> 0L)
  | Loaded _ | Unknown -> None

let innermost_stride = coeff

let depends_on t ~depth =
  match t with
  | Affine { terms; _ } -> List.mem_assoc depth terms
  | Loaded _ -> false
  | Unknown -> true

let equal a b =
  match (a, b) with
  | Affine x, Affine y -> x.c0 = y.c0 && x.terms = y.terms
  | Loaded x, Loaded y -> x = y
  | Unknown, Unknown -> true
  | (Affine _ | Loaded _ | Unknown), _ -> false
