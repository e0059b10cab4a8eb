type 'a t = {
  tbl : (int, 'a) Hashtbl.t;
  mutable dense : 'a option array;  (* [Some v] iff key [i] maps to [v] *)
}

(* Thread ids are small; anything at or past this stays table-only. *)
let dense_limit = 4096

let create n = { tbl = Hashtbl.create n; dense = [||] }

let find_opt t id =
  if id >= 0 && id < Array.length t.dense then t.dense.(id)
  else if id >= 0 && id < dense_limit then None
  else Hashtbl.find_opt t.tbl id

let replace t id v =
  Hashtbl.replace t.tbl id v;
  if id >= 0 && id < dense_limit then begin
    let n = Array.length t.dense in
    if id >= n then begin
      let dense = Array.make (min dense_limit (max 8 (max (id + 1) (2 * n)))) None in
      Array.blit t.dense 0 dense 0 n;
      t.dense <- dense
    end;
    t.dense.(id) <- Some v
  end

let fold f t acc = Hashtbl.fold f t.tbl acc
let iter f t = Hashtbl.iter f t.tbl

let reset t =
  Hashtbl.reset t.tbl;
  t.dense <- [||]
