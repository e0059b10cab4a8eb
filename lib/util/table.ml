type t = { header : string list; mutable rows : string list list }

let create ~header = { header; rows = [] }

let add_row t row = t.rows <- row :: t.rows

let pad width s =
  let len = String.length s in
  if len >= width then s else s ^ String.make (width - len) ' '

let render t =
  let rows = List.rev t.rows in
  let ncols =
    List.fold_left
      (fun acc row -> max acc (List.length row))
      (List.length t.header) rows
  in
  let normalize row =
    let len = List.length row in
    if len >= ncols then row else row @ List.init (ncols - len) (fun _ -> "")
  in
  let header = normalize t.header in
  let rows = List.map normalize rows in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  measure header;
  List.iter measure rows;
  let line row =
    String.concat "  " (List.mapi (fun i cell -> pad widths.(i) cell) row)
  in
  let sep =
    String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  String.concat "\n" (line header :: sep :: List.map line rows)

let print t =
  print_string (render t);
  print_newline ()
