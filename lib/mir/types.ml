type ty =
  | Unit
  | Bool
  | I64
  | F64
  | Ptr of ty
  | Struct of struct_def

and struct_def = { s_name : string; s_fields : (string * ty) list }

let rec size_of = function
  | Unit -> 0
  | Bool | I64 | F64 | Ptr _ -> 8
  | Struct { s_fields; _ } ->
    List.fold_left (fun acc (_, ty) -> acc + size_of ty) 0 s_fields

let field_offset def name =
  let rec go off = function
    | [] -> raise Not_found
    | (f, ty) :: rest -> if String.equal f name then off else go (off + size_of ty) rest
  in
  go 0 def.s_fields

let field_index def name =
  let rec go i = function
    | [] -> raise Not_found
    | (f, _) :: rest -> if String.equal f name then i else go (i + 1) rest
  in
  go 0 def.s_fields

let struct_ name fields = Struct { s_name = name; s_fields = fields }

let rec pp ppf = function
  | Unit -> Format.pp_print_string ppf "unit"
  | Bool -> Format.pp_print_string ppf "i1"
  | I64 -> Format.pp_print_string ppf "i64"
  | F64 -> Format.pp_print_string ppf "f64"
  | Ptr ty -> Format.fprintf ppf "ptr<%a>" pp ty
  | Struct { s_name; _ } -> Format.fprintf ppf "struct.%s" s_name

(* Structs compare nominally (by name): recursive types like linked
   nodes would make a structural comparison diverge. *)
let rec equal a b =
  match (a, b) with
  | Unit, Unit | Bool, Bool | I64, I64 | F64, F64 -> true
  | Ptr a, Ptr b -> equal a b
  | Struct a, Struct b -> String.equal a.s_name b.s_name
  | (Unit | Bool | I64 | F64 | Ptr _ | Struct _), _ -> false
