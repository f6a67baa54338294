(* The one JSON writer: every BENCH file, the CLI's reports and the trace
   JSONL stream are built as a [t] and printed here, so there is one
   escaper, one float format and one layout. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_line = function
  | Null -> "null"
  | Bool v -> string_of_bool v
  | Int v -> string_of_int v
  | Float v -> if Float.is_finite v then Printf.sprintf "%.6f" v else "null"
  | String s -> "\"" ^ escape s ^ "\""
  | List vs -> "[" ^ String.concat ", " (List.map to_line vs) ^ "]"
  | Obj kvs -> "{" ^ String.concat ", " (List.map (field to_line) kvs) ^ "}"

and field value (k, v) = to_line (String k) ^ ": " ^ value v

(* A top-level object puts each field on its own line, and each element
   of a non-empty array field on its own line beneath it; everything
   deeper stays on one line. *)
let to_document = function
  | Obj (_ :: _ as kvs) ->
    let top = function
      | List (_ :: _ as vs) ->
        "[\n    " ^ String.concat ",\n    " (List.map to_line vs) ^ "\n  ]"
      | v -> to_line v
    in
    "{\n  " ^ String.concat ",\n  " (List.map (field top) kvs) ^ "\n}\n"
  | v -> to_line v ^ "\n"
