(** The one JSON writer.  Every machine-readable output (the BENCH_*.json
    files, the CLI's [--facts] dump and [batch] report, the trace JSONL
    stream) is built as a {!t} and printed by this module, so all of
    them share one escaper, one float format and one layout. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** printed as [%.6f]; nan and infinities as [null] *)
  | String of string
      (** ["\""] and ["\\"] are backslash-escaped, newline prints as
          ["\\n"], other bytes below 0x20 as ["\\u00XX"]; every other
          byte, UTF-8 included, passes through *)
  | List of t list
  | Obj of (string * t) list  (** fields print in list order *)

val to_line : t -> string
(** Single-line form, [{"k": 1, "l": [2, 3]}], without a trailing
    newline.  JSONL lines use it. *)

val to_document : t -> string
(** File layout, with a trailing newline: each field of a top-level
    object on its own line, each element of a non-empty array field on
    its own line beneath it, and everything deeper in single-line form.
    Any other value prints as {!to_line}. *)
