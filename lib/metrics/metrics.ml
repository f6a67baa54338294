(* A zero or negative cell would feed [log] and poison the whole summary
   row with [nan]/[0.]; such values are measurement failures, so they are
   skipped (with a warning on stderr) rather than propagated. *)
let geomean xs =
  let pos, bad = List.partition (fun x -> x > 0.0) xs in
  if bad <> [] then
    Printf.eprintf "warning: geomean: skipping %d non-positive value(s)\n%!"
      (List.length bad);
  match pos with
  | [] -> 0.0
  | pos ->
    let n = float_of_int (List.length pos) in
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 pos /. n)

module Counters = struct
  type t = {
    mutable c_module_lookups : int;
    mutable c_lookup_probes : int;
    mutable c_flush_visits : int;
    mutable c_flush_drops : int;
    mutable c_san_checks : int;
    mutable c_san_elide_frame : int;
    mutable c_san_elide_dom : int;
    mutable c_san_trace_elide_dom : int;
    mutable c_san_trace_elide_streak : int;
    mutable c_san_trace_elide_ind : int;
    mutable c_ir_store_hits : int;
    mutable c_ir_store_misses : int;
    mutable c_ir_store_evicts : int;
    mutable c_ir_store_corrupt : int;
  }

  let fresh () =
    {
      c_module_lookups = 0;
      c_lookup_probes = 0;
      c_flush_visits = 0;
      c_flush_drops = 0;
      c_san_checks = 0;
      c_san_elide_frame = 0;
      c_san_elide_dom = 0;
      c_san_trace_elide_dom = 0;
      c_san_trace_elide_streak = 0;
      c_san_trace_elide_ind = 0;
      c_ir_store_hits = 0;
      c_ir_store_misses = 0;
      c_ir_store_evicts = 0;
      c_ir_store_corrupt = 0;
    }

  (* One instance per domain: concurrent driver runs on separate domains
     each count into their own record, so counters never race and a
     snapshot taken inside a pool job describes that job alone. *)
  let key = Domain.DLS.new_key fresh

  let current () = Domain.DLS.get key

  let reset () =
    let c = current () in
    c.c_module_lookups <- 0;
    c.c_lookup_probes <- 0;
    c.c_flush_visits <- 0;
    c.c_flush_drops <- 0;
    c.c_san_checks <- 0;
    c.c_san_elide_frame <- 0;
    c.c_san_elide_dom <- 0;
    c.c_san_trace_elide_dom <- 0;
    c.c_san_trace_elide_streak <- 0;
    c.c_san_trace_elide_ind <- 0;
    c.c_ir_store_hits <- 0;
    c.c_ir_store_misses <- 0;
    c.c_ir_store_evicts <- 0;
    c.c_ir_store_corrupt <- 0

  let snapshot_of c =
    [
      ("module_lookups", c.c_module_lookups);
      ("lookup_probes", c.c_lookup_probes);
      ("flush_visits", c.c_flush_visits);
      ("flush_drops", c.c_flush_drops);
      ("san_checks", c.c_san_checks);
      ("san_elide_frame", c.c_san_elide_frame);
      ("san_elide_dom", c.c_san_elide_dom);
      ("san_trace_elide_dom", c.c_san_trace_elide_dom);
      (* canary dedupe is gone; perfbench still reads this key by name *)
      ("san_trace_elide_canary", 0);
      ("san_trace_elide_streak", c.c_san_trace_elide_streak);
      ("san_trace_elide_ind", c.c_san_trace_elide_ind);
      ("ir_store_hits", c.c_ir_store_hits);
      ("ir_store_misses", c.c_ir_store_misses);
      ("ir_store_evicts", c.c_ir_store_evicts);
      ("ir_store_corrupt", c.c_ir_store_corrupt);
    ]

  let snapshot () = snapshot_of (current ())

  let merge snaps =
    match snaps with
    | [] -> snapshot_of (fresh ())
    | first :: _ ->
      List.map
        (fun (name, _) ->
          ( name,
            List.fold_left
              (fun acc snap ->
                acc + Option.value ~default:0 (List.assoc_opt name snap))
              0 snaps ))
        first
end

type cell = Value of float | Fail of string

type table = {
  t_title : string;
  t_unit : string;
  t_cols : string list;
  t_rows : (string * cell list) list;
}

let value_exn = function Value v -> Some v | Fail _ -> None

let col_values t k =
  List.filter_map
    (fun (_, cells) ->
      match List.nth_opt cells k with Some (Value v) -> Some v | _ -> None)
    t.t_rows

let geomean_row t =
  List.mapi
    (fun k _ ->
      match col_values t k with [] -> None | vs -> Some (geomean vs))
    t.t_cols

let all_values cells =
  List.for_all (function Value _ -> true | Fail _ -> false) cells

let geomean_x_row t =
  let complete = List.filter (fun (_, cells) -> all_values cells) t.t_rows in
  List.mapi
    (fun k _ ->
      let vs =
        List.filter_map
          (fun (_, cells) ->
            match List.nth_opt cells k with Some (Value v) -> Some v | _ -> None)
          complete
      in
      match vs with [] -> None | vs -> Some (geomean vs))
    t.t_cols

let print t =
  let w_name =
    List.fold_left (fun acc (n, _) -> max acc (String.length n)) 10 t.t_rows
  in
  let w_col =
    List.fold_left (fun acc c -> max acc (String.length c + 2)) 14 t.t_cols
  in
  Printf.printf "\n== %s ==\n(%s)\n" t.t_title t.t_unit;
  Printf.printf "%-*s" (w_name + 2) "";
  List.iter (fun c -> Printf.printf "%*s" w_col c) t.t_cols;
  print_newline ();
  List.iter
    (fun (name, cells) ->
      Printf.printf "%-*s" (w_name + 2) name;
      List.iter
        (fun c ->
          match c with
          | Value v -> Printf.printf "%*.2f" w_col v
          | Fail _ -> Printf.printf "%*s" w_col "x")
        cells;
      print_newline ())
    t.t_rows;
  let print_summary label row =
    Printf.printf "%-*s" (w_name + 2) label;
    List.iter
      (fun v ->
        match v with
        | Some v -> Printf.printf "%*.2f" w_col v
        | None -> Printf.printf "%*s" w_col "-")
      row;
    print_newline ()
  in
  print_summary "geomean" (geomean_row t);
  let any_fail =
    List.exists (fun (_, cells) -> not (all_values cells)) t.t_rows
  in
  if any_fail then print_summary "geomean-x" (geomean_x_row t)

let print_kv title kvs =
  Printf.printf "\n== %s ==\n" title;
  List.iter (fun (k, v) -> Printf.printf "  %-28s %s\n" k v) kvs
