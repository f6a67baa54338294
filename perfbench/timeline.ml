type sample = { raw : float; k_before : float; k_after : float; paired : float }

type span = {
  sp_id : int;
  sp_parent : int;  (** -1 for an item *)
  sp_name : string;
  sp_round : int;
  sp_t0 : float;
  sp_t1 : float;
}

type t = {
  mutable last_k : float;
  mutable round : int;
  mutable tracing : bool;
  mutable kernels : float list;
  order : (string, unit) Hashtbl.t;
  mutable keys : string list;  (** first-seen order, reversed *)
  data : (string, (int * sample) list) Hashtbl.t;  (** newest first *)
  traced_rounds : (int, bool) Hashtbl.t;
  mutable spans : span list;  (** newest first *)
  mutable next_span : int;
}

type step = { step : 'a. string -> (unit -> 'a) -> 'a }

let kernel tl =
  let k = Kernel.time () in
  tl.kernels <- k :: tl.kernels;
  k

let create () =
  let tl =
    {
      last_k = 0.;
      round = 0;
      tracing = false;
      kernels = [];
      order = Hashtbl.create 256;
      keys = [];
      data = Hashtbl.create 256;
      traced_rounds = Hashtbl.create 16;
      spans = [];
      next_span = 0;
    }
  in
  tl.last_k <- kernel tl;
  tl

let set_tracing tl b = tl.tracing <- b
let rounds tl = tl.round

let new_round tl =
  Hashtbl.replace tl.traced_rounds tl.round tl.tracing;
  tl.round <- tl.round + 1

let add_span tl ~parent name t0 t1 =
  let id = tl.next_span in
  tl.next_span <- id + 1;
  tl.spans <-
    { sp_id = id; sp_parent = parent; sp_name = name; sp_round = tl.round;
      sp_t0 = t0; sp_t1 = t1 }
    :: tl.spans;
  id

let item tl name f =
  (* A key stepped twice in one item adds up: one sample per round. *)
  let steps = ref [] and collections = ref [] in
  let step key g =
    (* Charge a step for the collections its own allocation forces, not
       for the garbage earlier steps left in the minor heap.  Steps of a
       fuzz program take well under a millisecond, and where a collection
       happened to land otherwise set most of their spread. *)
    let g0 = Kernel.now () in
    Gc.minor ();
    let t0 = Kernel.now () in
    let r = g () in
    let t1 = Kernel.now () in
    steps := (key, t0, t1) :: !steps;
    collections := (g0, t0) :: !collections;
    r
  in
  let merged steps =
    List.fold_left
      (fun acc (key, s0, s1) ->
        match List.assoc_opt key acc with
        | Some d -> (key, d +. (s1 -. s0)) :: List.remove_assoc key acc
        | None -> (key, s1 -. s0) :: acc)
      [] steps
    |> List.rev
  in
  let t0 = Kernel.now () in
  let r = f { step } in
  let t1 = Kernel.now () in
  let k_before = tl.last_k in
  let k_after = kernel tl in
  tl.last_k <- k_after;
  let steps = List.rev !steps in
  List.iter
    (fun (key, raw) ->
      let key = name ^ "/" ^ key in
      let s =
        { raw; k_before; k_after;
          paired = Pair.paired ~nominal:Kernel.nominal_s ~raw ~k_before ~k_after }
      in
      if not (Hashtbl.mem tl.order key) then begin
        Hashtbl.replace tl.order key ();
        tl.keys <- key :: tl.keys
      end;
      Hashtbl.replace tl.data key
        ((tl.round, s) :: Option.value ~default:[] (Hashtbl.find_opt tl.data key)))
    (merged steps);
  if tl.tracing then begin
    let parent = add_span tl ~parent:(-1) name t0 t1 in
    List.iter (fun (key, s0, s1) -> ignore (add_span tl ~parent key s0 s1)) steps;
    List.iter
      (fun (s0, s1) -> ignore (add_span tl ~parent "bench.gc_minor" s0 s1))
      (List.rev !collections)
  end;
  r

let samples tl =
  List.rev_map
    (fun key -> (key, List.rev_map snd (Hashtbl.find tl.data key)))
    tl.keys

let value ~raw s = if raw then s.raw else s.paired

let estimate ?(raw = false) tl key =
  match Hashtbl.find_opt tl.data key with
  | None | Some [] -> 0.
  | Some l -> Pair.median (List.map (fun (_, s) -> value ~raw s) l)

let round_totals ?(raw = false) tl ~traced =
  let sums = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ l ->
      List.iter
        (fun (r, s) ->
          Hashtbl.replace sums r
            (value ~raw s +. Option.value ~default:0. (Hashtbl.find_opt sums r)))
        l)
    tl.data;
  Hashtbl.fold
    (fun r tr acc ->
      if tr = traced then
        Option.value ~default:0. (Hashtbl.find_opt sums r) :: acc
      else acc)
    tl.traced_rounds []

let kernels tl = tl.kernels

let spans_accounted tl ~min_wall =
  let children = Hashtbl.create 256 in
  List.iter
    (fun sp ->
      if sp.sp_parent >= 0 then
        Hashtbl.replace children sp.sp_parent
          (sp.sp_t1 -. sp.sp_t0
          +. Option.value ~default:0. (Hashtbl.find_opt children sp.sp_parent)))
    tl.spans;
  List.fold_left
    (fun acc sp ->
      let wall = sp.sp_t1 -. sp.sp_t0 in
      if sp.sp_parent < 0 && wall >= min_wall then
        let covered =
          Option.value ~default:0. (Hashtbl.find_opt children sp.sp_id)
        in
        Float.min acc (covered /. wall)
      else acc)
    1. tl.spans

let write_spans tl path =
  let oc = open_out path in
  List.iter
    (fun sp ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"round\":%d,\"start_s\":%.9f,\"end_s\":%.9f}\n"
        sp.sp_id sp.sp_parent sp.sp_name sp.sp_round sp.sp_t0 sp.sp_t1)
    (List.rev tl.spans);
  close_out oc
