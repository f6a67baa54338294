(* Structured tracing & profiling: a fixed-capacity ring buffer of typed
   runtime events plus span-style phase timers with simulated-cycle
   attribution.

   The layer is a domain-local sink (like [Metrics.Counters]) so emit
   points anywhere in the runtime can reach it without threading a handle
   through every API, while concurrent driver runs on a [Jt_pool] each
   capture their own stream.  The contract with emitters is:

     if Jt_trace.Trace.is_enabled () then
       Jt_trace.Trace.emit (Jt_trace.Trace.Ibl_hit { site; target })

   i.e. the disabled path costs a DLS load plus one branch and never
   allocates (the event is constructed inside the guard).  Enabling
   tracing must not perturb the simulated machine: emitters only observe,
   they never charge cycles or touch guest state, so status, output,
   icount, cycles and violations are bit-identical with tracing on or
   off (asserted by `bench trace-overhead`). *)

type origin = Static | Dynamic

type phase = Analyze | Rewrite | Load | Run

let phase_name = function
  | Analyze -> "analyze"
  | Rewrite -> "rewrite"
  | Load -> "load"
  | Run -> "run"

let origin_name = function Static -> "static" | Dynamic -> "dynamic"

type event =
  | Block_translate of { pc : int; insns : int; origin : origin }
  | Block_exec of { pc : int }
  | Chain_link of { from_pc : int; to_pc : int }
  | Chain_sever of { from_pc : int; to_pc : int }
  | Ibl_hit of { site : int; target : int }
  | Ibl_miss of { site : int; target : int }
  | Trace_build of { head : int; blocks : int }
  | Trace_teardown of { head : int }
  | Trace_elide of {
      head : int;  (** head address of the trace the decision belongs to *)
      insn : int;  (** address of the access whose check the trace elides *)
      reason : string;
          (** ["trace-dom"] (dominated within the trace by an identical
              check), ["trace-streak"] (loop-invariant, justified by the
              trace's own back-edge) or ["trace-ind"] (affine in a
              counted loop's induction register, covered by the endpoint
              checks run at streak onset) *)
      witness : int;
          (** address of the earlier access whose check subsumes this
              one (for ["trace-ind"], the loop-head compare whose bound
              the guard reads); [0] if unknown *)
    }
  | Flush_range of { start : int; len : int }
  | Module_load of { name : string; base : int }
  | Module_unload of { name : string }
  | Dlopen of { name : string; handle : int }
  | Dlclose of { name : string; ok : bool }
  | Plt_resolve of { caller : int; target : int }
  | Shadow_poison of { addr : int; len : int; state : int }
  | Shadow_unpoison of { addr : int; len : int }
  | Check_elide of {
      insn : int;  (** address of the access whose check was elided *)
      fn : int;  (** entry address of the containing function *)
      reason : string;  (** "frame" or "dom" *)
      witness : int;  (** dominating checked access for "dom", else 0 *)
    }
  | Violation of {
      kind : string;
      addr : int;
      pc : int;
      vmodule : string;  (** module containing the faulting pc, or "?" *)
      origin : origin;  (** provenance of the executing block *)
    }
  | Cfi_table of { name : string; entries : int }
  | Store_hit of { name : string; source : string }
      (* ["mem"] (in-memory LRU) or ["disk"] *)
  | Store_miss of { name : string }
  | Store_evict of { name : string }
  | Store_corrupt of { name : string; why : string }
  | Phase_begin of { phase : phase }
  | Phase_end of { phase : phase; host_s : float; cycles : int }

(* ---- event kinds ---- *)

let kind_names =
  [| "block_translate"; "block_exec"; "chain_link"; "chain_sever"; "ibl_hit";
     "ibl_miss"; "trace_build"; "trace_teardown"; "trace_elide"; "flush_range";
     "module_load"; "module_unload"; "dlopen"; "dlclose"; "plt_resolve";
     "shadow_poison"; "shadow_unpoison"; "check_elide"; "violation";
     "cfi_table"; "store_hit"; "store_miss"; "store_evict"; "store_corrupt";
     "phase_begin"; "phase_end" |]

let kind_index = function
  | Block_translate _ -> 0
  | Block_exec _ -> 1
  | Chain_link _ -> 2
  | Chain_sever _ -> 3
  | Ibl_hit _ -> 4
  | Ibl_miss _ -> 5
  | Trace_build _ -> 6
  | Trace_teardown _ -> 7
  | Trace_elide _ -> 8
  | Flush_range _ -> 9
  | Module_load _ -> 10
  | Module_unload _ -> 11
  | Dlopen _ -> 12
  | Dlclose _ -> 13
  | Plt_resolve _ -> 14
  | Shadow_poison _ -> 15
  | Shadow_unpoison _ -> 16
  | Check_elide _ -> 17
  | Violation _ -> 18
  | Cfi_table _ -> 19
  | Store_hit _ -> 20
  | Store_miss _ -> 21
  | Store_evict _ -> 22
  | Store_corrupt _ -> 23
  | Phase_begin _ -> 24
  | Phase_end _ -> 25

let kind_name ev = kind_names.(kind_index ev)

(* ---- ring buffer ---- *)

let default_capacity = 65536

let dummy = Block_exec { pc = 0 }

type ring = {
  buf : event array;
  cap : int;
  mutable total : int;  (** events ever emitted; head = total mod cap *)
}

(* ---- phase accumulators ---- *)

type phase_tot = {
  mutable pt_host : float;  (** accumulated wall-clock seconds *)
  mutable pt_cycles : int;  (** attributed simulated cycles *)
  mutable pt_count : int;  (** completed spans *)
  mutable pt_open : float;  (** start time of the open span, or nan *)
  mutable pt_open_cycles : int;  (** cycles attributed before the span closed *)
}

let phases = [ Analyze; Rewrite; Load; Run ]

let phase_index = function Analyze -> 0 | Rewrite -> 1 | Load -> 2 | Run -> 3

(* ---- domain-local trace state ----

   Everything mutable — the on/off flag, the ring, the exec-origin
   latch, the phase accumulators — lives in one record stored in
   [Domain.DLS], so two driver runs on different pool domains capture
   disjoint streams instead of silently interleaving into one ring. *)

type state = {
  mutable s_enabled : bool;
  mutable s_ring : ring option;
  mutable s_exec_origin : origin;
      (** provenance of the currently executing translated block,
          maintained by the DBT so violation reports (surfacing in
          lib/vm, far below the DBT) can carry static-vs-dynamic origin;
          only updated while tracing is enabled *)
  s_totals : phase_tot array;
  s_kinds : int array;
      (** events emitted per kind since the last [clear], counted at
          emit time so ring overflow loses none *)
}

let fresh_state () =
  {
    s_enabled = false;
    s_ring = None;
    s_exec_origin = Dynamic;
    s_totals =
      Array.init 4 (fun _ ->
          { pt_host = 0.0; pt_cycles = 0; pt_count = 0; pt_open = Float.nan;
            pt_open_cycles = 0 });
    s_kinds = Array.make (Array.length kind_names) 0;
  }

let key = Domain.DLS.new_key fresh_state

let state () = Domain.DLS.get key

let is_enabled () = (state ()).s_enabled

let exec_origin () = (state ()).s_exec_origin

let set_exec_origin o = (state ()).s_exec_origin <- o

(* Emit sites guard with [if is_enabled () then emit ...] so the
   disabled path never even constructs the event; the re-check here
   makes a stray unguarded [emit] after [disable] harmless too. *)
let emit ev =
  let st = state () in
  if st.s_enabled then
    match st.s_ring with
    | None -> ()
    | Some r ->
      r.buf.(r.total mod r.cap) <- ev;
      r.total <- r.total + 1;
      let k = kind_index ev in
      st.s_kinds.(k) <- st.s_kinds.(k) + 1

(* ---- phase spans ---- *)

let phase_begin p =
  let st = state () in
  if st.s_enabled then begin
    let t = st.s_totals.(phase_index p) in
    t.pt_open <- Sys.time ();
    t.pt_open_cycles <- 0;
    emit (Phase_begin { phase = p })
  end

let phase_add_cycles p n =
  let st = state () in
  if st.s_enabled then begin
    let t = st.s_totals.(phase_index p) in
    t.pt_cycles <- t.pt_cycles + n;
    if not (Float.is_nan t.pt_open) then t.pt_open_cycles <- t.pt_open_cycles + n
  end

let phase_end p =
  let st = state () in
  if st.s_enabled then begin
    let t = st.s_totals.(phase_index p) in
    let host_s =
      if Float.is_nan t.pt_open then 0.0 else Sys.time () -. t.pt_open
    in
    t.pt_host <- t.pt_host +. host_s;
    t.pt_count <- t.pt_count + 1;
    emit (Phase_end { phase = p; host_s; cycles = t.pt_open_cycles });
    t.pt_open <- Float.nan;
    t.pt_open_cycles <- 0
  end

let in_phase p f =
  if not (is_enabled ()) then f ()
  else begin
    phase_begin p;
    match f () with
    | v ->
      phase_end p;
      v
    | exception e ->
      phase_end p;
      raise e
  end

type phase_summary = {
  ps_phase : phase;
  ps_spans : int;
  ps_host_s : float;
  ps_cycles : int;
}

let phase_totals () =
  let st = state () in
  List.map
    (fun p ->
      let t = st.s_totals.(phase_index p) in
      { ps_phase = p; ps_spans = t.pt_count; ps_host_s = t.pt_host; ps_cycles = t.pt_cycles })
    phases

(* ---- lifecycle ---- *)

let clear () =
  let st = state () in
  (match st.s_ring with Some r -> r.total <- 0 | None -> ());
  Array.iter
    (fun t ->
      t.pt_host <- 0.0;
      t.pt_cycles <- 0;
      t.pt_count <- 0;
      t.pt_open <- Float.nan;
      t.pt_open_cycles <- 0)
    st.s_totals;
  Array.fill st.s_kinds 0 (Array.length st.s_kinds) 0;
  st.s_exec_origin <- Dynamic

let enable ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.enable: capacity must be positive";
  let st = state () in
  (match st.s_ring with
  | Some r when r.cap = capacity -> ()
  | Some _ | None ->
    st.s_ring <- Some { buf = Array.make capacity dummy; cap = capacity; total = 0 });
  clear ();
  st.s_enabled <- true

let disable () = (state ()).s_enabled <- false

let emitted () = match (state ()).s_ring with Some r -> r.total | None -> 0

let dropped () =
  match (state ()).s_ring with Some r -> max 0 (r.total - r.cap) | None -> 0

let kind_counts () =
  let kinds = (state ()).s_kinds in
  List.filter_map
    (fun k -> if kinds.(k) > 0 then Some (kind_names.(k), kinds.(k)) else None)
    (List.init (Array.length kinds) Fun.id)
  |> List.sort compare

let events () =
  match (state ()).s_ring with
  | None -> []
  | Some r ->
    let n = min r.total r.cap in
    let first = r.total - n in
    List.init n (fun i -> r.buf.((first + i) mod r.cap))

(* ---- snapshots: carrying a domain's capture back to an aggregator ---- *)

type snapshot = {
  sn_events : event list;
  sn_emitted : int;
  sn_dropped : int;
  sn_phases : phase_summary list;
}

let snapshot () =
  {
    sn_events = events ();
    sn_emitted = emitted ();
    sn_dropped = dropped ();
    sn_phases = phase_totals ();
  }

let merge snaps =
  let zero =
    List.map
      (fun p -> { ps_phase = p; ps_spans = 0; ps_host_s = 0.0; ps_cycles = 0 })
      phases
  in
  let add_phases acc ps =
    List.map2
      (fun a b ->
        { a with
          ps_spans = a.ps_spans + b.ps_spans;
          ps_host_s = a.ps_host_s +. b.ps_host_s;
          ps_cycles = a.ps_cycles + b.ps_cycles })
      acc ps
  in
  List.fold_left
    (fun acc sn ->
      {
        sn_events = acc.sn_events @ sn.sn_events;
        sn_emitted = acc.sn_emitted + sn.sn_emitted;
        sn_dropped = acc.sn_dropped + sn.sn_dropped;
        sn_phases = add_phases acc.sn_phases sn.sn_phases;
      })
    { sn_events = []; sn_emitted = 0; sn_dropped = 0; sn_phases = zero }
    snaps

(* ---- JSONL export / import ---- *)

let json_escape s =
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

let event_to_json ev =
  let obj fields =
    "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fields) ^ "}"
  in
  let i v = string_of_int v in
  let s v = "\"" ^ json_escape v ^ "\"" in
  let b v = if v then "true" else "false" in
  match ev with
  | Block_translate { pc; insns; origin } ->
    obj [ ("ev", s "block_translate"); ("pc", i pc); ("insns", i insns); ("origin", s (origin_name origin)) ]
  | Block_exec { pc } -> obj [ ("ev", s "block_exec"); ("pc", i pc) ]
  | Chain_link { from_pc; to_pc } ->
    obj [ ("ev", s "chain_link"); ("from", i from_pc); ("to", i to_pc) ]
  | Chain_sever { from_pc; to_pc } ->
    obj [ ("ev", s "chain_sever"); ("from", i from_pc); ("to", i to_pc) ]
  | Ibl_hit { site; target } -> obj [ ("ev", s "ibl_hit"); ("site", i site); ("target", i target) ]
  | Ibl_miss { site; target } -> obj [ ("ev", s "ibl_miss"); ("site", i site); ("target", i target) ]
  | Trace_build { head; blocks } ->
    obj [ ("ev", s "trace_build"); ("head", i head); ("blocks", i blocks) ]
  | Trace_teardown { head } -> obj [ ("ev", s "trace_teardown"); ("head", i head) ]
  | Trace_elide { head; insn; reason; witness } ->
    obj
      [ ("ev", s "trace_elide"); ("head", i head); ("insn", i insn);
        ("reason", s reason); ("witness", i witness) ]
  | Flush_range { start; len } -> obj [ ("ev", s "flush_range"); ("start", i start); ("len", i len) ]
  | Module_load { name; base } -> obj [ ("ev", s "module_load"); ("name", s name); ("base", i base) ]
  | Module_unload { name } -> obj [ ("ev", s "module_unload"); ("name", s name) ]
  | Dlopen { name; handle } -> obj [ ("ev", s "dlopen"); ("name", s name); ("handle", i handle) ]
  | Dlclose { name; ok } -> obj [ ("ev", s "dlclose"); ("name", s name); ("ok", b ok) ]
  | Plt_resolve { caller; target } ->
    obj [ ("ev", s "plt_resolve"); ("caller", i caller); ("target", i target) ]
  | Shadow_poison { addr; len; state } ->
    obj [ ("ev", s "shadow_poison"); ("addr", i addr); ("len", i len); ("state", i state) ]
  | Shadow_unpoison { addr; len } ->
    obj [ ("ev", s "shadow_unpoison"); ("addr", i addr); ("len", i len) ]
  | Check_elide { insn; fn; reason; witness } ->
    obj
      [ ("ev", s "check_elide"); ("insn", i insn); ("fn", i fn);
        ("reason", s reason); ("witness", i witness) ]
  | Violation { kind; addr; pc; vmodule; origin } ->
    obj
      [ ("ev", s "violation"); ("kind", s kind); ("addr", i addr); ("pc", i pc);
        ("module", s vmodule); ("origin", s (origin_name origin)) ]
  | Cfi_table { name; entries } ->
    obj [ ("ev", s "cfi_table"); ("name", s name); ("entries", i entries) ]
  | Store_hit { name; source } ->
    obj [ ("ev", s "store_hit"); ("name", s name); ("source", s source) ]
  | Store_miss { name } -> obj [ ("ev", s "store_miss"); ("name", s name) ]
  | Store_evict { name } -> obj [ ("ev", s "store_evict"); ("name", s name) ]
  | Store_corrupt { name; why } ->
    obj [ ("ev", s "store_corrupt"); ("name", s name); ("why", s why) ]
  | Phase_begin { phase } -> obj [ ("ev", s "phase_begin"); ("phase", s (phase_name phase)) ]
  | Phase_end { phase; host_s; cycles } ->
    obj
      [ ("ev", s "phase_end"); ("phase", s (phase_name phase));
        ("host_s", Printf.sprintf "%.6f" host_s); ("cycles", i cycles) ]

(* A deliberately small parser for the flat one-line objects emitted
   above — enough for round-trip tests and offline tooling, not a general
   JSON reader. *)

type jval = Jint of int | Jfloat of float | Jstr of string | Jbool of bool

let parse_line line =
  let n = String.length line in
  let pos = ref 0 in
  let fail why = failwith (Printf.sprintf "Trace.event_of_json: %s at %d" why !pos) in
  let skip_ws () =
    while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t') do incr pos done
  in
  let expect c =
    skip_ws ();
    if !pos >= n || line.[!pos] <> c then fail (Printf.sprintf "expected %c" c);
    incr pos
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match line.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          if !pos >= n then fail "bad escape";
          (match line.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | 'n' -> Buffer.add_char b '\n'
          | 'u' ->
            if !pos + 4 >= n then fail "bad \\u escape";
            let code = int_of_string ("0x" ^ String.sub line (!pos + 1) 4) in
            Buffer.add_char b (Char.chr (code land 0xFF));
            pos := !pos + 4
          | c -> Buffer.add_char b c);
          incr pos;
          go ()
        | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_value () =
    skip_ws ();
    if !pos >= n then fail "missing value"
    else if line.[!pos] = '"' then Jstr (parse_string ())
    else if n - !pos >= 4 && String.sub line !pos 4 = "true" then begin
      pos := !pos + 4;
      Jbool true
    end
    else if n - !pos >= 5 && String.sub line !pos 5 = "false" then begin
      pos := !pos + 5;
      Jbool false
    end
    else begin
      let start = !pos in
      while
        !pos < n
        && (match line.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
      do
        incr pos
      done;
      if !pos = start then fail "bad literal";
      let tok = String.sub line start (!pos - start) in
      match int_of_string_opt tok with
      | Some v -> Jint v
      | None -> (
        match float_of_string_opt tok with
        | Some v -> Jfloat v
        | None -> fail "bad number")
    end
  in
  expect '{';
  let fields = ref [] in
  skip_ws ();
  if !pos < n && line.[!pos] = '}' then incr pos
  else begin
    let rec members () =
      let k = (skip_ws (); parse_string ()) in
      expect ':';
      let v = parse_value () in
      fields := (k, v) :: !fields;
      skip_ws ();
      if !pos < n && line.[!pos] = ',' then begin
        incr pos;
        members ()
      end
      else expect '}'
    in
    members ()
  end;
  List.rev !fields

let event_of_json line =
  match parse_line line with
  | exception Failure _ -> None
  | fields ->
    let str k = match List.assoc_opt k fields with Some (Jstr v) -> Some v | _ -> None in
    let num k = match List.assoc_opt k fields with Some (Jint v) -> Some v | _ -> None in
    let flt k =
      match List.assoc_opt k fields with
      | Some (Jfloat v) -> Some v
      | Some (Jint v) -> Some (float_of_int v)
      | _ -> None
    in
    let boolean k = match List.assoc_opt k fields with Some (Jbool v) -> Some v | _ -> None in
    let origin k =
      match str k with Some "static" -> Some Static | Some "dynamic" -> Some Dynamic | _ -> None
    in
    let phase k =
      match str k with
      | Some "analyze" -> Some Analyze
      | Some "rewrite" -> Some Rewrite
      | Some "load" -> Some Load
      | Some "run" -> Some Run
      | _ -> None
    in
    let ( let* ) = Option.bind in
    let* tag = str "ev" in
    (match tag with
    | "block_translate" ->
      let* pc = num "pc" in
      let* insns = num "insns" in
      let* origin = origin "origin" in
      Some (Block_translate { pc; insns; origin })
    | "block_exec" ->
      let* pc = num "pc" in
      Some (Block_exec { pc })
    | "chain_link" ->
      let* from_pc = num "from" in
      let* to_pc = num "to" in
      Some (Chain_link { from_pc; to_pc })
    | "chain_sever" ->
      let* from_pc = num "from" in
      let* to_pc = num "to" in
      Some (Chain_sever { from_pc; to_pc })
    | "ibl_hit" ->
      let* site = num "site" in
      let* target = num "target" in
      Some (Ibl_hit { site; target })
    | "ibl_miss" ->
      let* site = num "site" in
      let* target = num "target" in
      Some (Ibl_miss { site; target })
    | "trace_build" ->
      let* head = num "head" in
      let* blocks = num "blocks" in
      Some (Trace_build { head; blocks })
    | "trace_teardown" ->
      let* head = num "head" in
      Some (Trace_teardown { head })
    | "trace_elide" ->
      let* head = num "head" in
      let* insn = num "insn" in
      let* reason = str "reason" in
      let* witness = num "witness" in
      Some (Trace_elide { head; insn; reason; witness })
    | "flush_range" ->
      let* start = num "start" in
      let* len = num "len" in
      Some (Flush_range { start; len })
    | "module_load" ->
      let* name = str "name" in
      let* base = num "base" in
      Some (Module_load { name; base })
    | "module_unload" ->
      let* name = str "name" in
      Some (Module_unload { name })
    | "dlopen" ->
      let* name = str "name" in
      let* handle = num "handle" in
      Some (Dlopen { name; handle })
    | "dlclose" ->
      let* name = str "name" in
      let* ok = boolean "ok" in
      Some (Dlclose { name; ok })
    | "plt_resolve" ->
      let* caller = num "caller" in
      let* target = num "target" in
      Some (Plt_resolve { caller; target })
    | "shadow_poison" ->
      let* addr = num "addr" in
      let* len = num "len" in
      let* state = num "state" in
      Some (Shadow_poison { addr; len; state })
    | "shadow_unpoison" ->
      let* addr = num "addr" in
      let* len = num "len" in
      Some (Shadow_unpoison { addr; len })
    | "check_elide" ->
      let* insn = num "insn" in
      let* fn = num "fn" in
      let* reason = str "reason" in
      let* witness = num "witness" in
      Some (Check_elide { insn; fn; reason; witness })
    | "violation" ->
      let* kind = str "kind" in
      let* addr = num "addr" in
      let* pc = num "pc" in
      let* vmodule = str "module" in
      let* origin = origin "origin" in
      Some (Violation { kind; addr; pc; vmodule; origin })
    | "cfi_table" ->
      let* name = str "name" in
      let* entries = num "entries" in
      Some (Cfi_table { name; entries })
    | "store_hit" ->
      let* name = str "name" in
      let* source = str "source" in
      Some (Store_hit { name; source })
    | "store_miss" ->
      let* name = str "name" in
      Some (Store_miss { name })
    | "store_evict" ->
      let* name = str "name" in
      Some (Store_evict { name })
    | "store_corrupt" ->
      let* name = str "name" in
      let* why = str "why" in
      Some (Store_corrupt { name; why })
    | "phase_begin" ->
      let* phase = phase "phase" in
      Some (Phase_begin { phase })
    | "phase_end" ->
      let* phase = phase "phase" in
      let* host_s = flt "host_s" in
      let* cycles = num "cycles" in
      Some (Phase_end { phase; host_s; cycles })
    | _ -> None)

let export oc =
  List.iter
    (fun ev ->
      output_string oc (event_to_json ev);
      output_char oc '\n')
    (events ())

(* ---- entry-accounting invariant ----

   Every executed block arrives through exactly one of the dispatcher, a
   chain link, an IBL hit or a trace-interior transition; a dispatcher
   entry that resolves to an empty (decode-faulting) block is accounted
   by [decode_faults].  Formerly a bench-harness self-check, the identity
   is now asserted by the engine itself after every [Dbt.run] — a broken
   identity means a dispatch or stats bug, and failing loudly beats
   publishing wrong attribution. *)

exception Invariant_failure of string

let entry_accounting ~dispatch ~chain ~ibl ~trace_interior ~decode_faults
    ~block_execs =
  let accounted = dispatch + chain + ibl + trace_interior in
  if accounted <> block_execs + decode_faults then
    raise
      (Invariant_failure
         (Printf.sprintf
            "entry accounting broken: dispatch(%d) + chain(%d) + ibl(%d) + \
             trace_interior(%d) = %d <> block_execs(%d) + decode_faults(%d) = %d"
            dispatch chain ibl trace_interior accounted block_execs decode_faults
            (block_execs + decode_faults)))
