(* The structured trace layer: ring-buffer semantics, the disabled-path
   no-op contract, JSONL round-trips, violation provenance stamped from
   live runs, phase spans, and the relocated entry-accounting invariant
   (both that real runs satisfy it and that a seeded mismatch fires). *)

open Jt_trace.Trace

(* Every test leaves the global sink disabled and empty so suites don't
   contaminate each other. *)
let isolated f () =
  Fun.protect
    ~finally:(fun () ->
      disable ();
      clear ())
    f

(* -- ring buffer -- *)

let test_ring_wraparound () =
  enable ~capacity:8 ();
  for pc = 1 to 20 do
    emit (Block_exec { pc })
  done;
  Alcotest.(check int) "emitted counts everything" 20 (emitted ());
  Alcotest.(check int) "dropped = emitted - capacity" 12 (dropped ());
  let pcs =
    List.map (function Block_exec { pc } -> pc | _ -> -1) (events ())
  in
  Alcotest.(check (list int)) "last 8 events, oldest first"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ] pcs

let test_ring_below_capacity () =
  enable ~capacity:64 ();
  emit (Block_exec { pc = 1 });
  emit (Block_exec { pc = 2 });
  Alcotest.(check int) "two emitted" 2 (emitted ());
  Alcotest.(check int) "none dropped" 0 (dropped ());
  Alcotest.(check int) "two buffered" 2 (List.length (events ()));
  clear ();
  Alcotest.(check int) "clear empties" 0 (List.length (events ()));
  Alcotest.(check bool) "clear keeps enabled" true (is_enabled ())

let test_bad_capacity () =
  Alcotest.check_raises "zero capacity rejected"
    (Invalid_argument "Trace.enable: capacity must be positive") (fun () ->
      enable ~capacity:0 ())

(* -- disabled path -- *)

let test_disabled_noop () =
  Alcotest.(check bool) "disabled by default" false (is_enabled ());
  (* the emit-site contract is [if is_enabled () then emit ...]; but even a
     raw emit with no ring must be a silent no-op *)
  emit (Block_exec { pc = 42 });
  Alcotest.(check int) "nothing recorded" 0 (emitted ());
  Alcotest.(check (list int)) "no events" []
    (List.map (fun _ -> 0) (events ()));
  enable ~capacity:4 ();
  emit (Block_exec { pc = 1 });
  disable ();
  Alcotest.(check bool) "disable clears the flag" false (is_enabled ());
  Alcotest.(check int) "buffer still readable after disable" 1
    (List.length (events ()))

(* -- JSONL round-trip -- *)

let all_constructors =
  [
    Block_translate { pc = 0x400100; insns = 7; origin = Static };
    Block_translate { pc = 0x400200; insns = 1; origin = Dynamic };
    Block_exec { pc = 0x400100 };
    Chain_link { from_pc = 0x400100; to_pc = 0x400200 };
    Chain_sever { from_pc = 0x400200; to_pc = 0x400300 };
    Ibl_hit { site = 0x400110; target = 0x400400 };
    Ibl_miss { site = 0x400110; target = 0x400500 };
    Trace_build { head = 0x400100; blocks = 5 };
    Trace_teardown { head = 0x400100 };
    Flush_range { start = 0x20000000; len = 64 };
    Module_load { name = "libc.so"; base = 0x10000000 };
    Module_unload { name = "plugin.so" };
    Dlopen { name = "plugin.so"; handle = 3 };
    Dlclose { name = "plugin.so"; ok = true };
    Dlclose { name = "libc.so"; ok = false };
    Plt_resolve { caller = 0x400120; target = 0x10000010 };
    Shadow_poison { addr = 0x50000000; len = 32; state = 1 };
    Shadow_unpoison { addr = 0x50000000; len = 32 };
    Check_elide
      { insn = 0x400120; fn = 0x400100; reason = "dom"; witness = 0x400110 };
    Violation
      {
        kind = "heap-overflow";
        addr = 0x50000020;
        pc = 0x400130;
        vmodule = "heap_ov";
        origin = Static;
      };
    Cfi_table { name = "main"; entries = 12 };
    Phase_begin { phase = Analyze };
    Phase_end { phase = Run; host_s = 0.25; cycles = 1234 };
  ]

let test_jsonl_roundtrip () =
  List.iter
    (fun ev ->
      let line = event_to_json ev in
      match event_of_json line with
      | Some ev' ->
        Alcotest.(check string)
          ("round-trip " ^ kind_name ev)
          line (event_to_json ev');
        Alcotest.(check bool) ("equal " ^ kind_name ev) true (ev = ev')
      | None -> Alcotest.failf "unparsable line for %s: %s" (kind_name ev) line)
    all_constructors

let test_jsonl_escaping () =
  let ev = Module_load { name = "we\"ird\\na\nme"; base = 1 } in
  match event_of_json (event_to_json ev) with
  | Some ev' -> Alcotest.(check bool) "escaped name survives" true (ev = ev')
  | None -> Alcotest.fail "escaped line did not parse"

let test_jsonl_malformed () =
  Alcotest.(check bool) "garbage" true (event_of_json "not json" = None);
  Alcotest.(check bool) "unknown tag" true
    (event_of_json {|{"ev": "zorp", "pc": 1}|} = None);
  Alcotest.(check bool) "missing field" true
    (event_of_json {|{"ev": "block_exec"}|} = None)

let test_export_matches_events () =
  enable ~capacity:16 ();
  List.iter emit all_constructors;
  let tmp = Filename.temp_file "jt_trace" ".jsonl" in
  let oc = open_out tmp in
  export oc;
  close_out oc;
  let ic = open_in tmp in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove tmp;
  let parsed = List.rev_map event_of_json !lines in
  Alcotest.(check int) "one line per buffered event"
    (List.length (events ()))
    (List.length parsed);
  Alcotest.(check bool) "all lines parse and match" true
    (List.for_all2 (fun e p -> p = Some e) (events ()) parsed)

(* -- live wiring: a real run emits, a disabled run is bit-identical -- *)

let run_sum () =
  let m = Progs.sum_prog ~n:20 () in
  let tool, _ = Jt_jasan.Jasan.create () in
  Janitizer.Driver.run ~tool ~registry:(Progs.registry_for m) ~main:"sum" ()

let test_live_emission_and_identity () =
  disable ();
  let off = run_sum () in
  enable ();
  let on_ = run_sum () in
  let counts = kind_counts () in
  disable ();
  let get k = try List.assoc k counts with Not_found -> 0 in
  Alcotest.(check bool) "block_translate events" true (get "block_translate" > 0);
  Alcotest.(check bool) "block_exec events" true (get "block_exec" > 0);
  Alcotest.(check bool) "chain_link events" true (get "chain_link" > 0);
  Alcotest.(check bool) "module_load events" true (get "module_load" > 0);
  Alcotest.(check bool) "phase_end events" true (get "phase_end" > 0);
  (* tracing only observes: simulated results are bit-identical *)
  Alcotest.(check bool) "results identical on/off" true
    (off.Janitizer.Driver.o_result = on_.Janitizer.Driver.o_result)

(* Per-kind totals are counted at emit time: a ring far smaller than the
   run still reports every block execution the engine made. *)
let test_kind_counts_outlive_ring () =
  enable ~capacity:64 ();
  let o = run_sum () in
  let counts = kind_counts () in
  disable ();
  let stats = Option.get o.Janitizer.Driver.o_dbt in
  Alcotest.(check bool) "the ring overflowed" true (dropped () > 0);
  Alcotest.(check int) "block_exec = engine block executions"
    stats.Jt_dbt.Dbt.st_block_execs
    (List.assoc "block_exec" counts);
  clear ();
  Alcotest.(check (list (pair string int))) "clear zeroes the counts" []
    (kind_counts ())

let test_violation_provenance () =
  enable ();
  let m = Progs.heap_overflow_prog () in
  let tool, _ = Jt_jasan.Jasan.create () in
  let o =
    Janitizer.Driver.run ~tool ~registry:(Progs.registry_for m) ~main:"heap_ov" ()
  in
  disable ();
  let vs = o.Janitizer.Driver.o_result.Jt_vm.Vm.r_violations in
  Alcotest.(check bool) "run reported a violation" true (vs <> []);
  let reported = List.hd vs in
  let traced =
    List.filter_map
      (function
        | Violation { kind; addr; pc = _; vmodule; origin } ->
          Some (kind, addr, vmodule, origin)
        | _ -> None)
      (events ())
  in
  match traced with
  | [] -> Alcotest.fail "no Violation event captured"
  | (kind, addr, vmodule, origin) :: _ ->
    Alcotest.(check string) "kind matches the VM report"
      reported.Jt_vm.Vm.v_kind kind;
    Alcotest.(check int) "addr matches" reported.Jt_vm.Vm.v_addr addr;
    Alcotest.(check string) "module resolved" "heap_ov" vmodule;
    Alcotest.(check bool) "hybrid run: block origin is static" true
      (origin = Static)

(* -- phase spans -- *)

let test_phase_spans () =
  enable ();
  let r =
    in_phase Analyze (fun () ->
        phase_add_cycles Analyze 100;
        41 + 1)
  in
  Alcotest.(check int) "in_phase passes the result through" 42 r;
  in_phase Analyze (fun () -> phase_add_cycles Analyze 11);
  let totals = phase_totals () in
  disable ();
  let a = List.find (fun p -> p.ps_phase = Analyze) totals in
  Alcotest.(check int) "two spans" 2 a.ps_spans;
  Alcotest.(check int) "cycles accumulated" 111 a.ps_cycles;
  Alcotest.(check bool) "host time non-negative" true (a.ps_host_s >= 0.0);
  let ends =
    List.filter_map
      (function Phase_end { phase = Analyze; cycles; _ } -> Some cycles | _ -> None)
      (events ())
  in
  Alcotest.(check (list int)) "per-span cycles in Phase_end events" [ 100; 11 ]
    ends

(* -- entry accounting -- *)

let test_entry_accounting_holds_live () =
  (* [Dbt.run] asserts the identity itself; a run completing without
     [Invariant_failure] plus an explicit re-check here covers both. *)
  let m = Progs.sum_prog ~n:10 () in
  let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) in
  let engine = Jt_dbt.Dbt.create ~vm () in
  Jt_vm.Vm.boot vm ~main:"sum";
  Jt_dbt.Dbt.run engine;
  let s = Jt_dbt.Dbt.stats engine in
  Alcotest.(check int) "identity balances"
    (s.Jt_dbt.Dbt.st_block_execs + s.st_decode_faults)
    (s.st_dispatch_entries + s.st_chain_hits + s.st_ibl_hits
   + s.st_trace_interior);
  Alcotest.(check int) "no decode faults on a clean program" 0
    s.st_decode_faults

let test_entry_accounting_decode_fault () =
  (* Jumping into unmapped memory builds an empty block: one dispatcher
     entry, zero executions — the identity only balances through
     [st_decode_faults]. *)
  let open Jt_asm.Builder in
  let m =
    build ~name:"wild" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
      ~entry:"main"
      [ func "main" [ Dsl.movi Jt_isa.Reg.r1 0x00DEAD00; Dsl.jmp_reg Jt_isa.Reg.r1 ] ]
  in
  let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) in
  let engine = Jt_dbt.Dbt.create ~vm () in
  Jt_vm.Vm.boot vm ~main:"wild";
  Jt_dbt.Dbt.run engine;
  let s = Jt_dbt.Dbt.stats engine in
  (match vm.Jt_vm.Vm.status with
  | Jt_vm.Vm.Fault (Jt_vm.Vm.Decode_fault _) -> ()
  | _ -> Alcotest.fail "expected a decode fault");
  Alcotest.(check int) "one decode fault counted" 1 s.Jt_dbt.Dbt.st_decode_faults;
  Alcotest.(check int) "identity still balances"
    (s.st_block_execs + s.st_decode_faults)
    (s.st_dispatch_entries + s.st_chain_hits + s.st_ibl_hits
   + s.st_trace_interior)

let test_entry_accounting_seeded_mismatch () =
  (* balanced: fine *)
  entry_accounting ~dispatch:3 ~chain:4 ~ibl:2 ~trace_interior:1
    ~decode_faults:1 ~block_execs:9;
  (* seeded mismatch: must raise, enabled or not *)
  let fires () =
    match
      entry_accounting ~dispatch:3 ~chain:4 ~ibl:2 ~trace_interior:1
        ~decode_faults:0 ~block_execs:9
    with
    | () -> false
    | exception Invariant_failure _ -> true
  in
  Alcotest.(check bool) "mismatch raises while disabled" true (fires ());
  enable ();
  Alcotest.(check bool) "mismatch raises while enabled" true (fires ())

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "wraparound" `Quick (isolated test_ring_wraparound);
          Alcotest.test_case "below capacity" `Quick
            (isolated test_ring_below_capacity);
          Alcotest.test_case "bad capacity" `Quick (isolated test_bad_capacity);
        ] );
      ( "disabled",
        [ Alcotest.test_case "no-op" `Quick (isolated test_disabled_noop) ] );
      ( "jsonl",
        [
          Alcotest.test_case "round-trip" `Quick (isolated test_jsonl_roundtrip);
          Alcotest.test_case "escaping" `Quick (isolated test_jsonl_escaping);
          Alcotest.test_case "malformed" `Quick (isolated test_jsonl_malformed);
          Alcotest.test_case "export" `Quick
            (isolated test_export_matches_events);
        ] );
      ( "wiring",
        [
          Alcotest.test_case "live emission + identity" `Quick
            (isolated test_live_emission_and_identity);
          Alcotest.test_case "kind counts outlive the ring" `Quick
            (isolated test_kind_counts_outlive_ring);
          Alcotest.test_case "violation provenance" `Quick
            (isolated test_violation_provenance);
          Alcotest.test_case "phase spans" `Quick (isolated test_phase_spans);
        ] );
      ( "entry-accounting",
        [
          Alcotest.test_case "holds on a live run" `Quick
            (isolated test_entry_accounting_holds_live);
          Alcotest.test_case "decode faults balance" `Quick
            (isolated test_entry_accounting_decode_fault);
          Alcotest.test_case "seeded mismatch fires" `Quick
            (isolated test_entry_accounting_seeded_mismatch);
        ] );
    ]
