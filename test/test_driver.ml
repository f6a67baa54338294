(* Driver hardening: rule-cache corruption must degrade to re-analysis
   (never crash), [save_rules] must create nested cache directories, and
   the global metrics counters must be isolated between driver runs. *)

(* Unique-enough scratch root: [Filename.temp_file] reserves a fresh
   name for us (the empty file it creates is immediately removed and the
   name reused as a directory root). *)
let scratch_root =
  let f = Filename.temp_file "jt_driver_test" "" in
  Sys.remove f;
  f

let tmpdir sub = Filename.concat scratch_root sub

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let sample_file name =
  {
    Jt_rules.Rules.rf_module = name;
    rf_digest = "";
    rf_stats = [];
    rf_rules =
      List.init 5 (fun i ->
          Jt_rules.Rules.make ~id:0x101 ~bb:(0x400000 + (i * 16))
            ~insn:(0x400000 + (i * 16))
            ~data:[ 2; 1 ] ());
  }

(* -- save/load round trip, now through nested directories -- *)

let test_save_load_roundtrip () =
  let dir = tmpdir "roundtrip" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let f = sample_file "m" in
      Janitizer.Driver.save_rules ~dir [ ("m", f) ];
      match Janitizer.Driver.load_rules ~dir "m" with
      | Some f' ->
        Alcotest.(check string) "module name" "m" f'.Jt_rules.Rules.rf_module;
        Alcotest.(check int) "rule count" 5 (List.length f'.rf_rules)
      | None -> Alcotest.fail "round trip lost the file")

let test_save_rules_nested_dir () =
  let root = tmpdir "nested" in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      (* pre-fix: [Sys.mkdir] is single-level, so a nested cache path
         raised ENOENT *)
      let dir = Filename.concat (Filename.concat root "per-config") "jasan" in
      Janitizer.Driver.save_rules ~dir [ ("m", sample_file "m") ];
      Alcotest.(check bool) "nested dir created" true (Sys.is_directory dir);
      Alcotest.(check bool) "file written" true
        (Sys.file_exists (Filename.concat dir "m.jtr"));
      (* and again over the now-existing tree: idempotent *)
      Janitizer.Driver.save_rules ~dir [ ("m2", sample_file "m2") ];
      Alcotest.(check bool) "second save works" true
        (Sys.file_exists (Filename.concat dir "m2.jtr")))

(* -- corrupt-cache regressions -- *)

let test_load_rules_truncated () =
  let dir = tmpdir "trunc" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Janitizer.Driver.save_rules ~dir [ ("m", sample_file "m") ];
      let path = Filename.concat dir "m.jtr" in
      (* keep the magic, drop the payload: decode_file raises Failure *)
      let ic = open_in_bin path in
      let head = really_input_string ic 6 in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc head;
      close_out oc;
      Alcotest.(check bool) "truncated cache -> None" true
        (Janitizer.Driver.load_rules ~dir "m" = None))

let test_load_rules_garbage () =
  let dir = tmpdir "garbage" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Janitizer.Driver.save_rules ~dir [];
      let oc = open_out_bin (Filename.concat dir "m.jtr") in
      output_string oc "this is not a JTRR file at all";
      close_out oc;
      Alcotest.(check bool) "bad magic -> None" true
        (Janitizer.Driver.load_rules ~dir "m" = None))

let test_load_rules_directory_entry () =
  let dir = tmpdir "direntry" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (* a cache entry that is a *directory*: [open_in_bin] (or the
         subsequent read) raises [Sys_error], which the pre-fix handler
         (catching only [Failure]) let escape and crash the run *)
      Janitizer.Driver.save_rules ~dir [];
      Sys.mkdir (Filename.concat dir "m.jtr") 0o755;
      Alcotest.(check bool) "directory entry -> None" true
        (Janitizer.Driver.load_rules ~dir "m" = None))

(* -- stale-cache digest rejection -- *)

let test_load_rules_stale_digest () =
  let dir = tmpdir "stale" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let build_a = Digest.string "module, build A" in
      let build_b = Digest.string "module, build B" in
      let f = { (sample_file "m") with Jt_rules.Rules.rf_digest = build_a } in
      Janitizer.Driver.save_rules ~dir [ ("m", f) ];
      (* matching digest: the cache is served *)
      (match Janitizer.Driver.load_rules ~expect_digest:build_a ~dir "m" with
      | Some f' ->
        Alcotest.(check string) "digest survives the cache" build_a
          f'.Jt_rules.Rules.rf_digest
      | None -> Alcotest.fail "fresh cache rejected");
      (* the module was rebuilt: same name, different content digest —
         pre-fix this applied the stale rules at dead addresses *)
      Alcotest.(check bool) "stale cache -> None" true
        (Janitizer.Driver.load_rules ~expect_digest:build_b ~dir "m" = None);
      (* callers that don't know the digest keep the old behavior *)
      Alcotest.(check bool) "no expectation -> served" true
        (Janitizer.Driver.load_rules ~dir "m" <> None))

let test_module_digest_sensitivity () =
  let m = Progs.sum_prog ~n:30 () in
  let m' = Progs.sum_prog ~n:31 () in
  Alcotest.(check bool) "digest is deterministic" true
    (String.equal (Janitizer.Driver.module_digest m)
       (Janitizer.Driver.module_digest (Progs.sum_prog ~n:30 ())));
  Alcotest.(check bool) "different code, different digest" false
    (String.equal (Janitizer.Driver.module_digest m)
       (Janitizer.Driver.module_digest m'))

(* -- fn_of_addr: indexed lookup must match the old linear scan -- *)

let test_fn_of_addr_equivalence () =
  let m = Progs.sum_prog ~n:30 () in
  let sa = Janitizer.Static_analyzer.analyze m in
  (* the pre-index implementation: first function in [sa_fns] order any
     of whose blocks contains an instruction at [addr] *)
  let reference addr =
    List.find_opt
      (fun (fa : Janitizer.Static_analyzer.fn_analysis) ->
        Hashtbl.fold
          (fun _ (b : Jt_cfg.Cfg.block) acc ->
            acc
            || Array.exists
                 (fun (i : Jt_disasm.Disasm.insn_info) -> i.d_addr = addr)
                 b.b_insns)
          fa.fa_fn.Jt_cfg.Cfg.f_blocks false)
      sa.sa_fns
  in
  let entry_of (fa : Janitizer.Static_analyzer.fn_analysis) =
    fa.fa_fn.Jt_cfg.Cfg.f_entry
  in
  let probes = ref 0 in
  let check_addr addr =
    incr probes;
    Alcotest.(check (option int))
      (Printf.sprintf "fn_of_addr 0x%x" addr)
      (Option.map entry_of (reference addr))
      (Option.map entry_of (Janitizer.Static_analyzer.fn_of_addr sa addr))
  in
  (* every instruction address of every function (hits)... *)
  List.iter
    (fun (fa : Janitizer.Static_analyzer.fn_analysis) ->
      Hashtbl.iter
        (fun _ (b : Jt_cfg.Cfg.block) ->
          Array.iter
            (fun (i : Jt_disasm.Disasm.insn_info) -> check_addr i.d_addr)
            b.b_insns)
        fa.fa_fn.Jt_cfg.Cfg.f_blocks)
    sa.sa_fns;
  (* ...plus guaranteed misses *)
  List.iter check_addr [ 0; 1; 0x3F_FFFF; 0xDEAD_BEEF ];
  Alcotest.(check bool) "exercised some addresses" true (!probes > 10)

(* -- per-run counter isolation -- *)

let test_counters_isolated_between_runs () =
  let m = Progs.sum_prog ~n:30 () in
  let registry = Progs.registry_for m in
  let run () =
    ignore (Janitizer.Driver.run_null ~registry ~main:"sum" ());
    Jt_metrics.Metrics.Counters.snapshot ()
  in
  let s1 = run () in
  let s2 = run () in
  (* pre-fix, every counter doubled on the second run *)
  Alcotest.(check bool) "first run counted something" true
    (List.assoc "module_lookups" s1 > 0);
  List.iter2
    (fun (name, v1) (name2, v2) ->
      Alcotest.(check string) "same counter order" name name2;
      Alcotest.(check int) (name ^ " identical across runs") v1 v2)
    s1 s2;
  (* the tool-attached driver entry point resets too *)
  let tool, _ = Jt_jasan.Jasan.create () in
  ignore (Janitizer.Driver.run ~tool ~registry ~main:"sum" ());
  let s3 = Jt_metrics.Metrics.Counters.snapshot () in
  ignore (Janitizer.Driver.run ~tool ~registry ~main:"sum" ());
  let s4 = Jt_metrics.Metrics.Counters.snapshot () in
  List.iter2
    (fun (name, v3) (_, v4) ->
      Alcotest.(check int) (name ^ " identical across tool runs") v3 v4)
    s3 s4

(* -- domain-parallel determinism -- *)

(* Two [Driver.run]s on different domains must produce exactly what two
   back-to-back sequential runs produce: same simulator results *and*
   same per-run counters.  Counters/trace state is domain-local, so a
   job snapshots its own domain's counters before returning.  Pre-DLS,
   concurrent runs hammered one global counter record and this test
   raced. *)
let test_parallel_runs_match_sequential () =
  let eval tool_attached () =
    let m = Progs.sum_prog ~n:30 () in
    let registry = Progs.registry_for m in
    let o =
      if tool_attached then
        let tool, _ = Jt_jasan.Jasan.create () in
        Janitizer.Driver.run ~tool ~registry ~main:"sum" ()
      else Janitizer.Driver.run_null ~registry ~main:"sum" ()
    in
    let r = o.Janitizer.Driver.o_result in
    ( (Format.asprintf "%a" Jt_vm.Vm.pp_status r.Jt_vm.Vm.r_status),
      r.r_icount,
      r.r_cycles,
      r.r_output,
      List.length r.r_violations,
      o.o_rule_count,
      Jt_metrics.Metrics.Counters.snapshot () )
  in
  let jobs = [ eval false; eval true; eval false; eval true ] in
  let sequential = List.map (fun j -> j ()) jobs in
  let parallel = Jt_pool.Pool.run ~jobs:4 (fun j -> j ()) jobs in
  List.iteri
    (fun i (seq, par) ->
      let (s1, i1, c1, o1, v1, r1, cs1) = seq
      and (s2, i2, c2, o2, v2, r2, cs2) = par in
      let tag fmt = Printf.sprintf ("job %d " ^^ fmt) i in
      Alcotest.(check string) (tag "status") s1 s2;
      Alcotest.(check int) (tag "icount") i1 i2;
      Alcotest.(check int) (tag "cycles") c1 c2;
      Alcotest.(check string) (tag "output") o1 o2;
      Alcotest.(check int) (tag "violations") v1 v2;
      Alcotest.(check int) (tag "rules") r1 r2;
      List.iter2
        (fun (n, a) (n', b) ->
          Alcotest.(check string) (tag "counter order") n n';
          Alcotest.(check int) (tag "counter %s" n) a b)
        cs1 cs2)
    (List.combine sequential parallel)

(* Counter snapshots from worker domains merge into an aggregate equal to
   the sequential sum — the API the bench harness relies on. *)
let test_merge_across_domains () =
  let m = Progs.sum_prog ~n:30 () in
  let job () =
    let registry = Progs.registry_for m in
    ignore (Janitizer.Driver.run_null ~registry ~main:"sum" ());
    Jt_metrics.Metrics.Counters.snapshot ()
  in
  let snaps = Jt_pool.Pool.run ~jobs:2 (fun j -> j ()) [ job; job ] in
  let merged = Jt_metrics.Metrics.Counters.merge snaps in
  let solo = job () in
  List.iter2
    (fun (n, total) (_, one) ->
      Alcotest.(check int) (n ^ " merged = 2x solo") (2 * one) total)
    merged solo

let () =
  Alcotest.run "driver"
    [
      ( "rule-cache",
        [
          Alcotest.test_case "save/load round trip" `Quick
            test_save_load_roundtrip;
          Alcotest.test_case "nested cache dir" `Quick test_save_rules_nested_dir;
          Alcotest.test_case "truncated file" `Quick test_load_rules_truncated;
          Alcotest.test_case "garbage file" `Quick test_load_rules_garbage;
          Alcotest.test_case "directory entry" `Quick
            test_load_rules_directory_entry;
          Alcotest.test_case "stale digest" `Quick test_load_rules_stale_digest;
          Alcotest.test_case "digest sensitivity" `Quick
            test_module_digest_sensitivity;
        ] );
      ( "static-analyzer",
        [
          Alcotest.test_case "fn_of_addr equivalence" `Quick
            test_fn_of_addr_equivalence;
        ] );
      ( "counters",
        [
          Alcotest.test_case "isolated between runs" `Quick
            test_counters_isolated_between_runs;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "parallel runs match sequential" `Quick
            test_parallel_runs_match_sequential;
          Alcotest.test_case "merge across domains" `Quick
            test_merge_across_domains;
        ] );
    ]
