(* The benchmark's own tests: pairing arithmetic and order statistics,
   the kernel's zero allocation, seeded inputs, repeatable counts, and the
   pipeline's run composition against the driver's own entry points. *)

open Alcotest
module P = Pipeline

let close = float 1e-12

let test_paired () =
  let paired = Pair.paired ~nominal:0.005 in
  check close "kernel at nominal speed" 0.1 (paired ~raw:0.1 ~k_before:0.005 ~k_after:0.005);
  check close "host 1.5x slower" 0.1 (paired ~raw:0.15 ~k_before:0.0075 ~k_after:0.0075);
  check close "mean of the two brackets" 0.1 (paired ~raw:0.12 ~k_before:0.005 ~k_after:0.007)

(* Expected values from Python's statistics.quantiles(values, n=4). *)
let test_order_statistics () =
  let q l = Pair.quartiles l in
  check (pair close close) "1..4" (1.25, 3.75) (q [ 1.; 2.; 3.; 4. ]);
  check (pair close close) "three values" (1., 9.) (q [ 5.; 1.; 9. ]);
  check (pair close close) "1..10" (2.75, 8.25) (q (List.init 10 (fun i -> float_of_int (i + 1))));
  check (pair close close) "unsorted seven" (3.5, 9.) (q [ 3.5; 1.25; 8.; 9.; 10.; 4.5; 7. ]);
  check close "spread 1..10" 1.0 (Pair.spread (List.init 10 (fun i -> float_of_int (i + 1))));
  check close "spread of one value" 0. (Pair.spread [ 3. ]);
  check close "median even" 2.5 (Pair.median [ 4.; 1.; 3.; 2. ]);
  check close "median odd" 3. (Pair.median [ 5.; 3.; 1. ]);
  check close "geomean" 4. (Pair.geomean [ 2.; 8. ])

let test_kernel_allocates_nothing () =
  let c = Kernel.run () in
  let w0 = Gc.minor_words () in
  let c' = Kernel.run () in
  let w1 = Gc.minor_words () in
  check (float 0.) "minor words" 0. (w1 -. w0);
  check int "same checksum on every pass" c c'

let names = List.map (fun (s : Jt_workloads.Sheet.t) -> s.s_name)

let test_spec_draw () =
  let d = Inputs.spec_draw ~seed:1 in
  check (list string) "same seed, same draw" (names d) (names (Inputs.spec_draw ~seed:1));
  check bool "another seed, another draw" true (names d <> names (Inputs.spec_draw ~seed:2));
  check bool "cactusADM always drawn" true (List.mem "cactusADM" (names d));
  List.iter
    (fun lang ->
      check bool "every language drawn" true
        (List.exists (fun (s : Jt_workloads.Sheet.t) -> s.s_lang = lang) d))
    Jt_workloads.Sheet.[ C; Cxx; Fortran; Mixed_cf ]

let digests cases =
  List.map (fun c -> Jt_obj.Objfile.digest (Jt_fuzz.Fuzz.build c)) cases

let test_fuzz_inputs () =
  let a = Inputs.verdict_cases ~seed:1 in
  check (list string) "same seed, same mains" (digests a) (digests (Inputs.verdict_cases ~seed:1));
  check bool "another seed, other mains" true
    (digests a <> digests (Inputs.verdict_cases ~seed:2));
  check bool "harden and verdicts corpora differ" true
    (List.hd (digests (Inputs.harden_cases ~seed:1)) <> List.hd (digests a))

(* One fuzz program through the whole pipeline, as a measured item does. *)
let pipeline_runs seed =
  let dir = Printf.sprintf "perfbench-test-store-%d" (Unix.getpid ()) in
  let store = Jt_ir.Store.create ~capacity:0 ~dir () in
  let tl = Timeline.create () in
  let p = P.prog_of_case (List.hd (Inputs.verdict_cases ~seed)) in
  let runs =
    Timeline.item tl p.p_name (fun step ->
        let hardened = Hashtbl.create 8 in
        List.iter
          (fun (m : Jt_obj.Objfile.t) ->
            let h, _ = P.harden step store m in
            check (option string) "warm rules equal cold" None h.h_failure;
            Hashtbl.replace hardened (Jt_obj.Objfile.digest m) h)
          p.p_closure;
        let rd = P.ready_of ~rules:(Hashtbl.find hardened) (P.emit step store p) p in
        check (option string) "emitter accepts" None (P.emit_failure p rd);
        let results = List.map (fun a -> (a, P.run_arm step p rd a)) (P.arms_for rd) in
        check (list string) "judged sound" [] (List.map snd (P.judge p results));
        (p, rd, results))
  in
  ignore (Jt_ir.Store.clear store);
  Sys.rmdir dir;
  runs

let counts (r : P.run) =
  ( r.r_res.r_icount,
    r.r_res.r_cycles,
    r.r_counters,
    Option.map (fun (s : Jt_dbt.Dbt.stats) -> [ s.st_block_execs; s.st_dispatch_entries;
      s.st_chain_hits; s.st_ibl_hits; s.st_ibl_misses; s.st_blocks_static;
      s.st_blocks_dynamic ]) r.r_stats,
    r.r_sites,
    r.r_pins )

let test_same_seed_same_counts () =
  let _, _, a = pipeline_runs 3 and _, _, b = pipeline_runs 3 in
  check int "arms" (List.length a) (List.length b);
  List.iter2
    (fun (arm, x) (_, y) -> check bool (P.arm_name arm ^ " counts") true (counts x = counts y))
    a b

(* The benchmark splits the driver's runs into load and execute steps;
   the results must be the driver's own. *)
let test_composition_matches_driver () =
  let p, rd, results = pipeline_runs 4 in
  let registry = p.p_registry and main = p.p_main in
  let same what (x : Jt_vm.Vm.result) (y : Jt_vm.Vm.result) =
    check bool (what ^ " result") true
      (x.r_status = y.r_status && x.r_output = y.r_output && x.r_icount = y.r_icount
      && x.r_cycles = y.r_cycles && x.r_violations = y.r_violations)
  in
  let got a = (List.assoc a results).P.r_res in
  let drv (o : Janitizer.Driver.outcome) = o.o_result in
  same "native" (got P.Native) (drv (Janitizer.Driver.run_native ~registry ~main ()));
  same "null" (got P.Null) (drv (Janitizer.Driver.run_null ~registry ~main ()));
  same "jasan" (got P.Jasan)
    (drv
       (Janitizer.Driver.run ~precomputed:rd.jasan_rules
          ~tool:(fst (Jt_jasan.Jasan.create ())) ~registry ~main ()));
  same "jcfi" (got P.Jcfi)
    (drv
       (Janitizer.Driver.run ~precomputed:rd.jcfi_rules
          ~tool:(fst (Jt_jcfi.Jcfi.create ())) ~registry ~main ()));
  match rd.emitted with
  | Error _ -> fail "fuzz mains emit"
  | Ok ep ->
    let e = Jt_emit.Emit.run ep in
    same "emitted" (got P.Emitted) (drv e.ro_outcome);
    check int "sites" e.ro_sites (List.assoc P.Emitted results).r_sites

let () =
  run "perfbench"
    [
      ( "pairing",
        [
          test_case "paired arithmetic" `Quick test_paired;
          test_case "order statistics" `Quick test_order_statistics;
          test_case "kernel allocates nothing" `Quick test_kernel_allocates_nothing;
        ] );
      ( "inputs",
        [
          test_case "run-spec draw" `Quick test_spec_draw;
          test_case "fuzz mains" `Quick test_fuzz_inputs;
        ] );
      ( "pipeline",
        [
          test_case "same seed, same counts" `Quick test_same_seed_same_counts;
          test_case "composition matches driver" `Quick test_composition_matches_driver;
        ] );
    ]
