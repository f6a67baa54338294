(* Metrics: geomean guarding against non-positive cells (which used to
   poison the whole summary row through [log]), and the domain-local hot-path
   counters wired into the dispatcher and loader. *)

let geomean = Jt_metrics.Metrics.geomean

let test_geomean_empty () =
  Alcotest.(check (float 1e-9)) "empty list" 0.0 (geomean [])

let test_geomean_all_positive () =
  Alcotest.(check (float 1e-9)) "2,8 -> 4" 4.0 (geomean [ 2.0; 8.0 ]);
  Alcotest.(check (float 1e-9)) "singleton" 3.5 (geomean [ 3.5 ])

let test_geomean_skips_nonpositive () =
  (* pre-fix: log 0. = -inf collapsed the mean to 0, log of a negative
     made it nan *)
  let g = geomean [ 0.0; 2.0; 8.0 ] in
  Alcotest.(check bool) "finite with a zero cell" true (Float.is_finite g);
  Alcotest.(check (float 1e-9)) "zero skipped" 4.0 g;
  let g = geomean [ -3.0; 5.0 ] in
  Alcotest.(check bool) "finite with a negative cell" true (Float.is_finite g);
  Alcotest.(check (float 1e-9)) "negative skipped" 5.0 g;
  Alcotest.(check (float 1e-9)) "all non-positive" 0.0 (geomean [ 0.0; -1.0 ])

let test_counters_reset_snapshot () =
  let open Jt_metrics.Metrics.Counters in
  reset ();
  List.iter
    (fun (name, v) -> Alcotest.(check int) (name ^ " zeroed") 0 v)
    (snapshot ());
  let c = current () in
  c.c_flush_drops <- 7;
  c.c_flush_visits <- 2;
  Alcotest.(check int) "flush drops read back" 7
    (List.assoc "flush_drops" (snapshot ()));
  Alcotest.(check int) "flush visits read back" 2
    (List.assoc "flush_visits" (snapshot ()));
  reset ();
  Alcotest.(check int) "reset" 0 (List.assoc "flush_drops" (snapshot ()))

let test_counters_instrument_dispatch () =
  let open Jt_metrics.Metrics.Counters in
  reset ();
  let m = Progs.sum_prog ~n:50 () in
  let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) in
  let engine = Jt_dbt.Dbt.create ~vm () in
  Jt_vm.Vm.boot vm ~main:"sum";
  Jt_dbt.Dbt.run engine;
  let c = current () in
  Alcotest.(check bool) "module lookups counted" true
    (c.c_module_lookups > 0);
  Alcotest.(check bool) "lookup probes counted" true
    (c.c_lookup_probes >= c.c_module_lookups);
  reset ()

let () =
  Alcotest.run "metrics"
    [
      ( "geomean",
        [
          Alcotest.test_case "empty" `Quick test_geomean_empty;
          Alcotest.test_case "all positive" `Quick test_geomean_all_positive;
          Alcotest.test_case "non-positive skipped" `Quick
            test_geomean_skips_nonpositive;
        ] );
      ( "counters",
        [
          Alcotest.test_case "reset/snapshot" `Quick test_counters_reset_snapshot;
          Alcotest.test_case "dispatch instrumentation" `Quick
            test_counters_instrument_dispatch;
        ] );
    ]
