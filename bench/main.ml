(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (section 6).

     dune exec bench/main.exe                       -- everything
     dune exec bench/main.exe -- fig7               -- one figure
     dune exec bench/main.exe -- --jobs 4 fig7      -- measure workloads in parallel
     dune exec bench/main.exe -- parallel --jobs 4  -- sequential-vs-parallel sweep
     dune exec bench/main.exe -- list               -- available targets

   Absolute numbers come from the simulator's cycle model (lib/vm/cost.ml)
   and are calibrated for shape, not for matching the authors' hardware;
   EXPERIMENTS.md records paper-vs-measured for each figure.

   `--jobs N` runs per-workload measurements as independent jobs on a
   [Jt_pool] domain pool.  Parallelism is wall-clock only: the counters
   and trace sinks are domain-local, every job builds its own workload,
   VM and tool instances, and the `parallel` target asserts that the
   parallel sweep's per-workload results are bit-identical to the
   sequential ones. *)

open Jt_workloads

let jobs = ref 1

(* ---- per-benchmark measurement cache ---- *)

type bench_runs = {
  b_sheet : Sheet.t;
  b_native_cycles : int;
  b_native_output : string;
  b_null : float;
  b_jasan_h : float;
  b_jasan_b : float;
  b_jasan_d : float;
  b_valgrind : float;
  b_retrowrite : Jt_metrics.Metrics.cell;
  b_jcfi_h : float;
  b_jcfi_d : float;
  b_jcfi_fwd : float;
  b_lockdown : Jt_metrics.Metrics.cell;
  b_bincfi : Jt_metrics.Metrics.cell;
  b_dynfrac : float;
  b_dair_h : float;
  b_dair_d : float;
  b_lk_s_air : Jt_metrics.Metrics.cell;
  b_lk_w_air : Jt_metrics.Metrics.cell;
  b_sair_jcfi : float;
  b_sair_bincfi : Jt_metrics.Metrics.cell;
  mutable b_sound : bool;
}

let cache : (string, bench_runs) Hashtbl.t = Hashtbl.create 32

let ratio c n = float_of_int c /. float_of_int n

(* The full ~12-configuration measurement of one workload, cache-free:
   safe to run as a pool job (everything it touches is job-local). *)
let measure_fresh (s : Sheet.t) =
    let w = Specgen.build s in
    let registry = w.w_registry in
    let main = s.s_name in
    let native = Specgen.run_native w in
    let n = native.r_cycles in
    let sound = ref true in
    let check_out (r : Jt_vm.Vm.result) =
      if r.r_output <> native.r_output || r.r_status <> native.r_status then
        sound := false
    in
    let run_tool ?(hybrid = true) mk =
      let tool = mk () in
      let o = Janitizer.Driver.run ~hybrid ~tool ~registry ~main () in
      check_out o.o_result;
      o
    in
    let null = Janitizer.Driver.run_null ~registry ~main () in
    check_out null.o_result;
    let jasan_h = run_tool (fun () -> fst (Jt_jasan.Jasan.create ())) in
    let jasan_b =
      run_tool (fun () ->
          fst (Jt_jasan.Jasan.create ~liveness:Jt_jasan.Jasan.Live_none ()))
    in
    let jasan_d = run_tool ~hybrid:false (fun () -> fst (Jt_jasan.Jasan.create ())) in
    let valgrind = Jt_baselines.Valgrind_like.run ~registry ~main () in
    check_out valgrind;
    (* RetroWrite gets the PIC build it requires (the original paper's
       setup); its slowdown is measured against the PIC native run. *)
    let retrowrite =
      let wp = Specgen.build ~kind:Jt_obj.Objfile.Exec_pic s in
      match
        Jt_baselines.Retrowrite_like.run ~registry:wp.w_registry ~main ()
      with
      | Ok r ->
        let np = Specgen.run_native wp in
        if r.r_output <> np.r_output then sound := false;
        Jt_metrics.Metrics.Value (ratio r.r_cycles np.r_cycles)
      | Error (Jt_baselines.Retrowrite_like.Needs_pic m) ->
        Jt_metrics.Metrics.Fail ("non-PIC: " ^ m)
      | Error (Jt_baselines.Retrowrite_like.Unsupported_feature (m, f)) ->
        Jt_metrics.Metrics.Fail (m ^ ": " ^ f)
      | Error Jt_baselines.Retrowrite_like.Applicable -> assert false
    in
    let run_jcfi ?(hybrid = true) ?config () =
      let tool, rt = Jt_jcfi.Jcfi.create ?config () in
      let o = Janitizer.Driver.run ~hybrid ~tool ~registry ~main () in
      check_out o.o_result;
      (o, rt)
    in
    let jcfi_h, rt_h = run_jcfi () in
    let jcfi_d, rt_d = run_jcfi ~hybrid:false () in
    let jcfi_fwd, _ =
      run_jcfi ~config:{ Jt_jcfi.Jcfi.cf_forward = true; cf_backward = false } ()
    in
    let lockdown, lk_s_air, lk_w_air =
      if s.s_fails_lockdown then
        ( Jt_metrics.Metrics.Fail "crash (as in the original paper)",
          Jt_metrics.Metrics.Fail "-",
          Jt_metrics.Metrics.Fail "-" )
      else begin
        let lk = Jt_baselines.Lockdown.run ~registry ~main () in
        let lkw =
          Jt_baselines.Lockdown.run ~policy:Jt_baselines.Lockdown.Weak ~registry
            ~main ()
        in
        if lk.lk_result.r_output <> native.r_output then sound := false;
        ( Jt_metrics.Metrics.Value (ratio lk.lk_result.r_cycles n),
          Jt_metrics.Metrics.Value lk.lk_dynamic_air,
          Jt_metrics.Metrics.Value lkw.lk_dynamic_air )
      end
    in
    let bincfi =
      match Jt_baselines.Bincfi.run ~registry ~main () with
      | Ok r ->
        check_out r;
        Jt_metrics.Metrics.Value (ratio r.r_cycles n)
      | Error (Jt_baselines.Bincfi.Broken_rewrite m) ->
        Jt_metrics.Metrics.Fail ("broken rewrite: " ^ m)
      | Error Jt_baselines.Bincfi.Applicable -> assert false
    in
    let closure = Janitizer.Driver.static_closure ~registry ~main in
    let sair_jcfi = Jt_jcfi.Air.static_jcfi closure in
    let sair_bincfi =
      match Jt_baselines.Bincfi.applicability ~registry ~main with
      | Jt_baselines.Bincfi.Applicable ->
        Jt_metrics.Metrics.Value (Jt_baselines.Bincfi.static_air closure)
      | Jt_baselines.Bincfi.Broken_rewrite m ->
        Jt_metrics.Metrics.Fail ("broken rewrite: " ^ m)
    in
    let r =
      {
        b_sheet = s;
        b_native_cycles = n;
        b_native_output = native.r_output;
        b_null = ratio null.o_result.r_cycles n;
        b_jasan_h = ratio jasan_h.o_result.r_cycles n;
        b_jasan_b = ratio jasan_b.o_result.r_cycles n;
        b_jasan_d = ratio jasan_d.o_result.r_cycles n;
        b_valgrind = ratio valgrind.r_cycles n;
        b_retrowrite = retrowrite;
        b_jcfi_h = ratio jcfi_h.o_result.r_cycles n;
        b_jcfi_d = ratio jcfi_d.o_result.r_cycles n;
        b_jcfi_fwd = ratio jcfi_fwd.o_result.r_cycles n;
        b_lockdown = lockdown;
        b_bincfi = bincfi;
        b_dynfrac = jasan_h.o_dynamic_fraction;
        b_dair_h = Jt_jcfi.Air.dynamic rt_h;
        b_dair_d = Jt_jcfi.Air.dynamic rt_d;
        b_lk_s_air = lk_s_air;
        b_lk_w_air = lk_w_air;
        b_sair_jcfi = sair_jcfi;
        b_sair_bincfi = sair_bincfi;
        b_sound = !sound;
      }
    in
    if not !sound then
      Printf.printf "!! soundness warning: %s produced divergent output\n%!"
        s.s_name;
    r

let measure (s : Sheet.t) =
  match Hashtbl.find_opt cache s.s_name with
  | Some r -> r
  | None ->
    let r = measure_fresh s in
    Hashtbl.replace cache s.s_name r;
    r

(* With [--jobs N], the workloads missing from the cache are measured as
   pool jobs; the shared cache is only written back here, sequentially,
   after every job has completed. *)
let all_runs () =
  (if !jobs > 1 then
     let missing =
       List.filter (fun s -> not (Hashtbl.mem cache s.Sheet.s_name)) Sheet.all
     in
     if missing <> [] then
       Jt_pool.Pool.with_pool ~jobs:!jobs (fun p ->
           let rs =
             Jt_pool.Pool.map p
               (fun s ->
                 Printf.eprintf "  measuring %s...\n%!" s.Sheet.s_name;
                 measure_fresh s)
               missing
           in
           List.iter2
             (fun s r -> Hashtbl.replace cache s.Sheet.s_name r)
             missing rs));
  List.map
    (fun s ->
      if not (Hashtbl.mem cache s.Sheet.s_name) then
        Printf.eprintf "  measuring %s...\n%!" s.Sheet.s_name;
      measure s)
    Sheet.all

(* ---- figures ---- *)

let open_table title unit cols rows =
  Jt_metrics.Metrics.print
    { Jt_metrics.Metrics.t_title = title; t_unit = unit; t_cols = cols; t_rows = rows }

let fig7 () =
  let rows =
    List.map
      (fun r ->
        ( r.b_sheet.Sheet.s_name,
          [
            Jt_metrics.Metrics.Value r.b_valgrind;
            Jt_metrics.Metrics.Value r.b_jasan_d;
            r.b_retrowrite;
            Jt_metrics.Metrics.Value r.b_jasan_h;
          ] ))
      (all_runs ())
  in
  open_table "Figure 7: JASan overhead on SPEC CPU2006-like workloads"
    "slowdown vs native"
    [ "Valgrind"; "JASan-dyn"; "Retrowrite"; "JASan-hybrid" ]
    rows

let fig8 () =
  let rows =
    List.map
      (fun r ->
        ( r.b_sheet.Sheet.s_name,
          [
            Jt_metrics.Metrics.Value r.b_null;
            Jt_metrics.Metrics.Value r.b_jasan_h;
            Jt_metrics.Metrics.Value r.b_jasan_b;
            Jt_metrics.Metrics.Value r.b_jasan_d;
          ] ))
      (all_runs ())
  in
  open_table "Figure 8: JASan overhead breakdown" "slowdown vs native"
    [ "Null client"; "hybrid(full)"; "hybrid(base)"; "JASan-dyn" ]
    rows

let fig9 () =
  let rows =
    List.map
      (fun r ->
        ( r.b_sheet.Sheet.s_name,
          [
            r.b_lockdown;
            Jt_metrics.Metrics.Value r.b_jcfi_d;
            Jt_metrics.Metrics.Value r.b_jcfi_h;
            r.b_bincfi;
          ] ))
      (all_runs ())
  in
  open_table "Figure 9: JCFI overhead vs Lockdown and BinCFI"
    "slowdown vs native"
    [ "Lockdown"; "JCFI-dyn"; "JCFI-hybrid"; "BinCFI" ]
    rows

let fig10 () =
  Printf.printf "\n  running 624 Juliet CWE-122 cases x 2 variants x 2 tools...\n%!";
  let j = Juliet.evaluate Juliet.Jasan_hybrid in
  let v = Juliet.evaluate Juliet.Valgrind in
  Jt_metrics.Metrics.print_kv
    "Figure 10: security properties across 624 Juliet CWE-122 test cases"
    [
      ("", "Valgrind   JASan");
      ( "good: False Positives",
        Printf.sprintf "%9d %7d" v.t_false_pos j.t_false_pos );
      ( "good: True Negatives",
        Printf.sprintf "%9d %7d" v.t_true_neg j.t_true_neg );
      ( "bad:  True Positives",
        Printf.sprintf "%9d %7d" v.t_true_pos j.t_true_pos );
      ( "bad:  False Negatives",
        Printf.sprintf "%9d %7d" v.t_false_neg j.t_false_neg );
    ];
  Printf.printf
    "\n  running sibling families (CWE-124/415/416/121) x 2 variants x 2 tools...\n%!";
  let fam_rows =
    List.concat_map
      (fun fam ->
        let j = Juliet.evaluate_family Juliet.Jasan_hybrid fam in
        let v = Juliet.evaluate_family Juliet.Valgrind fam in
        [
          ( Printf.sprintf "%s (%d): TP"
              (Juliet.family_name fam)
              (List.length (Juliet.family_cases fam)),
            Printf.sprintf "%9d %7d" v.t_true_pos j.t_true_pos );
          ( Printf.sprintf "%s: FN/FP" (Juliet.family_name fam),
            Printf.sprintf "%5d/%-3d %3d/%-3d" v.t_false_neg v.t_false_pos
              j.t_false_neg j.t_false_pos );
        ])
      Juliet.families
  in
  Jt_metrics.Metrics.print_kv
    "Figure 10 (extended): sibling CWE families, per-family detection"
    (("", "Valgrind   JASan") :: fam_rows)

let fig11 () =
  let rows =
    List.map
      (fun r ->
        ( r.b_sheet.Sheet.s_name,
          [
            Jt_metrics.Metrics.Value r.b_null;
            Jt_metrics.Metrics.Value r.b_jcfi_fwd;
            Jt_metrics.Metrics.Value r.b_jcfi_h;
          ] ))
      (all_runs ())
  in
  open_table "Figure 11: forward/backward CFI contribution to JCFI overhead"
    "slowdown vs native"
    [ "Null client"; "+Forward CFI"; "+Backward CFI" ]
    rows

let fig12 () =
  let rows =
    List.map
      (fun r ->
        ( r.b_sheet.Sheet.s_name,
          [
            r.b_lk_s_air;
            Jt_metrics.Metrics.Value r.b_dair_d;
            Jt_metrics.Metrics.Value r.b_dair_h;
            r.b_lk_w_air;
          ] ))
      (all_runs ())
  in
  open_table "Figure 12: dynamic average indirect-target reduction (DAIR)"
    "% (higher is better)"
    [ "Lockdown(S)"; "JCFI-dyn"; "JCFI-hybrid"; "Lockdown(W)" ]
    rows

let fig13 () =
  let rows =
    List.map
      (fun r ->
        ( r.b_sheet.Sheet.s_name,
          [ Jt_metrics.Metrics.Value r.b_sair_jcfi; r.b_sair_bincfi ] ))
      (all_runs ())
  in
  open_table "Figure 13: static average indirect-target reduction (AIR)"
    "% (higher is better)" [ "JCFI"; "BinCFI" ] rows

let fig14 () =
  let runs = all_runs () in
  let rows =
    List.map
      (fun r ->
        ( r.b_sheet.Sheet.s_name,
          [ Jt_metrics.Metrics.Value (100.0 *. r.b_dynfrac) ] ))
      runs
  in
  open_table
    "Figure 14: basic blocks only discovered by the dynamic modifier"
    "% of executed unique blocks" [ "dynamic code" ] rows;
  let mean =
    List.fold_left (fun acc r -> acc +. r.b_dynfrac) 0.0 runs
    /. float_of_int (List.length runs)
  in
  Printf.printf "arith. mean: %.2f%%\n" (100.0 *. mean)

(* ---- ablation: the static-pass design choices DESIGN.md calls out ---- *)

let ablation () =
  let subset = [ "bzip2"; "perlbench"; "hmmer"; "gobmk"; "milc"; "soplex" ] in
  let configs =
    [
      ("full", fun () -> fst (Jt_jasan.Jasan.create ()));
      ("no SCEV hoisting", fun () -> fst (Jt_jasan.Jasan.create ~hoist_scev:false ()));
      ( "no frame-skip",
        fun () -> fst (Jt_jasan.Jasan.create ~skip_frame_accesses:false ()) );
      ( "no liveness",
        fun () -> fst (Jt_jasan.Jasan.create ~liveness:Jt_jasan.Jasan.Live_none ()) );
      ( "clean calls",
        fun () -> fst (Jt_jasan.Jasan.create ~clean_calls:true ()) );
    ]
  in
  let rows =
    List.map
      (fun name ->
        let s = Sheet.find name in
        let w = Specgen.build s in
        let native = Specgen.run_native w in
        ( name,
          List.map
            (fun (_, mk) ->
              let o =
                Janitizer.Driver.run ~tool:(mk ()) ~registry:w.w_registry
                  ~main:name ()
              in
              Jt_metrics.Metrics.Value (ratio o.o_result.r_cycles native.r_cycles))
            configs ))
      subset
  in
  open_table "Ablation: JASan static-pass optimizations (subset)"
    "slowdown vs native" (List.map fst configs) rows;
  (* Canary analysis is a soundness requirement, not an optimization:
     once frame accesses are instrumented (as RetroWrite-class tools and
     the dynamic fallback must), the epilogue's own canary read trips the
     poison unless canary analysis exempts it. *)
  let w = Specgen.build (Sheet.find "gobmk") in
  let run_cfg ~exempt =
    let tool =
      fst
        (Jt_jasan.Jasan.create ~skip_frame_accesses:false ~exempt_canary:exempt ())
    in
    let o = Janitizer.Driver.run ~tool ~registry:w.w_registry ~main:"gobmk" () in
    List.length o.o_result.r_violations
  in
  Printf.printf
    "\ncanary-analysis necessity (frame accesses instrumented): %d false\n\
     violations on gobmk without the exemption, %d with it\n"
    (run_cfg ~exempt:false) (run_cfg ~exempt:true)

(* ---- dispatch microbenchmark: blocks/sec, chain/IBL hit rates ----

   Runs a loop-heavy subset under the null-client DBT in three
   configurations — full fast paths (chain+IBL+traces), chain-only (the
   PR 1 baseline) and fully unchained — checks that observable program
   behavior (status, output, instruction count, violations) is
   bit-identical across all three, and reports host-level dispatch cost.
   Simulated cycles intentionally drop with IBL on (that is the modeled
   win), so cycles are excluded from the identity check.  Emits
   machine-readable JSON (BENCH_dispatch.json) so future PRs can track
   the dispatch-cost trajectory. *)

type dispatch_row = {
  d_name : string;
  d_block_execs : int;
  d_chain_hits : int;
  d_ibl_hits : int;
  d_ibl_misses : int;
  d_traces_built : int;
  d_trace_execs : int;
  d_entries_full : int;
  d_entries_chain_only : int;
  d_entries_unchained : int;
  d_chain_hit_rate : float;  (** chain-only config, comparable to PR 1 *)
  d_ibl_hit_rate : float;
  d_chain_ibl_hit_rate : float;  (** transfers that skipped the dispatcher *)
  d_blocks_per_sec : float;
  d_bit_identical : bool;
}

let dispatch_rows () =
  let loopy = [ "bzip2"; "hmmer"; "mcf"; "milc"; "lbm"; "sjeng" ] in
  let run_one ~chain ~ibl ~trace registry main =
    let vm = Jt_vm.Vm.make ~registry in
    let engine = Jt_dbt.Dbt.create ~vm ~chain ~ibl ~trace () in
    Jt_vm.Vm.boot vm ~main;
    (* count from a clean slate: nothing before [run] may leak in *)
    Jt_dbt.Dbt.reset_stats engine;
    let t0 = Sys.time () in
    if vm.Jt_vm.Vm.status = Jt_vm.Vm.Running then Jt_dbt.Dbt.run engine;
    let dt = Sys.time () -. t0 in
    (Jt_vm.Vm.result vm, Jt_dbt.Dbt.stats engine, dt)
  in
  let observable (r : Jt_vm.Vm.result) =
    (r.r_status, r.r_output, r.r_icount, r.r_violations)
  in
  let rate num den =
    if den = 0 then 0.0 else float_of_int num /. float_of_int den
  in
  List.map
    (fun name ->
      Printf.eprintf "  dispatch: %s...\n%!" name;
      let w = Specgen.build (Sheet.find name) in
      let reg = w.Specgen.w_registry in
      let r_full, s_full, dt =
        run_one ~chain:true ~ibl:true ~trace:true reg name
      in
      let r_chain, s_chain, _ =
        run_one ~chain:true ~ibl:false ~trace:false reg name
      in
      let r_off, s_off, _ =
        run_one ~chain:false ~ibl:false ~trace:false reg name
      in
      (* The entry-accounting identity (every executed block reached
         through exactly one of the dispatcher, a chain link, an IBL hit
         or a trace-interior transition) is asserted by [Dbt.run] itself
         on every run via [Jt_trace.Trace.entry_accounting] — no harness
         check needed here anymore. *)
      {
        d_name = name;
        d_block_execs = s_full.Jt_dbt.Dbt.st_block_execs;
        d_chain_hits = s_full.st_chain_hits;
        d_ibl_hits = s_full.st_ibl_hits;
        d_ibl_misses = s_full.st_ibl_misses;
        d_traces_built = s_full.st_traces_built;
        d_trace_execs = s_full.st_trace_execs;
        d_entries_full = s_full.st_dispatch_entries;
        d_entries_chain_only = s_chain.st_dispatch_entries;
        d_entries_unchained = s_off.st_dispatch_entries;
        d_chain_hit_rate =
          rate s_chain.st_chain_hits
            (s_chain.st_chain_hits + s_chain.st_dispatch_entries);
        d_ibl_hit_rate =
          rate s_full.st_ibl_hits (s_full.st_ibl_hits + s_full.st_ibl_misses);
        d_chain_ibl_hit_rate =
          rate
            (s_full.st_block_execs - s_full.st_dispatch_entries)
            s_full.st_block_execs;
        d_blocks_per_sec = float_of_int s_full.st_block_execs /. max dt 1e-9;
        d_bit_identical =
          observable r_full = observable r_chain
          && observable r_chain = observable r_off;
      })
    loopy

let dispatch_json rows =
  let row_json r =
    Printf.sprintf
      "    {\"name\": \"%s\", \"block_execs\": %d, \"chain_hits\": %d, \
       \"ibl_hits\": %d, \"ibl_misses\": %d, \"traces_built\": %d, \
       \"trace_execs\": %d, \"dispatcher_entries\": %d, \
       \"dispatcher_entries_chain_only\": %d, \
       \"dispatcher_entries_unchained\": %d, \"chain_hit_rate\": %.4f, \
       \"ibl_hit_rate\": %.4f, \"chain_ibl_hit_rate\": %.4f, \
       \"blocks_per_sec\": %.0f, \"bit_identical\": %b}"
      r.d_name r.d_block_execs r.d_chain_hits r.d_ibl_hits r.d_ibl_misses
      r.d_traces_built r.d_trace_execs r.d_entries_full r.d_entries_chain_only
      r.d_entries_unchained r.d_chain_hit_rate r.d_ibl_hit_rate
      r.d_chain_ibl_hit_rate r.d_blocks_per_sec r.d_bit_identical
  in
  Printf.sprintf "{\n  \"target\": \"dispatch\",\n  \"workloads\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" (List.map row_json rows))

let dispatch () =
  let rows = dispatch_rows () in
  let tbl_rows =
    List.map
      (fun r ->
        ( r.d_name,
          [
            Jt_metrics.Metrics.Value (float_of_int r.d_entries_unchained);
            Jt_metrics.Metrics.Value (float_of_int r.d_entries_chain_only);
            Jt_metrics.Metrics.Value (float_of_int r.d_entries_full);
            Jt_metrics.Metrics.Value (100.0 *. r.d_chain_ibl_hit_rate);
            Jt_metrics.Metrics.Value (100.0 *. r.d_ibl_hit_rate);
            Jt_metrics.Metrics.Value (float_of_int r.d_traces_built);
            Jt_metrics.Metrics.Value r.d_blocks_per_sec;
          ] ))
      rows
  in
  open_table
    "Dispatch microbenchmark: chaining + IBL + traces vs dispatcher entries"
    "counts / % / blocks-per-sec"
    [
      "entries(off)"; "entries(chain)"; "entries(full)"; "chain+ibl %";
      "ibl-hit %"; "traces"; "blocks/sec";
    ]
    tbl_rows;
  List.iter
    (fun r ->
      if not r.d_bit_identical then
        Printf.printf "!! dispatch: %s diverged across fast-path configs\n"
          r.d_name)
    rows;
  let json = dispatch_json rows in
  let oc = open_out "BENCH_dispatch.json" in
  output_string oc json;
  close_out oc;
  print_string json

(* ---- shadow microbenchmark: per-byte loop vs page-at-a-time bulk ----

   The "before" series reproduces the pre-optimization implementation
   faithfully: one hash probe and one byte store/load per shadow byte
   (exactly what [Shadow.set]/[Shadow.get] still do, and what
   poison/unpoison used to loop over).  The "after" series uses the bulk
   entry points: page-at-a-time [Bytes.fill] for poisoning and
   whole-page skipping for the clean-scan path. *)

let shadow_bench () =
  let len = 1 lsl 20 (* 1 MiB *) in
  let base = 0x5000_0000 in
  let naive_reps = 4 and bulk_reps = 1000 in
  let time reps f =
    let t0 = Sys.time () in
    for _ = 1 to reps do
      f ()
    done;
    max (Sys.time () -. t0) 1e-9
  in
  let mibs reps dt = float_of_int reps *. (float_of_int len /. dt) /. 1048576.0 in
  let dt_naive_poison =
    time naive_reps (fun () ->
        let s = Jt_jasan.Shadow.create () in
        for i = 0 to len - 1 do
          Jt_jasan.Shadow.set s (base + i) 1
        done)
  in
  let dt_bulk_poison =
    time bulk_reps (fun () ->
        let s = Jt_jasan.Shadow.create () in
        Jt_jasan.Shadow.poison s base ~len Jt_jasan.Shadow.Heap_redzone)
  in
  (* Scan of a clean region — the hot JASan check shape.  The region was
     never poisoned, so its pages do not even exist: the bulk path skips
     them wholesale while the per-byte path probes every address. *)
  let clean = Jt_jasan.Shadow.create () in
  Jt_jasan.Shadow.poison clean (base + len) ~len:1 Jt_jasan.Shadow.Heap_redzone;
  let dt_naive_scan =
    time naive_reps (fun () ->
        for i = 0 to len - 1 do
          if Jt_jasan.Shadow.get clean (base + i) <> 0 then
            failwith "unexpected poison"
        done)
  in
  let dt_bulk_scan =
    time bulk_reps (fun () ->
        if Jt_jasan.Shadow.first_poisoned clean base ~len <> None then
          failwith "unexpected poison")
  in
  (* correctness spot-checks on the bulk paths while we are here *)
  let s = Jt_jasan.Shadow.create () in
  Jt_jasan.Shadow.poison s base ~len Jt_jasan.Shadow.Heap_freed;
  assert (Jt_jasan.Shadow.poisoned_count s = len);
  assert (
    Jt_jasan.Shadow.first_poisoned s (base - 8) ~len:16
    = Some (base, Jt_jasan.Shadow.Heap_freed));
  Jt_jasan.Shadow.unpoison s base ~len;
  assert (Jt_jasan.Shadow.poisoned_count s = 0);
  let line label reps dt dt_base reps_base =
    ( label,
      Printf.sprintf "%10.1f MiB/s  (%.0fx)" (mibs reps dt)
        (mibs reps dt /. mibs reps_base dt_base) )
  in
  Jt_metrics.Metrics.print_kv
    "Shadow microbenchmark: 1 MiB poison / clean-region scan"
    [
      line "poison: per-byte set" naive_reps dt_naive_poison dt_naive_poison
        naive_reps;
      line "poison: bulk fill" bulk_reps dt_bulk_poison dt_naive_poison
        naive_reps;
      line "scan:   per-byte get" naive_reps dt_naive_scan dt_naive_scan
        naive_reps;
      line "scan:   bulk first_poisoned" bulk_reps dt_bulk_scan dt_naive_scan
        naive_reps;
    ]

(* ---- trace-overhead: the jt_trace layer's cost contract ----

   Runs a subset under JASan twice — tracing disabled (the default) and
   tracing enabled — and checks the layer's two promises: (1) tracing is
   host-level observation only, so the simulated results (status, output,
   icount, cycles, violations) are bit-identical and the icount overhead
   is exactly 0% (trivially within the <=5% budget); (2) the enabled path
   stays cheap, reported as a host wall-clock ratio.  Emits
   BENCH_trace_overhead.json and a sample event stream
   (TRACE_sample.jsonl) for CI artifacts. *)

type trace_ov_row = {
  tov_name : string;
  tov_icount : int;
  tov_icount_overhead_pct : float;
  tov_identical : bool;
  tov_events : int;
  tov_dropped : int;
  tov_host_off_s : float;
  tov_host_on_s : float;
  tov_host_ratio : float;
}

let trace_overhead () =
  let subset = [ "bzip2"; "hmmer"; "mcf"; "sjeng" ] in
  let observable (r : Jt_vm.Vm.result) =
    (r.r_status, r.r_output, r.r_icount, r.r_cycles, r.r_violations)
  in
  let run_once registry main =
    let tool, _ = Jt_jasan.Jasan.create () in
    let t0 = Sys.time () in
    let o = Janitizer.Driver.run ~tool ~registry ~main () in
    (o.o_result, max (Sys.time () -. t0) 1e-9)
  in
  let rows =
    List.mapi
      (fun i name ->
        Printf.eprintf "  trace-overhead: %s...\n%!" name;
        let w = Specgen.build (Sheet.find name) in
        let reg = w.Specgen.w_registry in
        Jt_trace.Trace.disable ();
        let r_off, dt_off = run_once reg name in
        Jt_trace.Trace.enable ();
        let r_on, dt_on = run_once reg name in
        let events = Jt_trace.Trace.emitted () in
        let dropped = Jt_trace.Trace.dropped () in
        if i = 0 then begin
          let oc = open_out "TRACE_sample.jsonl" in
          Jt_trace.Trace.export oc;
          close_out oc
        end;
        Jt_trace.Trace.disable ();
        Jt_trace.Trace.clear ();
        {
          tov_name = name;
          tov_icount = r_off.Jt_vm.Vm.r_icount;
          tov_icount_overhead_pct =
            100.0
            *. float_of_int (r_on.Jt_vm.Vm.r_icount - r_off.Jt_vm.Vm.r_icount)
            /. float_of_int (max r_off.Jt_vm.Vm.r_icount 1);
          tov_identical = observable r_off = observable r_on;
          tov_events = events;
          tov_dropped = dropped;
          tov_host_off_s = dt_off;
          tov_host_on_s = dt_on;
          tov_host_ratio = dt_on /. dt_off;
        })
      subset
  in
  open_table
    "Trace overhead: JASan-hybrid with jt_trace off vs on"
    "icount-overhead % / events / host ratio"
    [ "icount ovh %"; "events"; "dropped"; "host x" ]
    (List.map
       (fun r ->
         ( r.tov_name,
           [
             Jt_metrics.Metrics.Value r.tov_icount_overhead_pct;
             Jt_metrics.Metrics.Value (float_of_int r.tov_events);
             Jt_metrics.Metrics.Value (float_of_int r.tov_dropped);
             Jt_metrics.Metrics.Value r.tov_host_ratio;
           ] ))
       rows);
  let bad =
    List.filter
      (fun r -> (not r.tov_identical) || r.tov_icount_overhead_pct > 5.0)
      rows
  in
  List.iter
    (fun r ->
      Printf.eprintf
        "!! trace-overhead: %s %s (icount overhead %.2f%%)\n%!" r.tov_name
        (if r.tov_identical then "over budget" else "diverged with tracing on")
        r.tov_icount_overhead_pct)
    bad;
  let row_json r =
    Printf.sprintf
      "    {\"name\": \"%s\", \"icount\": %d, \"icount_overhead_pct\": %.4f, \
       \"identical\": %b, \"events\": %d, \"dropped\": %d, \
       \"host_off_s\": %.6f, \"host_on_s\": %.6f, \"host_ratio\": %.3f}"
      r.tov_name r.tov_icount r.tov_icount_overhead_pct r.tov_identical
      r.tov_events r.tov_dropped r.tov_host_off_s r.tov_host_on_s
      r.tov_host_ratio
  in
  let json =
    Printf.sprintf
      "{\n  \"target\": \"trace-overhead\",\n  \"budget_icount_pct\": 5.0,\n\
      \  \"workloads\": [\n%s\n  ]\n}\n"
      (String.concat ",\n" (List.map row_json rows))
  in
  let oc = open_out "BENCH_trace_overhead.json" in
  output_string oc json;
  close_out oc;
  print_string json;
  if bad <> [] then exit 1

(* ---- parallel: sequential-vs-pool wall clock over the full sweep ----

   One job = one workload evaluated under JASan-hybrid (build, static
   pass, simulated run).  The whole 27-workload sweep runs twice: purely
   sequentially on the main domain, then as jobs on a [Jt_pool].  The
   contract asserted here is the tentpole's: parallelism must never
   change what the simulator computes, so every per-workload observable
   (exit status, output, icount, cycles, violations, rule count) is
   bit-identical between the two sweeps; the payoff is wall clock,
   recorded in BENCH_parallel.json. *)

type parallel_row = {
  pr_name : string;
  pr_status : string;
  pr_output : string;
  pr_icount : int;
  pr_cycles : int;
  pr_violations : int;
  pr_rules : int;
}

let parallel_eval (s : Sheet.t) =
  let w = Specgen.build s in
  let tool, _ = Jt_jasan.Jasan.create () in
  let o =
    Janitizer.Driver.run ~tool ~registry:w.w_registry ~main:s.s_name ()
  in
  let r = o.Janitizer.Driver.o_result in
  {
    pr_name = s.s_name;
    pr_status = Format.asprintf "%a" Jt_vm.Vm.pp_status r.r_status;
    pr_output = r.r_output;
    pr_icount = r.r_icount;
    pr_cycles = r.r_cycles;
    pr_violations = List.length r.r_violations;
    pr_rules = o.o_rule_count;
  }

let parallel_bench () =
  (* [Sys.time] is process CPU time — it *sums* across domains and would
     hide any speedup — so this target alone measures wall clock. *)
  let wall () = Unix.gettimeofday () in
  let n_jobs = if !jobs > 1 then !jobs else 4 in
  (* Speedup is bounded by the cores the host actually grants; recording
     the count keeps a 1-core CI container's sub-1x number interpretable
     next to a many-core machine's. *)
  let cores = Domain.recommended_domain_count () in
  Printf.eprintf "  parallel: sequential sweep (%d workloads)...\n%!"
    (List.length Sheet.all);
  let t0 = wall () in
  let seq = List.map parallel_eval Sheet.all in
  let seq_s = wall () -. t0 in
  Printf.eprintf "  parallel: pool sweep (--jobs %d)...\n%!" n_jobs;
  let t1 = wall () in
  let par =
    Jt_pool.Pool.run ~jobs:n_jobs parallel_eval Sheet.all
  in
  let par_s = wall () -. t1 in
  (* A 1-core host cannot speed anything up: the pool only adds domain
     scheduling on top of the same serial work, so the measured ratio is
     noise (historically reported as a bogus 0.4x "speedup").  Report
     null with a reason instead of a misleading number, and only gate on
     the ratio when real parallelism was possible. *)
  let speedup =
    if cores < 2 then None else Some (seq_s /. max par_s 1e-9)
  in
  let mismatches =
    List.filter_map
      (fun (a, b) -> if a = b then None else Some a.pr_name)
      (List.combine seq par)
  in
  List.iter
    (fun n -> Printf.printf "!! parallel: %s diverged between sweeps\n" n)
    mismatches;
  Jt_metrics.Metrics.print_kv "Parallel sweep: sequential vs domain pool"
    [
      ("workloads", string_of_int (List.length seq));
      ("jobs", string_of_int n_jobs);
      ("host cores", string_of_int cores);
      ("sequential wall", Printf.sprintf "%.2f s" seq_s);
      ("parallel wall", Printf.sprintf "%.2f s" par_s);
      ( "speedup",
        match speedup with
        | Some s -> Printf.sprintf "%.2fx" s
        | None -> "n/a (single-core host)" );
      ( "bit-identical",
        if mismatches = [] then "yes" else "NO (" ^ String.concat "," mismatches ^ ")" );
    ];
  let row_json r =
    Printf.sprintf
      "    {\"name\": \"%s\", \"status\": \"%s\", \"icount\": %d, \
       \"cycles\": %d, \"violations\": %d, \"rules\": %d}"
      r.pr_name (String.escaped r.pr_status) r.pr_icount r.pr_cycles
      r.pr_violations r.pr_rules
  in
  let speedup_json =
    match speedup with
    | Some s -> Printf.sprintf "%.3f" s
    | None -> "null,\n  \"speedup_reason\": \"single-core host\""
  in
  let json =
    Printf.sprintf
      "{\n  \"target\": \"parallel\",\n  \"jobs\": %d,\n  \"host_cores\": %d,\n\
      \  \"sequential_wall_s\": %.3f,\n  \"parallel_wall_s\": %.3f,\n\
      \  \"speedup\": %s,\n  \"bit_identical\": %b,\n\
      \  \"workloads\": [\n%s\n  ]\n}\n"
      n_jobs cores seq_s par_s speedup_json (mismatches = [])
      (String.concat ",\n" (List.map row_json seq))
  in
  let oc = open_out "BENCH_parallel.json" in
  output_string oc json;
  close_out oc;
  print_string json;
  (* the bit-identical contract always gates; the wall-clock ratio gates
     only where the host could actually parallelize *)
  let slow = match speedup with Some s -> s < 1.0 | None -> false in
  if slow then
    Printf.printf "!! parallel: pool sweep slower than sequential\n";
  if mismatches <> [] || slow then exit 1

(* ---- bechamel microbenchmarks of the framework's own primitives ---- *)

let micro () =
  let open Bechamel in
  let insn_bytes =
    Jt_isa.Encode.encode ~at:0x400000
      (Jt_isa.Insn.Load (Jt_isa.Insn.W4, Jt_isa.Reg.r1, Jt_isa.Insn.mem_base ~disp:16 Jt_isa.Reg.r2))
  in
  let decode_test =
    Test.make ~name:"decode one instruction" (Staged.stage (fun () ->
        ignore (Jt_isa.Decode.from_string insn_bytes ~pos:0 ~at:0x400000)))
  in
  let shadow = Jt_jasan.Shadow.create () in
  Jt_jasan.Shadow.poison shadow 0x5000_0000 ~len:16 Jt_jasan.Shadow.Heap_redzone;
  let shadow_test =
    Test.make ~name:"shadow check (4 bytes)" (Staged.stage (fun () ->
        ignore (Jt_jasan.Shadow.first_poisoned shadow 0x5100_0000 ~len:4)))
  in
  let file =
    {
      Jt_rules.Rules.rf_module = "m";
      rf_digest = "";
      rf_stats = [];
      rf_rules =
        List.init 512 (fun i ->
            Jt_rules.Rules.make ~id:0x101 ~bb:(0x400000 + (i * 16))
              ~insn:(0x400000 + (i * 16))
              ~data:[ 2; 1 ] ());
    }
  in
  let table = Jt_rules.Rules.Table.load file ~base:0 ~pic:false in
  let table_test =
    Test.make ~name:"rule-table lookup" (Staged.stage (fun () ->
        ignore (Jt_rules.Rules.Table.at_insn table 0x400800)))
  in
  let tests = [ decode_test; shadow_test; table_test ] in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) () in
    let raw =
      Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ]
        (Test.make_grouped ~name:"g" [ test ])
    in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    Hashtbl.iter
      (fun name o ->
        match Analyze.OLS.estimates o with
        | Some [ est ] -> Printf.printf "  %-40s %10.1f ns/op\n" name est
        | Some _ | None -> ())
      results
  in
  Printf.printf "\n== Microbenchmarks (bechamel) ==\n";
  List.iter benchmark tests

(* ---- elide: dynamic-check reduction from the elision passes ----

   Per mem-op-heavy workload, JASan-hybrid runs twice — elision off and
   on — and reports the executed shadow-check counts from the c_san_checks
   counter.  The on-run includes the full stack: the static per-block
   passes (VSA frame bounds, dominating checks, SCEV hoisting) plus the
   trace-spine elision the DBT performs on hot superblocks.  Two hard
   gates: the runs must be observably identical (status, output, icount,
   and the set of (kind, addr) violations), and the geomean check-count
   reduction must reach 45%. *)

type elide_row = {
  el_name : string;
  el_checks_off : int;
  el_checks_on : int;
  el_ratio : float;  (* on / off *)
  el_frame : int;
  el_dom : int;
  el_trace : int;  (* executed-check elisions by the trace layer *)
  el_icount : int;
  el_identical : bool;
}

let elide_bench () =
  let subset =
    [ "bzip2"; "hmmer"; "libquantum"; "milc"; "lbm"; "sphinx3"; "perlbench";
      "h264ref" ]
  in
  let observable (r : Jt_vm.Vm.result) = (r.r_status, r.r_output, r.r_icount) in
  let vset (r : Jt_vm.Vm.result) =
    List.sort_uniq compare
      (List.map
         (fun (v : Jt_vm.Vm.violation) -> (v.v_kind, v.v_addr))
         r.r_violations)
  in
  let run_once ~elide registry main =
    let tool, _ = Jt_jasan.Jasan.create ~elide () in
    let o = Janitizer.Driver.run ~tool ~registry ~main () in
    let snap = Jt_metrics.Metrics.Counters.snapshot () in
    let cnt k = Option.value ~default:0 (List.assoc_opt k snap) in
    let trace =
      cnt "san_trace_elide_dom" + cnt "san_trace_elide_streak"
      + cnt "san_trace_elide_ind"
    in
    (o.o_result, cnt "san_checks", cnt "san_elide_frame", cnt "san_elide_dom",
     trace)
  in
  let rows =
    List.map
      (fun name ->
        Printf.eprintf "  elide: %s...\n%!" name;
        let w = Specgen.build (Sheet.find name) in
        let reg = w.Specgen.w_registry in
        let r_off, c_off, _, _, _ = run_once ~elide:false reg name in
        let r_on, c_on, frame, dom, trace = run_once ~elide:true reg name in
        {
          el_name = name;
          el_checks_off = c_off;
          el_checks_on = c_on;
          el_ratio = float_of_int c_on /. float_of_int (max c_off 1);
          el_frame = frame;
          el_dom = dom;
          el_trace = trace;
          el_icount = r_on.Jt_vm.Vm.r_icount;
          el_identical =
            observable r_off = observable r_on && vset r_off = vset r_on;
        })
      subset
  in
  open_table "JASan dynamic checks: elision off vs on"
    "executed shadow checks / static elisions / trace-layer elisions"
    [ "checks off"; "checks on"; "reduction %"; "frame"; "dom"; "trace" ]
    (List.map
       (fun r ->
         ( r.el_name,
           [
             Jt_metrics.Metrics.Value (float_of_int r.el_checks_off);
             Jt_metrics.Metrics.Value (float_of_int r.el_checks_on);
             Jt_metrics.Metrics.Value (100.0 *. (1.0 -. r.el_ratio));
             Jt_metrics.Metrics.Value (float_of_int r.el_frame);
             Jt_metrics.Metrics.Value (float_of_int r.el_dom);
             Jt_metrics.Metrics.Value (float_of_int r.el_trace);
           ] ))
       rows);
  let geo_ratio = Jt_metrics.Metrics.geomean (List.map (fun r -> r.el_ratio) rows) in
  let geo_reduction = 100.0 *. (1.0 -. geo_ratio) in
  Printf.printf "\ngeomean check reduction: %.1f%% (gate: >= 45%%)\n"
    geo_reduction;
  let diverged = List.filter (fun r -> not r.el_identical) rows in
  List.iter
    (fun r ->
      Printf.eprintf "!! elide: %s diverged with elision on\n%!" r.el_name)
    diverged;
  let row_json r =
    Printf.sprintf
      "    {\"name\": \"%s\", \"checks_off\": %d, \"checks_on\": %d, \
       \"reduction_pct\": %.4f, \"elide_frame\": %d, \"elide_dom\": %d, \
       \"elide_trace\": %d, \"icount\": %d, \"identical\": %b}"
      r.el_name r.el_checks_off r.el_checks_on
      (100.0 *. (1.0 -. r.el_ratio))
      r.el_frame r.el_dom r.el_trace r.el_icount r.el_identical
  in
  let json =
    Printf.sprintf
      "{\n  \"target\": \"elide\",\n  \"gate_reduction_pct\": 45.0,\n\
      \  \"geomean_reduction_pct\": %.4f,\n  \"workloads\": [\n%s\n  ]\n}\n"
      geo_reduction
      (String.concat ",\n" (List.map row_json rows))
  in
  let oc = open_out "BENCH_elide.json" in
  output_string oc json;
  close_out oc;
  print_string json;
  if diverged <> [] || geo_reduction < 45.0 then exit 1

(* ---- trace-elide: the trace layer's own contribution ----

   Same eight mem-op-heavy workloads under JASan with the static elision
   passes on in both runs; only the DBT's trace-spine elision is
   toggled.  This isolates what the superblock availability analysis
   removes *on top of* the per-block static passes (the per-block vs
   per-trace row of EXPERIMENTS.md).  Each workload runs in two modes:
   hybrid (static rules) and dynamic-only (the "-dyn" configuration),
   where no static pass has thinned the plans and the trace layer's
   dominating-check and streak elisions fire.  Differential gate as for
   `elide`, per mode: status, output, icount and the (kind, addr)
   violation set must be bit-identical. *)

type trace_elide_row = {
  te_name : string;
  te_hybrid : bool;
  te_checks_off : int;  (* trace elision off (static passes still on) *)
  te_checks_on : int;
  te_dom : int;
  te_streak : int;
  te_ind : int;  (* hoisted to the streak-onset induction guard *)
  te_identical : bool;
}

let trace_elide_bench () =
  let subset =
    [ "bzip2"; "hmmer"; "libquantum"; "milc"; "lbm"; "sphinx3"; "perlbench";
      "h264ref" ]
  in
  let observable (r : Jt_vm.Vm.result) = (r.r_status, r.r_output, r.r_icount) in
  let vset (r : Jt_vm.Vm.result) =
    List.sort_uniq compare
      (List.map
         (fun (v : Jt_vm.Vm.violation) -> (v.v_kind, v.v_addr))
         r.r_violations)
  in
  let run_once ~hybrid ~trace_elide registry main =
    let tool, _ = Jt_jasan.Jasan.create () in
    let o = Janitizer.Driver.run ~hybrid ~trace_elide ~tool ~registry ~main () in
    let snap = Jt_metrics.Metrics.Counters.snapshot () in
    let cnt k = Option.value ~default:0 (List.assoc_opt k snap) in
    ( o.o_result,
      cnt "san_checks",
      cnt "san_trace_elide_dom",
      cnt "san_trace_elide_streak",
      cnt "san_trace_elide_ind" )
  in
  let rows =
    List.concat_map
      (fun hybrid ->
        List.map
          (fun name ->
            Printf.eprintf "  trace-elide: %s%s...\n%!" name
              (if hybrid then "" else " (dyn)");
            let w = Specgen.build (Sheet.find name) in
            let reg = w.Specgen.w_registry in
            let r_off, c_off, _, _, _ =
              run_once ~hybrid ~trace_elide:false reg name
            in
            let r_on, c_on, dom, streak, ind =
              run_once ~hybrid ~trace_elide:true reg name
            in
            {
              te_name = name;
              te_hybrid = hybrid;
              te_checks_off = c_off;
              te_checks_on = c_on;
              te_dom = dom;
              te_streak = streak;
              te_ind = ind;
              te_identical =
                observable r_off = observable r_on && vset r_off = vset r_on;
            })
          subset)
      [ true; false ]
  in
  let mode r = if r.te_hybrid then "hybrid" else "dyn" in
  List.iter
    (fun (hybrid, title) ->
      open_table title "executed shadow checks / elided executions by reason"
        [ "checks off"; "checks on"; "reduction %"; "dom"; "streak"; "ind" ]
        (List.filter_map
           (fun r ->
             if r.te_hybrid <> hybrid then None
             else
               Some
                 ( r.te_name,
                   [
                     Jt_metrics.Metrics.Value (float_of_int r.te_checks_off);
                     Jt_metrics.Metrics.Value (float_of_int r.te_checks_on);
                     Jt_metrics.Metrics.Value
                       (100.0
                       *. (1.0
                          -. float_of_int r.te_checks_on
                             /. float_of_int (max r.te_checks_off 1)));
                     Jt_metrics.Metrics.Value (float_of_int r.te_dom);
                     Jt_metrics.Metrics.Value (float_of_int r.te_streak);
                     Jt_metrics.Metrics.Value (float_of_int r.te_ind);
                   ] ))
           rows))
    [
      (true, "JASan trace-level elision, hybrid: off vs on (static passes on in both)");
      (false, "JASan trace-level elision, dynamic-only: off vs on");
    ];
  let diverged = List.filter (fun r -> not r.te_identical) rows in
  List.iter
    (fun r ->
      Printf.eprintf "!! trace-elide: %s (%s) diverged with trace elision on\n%!"
        r.te_name (mode r))
    diverged;
  let row_json r =
    Printf.sprintf
      "    {\"name\": \"%s\", \"mode\": \"%s\", \"checks_off\": %d, \
       \"checks_on\": %d, \"trace_dom\": %d, \"trace_streak\": %d, \
       \"trace_ind\": %d, \"identical\": %b}"
      r.te_name (mode r) r.te_checks_off r.te_checks_on r.te_dom r.te_streak
      r.te_ind r.te_identical
  in
  let json =
    Printf.sprintf
      "{\n  \"target\": \"trace-elide\",\n  \"workloads\": [\n%s\n  ]\n}\n"
      (String.concat ",\n" (List.map row_json rows))
  in
  let oc = open_out "BENCH_trace_elide.json" in
  output_string oc json;
  close_out oc;
  print_string json;
  if diverged <> [] then exit 1


(* ---- warmstart: cold vs warm static analysis through the IR store ----

   The full workload sweep runs twice against one on-disk IR store: a
   cold arm over an empty store (every module analyzed and persisted)
   and a warm arm with a fresh store handle over the same directory
   (every module reconstructed from disk).  The deterministic contract
   gates, not wall clock: the warm arm must perform *zero*
   [Static_analyzer.compute] runs (counter-verified across pool
   domains), its rule files must be byte-identical to the cold arm's,
   its run observables (status, output, icount, violations) must be
   bit-identical, and its store hit rate must be 100%.  Wall times are
   recorded in BENCH_warmstart.json for trajectory only. *)

type warm_eval = {
  we_name : string;
  we_rules : (string * string) list;  (* module -> encoded rule bytes *)
  we_status : string;
  we_output : string;
  we_icount : int;
  we_violations : (string * int * int) list;
  we_analysis_s : float;
}

let warmstart_eval ~store (s : Sheet.t) =
  let name = s.Sheet.s_name in
  let w = Specgen.build s in
  let registry = w.Specgen.w_registry in
  let closure = Janitizer.Driver.static_closure ~registry ~main:name in
  let tool, _ = Jt_jasan.Jasan.create () in
  let t0 = Unix.gettimeofday () in
  let files = Janitizer.Driver.analyze_all ~store ~tool closure in
  let analysis_s = Unix.gettimeofday () -. t0 in
  (* The simulated run consumes the rules just generated ([precomputed]
     covers the whole closure, so the run itself analyzes nothing); its
     observables depend only on those rule bytes. *)
  let run_tool, _ = Jt_jasan.Jasan.create () in
  let o =
    Janitizer.Driver.run ~store ~precomputed:files ~tool:run_tool ~registry
      ~main:name ()
  in
  let r = o.Janitizer.Driver.o_result in
  {
    we_name = name;
    we_rules =
      List.map (fun (n, f) -> (n, Jt_rules.Rules.encode_file f)) files;
    we_status = Format.asprintf "%a" Jt_vm.Vm.pp_status r.r_status;
    we_output = r.r_output;
    we_icount = r.r_icount;
    we_violations =
      List.map
        (fun (v : Jt_vm.Vm.violation) -> (v.v_kind, v.v_addr, v.v_pc))
        r.r_violations;
    we_analysis_s = analysis_s;
  }

let warmstart () =
  let n_jobs = if !jobs > 1 then !jobs else 2 in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "jt_warmstart_%d" (Unix.getpid ()))
  in
  (* make sure the cold arm really is cold *)
  ignore (Jt_ir.Store.clear (Jt_ir.Store.create ~dir ()));
  let arm label =
    (* a fresh store handle per arm: the warm arm's memory LRU starts
       empty, so every warm hit exercises the disk decode path *)
    let store = Jt_ir.Store.create ~dir () in
    let a0 = Janitizer.Static_analyzer.analyses_performed () in
    Printf.eprintf "  warmstart: %s sweep (%d workloads, %d jobs)...\n%!"
      label (List.length Sheet.all) n_jobs;
    let t0 = Unix.gettimeofday () in
    let evals =
      if n_jobs > 1 then
        Jt_pool.Pool.run ~jobs:n_jobs (warmstart_eval ~store) Sheet.all
      else List.map (warmstart_eval ~store) Sheet.all
    in
    let wall = Unix.gettimeofday () -. t0 in
    let analyses = Janitizer.Static_analyzer.analyses_performed () - a0 in
    (evals, wall, analyses, Jt_ir.Store.stats store)
  in
  let cold, cold_wall, cold_analyses, cold_stats = arm "cold" in
  let warm, warm_wall, warm_analyses, warm_stats = arm "warm" in
  let analysis_wall evals =
    List.fold_left (fun acc e -> acc +. e.we_analysis_s) 0.0 evals
  in
  let cold_analysis_s = analysis_wall cold and warm_analysis_s = analysis_wall warm in
  let observable e = (e.we_status, e.we_output, e.we_icount, e.we_violations) in
  let pairs = List.combine cold warm in
  let rule_mismatches =
    List.filter_map
      (fun (c, w) -> if c.we_rules = w.we_rules then None else Some c.we_name)
      pairs
  in
  let obs_mismatches =
    List.filter_map
      (fun (c, w) ->
        if observable c = observable w then None else Some c.we_name)
      pairs
  in
  let warm_rate = Jt_ir.Store.hit_rate warm_stats in
  let arm_kv label (st : Jt_ir.Store.stats) analyses a_wall wall =
    [
      (label ^ " compute runs", string_of_int analyses);
      (label ^ " analysis wall", Printf.sprintf "%.3f s" a_wall);
      (label ^ " total wall", Printf.sprintf "%.3f s" wall);
      ( label ^ " store",
        Printf.sprintf "%d mem + %d disk hits, %d misses (hit rate %.1f%%)"
          st.Jt_ir.Store.st_mem_hits st.st_disk_hits st.st_misses
          (100.0 *. Jt_ir.Store.hit_rate st) );
    ]
  in
  Jt_metrics.Metrics.print_kv
    "Warm start: cold vs warm static analysis through the IR store"
    (arm_kv "cold" cold_stats cold_analyses cold_analysis_s cold_wall
    @ arm_kv "warm" warm_stats warm_analyses warm_analysis_s warm_wall
    @ [
        ( "analysis speedup",
          Printf.sprintf "%.2fx" (cold_analysis_s /. max warm_analysis_s 1e-9) );
        ( "rules byte-identical",
          if rule_mismatches = [] then "yes"
          else "NO (" ^ String.concat "," rule_mismatches ^ ")" );
        ( "observables bit-identical",
          if obs_mismatches = [] then "yes"
          else "NO (" ^ String.concat "," obs_mismatches ^ ")" );
      ]);
  let arm_json (st : Jt_ir.Store.stats) analyses a_wall wall =
    Printf.sprintf
      "{\"compute_runs\": %d, \"analysis_wall_s\": %.6f, \"wall_s\": %.6f, \
       \"mem_hits\": %d, \"disk_hits\": %d, \"misses\": %d, \
       \"corrupt\": %d, \"hit_rate\": %.4f}"
      analyses a_wall wall st.Jt_ir.Store.st_mem_hits st.st_disk_hits
      st.st_misses st.st_corrupt
      (Jt_ir.Store.hit_rate st)
  in
  let row_json (c, w) =
    Printf.sprintf
      "    {\"name\": \"%s\", \"cold_analysis_s\": %.6f, \
       \"warm_analysis_s\": %.6f, \"rules_identical\": %b, \
       \"observables_identical\": %b}"
      c.we_name c.we_analysis_s w.we_analysis_s (c.we_rules = w.we_rules)
      (observable c = observable w)
  in
  let json =
    Printf.sprintf
      "{\n  \"target\": \"warmstart\",\n  \"jobs\": %d,\n\
      \  \"workloads\": %d,\n  \"cold\": %s,\n  \"warm\": %s,\n\
      \  \"warm_compute_runs\": %d,\n  \"warm_hit_rate\": %.4f,\n\
      \  \"rules_identical\": %b,\n  \"observables_identical\": %b,\n\
      \  \"analysis_speedup\": %.3f,\n  \"per_workload\": [\n%s\n  ]\n}\n"
      n_jobs (List.length cold)
      (arm_json cold_stats cold_analyses cold_analysis_s cold_wall)
      (arm_json warm_stats warm_analyses warm_analysis_s warm_wall)
      warm_analyses warm_rate (rule_mismatches = []) (obs_mismatches = [])
      (cold_analysis_s /. max warm_analysis_s 1e-9)
      (String.concat ",\n" (List.map row_json pairs))
  in
  let oc = open_out "BENCH_warmstart.json" in
  output_string oc json;
  close_out oc;
  print_string json;
  (* best-effort cleanup of the temp store *)
  ignore (Jt_ir.Store.clear (Jt_ir.Store.create ~dir ()));
  (try Sys.rmdir dir with Sys_error _ -> ());
  let failed =
    warm_analyses <> 0 || warm_stats.Jt_ir.Store.st_misses <> 0
    || warm_rate < 1.0 || rule_mismatches <> [] || obs_mismatches <> []
  in
  if warm_analyses <> 0 then
    Printf.eprintf "!! warmstart: warm arm performed %d analyses (want 0)\n%!"
      warm_analyses;
  if warm_stats.Jt_ir.Store.st_misses <> 0 || warm_rate < 1.0 then
    Printf.eprintf "!! warmstart: warm hit rate %.4f (want 1.0)\n%!" warm_rate;
  if failed then exit 1

(* ---- emit: the AOT rewriter's differential gate ----

   Every C workload must emit, run on the plain VM and match the hybrid
   DBT bit-for-bit on status, output and the (kind, addr) violation set;
   instruction and cycle counts must decompose exactly into the
   uninstrumented baseline plus materialized check cost plus pin hops —
   the zero-translation-overhead accounting (no residue for a translator
   to hide in).  C++/Fortran closures must refuse with the typed
   Unsupported_feature verdict instead (the RetroWrite-style
   applicability rows), and the all-C Juliet CWE-122 suite is swept for
   detection parity on both the bad and patched variants.  Everything is
   recorded in BENCH_emit.json. *)

type emit_row = {
  eb_name : string;
  eb_lang : string;
  eb_sites : int;
  eb_pins : int;
  eb_check_cost : int;
  eb_slow_emit : float;
  eb_slow_hybrid : float;
  eb_identical : bool;
  eb_icount_ok : bool;
  eb_cycles_ok : bool;
}

let emit_bench () =
  let observable (r : Jt_vm.Vm.result) = (r.r_status, r.r_output) in
  let vset (r : Jt_vm.Vm.result) =
    List.sort_uniq compare
      (List.map
         (fun (v : Jt_vm.Vm.violation) -> (v.v_kind, v.v_addr))
         r.r_violations)
  in
  let lang_name = function
    | Sheet.C -> "C"
    | Sheet.Cxx -> "C++"
    | Sheet.Fortran -> "Fortran"
    | Sheet.Mixed_cf -> "C/Fortran"
  in
  let emit_tool = Jt_emit.Emit.Asan { elide = true } in
  let rows = ref [] in
  let refusals = ref [] in
  let failures = ref [] in
  List.iter
    (fun (s : Sheet.t) ->
      Printf.eprintf "  emit: %s...\n%!" s.s_name;
      let w = Specgen.build s in
      let registry = w.Specgen.w_registry in
      match
        Jt_emit.Emit.emit_program ~tool:emit_tool ~registry ~main:s.s_name ()
      with
      | Error (m, r) ->
        (match (s.s_lang, r) with
        | Sheet.C, _ ->
          failures :=
            Printf.sprintf "%s: refused (%s)" s.s_name
              (Jt_emit.Emit.refusal_to_string r)
            :: !failures
        | _, Jt_emit.Emit.Unsupported_feature _ -> ()
        | _, _ ->
          failures :=
            Printf.sprintf "%s: wrong refusal kind (%s)" s.s_name
              (Jt_emit.Emit.refusal_to_string r)
            :: !failures);
        refusals :=
          (s.s_name, lang_name s.s_lang, m, Jt_emit.Emit.refusal_to_string r)
          :: !refusals
      | Ok p ->
        (match s.s_lang with
        | Sheet.C -> ()
        | _ ->
          failures :=
            Printf.sprintf "%s: expected a feature refusal" s.s_name
            :: !failures);
        let e = Jt_emit.Emit.run p in
        let er = e.Jt_emit.Emit.ro_outcome.Janitizer.Driver.o_result in
        let tool, _ = Jt_jasan.Jasan.create ~elide:true () in
        let h = Janitizer.Driver.run ~tool ~registry ~main:s.s_name () in
        (* Same allocator policy, no checks: the honest cost floor the
           zero-overhead identity is measured against. *)
        let b =
          Janitizer.Driver.run_plain
            ~setup:(fun vm ->
              Jt_jasan.Jasan.Rt.attach (Jt_jasan.Jasan.Rt.create ()) vm)
            ~registry ~main:s.s_name ()
        in
        let native = Specgen.run_native w in
        let identical =
          observable er = observable h.o_result && vset er = vset h.o_result
        in
        let icount_ok =
          er.r_icount - e.ro_sites - e.ro_pins = h.o_result.r_icount
        in
        let cycles_ok =
          er.r_cycles = b.o_result.r_cycles + e.ro_check_cost + e.ro_pins
        in
        if not (identical && icount_ok && cycles_ok) then
          failures :=
            Printf.sprintf
              "%s: differential broken (identical=%b icount=%b cycles=%b)"
              s.s_name identical icount_ok cycles_ok
            :: !failures;
        rows :=
          {
            eb_name = s.s_name;
            eb_lang = lang_name s.s_lang;
            eb_sites = e.ro_sites;
            eb_pins = e.ro_pins;
            eb_check_cost = e.ro_check_cost;
            eb_slow_emit = ratio er.r_cycles native.r_cycles;
            eb_slow_hybrid = ratio h.o_result.r_cycles native.r_cycles;
            eb_identical = identical;
            eb_icount_ok = icount_ok;
            eb_cycles_ok = cycles_ok;
          }
          :: !rows)
    Sheet.all;
  let rows = List.rev !rows and refusals = List.rev !refusals in
  (* Juliet CWE-122: all C, so the whole suite must emit; gate on
     detection parity with the hybrid for every bad/patched pair. *)
  Printf.eprintf "  emit: juliet CWE-122 sweep...\n%!";
  let juliet_cases = ref 0 and juliet_mismatches = ref 0 in
  List.iter
    (fun (c : Juliet.case) ->
      List.iter
        (fun bad ->
          let m = Juliet.build_case c ~bad in
          let registry = Juliet.registry_for m in
          let main = m.Jt_obj.Objfile.name in
          incr juliet_cases;
          match
            Jt_emit.Emit.emit_program ~tool:emit_tool ~registry ~main ()
          with
          | Error _ -> incr juliet_mismatches
          | Ok p ->
            let e = Jt_emit.Emit.run p in
            let er = e.Jt_emit.Emit.ro_outcome.Janitizer.Driver.o_result in
            let tool, _ = Jt_jasan.Jasan.create ~elide:true () in
            let h = Janitizer.Driver.run ~tool ~registry ~main () in
            if
              not
                (observable er = observable h.o_result
                && vset er = vset h.o_result)
            then incr juliet_mismatches)
        [ false; true ])
    Juliet.cases;
  if !juliet_mismatches > 0 then
    failures :=
      Printf.sprintf "juliet: %d/%d emitted-vs-hybrid mismatches"
        !juliet_mismatches !juliet_cases
      :: !failures;
  (* Sibling families (CWE-124/415/416/121): same parity gate. *)
  Printf.eprintf "  emit: juliet sibling-family sweep...\n%!";
  let family_cases_n = ref 0 and family_mismatches = ref 0 in
  List.iter
    (fun (c : Juliet.fcase) ->
      List.iter
        (fun bad ->
          let m = Juliet.build_family_case c ~bad in
          let registry = Juliet.registry_for m in
          let main = m.Jt_obj.Objfile.name in
          incr family_cases_n;
          match
            Jt_emit.Emit.emit_program ~tool:emit_tool ~registry ~main ()
          with
          | Error _ -> incr family_mismatches
          | Ok p ->
            let e = Jt_emit.Emit.run p in
            let er = e.Jt_emit.Emit.ro_outcome.Janitizer.Driver.o_result in
            let tool, _ = Jt_jasan.Jasan.create ~elide:true () in
            let h = Janitizer.Driver.run ~tool ~registry ~main () in
            if
              not
                (observable er = observable h.o_result
                && vset er = vset h.o_result)
            then incr family_mismatches)
        [ false; true ])
    Juliet.all_family_cases;
  if !family_mismatches > 0 then
    failures :=
      Printf.sprintf "juliet families: %d/%d emitted-vs-hybrid mismatches"
        !family_mismatches !family_cases_n
      :: !failures;
  open_table "AOT emit vs hybrid DBT (JASan, elision on)"
    "slowdown vs native / materialized sites / pin hops"
    [ "emit x"; "hybrid x"; "sites"; "pins"; "check cyc" ]
    (List.map
       (fun r ->
         ( r.eb_name,
           [
             Jt_metrics.Metrics.Value r.eb_slow_emit;
             Jt_metrics.Metrics.Value r.eb_slow_hybrid;
             Jt_metrics.Metrics.Value (float_of_int r.eb_sites);
             Jt_metrics.Metrics.Value (float_of_int r.eb_pins);
             Jt_metrics.Metrics.Value (float_of_int r.eb_check_cost);
           ] ))
       rows);
  List.iter
    (fun (n, lang, m, r) ->
      Printf.printf "refused  %-12s %-10s (%s: %s)\n" n lang m r)
    refusals;
  let geo sel = Jt_metrics.Metrics.geomean (List.map sel rows) in
  Printf.printf
    "\ngeomean slowdown: emitted %.3fx, hybrid %.3fx (static floor, zero \
     translation overhead)\n"
    (geo (fun r -> r.eb_slow_emit))
    (geo (fun r -> r.eb_slow_hybrid));
  Printf.printf "juliet CWE-122: %d runs, %d mismatches\n" !juliet_cases
    !juliet_mismatches;
  Printf.printf "juliet families (124/415/416/121): %d runs, %d mismatches\n"
    !family_cases_n !family_mismatches;
  List.iter (fun f -> Printf.eprintf "!! emit: %s\n%!" f) !failures;
  let row_json r =
    Printf.sprintf
      "    {\"name\": \"%s\", \"lang\": \"%s\", \"sites\": %d, \"pins\": %d, \
       \"check_cycles\": %d, \"slowdown_emit\": %.4f, \"slowdown_hybrid\": \
       %.4f, \"identical\": %b, \"icount_exact\": %b, \"cycles_exact\": %b}"
      r.eb_name r.eb_lang r.eb_sites r.eb_pins r.eb_check_cost r.eb_slow_emit
      r.eb_slow_hybrid r.eb_identical r.eb_icount_ok r.eb_cycles_ok
  in
  let refusal_json (n, lang, m, r) =
    Printf.sprintf
      "    {\"name\": \"%s\", \"lang\": \"%s\", \"module\": \"%s\", \
       \"refusal\": \"%s\"}"
      n lang m r
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"target\": \"emit\",\n\
      \  \"gate\": \"bit-identical differential on emittable workloads, \
       typed refusals elsewhere, exact icount/cycle accounting\",\n\
      \  \"geomean_slowdown_emit\": %.4f,\n\
      \  \"geomean_slowdown_hybrid\": %.4f,\n\
      \  \"juliet\": {\"runs\": %d, \"mismatches\": %d},\n\
      \  \"juliet_families\": {\"runs\": %d, \"mismatches\": %d},\n\
      \  \"failures\": %d,\n\
      \  \"workloads\": [\n%s\n  ],\n\
      \  \"refusals\": [\n%s\n  ]\n\
       }\n"
      (geo (fun r -> r.eb_slow_emit))
      (geo (fun r -> r.eb_slow_hybrid))
      !juliet_cases !juliet_mismatches !family_cases_n !family_mismatches
      (List.length !failures)
      (String.concat ",\n" (List.map row_json rows))
      (String.concat ",\n" (List.map refusal_json refusals))
  in
  let oc = open_out "BENCH_emit.json" in
  output_string oc json;
  close_out oc;
  print_string json;
  if !failures <> [] then exit 1

(* ---- differential soundness fuzzer ---- *)

let fuzz_bench () =
  let base_seed = 1 and seeds = 84 in
  Printf.eprintf
    "  fuzz: %d seeded cases (benign + 5 injections each) x %d schemes...\n%!"
    (6 * seeds)
    (List.length Jt_fuzz.Fuzz.schemes);
  let r = Jt_fuzz.Fuzz.run_suite ~base_seed ~seeds () in
  open_table "Differential soundness fuzzer (ground-truth detection matrix)"
    "cases"
    [ "TP"; "FN"; "TN"; "FP"; "refused" ]
    (List.map
       (fun (x : Jt_fuzz.Fuzz.matrix_row) ->
         ( x.mx_scheme,
           [
             Jt_metrics.Metrics.Value (float_of_int x.mx_tp);
             Jt_metrics.Metrics.Value (float_of_int x.mx_fn);
             Jt_metrics.Metrics.Value (float_of_int x.mx_tn);
             Jt_metrics.Metrics.Value (float_of_int x.mx_fp);
             Jt_metrics.Metrics.Value (float_of_int x.mx_refused);
           ] ))
       r.rp_matrix);
  Printf.printf "\n%d cases, %d scheme runs, %d soundness mismatches\n"
    r.rp_cases r.rp_runs
    (List.length r.rp_mismatches);
  List.iter
    (fun (m : Jt_fuzz.Fuzz.mismatch) ->
      Printf.eprintf "!! fuzz: %s %s: %s\n%!" m.mm_case m.mm_scheme m.mm_what)
    r.rp_mismatches;
  let row_json (x : Jt_fuzz.Fuzz.matrix_row) =
    Printf.sprintf
      "    {\"scheme\": \"%s\", \"tp\": %d, \"fn\": %d, \"tn\": %d, \"fp\": \
       %d, \"refused\": %d}"
      x.mx_scheme x.mx_tp x.mx_fn x.mx_tn x.mx_fp x.mx_refused
  in
  let mismatch_json (m : Jt_fuzz.Fuzz.mismatch) =
    Printf.sprintf "    {\"case\": \"%s\", \"scheme\": \"%s\", \"what\": \"%s\"}"
      m.mm_case m.mm_scheme m.mm_what
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"target\": \"fuzz\",\n\
      \  \"gate\": \"expected detection matrix, bit-identical observables, \
       exact icount accounting, hybrid=emitted violation sets\",\n\
      \  \"base_seed\": %d,\n\
      \  \"cases\": %d,\n\
      \  \"runs\": %d,\n\
      \  \"mismatches\": %d,\n\
      \  \"matrix\": [\n%s\n  ],\n\
      \  \"mismatch_list\": [\n%s\n  ]\n\
       }\n"
      base_seed r.rp_cases r.rp_runs
      (List.length r.rp_mismatches)
      (String.concat ",\n" (List.map row_json r.rp_matrix))
      (String.concat ",\n" (List.map mismatch_json r.rp_mismatches))
  in
  let oc = open_out "BENCH_fuzz.json" in
  output_string oc json;
  close_out oc;
  print_string json;
  if r.rp_mismatches <> [] then exit 1

(* ---- air: per-site CPA policy vs any-entry ----

   For every workload: static AIR (BinCFI-style, over all indirect CTIs)
   under JCFI's any-entry policy and under the per-site CPA policy, with
   the forward/backward split; dynamic AIR over the executed sites for
   both; the per-site target-set-size histogram; and the
   refinement-soundness oracle — every executed (site, target) pair must
   be inside the site's installed set whenever one exists.  CI gates:
   zero oracle violations anywhere in the sweep, and per-site forward
   static AIR strictly above any-entry averaged over the C subset.
   Recorded in BENCH_air.json. *)

type air_row = {
  ar_sheet : Sheet.t;
  ar_s_any : Jt_jcfi.Air.static_report;
  ar_s_cpa : Jt_jcfi.Air.static_report;
  ar_d_any : float;
  ar_d_cpa : float;
  ar_observed : int;  (* executed (site, target) pairs *)
  ar_violations : int;  (* of which outside the site's resolved set *)
}

let air_eval (s : Sheet.t) =
  Printf.eprintf "  air: %s...\n%!" s.Sheet.s_name;
  let w = Specgen.build s in
  let registry = w.Specgen.w_registry in
  let main = s.Sheet.s_name in
  let closure = Janitizer.Driver.static_closure ~registry ~main in
  let s_any = Jt_jcfi.Air.static_jcfi_report closure in
  let s_cpa = Jt_jcfi.Air.static_jcfi_report ~per_site:true closure in
  let tool, rt = Jt_jcfi.Jcfi.create () in
  let _ = Janitizer.Driver.run ~tool ~registry ~main () in
  let d_any = Jt_jcfi.Air.dynamic rt in
  let d_cpa = Jt_jcfi.Air.dynamic ~per_site:true rt in
  let observed = Jt_jcfi.Jcfi.Rt.observed_icalls rt in
  (* The oracle runs against the *installed* tables (run-time
     addresses), not the link-time CPA sets, so PIC modules are checked
     in the coordinate system the policy actually enforced. *)
  let tables = List.map snd (Jt_jcfi.Jcfi.Rt.tables rt) in
  let violations =
    List.filter
      (fun (site, target) ->
        List.exists
          (fun tbl ->
            match Jt_jcfi.Targets.site_set tbl ~site with
            | Some set -> not (List.mem target set)
            | None -> false)
          tables)
      observed
  in
  List.iter
    (fun (site, target) ->
      Printf.eprintf "!! air: %s observed icall %d -> %d outside its set\n%!"
        main site target)
    violations;
  {
    ar_sheet = s;
    ar_s_any = s_any;
    ar_s_cpa = s_cpa;
    ar_d_any = d_any;
    ar_d_cpa = d_cpa;
    ar_observed = List.length observed;
    ar_violations = List.length violations;
  }

let air_bench () =
  let rows = List.map air_eval Sheet.all in
  open_table "AIR: any-entry vs per-site CPA policy"
    "static forward AIR (BinCFI-style) and dynamic AIR (Lockdown-style)"
    [ "s-fwd any"; "s-fwd cpa"; "resolved"; "d any"; "d cpa"; "viol" ]
    (List.map
       (fun r ->
         ( r.ar_sheet.Sheet.s_name,
           [
             Jt_metrics.Metrics.Value r.ar_s_any.Jt_jcfi.Air.sr_fwd;
             Jt_metrics.Metrics.Value r.ar_s_cpa.Jt_jcfi.Air.sr_fwd;
             Jt_metrics.Metrics.Value
               (float_of_int r.ar_s_cpa.Jt_jcfi.Air.sr_resolved);
             Jt_metrics.Metrics.Value r.ar_d_any;
             Jt_metrics.Metrics.Value r.ar_d_cpa;
             Jt_metrics.Metrics.Value (float_of_int r.ar_violations);
           ] ))
       rows);
  let c_names = List.map (fun s -> s.Sheet.s_name) Sheet.c_benchmarks in
  let c_rows =
    List.filter (fun r -> List.mem r.ar_sheet.Sheet.s_name c_names) rows
  in
  let mean f l =
    List.fold_left (fun a r -> a +. f r) 0.0 l /. float_of_int (List.length l)
  in
  let c_any = mean (fun r -> r.ar_s_any.Jt_jcfi.Air.sr_fwd) c_rows in
  let c_cpa = mean (fun r -> r.ar_s_cpa.Jt_jcfi.Air.sr_fwd) c_rows in
  let total_violations =
    List.fold_left (fun a r -> a + r.ar_violations) 0 rows
  in
  Printf.printf
    "\nC-sweep static forward AIR: any-entry %.4f%%, per-site %.4f%% \
     (gate: strict improvement)\n\
     soundness-oracle violations: %d (gate: 0)\n"
    c_any c_cpa total_violations;
  let lang_name = function
    | Sheet.C -> "C"
    | Sheet.Cxx -> "C++"
    | Sheet.Fortran -> "Fortran"
    | Sheet.Mixed_cf -> "mixed C/Fortran"
  in
  let report_json (sr : Jt_jcfi.Air.static_report) =
    Printf.sprintf
      "{\"air\": %.6f, \"fwd\": %.6f, \"bwd\": %.6f, \"icalls\": %d, \
       \"resolved\": %d, \"hist\": [%s]}"
      sr.Jt_jcfi.Air.sr_air sr.sr_fwd sr.sr_bwd sr.sr_icalls sr.sr_resolved
      (String.concat ", "
         (List.map
            (fun (size, n) ->
              Printf.sprintf "{\"size\": %d, \"sites\": %d}" size n)
            sr.sr_hist))
  in
  let row_json r =
    Printf.sprintf
      "    {\"name\": \"%s\", \"lang\": \"%s\",\n\
      \     \"static_any\": %s,\n\
      \     \"static_cpa\": %s,\n\
      \     \"dynamic_any\": %.6f, \"dynamic_cpa\": %.6f,\n\
      \     \"observed_icalls\": %d, \"violations\": %d}"
      r.ar_sheet.Sheet.s_name
      (lang_name r.ar_sheet.Sheet.s_lang)
      (report_json r.ar_s_any) (report_json r.ar_s_cpa) r.ar_d_any r.ar_d_cpa
      r.ar_observed r.ar_violations
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"target\": \"air\",\n\
      \  \"c_sweep_static_fwd_any\": %.6f,\n\
      \  \"c_sweep_static_fwd_cpa\": %.6f,\n\
      \  \"oracle_violations\": %d,\n\
      \  \"workloads\": [\n%s\n  ]\n}\n"
      c_any c_cpa total_violations
      (String.concat ",\n" (List.map row_json rows))
  in
  let oc = open_out "BENCH_air.json" in
  output_string oc json;
  close_out oc;
  print_string json;
  if total_violations > 0 || c_cpa <= c_any then exit 1

(* ---- driver ---- *)

let targets =
  [
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("ablation", ablation);
    ("dispatch", dispatch);
    ("shadow", shadow_bench);
    ("trace-overhead", trace_overhead);
    ("elide", elide_bench);
    ("trace-elide", trace_elide_bench);
    ("parallel", parallel_bench);
    ("warmstart", warmstart);
    ("micro", micro);
    ("emit", emit_bench);
    ("fuzz", fuzz_bench);
    ("air", air_bench);
  ]

(* Strip `--jobs N` (or `--jobs=N`) anywhere in the argument list; the
   rest are target names. *)
let rec parse_args = function
  | [] -> []
  | "--jobs" :: n :: rest -> (
    match int_of_string_opt n with
    | Some v when v >= 1 ->
      jobs := v;
      parse_args rest
    | _ ->
      Printf.eprintf "bad --jobs value %S\n" n;
      exit 2)
  | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" -> (
    let n = String.sub arg 7 (String.length arg - 7) in
    match int_of_string_opt n with
    | Some v when v >= 1 ->
      jobs := v;
      parse_args rest
    | _ ->
      Printf.eprintf "bad --jobs value %S\n" n;
      exit 2)
  | arg :: rest -> arg :: parse_args rest

let () =
  let args = parse_args (List.tl (Array.to_list Sys.argv)) in
  match args with
  | [ "list" ] ->
    List.iter (fun (n, _) -> print_endline n) targets
  | [] ->
    Printf.printf "janitizer benchmark harness: regenerating all figures\n%!";
    List.iter (fun (n, f) -> Printf.printf "\n---- %s ----\n%!" n; f ()) targets
  | names ->
    List.iter
      (fun n ->
        match List.assoc_opt n targets with
        | Some f -> f ()
        | None -> Printf.eprintf "unknown target %s (try 'list')\n" n)
      names
